//! The traced run (`--trace 1`): the per-layer metrics. Layers are the
//! repo's module names.
//!
//! The run's seconds are cut into [`SLICES`] windows that cycle through
//! three modes: **A** untraced with `geoproof_obs` off (the product
//! path, as the end-to-end run measures it), **B** untraced with obs on,
//! **C** traced with obs on. A→B is what enabling the registry costs,
//! B→C what the benchmark's own spans cost; interleaving the modes keeps
//! the machine's slow drift out of both differences. Probes of single
//! calls follow, outside the windows, on the run's own transcripts,
//! arena and ledger.

use crate::drive::{run_open, Mode, PhaseLog, Plan, Span};
use crate::json::Json;
use crate::metrics::{pct_us, span_durations, MetricSet, Windows};
use crate::rig::{encoder, input_bytes, out_dir, remove_ledger, AuditCtx, Rig};
use crate::run::{
    canaries, contexts, failure_notes, load, reconcile, replay_passes, Gates, Outcome, Recorded,
};
use crate::stats::{median, percentile};
use crate::workload::{Workload, C, OPEN_POLICY, RAMP_P99_LIMIT_US, RAMP_RATES};
use geoproof::core::scheduler::SchedulePolicy;
use geoproof::crypto::chacha::ChaChaRng;
use geoproof::ledger::{replay_sequential, Ledger, LedgerWriter};
use geoproof::wire::WireMessage;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Audits whose spans are written to the trace file; all of them are
/// kept in memory and counted in the metrics.
const DUMPED_AUDITS: usize = 200;

/// Windows of the traced run; window `i` runs in `MODES[i % 3]`.
const SLICES: usize = 24;
const MODES: [Mode; 3] = [
    Mode::PRODUCT,
    Mode {
        traced: false,
        obs: true,
    },
    Mode {
        traced: true,
        obs: true,
    },
];

/// Median seconds `f` takes over `reps` calls.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Adds `<stem>_p<NN>_us` for each quantile of `samples` (ns); 0 with no
/// samples, which is how a metric that does not apply to a workload reads.
fn add_pcts(m: &mut MetricSet, stem: &str, samples: Option<&Vec<u64>>, quantiles: &[f64]) {
    for &q in quantiles {
        let (value, n) = pct_us(samples, q);
        m.single(&format!("{stem}_p{:.0}_us", q * 100.0), "us", value, n);
    }
}

/// Checks the trace's shape and returns `trace.residual_frac` at p50:
/// per audit, 1 − (time inside the audit's child spans ÷ the audit span).
///
/// # Errors
///
/// The first audit whose spans do not nest, or a repeated audit id.
pub fn residual_p50(spans: &[Span]) -> Result<f64, String> {
    let mut by_audit: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_audit.entry(s.audit).or_default().push(s);
    }
    let mut residuals = Vec::with_capacity(by_audit.len());
    for (id, group) in &by_audit {
        let mut roots = group.iter().filter(|s| s.name == "audit");
        let (Some(root), None) = (roots.next(), roots.next()) else {
            return Err(format!(
                "audit id {id:#x} does not have exactly one audit span"
            ));
        };
        let find = |name: &str| group.iter().find(|s| s.name == name);
        let mut inside = 0u64;
        for s in group.iter().filter(|s| s.name != "audit") {
            let Some(parent) = find(s.parent) else {
                return Err(format!(
                    "audit {id:#x}: span {} has no parent {}",
                    s.name, s.parent
                ));
            };
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns || s.end_ns < s.start_ns {
                return Err(format!(
                    "audit {id:#x}: span {} is not inside {}",
                    s.name, s.parent
                ));
            }
            if s.parent == "audit" {
                inside += s.end_ns - s.start_ns;
            }
        }
        let whole = (root.end_ns - root.start_ns).max(1);
        residuals.push(1.0 - inside as f64 / whole as f64);
    }
    Ok(median(&residuals))
}

fn dump_trace(spec: &Workload, seed: u64, spans: &[Span]) -> std::io::Result<std::path::PathBuf> {
    let mut audits = std::collections::BTreeSet::new();
    let mut rows = Vec::new();
    for s in spans {
        if !audits.contains(&s.audit) {
            if audits.len() == DUMPED_AUDITS {
                continue;
            }
            audits.insert(s.audit);
        }
        rows.push(Json::obj(vec![
            ("audit", Json::str(format!("{:#x}", s.audit))),
            ("name", Json::str(s.name)),
            ("parent", Json::str(s.parent)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ]));
    }
    let doc = Json::obj(vec![
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(seed as f64)),
        ("audits_dumped", Json::Num(audits.len() as f64)),
        ("spans_recorded", Json::Num(spans.len() as f64)),
        ("spans", Json::Arr(rows)),
    ]);
    let path = out_dir().join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, doc.compact())?;
    Ok(path)
}

/// Open-loop numbers of one phase: offered and achieved rate inside the
/// window, generator lateness, scheduler call times. All zero for a
/// closed loop.
#[derive(Default)]
struct OpenView {
    offered_per_s: f64,
    achieved_over_offered: f64,
    gen_late_p99_us: f64,
    pop_p50_us: f64,
    complete_p50_us: f64,
    due_per_tick: f64,
    backlog_mid: usize,
    backlog_end: usize,
}

fn open_view(phase: &PhaseLog) -> OpenView {
    let Some(open) = phase.open.as_ref() else {
        return OpenView::default();
    };
    let (from, to) = (
        phase.plan.boundary_ns(0),
        phase.plan.boundary_ns(phase.plan.windows),
    );
    let in_window = |t: u64| (from..to).contains(&t);
    let offered: u64 = open
        .due
        .iter()
        .filter(|(t, _)| in_window(*t))
        .map(|&(_, n)| u64::from(n))
        .sum();
    let ticks = open
        .due
        .iter()
        .filter(|(t, _)| in_window(*t))
        .count()
        .max(1);
    // Achieved counts the audits that came due inside the window and
    // finished, whenever they finished.
    let achieved = phase
        .threads
        .iter()
        .flat_map(|t| &t.audits)
        .filter(|a| in_window(a.done_ns - a.latency_ns))
        .count();
    let secs = (to - from) as f64 / 1e9;
    let mut late = open.gen_late_ns.clone();
    let mut pops: Vec<u64> = open.pop_ns.iter().map(|&n| u64::from(n)).collect();
    let mut completes: Vec<u64> = phase
        .threads
        .iter()
        .flat_map(|t| &t.sched_complete_ns)
        .map(|&n| u64::from(n))
        .collect();
    let us = |v: Option<u64>| v.map_or(0.0, |ns| ns as f64 / 1e3);
    OpenView {
        offered_per_s: offered as f64 / secs,
        achieved_over_offered: achieved as f64 / offered.max(1) as f64,
        gen_late_p99_us: us(percentile(&mut late, 0.99)),
        pop_p50_us: us(percentile(&mut pops, 0.5)),
        complete_p50_us: us(percentile(&mut completes, 0.5)),
        due_per_tick: offered as f64 / ticks as f64,
        backlog_mid: open.backlog_mid,
        backlog_end: open.backlog_end,
    }
}

/// The ramp after the open-loop windows: the highest offered rate whose
/// p99 meets the limit with a backlog that is not growing (0 if none).
fn ramp(rig: &Rig, ctxs: &mut [AuditCtx], step_secs: f64) -> (f64, Vec<PhaseLog>) {
    let cadence = SchedulePolicy::parse(OPEN_POLICY)
        .expect("open-loop policy")
        .cadence;
    let mut best = 0.0;
    let mut phases = Vec::new();
    for rate in RAMP_RATES {
        let provers = (rate as f64 * cadence.as_secs_f64()) as usize;
        let plan = Plan {
            warmup: Duration::from_millis(500),
            window: Duration::from_secs_f64(step_secs / 2.0),
            windows: 2,
            modes: |_| Mode::PRODUCT,
        };
        let phase = run_open(rig, ctxs, provers, plan);
        let w = Windows::of(&phase);
        let mut latency = w.latency.concat();
        let p99 = percentile(&mut latency, 0.99).map_or(f64::INFINITY, |ns| ns as f64 / 1e3);
        let open = phase.open.as_ref().expect("open phase");
        let (mid, end) = (open.backlog_mid, open.backlog_end);
        let ok = p99 <= RAMP_P99_LIMIT_US && end <= mid + 2 * C && phase.failed() == 0;
        println!(
            "ramp {rate}/s offered: {:.0}/s achieved, p99 {p99:.0} us, backlog {mid} -> {end} : {}",
            median(&w.rates()),
            if ok { "ok" } else { "over" }
        );
        phases.push(phase);
        if !ok {
            break;
        }
        best = rate as f64;
    }
    (best, phases)
}

/// The traced run (`--trace 1`).
pub fn run_traced(spec: &Workload, seed: u64, seconds: f64) -> Outcome {
    let data = input_bytes(seed, spec.file_mib);
    let rig = Rig::build(spec, seed, &data, "t");
    let mib = spec.file_mib as f64;
    let mut m = MetricSet::default();
    let mut gates = Gates::default();

    // --- load: one phase, modes interleaved ----------------------------------
    let mut ctxs = contexts(&rig);
    let plan = Plan {
        warmup: Duration::from_millis(500),
        window: Duration::from_secs_f64(seconds / SLICES as f64),
        windows: SLICES,
        modes: |i| MODES[i % MODES.len()],
    };
    let obs_before = geoproof::obs::global().snapshot();
    let phase = load(&rig, &mut ctxs, plan);
    let obs_after = geoproof::obs::global().snapshot();
    let (ramp_best, ramp_phases) = match spec.open_provers {
        Some(_) => ramp(&rig, &mut ctxs, seconds * 0.3),
        None => (0.0, Vec::new()),
    };

    let w = Windows::of(&phase);
    let in_mode = |mode: usize| (0..SLICES).filter(move |i| i % MODES.len() == mode);
    let rates = w.rates();
    let rate_of = |mode: usize| median(&in_mode(mode).map(|i| rates[i]).collect::<Vec<_>>());
    let (rate_a, rate_b, rate_c) = (rate_of(0), rate_of(1), rate_of(2));
    let count = |per_window: &[Vec<u64>], mode: usize| -> u64 {
        in_mode(mode).map(|i| per_window[i].len() as u64).sum()
    };
    let (audits_a, audits_b, audits_c) = (
        count(&w.latency, 0),
        count(&w.latency, 1),
        count(&w.latency, 2),
    );
    let rounds_a = count(&w.rounds, 0).max(1) as f64;
    let rounds_obs = (count(&w.rounds, 1) + count(&w.rounds, 2)).max(1) as f64;
    let secs_a = w.secs * (SLICES / MODES.len()) as f64;
    let pooled = |per_window: &[Vec<u64>], mode: usize| -> Vec<u64> {
        in_mode(mode)
            .flat_map(|i| per_window[i].iter().copied())
            .collect()
    };
    let spans: Vec<Span> = phase
        .threads
        .iter()
        .flat_map(|t| t.spans.iter().copied())
        .collect();
    let by_name = span_durations(&spans);
    let k = f64::from(spec.k);

    // --- e2e: whole-audit quantities too noisy on this kind of host to bound,
    // from the mode A windows ------------------------------------------------
    let delay_ns = spec.service_delay.as_nanos() as u64;
    let excess_a: Vec<u64> = pooled(&w.rounds, 0)
        .iter()
        .map(|r| r.saturating_sub(delay_ns))
        .collect();
    add_pcts(
        &mut m,
        "e2e.audit",
        Some(&pooled(&w.latency, 0)),
        &[0.95, 0.99],
    );
    add_pcts(
        &mut m,
        "e2e.round_excess",
        Some(&excess_a),
        &[0.5, 0.95, 0.99],
    );

    // --- tcp_audit, wire --------------------------------------------------
    add_pcts(
        &mut m,
        "tcp_audit.run_audit",
        Some(&pooled(&w.run_audit, 0)),
        &[0.5, 0.99],
    );
    // Self time: run_audit minus the calls it makes, per audit.
    let mut children: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent == "run_audit") {
        *children.entry(s.audit).or_default() += s.end_ns - s.start_ns;
    }
    let selfs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "run_audit")
        .map(|s| {
            (s.end_ns - s.start_ns).saturating_sub(children.get(&s.audit).copied().unwrap_or(0))
        })
        .collect();
    add_pcts(&mut m, "tcp_audit.self", Some(&selfs), &[0.5]);
    add_pcts(&mut m, "wire.connect", by_name.get("connect"), &[0.5, 0.99]);
    // The first round of each audit, apart from the rest: it meets a
    // connection the server has only just accepted.
    let mut seen = std::collections::BTreeSet::new();
    let (mut first, mut later) = (Vec::new(), Vec::new());
    for s in spans.iter().filter(|s| s.name == "round") {
        let d = s.end_ns - s.start_ns;
        if seen.insert(s.audit) {
            first.push(d);
        } else {
            later.push(d);
        }
    }
    add_pcts(&mut m, "wire.first_round", Some(&first), &[0.5]);
    let rest = if later.is_empty() { &first } else { &later };
    add_pcts(&mut m, "wire.round", Some(rest), &[0.5, 0.99]);
    add_pcts(&mut m, "wire.bye", by_name.get("bye"), &[0.5]);
    m.single("wire.rounds_per_s", "1/s", rate_a * k, rounds_a as u64);
    let challenge = WireMessage::Challenge {
        file_id: rig.file_id.clone(),
        index: 0,
    };
    let response = WireMessage::Response {
        segment: Some(rig.arena.segment(0)),
    };
    let frame_bytes = challenge.encode().len() + response.encode().len();
    m.single("wire.bytes_per_round", "B", frame_bytes as f64, 1);

    // --- reactor (geoproof_obs registry; it records in modes B and C) ------
    let delta =
        |name: &str| obs_after.counter(name).unwrap_or(0) - obs_before.counter(name).unwrap_or(0);
    let polls = delta("reactor_polls_total") as f64;
    m.single(
        "reactor.polls_per_round",
        "ratio",
        polls / rounds_obs,
        rounds_obs as u64,
    );
    let events = delta("reactor_io_events_total") as f64;
    m.single(
        "reactor.events_per_poll",
        "ratio",
        events / polls.max(1.0),
        polls as u64,
    );
    let timers = delta("reactor_timers_fired_total") as f64;
    m.single(
        "reactor.timers_fired_per_round",
        "ratio",
        timers / rounds_obs,
        rounds_obs as u64,
    );

    // --- core, ledger spans -------------------------------------------------
    add_pcts(
        &mut m,
        "core.issue_request",
        by_name.get("issue_request"),
        &[0.5],
    );
    add_pcts(
        &mut m,
        "core.verify_evidence",
        by_name.get("verify_evidence"),
        &[0.5, 0.99],
    );
    for span in ["lock_wait", "append", "checkpoint"] {
        add_pcts(
            &mut m,
            &format!("ledger.{span}"),
            by_name.get(span),
            &[0.5, 0.99],
        );
    }
    let fsync = obs_after.histogram("ledger_fsync_us");
    let fsync_q = |q: f64| fsync.map_or(0.0, |h| h.quantile(q) as f64);
    let fsyncs = fsync.map_or(0, |h| h.count);
    m.single("ledger.fsync_p50_us", "us", fsync_q(0.5), fsyncs);
    m.single("ledger.fsync_p99_us", "us", fsync_q(0.99), fsyncs);
    let obs_audits = (audits_b + audits_c).max(1);
    m.single(
        "ledger.fsyncs_per_audit",
        "ratio",
        fsyncs as f64 / obs_audits as f64,
        obs_audits,
    );

    // --- open loop -------------------------------------------------------------
    let view = open_view(&phase);
    let ticks = phase.open.as_ref().map_or(0, |o| o.due.len() as u64);
    m.single("core.sched_pop_us", "us", view.pop_p50_us, ticks);
    m.single(
        "core.sched_complete_us",
        "us",
        view.complete_p50_us,
        phase.completed(),
    );
    m.single("core.sched_due_per_tick", "count", view.due_per_tick, ticks);
    m.single("open.offered_per_s", "1/s", view.offered_per_s, ticks);
    m.single(
        "open.achieved_over_offered",
        "ratio",
        view.achieved_over_offered,
        w.audits(),
    );
    m.single("open.gen_late_p99_us", "us", view.gen_late_p99_us, ticks);
    add_pcts(
        &mut m,
        "open.queue_wait",
        by_name.get("queue_wait"),
        &[0.5, 0.99],
    );
    m.single("open.backlog_end", "count", view.backlog_end as f64, 1);
    m.single(
        "open.max_rate_ok",
        "1/s",
        ramp_best,
        RAMP_RATES.len() as u64,
    );
    if spec.open_provers.is_some() {
        println!(
            "open loop backlog at mid-window {} and at the end {}",
            view.backlog_mid, view.backlog_end
        );
    }

    // --- proc (mode A windows: the product path) -----------------------------------
    let mut used = crate::procfs::ProcSnapshot::default();
    for i in in_mode(0) {
        let (s0, s1) = (phase.snaps[i], phase.snaps[i + 1]);
        used.cpu_ns += s1.cpu_ns - s0.cpu_ns;
        used.user_s += s1.user_s - s0.user_s;
        used.sys_s += s1.sys_s - s0.sys_s;
        used.vol_ctxsw += s1.vol_ctxsw - s0.vol_ctxsw;
        used.invol_ctxsw += s1.invol_ctxsw - s0.invol_ctxsw;
    }
    let cpu_ms = used.cpu_ns as f64 / 1e6 / audits_a.max(1) as f64;
    m.single("e2e.cpu_ms_per_audit", "ms", cpu_ms, audits_a);
    m.single("proc.cpu_user_s", "s", used.user_s, 1);
    m.single("proc.cpu_sys_s", "s", used.sys_s, 1);
    m.single(
        "proc.cpu_util",
        "cores",
        used.cpu_ns as f64 / 1e9 / secs_a,
        1,
    );
    m.single(
        "proc.vol_ctxsw_per_round",
        "ratio",
        used.vol_ctxsw as f64 / rounds_a,
        rounds_a as u64,
    );
    m.single(
        "proc.invol_ctxsw_per_s",
        "1/s",
        used.invol_ctxsw as f64 / secs_a,
        1,
    );

    // --- overheads ----------------------------------------------------------------
    m.single(
        "obs.enabled_overhead_frac",
        "ratio",
        1.0 - rate_b / rate_a,
        audits_a + audits_b,
    );
    m.single(
        "trace.overhead_frac",
        "ratio",
        1.0 - rate_c / rate_b,
        audits_b + audits_c,
    );
    match residual_p50(&spans) {
        Ok(r) => m.single("trace.residual_frac", "ratio", r, audits_c),
        Err(e) => gates.check(false, || format!("trace does not reconcile: {e}")),
    }

    // --- books, then probes on the run's own artefacts -------------------------------
    let mut all_phases = vec![&phase];
    all_phases.extend(&ramp_phases);
    let recorded = reconcile(&rig, &all_phases, &mut gates);
    let stats = rig.server.stats();
    m.single("wire.srv_connections", "count", stats.connections as f64, 1);
    m.single("wire.srv_challenges", "count", stats.challenges as f64, 1);
    m.single("wire.srv_hits", "count", stats.hits as f64, 1);
    probes(&rig, &data, &mut ctxs, recorded, &mut m, &mut gates);
    canaries(&rig, &mut gates);
    m.single("por.encode_mib_per_s", "MiB/s", mib / rig.encode_s, 1);
    let verify_self = m.get("core.verify_evidence_p50_us").unwrap_or(0.0)
        - k * m.get("por.verify_segment_us").unwrap_or(0.0)
        - m.get("crypto.schnorr_verify_us").unwrap_or(0.0);
    m.single("core.verify_self_us", "us", verify_self, 1);

    match dump_trace(spec, seed, &spans) {
        Ok(path) => println!("trace written to {}", path.display()),
        Err(e) => gates.check(false, || format!("write trace: {e}")),
    }
    let (attempted, failed) = (phase.attempted(), phase.failed());
    let mut notes = gates.notes;
    let correct = notes.is_empty();
    notes.extend(failure_notes(&[&phase]));
    Rig::teardown(rig);
    Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
        unbounded: MetricSet::default(),
        notes,
    }
}

/// Single calls timed outside the load, on what the run produced.
fn probes(
    rig: &Rig,
    data: &[u8],
    ctxs: &mut [AuditCtx],
    recorded: Recorded,
    m: &mut MetricSet,
    gates: &mut Gates,
) {
    let enc = encoder();
    let mib = rig.spec.file_mib as f64;
    let ctx = &mut ctxs[0];

    // One more audit, kept, for the crypto and por probes.
    let request = ctx.auditor.issue_request(rig.spec.k);
    let Ok(transcript) = ctx.local.run_audit(&request, rig.server.addr(), None, None) else {
        gates.check(false, || "probe audit failed".to_owned());
        return;
    };
    gates.check(ctx.auditor.verify(&request, &transcript).accepted(), || {
        "probe audit was not accepted".to_owned()
    });
    let message = geoproof::core::messages::SignedTranscript::signing_bytes(
        &transcript.file_id,
        &transcript.nonce,
        &transcript.position,
        &transcript.rounds,
    );
    let mut rng = ChaChaRng::from_u64_seed(rig.seed ^ 0x70_72_6f_62_65);
    let sign = time_median(200, || rig.device.sign(&message, &mut rng));
    m.single("crypto.schnorr_sign_us", "us", sign * 1e6, 200);
    let vk = rig.device.verifying_key();
    let verify = time_median(200, || vk.verify(&message, &transcript.signature));
    m.single("crypto.schnorr_verify_us", "us", verify * 1e6, 200);
    let mac_key = rig.keys.auditor_view();
    let reps = 2000 / transcript.rounds.len().max(1) + 1;
    let per_segment = time_median(reps, || {
        transcript
            .rounds
            .iter()
            .all(|r| enc.verify_segment(mac_key.mac_key(), &rig.file_id, r.index, &r.segment))
    }) / transcript.rounds.len() as f64;
    m.single(
        "por.verify_segment_us",
        "us",
        per_segment * 1e6,
        (reps * transcript.rounds.len()) as u64,
    );

    // Store look-up: random segments, bytes read, over the whole arena.
    const READS: usize = 200_000;
    let n = rig.arena.segment_count();
    let indices: Vec<u64> = (0..READS).map(|_| rng.gen_range(n)).collect();
    let t = Instant::now();
    let mut acc = 0u8;
    for &i in &indices {
        acc ^= rig.arena.segment(i).iter().fold(0, |a, b| a ^ b);
    }
    black_box(acc);
    m.single(
        "storage.arena_read_ns",
        "ns",
        t.elapsed().as_nanos() as f64 / READS as f64,
        READS as u64,
    );

    // Encode on one thread and on C, back to back.
    let one = time_median(1, || {
        enc.encode_arena_threads(data, &rig.keys, &rig.file_id, 1)
    });
    let many = time_median(1, || {
        enc.encode_arena_threads(data, &rig.keys, &rig.file_id, C)
    });
    m.single("por.encode_1t_mib_per_s", "MiB/s", mib / one, 1);
    m.single("por.encode_scaling", "ratio", one / many, 1);
    // Extract, on the first EXTRACT_MIB of the input encoded on its own:
    // the same size on every workload (decoding 64 MiB takes 13 s here).
    const EXTRACT_MIB: usize = 4;
    let head = &data[..data.len().min(EXTRACT_MIB << 20)];
    let small = enc.encode_arena_threads(head, &rig.keys, &rig.file_id, C);
    let t = Instant::now();
    let extracted = enc.extract(&small.segments(), &rig.keys, small.metadata());
    let extract_s = t.elapsed().as_secs_f64();
    gates.check(extracted.as_deref() == Ok(head), || {
        "extract did not return the input".to_owned()
    });
    let head_mib = head.len() as f64 / f64::from(1 << 20);
    m.single("por.extract_mib_per_s", "MiB/s", head_mib / extract_s, 1);

    // Ledger: read, replay (batched and one-at-a-time), reopen, prove.
    let evidence = recorded.evidence;
    let passes = replay_passes(rig, recorded, 3, Duration::ZERO, gates);
    let reads: Vec<f64> = passes.iter().map(|p| p.0).collect();
    let replays: Vec<f64> = passes.iter().map(|p| p.1).collect();
    m.of_values("ledger.read_s", "s", &reads, evidence);
    m.of_values("ledger.replay_s", "s", &replays, evidence);
    let tpa = rig.tpa.verifying_key();
    let Ok(ledger) = Ledger::read(&rig.ledger_path) else {
        return;
    };
    let seq = time_median(1, || replay_sequential(&ledger, &tpa, None).is_ok());
    m.single(
        "ledger.replay_seq_verdicts_per_s",
        "1/s",
        evidence as f64 / seq,
        evidence,
    );
    // The restart cost, on a copy: the run's writer still holds the lock.
    let copy = rig.ledger_path.with_extension("reopen");
    remove_ledger(&copy);
    let open_s = std::fs::copy(&rig.ledger_path, &copy).ok().map(|_| {
        time_median(1, || {
            let opened = LedgerWriter::open(&copy, &rig.tpa, rig.seed);
            gates.check(opened.is_ok(), || {
                "LedgerWriter::open failed on the run's ledger".into()
            });
        })
    });
    remove_ledger(&copy);
    m.single("ledger.open_s", "s", open_s.unwrap_or(0.0), evidence);
    let ordinals: Vec<u64> = (0..20).map(|_| rng.gen_range(evidence.max(1))).collect();
    let mut times = Vec::with_capacity(ordinals.len());
    for &ordinal in &ordinals {
        let t = Instant::now();
        let proved = ledger.prove(ordinal).and_then(|p| p.verify(&tpa));
        times.push(t.elapsed().as_secs_f64());
        gates.check(proved.is_ok(), || {
            format!("record {ordinal} does not prove: {proved:?}")
        });
    }
    let prove_verify = median(&times);
    m.single(
        "ledger.prove_verify_us",
        "us",
        prove_verify * 1e6,
        ordinals.len() as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        audit: u64,
        name: &'static str,
        parent: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            audit,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn residual_is_the_share_no_child_span_covers() {
        let spans = [
            span(1, "audit", "", 0, 100),
            span(1, "run_audit", "audit", 10, 70),
            span(1, "round", "run_audit", 20, 60),
            span(1, "append", "audit", 70, 90),
        ];
        // Children of the audit cover 60 + 20 of 100; the round is a
        // grandchild and is not counted twice.
        let r = residual_p50(&spans).expect("well-formed");
        assert!((r - 0.2).abs() < 1e-12, "{r}");
    }

    #[test]
    fn a_span_outside_its_parent_or_a_reused_id_is_refused() {
        let escaped = [
            span(1, "audit", "", 0, 100),
            span(1, "append", "audit", 90, 110),
        ];
        assert!(residual_p50(&escaped).is_err());
        let reused = [span(1, "audit", "", 0, 10), span(1, "audit", "", 20, 30)];
        assert!(residual_p50(&reused).is_err());
        let orphan = [
            span(1, "audit", "", 0, 10),
            span(1, "round", "run_audit", 1, 2),
        ];
        assert!(residual_p50(&orphan).is_err());
    }
}
