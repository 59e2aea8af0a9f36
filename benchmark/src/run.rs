//! One workload, start to finish: set-up, load, correctness gates, the
//! replay of the ledger the run wrote, and the metrics.
//!
//! `--trace 0` measures the end-to-end metrics with the product's own
//! audit loop and `geoproof_obs` off. `--trace 1` is the separate traced
//! run that yields the per-layer metrics; see [`crate::layers`].

use crate::drive::{run_closed, run_open, Mode, PhaseLog, Plan};
use crate::metrics::{add_percentile_us, MetricSet, Windows};
use crate::procfs;
use crate::rig::{input_bytes, serve, AuditCtx, Rig};
use crate::workload::{Workload, C, WINDOWS};
use bytes::Bytes;
use geoproof::core::auditor::Violation;
use geoproof::core::policy::relay_distance_bound;
use geoproof::ledger::{replay, Ledger};
use geoproof::sim::time::{SimDuration, INTERNET_SPEED};
use std::time::{Duration, Instant};

/// `setup_s` is the median over repeated set-ups: at least this many,
/// and more of the quick ones, until they have taken [`SETUP_TIME`].
/// Untimed set-ups for another [`SETUP_TIME`] come first: a process
/// that starts after an idle spell finds this host slow for its first
/// seconds (43 ms set-ups take 70 ms), and what ran before the benchmark
/// is not what `setup_s` is meant to measure.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_TIME: Duration = Duration::from_secs(1);

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
    /// End-to-end quantities measured and printed but held to no bound
    /// (empty in the traced run).
    pub unbounded: MetricSet,
    /// Why `correct` is false, and the first failure reasons.
    pub notes: Vec<String>,
}

/// The gates' verdicts, gathered so one failure does not hide another.
#[derive(Default)]
pub struct Gates {
    pub notes: Vec<String>,
}

impl Gates {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.notes.push(what());
        }
    }

    pub fn passed(&self) -> bool {
        self.notes.is_empty()
    }
}

pub fn contexts(rig: &Rig) -> Vec<AuditCtx> {
    (0..C).map(|i| rig.audit_ctx(i)).collect()
}

/// Runs one phase of the workload's load shape.
pub fn load(rig: &Rig, ctxs: &mut [AuditCtx], plan: Plan) -> PhaseLog {
    match rig.spec.open_provers {
        Some(provers) => run_open(rig, ctxs, provers, plan),
        None => run_closed(rig, ctxs, plan),
    }
}

/// `Ledger::read` + `replay` on the run's ledger, repeated for at least
/// `min_passes` passes and `min_time`. Returns seconds per pass as
/// `(read, replay)` pairs; every pass must re-derive every verdict.
pub fn replay_passes(
    rig: &Rig,
    recorded: Recorded,
    min_passes: usize,
    min_time: Duration,
    gates: &mut Gates,
) -> Vec<(f64, f64)> {
    let tpa = rig.tpa.verifying_key();
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || started.elapsed() < min_time {
        let t0 = Instant::now();
        let ledger = match Ledger::read(&rig.ledger_path) {
            Ok(l) => l,
            Err(e) => {
                gates.check(false, || format!("ledger does not read back: {e}"));
                break;
            }
        };
        let t1 = Instant::now();
        let outcome = replay(&ledger, &tpa, None);
        let t2 = Instant::now();
        match outcome {
            Ok(o) => {
                let matches = o.evidence == recorded.evidence
                    && o.accepted == recorded.evidence - recorded.slow_rejects;
                gates.check(matches, || {
                    format!(
                        "replay re-derived {} verdicts ({} ACCEPT), the run recorded {} ({} \
                         REJECT for time)",
                        o.evidence, o.accepted, recorded.evidence, recorded.slow_rejects
                    )
                });
                gates.check(o.uncovered == 0, || {
                    format!("{} records outlived the final checkpoint", o.uncovered)
                });
            }
            Err(e) => {
                gates.check(false, || format!("replay of the run's ledger failed: {e}"));
                break;
            }
        }
        passes.push(((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()));
        if !gates.passed() {
            break;
        }
    }
    passes
}

/// What the run put in its ledger.
#[derive(Clone, Copy, Debug)]
pub struct Recorded {
    /// Evidence records.
    pub evidence: u64,
    /// Those whose verdict is REJECT because a round overran Δt_max.
    pub slow_rejects: u64,
}

/// Seals the ledger and checks the run's books: every audit the server
/// saw is one the drivers made, and every verdict is in the ledger.
pub fn reconcile(rig: &Rig, phases: &[&PhaseLog], gates: &mut Gates) -> Recorded {
    let completed: u64 = phases.iter().map(|p| p.completed()).sum();
    let slow_rejects: u64 = phases.iter().map(|p| p.slow_rejects()).sum();
    let broken: u64 = phases.iter().map(|p| p.broken()).sum();
    let evidence = {
        let mut writer = rig.ledger.lock();
        if let Err(e) = writer.finish() {
            gates.check(false, || format!("ledger finish: {e}"));
        }
        writer.evidence_count()
    };
    let wrong: u64 = phases.iter().map(|p| p.wrong_verdicts()).sum();
    gates.check(wrong == 0, || {
        format!("{wrong} honest audits were REJECTed for something other than time")
    });
    let stats = rig.server.stats();
    let rounds = completed * u64::from(rig.spec.k);
    // Only when no audit broke off do the books have to balance exactly:
    // a failed audit may have been cut short anywhere.
    if broken == 0 {
        gates.check(stats.challenges == rounds && stats.hits == rounds, || {
            format!(
                "server answered {} challenges ({} hits), the audits made {rounds}",
                stats.challenges, stats.hits
            )
        });
        gates.check(stats.connections == completed, || {
            format!(
                "server accepted {} connections for {completed} audits",
                stats.connections
            )
        });
        gates.check(evidence == completed, || {
            format!("ledger holds {evidence} evidence records for {completed} audits")
        });
    }
    if slow_rejects > 0 {
        println!(
            "{slow_rejects} of {completed} honest audits were REJECTed because a round overran \
             the 16 ms budget (a stall of this host; recorded and replayed as REJECT)"
        );
    }
    Recorded {
        evidence,
        slow_rejects,
    }
}

/// Two canaries outside the windows, so a later change cannot win by
/// skipping a check: an audit against a store with one flipped segment
/// byte must REJECT with a segment violation, and the run's ledger with
/// one flipped byte must fail to replay.
pub fn canaries(rig: &Rig, gates: &mut Gates) {
    let n = rig.arena.segment_count();
    let k = u64::from(rig.spec.k).min(n) as usize;
    let mut ctx = rig.audit_ctx(C + 7);

    let mut segments = rig.arena.segments();
    let target = rig.seed % n;
    let mut flipped = segments[target as usize].to_vec();
    let at = (rig.seed >> 8) as usize % flipped.len();
    flipped[at] ^= 0x01;
    segments[target as usize] = Bytes::from(flipped);
    let mut bad_server = serve(&rig.file_id, segments, Duration::ZERO).expect("bind canary server");

    let request = ctx.auditor.issue_request(k as u32);
    let mut indices: Vec<u64> = (0..n).filter(|&i| i != target).take(k - 1).collect();
    indices.push(target);
    match ctx
        .local
        .run_audit(&request, bad_server.addr(), Some(indices), None)
    {
        Ok(transcript) => {
            let report = ctx.auditor.verify(&request, &transcript);
            let caught = report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::BadSegment { segment, .. } if *segment == target));
            gates.check(!report.accepted() && caught, || {
                format!(
                    "canary: flipped byte in segment {target} was not caught: {:?}",
                    report.violations
                )
            });
        }
        Err(e) => gates.check(false, || format!("canary audit I/O: {e}")),
    }
    bad_server.shutdown();

    match std::fs::read(&rig.ledger_path) {
        Ok(mut bytes) => {
            let at = bytes.len() / 2;
            bytes[at] ^= 0x01;
            let survived = Ledger::from_bytes(Bytes::from(bytes))
                .and_then(|l| replay(&l, &rig.tpa.verifying_key(), None))
                .is_ok();
            gates.check(!survived, || {
                format!("canary: ledger with byte {at} flipped still replays")
            });
        }
        Err(e) => gates.check(false, || format!("canary: read ledger: {e}")),
    }
}

pub fn failure_notes(phases: &[&PhaseLog]) -> Vec<String> {
    phases
        .iter()
        .flat_map(|p| &p.threads)
        .flat_map(|t| t.failures.iter().cloned())
        .take(5)
        .collect()
}

/// The end-to-end run (`--trace 0`).
pub fn run_end_to_end(spec: &Workload, seed: u64, seconds: f64) -> Outcome {
    let data = input_bytes(seed, spec.file_mib);
    // Set-ups that begin in the first SETUP_TIME are the warm-up.
    let mut setups = Vec::new();
    let started = Instant::now();
    let rig = loop {
        let timed = started.elapsed() >= SETUP_TIME;
        let rig = Rig::build(spec, seed, &data, "e");
        if timed {
            setups.push(rig.setup_s);
        }
        let long_enough = setups.iter().sum::<f64>() >= SETUP_TIME.as_secs_f64();
        if setups.len() >= MAX_SETUPS || (setups.len() >= MIN_SETUPS && long_enough) {
            break rig;
        }
        Rig::teardown(rig);
    };
    drop(data);

    let window = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let plan = Plan {
        warmup: window.min(Duration::from_secs(2)),
        window,
        windows: WINDOWS,
        modes: |_| Mode::PRODUCT,
    };
    let mut ctxs = contexts(&rig);
    let phase = load(&rig, &mut ctxs, plan);
    // Before the replay: its buffers grow with the number of audits the
    // run happened to complete, which is throughput, not memory use.
    let peak_rss_mib = procfs::peak_rss_mib();

    let mut gates = Gates::default();
    let recorded = reconcile(&rig, &[&phase], &mut gates);
    let evidence = recorded.evidence;
    let ledger_bytes = std::fs::metadata(&rig.ledger_path).map_or(0, |m| m.len());
    let min_replay = Duration::from_secs_f64(seconds * 0.2);
    let passes = replay_passes(&rig, recorded, 5, min_replay, &mut gates);
    canaries(&rig, &mut gates);

    let w = Windows::of(&phase);
    let mut m = MetricSet::default();
    m.of_values("setup_s", "s", &setups, setups.len() as u64);
    m.of_values("audits_per_s", "1/s", &w.rates(), w.audits());
    add_percentile_us(&mut m, "audit_p50_us", &w.latency, 0.50, 0);
    add_percentile_us(&mut m, "round_dt_p50_us", &w.rounds, 0.50, 0);
    // Measured here too, but not bounded: on a shared 2-vCPU host their
    // own run-to-run spread exceeds the widest bound allowed (README).
    let mut extra = MetricSet::default();
    add_percentile_us(&mut extra, "audit_p95_us", &w.latency, 0.95, 0);
    add_percentile_us(&mut extra, "audit_p99_us", &w.latency, 0.99, 0);
    let delay_ns = spec.service_delay.as_nanos() as u64;
    add_percentile_us(&mut extra, "round_excess_p50_us", &w.rounds, 0.50, delay_ns);
    add_percentile_us(&mut extra, "round_excess_p95_us", &w.rounds, 0.95, delay_ns);
    add_percentile_us(&mut extra, "round_excess_p99_us", &w.rounds, 0.99, delay_ns);
    let cpu_ms: Vec<f64> = phase
        .snaps
        .windows(2)
        .zip(&w.latency)
        .filter(|(_, audits)| !audits.is_empty())
        .map(|(s, audits)| (s[1].cpu_ns - s[0].cpu_ns) as f64 / 1e6 / audits.len() as f64)
        .collect();
    extra.of_values("cpu_ms_per_audit", "ms", &cpu_ms, w.audits());
    let verdicts_per_s: Vec<f64> = passes
        .iter()
        .map(|(read, replay)| evidence as f64 / (read + replay))
        .collect();
    m.of_values("replay_verdicts_per_s", "1/s", &verdicts_per_s, evidence);
    let per_audit = ledger_bytes as f64 / evidence.max(1) as f64;
    m.single("ledger_bytes_per_audit", "B", per_audit, evidence);
    m.single("peak_rss_mib", "MiB", peak_rss_mib, 1);

    let (attempted, failed) = (phase.attempted(), phase.failed());
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    extra.single("failed_frac", "ratio", failed_frac, attempted);
    for name in [
        "round_excess_p50_us",
        "round_excess_p95_us",
        "round_excess_p99_us",
    ] {
        if let Some(us) = extra.get(name) {
            let km =
                relay_distance_bound(SimDuration::from_nanos((us * 1e3) as u64), INTERNET_SPEED);
            println!(
                "{name} = {us:.1} us = {:.2} km of relay slack at 4/9 c",
                km.0
            );
        }
    }
    let mut notes = gates.notes;
    let correct = notes.is_empty();
    notes.extend(failure_notes(&[&phase]));
    Rig::teardown(rig);
    Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
        unbounded: extra,
        notes,
    }
}
