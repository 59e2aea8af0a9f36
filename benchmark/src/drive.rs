//! Load generation: one complete audit (issue → timed TCP rounds →
//! verdict → durable append), the closed loop of [`C`] auditors and the
//! schedule-driven open loop.
//!
//! Every layer is timed from here, around calls into public functions.
//! The untraced driver calls the product's own
//! `WallClockVerifier::run_audit`; the traced driver swaps in
//! [`LocalVerifier::run_audit`], a copy of that loop built from the same
//! public calls, so each connect, round, bye and sign gets its own span.

use crate::procfs::ProcSnapshot;
use crate::rig::{AuditCtx, Rig};
use crate::workload::C;
use geoproof::core::auditor::Violation;
use geoproof::core::engine::ProverId;
use geoproof::core::messages::{AuditRequest, SignedTranscript, TimedRound};
use geoproof::core::scheduler::{AuditScheduler, SchedulePolicy};
use geoproof::crypto::chacha::ChaChaRng;
use geoproof::crypto::schnorr::SigningKey;
use geoproof::geo::gps::GpsReceiver;
use geoproof::ledger::LedgerWriter;
use geoproof::sim::time::SimDuration;
use geoproof::wire::TcpChallenger;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// One timed interval at a layer boundary. Spans of one audit share
/// `audit`; `parent` names the span that caused this one (`""` for the
/// audit itself). Times are nanoseconds since the phase began.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub audit: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where a traced audit records its spans.
pub struct SpanSink<'a> {
    pub spans: &'a mut Vec<Span>,
    pub audit: u64,
    pub origin: Instant,
}

impl SpanSink<'_> {
    fn push(&mut self, name: &'static str, parent: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            audit: self.audit,
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }
}

/// The benchmark's copy of `WallClockVerifier::run_audit`: same public
/// calls in the same order, with a span around each, and the option of
/// naming the challenged indices (the corrupted-store canary needs its
/// flipped segment challenged).
pub struct LocalVerifier {
    signing: SigningKey,
    gps: GpsReceiver,
    rng: ChaChaRng,
}

impl LocalVerifier {
    pub fn new(signing: SigningKey, gps: GpsReceiver, seed: u64) -> Self {
        LocalVerifier {
            signing,
            gps,
            rng: ChaChaRng::from_u64_seed(seed),
        }
    }

    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn run_audit(
        &mut self,
        request: &AuditRequest,
        prover: SocketAddr,
        indices: Option<Vec<u64>>,
        mut sink: Option<&mut SpanSink<'_>>,
    ) -> std::io::Result<SignedTranscript> {
        let mut span = |name: &'static str, start: Instant| {
            if let Some(sink) = sink.as_deref_mut() {
                sink.push(name, "run_audit", start, Instant::now());
            }
        };
        let t = Instant::now();
        let mut challenger = TcpChallenger::connect(prover)?;
        span("connect", t);
        let indices = indices.unwrap_or_else(|| {
            self.rng
                .sample_distinct(request.n_segments, request.k as usize)
        });
        let mut rounds = Vec::with_capacity(indices.len());
        for &index in &indices {
            let t = Instant::now();
            let (segment, rtt) = challenger.challenge(&request.file_id, index)?;
            span("round", t);
            rounds.push(TimedRound {
                index,
                segment: segment.unwrap_or_default(),
                rtt: SimDuration::from_nanos(rtt.as_nanos().min(u128::from(u64::MAX)) as u64),
            });
        }
        let t = Instant::now();
        let _ = challenger.bye();
        span("bye", t);
        let position = self.gps.read_fix().position;
        let bytes =
            SignedTranscript::signing_bytes(&request.file_id, &request.nonce, &position, &rounds);
        let t = Instant::now();
        let signature = self.signing.sign(&bytes, &mut self.rng);
        span("sign", t);
        Ok(SignedTranscript {
            file_id: request.file_id.clone(),
            nonce: request.nonce,
            position,
            rounds,
            signature,
        })
    }
}

/// What the drivers share.
pub struct Shared {
    pub addr: SocketAddr,
    pub k: u32,
    pub ledger: Arc<Mutex<LedgerWriter>>,
    /// Time zero of the phase.
    pub origin: Instant,
    /// Whether audits starting now record spans (and run the local copy
    /// of the audit loop); set per window from [`Plan::modes`].
    pub traced: AtomicBool,
}

impl Shared {
    /// Starts a phase's clock, in the mode of its first window.
    fn begin(rig: &Rig, plan: &Plan) -> Shared {
        let shared = Shared {
            addr: rig.server.addr(),
            k: rig.spec.k,
            ledger: rig.ledger.clone(),
            origin: Instant::now(),
            traced: AtomicBool::new(false),
        };
        set_mode(&shared, (plan.modes)(0));
        shared
    }
}

/// One finished audit.
#[derive(Clone, Copy, Debug)]
pub struct AuditSample {
    /// Completion time, ns since the phase began.
    pub done_ns: u64,
    /// Issue (closed loop) or due tick (open loop) → append returned.
    pub latency_ns: u64,
    /// The whole `run_audit` call.
    pub run_audit_ns: u64,
    /// End of this audit's rounds in [`ThreadLog::rounds_ns`].
    pub rounds_end: usize,
}

/// Everything one auditor thread observed.
#[derive(Default)]
pub struct ThreadLog {
    pub audits: Vec<AuditSample>,
    /// Per-round Δt as signed into the transcripts, in audit order.
    pub rounds_ns: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    /// Honest audits whose verdict was REJECT only because a round
    /// overran Δt_max: the host stalled for longer than the budget. The
    /// verdict is right and is recorded; it is not a failed operation.
    pub slow_rejects: u64,
    /// Honest audits REJECTed for anything but time: a wrong result.
    pub wrong_verdicts: u64,
    /// The first few failure reasons, for the report.
    pub failures: Vec<String>,
    pub spans: Vec<Span>,
    /// `AuditScheduler::complete` call times (open loop).
    pub sched_complete_ns: Vec<u32>,
}

impl ThreadLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// How one audit ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Done {
    /// Verdict ACCEPT, recorded.
    Accepted,
    /// Verdict REJECT for time alone, recorded (see
    /// [`ThreadLog::slow_rejects`]).
    SlowReject,
    /// I/O error, failed append, or a REJECT no honest audit should get.
    Failed,
}

/// Runs one complete audit and records it. Its latency is charged from
/// `due`, the scheduled tick at which it came due (open loop; the wait
/// until now is its `queue_wait`), or from now (closed loop).
pub fn audit_once(
    ctx: &mut AuditCtx,
    shared: &Shared,
    log: &mut ThreadLog,
    audit_id: u64,
    prover: &str,
    epoch: u64,
    due: Option<Instant>,
) -> Done {
    log.attempted += 1;
    let spans_before = log.spans.len();
    let picked_up = Instant::now();
    let begin = due.unwrap_or(picked_up);
    let request = ctx.auditor.issue_request(shared.k);
    let issued = Instant::now();

    let traced = shared.traced.load(Ordering::Relaxed);
    let transcript = if traced {
        let mut sink = SpanSink {
            spans: &mut log.spans,
            audit: audit_id,
            origin: shared.origin,
        };
        ctx.local
            .run_audit(&request, shared.addr, None, Some(&mut sink))
    } else {
        ctx.verifier.run_audit(&request, shared.addr)
    };
    let ran = Instant::now();
    let transcript = match transcript {
        Ok(t) => t,
        Err(e) => {
            log.spans.truncate(spans_before);
            log.fail(format!("audit I/O: {e}"));
            return Done::Failed;
        }
    };

    let verify_started = Instant::now();
    let (report, bundle) = ctx
        .auditor
        .verify_evidence(&request, &transcript, prover, epoch);
    let verified = Instant::now();

    let lock_started = Instant::now();
    let mut writer = shared.ledger.lock();
    let locked = Instant::now();
    let appended = writer.append_bundle(&bundle);
    let checkpointed = writer.uncovered() == 0;
    drop(writer);
    let done = Instant::now();

    if let Err(e) = appended {
        log.spans.truncate(spans_before);
        log.fail(format!("ledger append: {e}"));
        return Done::Failed;
    }
    for round in &transcript.rounds {
        log.rounds_ns
            .push(round.rtt.as_nanos().min(u64::from(u32::MAX)) as u32);
    }
    let since = |t: Instant| t.duration_since(shared.origin).as_nanos() as u64;
    log.audits.push(AuditSample {
        done_ns: since(done),
        latency_ns: done.duration_since(begin).as_nanos() as u64,
        run_audit_ns: ran.duration_since(issued).as_nanos() as u64,
        rounds_end: log.rounds_ns.len(),
    });
    if traced {
        let mut sink = SpanSink {
            spans: &mut log.spans,
            audit: audit_id,
            origin: shared.origin,
        };
        sink.push("audit", "", begin, done);
        if due.is_some() {
            sink.push("queue_wait", "audit", begin, picked_up);
        }
        sink.push("issue_request", "audit", picked_up, issued);
        sink.push("run_audit", "audit", issued, ran);
        sink.push("verify_evidence", "audit", verify_started, verified);
        sink.push("lock_wait", "audit", lock_started, locked);
        // An append that also checkpointed signed, wrote and fsynced.
        let name = if checkpointed { "checkpoint" } else { "append" };
        sink.push(name, "audit", locked, done);
    }
    if !report.accepted() {
        let only_slow = report
            .violations
            .iter()
            .all(|v| matches!(v, Violation::TooSlow { .. }));
        if only_slow {
            log.slow_rejects += 1;
            return Done::SlowReject;
        }
        log.wrong_verdicts += 1;
        log.fail(format!("honest audit REJECTed: {:?}", report.violations));
        return Done::Failed;
    }
    Done::Accepted
}

/// How audits run during one window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mode {
    /// The benchmark's traced copy of the audit loop, recording spans,
    /// in place of the product's `run_audit`.
    pub traced: bool,
    /// The `geoproof_obs` registry records.
    pub obs: bool,
}

impl Mode {
    /// The product path as shipped: its own audit loop, obs off.
    pub const PRODUCT: Mode = Mode {
        traced: false,
        obs: false,
    };
}

/// Warm-up, then `windows` windows of `window` each.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub warmup: Duration,
    pub window: Duration,
    pub windows: usize,
    /// The mode of window `i`; the warm-up runs in the mode of window 0.
    pub modes: fn(usize) -> Mode,
}

impl Plan {
    pub fn total(&self) -> Duration {
        self.warmup + self.window * self.windows as u32
    }

    /// Start of window `i`, ns since the phase began (`i == windows` is
    /// the end of the last one).
    pub fn boundary_ns(&self, i: usize) -> u64 {
        (self.warmup + self.window * i as u32).as_nanos() as u64
    }
}

/// What the open-loop generator observed.
#[derive(Default)]
pub struct OpenLog {
    /// How late each tick ran against its timetable.
    pub gen_late_ns: Vec<u64>,
    /// `pop_due` call time per tick.
    pub pop_ns: Vec<u32>,
    /// Audits that came due per tick, with the tick's scheduled time.
    pub due: Vec<(u64, u32)>,
    /// Due-but-not-started audits near the middle and at the end of the
    /// windows.
    pub backlog_mid: usize,
    pub backlog_end: usize,
    /// Due audits never finished by the end of the drain.
    pub unfinished: u64,
}

/// One phase of load and everything measured during it.
pub struct PhaseLog {
    pub plan: Plan,
    pub threads: Vec<ThreadLog>,
    /// Process counters at each window boundary (`windows + 1` of them).
    pub snaps: Vec<ProcSnapshot>,
    pub open: Option<OpenLog>,
}

impl PhaseLog {
    pub fn attempted(&self) -> u64 {
        self.threads.iter().map(|t| t.attempted).sum::<u64>()
            + self.open.as_ref().map_or(0, |o| o.unfinished)
    }

    pub fn failed(&self) -> u64 {
        self.broken() + self.open.as_ref().map_or(0, |o| o.unfinished)
    }

    /// Audits that started and did not end in a recorded ACCEPT.
    pub fn broken(&self) -> u64 {
        self.threads.iter().map(|t| t.failed).sum()
    }

    pub fn wrong_verdicts(&self) -> u64 {
        self.threads.iter().map(|t| t.wrong_verdicts).sum()
    }

    pub fn slow_rejects(&self) -> u64 {
        self.threads.iter().map(|t| t.slow_rejects).sum()
    }

    pub fn completed(&self) -> u64 {
        self.threads.iter().map(|t| t.audits.len() as u64).sum()
    }
}

fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

fn set_mode(shared: &Shared, mode: Mode) {
    shared.traced.store(mode.traced, Ordering::Relaxed);
    geoproof::obs::set_enabled(mode.obs);
}

/// Sleeps the main thread through the plan: at each window boundary it
/// reads the process counters and switches to the next window's mode.
/// `mid` runs once, at the boundary nearest the middle of the windows.
/// Leaves obs off.
fn watch_windows(shared: &Shared, plan: &Plan, mut mid: impl FnMut()) -> Vec<ProcSnapshot> {
    let mut snaps = Vec::with_capacity(plan.windows + 1);
    for i in 0..=plan.windows {
        sleep_until(shared.origin + Duration::from_nanos(plan.boundary_ns(i)));
        snaps.push(ProcSnapshot::take());
        if i < plan.windows {
            set_mode(shared, (plan.modes)(i));
        }
        if i == plan.windows.div_ceil(2) {
            mid();
        }
    }
    geoproof::obs::set_enabled(false);
    snaps
}

/// Closed loop: [`C`] auditors, each issuing its next audit when the
/// previous verdict has been appended.
pub fn run_closed(rig: &Rig, ctxs: &mut [AuditCtx], plan: Plan) -> PhaseLog {
    let shared = Shared::begin(rig, &plan);
    let stop = AtomicBool::new(false);
    let (threads, snaps) = std::thread::scope(|s| {
        let handles: Vec<_> = ctxs
            .iter_mut()
            .enumerate()
            .map(|(i, ctx)| {
                let (shared, stop) = (&shared, &stop);
                let prover = rig.prover_name(i);
                let first_epoch = rig.ledger.lock().next_epoch(&prover);
                s.spawn(move || {
                    let mut log = ThreadLog::default();
                    let mut epoch = first_epoch;
                    while !stop.load(Ordering::Relaxed) {
                        let id = ((i as u64) << 32) | log.attempted;
                        let done = audit_once(ctx, shared, &mut log, id, &prover, epoch, None);
                        if done != Done::Failed {
                            epoch += 1;
                        } else {
                            // The verdict may or may not have been
                            // recorded; ask the ledger, and do not spin
                            // on a server that is gone.
                            epoch = shared.ledger.lock().next_epoch(&prover);
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    log
                })
            })
            .collect();
        let snaps = watch_windows(&shared, &plan, || {});
        stop.store(true, Ordering::Relaxed);
        let threads = handles
            .into_iter()
            .map(|h| h.join().expect("auditor thread panicked"))
            .collect();
        (threads, snaps)
    });
    PhaseLog {
        plan,
        threads,
        snaps,
        open: None,
    }
}

/// The open loop's generator ticks on this fixed timetable.
const TICK: Duration = Duration::from_millis(1);
/// How long workers may take to finish what is already due once the
/// generator stops; what is left after it counts as failed.
const DRAIN: Duration = Duration::from_secs(2);

struct DueAudit {
    prover: ProverId,
    index: usize,
    /// The scheduled tick at which it came due, ns since the phase began.
    due_ns: u64,
}

/// Open loop: the scheduler decides when each of `provers` provers is
/// due; a generator pops them on a 1 ms timetable whether or not earlier
/// audits have finished, and [`C`] workers pull them from one queue. An
/// audit's latency runs from its due tick, so generator stalls and
/// queueing are charged to it.
pub fn run_open(rig: &Rig, ctxs: &mut [AuditCtx], provers: usize, plan: Plan) -> PhaseLog {
    assert_eq!(ctxs.len(), C);
    let policy = SchedulePolicy::parse(crate::workload::OPEN_POLICY).expect("open-loop policy");
    let sched = AuditScheduler::new(policy);
    let names: Vec<ProverId> = (0..provers).map(|i| ProverId(rig.prover_name(i))).collect();
    let index_of: HashMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, p)| (p.0.as_str(), i))
        .collect();
    let epochs: Vec<AtomicU64> = {
        let writer = rig.ledger.lock();
        names
            .iter()
            .map(|p| AtomicU64::new(writer.next_epoch(&p.0)))
            .collect()
    };
    for p in &names {
        sched.register(p, 0);
    }

    let shared = Shared::begin(rig, &plan);
    let origin = shared.origin;
    let queue: (std::sync::Mutex<VecDeque<DueAudit>>, Condvar) = Default::default();
    let stop = AtomicBool::new(false);
    let drained = AtomicBool::new(false);
    let lock_queue = || queue.0.lock().expect("queue mutex poisoned");

    let (threads, snaps, open) = std::thread::scope(|s| {
        let generator = {
            let (sched, stop, queue, index_of) = (&sched, &stop, &queue, &index_of);
            s.spawn(move || {
                let mut open = OpenLog::default();
                let mut tick = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    tick += 1;
                    let tick_ns = tick * TICK.as_nanos() as u64;
                    let scheduled = origin + Duration::from_nanos(tick_ns);
                    sleep_until(scheduled);
                    let started = Instant::now();
                    let due = sched.pop_due(tick_ns);
                    open.gen_late_ns
                        .push(started.duration_since(scheduled).as_nanos() as u64);
                    open.pop_ns.push(started.elapsed().as_nanos() as u32);
                    open.due.push((tick_ns, due.len() as u32));
                    if !due.is_empty() {
                        let mut q = queue.0.lock().expect("queue mutex poisoned");
                        for prover in due {
                            let index = index_of[prover.0.as_str()];
                            q.push_back(DueAudit {
                                prover,
                                index,
                                due_ns: tick_ns,
                            });
                        }
                        drop(q);
                        queue.1.notify_all();
                    }
                }
                open
            })
        };
        let workers: Vec<_> = ctxs
            .iter_mut()
            .enumerate()
            .map(|(i, ctx)| {
                let (shared, sched, queue, names, epochs, drained) =
                    (&shared, &sched, &queue, &names, &epochs, &drained);
                s.spawn(move || {
                    let mut log = ThreadLog::default();
                    loop {
                        let next = {
                            let mut q = queue.0.lock().expect("queue mutex poisoned");
                            loop {
                                if let Some(next) = q.pop_front() {
                                    break Some(next);
                                }
                                if drained.load(Ordering::Relaxed) {
                                    break None;
                                }
                                q = queue
                                    .1
                                    .wait_timeout(q, Duration::from_millis(5))
                                    .expect("queue mutex poisoned")
                                    .0;
                            }
                        };
                        let Some(next) = next else { break };
                        let id = ((i as u64) << 32) | log.attempted;
                        let epoch = epochs[next.index].load(Ordering::Relaxed);
                        let due = origin + Duration::from_nanos(next.due_ns);
                        let name = &names[next.index].0;
                        let done = audit_once(ctx, shared, &mut log, id, name, epoch, Some(due));
                        let next_epoch = if done != Done::Failed {
                            epoch + 1
                        } else {
                            shared.ledger.lock().next_epoch(name)
                        };
                        epochs[next.index].store(next_epoch, Ordering::Relaxed);
                        let t = Instant::now();
                        let accepted = done == Done::Accepted;
                        let now_ns = origin.elapsed().as_nanos() as u64;
                        sched.complete(&next.prover, accepted, now_ns);
                        log.sched_complete_ns.push(t.elapsed().as_nanos() as u32);
                    }
                    log
                })
            })
            .collect();

        let mut backlog_mid = 0;
        let snaps = watch_windows(&shared, &plan, || backlog_mid = lock_queue().len());
        let backlog_end = lock_queue().len();
        stop.store(true, Ordering::Relaxed);
        let mut open = generator.join().expect("generator thread panicked");
        // Let the workers finish what is already due, within the limit.
        let deadline = Instant::now() + DRAIN;
        while !lock_queue().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        open.unfinished = lock_queue().drain(..).count() as u64;
        drained.store(true, Ordering::Relaxed);
        queue.1.notify_all();
        let threads: Vec<ThreadLog> = workers
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        open.backlog_mid = backlog_mid;
        open.backlog_end = backlog_end;
        (threads, snaps, open)
    });
    PhaseLog {
        plan,
        threads,
        snaps,
        open: Some(open),
    }
}
