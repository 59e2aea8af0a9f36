//! Continuous audit scheduling: which prover to audit next, and when.
//!
//! A one-shot audit answers "is the file *there, now*?"; the paper's
//! deployment story is continuous assurance — every contracted prover
//! re-proved on a cadence, with misbehaving provers re-checked more
//! aggressively. [`AuditScheduler`] is that loop's brain:
//!
//! * **Cadence + deterministic jitter** — each prover is re-audited
//!   every [`SchedulePolicy::cadence`], offset by a jitter derived from
//!   a hash of `(prover, epoch)` so the fleet's audits spread out in
//!   time instead of thundering in lockstep, yet two schedulers given
//!   the same provers produce the *same* schedule (replayable tests,
//!   diffable incidents).
//! * **REJECT priority** — a prover whose audit just failed is
//!   re-audited after the much shorter
//!   [`SchedulePolicy::reject_cadence`], and stays on that fast track
//!   for [`SchedulePolicy::reject_rounds`] consecutive clean audits.
//! * **Admission and rate control** — at most
//!   [`SchedulePolicy::max_in_flight`] audits outstanding at once, and
//!   a token bucket caps dispatches per second, so a huge due-backlog
//!   (say, after a long pause) drains smoothly instead of stampeding
//!   the network.
//!
//! Time is a plain `u64` of nanoseconds supplied by the caller on every
//! call: the serving binary feeds it wall-clock nanoseconds, tests feed
//! it `geoproof_sim` virtual time, and the scheduler cannot tell the
//! difference. Internally the prover set is sharded by FNV-1a of the
//! prover id (deterministic, so load patterns reproduce), because the
//! scheduler is shared: a serving loop dispatching and completing audits
//! and a stats scraper reading the queue contend on different locks.

use crate::engine::ProverId;
use geoproof_crypto::fnv::fnv1a_64;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Shard count: enough that the serving loop and a scraper rarely meet
/// on one lock, few enough that `pop_due`'s merge across shards stays
/// cheap.
const SHARDS: usize = 16;

struct SchedulerMetrics {
    scheduled: std::sync::Arc<geoproof_obs::Counter>,
    dispatched: std::sync::Arc<geoproof_obs::Counter>,
    reject_fast_track: std::sync::Arc<geoproof_obs::Counter>,
    throttled_rate: std::sync::Arc<geoproof_obs::Counter>,
    throttled_in_flight: std::sync::Arc<geoproof_obs::Counter>,
    in_flight: std::sync::Arc<geoproof_obs::Gauge>,
}

fn metrics() -> &'static SchedulerMetrics {
    static METRICS: OnceLock<SchedulerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SchedulerMetrics {
        scheduled: geoproof_obs::counter("scheduler_audits_scheduled_total"),
        dispatched: geoproof_obs::counter("scheduler_audits_dispatched_total"),
        reject_fast_track: geoproof_obs::counter("scheduler_reaudits_total{reason=\"reject\"}"),
        throttled_rate: geoproof_obs::counter("scheduler_throttled_total{reason=\"rate\"}"),
        throttled_in_flight: geoproof_obs::counter(
            "scheduler_throttled_total{reason=\"in-flight\"}",
        ),
        in_flight: geoproof_obs::gauge("scheduler_in_flight"),
    })
}

/// Knobs for the continuous audit loop.
///
/// Parsed by [`SchedulePolicy::parse`] from a comma-separated
/// `key=value` list, e.g.
/// `cadence=30s,jitter=0.2,reject-cadence=5s,reject-rounds=3,max-in-flight=64,rate=200`.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedulePolicy {
    /// Steady-state interval between audits of one prover.
    pub cadence: Duration,
    /// Jitter as a fraction of the cadence in `[0, 1)`: each epoch's
    /// due time is offset by up to `±jitter × cadence`, deterministically
    /// per `(prover, epoch)`.
    pub jitter: f64,
    /// Interval between audits while a prover is on the REJECT fast
    /// track.
    pub reject_cadence: Duration,
    /// How many consecutive clean audits it takes to leave the fast
    /// track after a REJECT.
    pub reject_rounds: u32,
    /// Maximum audits outstanding (popped but not completed) at once;
    /// `0` means unlimited.
    pub max_in_flight: usize,
    /// Maximum dispatches per second (token bucket with one second of
    /// burst); `0` means unlimited.
    pub rate_per_sec: u64,
}

impl Default for SchedulePolicy {
    fn default() -> Self {
        SchedulePolicy {
            cadence: Duration::from_secs(30),
            jitter: 0.2,
            reject_cadence: Duration::from_secs(5),
            reject_rounds: 3,
            max_in_flight: 256,
            rate_per_sec: 0,
        }
    }
}

/// `"1500ms"` / `"30s"` / `"2m"` / `"1h"` → [`Duration`].
fn parse_duration(v: &str) -> Result<Duration, String> {
    let (digits, unit): (&str, &str) = match v.find(|c: char| !c.is_ascii_digit()) {
        Some(i) => v.split_at(i),
        None => (v, "s"),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("{v:?}: expected <integer><ms|s|m|h>"))?;
    match unit {
        "ms" => Ok(Duration::from_millis(n)),
        "s" => Ok(Duration::from_secs(n)),
        "m" => Ok(Duration::from_secs(n * 60)),
        "h" => Ok(Duration::from_secs(n * 3600)),
        _ => Err(format!("{v:?}: unknown time unit {unit:?}")),
    }
}

impl SchedulePolicy {
    /// Parse a policy string. Unspecified keys keep their
    /// defaults; unknown keys and malformed values are errors (a typo'd
    /// policy silently running defaults would be an audit-coverage
    /// hole).
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut p = SchedulePolicy::default();
        for item in s.split(',').map(str::trim).filter(|i| !i.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("{item:?}: expected key=value"))?;
            match key.trim() {
                "cadence" => p.cadence = parse_duration(value.trim())?,
                "reject-cadence" => p.reject_cadence = parse_duration(value.trim())?,
                "jitter" => {
                    let j: f64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("jitter {value:?}: expected a number"))?;
                    if !(0.0..1.0).contains(&j) {
                        return Err(format!("jitter {j} out of range [0, 1)"));
                    }
                    p.jitter = j;
                }
                "reject-rounds" => {
                    p.reject_rounds = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("reject-rounds {value:?}: expected an integer"))?;
                }
                "max-in-flight" => {
                    p.max_in_flight = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("max-in-flight {value:?}: expected an integer"))?;
                }
                "rate" => {
                    p.rate_per_sec = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("rate {value:?}: expected an integer"))?;
                }
                other => return Err(format!("unknown schedule key {other:?}")),
            }
        }
        if p.cadence.is_zero() || p.reject_cadence.is_zero() {
            return Err("cadence and reject-cadence must be non-zero".into());
        }
        Ok(p)
    }
}

/// A pending audit in a shard's heap, min-ordered by `(at, seq)` — the
/// `seq` tie-break makes cross-shard merge order total and repeatable.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Due {
    at: u64,
    seq: u64,
    epoch: u64,
    prover: ProverId,
}

struct ProverState {
    /// Bumped on every completion; heap entries from older epochs are
    /// stale and dropped lazily when popped.
    epoch: u64,
    /// Clean audits still owed at `reject_cadence` after a REJECT.
    reject_streak: u32,
    in_flight: bool,
}

#[derive(Default)]
struct Shard {
    heap: BinaryHeap<Reverse<Due>>,
    provers: HashMap<ProverId, ProverState>,
}

/// Token bucket for [`SchedulePolicy::rate_per_sec`]; integer
/// arithmetic only, so virtual and wall clocks behave identically.
struct TokenBucket {
    tokens: u64,
    last_refill_ns: u64,
}

/// The continuous audit scheduler. See the [module docs](self).
///
/// All methods take `now_ns`, the caller's clock in nanoseconds;
/// callers must pass a non-decreasing sequence (the serving loop's
/// monotonic clock, or a [`geoproof_sim`] virtual clock in tests).
pub struct AuditScheduler {
    policy: SchedulePolicy,
    shards: Vec<Mutex<Shard>>,
    seq: AtomicU64,
    in_flight: AtomicU64,
    bucket: Mutex<TokenBucket>,
}

impl AuditScheduler {
    pub fn new(policy: SchedulePolicy) -> Self {
        let shards = (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect();
        AuditScheduler {
            shards,
            seq: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            bucket: Mutex::new(TokenBucket {
                tokens: policy.rate_per_sec,
                last_refill_ns: 0,
            }),
            policy,
        }
    }

    pub fn policy(&self) -> &SchedulePolicy {
        &self.policy
    }

    fn shard_of(&self, prover: &ProverId) -> &Mutex<Shard> {
        &self.shards[(fnv1a_64(prover.0.as_bytes()) as usize) % self.shards.len()]
    }

    /// Deterministic per-`(prover, epoch)` offset in `[-jitter, +jitter]
    /// × base` nanoseconds, clamped so the due time never lands in the
    /// past or at zero delay.
    fn jittered(&self, prover: &ProverId, epoch: u64, base_ns: u64) -> u64 {
        if self.policy.jitter <= 0.0 {
            return base_ns;
        }
        let mut key = prover.0.as_bytes().to_vec();
        key.extend_from_slice(&epoch.to_le_bytes());
        // Top 53 bits of the hash → uniform fraction in [0, 1).
        let frac = (fnv1a_64(&key) >> 11) as f64 / (1u64 << 53) as f64;
        let signed = (frac * 2.0 - 1.0) * self.policy.jitter;
        let offset = (base_ns as f64 * signed) as i64;
        (base_ns as i64 + offset).max(1) as u64
    }

    fn push(&self, shard: &mut Shard, prover: ProverId, epoch: u64, at: u64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        shard.heap.push(Reverse(Due {
            at,
            seq,
            epoch,
            prover,
        }));
        metrics().scheduled.inc();
    }

    /// Enrol a prover. Its first audit lands within one cadence of
    /// `now_ns`, at a deterministic per-prover phase, so enrolling a
    /// whole fleet at once does not schedule the whole fleet at once.
    /// Returns `false` (and changes nothing) if already enrolled.
    pub fn register(&self, prover: &ProverId, now_ns: u64) -> bool {
        let cadence = self.policy.cadence.as_nanos() as u64;
        let shard = &mut *self.shard_of(prover).lock();
        if shard.provers.contains_key(prover) {
            return false;
        }
        shard.provers.insert(
            prover.clone(),
            ProverState {
                epoch: 0,
                reject_streak: 0,
                in_flight: false,
            },
        );
        let phase = fnv1a_64(prover.0.as_bytes()) % cadence.max(1);
        self.push(shard, prover.clone(), 0, now_ns + phase);
        true
    }

    /// Remove a prover (contract ended). Any pending heap entry is
    /// dropped lazily on its next pop. Returns `false` if unknown.
    pub fn deregister(&self, prover: &ProverId) -> bool {
        let shard = &mut *self.shard_of(prover).lock();
        match shard.provers.remove(prover) {
            Some(state) => {
                if state.in_flight {
                    self.in_flight.fetch_sub(1, Ordering::Relaxed);
                    metrics().in_flight.dec();
                }
                true
            }
            None => false,
        }
    }

    /// Enrolled provers.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().provers.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Audits currently outstanding (popped, not yet completed).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed) as usize
    }

    /// How many dispatches the admission and rate limits allow right
    /// now, and whether the rate limit is the binding one. Does **not**
    /// consume tokens.
    fn budget(&self, now_ns: u64) -> (usize, bool) {
        let mut budget = usize::MAX;
        if self.policy.max_in_flight > 0 {
            budget = self.policy.max_in_flight.saturating_sub(self.in_flight());
        }
        let mut rate_bound = false;
        if self.policy.rate_per_sec > 0 {
            let mut bucket = self.bucket.lock();
            let elapsed = now_ns.saturating_sub(bucket.last_refill_ns);
            let refill =
                (elapsed as u128 * self.policy.rate_per_sec as u128 / NANOS_PER_SEC as u128) as u64;
            if refill > 0 {
                bucket.tokens = (bucket.tokens + refill).min(self.policy.rate_per_sec);
                // Advance by whole tokens only, so fractional progress
                // is not discarded between calls.
                bucket.last_refill_ns += (refill as u128 * NANOS_PER_SEC as u128
                    / self.policy.rate_per_sec as u128)
                    as u64;
                bucket.last_refill_ns = bucket.last_refill_ns.min(now_ns);
            }
            if (bucket.tokens as usize) < budget {
                budget = bucket.tokens as usize;
                rate_bound = true;
            }
        }
        (budget, rate_bound)
    }

    /// Pop every prover whose audit is due at `now_ns`, in deterministic
    /// `(due-time, enqueue-order)` order across all shards, up to the
    /// admission and rate limits. Each returned prover is marked
    /// in-flight until [`complete`](Self::complete) is called for it.
    pub fn pop_due(&self, now_ns: u64) -> Vec<ProverId> {
        let (budget, rate_bound) = self.budget(now_ns);
        // Collect all currently-due live entries, dropping stale ones
        // (deregistered provers, superseded epochs) as they surface.
        let mut due: Vec<Due> = Vec::new();
        for shard in &self.shards {
            let shard = &mut *shard.lock();
            while let Some(Reverse(head)) = shard.heap.peek() {
                if head.at > now_ns {
                    break;
                }
                let entry = shard.heap.pop().expect("peeked").0;
                match shard.provers.get(&entry.prover) {
                    Some(s) if s.epoch == entry.epoch && !s.in_flight => due.push(entry),
                    _ => {} // stale: deregistered or re-scheduled
                }
            }
        }
        due.sort_unstable_by_key(|e| (e.at, e.seq));

        let take = due.len().min(budget);
        if take < due.len() {
            // Over budget: re-park the remainder (they keep their due
            // time and seq, so their turn comes in the same order).
            let throttled = if rate_bound {
                &metrics().throttled_rate
            } else {
                &metrics().throttled_in_flight
            };
            for entry in due.drain(take..) {
                throttled.inc();
                self.shard_of(&entry.prover)
                    .lock()
                    .heap
                    .push(Reverse(entry));
            }
        }

        if self.policy.rate_per_sec > 0 && take > 0 {
            self.bucket.lock().tokens -= take as u64;
        }
        let mut out = Vec::with_capacity(take);
        for entry in due {
            let shard = &mut *self.shard_of(&entry.prover).lock();
            // A concurrent deregister between the two shard locks makes
            // the entry stale after all; skip it rather than tracking a
            // phantom in-flight audit.
            let Some(state) = shard.provers.get_mut(&entry.prover) else {
                continue;
            };
            state.in_flight = true;
            self.in_flight.fetch_add(1, Ordering::Relaxed);
            metrics().in_flight.inc();
            metrics().dispatched.inc();
            out.push(entry.prover);
        }
        out
    }

    /// Report an audit verdict and schedule the prover's next audit: at
    /// `reject_cadence` while on the REJECT fast track, else at
    /// `cadence`, both jittered. A `false` verdict (REJECT) puts the
    /// prover on the fast track for the next
    /// [`SchedulePolicy::reject_rounds`] audits; each accepted audit
    /// works one round off. Unknown or not-in-flight provers are
    /// ignored (e.g. deregistered while the audit ran).
    pub fn complete(&self, prover: &ProverId, accepted: bool, now_ns: u64) {
        let shard = &mut *self.shard_of(prover).lock();
        let Some(state) = shard.provers.get_mut(prover) else {
            return;
        };
        if !state.in_flight {
            return;
        }
        state.in_flight = false;
        state.epoch += 1;
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        metrics().in_flight.dec();

        if accepted {
            state.reject_streak = state.reject_streak.saturating_sub(1);
        } else {
            state.reject_streak = self.policy.reject_rounds;
        }
        let base = if state.reject_streak > 0 {
            metrics().reject_fast_track.inc();
            self.policy.reject_cadence.as_nanos() as u64
        } else {
            self.policy.cadence.as_nanos() as u64
        };
        let (epoch, at) = (
            state.epoch,
            now_ns + self.jittered(prover, state.epoch, base),
        );
        self.push(shard, prover.clone(), epoch, at);
    }

    /// Earliest pending due time, if any — what a serving loop should
    /// sleep until. Stale entries may make this conservative (early),
    /// never late.
    pub fn next_wakeup_ns(&self) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(|s| s.lock().heap.peek().map(|Reverse(d)| d.at))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoproof_sim::clock::SimClock;
    use geoproof_sim::time::{SimDuration, SimInstant};

    fn policy(s: &str) -> SchedulePolicy {
        SchedulePolicy::parse(s).expect("test policy parses")
    }

    /// Drive the scheduler from SimNet virtual time.
    fn sim_now(clock: &SimClock) -> u64 {
        clock.now().duration_since(SimInstant::EPOCH).as_nanos()
    }

    #[test]
    fn policy_parses_every_knob_and_rejects_typos() {
        let p = policy(
            "cadence=2m,jitter=0.5,reject-cadence=1500ms,reject-rounds=7,max-in-flight=9,rate=42",
        );
        assert_eq!(p.cadence, Duration::from_secs(120));
        assert_eq!(p.jitter, 0.5);
        assert_eq!(p.reject_cadence, Duration::from_millis(1500));
        assert_eq!(p.reject_rounds, 7);
        assert_eq!(p.max_in_flight, 9);
        assert_eq!(p.rate_per_sec, 42);
        assert_eq!(SchedulePolicy::parse(""), Ok(SchedulePolicy::default()));

        for bad in [
            "cadnce=30s",
            "cadence=30x",
            "cadence",
            "jitter=1.5",
            "jitter=x",
            "cadence=0s",
            "rate=many",
        ] {
            assert!(SchedulePolicy::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn registration_staggers_first_audits_across_the_cadence() {
        let s = AuditScheduler::new(policy("cadence=10s,jitter=0"));
        for i in 0..64 {
            s.register(&ProverId(format!("site-{i}")), 0);
        }
        // Nothing due immediately...
        assert!(s.pop_due(0).is_empty());
        // ...everything due within one cadence, and not all at once.
        let horizon = Duration::from_secs(10).as_nanos() as u64;
        let early = s.pop_due(horizon / 4).len();
        let rest = s.pop_due(horizon).len();
        assert_eq!(early + rest, 64);
        assert!(early > 0 && early < 64, "no phase spread: {early}/64 early");
    }

    #[test]
    fn steady_state_cadence_is_exact_without_jitter() {
        let clock = SimClock::new();
        let s = AuditScheduler::new(policy("cadence=30s,jitter=0"));
        let p = ProverId::from("site-a");
        s.register(&p, sim_now(&clock));

        // Burn the staggered first audit.
        clock.advance(SimDuration::from_millis(30 * 1000));
        assert_eq!(s.pop_due(sim_now(&clock)), vec![p.clone()]);
        s.complete(&p, true, sim_now(&clock));

        for _ in 0..5 {
            let just_before = sim_now(&clock) + Duration::from_secs(30).as_nanos() as u64 - 1;
            assert!(s.pop_due(just_before).is_empty(), "audited early");
            clock.advance(SimDuration::from_millis(30 * 1000));
            assert_eq!(s.pop_due(sim_now(&clock)), vec![p.clone()]);
            s.complete(&p, true, sim_now(&clock));
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let run = || {
            let s = AuditScheduler::new(policy("cadence=100s,jitter=0.2"));
            let clock = SimClock::new();
            let mut order = Vec::new();
            for i in 0..32 {
                s.register(&ProverId(format!("site-{i}")), sim_now(&clock));
            }
            for _ in 0..200 {
                clock.advance(SimDuration::from_millis(5 * 1000));
                for p in s.pop_due(sim_now(&clock)) {
                    s.complete(&p, true, sim_now(&clock));
                    order.push((sim_now(&clock), p));
                }
            }
            order
        };
        let (a, b) = (run(), run());
        assert!(!a.is_empty());
        assert_eq!(a, b, "same fleet, same clock ⇒ same schedule");
    }

    #[test]
    fn jittered_gaps_stay_within_the_jitter_band() {
        let s = AuditScheduler::new(policy("cadence=100s,jitter=0.25"));
        let p = ProverId::from("site-a");
        let cadence = Duration::from_secs(100).as_nanos() as u64;
        s.register(&p, 0);
        let mut now = cadence; // past the staggered start
        let mut saw_offset = false;
        for _ in 0..50 {
            assert_eq!(s.pop_due(now).len(), 1);
            let completed_at = now;
            s.complete(&p, true, completed_at);
            let next = s.next_wakeup_ns().expect("rescheduled");
            let gap = next - completed_at;
            let (lo, hi) = (cadence * 3 / 4, cadence * 5 / 4);
            assert!((lo..=hi).contains(&gap), "gap {gap} outside ±25% band");
            saw_offset |= gap != cadence;
            now = next;
        }
        assert!(saw_offset, "jitter never moved a due time");
    }

    #[test]
    fn rejected_provers_jump_the_queue_until_their_streak_clears() {
        let clock = SimClock::new();
        let s = AuditScheduler::new(policy(
            "cadence=60s,reject-cadence=5s,reject-rounds=2,jitter=0",
        ));
        let bad = ProverId::from("bad-site");
        let good = ProverId::from("good-site");
        s.register(&bad, sim_now(&clock));
        s.register(&good, sim_now(&clock));
        clock.advance(SimDuration::from_millis(60 * 1000));
        for p in s.pop_due(sim_now(&clock)) {
            let accepted = p == good;
            s.complete(&p, accepted, sim_now(&clock));
        }

        // The rejected prover is re-audited on the 5s fast track: two
        // clean rounds before it returns to the 60s cadence.
        for round in 0..2 {
            clock.advance(SimDuration::from_millis(5 * 1000));
            assert_eq!(
                s.pop_due(sim_now(&clock)),
                vec![bad.clone()],
                "round {round}: fast-track re-audit missing"
            );
            s.complete(&bad, true, sim_now(&clock));
        }
        clock.advance(SimDuration::from_millis(5 * 1000));
        assert!(
            s.pop_due(sim_now(&clock)).is_empty(),
            "streak cleared but still fast-tracked"
        );
        clock.advance(SimDuration::from_millis(55 * 1000));
        let due = s.pop_due(sim_now(&clock));
        assert!(due.contains(&bad) && due.contains(&good));
    }

    #[test]
    fn a_reject_while_fast_tracked_restarts_the_streak() {
        let s = AuditScheduler::new(policy(
            "cadence=60s,reject-cadence=5s,reject-rounds=3,jitter=0",
        ));
        let p = ProverId::from("site-a");
        let sec = NANOS_PER_SEC;
        s.register(&p, 0);
        let mut now = 60 * sec;
        assert_eq!(s.pop_due(now).len(), 1);
        s.complete(&p, false, now); // streak = 3
        for _ in 0..2 {
            now += 5 * sec;
            assert_eq!(s.pop_due(now).len(), 1);
            s.complete(&p, true, now); // streak 3→2→1
        }
        now += 5 * sec;
        assert_eq!(s.pop_due(now).len(), 1);
        s.complete(&p, false, now); // reject again: streak back to 3
        for _ in 0..3 {
            now += 5 * sec;
            assert_eq!(s.pop_due(now).len(), 1, "restarted streak too short");
            s.complete(&p, true, now);
        }
        now += 5 * sec;
        assert!(s.pop_due(now).is_empty(), "left fast track late");
    }

    #[test]
    fn max_in_flight_caps_outstanding_audits() {
        let s = AuditScheduler::new(policy("cadence=1s,jitter=0,max-in-flight=4"));
        let provers: Vec<ProverId> = (0..16).map(|i| ProverId(format!("site-{i}"))).collect();
        for p in &provers {
            s.register(p, 0);
        }
        let now = 2 * NANOS_PER_SEC;
        let first = s.pop_due(now);
        assert_eq!(first.len(), 4);
        assert_eq!(s.in_flight(), 4);
        assert!(s.pop_due(now).is_empty(), "cap not enforced");
        // Completing two frees two slots; the queue drains in order.
        s.complete(&first[0], true, now);
        s.complete(&first[1], true, now);
        assert_eq!(s.pop_due(now).len(), 2);
        assert_eq!(s.in_flight(), 4);
    }

    #[test]
    fn rate_limit_meters_a_backlog_across_seconds() {
        let clock = SimClock::new();
        let s = AuditScheduler::new(policy("cadence=1s,jitter=0,rate=10"));
        for i in 0..30 {
            s.register(&ProverId(format!("site-{i}")), sim_now(&clock));
        }
        // All 30 due after a long pause; the bucket (burst = rate)
        // allows 10, then 10 more per elapsed second.
        clock.advance(SimDuration::from_millis(100 * 1000));
        let mut popped = s.pop_due(sim_now(&clock)).len();
        assert_eq!(popped, 10);
        assert!(s.pop_due(sim_now(&clock)).is_empty(), "bucket not drained");
        for _ in 0..2 {
            clock.advance(SimDuration::from_millis(1000));
            popped += s.pop_due(sim_now(&clock)).len();
        }
        assert_eq!(popped, 30);
    }

    #[test]
    fn pop_order_is_deterministic_across_shards() {
        let s = AuditScheduler::new(policy("cadence=10s,jitter=0"));
        for i in 0..100 {
            s.register(&ProverId(format!("site-{i}")), 0);
        }
        let horizon = 10 * NANOS_PER_SEC;
        let order = s.pop_due(horizon);
        assert_eq!(order.len(), 100);
        // Due times are the FNV phase offsets: the pop must come back
        // sorted by them (ties broken by registration order).
        let mut expected: Vec<(u64, ProverId)> = (0..100)
            .map(|i| {
                let p = ProverId(format!("site-{i}"));
                (fnv1a_64(p.0.as_bytes()) % horizon, p)
            })
            .collect();
        expected.sort();
        let expected: Vec<ProverId> = expected.into_iter().map(|(_, p)| p).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn deregistered_provers_never_come_due_and_double_calls_are_safe() {
        let s = AuditScheduler::new(policy("cadence=1s,jitter=0"));
        let (a, b) = (ProverId::from("a"), ProverId::from("b"));
        assert!(s.register(&a, 0));
        assert!(!s.register(&a, 0), "double register must be a no-op");
        s.register(&b, 0);
        assert!(s.deregister(&a));
        assert!(!s.deregister(&a));
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop_due(10 * NANOS_PER_SEC), vec![b.clone()]);
        // Completing a prover that is not in flight must not panic or
        // schedule anything.
        s.complete(&a, true, 0);
        let before = s.next_wakeup_ns();
        s.complete(&b, true, 10 * NANOS_PER_SEC);
        s.complete(&b, true, 10 * NANOS_PER_SEC); // double complete
        assert!(s.next_wakeup_ns().is_some());
        let _ = before;
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn next_wakeup_tracks_the_earliest_pending_audit() {
        let s = AuditScheduler::new(policy("cadence=10s,jitter=0"));
        assert_eq!(s.next_wakeup_ns(), None);
        s.register(&ProverId::from("a"), 0);
        let first = s.next_wakeup_ns().expect("scheduled");
        assert!(first <= 10 * NANOS_PER_SEC);
        assert!(s.pop_due(first).len() == 1);
    }

    /// Registers `n` provers at t = 0 and runs `ticks` ticks of virtual
    /// time, completing every popped audit on the tick that popped it.
    /// `rejects(prover, round)` picks the audits that REJECT. The audit
    /// after each REJECT must be popped within the fast track's reach,
    /// `reject_cadence × (1 + jitter)` plus one tick, and every REJECT
    /// whose reach ends inside the run must have been followed up.
    /// Returns each audited prover's audit count and the REJECT count.
    fn drive_fleet(
        policy: SchedulePolicy,
        n: usize,
        tick: SimDuration,
        ticks: usize,
        rejects: impl Fn(&ProverId, u64) -> bool,
    ) -> (HashMap<ProverId, u64>, usize) {
        let reach = (policy.reject_cadence.as_nanos() as f64 * (1.0 + policy.jitter)) as u64
            + tick.as_nanos();
        let s = AuditScheduler::new(policy);
        let clock = SimClock::new();
        for i in 0..n {
            s.register(&ProverId(format!("site-{i}")), sim_now(&clock));
        }
        let mut audits: HashMap<ProverId, u64> = HashMap::new();
        // Provers whose latest audit REJECTed, and when.
        let mut rejected_at: HashMap<ProverId, u64> = HashMap::new();
        let mut reject_count = 0;
        for _ in 0..ticks {
            clock.advance(tick);
            let now = sim_now(&clock);
            for p in s.pop_due(now) {
                if let Some(at) = rejected_at.remove(&p) {
                    assert!(
                        now - at <= reach,
                        "{p:?} REJECTed at {at} ns, next audited at {now} ns"
                    );
                }
                let round = audits.entry(p.clone()).or_insert(0);
                *round += 1;
                let accepted = !rejects(&p, *round);
                if !accepted {
                    rejected_at.insert(p.clone(), now);
                    reject_count += 1;
                }
                s.complete(&p, accepted, now);
            }
        }
        let end = sim_now(&clock);
        for (p, at) in &rejected_at {
            assert!(
                at + reach > end,
                "{p:?} REJECTed at {at} ns, not re-audited by {end} ns"
            );
        }
        assert_eq!(s.in_flight(), 0);
        (audits, reject_count)
    }

    #[test]
    fn a_hundred_thousand_provers_schedule_and_drain() {
        // Fleet scale, kept to 20 000 provers so the debug-mode suite
        // stays fast.
        const PROVERS: usize = 20_000;

        // Jitter off and exactly one cadence of virtual time: every
        // prover's staggered first audit comes due exactly once, and
        // every reschedule (pop time + cadence) lands beyond the horizon.
        let (audits, _) = drive_fleet(
            policy("cadence=10s,jitter=0,max-in-flight=0"),
            PROVERS,
            SimDuration::from_millis(500),
            20,
            |_, _| false,
        );
        assert_eq!(
            audits.len(),
            PROVERS,
            "a registered prover was never audited"
        );
        assert!(audits.values().all(|&n| n == 1), "a prover was double-run");

        // The continuous-assurance policy over three cadences, with
        // ~2 % of audits REJECTed, chosen per (prover, round) by hash.
        // Everyone is audited at least twice, and every REJECTed
        // prover is re-audited on the 2 s fast track, not the 30 s
        // cadence (`drive_fleet` checks each one).
        let (audits, rejects) = drive_fleet(
            policy("cadence=30s,jitter=0.2,reject-cadence=2s,reject-rounds=3,max-in-flight=0"),
            PROVERS,
            SimDuration::from_millis(250),
            360,
            |p, round| {
                let mut key = p.0.as_bytes().to_vec();
                key.extend_from_slice(&round.to_le_bytes());
                fnv1a_64(&key) % 100 < 2
            },
        );
        assert_eq!(
            audits.len(),
            PROVERS,
            "a registered prover was never audited"
        );
        assert!(
            audits.values().all(|&n| n >= 2),
            "a prover got fewer than 2 audits over 3 cadences"
        );
        assert!(
            rejects > 0,
            "no audit REJECTed; the fast track went untested"
        );
    }
}
