//! Server-side contention under concurrent audit load.
//!
//! The paper audits one prover over one connection; a production TPA
//! multiplexes hundreds of sessions, and a prover answering many verifiers
//! at once queues requests behind one another. This module models that
//! queueing so the fleet simulator can charge realistic extra latency per
//! in-flight session — and so capacity planning ("how many concurrent
//! audits before honest provers start busting Δt_max?") is answerable
//! without sockets.

use geoproof_sim::time::SimDuration;

/// Queueing-delay model for a server handling concurrent sessions.
///
/// Two regimes are supported:
///
/// * a linear regime — each additional in-flight session adds a fixed
///   service quantum (a disk head can only be in one place at a time);
/// * an M/M/1-style regime — given per-request mean service time and an
///   arrival rate, mean waiting time is `ρ/(1−ρ)`·service, exploding as
///   utilisation ρ → 1.
#[derive(Clone, Debug, PartialEq)]
pub struct ContentionModel {
    /// Extra delay charged per concurrent in-flight session beyond the
    /// first.
    pub per_session: SimDuration,
    /// Ceiling on the total queueing delay (providers time out / shed
    /// load rather than queue forever).
    pub cap: SimDuration,
}

impl ContentionModel {
    /// A contention-free model (the paper's single-prover setting).
    pub fn none() -> Self {
        ContentionModel {
            per_session: SimDuration::ZERO,
            cap: SimDuration::ZERO,
        }
    }

    /// Linear queueing: every concurrent session beyond the first adds
    /// `per_session`, saturating at `cap`.
    pub fn linear(per_session: SimDuration, cap: SimDuration) -> Self {
        ContentionModel { per_session, cap }
    }

    /// Queueing delay for a request arriving while `in_flight` sessions
    /// (including this one) are active.
    pub fn queueing_delay(&self, in_flight: usize) -> SimDuration {
        let queued = in_flight.saturating_sub(1) as u64;
        let raw = self.per_session.as_nanos().saturating_mul(queued);
        SimDuration::from_nanos(raw.min(self.cap.as_nanos()))
    }
}

/// Mean M/M/1 waiting time (time in queue, excluding service): with
/// utilisation `ρ = λ/μ < 1`, `W_q = ρ / (μ − λ)`.
///
/// Returns `None` when the queue is unstable (ρ ≥ 1).
pub fn mm1_mean_wait(arrivals_per_sec: f64, service: SimDuration) -> Option<SimDuration> {
    let mu = 1000.0 / service.as_millis_f64(); // services per second
    let rho = arrivals_per_sec / mu;
    if !(0.0..1.0).contains(&rho) {
        return None;
    }
    let wait_sec = rho / (mu - arrivals_per_sec);
    Some(SimDuration::from_secs_f64(wait_sec))
}

/// Sessions a prover can serve concurrently before an honest round's
/// worst-case latency (`service` per request plus linear queueing) exceeds
/// `budget` — the capacity-planning number for `geoproof serve`.
pub fn max_concurrent_within_budget(
    model: &ContentionModel,
    service: SimDuration,
    budget: SimDuration,
) -> usize {
    if service > budget {
        return 0;
    }
    let mut n = 1usize;
    while n < 1 << 20 {
        if service + model.queueing_delay(n + 1) > budget {
            return n;
        }
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_contention_for_single_session() {
        let m = ContentionModel::linear(SimDuration::from_millis(2), SimDuration::from_millis(50));
        assert_eq!(m.queueing_delay(0), SimDuration::ZERO);
        assert_eq!(m.queueing_delay(1), SimDuration::ZERO);
    }

    #[test]
    fn linear_growth_saturates_at_cap() {
        let m = ContentionModel::linear(SimDuration::from_millis(2), SimDuration::from_millis(5));
        assert_eq!(m.queueing_delay(2), SimDuration::from_millis(2));
        assert_eq!(m.queueing_delay(3), SimDuration::from_millis(4));
        assert_eq!(m.queueing_delay(4), SimDuration::from_millis(5)); // capped
        assert_eq!(m.queueing_delay(1000), SimDuration::from_millis(5));
    }

    #[test]
    fn none_is_free_at_any_load() {
        let m = ContentionModel::none();
        assert_eq!(m.queueing_delay(10_000), SimDuration::ZERO);
    }

    #[test]
    fn mm1_wait_grows_with_utilisation() {
        let service = SimDuration::from_millis(10); // μ = 100/s
        let light = mm1_mean_wait(10.0, service).unwrap();
        let heavy = mm1_mean_wait(90.0, service).unwrap();
        assert!(heavy > light);
        // ρ = 0.9 → W_q = 0.9 / (100 − 90) = 90 ms.
        assert!((heavy.as_millis_f64() - 90.0).abs() < 0.01);
    }

    #[test]
    fn mm1_unstable_queue_is_none() {
        assert_eq!(mm1_mean_wait(100.0, SimDuration::from_millis(10)), None);
        assert_eq!(mm1_mean_wait(150.0, SimDuration::from_millis(10)), None);
    }

    #[test]
    fn capacity_within_paper_budget() {
        // WD 2500JD-style 13.1 ms service under the 16 ms budget leaves
        // ~2.9 ms of queueing headroom: 1 ms/session → 3 extra sessions.
        let m = ContentionModel::linear(SimDuration::from_millis(1), SimDuration::from_millis(100));
        let n = max_concurrent_within_budget(
            &m,
            SimDuration::from_millis_f64(13.1),
            SimDuration::from_millis(16),
        );
        assert_eq!(n, 3);
        // A service time already over budget supports nothing.
        assert_eq!(
            max_concurrent_within_budget(
                &m,
                SimDuration::from_millis(20),
                SimDuration::from_millis(16)
            ),
            0
        );
    }
}
