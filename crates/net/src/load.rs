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

/// Queueing-delay model for a server handling concurrent sessions: each
/// additional in-flight session adds a fixed service quantum (a disk
/// head can only be in one place at a time), up to a cap.
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
