//! Multi-vantage audits: N verifier devices at known coordinates run
//! concurrent timed sessions against one prover, each vantage's Δt becomes
//! a range, and an outlier-robust triangulation aggregates the ranges into
//! a *position estimate* — not just a pass/fail — that survives f lying or
//! laggy vantages out of N as long as f < N/2.
//!
//! This closes the §V-C(b) residual: a single verifier cannot tell a
//! ~60 km relay from LAN jitter, but N vantages ranging the same prover
//! from different directions pin it down — a relay detour inflates *every*
//! vantage's range, which either breaks the ranges' mutual consistency
//! (no point on Earth fits them; high inlier residual) or displaces the
//! estimate away from the SLA coordinates (high discrepancy). Either way
//! the verdict flips, and the detectable detour shrinks as N grows.
//!
//! The engine half is one [`AuditEngine::run_sessions`] call: each
//! vantage registers as its own engine prover (its device key, its own
//! coordinates as the GPS pin) and runs a standard timed session on the
//! engine's work-stealing pool; the aggregation half is pure geometry and
//! is replayed offline from the ledger's recorded inputs alone.

use crate::auditor::AuditReport;
use crate::engine::{AuditEngine, ProverId, ProverSpec};
use crate::provider::SegmentProvider;
use crate::verifier::VerifierDevice;
use geoproof_geo::coords::GeoPoint;
use geoproof_geo::schemes::rtt_to_distance;
use geoproof_geo::triangulation::{robust_multilaterate, RangeMeasurement};
use geoproof_sim::time::{Km, SimDuration, Speed};

/// Ranging calibration plus the two acceptance thresholds of a
/// multi-vantage audit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VantagePolicy {
    /// Effective round-trip ranging speed (see
    /// [`geoproof_net::wan::WanModel::ranging_calibration`] for the
    /// calibrated value under the paper's WAN model).
    pub ranging_speed: Speed,
    /// Fixed per-RTT overhead subtracted before converting to distance.
    pub ranging_overhead: SimDuration,
    /// Maximum accepted distance between the aggregate estimate and the
    /// SLA coordinates.
    pub position_tolerance: Km,
    /// Maximum accepted RMS range residual over the inlier set — the
    /// consistency budget a colluding relay's uniform inflation breaks.
    pub residual_budget: Km,
}

impl VantagePolicy {
    /// Residual budget calibrated to a per-range noise floor and the
    /// vantage count: an honest fleet's RMS residual concentrates around
    /// the noise floor with spread ∝ 1/√N, so the budget — and with it
    /// the evasion radius — tightens as vantages are added.
    pub fn residual_budget_for(noise_floor: Km, n: usize) -> Km {
        Km(noise_floor.0 * (1.0 + 3.0 / (n.max(1) as f64).sqrt()))
    }
}

/// One vantage's raw timing contribution: where it stands and the fastest
/// round it measured (the fastest round carries the least queueing noise,
/// so it is the cleanest range estimate).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VantageObservation {
    /// The vantage device's known coordinates.
    pub vantage: GeoPoint,
    /// Fastest round-trip the vantage measured.
    pub min_rtt: SimDuration,
}

/// Converts one vantage's fastest Δt into a range measurement under the
/// policy's calibration.
pub fn observation_range(obs: &VantageObservation, policy: &VantagePolicy) -> RangeMeasurement {
    RangeMeasurement {
        landmark: obs.vantage,
        distance: rtt_to_distance(obs.min_rtt, policy.ranging_overhead, policy.ranging_speed),
    }
}

/// The geometric half of a multi-vantage verdict: the robust estimate and
/// how it compares against the SLA claim.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiVantageEstimate {
    /// Trimmed-consensus position estimate of the prover.
    pub position: GeoPoint,
    /// Distance between the estimate and the SLA coordinates.
    pub discrepancy: Km,
    /// RMS range residual over the inlier vantages.
    pub rms_inlier_residual: Km,
    /// Which vantages survived trimming, input order.
    pub inliers: Vec<bool>,
    /// `true` iff discrepancy and residual are both within budget.
    pub consistent: bool,
}

/// Aggregates per-vantage ranges into a Byzantine-tolerant estimate,
/// seeded at the SLA coordinates (the claim under test — the seed both
/// anchors two-inlier refits and makes offline replay deterministic).
///
/// Returns `None` when fewer than three valid ranges are supplied or the
/// vantage geometry is rank-deficient — the caller falls back to
/// per-vantage timing verdicts alone.
pub fn aggregate_vantages(
    sla: GeoPoint,
    ranges: &[RangeMeasurement],
    position_tolerance: Km,
    residual_budget: Km,
) -> Option<MultiVantageEstimate> {
    let fit = robust_multilaterate(ranges, Some(sla))?;
    let discrepancy = sla.distance(&fit.position);
    let consistent =
        discrepancy.0 <= position_tolerance.0 && fit.rms_inlier_residual.0 <= residual_budget.0;
    Some(MultiVantageEstimate {
        position: fit.position,
        discrepancy,
        rms_inlier_residual: fit.rms_inlier_residual,
        inliers: fit.inliers,
        consistent,
    })
}

/// One vantage in an engine-driven multi-vantage run.
pub struct VantageSession {
    /// The vantage's engine identity (each vantage is its own engine
    /// prover, so N sessions interleave on the pool like any fleet).
    pub id: ProverId,
    /// The vantage device's known coordinates.
    pub position: GeoPoint,
    /// The vantage's verifier device.
    pub device: VerifierDevice,
    /// The channel answering this vantage's challenges.
    pub provider: Box<dyn SegmentProvider + Send>,
}

/// Outcome of a multi-vantage engine run.
#[derive(Clone, Debug)]
pub struct MultiVantageOutcome {
    /// Per-vantage timed-audit verdicts (sorted by vantage id).
    pub reports: Vec<(ProverId, AuditReport)>,
    /// Per-vantage RTT-derived ranges, in the fleet's order.
    pub ranges: Vec<RangeMeasurement>,
    /// The aggregate estimate, when the geometry supports one.
    pub estimate: Option<MultiVantageEstimate>,
    /// The multi-vantage verdict: a majority of vantages' timed audits
    /// accepted, and the aggregate estimate (when one exists) is
    /// consistent with the SLA claim. A single Byzantine vantage can
    /// neither flip an honest verdict nor rescue a cheating prover.
    pub accepted: bool,
}

/// Runs N concurrent vantage sessions against one prover's data on the
/// engine's work-stealing pool, then aggregates the vantages' fastest
/// rounds into a position estimate.
///
/// Each vantage is registered as its own engine prover — its device key,
/// with its own coordinates as the GPS pin, so a vantage standing
/// anywhere on the map passes its *own* location check while the SLA
/// claim is judged by the aggregate.
pub fn run_vantage_sessions(
    engine: &mut AuditEngine,
    sla: GeoPoint,
    policy: &VantagePolicy,
    vantages: Vec<VantageSession>,
) -> MultiVantageOutcome {
    let positions: Vec<GeoPoint> = vantages.iter().map(|v| v.position).collect();
    let mut fleet: Vec<(ProverId, VerifierDevice, Box<dyn SegmentProvider + Send>)> =
        Vec::with_capacity(vantages.len());
    for v in vantages {
        engine.register_prover(
            v.id.clone(),
            ProverSpec {
                device_key: v.device.verifying_key(),
                sla_location: v.position,
            },
        );
        fleet.push((v.id, v.device, v.provider));
    }
    // Every vantage is registered above, so each is issued and its audit
    // comes back in fleet order, aligned with `positions`.
    let (reports, audits, _stats) = engine.run_sessions(fleet);
    let ranges: Vec<RangeMeasurement> = positions
        .iter()
        .zip(&audits)
        .filter_map(|(&vantage, (_, transcript))| {
            let min_rtt = transcript.rounds.iter().map(|r| r.rtt).min()?;
            Some(observation_range(
                &VantageObservation { vantage, min_rtt },
                policy,
            ))
        })
        .collect();
    let estimate = aggregate_vantages(
        sla,
        &ranges,
        policy.position_tolerance,
        policy.residual_budget,
    );
    let majority = positions.len() / 2 + 1;
    let timing_ok = reports.iter().filter(|(_, r)| r.accepted()).count() >= majority;
    let geometry_ok = estimate.as_ref().map_or(ranges.len() < 3, |e| e.consistent);
    MultiVantageOutcome {
        reports,
        ranges,
        estimate,
        accepted: timing_ok && geometry_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoproof_geo::coords::places::*;

    fn exact_ranges(target: GeoPoint, landmarks: &[GeoPoint]) -> Vec<RangeMeasurement> {
        landmarks
            .iter()
            .map(|lm| RangeMeasurement {
                landmark: *lm,
                distance: lm.distance(&target),
            })
            .collect()
    }

    #[test]
    fn aggregate_accepts_truthful_fleet() {
        let ranges = exact_ranges(BRISBANE, &[SYDNEY, MELBOURNE, PERTH, TOWNSVILLE, ADELAIDE]);
        let est = aggregate_vantages(BRISBANE, &ranges, Km(50.0), Km(50.0)).expect("geometry");
        assert!(est.consistent, "discrepancy {}", est.discrepancy.0);
        assert!(est.discrepancy.0 < 20.0);
        assert!(est.inliers.iter().all(|i| *i));
    }

    #[test]
    fn aggregate_survives_byzantine_minority() {
        // f = 2 of N = 5 vantages lie wildly; the estimate must hold.
        let mut ranges = exact_ranges(BRISBANE, &[SYDNEY, MELBOURNE, PERTH, TOWNSVILLE, ADELAIDE]);
        ranges[1].distance = Km(ranges[1].distance.0 + 3_000.0);
        ranges[3].distance = Km(ranges[3].distance.0 + 4_500.0);
        let est = aggregate_vantages(BRISBANE, &ranges, Km(50.0), Km(50.0)).expect("geometry");
        assert!(est.consistent, "discrepancy {}", est.discrepancy.0);
        assert!(!est.inliers[1] && !est.inliers[3]);
        assert!(est.discrepancy.0 < 40.0);
    }

    #[test]
    fn aggregate_rejects_uniform_inflation() {
        // A colluding relay inflates every range by the detour: the
        // ranges stop fitting any point near the claim.
        let mut ranges = exact_ranges(BRISBANE, &[SYDNEY, MELBOURNE, PERTH, TOWNSVILLE, ADELAIDE]);
        for r in &mut ranges {
            r.distance = Km(r.distance.0 + 400.0);
        }
        let est = aggregate_vantages(BRISBANE, &ranges, Km(60.0), Km(60.0)).expect("geometry");
        assert!(!est.consistent);
    }

    #[test]
    fn aggregate_needs_three_vantages() {
        let ranges = exact_ranges(BRISBANE, &[SYDNEY, MELBOURNE]);
        assert!(aggregate_vantages(BRISBANE, &ranges, Km(50.0), Km(50.0)).is_none());
    }

    #[test]
    fn residual_budget_tightens_with_vantage_count() {
        let floor = Km(10.0);
        let budgets: Vec<f64> = [1usize, 3, 5, 7]
            .iter()
            .map(|&n| VantagePolicy::residual_budget_for(floor, n).0)
            .collect();
        for w in budgets.windows(2) {
            assert!(w[1] < w[0], "budget must shrink as N grows: {budgets:?}");
        }
        assert!(
            budgets[3] > floor.0,
            "budget never collapses below the noise floor"
        );
    }
}
