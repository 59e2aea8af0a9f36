//! Landmark-hardened audits: §V-C's GPS-spoofing countermeasure wired
//! into the TPA's decision.
//!
//! The paper: "for extra assurance we may want to verify the position of
//! V … we could consider the triangulation of V from multiple landmarks."
//! The plain SLA check compares the *claimed* GPS fix to the contracted
//! location — useless if the provider spoofs the fix to exactly the SLA
//! site. Here the TPA additionally collects independent network-ranging
//! measurements to the verifier device and cross-checks them against the
//! claimed fix, catching the spoof-to-SLA attack.

use crate::auditor::{AuditReport, Violation};
use geoproof_crypto::chacha::ChaChaRng;
use geoproof_geo::coords::GeoPoint;
use geoproof_geo::gps::{verify_position_with_landmarks, GpsFix, PositionCheck};
use geoproof_geo::schemes::rtt_to_distance;
use geoproof_geo::triangulation::RangeMeasurement;
use geoproof_net::wan::WanModel;
use geoproof_sim::time::{Km, SimDuration};

/// One landmark's ping measurement of the verifier device.
#[derive(Clone, Copy, Debug)]
pub struct LandmarkPing {
    /// Landmark position (trusted infrastructure).
    pub landmark: GeoPoint,
    /// Measured RTT to the verifier device.
    pub rtt: SimDuration,
    /// Access overhead to subtract (the landmark's own last mile).
    pub access_overhead: SimDuration,
}

/// Simulates landmark pings against a device whose *true* position is
/// known to the simulation (the provider cannot influence these paths —
/// the paper notes the attacker may try to delay them; added delay only
/// *inflates* ranges, pushing the estimate further from a spoofed fix,
/// never closer).
pub fn simulate_landmark_pings(
    landmarks: &[GeoPoint],
    true_position: GeoPoint,
    wan: &WanModel,
    access_overhead: SimDuration,
    rng: &mut ChaChaRng,
) -> Vec<LandmarkPing> {
    landmarks
        .iter()
        .map(|lm| LandmarkPing {
            landmark: *lm,
            rtt: wan.rtt(lm.distance(&true_position), rng),
            access_overhead,
        })
        .collect()
}

/// Cross-checks a claimed GPS fix against landmark pings; returns the
/// position check, or `None` with fewer than three landmarks.
pub fn landmark_position_check(
    claimed: GeoPoint,
    pings: &[LandmarkPing],
    speed: geoproof_sim::time::Speed,
    tolerance: Km,
) -> Option<PositionCheck> {
    let ranges: Vec<RangeMeasurement> = pings
        .iter()
        .map(|p| RangeMeasurement {
            landmark: p.landmark,
            distance: rtt_to_distance(p.rtt, p.access_overhead, speed),
        })
        .collect();
    let fix = GpsFix {
        position: claimed,
        accuracy: Km(0.015),
    };
    verify_position_with_landmarks(&fix, &ranges, tolerance)
}

/// Folds a landmark check into an existing audit report: an inconsistent
/// fix appends a [`Violation::WrongLocation`] carrying the discrepancy.
pub fn harden_report(report: AuditReport, check: &PositionCheck) -> AuditReport {
    let mut report = report;
    if !check.consistent {
        report.violations.push(Violation::WrongLocation {
            offset: check.discrepancy,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoproof_geo::coords::places::{ADELAIDE, BRISBANE, MELBOURNE, PERTH, SYDNEY, TOWNSVILLE};
    use geoproof_net::wan::AccessKind;

    const LANDMARKS: [GeoPoint; 5] = [SYDNEY, MELBOURNE, PERTH, TOWNSVILLE, ADELAIDE];

    fn pings(true_pos: GeoPoint) -> Vec<LandmarkPing> {
        let wan = WanModel::calibrated(AccessKind::Fibre);
        let (_speed, overhead) = wan.ranging_calibration();
        let mut rng = ChaChaRng::from_u64_seed(5);
        simulate_landmark_pings(&LANDMARKS, true_pos, &wan, overhead, &mut rng)
    }

    fn ranging_speed() -> geoproof_sim::time::Speed {
        WanModel::calibrated(AccessKind::Fibre)
            .ranging_calibration()
            .0
    }

    #[test]
    fn honest_fix_passes_landmark_check() {
        // Device really in Brisbane, claims Brisbane.
        let check = landmark_position_check(
            BRISBANE,
            &pings(BRISBANE),
            ranging_speed(),
            Km(400.0), // network ranging is coarse; hundreds of km tolerance
        )
        .expect("enough landmarks");
        assert!(check.consistent, "discrepancy {}", check.discrepancy);
    }

    #[test]
    fn spoof_to_sla_location_is_caught() {
        // Device actually in Perth (data moved!), GPS spoofed to claim
        // Brisbane — the SLA site. The plain SLA check would pass; the
        // landmark ranging sees Perth.
        let check = landmark_position_check(
            BRISBANE,      // claimed (spoofed)
            &pings(PERTH), // physical truth drives the pings
            ranging_speed(),
            Km(400.0),
        )
        .expect("enough landmarks");
        assert!(!check.consistent);
        assert!(check.discrepancy.0 > 1500.0, "got {}", check.discrepancy.0);
    }

    #[test]
    fn hardened_report_carries_the_violation() {
        let base = AuditReport {
            violations: vec![],
            max_rtt: SimDuration::from_millis(13),
            segments_ok: 10,
        };
        let check =
            landmark_position_check(BRISBANE, &pings(PERTH), ranging_speed(), Km(400.0)).unwrap();
        let hardened = harden_report(base, &check);
        assert!(!hardened.accepted());
        assert!(hardened
            .violations
            .iter()
            .any(|v| matches!(v, Violation::WrongLocation { .. })));
    }

    #[test]
    fn too_few_landmarks_yields_none() {
        let p = pings(BRISBANE);
        assert!(landmark_position_check(BRISBANE, &p[..2], ranging_speed(), Km(400.0)).is_none());
    }

    #[test]
    fn same_landmark_pinged_thrice_yields_none() {
        // Degenerate geometry: one landmark repeated is rank-deficient and
        // must be rejected, not turned into a confident position check.
        let p = pings(BRISBANE);
        let thrice = vec![p[0]; 3];
        assert!(landmark_position_check(BRISBANE, &thrice, ranging_speed(), Km(400.0)).is_none());
    }

    #[test]
    fn provider_delaying_pings_cannot_fake_proximity() {
        // Added delay inflates every range; the spoofed-to-Brisbane fix
        // looks *less* consistent, never more.
        let mut delayed = pings(PERTH);
        for p in delayed.iter_mut() {
            p.rtt += SimDuration::from_millis(30);
        }
        let check = landmark_position_check(BRISBANE, &delayed, ranging_speed(), Km(400.0))
            .expect("enough landmarks");
        assert!(!check.consistent);
    }
}
