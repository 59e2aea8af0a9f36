//! Property-based tests for the geographic substrate.

use geoproof_geo::coords::GeoPoint;
use geoproof_geo::gps::GpsReceiver;
use geoproof_geo::schemes::rtt_to_distance;
use geoproof_geo::triangulation::{
    multilaterate, rms_residual, robust_multilaterate, RangeMeasurement,
};
use geoproof_sim::time::{Km, SimDuration, Speed};
use proptest::prelude::*;

fn point() -> impl Strategy<Value = GeoPoint> {
    (-60.0f64..60.0, -170.0f64..170.0).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

/// Any finite-or-not f64 a corrupted wire message could smuggle in.
fn wild() -> impl Strategy<Value = f64> {
    (-1e6f64..1e6, 0u8..8).prop_map(|(x, sel)| match sel {
        0 => x,
        1 => f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::MAX,
        5 => -f64::MAX,
        6 => 1e300,
        _ => -1e300,
    })
}

/// Landmarks in a wide ring around a target anywhere on the globe —
/// including antimeridian and high-latitude targets — with exact ranges.
fn ring_ranges(target: GeoPoint, n: usize, radius_deg: f64) -> Vec<RangeMeasurement> {
    (0..n)
        .map(|i| {
            let theta = std::f64::consts::TAU * i as f64 / n as f64 + 0.37;
            let lat = (target.lat + radius_deg * theta.cos()).clamp(-89.0, 89.0);
            let cos = lat.to_radians().cos().max(0.05);
            let mut lon = target.lon + radius_deg * theta.sin() / cos;
            lon = (lon + 180.0).rem_euclid(360.0) - 180.0;
            let lm = GeoPoint::new(lat, lon);
            RangeMeasurement {
                landmark: lm,
                distance: lm.distance(&target),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spoofed_fix_reports_fake_until_cleared(real in point(), fake in point()) {
        let mut gps = GpsReceiver::new(real);
        gps.spoof(fake);
        prop_assert_eq!(gps.read_fix().position, fake);
        prop_assert_eq!(gps.true_position(), real);
        gps.clear_spoof();
        prop_assert_eq!(gps.read_fix().position, real);
    }

    #[test]
    fn multilateration_recovers_target_with_spread_landmarks(
        target in point(),
        seed in any::<u64>(),
    ) {
        // Four landmarks offset in different quadrants around the target.
        let offsets = [(6.0, 7.0), (-8.0, 5.0), (5.0, -9.0), (-7.0, -6.0)];
        let jitter = (seed % 100) as f64 / 100.0;
        let ranges: Vec<RangeMeasurement> = offsets
            .iter()
            .map(|(dlat, dlon)| {
                let lm = GeoPoint::new(
                    (target.lat + dlat + jitter).clamp(-89.0, 89.0),
                    (target.lon + dlon).clamp(-179.0, 179.0),
                );
                RangeMeasurement { landmark: lm, distance: lm.distance(&target) }
            })
            .collect();
        let est = multilaterate(&ranges).expect("4 landmarks");
        let err = est.distance(&target).0;
        prop_assert!(err < 50.0, "estimate off by {err} km");
        prop_assert!(rms_residual(&est, &ranges).0 < 60.0);
    }

    #[test]
    fn rtt_to_distance_never_negative(
        rtt_ms in 0.0f64..500.0,
        overhead_ms in 0.0f64..500.0,
        speed in 1.0f64..400.0,
    ) {
        let d = rtt_to_distance(
            SimDuration::from_millis_f64(rtt_ms),
            SimDuration::from_millis_f64(overhead_ms),
            Speed(speed),
        );
        prop_assert!(d.0 >= 0.0);
    }

    #[test]
    fn rtt_to_distance_monotone_in_rtt(
        a_ms in 0.0f64..500.0,
        b_ms in 0.0f64..500.0,
    ) {
        let (lo, hi) = if a_ms <= b_ms { (a_ms, b_ms) } else { (b_ms, a_ms) };
        let ov = SimDuration::from_millis_f64(5.0);
        let s = Speed(133.0);
        let d_lo = rtt_to_distance(SimDuration::from_millis_f64(lo), ov, s);
        let d_hi = rtt_to_distance(SimDuration::from_millis_f64(hi), ov, s);
        prop_assert!(d_lo.0 <= d_hi.0 + 1e-9);
    }

    #[test]
    fn rms_residual_zero_iff_consistent(target in point()) {
        let lms = [
            GeoPoint::new((target.lat + 5.0).clamp(-89.0, 89.0), target.lon),
            GeoPoint::new(target.lat, (target.lon + 5.0).clamp(-179.0, 179.0)),
            GeoPoint::new((target.lat - 5.0).clamp(-89.0, 89.0), target.lon),
        ];
        let ranges: Vec<RangeMeasurement> = lms
            .iter()
            .map(|lm| RangeMeasurement { landmark: *lm, distance: lm.distance(&target) })
            .collect();
        prop_assert!(rms_residual(&target, &ranges).0 < 1e-6);
        // A point 500 km away has large residual.
        let off = GeoPoint::new(
            (target.lat + 4.5).clamp(-89.0, 89.0),
            target.lon,
        );
        prop_assert!(rms_residual(&off, &ranges).0 > 50.0);
    }

    #[test]
    fn distance_bounded_by_half_circumference(a in point(), b in point()) {
        let d = a.distance(&b).0;
        prop_assert!(d >= 0.0);
        prop_assert!(d <= std::f64::consts::PI * geoproof_geo::EARTH_RADIUS_KM + 1e-9);
    }

    /// Regression for the `wrap_lon` hang: whatever garbage the inputs
    /// hold — NaN, ±∞, astronomically large coordinates or distances —
    /// both estimators must terminate (returning `None` on anything
    /// invalid rather than wedging the TPA).
    #[test]
    fn multilaterate_terminates_on_all_inputs(
        lats in proptest::collection::vec(wild(), 3..7),
        lons in proptest::collection::vec(wild(), 3..7),
        dists in proptest::collection::vec(wild(), 3..7),
    ) {
        let n = lats.len().min(lons.len()).min(dists.len());
        let ranges: Vec<RangeMeasurement> = (0..n)
            .map(|i| RangeMeasurement {
                landmark: GeoPoint { lat: lats[i], lon: lons[i] },
                distance: Km(dists[i]),
            })
            .collect();
        // Must return (quickly) — any invalid field yields None.
        let plain = multilaterate(&ranges);
        let robust = robust_multilaterate(&ranges, None);
        let all_valid = ranges.iter().all(|r| {
            r.landmark.lat.is_finite() && (-90.0..=90.0).contains(&r.landmark.lat)
                && r.landmark.lon.is_finite() && (-180.0..=180.0).contains(&r.landmark.lon)
                && r.distance.0.is_finite() && r.distance.0 >= 0.0
        });
        if !all_valid {
            prop_assert!(plain.is_none());
            prop_assert!(robust.is_none());
        }
    }

    /// Random targets — antimeridian and high-latitude included — with
    /// multiplicative range noise: both estimators stay near the target.
    #[test]
    fn estimators_recover_noisy_targets_globally(
        lat in -75.0f64..75.0,
        lon in -180.0f64..180.0,
        noise_seed in 0u64..1000,
    ) {
        let target = GeoPoint::new(lat, lon);
        let mut ranges = ring_ranges(target, 5, 8.0);
        // Deterministic ±3 % multiplicative noise.
        for (i, r) in ranges.iter_mut().enumerate() {
            let f = 1.0 + 0.03 * (((noise_seed as f64 + i as f64) * 0.7).sin());
            r.distance = Km(r.distance.0 * f);
        }
        let est = multilaterate(&ranges).expect("5 spread landmarks");
        prop_assert!(est.distance(&target).0 < 120.0);
        let robust = robust_multilaterate(&ranges, None).expect("5 spread landmarks");
        prop_assert!(robust.position.distance(&target).0 < 120.0);
    }

    /// One adversarial outlier among honest ranges: the robust path must
    /// trim it and land near the target, while the plain least-squares fit
    /// drifts measurably further.
    #[test]
    fn robust_path_rejects_adversarial_outlier(
        lat in -60.0f64..60.0,
        lon in -180.0f64..180.0,
        liar in 0usize..5,
        inflation in 1500.0f64..6000.0,
    ) {
        let target = GeoPoint::new(lat, lon);
        let mut ranges = ring_ranges(target, 5, 9.0);
        ranges[liar].distance = Km(ranges[liar].distance.0 + inflation);
        let robust = robust_multilaterate(&ranges, None).expect("5 spread landmarks");
        prop_assert!(!robust.inliers[liar], "liar must be trimmed");
        let robust_err = robust.position.distance(&target).0;
        prop_assert!(robust_err < 60.0, "robust estimate off by {robust_err} km");
        prop_assert!(robust.rms_inlier_residual.0 < 60.0);
        let plain_err = multilaterate(&ranges)
            .expect("5 spread landmarks")
            .distance(&target)
            .0;
        prop_assert!(
            plain_err > robust_err,
            "plain {plain_err} km should drift past robust {robust_err} km"
        );
    }

    /// Duplicating one landmark three times must always be rejected as
    /// rank-deficient, never produce a confident estimate.
    #[test]
    fn duplicated_landmark_sets_are_rejected(p in point(), d in 10.0f64..5000.0) {
        let ranges = vec![RangeMeasurement { landmark: p, distance: Km(d) }; 3];
        prop_assert!(multilaterate(&ranges).is_none());
        prop_assert!(robust_multilaterate(&ranges, None).is_none());
    }
}
