//! Landmark multilateration: position estimation from range measurements.
//!
//! Used for the paper's GPS-spoofing countermeasure (§V-C, "we could
//! consider the triangulation of V from multiple landmarks"), as the
//! geometric core of the measurement-based geolocation baselines (§III-B),
//! and as the aggregation kernel of multi-vantage audits, where N verifier
//! devices each contribute one RTT-derived range and up to f < N/2 of them
//! may lie.
//!
//! Two estimators are exposed:
//!
//! * [`multilaterate`] — plain least-squares fit; every measurement gets
//!   equal weight, so a single adversarial range drags the estimate.
//! * [`robust_multilaterate`] — median/trimmed-residual IRLS that discards
//!   measurements whose residual is far outside the majority consensus,
//!   tolerating f lying or laggy vantages out of N as long as f < N/2.
//!
//! Both validate their inputs (finite coordinates in range, finite
//! non-negative distances), reject rank-deficient landmark geometry
//! (duplicated or collinear landmarks), and are guaranteed to terminate on
//! *any* input. See `crates/geo/docs/triangulation.md` for the contract.

use crate::coords::GeoPoint;
use geoproof_sim::time::Km;

/// One landmark observation: a known position plus an estimated distance
/// to the target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RangeMeasurement {
    /// The landmark's (trusted) position.
    pub landmark: GeoPoint,
    /// Estimated great-circle distance to the target.
    pub distance: Km,
}

/// Kilometres per degree of latitude (spherical Earth).
const KM_PER_DEG_LAT: f64 = 111.32;

/// Landmark sets whose smallest principal spread is under this are treated
/// as rank-deficient: duplicated or collinear landmarks admit mirror
/// solutions, so any single "estimate" would be confident garbage.
const MIN_SPREAD_KM: f64 = 1.0;

/// A measurement the estimators will accept: coordinates finite and in
/// range, distance finite and non-negative. A single corrupted RTT-derived
/// range must degrade to `None`, never hang or panic downstream.
fn valid_measurement(r: &RangeMeasurement) -> bool {
    r.landmark.lat.is_finite()
        && (-90.0..=90.0).contains(&r.landmark.lat)
        && r.landmark.lon.is_finite()
        && (-180.0..=180.0).contains(&r.landmark.lon)
        && r.distance.0.is_finite()
        && r.distance.0 >= 0.0
}

/// Normalises a longitude into [-180, 180). Non-finite input yields NaN —
/// callers validate before constructing a [`GeoPoint`]. (The previous
/// subtract-in-a-loop implementation hung forever on ±∞/NaN and spun for
/// millions of iterations on astronomically large values.)
fn wrap_lon(lon: f64) -> f64 {
    if !lon.is_finite() {
        return f64::NAN;
    }
    (lon + 180.0).rem_euclid(360.0) - 180.0
}

/// Shortest signed longitude difference `a - b` in degrees, in [-180, 180).
fn lon_delta(a: f64, b: f64) -> f64 {
    wrap_lon(a - b)
}

/// Circular-mean longitude of the landmarks: lon 179° and −179° must seed
/// near ±180°, not at 0° on the far side of the planet.
fn circular_mean_lon(ranges: &[RangeMeasurement]) -> f64 {
    let (s, c) = ranges.iter().fold((0.0f64, 0.0f64), |(s, c), r| {
        let l = r.landmark.lon.to_radians();
        (s + l.sin(), c + l.cos())
    });
    if s.hypot(c) < 1e-9 {
        0.0 // antipodal cancellation: any meridian is as good as another
    } else {
        s.atan2(c).to_degrees()
    }
}

/// Centroid seed: mean latitude, circular-mean longitude.
fn centroid_seed(ranges: &[RangeMeasurement]) -> (f64, f64) {
    let lat = ranges.iter().map(|r| r.landmark.lat).sum::<f64>() / ranges.len() as f64;
    (lat, circular_mean_lon(ranges))
}

/// Rejects rank-deficient geometry: projects the landmarks onto a local
/// tangent plane and checks the smallest principal-axis spread (the square
/// root of the 2×2 covariance's smallest eigenvalue). Duplicated landmarks
/// collapse both axes; collinear ones collapse the minor axis.
fn spread_is_sufficient(ranges: &[RangeMeasurement]) -> bool {
    let (lat0, lon0) = centroid_seed(ranges);
    let cos0 = lat0.to_radians().cos().abs().max(0.05);
    let pts: Vec<(f64, f64)> = ranges
        .iter()
        .map(|r| {
            (
                lon_delta(r.landmark.lon, lon0) * KM_PER_DEG_LAT * cos0,
                (r.landmark.lat - lat0) * KM_PER_DEG_LAT,
            )
        })
        .collect();
    let n = pts.len() as f64;
    let (mx, my) = pts
        .iter()
        .fold((0.0, 0.0), |(ax, ay), (x, y)| (ax + x / n, ay + y / n));
    let (mut sxx, mut syy, mut sxy) = (0.0f64, 0.0f64, 0.0f64);
    for (x, y) in &pts {
        let (dx, dy) = (x - mx, y - my);
        sxx += dx * dx / n;
        syy += dy * dy / n;
        sxy += dx * dy / n;
    }
    let t = (sxx + syy) / 2.0;
    let d = (((sxx - syy) / 2.0).powi(2) + sxy * sxy).sqrt();
    let lambda_min = (t - d).max(0.0);
    lambda_min.sqrt() >= MIN_SPREAD_KM
}

/// Weighted sum of squared range residuals at (`lat`, `lon`).
fn cost_at(lat: f64, lon: f64, ranges: &[RangeMeasurement], weights: &[f64]) -> f64 {
    let here = GeoPoint::new(lat.clamp(-90.0, 90.0), wrap_lon(lon));
    ranges
        .iter()
        .zip(weights)
        .map(|(r, w)| {
            let e = here.distance(&r.landmark).0 - r.distance.0;
            w * e * e
        })
        .sum()
}

/// Weighted gradient descent with backtracking: a move is applied only if
/// it *lowers* the cost, so the returned iterate is the best one visited —
/// the previous implementation kept cost-increasing moves (it shrank the
/// step but never reverted) and returned the last iterate, not the best.
/// Returns `(lat, lon, cost)` with the invariant `cost ≤ cost(start)`.
fn descend(ranges: &[RangeMeasurement], weights: &[f64], start: (f64, f64)) -> (f64, f64, f64) {
    let (mut lat, mut lon) = (start.0.clamp(-90.0, 90.0), wrap_lon(start.1));
    let mut cost = cost_at(lat, lon, ranges, weights);
    let mut step = 0.5; // km-space step scale
    let n: f64 = weights.iter().sum::<f64>().max(1.0);
    for _ in 0..2_000 {
        let here = GeoPoint::new(lat, lon);
        // Residual-weighted direction field: unit vectors from each
        // landmark towards the current estimate, in local flat-earth km
        // coordinates. Longitude differences are wrapped so landmarks
        // across the antimeridian pull the right way.
        let (mut gx, mut gy) = (0.0f64, 0.0f64); // east, north (km)
        for (r, w) in ranges.iter().zip(weights) {
            let current = here.distance(&r.landmark).0;
            if *w == 0.0 || current < 1e-6 {
                continue; // trimmed, or sitting on the landmark
            }
            let residual = current - r.distance.0;
            let dlat_km = (here.lat - r.landmark.lat) * KM_PER_DEG_LAT;
            let dlon_km =
                lon_delta(here.lon, r.landmark.lon) * KM_PER_DEG_LAT * here.lat.to_radians().cos();
            let norm = (dlat_km * dlat_km + dlon_km * dlon_km).sqrt().max(1e-9);
            gx += w * residual * (dlon_km / norm);
            gy += w * residual * (dlat_km / norm);
        }
        // Propose a move against the gradient (km → deg), then accept it
        // only on improvement; otherwise backtrack the step and stay put.
        let cand_lat = (lat - step * (gy / n) / KM_PER_DEG_LAT).clamp(-90.0, 90.0);
        let cand_lon = wrap_lon(
            lon - step * (gx / n) / (KM_PER_DEG_LAT * cand_lat.to_radians().cos().abs().max(0.1)),
        );
        let cand_cost = cost_at(cand_lat, cand_lon, ranges, weights);
        if cand_cost < cost {
            lat = cand_lat;
            lon = cand_lon;
            cost = cand_cost;
            step = (step * 1.2).min(4.0);
        } else {
            step *= 0.5;
            if step < 1e-7 {
                break;
            }
        }
    }
    (lat, lon, cost)
}

/// Estimates the target position from at least three range measurements by
/// gradient descent on the sum of squared range residuals.
///
/// Returns `None` when fewer than three landmarks are supplied (the
/// geometry is under-determined), when any measurement is invalid
/// (non-finite or out-of-range coordinates, non-finite or negative
/// distance), or when the landmark set is rank-deficient (duplicated or
/// collinear landmarks, which admit mirror solutions).
pub fn multilaterate(ranges: &[RangeMeasurement]) -> Option<GeoPoint> {
    if ranges.len() < 3 || !ranges.iter().all(valid_measurement) {
        return None;
    }
    if !spread_is_sufficient(ranges) {
        return None;
    }
    let weights = vec![1.0; ranges.len()];
    let (lat, lon, _) = descend(ranges, &weights, centroid_seed(ranges));
    Some(GeoPoint::new(lat, lon))
}

/// Outcome of the outlier-robust fit: the estimate, which measurements
/// survived trimming, and the residual quality over the surviving set.
#[derive(Clone, Debug, PartialEq)]
pub struct RobustEstimate {
    /// Trimmed-consensus position estimate.
    pub position: GeoPoint,
    /// Per-measurement verdict, aligned with the input slice: `true` when
    /// the measurement was kept as an inlier.
    pub inliers: Vec<bool>,
    /// Root-mean-square range residual over the inlier set — the
    /// consistency statistic multi-vantage verdicts threshold on.
    pub rms_inlier_residual: Km,
}

/// Residual scale floor (km): network-derived ranging is never better than
/// a few kilometres, so the trimming cutoff never collapses to zero even
/// when a majority of measurements agree exactly.
const MIN_SCALE_KM: f64 = 5.0;

/// Outlier-robust multilateration: iteratively-reweighted trimming on the
/// median absolute residual.
///
/// Fits all measurements, computes per-measurement residuals, estimates a
/// robust scale from their median (×1.4826, the Gaussian consistency
/// factor), trims measurements beyond 3× that scale — while always keeping
/// the majority ⌈(N+1)/2⌉ of smallest residual, so a coalition can never
/// trim the honest side — and refits on the survivors, seeded at the
/// current estimate. Converges in a handful of rounds.
///
/// Tolerates f lying or laggy measurements out of N when f < N/2: the
/// median residual is then anchored by honest measurements, so the liars'
/// residuals stand out and are trimmed. Validation and degeneracy rules
/// are exactly [`multilaterate`]'s.
///
/// `seed` is the descent start (the landmarks' centroid when `None`).
/// Multi-vantage verdicts seed at the SLA position, which both anchors the
/// two-inlier refit (two circles intersect twice; the seed picks the
/// claim-side root) and makes replay deterministic from recorded inputs
/// alone.
pub fn robust_multilaterate(
    ranges: &[RangeMeasurement],
    seed: Option<GeoPoint>,
) -> Option<RobustEstimate> {
    if ranges.len() < 3 || !ranges.iter().all(valid_measurement) {
        return None;
    }
    if !spread_is_sufficient(ranges) {
        return None;
    }
    let n = ranges.len();
    let majority = n / 2 + 1;
    let start = seed.map_or_else(|| centroid_seed(ranges), |p| (p.lat, p.lon));
    // Round one: hard-trim to a majority consensus — the ⌈(N+1)/2⌉
    // smallest residuals, measured from *two* competing anchors, with the
    // better refit kept. A single anchor can be fooled: the full fit is
    // dragged by a coalition of liars (a pair of huge inflations can pull
    // it to a point that fits the liars better than the honest side), and
    // the bare seed can be off when the claim itself is displaced. So we
    // form one majority-trim from residuals at the seed and one from
    // residuals at the full-weight fit, refit each, and keep the
    // hypothesis with the lower least-trimmed-squares cost (sum of the
    // majority smallest squared residuals at its refit).
    let full = descend(ranges, &vec![1.0; n], start);
    let trimmed_cost = |p: (f64, f64)| -> f64 {
        let here = GeoPoint::new(p.0.clamp(-90.0, 90.0), wrap_lon(p.1));
        let mut sq: Vec<f64> = ranges
            .iter()
            .map(|r| (here.distance(&r.landmark).0 - r.distance.0).powi(2))
            .collect();
        sq.sort_by(|a, b| a.partial_cmp(b).expect("residuals are finite"));
        sq[..majority].iter().sum()
    };
    let majority_trim = |anchor: (f64, f64)| -> Vec<f64> {
        let here = GeoPoint::new(anchor.0.clamp(-90.0, 90.0), wrap_lon(anchor.1));
        let residuals: Vec<f64> = ranges
            .iter()
            .map(|r| (here.distance(&r.landmark).0 - r.distance.0).abs())
            .collect();
        let mut sorted = residuals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("residuals are finite"));
        let floor = sorted[majority - 1];
        residuals
            .iter()
            .map(|&r| if r <= floor { 1.0 } else { 0.0 })
            .collect()
    };
    let (mut lat, mut lon, mut weights) = (f64::NAN, f64::NAN, Vec::new());
    let mut best = f64::INFINITY;
    for anchor in [start, (full.0, full.1)] {
        let w = majority_trim(anchor);
        let refit = descend(ranges, &w, anchor);
        let cost = trimmed_cost((refit.0, refit.1));
        if cost < best {
            best = cost;
            lat = refit.0;
            lon = refit.1;
            weights = w;
        }
    }
    // Subsequent rounds re-admit anything consistent with the consensus
    // fit, so a merely noisy (not lying) measurement is not lost; the
    // majority floor keeps the ⌈(N+1)/2⌉ smallest residuals in whatever
    // the cutoff says, so a coalition of f < N/2 can never trim the
    // honest side.
    for _ in 0..3 {
        let here = GeoPoint::new(lat, lon);
        let residuals: Vec<f64> = ranges
            .iter()
            .map(|r| (here.distance(&r.landmark).0 - r.distance.0).abs())
            .collect();
        let mut sorted = residuals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("residuals are finite"));
        let floor = sorted[majority - 1];
        let median = sorted[n / 2];
        let cutoff = 3.0 * (1.4826 * median).max(MIN_SCALE_KM);
        let next: Vec<f64> = residuals
            .iter()
            .map(|&r| if r <= cutoff || r <= floor { 1.0 } else { 0.0 })
            .collect();
        if next == weights {
            break;
        }
        weights = next;
        let refit = descend(ranges, &weights, (lat, lon));
        lat = refit.0;
        lon = refit.1;
    }
    let here = GeoPoint::new(lat, lon);
    let (ss, kept) = ranges.iter().zip(&weights).filter(|(_, w)| **w > 0.0).fold(
        (0.0f64, 0usize),
        |(ss, k), (r, _)| {
            let e = here.distance(&r.landmark).0 - r.distance.0;
            (ss + e * e, k + 1)
        },
    );
    Some(RobustEstimate {
        position: here,
        inliers: weights.iter().map(|w| *w > 0.0).collect(),
        rms_inlier_residual: Km((ss / kept.max(1) as f64).sqrt()),
    })
}

/// Root-mean-square range residual of `estimate` against the measurements —
/// a quality indicator callers can threshold on.
pub fn rms_residual(estimate: &GeoPoint, ranges: &[RangeMeasurement]) -> Km {
    if ranges.is_empty() {
        return Km(0.0);
    }
    let ss: f64 = ranges
        .iter()
        .map(|r| {
            let e = estimate.distance(&r.landmark).0 - r.distance.0;
            e * e
        })
        .sum();
    Km((ss / ranges.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::places::*;

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
    fn recovers_position_from_exact_ranges() {
        let ranges = exact_ranges(BRISBANE, &[SYDNEY, MELBOURNE, PERTH, TOWNSVILLE]);
        let est = multilaterate(&ranges).expect("enough landmarks");
        let err = est.distance(&BRISBANE).0;
        assert!(err < 10.0, "estimate off by {err} km");
    }

    #[test]
    fn recovers_inland_position() {
        let target = GeoPoint::new(-25.0, 140.0); // outback
        let ranges = exact_ranges(target, &[SYDNEY, PERTH, TOWNSVILLE, ADELAIDE]);
        let est = multilaterate(&ranges).expect("enough landmarks");
        assert!(est.distance(&target).0 < 15.0);
    }

    #[test]
    fn tolerates_noisy_ranges() {
        let mut ranges = exact_ranges(BRISBANE, &[SYDNEY, MELBOURNE, PERTH, TOWNSVILLE, ADELAIDE]);
        // ±5 % multiplicative noise, alternating sign.
        for (i, r) in ranges.iter_mut().enumerate() {
            let f = if i % 2 == 0 { 1.05 } else { 0.95 };
            r.distance = Km(r.distance.0 * f);
        }
        let est = multilaterate(&ranges).expect("enough landmarks");
        let err = est.distance(&BRISBANE).0;
        assert!(err < 150.0, "estimate off by {err} km");
    }

    #[test]
    fn under_determined_returns_none() {
        let ranges = exact_ranges(BRISBANE, &[SYDNEY, MELBOURNE]);
        assert!(multilaterate(&ranges).is_none());
    }

    #[test]
    fn rms_residual_near_zero_for_truth() {
        let ranges = exact_ranges(SYDNEY, &[BRISBANE, MELBOURNE, PERTH]);
        assert!(rms_residual(&SYDNEY, &ranges).0 < 1e-6);
        assert!(rms_residual(&PERTH, &ranges).0 > 1000.0);
    }

    #[test]
    fn wrap_lon_behaviour() {
        assert_eq!(super::wrap_lon(190.0), -170.0);
        assert_eq!(super::wrap_lon(-190.0), 170.0);
        assert_eq!(super::wrap_lon(45.0), 45.0);
    }

    #[test]
    fn wrap_lon_terminates_on_pathological_input() {
        // Regression: the loop implementation hung on these.
        assert!(super::wrap_lon(f64::INFINITY).is_nan());
        assert!(super::wrap_lon(f64::NEG_INFINITY).is_nan());
        assert!(super::wrap_lon(f64::NAN).is_nan());
        let l = super::wrap_lon(1e300);
        assert!((-180.0..180.0).contains(&l));
        assert!(super::wrap_lon(f64::MAX).is_finite());
    }

    #[test]
    fn non_finite_inputs_yield_none_not_hang() {
        // Regression: a single corrupted RTT-derived range used to wedge
        // the TPA inside wrap_lon.
        let mut ranges = exact_ranges(BRISBANE, &[SYDNEY, MELBOURNE, PERTH]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            ranges[1].distance = Km(bad);
            assert!(multilaterate(&ranges).is_none(), "distance {bad}");
            assert!(
                robust_multilaterate(&ranges, None).is_none(),
                "distance {bad}"
            );
        }
        ranges[1].distance = Km(100.0);
        ranges[1].landmark.lon = f64::INFINITY;
        assert!(multilaterate(&ranges).is_none());
        ranges[1].landmark.lon = 500.0;
        assert!(multilaterate(&ranges).is_none());
    }

    #[test]
    fn duplicated_landmarks_yield_none() {
        // The same landmark pinged thrice used to produce a confident
        // garbage estimate; it must be rejected as rank-deficient.
        let ranges = vec![
            RangeMeasurement {
                landmark: SYDNEY,
                distance: Km(730.0),
            };
            3
        ];
        assert!(multilaterate(&ranges).is_none());
        assert!(robust_multilaterate(&ranges, None).is_none());
    }

    #[test]
    fn collinear_landmarks_yield_none() {
        // Three landmarks on one meridian admit a mirror solution.
        let lms = [
            GeoPoint::new(-20.0, 145.0),
            GeoPoint::new(-25.0, 145.0),
            GeoPoint::new(-30.0, 145.0),
        ];
        let ranges = exact_ranges(GeoPoint::new(-25.0, 150.0), &lms);
        assert!(multilaterate(&ranges).is_none());
        assert!(robust_multilaterate(&ranges, None).is_none());
    }

    #[test]
    fn recovers_position_across_antimeridian() {
        // Landmarks straddling ±180°: the naive mean longitude seeds at
        // 0°, the far side of the planet. Target near Fiji.
        let target = GeoPoint::new(-17.5, 179.2);
        let lms = [
            GeoPoint::new(-18.1, 178.4),
            GeoPoint::new(-16.5, -179.2),
            GeoPoint::new(-19.0, -178.0),
            GeoPoint::new(-15.8, 177.5),
        ];
        let ranges = exact_ranges(target, &lms);
        let est = multilaterate(&ranges).expect("enough landmarks");
        let err = est.distance(&target).0;
        assert!(err < 25.0, "estimate off by {err} km");
    }

    #[test]
    fn antimeridian_target_on_far_side() {
        let target = GeoPoint::new(-17.0, -179.8);
        let lms = [
            GeoPoint::new(-18.0, 179.0),
            GeoPoint::new(-16.0, -178.5),
            GeoPoint::new(-19.5, -179.0),
            GeoPoint::new(-15.0, 179.8),
        ];
        let ranges = exact_ranges(target, &lms);
        let est = multilaterate(&ranges).expect("enough landmarks");
        let err = est.distance(&target).0;
        assert!(err < 25.0, "estimate off by {err} km");
    }

    #[test]
    fn estimate_never_worse_than_start_point() {
        // Regression for the descent keeping cost-increasing moves: the
        // returned estimate's rms residual must never exceed the start
        // point's (centroid seed).
        let cases: Vec<Vec<RangeMeasurement>> = vec![
            exact_ranges(BRISBANE, &[SYDNEY, MELBOURNE, PERTH, TOWNSVILLE]),
            {
                let mut r = exact_ranges(HOBART, &[SYDNEY, ADELAIDE, PERTH, TOWNSVILLE]);
                for (i, m) in r.iter_mut().enumerate() {
                    m.distance = Km(m.distance.0 * if i % 2 == 0 { 1.2 } else { 0.8 });
                }
                r
            },
        ];
        for ranges in cases {
            let (lat0, lon0) = super::centroid_seed(&ranges);
            let start = GeoPoint::new(lat0.clamp(-90.0, 90.0), super::wrap_lon(lon0));
            let est = multilaterate(&ranges).expect("enough landmarks");
            assert!(
                rms_residual(&est, &ranges).0 <= rms_residual(&start, &ranges).0 + 1e-9,
                "descent returned a worse iterate than its start"
            );
        }
    }

    #[test]
    fn robust_fit_rejects_single_adversarial_outlier() {
        let mut ranges = exact_ranges(BRISBANE, &[SYDNEY, MELBOURNE, PERTH, TOWNSVILLE, ADELAIDE]);
        ranges[2].distance = Km(ranges[2].distance.0 + 2_500.0); // liar
        let robust = robust_multilaterate(&ranges, None).expect("enough landmarks");
        assert!(!robust.inliers[2], "the inflated range must be trimmed");
        assert!(robust.inliers.iter().filter(|i| **i).count() >= 4);
        let err = robust.position.distance(&BRISBANE).0;
        assert!(err < 30.0, "robust estimate off by {err} km");
        assert!(robust.rms_inlier_residual.0 < 30.0);
        // The plain fit, by contrast, is dragged by the liar.
        let plain = multilaterate(&ranges).expect("enough landmarks");
        assert!(plain.distance(&BRISBANE).0 > err);
    }

    #[test]
    fn robust_fit_agrees_with_plain_on_clean_data() {
        let ranges = exact_ranges(BRISBANE, &[SYDNEY, MELBOURNE, PERTH, TOWNSVILLE]);
        let robust = robust_multilaterate(&ranges, None).expect("enough landmarks");
        assert!(robust.inliers.iter().all(|i| *i));
        assert!(robust.position.distance(&BRISBANE).0 < 10.0);
        assert!(robust.rms_inlier_residual.0 < 10.0);
    }

    #[test]
    fn seeded_robust_fit_is_deterministic() {
        let mut ranges = exact_ranges(BRISBANE, &[SYDNEY, MELBOURNE, PERTH, TOWNSVILLE]);
        ranges[0].distance = Km(ranges[0].distance.0 * 1.02);
        let a = robust_multilaterate(&ranges, Some(BRISBANE)).expect("fit");
        let b = robust_multilaterate(&ranges, Some(BRISBANE)).expect("fit");
        assert_eq!(a, b);
        assert_eq!(a.position.lat.to_bits(), b.position.lat.to_bits());
        assert_eq!(a.position.lon.to_bits(), b.position.lon.to_bits());
    }
}
