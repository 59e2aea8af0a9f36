//! Multi-vantage adversary profiles: quantifies how the §V-C(b) relay
//! residual shrinks as vantages are added, and that a Byzantine minority
//! of vantages — lying, compromised, or laggy — cannot flip the verdict.
//!
//! Three profiles drive the suite:
//! * **colluding relay** — the prover answers through a relay that adds a
//!   detour `D` to every vantage's path, inflating every range uniformly;
//! * **compromised vantage** — a minority of vantages report ranges for a
//!   coordinated fake position (the strongest lie: mutually consistent);
//! * **coordinated delay inflation** — every vantage's channel is slowed
//!   by the same amount, the timing-blind variant of the relay profile.

use geoproof::core::engine::{AuditEngine, EngineConfig, ProverId};
use geoproof::core::policy::{paper_relay_bound, TimingPolicy};
use geoproof::core::provider::{DelayedProvider, LocalProvider, SegmentProvider};
use geoproof::core::vantage::{
    aggregate_vantages, observation_range, run_vantage_sessions, VantageObservation, VantagePolicy,
    VantageSession,
};
use geoproof::core::verifier::VerifierDevice;
use geoproof::crypto::chacha::ChaChaRng;
use geoproof::crypto::schnorr::SigningKey;
use geoproof::crypto::sha256::Sha256;
use geoproof::geo::coords::places::BRISBANE;
use geoproof::geo::coords::GeoPoint;
use geoproof::geo::gps::GpsReceiver;
use geoproof::geo::triangulation::RangeMeasurement;
use geoproof::net::lan::LanPath;
use geoproof::net::wan::{AccessKind, WanModel};
use geoproof::por::encode::PorEncoder;
use geoproof::por::keys::PorKeys;
use geoproof::por::params::PorParams;
use geoproof::sim::clock::SimClock;
use geoproof::sim::time::{Km, SimDuration};
use geoproof::storage::hdd::{HddModel, WD_2500JD};
use geoproof::storage::server::{FileId, StorageServer};

/// N vantages on a ring of `radius_km` around `center`, equal bearings.
fn ring(center: GeoPoint, radius_km: f64, n: usize) -> Vec<GeoPoint> {
    const KM_PER_DEG_LAT: f64 = 111.32;
    (0..n)
        .map(|i| {
            let theta = std::f64::consts::TAU * (i as f64) / (n as f64);
            let lat = (center.lat + radius_km * theta.cos() / KM_PER_DEG_LAT).clamp(-90.0, 90.0);
            let lon_scale = KM_PER_DEG_LAT * center.lat.to_radians().cos().abs().max(0.1);
            let lon = (center.lon + radius_km * theta.sin() / lon_scale + 180.0).rem_euclid(360.0)
                - 180.0;
            GeoPoint::new(lat, lon)
        })
        .collect()
}

/// Ranging policy calibrated to the paper WAN model. Both acceptance
/// thresholds tighten as 1/√N: the aggregate's confidence radius shrinks
/// as independent vantages are added, so an N-vantage TPA can legitimately
/// demand the estimate land closer to the claim. The residual floor is
/// sized to the WAN model's per-hop quantisation (one 1 ms hop ≈ 80 km of
/// apparent range), the discrepancy floor to the paper's 60 km §V-C(b)
/// residual.
fn policy_for(n: usize) -> VantagePolicy {
    let (speed, overhead) = WanModel::calibrated(AccessKind::Fibre).ranging_calibration();
    VantagePolicy {
        ranging_speed: speed,
        ranging_overhead: overhead,
        position_tolerance: VantagePolicy::residual_budget_for(Km(60.0), n),
        residual_budget: VantagePolicy::residual_budget_for(Km(90.0), n),
    }
}

/// The largest relay offset `D` (km, in 10 km steps up to 400) that the
/// N-vantage audit still accepts under the colluding-relay profile: the
/// prover claims the SLA coordinates but answers from a relay `D` km
/// away, so every vantage's Δt ranges the *relay* — mutually consistent
/// measurements that triangulate to the wrong point. A single verifier
/// has no geometry to consult, so its evasion radius is the §V-C(b)
/// timing bound.
fn relay_evasion_radius(n: usize, ring_km: f64) -> f64 {
    let sla = BRISBANE;
    if n < 3 {
        return paper_relay_bound().0;
    }
    let vantages = ring(sla, ring_km, n);
    let wan = WanModel::calibrated(AccessKind::Fibre);
    let policy = policy_for(n);
    let mut rng = ChaChaRng::from_u64_seed(0xD0 + n as u64);
    let mut measure = |v: &GeoPoint, target: &GeoPoint| {
        observation_range(
            &VantageObservation {
                vantage: *v,
                min_rtt: wan.rtt(v.distance(target), &mut rng),
            },
            &policy,
        )
        .distance
        .0
    };
    // Commissioning pass: each vantage ranges the prover while it is
    // known honest, and the TPA records the offset between the measured
    // and geometric range — the vantage's fixed path bias under the WAN
    // model's hop quantisation. Audits then score calibrated ranges.
    let bias: Vec<f64> = vantages
        .iter()
        .map(|v| measure(v, &sla) - v.distance(&sla).0)
        .collect();
    let mut radius = 0.0;
    for step in 1..=40 {
        let offset = 10.0 * f64::from(step);
        let relay = GeoPoint::new(
            sla.lat,
            sla.lon + offset / (111.32 * sla.lat.to_radians().cos()),
        );
        let ranges: Vec<RangeMeasurement> = vantages
            .iter()
            .zip(&bias)
            .map(|(v, bias)| RangeMeasurement {
                landmark: *v,
                distance: Km((measure(v, &relay) - bias).max(0.0)),
            })
            .collect();
        let verdict = aggregate_vantages(
            sla,
            &ranges,
            policy.position_tolerance,
            policy.residual_budget,
        );
        if verdict
            .expect("ring geometry is well-conditioned")
            .consistent
        {
            radius = offset;
        } else {
            break;
        }
    }
    radius
}

#[test]
fn relay_evasion_radius_shrinks_monotonically_with_vantage_count() {
    let radii: Vec<f64> = [1usize, 3, 5, 7]
        .iter()
        .map(|&n| relay_evasion_radius(n, 300.0))
        .collect();
    for w in radii.windows(2) {
        assert!(
            w[1] <= w[0],
            "evasion radius must never grow with more vantages: {radii:?}"
        );
    }
    assert!(
        radii[3] < radii[0],
        "seven vantages must beat the single-verifier bound: {radii:?}"
    );
    // The single-verifier §V-C(b) bound is ~360 km; the seven-vantage
    // fleet pins the relay to well under half of it (140 km at a 60 km
    // discrepancy floor — the 1/√N-tightened tolerance divided by the
    // WAN model's 0.88 km-per-km ranging slope).
    assert!(radii[0] > 300.0, "single-verifier bound: {radii:?}");
    assert!(radii[3] <= 140.0, "seven-vantage radius: {radii:?}");
    // Geometry keeps detecting: honest (D = 0) fleets still accept.
    for n in [3usize, 5, 7] {
        assert!(
            relay_evasion_radius(n, 300.0) > 0.0,
            "n = {n} rejects honesty"
        );
    }
}

#[test]
fn coordinated_byzantine_minority_cannot_flip_the_estimate() {
    // f = ⌊(N−1)/2⌋ vantages collude on the strongest possible lie:
    // ranges mutually consistent with a fake prover 2000 km away. The
    // estimate must stay pinned to the truthful majority.
    let sla = BRISBANE;
    let fake = GeoPoint::new(sla.lat + 18.0, sla.lon);
    for n in [3usize, 5, 7] {
        let f = (n - 1) / 2;
        let vantages = ring(sla, 300.0, n);
        let policy = policy_for(n);
        let ranges: Vec<RangeMeasurement> = vantages
            .iter()
            .enumerate()
            .map(|(i, v)| RangeMeasurement {
                landmark: *v,
                distance: if i < f {
                    v.distance(&fake)
                } else {
                    v.distance(&sla)
                },
            })
            .collect();
        let est = aggregate_vantages(
            sla,
            &ranges,
            policy.position_tolerance,
            policy.residual_budget,
        )
        .expect("ring geometry is well-conditioned");
        assert!(
            est.consistent,
            "n = {n}, f = {f}: discrepancy {:.1} km, rms {:.1} km",
            est.discrepancy.0, est.rms_inlier_residual.0
        );
        assert!(
            est.discrepancy.0 < 60.0,
            "n = {n}: {:.1} km",
            est.discrepancy.0
        );
        for (i, inlier) in est.inliers.iter().enumerate() {
            if i < f {
                assert!(!inlier, "n = {n}: liar {i} survived trimming");
            }
        }
    }
}

// --- engine-driven profiles --------------------------------------------------

/// One vantage's engine kit under a given channel behaviour.
fn vantage_session(
    engine_seed: u64,
    i: usize,
    position: GeoPoint,
    tagged: &geoproof::por::stream::TaggedArena,
    extra_delay: SimDuration,
) -> VantageSession {
    let mut rng = ChaChaRng::from_u64_seed(engine_seed ^ ((i as u64 + 1) << 8));
    let sk = SigningKey::generate(&mut rng);
    let device = VerifierDevice::new(
        sk,
        GpsReceiver::new(position),
        SimClock::new(),
        engine_seed ^ (i as u64 + 77),
    );
    let mut storage = StorageServer::new(HddModel::deterministic(WD_2500JD), i as u64);
    storage.put_arena(
        FileId::from("mv"),
        geoproof::core::provider::shared_store(tagged),
    );
    let local = LocalProvider::new(storage, LanPath::adjacent(), i as u64 + 9);
    let provider: Box<dyn SegmentProvider + Send> = if extra_delay > SimDuration::ZERO {
        Box::new(DelayedProvider::new(local, extra_delay))
    } else {
        Box::new(local)
    };
    VantageSession {
        id: ProverId(format!("vantage-{i}")),
        position,
        device,
        provider,
    }
}

/// One full engine pass: five vantages on a 100 km ring, `delays[i]`
/// slowing vantage i's channel, ranged under `policy`.
fn rig_pass(
    delays: &[SimDuration; 5],
    policy: &VantagePolicy,
) -> geoproof::core::vantage::MultiVantageOutcome {
    let sla = BRISBANE;
    let params = PorParams::test_small();
    let encoder = PorEncoder::new(params);
    let keys = PorKeys::derive(b"mv-master", "mv");
    let data: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8).collect();
    let tagged = encoder.encode_arena(&data, &keys, "mv");
    let mut engine = AuditEngine::new(
        "mv",
        tagged.metadata().segments,
        PorEncoder::new(params),
        keys.auditor_view(),
        EngineConfig {
            seed: 41,
            k: 20,
            workers: 4,
            // Generous Δt_max: these profiles isolate what *geometry*
            // catches when timing alone is blind to the detour.
            policy: TimingPolicy {
                max_network: SimDuration::from_millis(80),
                max_lookup: SimDuration::from_millis(80),
            },
            ..EngineConfig::default()
        },
    );
    let positions = ring(sla, 100.0, 5);
    let vantages: Vec<VantageSession> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| vantage_session(41, i, p, &tagged, delays[i]))
        .collect();
    run_vantage_sessions(&mut engine, sla, policy, vantages)
}

/// A five-vantage engine rig with honest-baseline ranging calibration:
/// an identical honest twin rig (same seeds, no extra delays) is run
/// first with zero ranging overhead; the fleet-wide minimum RTT it
/// observes — the fixed LAN + disk floor every vantage pays — becomes
/// the calibrated `ranging_overhead` for the profile under test. The
/// rigs are fully deterministic, so the baseline is exact, and only the
/// per-vantage delay under test survives the subtraction.
fn run_profile(delays: &[SimDuration; 5]) -> geoproof::core::vantage::MultiVantageOutcome {
    let (speed, _) = WanModel::calibrated(AccessKind::Fibre).ranging_calibration();
    let uncalibrated = VantagePolicy {
        ranging_speed: speed,
        ranging_overhead: SimDuration::ZERO,
        position_tolerance: Km(250.0),
        residual_budget: Km(450.0),
    };
    let baseline = rig_pass(&[SimDuration::ZERO; 5], &uncalibrated)
        .ranges
        .iter()
        // With zero overhead, range = min_rtt / 2 × speed; invert it.
        .map(|r| SimDuration::from_millis_f64(2.0 * r.distance.0 / speed.0))
        .min()
        .expect("five honest vantages");
    let policy = VantagePolicy {
        ranging_overhead: baseline,
        ..uncalibrated
    };
    rig_pass(delays, &policy)
}

#[test]
fn honest_fleet_of_vantages_accepts() {
    let outcome = run_profile(&[SimDuration::ZERO; 5]);
    assert_eq!(outcome.ranges.len(), 5);
    assert!(
        outcome.reports.iter().all(|(_, r)| r.accepted()),
        "honest timing must accept"
    );
    let est = outcome.estimate.as_ref().expect("five-vantage geometry");
    assert!(
        est.consistent,
        "discrepancy {:.1} km, rms {:.1} km",
        est.discrepancy.0, est.rms_inlier_residual.0
    );
    assert!(outcome.accepted);
}

/// Byte pin: the honest profile's whole outcome (verdicts, ranges in
/// vantage order, estimate) hashed through its `Debug` form. The seeded
/// robust fit depends on range order, so a reordering moves this too.
#[test]
fn honest_profile_outcome_is_byte_pinned() {
    let outcome = run_profile(&[SimDuration::ZERO; 5]);
    let digest: String = Sha256::digest(format!("{outcome:?}").as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(
        digest,
        "f9c7aa2e48ca118a0d2ac3b57a0996dd309bf4c0b3718dc108b5e9f8f5eb1b9a"
    );
}

#[test]
fn compromised_vantage_is_trimmed_not_trusted() {
    // Vantage 2's channel lags 60 ms (compromised or simply broken): its
    // range lands thousands of km out. The trim must drop it and the
    // verdict must not flip in either direction.
    let mut delays = [SimDuration::ZERO; 5];
    delays[2] = SimDuration::from_millis(60);
    let outcome = run_profile(&delays);
    let est = outcome.estimate.as_ref().expect("five-vantage geometry");
    assert!(!est.inliers[2], "the lagging vantage must be an outlier");
    assert!(
        est.consistent,
        "discrepancy {:.1} km, rms {:.1} km",
        est.discrepancy.0, est.rms_inlier_residual.0
    );
    assert!(
        outcome.accepted,
        "one bad vantage must not flip the verdict"
    );
}

#[test]
fn coordinated_delay_inflation_breaks_geometric_consistency() {
    // Every channel slowed by the same 60 ms — the §V-C(b) relay profile
    // in its timing-blind form (Δt_max was budgeted generously, so every
    // per-vantage timed audit still accepts). The inflated ranges cannot
    // all fit any point near the claim, and geometry rejects.
    let outcome = run_profile(&[SimDuration::from_millis(60); 5]);
    assert!(
        outcome.reports.iter().all(|(_, r)| r.accepted()),
        "timing alone must stay blind in this profile"
    );
    assert!(
        !outcome.accepted,
        "geometry must catch what timing cannot: {:?}",
        outcome.estimate
    );
}
