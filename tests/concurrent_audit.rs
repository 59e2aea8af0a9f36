//! The concurrent audit engine under adversarial fleets, asserted
//! against paper-derived thresholds (Δt_max ≈ 16 ms, relay evasion bound
//! ≈ 360 km) in the style of `paper_numbers.rs`.
//!
//! The fleet seed can be pinned from the environment (`GEOPROOF_SEED`);
//! CI runs a small seed matrix so scheduler determinism is enforced for
//! more than one timeline.

use geoproof::core::engine::ProverId;
use geoproof::core::fleet::{run_fleet, AdversaryProfile, FleetConfig};
use geoproof::core::policy::{paper_relay_bound, TimingPolicy};
use geoproof::net::wan::AccessKind;
use geoproof::sim::time::Km;

/// Seed under test: `GEOPROOF_SEED` when set (the CI seed matrix), else a
/// fixed default.
fn seed() -> u64 {
    std::env::var("GEOPROOF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x6765_6f21)
}

#[test]
fn hundred_prover_fleet_is_deterministic() {
    // ≥ 100 concurrent provers: 70 honest, 10 slow, 10 relaying, 10
    // forging, all interleaved on one seeded timeline.
    let config = FleetConfig::mixed(70, 10, 10, 10, seed());
    let a = run_fleet(&config);
    assert_eq!(a.reports.len(), 100);
    assert!(
        a.peak_in_flight >= 50,
        "fleet must actually overlap, peak {}",
        a.peak_in_flight
    );

    // The whole run is a pure function of the seed.
    let b = run_fleet(&config);
    assert_eq!(a.fingerprint(), b.fingerprint(), "same seed, same run");

    // And genuinely seed-sensitive (different timeline, same verdicts).
    let c = run_fleet(&FleetConfig::mixed(70, 10, 10, 10, seed() ^ 0xdead));
    assert_ne!(a.fingerprint(), c.fingerprint());
    assert_eq!(a.tally(), c.tally(), "verdicts don't depend on the seed");
}

#[test]
fn honest_majority_fleet_converges_and_adversaries_are_isolated() {
    let outcome = run_fleet(&FleetConfig::mixed(70, 10, 10, 10, seed()));
    // Exactly the honest 70 % is accepted: no adversary sneaks in, no
    // honest prover is falsely rejected.
    assert_eq!(
        outcome.tally(),
        vec![
            ("forge", 0, 10),
            ("honest", 70, 70),
            ("relay", 0, 10),
            ("slow", 0, 10)
        ]
    );
    // Every honest transcript sits inside the paper's 16 ms budget.
    let budget = TimingPolicy::paper().max_rtt();
    for ((_, report), (_, profile)) in outcome.reports.iter().zip(&outcome.profiles) {
        if *profile == AdversaryProfile::Honest {
            assert!(
                report.max_rtt <= budget,
                "honest Δt' {} over budget",
                report.max_rtt
            );
        }
    }
}

#[test]
fn relay_beyond_the_paper_bound_is_rejected_inside_it_is_not() {
    // §V-C(b): with the fastest catalogued disk the relay evasion bound
    // is ≈ 360 km. Twice that distance must always be caught…
    let bound = paper_relay_bound();
    assert!(
        (bound.0 - 360.0).abs() < 5.0,
        "paper bound ≈ 360 km, got {bound}"
    );

    let far = FleetConfig {
        provers: vec![
            AdversaryProfile::Relay {
                distance: Km(bound.0 * 2.0),
                access: AccessKind::DataCentre,
            };
            8
        ],
        ..FleetConfig::mixed(0, 0, 0, 0, seed())
    };
    let far_outcome = run_fleet(&far);
    assert_eq!(
        far_outcome.accepted(),
        0,
        "720 km relays must all be caught"
    );

    // …while a 60 km relay on the best disk slips under Δt_max — the
    // paper's residual exposure, reproduced at fleet scale.
    let near = FleetConfig {
        provers: vec![
            AdversaryProfile::Relay {
                distance: Km(60.0),
                access: AccessKind::DataCentre,
            };
            8
        ],
        ..FleetConfig::mixed(0, 0, 0, 0, seed())
    };
    let near_outcome = run_fleet(&near);
    assert_eq!(
        near_outcome.accepted(),
        8,
        "sub-bound relays evade timing (paper §V-C(b) residual risk)"
    );
}

#[test]
fn forged_proof_responses_are_always_caught() {
    // Segment forgers keep perfect timing but fail every MAC: k = 8
    // challenged segments, all corrupted → rejection certain (the
    // detection probability 1 − (1 − ρ)^k with ρ = 1).
    let outcome = run_fleet(&FleetConfig::mixed(0, 0, 0, 12, seed()));
    assert_eq!(outcome.accepted(), 0);
    for (id, report) in &outcome.reports {
        assert!(
            report
                .violations
                .iter()
                .all(|v| matches!(v, geoproof::core::auditor::Violation::BadSegment { .. })),
            "{id}: forgery must fail on MACs alone, got {:?}",
            report.violations
        );
        assert_eq!(report.segments_ok, 0);
    }
}

#[test]
fn slow_provers_violate_timing_not_integrity() {
    let outcome = run_fleet(&FleetConfig::mixed(0, 6, 0, 0, seed()));
    assert_eq!(outcome.accepted(), 0);
    for (_, report) in &outcome.reports {
        assert!(report
            .violations
            .iter()
            .all(|v| matches!(v, geoproof::core::auditor::Violation::TooSlow { .. })));
        // Integrity intact: every challenged segment MAC-verified.
        assert_eq!(report.segments_ok, 8);
    }
}

#[test]
fn fleet_prover_ids_are_stable_and_sorted() {
    let outcome = run_fleet(&FleetConfig::mixed(3, 0, 0, 0, seed()));
    let ids: Vec<&ProverId> = outcome.reports.iter().map(|(id, _)| id).collect();
    assert_eq!(
        ids.iter().map(|p| p.0.as_str()).collect::<Vec<_>>(),
        vec!["prover-0000", "prover-0001", "prover-0002"]
    );
}
