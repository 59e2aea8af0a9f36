//! Property-based tests for the POR: encode/extract identity, tag
//! soundness, Merkle/dynamic invariants, analysis monotonicity.

use geoproof_por::analysis::{binomial_tail, corruption_for_detection, detection_probability};
use geoproof_por::dynamic::{verify_challenge, DynamicStore};
use geoproof_por::encode::PorEncoder;
use geoproof_por::keys::PorKeys;
use geoproof_por::merkle::{verify_proof, MerkleTree};
use geoproof_por::params::{overhead_example, PorParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn encode_extract_identity_all_sizes(
        len in 1usize..2000,
        seed in any::<u64>(),
    ) {
        let encoder = PorEncoder::new(PorParams::test_small());
        let keys = PorKeys::derive(&seed.to_le_bytes(), "p");
        let data: Vec<u8> = (0..len).map(|i| (seed as usize + i) as u8).collect();
        let tagged = encoder.encode(&data, &keys, "p");
        prop_assert_eq!(
            encoder.extract(&tagged.segments, &keys, &tagged.metadata).unwrap(),
            data
        );
    }

    #[test]
    fn every_segment_tag_verifies_and_binds_index(
        seed in any::<u64>(),
    ) {
        let encoder = PorEncoder::new(PorParams::test_small());
        let keys = PorKeys::derive(&seed.to_le_bytes(), "q");
        let data = vec![seed as u8; 900];
        let tagged = encoder.encode(&data, &keys, "q");
        for (i, seg) in tagged.segments.iter().enumerate() {
            prop_assert!(encoder.verify_segment(keys.mac_key(), "q", i as u64, seg));
            let other = (i as u64 + 1) % tagged.metadata.segments;
            prop_assert!(!encoder.verify_segment(keys.mac_key(), "q", other, seg));
        }
    }

    #[test]
    fn merkle_proofs_sound_under_random_shape(
        n in 1usize..100,
        tamper in any::<u8>(),
    ) {
        let segs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 5]).collect();
        let tree = MerkleTree::build(&segs);
        for i in (0..n).step_by(1 + n / 7) {
            let proof = tree.prove(i as u64);
            prop_assert!(verify_proof(&tree.root(), &segs[i], &proof));
            if tamper != 0 {
                let mut bad = segs[i].clone();
                bad[0] ^= tamper;
                prop_assert!(!verify_proof(&tree.root(), &bad, &proof));
            }
        }
    }

    #[test]
    fn dynamic_store_update_cycle(
        n in 2usize..40,
        victim_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let keys = PorKeys::derive(&seed.to_le_bytes(), "d");
        let bodies: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 20]).collect();
        let (mut store, d0) = DynamicStore::initialise("d", &bodies, &keys);
        let victim = ((n - 1) as f64 * victim_frac) as u64;
        // Pre-update: verifies under d0.
        let r0 = store.challenge(victim).unwrap();
        prop_assert!(verify_challenge(&d0, "d", victim, &r0, &keys));
        // Post-update: verifies under d1, not under d0.
        let tagged = geoproof_por::dynamic::tag_segment(&keys, "d", victim, b"fresh");
        let d1 = store.apply_update(victim, tagged.into()).unwrap();
        let r1 = store.challenge(victim).unwrap();
        prop_assert!(verify_challenge(&d1, "d", victim, &r1, &keys));
        prop_assert!(!verify_challenge(&d0, "d", victim, &r1, &keys));
        prop_assert!(!verify_challenge(&d1, "d", victim, &r0, &keys));
    }

    #[test]
    fn detection_probability_monotone(
        eps1 in 0.0f64..0.5,
        eps2 in 0.0f64..0.5,
        k in 1u64..5000,
    ) {
        let (lo, hi) = if eps1 <= eps2 { (eps1, eps2) } else { (eps2, eps1) };
        prop_assert!(detection_probability(lo, k) <= detection_probability(hi, k) + 1e-12);
    }

    #[test]
    fn detection_inverse_roundtrips(target in 0.01f64..0.99, k in 1u64..5000) {
        let eps = corruption_for_detection(target, k);
        let back = detection_probability(eps, k);
        prop_assert!((back - target).abs() < 1e-9, "{target} -> {eps} -> {back}");
    }

    #[test]
    fn binomial_tail_bounds(n in 1u64..200, p in 0.0f64..1.0, t in 0u64..200) {
        let v = binomial_tail(n, p, t);
        prop_assert!((0.0..=1.0).contains(&v));
        if t > 0 {
            prop_assert!(v <= binomial_tail(n, p, t - 1) + 1e-12, "tail must shrink");
        }
    }

    #[test]
    fn overhead_example_internally_consistent(
        bytes in 1u64..10_000_000,
    ) {
        let p = PorParams::paper();
        let ex = overhead_example(&p, bytes);
        prop_assert!(ex.raw_blocks >= bytes.div_ceil(16));
        prop_assert_eq!(ex.encoded_blocks % p.rs_n as u64, 0);
        prop_assert_eq!(ex.segments, ex.encoded_blocks.div_ceil(p.segment_blocks as u64));
        prop_assert!(ex.stored_bytes > bytes, "stored must exceed original");
    }
}
