//! Property-based tests for the crypto substrate: algebraic axioms of the
//! field/scalar arithmetic, PRP bijectivity, cipher involutions,
//! signature soundness under random tampering, and the table-driven
//! scalar multiplications pinned to the double-and-add ladder.

use geoproof_crypto::aes::{Aes128, Aes128Ctr};
use geoproof_crypto::chacha::ChaChaRng;
use geoproof_crypto::ed25519::{Point, Scalar};
use geoproof_crypto::fe25519::Fe;
use geoproof_crypto::hmac::HmacSha256;
use geoproof_crypto::kdf::Hkdf;
use geoproof_crypto::prp::DomainPrp;
use geoproof_crypto::schnorr::{batch_verify_each, BatchEntry, Signature, SigningKey};
use geoproof_crypto::sha256::Sha256;
use proptest::prelude::*;

fn fe(bytes: [u8; 32]) -> Fe {
    Fe::from_bytes(&bytes)
}

proptest! {
    // --- Field mod 2^255-19 axioms ---------------------------------------

    #[test]
    fn fe_addition_commutes(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        prop_assert_eq!(fe(a).add(&fe(b)), fe(b).add(&fe(a)));
    }

    #[test]
    fn fe_multiplication_commutes_and_associates(
        a in any::<[u8; 32]>(), b in any::<[u8; 32]>(), c in any::<[u8; 32]>()
    ) {
        let (a, b, c) = (fe(a), fe(b), fe(c));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn fe_distributive(a in any::<[u8; 32]>(), b in any::<[u8; 32]>(), c in any::<[u8; 32]>()) {
        let (a, b, c) = (fe(a), fe(b), fe(c));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn fe_inverse_is_inverse(a in any::<[u8; 32]>()) {
        let a = fe(a);
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a.mul(&a.invert()), Fe::ONE);
    }

    #[test]
    fn fe_sub_then_add_roundtrips(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let (a, b) = (fe(a), fe(b));
        prop_assert_eq!(a.sub(&b).add(&b), a);
    }

    #[test]
    fn fe_serialisation_is_canonical(a in any::<[u8; 32]>()) {
        let x = fe(a);
        prop_assert_eq!(Fe::from_bytes(&x.to_bytes()), x);
    }

    // --- Scalar ring mod ℓ -------------------------------------------------

    #[test]
    fn scalar_ring_axioms(a in any::<[u8; 32]>(), b in any::<[u8; 32]>(), c in any::<[u8; 32]>()) {
        let a = Scalar::from_bytes_mod_order(&a);
        let b = Scalar::from_bytes_mod_order(&b);
        let c = Scalar::from_bytes_mod_order(&c);
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        prop_assert_eq!(a.sub(&b).add(&b), a);
    }

    #[test]
    fn scalar_mul_distributes_over_group(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let sa = Scalar::from_u64(a);
        let sb = Scalar::from_u64(b);
        let base = Point::base();
        prop_assert_eq!(
            base.mul(&sa).add(&base.mul(&sb)),
            base.mul(&sa.add(&sb))
        );
    }

    // --- Hash/MAC/KDF ---------------------------------------------------------

    #[test]
    fn sha_incremental_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..2000),
        split in 0usize..2000,
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn hmac_is_deterministic_and_key_sensitive(
        key in prop::collection::vec(any::<u8>(), 1..80),
        msg in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let t1 = HmacSha256::mac(&key, &msg);
        let t2 = HmacSha256::mac(&key, &msg);
        prop_assert_eq!(t1, t2);
        let mut key2 = key.clone();
        key2[0] ^= 1;
        prop_assert_ne!(HmacSha256::mac(&key2, &msg), t1);
    }

    #[test]
    fn hkdf_outputs_differ_by_info(
        ikm in prop::collection::vec(any::<u8>(), 1..64),
        info_a in prop::collection::vec(any::<u8>(), 0..32),
        info_b in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        prop_assume!(info_a != info_b);
        let hk = Hkdf::extract(b"salt", &ikm);
        prop_assert_ne!(hk.expand(&info_a, 32), hk.expand(&info_b, 32));
    }

    // --- Ciphers ---------------------------------------------------------------

    #[test]
    fn aes_decrypt_inverts_encrypt(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
        let c = Aes128::new(&key);
        prop_assert_eq!(c.decrypt_block(&c.encrypt_block(&block)), block);
    }

    #[test]
    fn ctr_random_access_consistent(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 8]>(),
        data in prop::collection::vec(any::<u8>(), 48..400),
    ) {
        // Decrypting a 16-byte-aligned suffix independently must agree
        // with the full-stream decryption.
        let ctr = Aes128Ctr::new(&key, nonce);
        let mut full = data.clone();
        ctr.apply_keystream(&mut full);
        let start_block = 2usize;
        let mut suffix = full[start_block * 16..].to_vec();
        ctr.apply_keystream_at(&mut suffix, start_block as u64);
        prop_assert_eq!(&suffix[..], &data[start_block * 16..]);
    }

    // --- PRP --------------------------------------------------------------------

    #[test]
    fn prp_bijective_on_small_domains(key in any::<[u8; 32]>(), n in 1u64..600) {
        let prp = DomainPrp::new(&key, n);
        let mut seen = vec![false; n as usize];
        for x in 0..n {
            let y = prp.permute(x);
            prop_assert!(y < n);
            prop_assert!(!seen[y as usize], "collision");
            seen[y as usize] = true;
        }
    }

    // --- Signatures -----------------------------------------------------------------

    #[test]
    fn tampered_signatures_rejected(
        seed in any::<u64>(),
        msg in prop::collection::vec(any::<u8>(), 1..100),
        flip_byte in 0usize..64,
        flip_bit in 0u8..8,
    ) {
        let mut rng = ChaChaRng::from_u64_seed(seed);
        let sk = SigningKey::generate(&mut rng);
        let sig = sk.sign(&msg, &mut rng);
        let mut bytes = sig.to_bytes();
        bytes[flip_byte] ^= 1 << flip_bit;
        let forged = Signature::from_bytes(&bytes);
        prop_assert!(!sk.verifying_key().verify(&msg, &forged));
    }

    #[test]
    fn rng_range_uniformity_smoke(seed in any::<u64>(), bound in 1u64..1000) {
        let mut rng = ChaChaRng::from_u64_seed(seed);
        for _ in 0..50 {
            prop_assert!(rng.gen_range(bound) < bound);
        }
    }

    // --- Table-accelerated verify pinned to the reference path ---------------

    #[test]
    fn table_verify_identical_to_reference(
        seed in any::<u64>(),
        msg in prop::collection::vec(any::<u8>(), 0..80),
        tamper_byte in 0usize..65, // 64 = leave the signature intact
        tamper_bit in 0u8..8,
    ) {
        let mut rng = ChaChaRng::from_u64_seed(seed);
        let sk = SigningKey::generate(&mut rng);
        let mut sig = sk.sign(&msg, &mut rng);
        if tamper_byte < 64 {
            let mut bytes = sig.to_bytes();
            bytes[tamper_byte] ^= 1 << tamper_bit;
            sig = Signature::from_bytes(&bytes);
        }
        let vk = sk.verifying_key();
        // Valid, forged, or structurally mangled — the double-base fast
        // path must agree with the double-and-add reference bit for bit.
        prop_assert_eq!(vk.verify(&msg, &sig), vk.verify_reference(&msg, &sig));
    }

    // --- Batch verification ≡ sequential --------------------------------------

    #[test]
    fn batch_verdicts_identical_to_sequential(
        seed in any::<u64>(),
        n in 0usize..12,
        forged in prop::collection::vec(any::<bool>(), 12),
        cross in prop::collection::vec(any::<bool>(), 12),
        tampered in prop::collection::vec(any::<bool>(), 12),
        len_bits in prop::collection::vec(0u32..=12, 12),
        len_low in prop::collection::vec(any::<u16>(), 12),
    ) {
        let mut rng = ChaChaRng::from_u64_seed(seed);
        // A couple of shared keys so per-key aggregation sees reuse.
        let keys = [SigningKey::generate(&mut rng), SigningKey::generate(&mut rng)];
        // Lengths 0..=4096 bytes, spread evenly over the powers of two.
        let mut messages: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let mut m = vec![0u8; len_low[i] as usize % ((1usize << len_bits[i]) + 1)];
                rng.fill_bytes(&mut m);
                m
            })
            .collect();
        let mut signatures = Vec::new();
        for i in 0..n {
            let mut sig = keys[i % 2].sign(&messages[i], &mut rng);
            if forged[i] {
                sig.s_bytes[3] ^= 0x40;
            }
            signatures.push(sig);
            // Change the message after signing and keep the signature:
            // the batch seed sees the message only through eᵢ and |mᵢ|.
            if tampered[i] {
                match messages[i].len() {
                    0 => messages[i].push(0),
                    len => messages[i][seed as usize % len] ^= 0x01,
                }
            }
        }
        let mut entries = Vec::new();
        for i in 0..n {
            // Attribute some signatures to the wrong key.
            let sk = &keys[(i + usize::from(cross[i])) % 2];
            entries.push(BatchEntry {
                key: sk.verifying_key(),
                message: &messages[i],
                signature: signatures[i],
            });
        }
        let batch = batch_verify_each(&entries);
        for (i, entry) in entries.iter().enumerate() {
            prop_assert_eq!(
                batch[i],
                entry.key.verify(entry.message, &entry.signature),
                "entry {}", i
            );
        }
    }
}

// --- Table-driven scalar multiplication ≡ the double-and-add ladder ------

fn scalar(bytes: &[u8]) -> Scalar {
    Scalar::from_bytes_mod_order(bytes)
}

/// Scalars where a radix-16 recoding or NAF is most likely to slip: 0, 1,
/// ℓ−1 (every window busy), 2^252 (one high bit), 2^252 − 1 (every low
/// nibble 15) and all-nibbles-8 below 2^252 (each digit recodes to −8 or
/// −7 and carries into the next).
fn edge_scalars() -> Vec<Scalar> {
    let mut two_252 = [0u8; 32];
    two_252[31] = 0x10;
    let mut below_252 = [0xffu8; 32];
    below_252[31] = 0x0f;
    let mut eights = [0x88u8; 32];
    eights[31] = 0x08;
    vec![
        Scalar::ZERO,
        Scalar::ONE,
        Scalar::ZERO.sub(&Scalar::ONE),
        scalar(&two_252),
        scalar(&below_252),
        scalar(&eights),
    ]
}

#[test]
fn mul_base_matches_ladder_on_edge_scalars() {
    for s in edge_scalars() {
        assert_eq!(Point::mul_base(&s), Point::base().mul(&s), "{s:?}");
    }
    assert!(Point::mul_base(&Scalar::ZERO).is_identity());
}

#[test]
fn double_base_matches_two_ladders_on_edge_scalars() {
    let p = Point::base().mul(&scalar(b"an arbitrary public key point"));
    for a in edge_scalars() {
        for b in edge_scalars() {
            let expect = p.mul(&a).add(&Point::base().mul(&b));
            assert_eq!(
                Point::vartime_double_base_mul(&a, &p, &b),
                expect,
                "a = {a:?}, b = {b:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mul_base_matches_ladder(bytes in any::<[u8; 32]>()) {
        let s = scalar(&bytes);
        prop_assert_eq!(Point::mul_base(&s), Point::base().mul(&s));
    }

    #[test]
    fn double_base_matches_sum_of_two_ladders(
        a in any::<[u8; 32]>(),
        b in any::<[u8; 32]>(),
        c in any::<[u8; 32]>(),
    ) {
        let (a, b) = (scalar(&a), scalar(&b));
        let p = Point::base().mul(&scalar(&c));
        prop_assert_eq!(
            Point::vartime_double_base_mul(&a, &p, &b),
            p.mul(&a).add(&Point::base().mul(&b))
        );
    }
}
