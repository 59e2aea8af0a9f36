//! Schnorr signatures over edwards25519.
//!
//! The GeoProof verifier device holds a private key `SK` and signs the audit
//! transcript `R = (Δt*, c, {S_cj}, N, Pos_v)` before returning it to the
//! TPA (paper Fig. 5). We use the classic Schnorr scheme (the Ed25519
//! ancestor): given secret `a` with public `A = a·B`,
//!
//! ```text
//! sign(m):  k = H(a ‖ z ‖ m) mod ℓ,  R = k·B,
//!           e = H(enc(R) ‖ enc(A) ‖ m) mod ℓ,  s = k + e·a mod ℓ
//! verify:   s·B == R + e·A
//! ```
//!
//! with `z` fresh randomness hedging the derandomised nonce.
//!
//! # Which scalar multiplication runs where
//!
//! * `k·B` in [`SigningKey::sign`] and `a·B` in [`SigningKey::from_scalar`]:
//!   [`Point::mul_base`], constant time (64 mixed additions, 4 doublings,
//!   30 KiB static table), because `k` and `a` are secret.
//! * `s·B − e·A` in [`VerifyingKey::verify`]:
//!   [`Point::vartime_double_base_mul`], variable time (one ≈ 253-doubling
//!   chain, ≈ 70 additions, 7.5 KiB static table plus 8 odd multiples of
//!   `−A` per call). Safe because `s`, `e`, `A` and `R` are all public.
//! * [`VerifyingKey::verify_reference`]: two [`Point::mul`] ladders, the
//!   oracle the other two are pinned against.
//!
//! No path keeps per-key state. The secret scalar arithmetic of signing,
//! `s = k + e·a`, is branch-free too: [`Scalar::mul`] reduces with a fixed
//! number of folds and [`Scalar::add`] selects by mask. Key and signature
//! bytes are pinned by a known-answer digest over 200 seeds.
//!
//! # Examples
//!
//! ```
//! use geoproof_crypto::schnorr::SigningKey;
//! use geoproof_crypto::chacha::ChaChaRng;
//!
//! let mut rng = ChaChaRng::from_u64_seed(1);
//! let sk = SigningKey::generate(&mut rng);
//! let sig = sk.sign(b"audit transcript", &mut rng);
//! assert!(sk.verifying_key().verify(b"audit transcript", &sig));
//! assert!(!sk.verifying_key().verify(b"forged transcript", &sig));
//! ```

use crate::chacha::ChaChaRng;
use crate::ct::ct_eq;
use crate::ed25519::{multiscalar_mul, Point, Scalar};
use crate::sha256::Sha256;
use std::collections::HashMap;

/// A Schnorr signature: compressed nonce point `R` and response scalar `s`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// Compressed commitment point.
    pub r_bytes: [u8; 32],
    /// Response scalar, little-endian.
    pub s_bytes: [u8; 32],
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature(R=")?;
        for b in &self.r_bytes[..4] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…, s=")?;
        for b in &self.s_bytes[..4] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

impl Signature {
    /// Serialises to 64 bytes (`R ‖ s`).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r_bytes);
        out[32..].copy_from_slice(&self.s_bytes);
        out
    }

    /// Parses from 64 bytes. Always succeeds structurally; validity is
    /// decided by [`VerifyingKey::verify`].
    pub fn from_bytes(bytes: &[u8; 64]) -> Signature {
        let mut r_bytes = [0u8; 32];
        let mut s_bytes = [0u8; 32];
        r_bytes.copy_from_slice(&bytes[..32]);
        s_bytes.copy_from_slice(&bytes[32..]);
        Signature { r_bytes, s_bytes }
    }
}

/// A verification (public) key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct VerifyingKey {
    point: Point,
    encoded: [u8; 32],
}

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifyingKey(")?;
        for b in &self.encoded[..8] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

impl VerifyingKey {
    /// The 32-byte compressed encoding of the key.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.encoded
    }

    /// Parses and validates a compressed public key.
    ///
    /// Returns `None` for encodings that are not points on the curve.
    pub fn from_bytes(bytes: &[u8; 32]) -> Option<VerifyingKey> {
        let point = Point::decompress(bytes)?;
        Some(VerifyingKey {
            point,
            encoded: *bytes,
        })
    }

    /// Verifies `signature` over `message`. `s·B − e·A` is one
    /// variable-time double-base multiplication (every input is public);
    /// the accept/reject decision is pinned identical to
    /// [`VerifyingKey::verify_reference`] by a property test.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        let s = Scalar::from_bytes_mod_order(&signature.s_bytes);
        // Reject non-canonical s (must round-trip).
        if s.to_bytes_le() != signature.s_bytes {
            return false;
        }
        let e = challenge_scalar(&signature.r_bytes, &self.encoded, message);
        self.verify_challenge(&e, &s, &signature.r_bytes)
    }

    /// The group half of [`VerifyingKey::verify`], for a canonical `s`
    /// and its already computed challenge `e`: `R' = s·B − e·A` must
    /// equal `R`.
    fn verify_challenge(&self, e: &Scalar, s: &Scalar, r_bytes: &[u8; 32]) -> bool {
        let r_prime = Point::vartime_double_base_mul(e, &self.point.neg(), s);
        ct_eq(&r_prime.compress(), r_bytes)
    }

    /// The pre-table verification path: both scalar multiplications via
    /// the generic double-and-add ladder. Kept as the oracle the
    /// double-base [`VerifyingKey::verify`] is pinned against.
    pub fn verify_reference(&self, message: &[u8], signature: &Signature) -> bool {
        let s = Scalar::from_bytes_mod_order(&signature.s_bytes);
        if s.to_bytes_le() != signature.s_bytes {
            return false;
        }
        let e = challenge_scalar(&signature.r_bytes, &self.encoded, message);
        let r_prime = Point::base().mul(&s).add(&self.point.mul(&e).neg());
        ct_eq(&r_prime.compress(), &signature.r_bytes)
    }
}

/// One `(key, message, signature)` triple of a verification batch.
#[derive(Clone, Copy)]
pub struct BatchEntry<'a> {
    /// The claimed signer.
    pub key: VerifyingKey,
    /// The signed message bytes.
    pub message: &'a [u8],
    /// The signature to check.
    pub signature: Signature,
}

/// A pre-screened batch candidate: everything scalar-shaped hoisted out
/// of the (possibly repeated) batch equation checks.
struct Candidate {
    /// Index into the caller's entry slice.
    idx: usize,
    /// Response scalar (canonical by pre-screening).
    s: Scalar,
    /// Challenge `e = H(R ‖ A ‖ m)`.
    e: Scalar,
    /// 128-bit random-linear-combination coefficient.
    z: Scalar,
    /// Decompressed commitment point.
    r_point: Point,
}

/// One random-linear-combination check over a candidate subset:
/// `(Σ zᵢsᵢ)·B == Σ zᵢ·Rᵢ + Σ_keys (Σ_{i∈key} zᵢeᵢ)·A_key`, the
/// right-hand side as one shared Pippenger multi-scalar multiplication
/// and the left through [`Point::mul_base`].
fn batch_equation_holds(entries: &[BatchEntry<'_>], cands: &[&Candidate]) -> bool {
    let mut s_sum = Scalar::ZERO;
    let mut scalars = Vec::with_capacity(cands.len() + 4);
    let mut points = Vec::with_capacity(cands.len() + 4);
    let mut per_key: HashMap<[u8; 32], (Scalar, Point)> = HashMap::new();
    for c in cands {
        s_sum = s_sum.add(&c.z.mul(&c.s));
        scalars.push(c.z);
        points.push(c.r_point);
        let key = &entries[c.idx].key;
        let slot = per_key
            .entry(key.encoded)
            .or_insert((Scalar::ZERO, key.point));
        slot.0 = slot.0.add(&c.z.mul(&c.e));
    }
    for (e_sum, key_point) in per_key.into_values() {
        scalars.push(e_sum);
        points.push(key_point);
    }
    Point::mul_base(&s_sum) == multiscalar_mul(&scalars, &points)
}

/// Settles every candidate in `cands`: one batch equation when the whole
/// subset passes, bisection to isolate offenders otherwise. Size-1
/// subsets run the sequential [`VerifyingKey::verify`]'s own group check
/// on the candidate's challenge, so the per-entry verdict (and any
/// diagnostic built on it) is byte-identical to the sequential path.
fn settle(entries: &[BatchEntry<'_>], cands: &[&Candidate], results: &mut [bool]) {
    match cands {
        [] => {}
        [only] => {
            let entry = &entries[only.idx];
            results[only.idx] =
                entry
                    .key
                    .verify_challenge(&only.e, &only.s, &entry.signature.r_bytes);
        }
        _ if batch_equation_holds(entries, cands) => {
            for c in cands {
                results[c.idx] = true;
            }
        }
        _ => {
            let (left, right) = cands.split_at(cands.len() / 2);
            settle(entries, left, results);
            settle(entries, right, results);
        }
    }
}

/// Verifies a batch of signatures, returning one verdict per entry —
/// each **identical** to what `entry.key.verify(entry.message,
/// &entry.signature)` returns, at a fraction of the cost: shared-base
/// multi-scalar accumulation amortises the group operations, and a
/// random 128-bit linear combination (coefficients derived
/// Fiat–Shamir-style from the batch contents, so runs are reproducible)
/// makes a passing batch equation a 2⁻¹²⁸-sound proof that every
/// member verifies. A failing batch is bisected until each offender is
/// pinpointed by the sequential path itself.
///
/// Each message is hashed once. The challenge `eᵢ = H(Rᵢ ‖ Aᵢ ‖ mᵢ)` is
/// computed first, and the seed of the coefficients absorbs
/// `(Aᵢ, Rᵢ, sᵢ, |mᵢ|, eᵢ)` under the `geoproof-schnorr-batch-v2` tag
/// instead of the message itself (ed25519-dalek's batch transcript does
/// the same). Binding `eᵢ` binds `mᵢ`: `H` is collision resistant and
/// its input carries `Rᵢ` and `Aᵢ`, so two messages with the same
/// challenge for the same `(Rᵢ, Aᵢ)` are a hash collision. What the
/// batch equation checks is `eᵢ`, never `mᵢ`, so a seed over every
/// value the equation reads is as strong as one over the messages.
/// `|mᵢ|` is absorbed too, as the v1 seed did.
pub fn batch_verify_each(entries: &[BatchEntry<'_>]) -> Vec<bool> {
    let mut transcript = Sha256::new();
    transcript.update(b"geoproof-schnorr-batch-v2");
    transcript.update(&(entries.len() as u64).to_be_bytes());
    let challenges: Vec<Scalar> = entries
        .iter()
        .map(|entry| {
            let e = challenge_scalar(&entry.signature.r_bytes, &entry.key.encoded, entry.message);
            transcript.update(&entry.key.encoded);
            transcript.update(&entry.signature.r_bytes);
            transcript.update(&entry.signature.s_bytes);
            transcript.update(&(entry.message.len() as u64).to_be_bytes());
            transcript.update(&e.to_bytes_le());
            e
        })
        .collect();
    let seed = transcript.finalize();
    // Pre-screen: non-canonical s or an undecodable R can never equal a
    // compressed point from the verify equation — sequential verify
    // rejects them, so the batch does too, before any group arithmetic.
    let candidates: Vec<Candidate> = entries
        .iter()
        .zip(challenges)
        .enumerate()
        .filter_map(|(idx, (entry, e))| {
            let s = Scalar::from_bytes_mod_order(&entry.signature.s_bytes);
            if s.to_bytes_le() != entry.signature.s_bytes {
                return None;
            }
            let r_point = Point::decompress(&entry.signature.r_bytes)?;
            let mut zh = Sha256::new();
            zh.update(b"geoproof-schnorr-batch-z-v1");
            zh.update(&seed);
            zh.update(&(idx as u64).to_be_bytes());
            let mut z = Scalar::from_bytes_mod_order(&zh.finalize()[..16]);
            if z.is_zero() {
                z = Scalar::ONE; // keep the coefficient invertible
            }
            Some(Candidate {
                idx,
                s,
                e,
                z,
                r_point,
            })
        })
        .collect();
    let mut results = vec![false; entries.len()];
    let refs: Vec<&Candidate> = candidates.iter().collect();
    settle(entries, &refs, &mut results);
    results
}

/// A signing (private) key.
#[derive(Clone)]
pub struct SigningKey {
    secret: Scalar,
    public: VerifyingKey,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigningKey")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

fn challenge_scalar(r_enc: &[u8; 32], a_enc: &[u8; 32], message: &[u8]) -> Scalar {
    let mut h = Sha256::new();
    h.update(b"geoproof-schnorr-v1");
    h.update(r_enc);
    h.update(a_enc);
    h.update(message);
    Scalar::from_bytes_mod_order(&h.finalize())
}

impl SigningKey {
    /// Generates a fresh keypair from the given RNG.
    pub fn generate(rng: &mut ChaChaRng) -> SigningKey {
        loop {
            let mut seed = [0u8; 32];
            rng.fill_bytes(&mut seed);
            let secret = Scalar::from_bytes_mod_order(&seed);
            if secret.is_zero() {
                continue;
            }
            return SigningKey::from_scalar(secret);
        }
    }

    /// Builds a keypair from an existing secret scalar.
    pub fn from_scalar(secret: Scalar) -> SigningKey {
        let point = Point::mul_base(&secret);
        let encoded = point.compress();
        SigningKey {
            secret,
            public: VerifyingKey { point, encoded },
        }
    }

    /// Deterministic keypair from a 32-byte seed (reduced mod ℓ).
    ///
    /// # Panics
    ///
    /// Panics if the seed reduces to the zero scalar (probability ≈ 2^-252).
    pub fn from_seed(seed: &[u8; 32]) -> SigningKey {
        let secret = Scalar::from_bytes_mod_order(seed);
        assert!(!secret.is_zero(), "degenerate seed");
        SigningKey::from_scalar(secret)
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Signs `message`, hedging the nonce with randomness from `rng`.
    pub fn sign(&self, message: &[u8], rng: &mut ChaChaRng) -> Signature {
        let mut z = [0u8; 32];
        rng.fill_bytes(&mut z);
        let mut h = Sha256::new();
        h.update(b"geoproof-nonce-v1");
        h.update(&self.secret.to_bytes_le());
        h.update(&z);
        h.update(message);
        let mut k = Scalar::from_bytes_mod_order(&h.finalize());
        if k.is_zero() {
            k = Scalar::ONE; // unreachable in practice; keep k usable
        }
        let r_point = Point::mul_base(&k);
        let r_bytes = r_point.compress();
        let e = challenge_scalar(&r_bytes, &self.public.encoded, message);
        let s = k.add(&e.mul(&self.secret));
        Signature {
            r_bytes,
            s_bytes: s.to_bytes_le(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> ChaChaRng {
        ChaChaRng::from_u64_seed(seed)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut r = rng(1);
        let sk = SigningKey::generate(&mut r);
        let sig = sk.sign(b"hello", &mut r);
        assert!(sk.verifying_key().verify(b"hello", &sig));
    }

    #[test]
    fn rejects_wrong_message() {
        let mut r = rng(2);
        let sk = SigningKey::generate(&mut r);
        let sig = sk.sign(b"hello", &mut r);
        assert!(!sk.verifying_key().verify(b"hellp", &sig));
        assert!(!sk.verifying_key().verify(b"", &sig));
    }

    #[test]
    fn rejects_wrong_key() {
        let mut r = rng(3);
        let sk1 = SigningKey::generate(&mut r);
        let sk2 = SigningKey::generate(&mut r);
        let sig = sk1.sign(b"msg", &mut r);
        assert!(!sk2.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn rejects_tampered_signature() {
        let mut r = rng(4);
        let sk = SigningKey::generate(&mut r);
        let sig = sk.sign(b"msg", &mut r);
        for byte in 0..64 {
            let mut bytes = sig.to_bytes();
            bytes[byte] ^= 1;
            let bad = Signature::from_bytes(&bytes);
            assert!(
                !sk.verifying_key().verify(b"msg", &bad),
                "flip at byte {byte} accepted"
            );
        }
    }

    #[test]
    fn rejects_non_canonical_s() {
        let mut r = rng(5);
        let sk = SigningKey::generate(&mut r);
        let mut sig = sk.sign(b"msg", &mut r);
        // Add ℓ to s: same value mod ℓ but non-canonical encoding.
        use crate::ed25519::L_BYTES_LE;
        let mut carry = 0u16;
        for (byte, l) in sig.s_bytes.iter_mut().zip(L_BYTES_LE) {
            let v = *byte as u16 + l as u16 + carry;
            *byte = v as u8;
            carry = v >> 8;
        }
        assert!(!sk.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn public_key_roundtrip() {
        let mut r = rng(6);
        let sk = SigningKey::generate(&mut r);
        let pk = sk.verifying_key();
        let parsed = VerifyingKey::from_bytes(&pk.to_bytes()).expect("valid");
        let sig = sk.sign(b"m", &mut r);
        assert!(parsed.verify(b"m", &sig));
    }

    #[test]
    fn signature_serialisation_roundtrip() {
        let mut r = rng(7);
        let sk = SigningKey::generate(&mut r);
        let sig = sk.sign(b"m", &mut r);
        assert_eq!(Signature::from_bytes(&sig.to_bytes()), sig);
    }

    #[test]
    fn deterministic_from_seed() {
        let a = SigningKey::from_seed(&[42u8; 32]);
        let b = SigningKey::from_seed(&[42u8; 32]);
        assert_eq!(a.verifying_key(), b.verifying_key());
    }

    #[test]
    fn batch_empty_and_single() {
        assert_eq!(batch_verify_each(&[]), Vec::<bool>::new());
        let mut r = rng(9);
        let sk = SigningKey::generate(&mut r);
        let sig = sk.sign(b"solo", &mut r);
        let good = BatchEntry {
            key: sk.verifying_key(),
            message: b"solo",
            signature: sig,
        };
        assert_eq!(batch_verify_each(&[good]), vec![true]);
        let mut bad = good;
        bad.signature.r_bytes[0] ^= 1;
        assert_eq!(batch_verify_each(&[bad]), vec![false]);
    }

    #[test]
    fn batch_all_valid_many_keys() {
        let mut r = rng(10);
        let keys: Vec<SigningKey> = (0..5).map(|_| SigningKey::generate(&mut r)).collect();
        let messages: Vec<Vec<u8>> = (0..40).map(|i| vec![i as u8; 9]).collect();
        let sigs: Vec<Signature> = messages
            .iter()
            .enumerate()
            .map(|(i, m)| keys[i % 5].sign(m, &mut r))
            .collect();
        let entries: Vec<BatchEntry> = (0..40)
            .map(|i| BatchEntry {
                key: keys[i % 5].verifying_key(),
                message: &messages[i],
                signature: sigs[i],
            })
            .collect();
        assert_eq!(batch_verify_each(&entries), vec![true; 40]);
    }

    #[test]
    fn batch_bisection_pinpoints_the_one_forgery() {
        let mut r = rng(11);
        let sk = SigningKey::generate(&mut r);
        let messages: Vec<Vec<u8>> = (0..17).map(|i| vec![i as u8, 0xaa]).collect();
        for forged_at in [0usize, 7, 16] {
            let entries: Vec<BatchEntry> = messages
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let mut sig = sk.sign(m, &mut r);
                    if i == forged_at {
                        sig.s_bytes[1] ^= 0x10;
                    }
                    BatchEntry {
                        key: sk.verifying_key(),
                        message: m,
                        signature: sig,
                    }
                })
                .collect();
            let verdicts = batch_verify_each(&entries);
            for (i, &ok) in verdicts.iter().enumerate() {
                assert_eq!(ok, i != forged_at, "forged_at {forged_at}, entry {i}");
            }
        }
    }

    #[test]
    fn batch_rejects_structurally_bad_entries() {
        let mut r = rng(12);
        let sk = SigningKey::generate(&mut r);
        let ok_sig = sk.sign(b"fine", &mut r);
        // Non-canonical s (s + ℓ).
        let mut noncanon = sk.sign(b"nc", &mut r);
        use crate::ed25519::L_BYTES_LE;
        let mut carry = 0u16;
        for (byte, l) in noncanon.s_bytes.iter_mut().zip(L_BYTES_LE) {
            let v = *byte as u16 + l as u16 + carry;
            *byte = v as u8;
            carry = v >> 8;
        }
        // R that decodes to no curve point.
        let mut bad_r = sk.sign(b"badr", &mut r);
        bad_r.r_bytes = [0xff; 32];
        let entries = [
            BatchEntry {
                key: sk.verifying_key(),
                message: b"fine",
                signature: ok_sig,
            },
            BatchEntry {
                key: sk.verifying_key(),
                message: b"nc",
                signature: noncanon,
            },
            BatchEntry {
                key: sk.verifying_key(),
                message: b"badr",
                signature: bad_r,
            },
        ];
        let verdicts = batch_verify_each(&entries);
        assert_eq!(verdicts, vec![true, false, false]);
        for (v, entry) in verdicts.iter().zip(&entries) {
            assert_eq!(*v, entry.key.verify(entry.message, &entry.signature));
        }
    }

    /// Known-answer pin over keys and signatures for 200 seeds, captured
    /// on the double-and-add implementation: any field, point or scalar
    /// bug in a faster path changes the digest even where a differential
    /// test sharing the same `Fe` would not notice.
    #[test]
    fn keys_and_signatures_match_known_answer() {
        let mut h = Sha256::new();
        for seed in 0..200u64 {
            let mut r = rng(seed);
            let sk = SigningKey::generate(&mut r);
            h.update(&sk.verifying_key().to_bytes());
            let message = vec![seed as u8; (seed % 97) as usize];
            h.update(&sk.sign(&message, &mut r).to_bytes());
        }
        let hex: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "2fcfd7d82ac5cefb9ce5c6956abce36b52d1ed6721a1883ea688b0936127a9f9"
        );
    }

    #[test]
    fn signatures_are_randomised_but_both_valid() {
        let mut r = rng(8);
        let sk = SigningKey::generate(&mut r);
        let s1 = sk.sign(b"m", &mut r);
        let s2 = sk.sign(b"m", &mut r);
        assert_ne!(s1, s2, "hedged nonce should differ");
        assert!(sk.verifying_key().verify(b"m", &s1));
        assert!(sk.verifying_key().verify(b"m", &s2));
    }
}
