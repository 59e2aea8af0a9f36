//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1) and the truncated segment tags used
//! by the MAC-based POR variant of Juels–Kaliski that GeoProof employs.
//!
//! The paper (§V-A, step 5) computes `τ_i = MAC_{K'}(S_i, i, fid)` and notes
//! that because a challenge verifies many tags, the tag can be truncated to
//! as little as 20 bits. [`TruncatedMac`] captures that parameterisation.
//!
//! # Examples
//!
//! ```
//! use geoproof_crypto::hmac::HmacSha256;
//!
//! let tag = HmacSha256::mac(b"key", b"message");
//! assert!(HmacSha256::verify(b"key", b"message", &tag));
//! assert!(!HmacSha256::verify(b"key", b"tampered", &tag));
//! ```

use crate::ct::ct_eq;
use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Incremental HMAC-SHA-256.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates an HMAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let (inner, outer) = padded_key_states(key);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the full 32-byte tag.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        self.outer.update(&inner_digest);
        self.outer.finalize()
    }

    /// One-shot MAC of `message` under `key`.
    pub fn mac(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = HmacSha256::new(key);
        h.update(message);
        h.finalize()
    }

    /// Constant-time verification of a full-length tag.
    pub fn verify(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
        let expected = Self::mac(key, message);
        ct_eq(&expected, tag)
    }
}

/// The SHA-256 states after absorbing the XOR-padded key blocks — the
/// first compression of the inner and outer hashes, shared by every MAC
/// under the same key.
fn padded_key_states(key: &[u8]) -> (Sha256, Sha256) {
    let mut k_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let digest = Sha256::digest(key);
        k_block[..DIGEST_LEN].copy_from_slice(&digest);
    } else {
        k_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; BLOCK_LEN];
    let mut opad = [0x5cu8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] ^= k_block[i];
        opad[i] ^= k_block[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    let mut outer = Sha256::new();
    outer.update(&opad);
    (inner, outer)
}

/// A precomputed HMAC key schedule: the inner and outer SHA-256 states
/// with their padded key blocks already compressed.
///
/// [`HmacSha256::new`] spends two SHA-256 compressions absorbing the key
/// pads before it sees a byte of message — for a short message that is
/// half the total work. Callers that MAC many messages under one key
/// (the POR segment tagger, the Feistel PRP round function) build the
/// schedule once and [`HmacKeySchedule::start`] clones the midstates
/// instead, making a short-message HMAC cost two compressions, not four.
/// Output is identical to [`HmacSha256`] by construction.
#[derive(Clone)]
pub struct HmacKeySchedule {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacKeySchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacKeySchedule").finish_non_exhaustive()
    }
}

impl HmacKeySchedule {
    /// Precomputes the pad midstates for `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let (inner, outer) = padded_key_states(key);
        HmacKeySchedule { inner, outer }
    }

    /// Starts a MAC computation from the precomputed midstates.
    pub fn start(&self) -> HmacSha256 {
        HmacSha256 {
            inner: self.inner.clone(),
            outer: self.outer.clone(),
        }
    }

    /// One-shot MAC of `message` from the precomputed midstates.
    pub fn mac(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = self.start();
        h.update(message);
        h.finalize()
    }
}

/// A MAC truncated to `bits` bits, as the paper's 20-bit segment tags.
///
/// Truncation keeps the *high-order* bits of the HMAC output, padded into
/// whole bytes (a 20-bit tag occupies 3 bytes with the low 4 bits of the
/// final byte zeroed). The paper argues short tags suffice because an audit
/// verifies many tags, so a forger must win every round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TruncatedMac {
    bits: u32,
}

impl TruncatedMac {
    /// Creates a truncated-MAC description.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or exceeds 256.
    pub fn new(bits: u32) -> Self {
        assert!(
            (1..=256).contains(&bits),
            "tag width must be in 1..=256 bits"
        );
        TruncatedMac { bits }
    }

    /// Tag width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of bytes needed to carry the tag.
    pub fn byte_len(&self) -> usize {
        self.bits.div_ceil(8) as usize
    }

    /// Computes the truncated tag of `message` under `key`.
    pub fn mac(&self, key: &[u8], message: &[u8]) -> Vec<u8> {
        let mut out = vec![0; self.byte_len()];
        self.truncate(&HmacSha256::mac(key, message), &mut out);
        out
    }

    /// Writes a full 32-byte tag, truncated to this width, into `out`
    /// (exactly [`TruncatedMac::byte_len`] bytes).
    pub fn truncate(&self, full: &[u8; DIGEST_LEN], out: &mut [u8]) {
        out.copy_from_slice(&full[..self.byte_len()]);
        if let Some(last) = out.last_mut() {
            *last &= self.last_byte_mask();
        }
    }

    /// Constant-time check that `tag` is `full` truncated to this width,
    /// comparing in place (no allocation).
    pub fn matches(&self, full: &[u8; DIGEST_LEN], tag: &[u8]) -> bool {
        let n = self.byte_len();
        if tag.len() != n {
            return false;
        }
        let mut diff = (full[n - 1] & self.last_byte_mask()) ^ tag[n - 1];
        for (x, y) in full[..n - 1].iter().zip(tag) {
            diff |= x ^ y;
        }
        diff == 0
    }

    /// Constant-time verification of a truncated tag.
    pub fn verify(&self, key: &[u8], message: &[u8], tag: &[u8]) -> bool {
        self.matches(&HmacSha256::mac(key, message), tag)
    }

    /// The mask that keeps the tag's bits of its last byte.
    fn last_byte_mask(&self) -> u8 {
        match self.bits % 8 {
            0 => 0xff,
            rem => 0xffu8 << (8 - rem),
        }
    }

    /// Probability that a single random guess passes verification: `2^-bits`.
    pub fn forgery_probability(&self) -> f64 {
        (-(self.bits as f64) * std::f64::consts::LN_2).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = HmacSha256::mac(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let tag = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = HmacSha256::mac(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let tag = HmacSha256::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = HmacSha256::new(b"k");
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finalize(), HmacSha256::mac(b"k", b"hello world"));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let tag = HmacSha256::mac(b"key-a", b"msg");
        assert!(!HmacSha256::verify(b"key-b", b"msg", &tag));
    }

    #[test]
    fn truncated_20_bit_tag() {
        let t = TruncatedMac::new(20);
        assert_eq!(t.byte_len(), 3);
        let tag = t.mac(b"key", b"segment-data");
        assert_eq!(tag.len(), 3);
        assert_eq!(tag[2] & 0x0f, 0, "low 4 bits must be masked off");
        assert!(t.verify(b"key", b"segment-data", &tag));
        assert!(!t.verify(b"key", b"segment-datb", &tag));
    }

    #[test]
    fn truncated_tag_is_prefix_of_full() {
        let t = TruncatedMac::new(24);
        let full = HmacSha256::mac(b"key", b"data");
        assert_eq!(t.mac(b"key", b"data"), full[..3].to_vec());
    }

    #[test]
    fn forgery_probability_matches_width() {
        let t = TruncatedMac::new(20);
        let p = t.forgery_probability();
        assert!((p - 2f64.powi(-20)).abs() < 1e-12);
    }

    #[test]
    fn matches_agrees_with_comparing_truncated_tags() {
        let full = HmacSha256::mac(b"key", b"data");
        for bits in [1, 7, 8, 20, 24, 32, 255, 256] {
            let t = TruncatedMac::new(bits);
            let tag = t.mac(b"key", b"data");
            assert!(t.matches(&full, &tag), "{bits} bits");
            // Any flipped byte fails, including a masked-off low bit.
            for i in 0..tag.len() {
                let mut bad = tag.clone();
                bad[i] ^= 1;
                assert!(!t.matches(&full, &bad), "{bits} bits, byte {i}");
            }
            assert!(!t.matches(&full, &tag[1..]), "{bits} bits, short tag");
        }
    }

    #[test]
    fn verify_rejects_wrong_length() {
        let t = TruncatedMac::new(20);
        let tag = t.mac(b"key", b"data");
        assert!(!t.verify(b"key", b"data", &tag[..2]));
    }

    #[test]
    #[should_panic(expected = "tag width")]
    fn zero_width_panics() {
        TruncatedMac::new(0);
    }

    #[test]
    fn key_schedule_matches_direct_hmac() {
        // Every key-length regime: short, exactly one block, hashed-down.
        for key in [&b"k"[..], &[0xabu8; BLOCK_LEN][..], &[0xcdu8; 131][..]] {
            let sched = HmacKeySchedule::new(key);
            for msg in [&b""[..], &b"hello"[..], &[0x55u8; 200][..]] {
                assert_eq!(sched.mac(msg), HmacSha256::mac(key, msg));
            }
        }
    }

    #[test]
    fn key_schedule_incremental_matches_oneshot() {
        let sched = HmacKeySchedule::new(b"segment-key");
        let mut h = sched.start();
        h.update(b"body ");
        h.update(b"index fid");
        assert_eq!(
            h.finalize(),
            HmacSha256::mac(b"segment-key", b"body index fid")
        );
    }

    #[test]
    fn key_schedule_is_reusable() {
        let sched = HmacKeySchedule::new(b"k");
        let a = sched.mac(b"one");
        let b = sched.mac(b"two");
        assert_eq!(a, HmacSha256::mac(b"k", b"one"));
        assert_eq!(b, HmacSha256::mac(b"k", b"two"));
        assert_ne!(a, b);
    }
}
