//! What the audit engine shares across sessions: one segment-MAC
//! verifier per file, and a session nonce derived without shared RNG
//! state.
//!
//! One TPA auditing one prover can afford to re-key the MAC per round.
//! An engine judging hundreds of transcripts shares the MAC
//! parameterisation and one message buffer across every check instead.
//! [`SegmentBatchVerifier::verify_one`] is *exactly equivalent* to
//! [`PorEncoder::verify_segment`] — `tests/batch_prop.rs` pins that for
//! arbitrary session mixes. Batching changes *cost*, never *verdicts*.

use crate::encode::{segment_message, PorEncoder};
use geoproof_crypto::chacha::ChaChaRng;
use geoproof_crypto::hmac::TruncatedMac;
use geoproof_crypto::sha256::Sha256;
use geoproof_ecc::block_code::BLOCK_BYTES;

/// Verifies many challenged segments of one file in a single pass.
///
/// Shares the [`TruncatedMac`] parameterisation and one growable message
/// buffer across all checks; per check it performs exactly the computation
/// of [`PorEncoder::verify_segment`].
#[derive(Debug)]
pub struct SegmentBatchVerifier<'a> {
    mac: TruncatedMac,
    mac_key: &'a [u8; 32],
    file_id: &'a str,
    segment_bytes: usize,
    body_bytes: usize,
    buf: Vec<u8>,
}

impl<'a> SegmentBatchVerifier<'a> {
    /// Creates a batch verifier for `file_id` under `encoder`'s parameters.
    pub fn new(encoder: &PorEncoder, mac_key: &'a [u8; 32], file_id: &'a str) -> Self {
        let p = encoder.params();
        SegmentBatchVerifier {
            mac: TruncatedMac::new(p.tag_bits),
            mac_key,
            file_id,
            segment_bytes: p.segment_bytes(),
            body_bytes: p.segment_blocks * BLOCK_BYTES,
            buf: Vec::with_capacity(p.segment_bytes() + 8 + file_id.len()),
        }
    }

    /// Verifies one challenged segment; equivalent to
    /// [`PorEncoder::verify_segment`] with the same arguments.
    pub fn verify_one(&mut self, index: u64, segment: &[u8]) -> bool {
        if segment.len() != self.segment_bytes {
            return false;
        }
        let (body, tag) = segment.split_at(self.body_bytes);
        self.buf.clear();
        self.buf.extend_from_slice(body);
        self.buf.extend_from_slice(&index.to_be_bytes());
        self.buf.extend_from_slice(self.file_id.as_bytes());
        debug_assert_eq!(self.buf, segment_message(body, index, self.file_id));
        self.mac.verify(self.mac_key, &self.buf, tag)
    }
}

/// The seed of a session's ChaCha stream.
fn session_seed(engine_seed: u64, session_key: &str) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"geoproof-plan-v1");
    h.update(&engine_seed.to_be_bytes());
    h.update(&(session_key.len() as u64).to_be_bytes());
    h.update(session_key.as_bytes());
    h.finalize()
}

/// Derives a session's audit nonce purely from `(engine seed, session
/// key)`: the first 32 bytes of a ChaCha stream seeded with
/// `SHA-256("geoproof-plan-v1" ‖ engine_seed ‖ len(session_key) ‖
/// session_key)`. No shared RNG state is involved, so nonces are
/// identical no matter how many sibling sessions exist or in which
/// order they are issued. The verifier devices draw the challenge
/// indices themselves, as the paper's protocol has the device do.
pub fn session_nonce(engine_seed: u64, session_key: &str) -> [u8; 32] {
    let mut rng = ChaChaRng::from_seed(session_seed(engine_seed, session_key));
    let mut nonce = [0u8; 32];
    rng.fill_bytes(&mut nonce);
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::PorKeys;
    use crate::params::PorParams;

    fn encoder() -> PorEncoder {
        PorEncoder::new(PorParams::test_small())
    }

    fn keys() -> PorKeys {
        PorKeys::derive(b"batch-master", "bf")
    }

    fn sample_data(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = ChaChaRng::from_u64_seed(seed);
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn segment_batch_matches_sequential() {
        let enc = encoder();
        let k = keys();
        let mut tagged = enc.encode(&sample_data(4000, 1), &k, "bf");
        tagged.segments[2][0] ^= 0xff; // one corrupted segment
        let mut batch = SegmentBatchVerifier::new(&enc, k.mac_key(), "bf");
        let got: Vec<bool> = (0..tagged.segments.len() as u64)
            .map(|i| batch.verify_one(i, &tagged.segments[i as usize]))
            .collect();
        let want: Vec<bool> = (0..tagged.segments.len() as u64)
            .map(|i| enc.verify_segment(k.mac_key(), "bf", i, &tagged.segments[i as usize]))
            .collect();
        assert_eq!(got, want);
        assert!(!got[2] && got[0]);
    }

    #[test]
    fn segment_batch_rejects_wrong_length() {
        let enc = encoder();
        let k = keys();
        let mut batch = SegmentBatchVerifier::new(&enc, k.mac_key(), "bf");
        assert!(!batch.verify_one(0, b"short"));
    }

    #[test]
    fn session_nonce_is_pinned() {
        // Known answers: the engine's nonce derivation may not drift. The
        // second key has the engine's `prover#epoch` shape under the
        // fleet tests' default seed.
        assert_eq!(
            hex(&session_nonce(9, "p-0")),
            "37089f31354273c0cd16f793599a48a07b15711137534555da584a6def748bbd"
        );
        assert_eq!(
            hex(&session_nonce(0x6765_6f21, "prover-017#3")),
            "8338541d0b2606a82a82aae1c8ea5edeaab77975dc218668393a3926dcdc43dc"
        );
    }

    #[test]
    fn session_nonces_differ_across_sessions_and_seeds() {
        let a = session_nonce(9, "p-0");
        assert_ne!(a, session_nonce(9, "p-1"));
        assert_ne!(a, session_nonce(10, "p-0"));
    }
}
