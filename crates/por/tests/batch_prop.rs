//! Property test pinning the batch layer's core claim: batched
//! segment-MAC verification is **equivalent** to sequential verification
//! for arbitrary session mixes — same verdicts, any interleaving, any mix
//! of honest and corrupted responses.

use geoproof_por::batch::SegmentBatchVerifier;
use geoproof_por::encode::PorEncoder;
use geoproof_por::keys::PorKeys;
use geoproof_por::params::PorParams;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An arbitrary "session mix": several sessions, each challenging an
    /// arbitrary subset of segments, with an arbitrary corruption pattern
    /// — one shared batch verifier must agree with per-call sequential
    /// verification on every single check, in order.
    #[test]
    fn batched_segment_verdicts_equal_sequential(
        seed in any::<u64>(),
        sessions in 1usize..5,
        k in 1usize..9,
        corrupt_mask in any::<u32>(),
    ) {
        let encoder = PorEncoder::new(PorParams::test_small());
        let keys = PorKeys::derive(&seed.to_le_bytes(), "mix");
        let data: Vec<u8> = (0..3000).map(|i| (i as u64 ^ seed) as u8).collect();
        let tagged = encoder.encode(&data, &keys, "mix");
        let n = tagged.metadata.segments;

        // Build the interleaved check stream across all sessions, with
        // per-check corruption decided by the mask bits.
        let mut checks: Vec<(u64, Vec<u8>)> = Vec::new();
        for s in 0..sessions {
            for j in 0..k {
                let slot = s * k + j;
                let index = ((seed >> (slot % 23)) ^ slot as u64) % n;
                let mut segment = tagged.segments[index as usize].clone();
                match (corrupt_mask >> (slot % 32)) & 0b11 {
                    1 => segment[0] ^= 0xff,          // corrupted body
                    2 => { segment.pop(); }            // truncated
                    _ => {}                            // honest
                }
                checks.push((index, segment));
            }
        }

        let mut batch = SegmentBatchVerifier::new(&encoder, keys.mac_key(), "mix");
        for (index, segment) in &checks {
            let batched = batch.verify_one(*index, segment);
            let sequential = encoder.verify_segment(keys.mac_key(), "mix", *index, segment);
            prop_assert_eq!(batched, sequential, "index {}", index);
        }
    }
}
