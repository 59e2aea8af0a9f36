//! Property tests for the streaming segment data path: the streaming
//! encoder and the batch wrapper must agree bit for bit over arbitrary
//! file sizes (including the padding edge cases: 0 bytes, exactly one
//! block, non-block-aligned tails, exact chunk multiples) and arbitrary
//! push chunkings, and every encoding must extract back to the input.

use geoproof_por::encode::PorEncoder;
use geoproof_por::keys::PorKeys;
use geoproof_por::params::PorParams;
use geoproof_por::stream::{SegmentLayout, TaggedArena};
use proptest::prelude::*;

const BLOCK: usize = 16;
/// One RS chunk of test_small raw input: rs_k × 16 bytes.
const CHUNK: usize = 11 * BLOCK;

fn data_of(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            (seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64)
                >> 16) as u8
        })
        .collect()
}

/// Streams `data` into an arena in `chunk`-byte pushes.
fn stream_encode(
    encoder: &PorEncoder,
    keys: &PorKeys,
    fid: &str,
    data: &[u8],
    chunk: usize,
) -> TaggedArena {
    let mut stream = encoder.begin_encode(keys, fid, data.len() as u64);
    if chunk == 0 {
        stream.push(data);
    } else {
        for piece in data.chunks(chunk) {
            stream.push(piece);
        }
    }
    stream.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary sizes (biased toward the padding boundaries) and
    /// arbitrary push chunkings: streaming == batch, bit for bit.
    #[test]
    fn streaming_equals_batch_for_any_size_and_chunking(
        raw_len in 0usize..3000,
        boundary in 0usize..6,
        chunk in 1usize..600,
        seed in any::<u64>(),
    ) {
        // Mix uniform sizes with exact boundary cases: empty, one block,
        // one block ± 1, exactly one RS chunk, chunk ± 1.
        let len = match boundary {
            1 => 0,
            2 => BLOCK,
            3 => BLOCK + 1,
            4 => CHUNK,
            5 => CHUNK + 1,
            _ => raw_len,
        };
        let encoder = PorEncoder::new(PorParams::test_small());
        let keys = PorKeys::derive(&seed.to_le_bytes(), "sp");
        let data = data_of(len, seed);

        let batch = encoder.encode(&data, &keys, "sp");
        let arena = stream_encode(&encoder, &keys, "sp", &data, chunk);

        prop_assert_eq!(arena.metadata(), &batch.metadata);
        prop_assert_eq!(arena.segment_count() as usize, batch.segments.len());
        for (i, seg) in batch.segments.iter().enumerate() {
            prop_assert_eq!(arena.segment(i as u64), seg.clone(), "segment {}", i);
        }
    }

    /// encode → extract is the identity under the wrapper, the arena
    /// segments, and a mixed corruption-free view of both.
    #[test]
    fn roundtrip_under_wrapper_and_streaming(
        raw_len in 0usize..2500,
        boundary in 0usize..6,
        seed in any::<u64>(),
    ) {
        let len = match boundary {
            1 => 0,
            2 => BLOCK,
            3 => 17,
            4 => CHUNK,
            5 => 15 * BLOCK, // not a segment-aligned count of blocks
            _ => raw_len,
        };
        let encoder = PorEncoder::new(PorParams::test_small());
        let keys = PorKeys::derive(&seed.to_le_bytes(), "rt");
        let data = data_of(len, seed);

        // Wrapper path.
        let tagged = encoder.encode(&data, &keys, "rt");
        prop_assert_eq!(
            encoder.extract(&tagged.segments, &keys, &tagged.metadata).unwrap(),
            data.clone()
        );

        // Streaming path, extracted straight from zero-copy views.
        let arena = stream_encode(&encoder, &keys, "rt", &data, 97);
        let views = arena.segments();
        prop_assert_eq!(
            encoder.extract(&views, &keys, arena.metadata()).unwrap(),
            data
        );
    }

    /// The layout arithmetic agrees with what the encoder actually emits.
    #[test]
    fn layout_predicts_the_encode(len in 0usize..4000, seed in any::<u64>()) {
        let params = PorParams::test_small();
        let encoder = PorEncoder::new(params);
        let keys = PorKeys::derive(&seed.to_le_bytes(), "ly");
        let layout = SegmentLayout::for_len(params, len as u64);
        let tagged = encoder.encode(&data_of(len, seed), &keys, "ly");
        prop_assert_eq!(layout.raw_blocks(), tagged.metadata.raw_blocks);
        prop_assert_eq!(layout.encoded_blocks(), tagged.metadata.encoded_blocks);
        prop_assert_eq!(layout.segments(), tagged.metadata.segments);
        prop_assert_eq!(
            layout.stored_bytes() as usize,
            tagged.segments.iter().map(Vec::len).sum::<usize>()
        );
    }

    /// Streaming with corrupted storage still extracts (erasure path) —
    /// the arena views carry the same robustness as owned segments.
    #[test]
    fn streamed_arena_survives_bounded_corruption(seed in any::<u64>()) {
        let encoder = PorEncoder::new(PorParams::test_small());
        let keys = PorKeys::derive(&seed.to_le_bytes(), "cx");
        let data = data_of(4000, seed);
        let arena = stream_encode(&encoder, &keys, "cx", &data, 256);
        let mut segments: Vec<Vec<u8>> = arena.iter().map(|s| s.to_vec()).collect();
        // Corrupt two scattered segments — within RS(15, 11) erasure
        // capacity after PRP scatter for this size.
        segments[1][3] ^= 0xff;
        segments[7][20] ^= 0xff;
        prop_assert_eq!(
            encoder.extract(&segments, &keys, arena.metadata()).unwrap(),
            data
        );
    }
}
