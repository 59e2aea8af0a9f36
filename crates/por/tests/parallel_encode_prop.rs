//! The differential battery pinning the parallel encode data path to the
//! sequential one, byte for byte.
//!
//! The parallel encoder (see `geoproof_por::stream`) fans each push's
//! Reed–Solomon chunks out over the work-stealing pool and scatters
//! ciphertext blocks straight into the arena, then tags the segments in
//! a second dispatch; its entire correctness claim is that the output
//! arena is **bit-identical** to `threads = 1` for every input. These
//! tests hammer that claim across random file sizes (biased toward the
//! padding boundaries: empty, one block, ragged tails, exact chunk
//! multiples, many dispatch groups), random parameter sets, thread
//! counts {1, 2, 4, 7}, and randomized push chunkings.

use geoproof_por::encode::PorEncoder;
use geoproof_por::keys::PorKeys;
use geoproof_por::params::PorParams;
use geoproof_por::stream::TaggedArena;
use proptest::prelude::*;

const BLOCK: usize = 16;

/// Thread counts the battery exercises: sequential, the smallest
/// parallel count, a power of two, and an odd count that leaves ragged
/// chunk groups.
const THREADS: [usize; 4] = [1, 2, 4, 7];

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

/// A pool of valid parameter sets: the paper's, the test set, and small
/// odd shapes that stress ragged chunk groups and segment tails.
fn param_pool(pick: usize) -> PorParams {
    let p = match pick % 5 {
        0 => PorParams::test_small(),
        1 => PorParams {
            rs_n: 6,
            rs_k: 4,
            segment_blocks: 2,
            tag_bits: 16,
        },
        2 => PorParams {
            rs_n: 10,
            rs_k: 7,
            segment_blocks: 3,
            tag_bits: 24,
        },
        3 => PorParams {
            rs_n: 5,
            rs_k: 2,
            segment_blocks: 7,
            tag_bits: 12,
        },
        _ => PorParams::paper(),
    };
    p.validate();
    p
}

/// Streams `data` through a `threads`-worker encoder in `chunk`-byte
/// pushes (0 = one push) into an arena.
fn encode_threads(
    params: PorParams,
    keys: &PorKeys,
    fid: &str,
    data: &[u8],
    chunk: usize,
    threads: usize,
) -> TaggedArena {
    let encoder = PorEncoder::new(params);
    let mut stream = encoder.begin_encode_threads(keys, fid, data.len() as u64, threads);
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The core differential property: for random sizes, parameter sets
    /// and push chunkings, every thread count produces the same bytes as
    /// the sequential encoder.
    #[test]
    fn parallel_output_is_bit_identical_to_sequential(
        raw_len in 0usize..20_000,
        boundary in 0usize..8,
        pick in 0usize..4, // paper params are covered by the pinned test below
        chunk in 0usize..2048,
        seed in any::<u64>(),
    ) {
        let params = param_pool(pick);
        let chunk_bytes = params.rs_k * BLOCK;
        // Bias toward the boundaries that break scatter/padding logic:
        // empty input, one block, one block ± 1, an exact RS chunk, a
        // chunk ± 1, and 128 chunks plus a ragged tail.
        let len = match boundary {
            1 => 0,
            2 => BLOCK,
            3 => BLOCK + 1,
            4 => chunk_bytes,
            5 => chunk_bytes + 1,
            6 => chunk_bytes.saturating_sub(1),
            7 => 2 * 64 * chunk_bytes + 37,
            _ => raw_len,
        };
        let keys = PorKeys::derive(&seed.to_le_bytes(), "par");
        let data = data_of(len, seed);

        let sequential = encode_threads(params, &keys, "par", &data, chunk, 1);
        for threads in THREADS {
            let parallel = encode_threads(params, &keys, "par", &data, chunk, threads);
            prop_assert_eq!(parallel.metadata(), sequential.metadata(), "threads {}", threads);
            prop_assert_eq!(
                parallel.bytes(),
                sequential.bytes(),
                "threads {} diverged on {} bytes",
                threads,
                len
            );
        }
    }

    /// A parallel encode must still extract back to the input — including
    /// after bounded corruption, proving the tags the workers sealed are
    /// the real MACs, not just self-consistent bytes.
    #[test]
    fn parallel_encode_extracts_and_survives_corruption(
        raw_len in 1usize..12_000,
        pick in 0usize..4,
        threads_idx in 0usize..4,
        corrupt in 0usize..3,
        seed in any::<u64>(),
    ) {
        let params = param_pool(pick);
        let keys = PorKeys::derive(&seed.to_le_bytes(), "px");
        let data = data_of(raw_len, seed);
        let encoder = PorEncoder::new(params);

        let arena = encode_threads(params, &keys, "px", &data, 0, THREADS[threads_idx]);
        let mut segments: Vec<Vec<u8>> = arena.iter().map(|s| s.to_vec()).collect();
        // Flip a byte in up to `corrupt` distinct segments (well within
        // every pool entry's erasure capacity for these sizes).
        for c in 0..corrupt.min(segments.len()) {
            let victim = (seed as usize).wrapping_mul(c + 1) % segments.len();
            segments[victim][0] ^= 0x5a;
        }
        prop_assert_eq!(
            encoder.extract(&segments, &keys, arena.metadata()).unwrap(),
            data
        );
    }
}

/// The paper's (255, 223) geometry, pinned explicitly at every thread
/// count (the proptest above skips it to keep case runtime bounded).
#[test]
fn paper_params_bit_identical_across_thread_counts() {
    let params = PorParams::paper();
    let keys = PorKeys::derive(b"paper-parallel", "pp");
    let data = data_of(200_000, 41);
    let sequential = encode_threads(params, &keys, "pp", &data, 0, 1);
    for threads in THREADS {
        let parallel = encode_threads(params, &keys, "pp", &data, 4096, threads);
        assert_eq!(parallel.bytes(), sequential.bytes(), "threads {threads}");
        assert_eq!(parallel.metadata(), sequential.metadata());
    }
}

/// Push-boundary torture: the same input fed byte-by-byte, in one push,
/// and in pushes of 256 chunks ± 1 byte must all agree in parallel mode.
#[test]
fn push_chunking_cannot_change_parallel_output() {
    let params = PorParams {
        rs_n: 6,
        rs_k: 4,
        segment_blocks: 2,
        tag_bits: 16,
    };
    let chunk_bytes = params.rs_k * BLOCK;
    let many = 4 * 64 * chunk_bytes; // 256 chunks
    let keys = PorKeys::derive(b"push-boundaries", "pb");
    let data = data_of(many + many / 2 + 13, 97);
    let reference = encode_threads(params, &keys, "pb", &data, 0, 4);
    for push in [1, 3, chunk_bytes - 1, chunk_bytes, many - 1, many, many + 1] {
        let got = encode_threads(params, &keys, "pb", &data, push, 4);
        assert_eq!(
            got.bytes(),
            reference.bytes(),
            "push size {push} changed the output"
        );
    }
}

/// Mixed push schedules: a push that tops up a partial chunk, carries
/// whole chunks and leaves a ragged tail must encode exactly like one
/// push, at every worker count.
#[test]
fn pushes_that_top_up_carry_and_leave_a_tail_agree() {
    let params = PorParams::test_small();
    let chunk_bytes = params.rs_k * BLOCK;
    let keys = PorKeys::derive(b"mixed-pushes", "mp");
    let data = data_of(40 * chunk_bytes + 5, 23);
    let reference = encode_threads(params, &keys, "mp", &data, 0, 1);
    // Cut points: a partial first push, then pushes that each finish the
    // carried chunk, carry several whole ones and stop mid-chunk.
    let schedules: [&[usize]; 3] = [
        &[7, 3 * chunk_bytes + 11, 9 * chunk_bytes + 100],
        &[chunk_bytes - 1, chunk_bytes + 2, 20 * chunk_bytes - 3],
        &[1, 2, 17 * chunk_bytes + chunk_bytes / 2, 5],
    ];
    let encoder = PorEncoder::new(params);
    for cuts in schedules {
        for threads in THREADS {
            let mut stream = encoder.begin_encode_threads(&keys, "mp", data.len() as u64, threads);
            let mut at = 0;
            for &len in cuts {
                stream.push(&data[at..at + len]);
                at += len;
            }
            stream.push(&data[at..]);
            assert_eq!(
                stream.finish().bytes(),
                reference.bytes(),
                "pushes {cuts:?} at {threads} threads changed the output"
            );
        }
    }
}

/// The env-var override drives `default_encode_threads`, and an absurd
/// thread count is clamped rather than trusted.
#[test]
fn thread_count_is_clamped_and_env_driven() {
    let params = PorParams::test_small();
    let keys = PorKeys::derive(b"clamped", "cl");
    let data = data_of(9000, 5);
    let a = encode_threads(params, &keys, "cl", &data, 0, 1);
    let b = encode_threads(params, &keys, "cl", &data, 0, 100_000); // clamps to 256
    assert_eq!(a.bytes(), b.bytes());
}
