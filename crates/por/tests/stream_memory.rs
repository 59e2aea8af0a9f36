//! Peak-memory pins for the streaming encoder.
//!
//! The whole point of `geoproof_por::stream` is that encoding no longer
//! materialises O(file) intermediate state: beyond the destination arena
//! (which *is* the output), working memory is less than one Reed–Solomon
//! chunk of input plus per-job scratch. A counting global allocator
//! measures exactly that: peak live bytes during the encode, minus what
//! was live before, minus the arena itself, must stay under
//! `chunk + scratch + slack` — a bound that does not grow with the file —
//! for a 1 MiB input in CI, and for a 64 MiB input in the `--ignored`
//! (release-recommended) variant. The legacy batch pipeline peaked at
//! ~5× the file size; a regression to that shape fails these bounds by
//! orders of magnitude.
//!
//! The byte counters are process-global, so each measured span holds
//! [`MEASURE`]: a sibling test's arena must not land inside it. The same
//! allocator also counts allocation calls per thread, which pins that the
//! tag checks allocate nothing without serialising against other tests.

use geoproof_por::dynamic::{tag_segment, verify_tagged};
use geoproof_por::encode::PorEncoder;
use geoproof_por::keys::PorKeys;
use geoproof_por::params::PorParams;
use geoproof_por::stream::SegmentLayout;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Serialises the measured spans of concurrently running tests.
static MEASURE: Mutex<()> = Mutex::new(());

/// A `System` wrapper tracking live and peak allocation in bytes, and
/// the allocation calls of each thread.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_thread_alloc() {
    // `try_with`: a thread's allocations after its locals are torn down
    // go uncounted rather than panicking inside the allocator.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocation calls `f` makes on the calling thread.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = THREAD_ALLOCS.with(Cell::get);
    f();
    THREAD_ALLOCS.with(Cell::get) - before
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_thread_alloc();
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_thread_alloc();
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let live = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Encodes `total` pseudorandom bytes in 64 KiB pushes (the input is
/// generated chunkwise — it never exists in memory as a whole) and
/// returns `(arena_bytes, peak_extra_bytes)`: peak live allocation during
/// the encode beyond what was live before it started, minus the arena.
fn measure_streaming_encode(total: u64) -> (usize, usize) {
    measure_streaming_encode_threads(total, 1)
}

/// [`measure_streaming_encode`] on `threads` pool workers.
fn measure_streaming_encode_threads(total: u64, threads: usize) -> (usize, usize) {
    // Declared first, so released last: after the arena is freed.
    let _span = MEASURE.lock().unwrap_or_else(PoisonError::into_inner);
    let params = PorParams::test_small();
    let encoder = PorEncoder::new(params);
    let keys = PorKeys::derive(b"memory-pin", "mem");
    let mut chunk = vec![0u8; 64 * 1024];

    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);

    let mut stream = encoder.begin_encode_threads(&keys, "mem", total, threads);
    let mut fed = 0u64;
    let mut state = 0x1234_5678_9abc_def0u64;
    while fed < total {
        let n = chunk.len().min((total - fed) as usize);
        for b in chunk[..n].iter_mut() {
            // xorshift64 — cheap deterministic filler, no RNG allocs.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *b = state as u8;
        }
        stream.push(&chunk[..n]);
        fed += n as u64;
    }
    let arena = stream.finish();

    let peak = PEAK.load(Ordering::Relaxed);
    let arena_bytes = arena.total_bytes();
    assert_eq!(
        arena_bytes as u64,
        SegmentLayout::for_len(params, total).stored_bytes()
    );
    let peak_extra = peak - baseline - arena_bytes;
    (arena_bytes, peak_extra)
}

/// Extra-memory bound at `threads` workers: the partial-chunk input
/// buffer and encoded-chunk scratch; per-worker scratch when parallel (a
/// raw and an encoded chunk in flight, the worker thread's own
/// bookkeeping and the pool's queues, with margin); and slack for small
/// transients (keys, the tabulated PRP schedule — 8 KiB of `u16` at
/// 1 MiB, 64 KiB at 64 MiB, ≤ 1 MiB ever — the RS multiply and nibble
/// tables at 288 B per parity symbol, and the 64 KiB feed buffer's
/// accounting). No term grows with the file.
fn expected_bound(threads: usize) -> usize {
    let params = PorParams::test_small();
    let chunk_bytes = params.rs_k * 16;
    let chunk_working = 4 * chunk_bytes; // partial + chunk + encoded, with margin
    let worker_scratch = if threads > 1 { threads * 8 * 1024 } else { 0 };
    // 256 B multiply table + 32 B nibble table per parity symbol, plus
    // allocator bookkeeping for the two table vectors.
    let codec_tables = (params.rs_n - params.rs_k) * (256 + 32) + 512;
    chunk_working + worker_scratch + codec_tables + 256 * 1024
}

/// Every live, engine and keyed-replay tag bit comes from one of the two
/// tag checks, so neither may allocate: 1 000 calls of each, honest and
/// forged, make no allocation on the calling thread.
#[test]
fn tag_checks_allocate_nothing() {
    let encoder = PorEncoder::new(PorParams::test_small());
    let keys = PorKeys::derive(b"alloc-pin", "pin");
    let arena = encoder.encode_arena(&[7u8; 4096], &keys, "pin");
    let segment = arena.segment(3);
    let mut forged = segment.to_vec();
    forged[0] ^= 1;
    let tagged = tag_segment(&keys, "pin", 3, &[9u8; 64]);
    let mac_key = keys.mac_key();
    let mut accepted = 0;
    let allocations = allocations_during(|| {
        for _ in 0..500 {
            accepted += usize::from(encoder.verify_segment(mac_key, "pin", 3, &segment));
            accepted += usize::from(encoder.verify_segment(mac_key, "pin", 3, &forged));
        }
    });
    assert_eq!(allocations, 0, "verify_segment allocated");
    assert_eq!(accepted, 500, "only the honest segment verifies");
    let mut accepted = 0;
    let allocations = allocations_during(|| {
        for index in 0..1_000u64 {
            accepted += usize::from(verify_tagged(mac_key, "pin", index % 4, &tagged));
        }
    });
    assert_eq!(allocations, 0, "verify_tagged allocated");
    assert_eq!(accepted, 250, "only index 3 verifies");
}

#[test]
fn one_mib_streaming_encode_has_bounded_working_memory() {
    let total = 1 << 20;
    let (arena, extra) = measure_streaming_encode(total);
    let bound = expected_bound(1);
    assert!(
        extra <= bound,
        "working memory {extra} B exceeds bound {bound} B (arena {arena} B)"
    );
    // Sanity: the bound itself is a small fraction of the file.
    assert!(bound < (total as usize) / 2);
}

/// The acceptance-scale run: 64 MiB through the streaming encoder within
/// the same constant bound the 1 MiB run meets. Ignored by default — run
/// with `cargo test -p geoproof-por --release --test stream_memory --
/// --ignored`.
#[test]
#[ignore = "64 MiB encode: run in release"]
fn sixty_four_mib_streaming_encode_has_bounded_working_memory() {
    let total = 64 << 20;
    let (arena, extra) = measure_streaming_encode(total);
    let bound = expected_bound(1);
    assert!(
        extra <= bound,
        "working memory {extra} B exceeds bound {bound} B (arena {arena} B)"
    );
    // The old pipeline held ≥ 3 extra file-sized *copies*; the streaming
    // working set holds nothing per segment or per chunk of the file, so
    // even a buffer of 1/128 of the input is a regression.
    assert!(
        extra < (total as usize) / 128,
        "working memory {extra} B grows with the file"
    );
}

#[test]
fn one_mib_parallel_encode_stays_within_per_worker_bound() {
    let total = 1 << 20;
    for threads in [2usize, 4] {
        let (arena, extra) = measure_streaming_encode_threads(total, threads);
        let bound = expected_bound(threads);
        assert!(
            extra <= bound,
            "{threads}-worker working memory {extra} B exceeds bound {bound} B (arena {arena} B)"
        );
        // The parallel working set is still a small fraction of the file.
        assert!(bound < (total as usize) / 2);
    }
}

/// The 2-worker throughput pin: a 64 MiB paper-parameter encode on 2
/// workers must run ≥ 1.6× faster than on 1, best of three runs each in
/// alternating order, over input generated before the clock starts.
/// Skipped (loudly) on a single-core host, where the parallel path can
/// only tie at best. Ignored by default — run with `cargo test -p
/// geoproof-por --release --test stream_memory -- --ignored`.
#[test]
#[ignore = "64 MiB timed encode: run in release on a ≥2-core machine"]
fn sixty_four_mib_encode_speeds_up_1_6x_at_2_workers() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("skipping 1.6× scaling pin: only {cores} core available");
        return;
    }
    let _span = MEASURE.lock().unwrap_or_else(PoisonError::into_inner);
    let data: Vec<u8> = (0..64u64 << 20)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
        .collect();
    let encoder = PorEncoder::new(PorParams::paper());
    let keys = PorKeys::derive(b"scaling-pin", "scale");
    let time = |threads: usize| {
        let start = Instant::now();
        let arena = encoder.encode_arena_threads(&data, &keys, "scale", threads);
        assert!(arena.total_bytes() > data.len());
        start.elapsed()
    };
    // Warm once so page-cache/allocator effects hit both sides equally.
    let _ = time(1);
    let (mut sequential, mut parallel) = (Duration::MAX, Duration::MAX);
    for _ in 0..3 {
        sequential = sequential.min(time(1));
        parallel = parallel.min(time(2));
    }
    let speedup = sequential.as_secs_f64() / parallel.as_secs_f64();
    assert!(
        speedup >= 1.6,
        "2-worker speedup {speedup:.2}× < 1.6× (sequential {sequential:?}, parallel {parallel:?})"
    );
}

/// The acceptance-scale throughput pin: a 64 MiB encode at 4 workers
/// must run ≥ 4× faster than at 1 worker. Only meaningful on a machine
/// that *has* 4 cores — skipped (loudly) otherwise, since on a
/// single-core host the parallel path can only tie at best. Ignored by
/// default — run with
/// `cargo test -p geoproof-por --release --test stream_memory -- --ignored`.
#[test]
#[ignore = "64 MiB timed encode: run in release on a ≥4-core machine"]
fn sixty_four_mib_encode_speeds_up_4x_at_4_workers() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping 4× scaling pin: only {cores} core(s) available");
        return;
    }
    let total: u64 = 64 << 20;
    let time = |threads: usize| {
        let start = std::time::Instant::now();
        let (arena, _) = measure_streaming_encode_threads(total, threads);
        assert!(arena > 0);
        start.elapsed()
    };
    // Warm once so page-cache/allocator effects hit both runs equally.
    let _ = time(1);
    let sequential = time(1);
    let parallel = time(4);
    let speedup = sequential.as_secs_f64() / parallel.as_secs_f64();
    assert!(
        speedup >= 4.0,
        "4-worker speedup {speedup:.2}× < 4× (sequential {sequential:?}, parallel {parallel:?})"
    );
}
