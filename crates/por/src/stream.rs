//! Streaming five-step setup: bounded-memory encoding into a
//! [`SegmentSink`], sequentially or fanned out across a worker pool.
//!
//! [`crate::encode::PorEncoder::encode`] used to materialise five full
//! copies of the file (raw blocks, RS-expanded blocks, the flat
//! ciphertext, the permuted blocks, and the per-segment `Vec`s). This
//! module restructures the same pipeline around a push API:
//!
//! * input is fed in arbitrary-sized chunks and buffered only up to one
//!   *wave* of Reed–Solomon chunks (one chunk when single-threaded,
//!   [`WAVE_CHUNKS_PER_WORKER`] chunks per worker when parallel);
//! * each chunk is RS-encoded, encrypted with one CTR call (counter =
//!   global block index), and its block indices are permuted with one
//!   batched PRP call; every ciphertext block is then written straight
//!   into its *final* permuted position inside the destination
//!   [`SegmentSink`] — no intermediate file-sized buffer exists;
//! * a segment is MAC-tagged the moment its last block lands (the PRP
//!   scatters blocks, so completion order is pseudorandom, not index
//!   order).
//!
//! With `threads > 1` (see [`crate::encode::PorEncoder::begin_encode_threads`])
//! each buffered wave is split into chunk groups and dispatched over the
//! shared work-stealing pool (`geoproof_pool`). The RS chunk is the
//! natural work unit: its `rs_n` output blocks depend only on its own
//! `rs_k` input blocks, the CTR keystream is positioned by global block
//! index, and the PRP is a bijection — so every worker writes a disjoint
//! set of block slots and the interleaving cannot change a single output
//! byte. Per-file key schedules (the PRP round table, the HMAC pad
//! midstates) are built once and shared read-only across workers.
//! Output is **bit-identical** at every thread count;
//! `tests/golden` pins in the facade crate, `tests/stream_prop.rs`, and
//! the differential battery in `tests/parallel_encode_prop.rs` enforce
//! that.
//!
//! Working memory beyond the destination is **O(wave)** data plus a
//! 2-byte fill counter per segment (≈ 2.4 % of the stored bytes at paper
//! parameters) plus the per-file PRP round table (≤ 1 MiB; 64 KiB for a
//! 64 MiB file) — not O(file).
//!
//! See `docs/datapath.md` for the end-to-end zero-copy story
//! (encode → upload → disk → challenge → transcript) and the parallel
//! lifecycle.

use crate::encode::FileMetadata;
use crate::keys::PorKeys;
use crate::params::PorParams;
use bytes::Bytes;
use geoproof_crypto::aes::Aes128Ctr;
use geoproof_crypto::hmac::{HmacKeySchedule, TruncatedMac};
use geoproof_crypto::prp::PrpSchedule;
use geoproof_ecc::block_code::{Block, BlockCode, BLOCK_BYTES};
use geoproof_ecc::DecodeError;
use geoproof_pool::{run_jobs, Job};
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::{Mutex, OnceLock};

/// Cached telemetry handles for the wave data path (see
/// `geoproof_obs`): bytes counts raw input consumed, waves/chunks give
/// dispatch occupancy, `encode_wave_mib_per_s` tracks the latest wave's
/// encode rate over the padded chunk payload, and sealed counts
/// tag-complete segments.
struct StreamMetrics {
    bytes: std::sync::Arc<geoproof_obs::Counter>,
    waves: std::sync::Arc<geoproof_obs::Counter>,
    sealed: std::sync::Arc<geoproof_obs::Counter>,
    chunks: std::sync::Arc<geoproof_obs::Histogram>,
    mib_per_s: std::sync::Arc<geoproof_obs::Gauge>,
}

fn stream_metrics() -> &'static StreamMetrics {
    static METRICS: OnceLock<StreamMetrics> = OnceLock::new();
    METRICS.get_or_init(|| StreamMetrics {
        bytes: geoproof_obs::counter("encode_bytes_total"),
        waves: geoproof_obs::counter("encode_waves_total"),
        sealed: geoproof_obs::counter("encode_segments_sealed_total"),
        chunks: geoproof_obs::histogram("encode_wave_chunks"),
        mib_per_s: geoproof_obs::gauge("encode_wave_mib_per_s"),
    })
}

/// Reed–Solomon chunks buffered per worker before a parallel wave is
/// dispatched: large enough to amortise pool startup, small enough that
/// the wave buffer (`threads × WAVE_CHUNKS_PER_WORKER × rs_k × 16` bytes
/// — ≈ 223 KiB per worker at paper parameters) stays a small constant.
pub const WAVE_CHUNKS_PER_WORKER: usize = 64;

/// The encode worker count used when none is given explicitly: the
/// `GEOPROOF_ENCODE_THREADS` environment variable when set to a positive
/// integer, otherwise the machine's available parallelism.
pub fn default_encode_threads() -> usize {
    std::env::var("GEOPROOF_ENCODE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, 256)
}

/// The derived geometry of one encoded file: how `total_len` input bytes
/// map onto blocks, Reed–Solomon chunks, and tagged segments. Pure
/// arithmetic over [`PorParams`]; both the streaming encoder and sinks
/// size themselves from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentLayout {
    params: PorParams,
    original_len: u64,
    raw_blocks: u64,
    encoded_blocks: u64,
    segments: u64,
}

impl SegmentLayout {
    /// Computes the layout for a `total_len`-byte input under `params`.
    pub fn for_len(params: PorParams, total_len: u64) -> Self {
        params.validate();
        // An empty file still occupies one (zero) block, as the batch
        // encoder always produced.
        let raw_blocks = total_len.div_ceil(BLOCK_BYTES as u64).max(1);
        let chunks = raw_blocks.div_ceil(params.rs_k as u64);
        let encoded_blocks = chunks * params.rs_n as u64;
        let segments = encoded_blocks.div_ceil(params.segment_blocks as u64);
        SegmentLayout {
            params,
            original_len: total_len,
            raw_blocks,
            encoded_blocks,
            segments,
        }
    }

    /// The parameter set the layout was computed for.
    pub fn params(&self) -> &PorParams {
        &self.params
    }

    /// Input length in bytes.
    pub fn original_len(&self) -> u64 {
        self.original_len
    }

    /// Blocks before coding (b).
    pub fn raw_blocks(&self) -> u64 {
        self.raw_blocks
    }

    /// Blocks after Reed–Solomon coding (b′).
    pub fn encoded_blocks(&self) -> u64 {
        self.encoded_blocks
    }

    /// Reed–Solomon chunks.
    pub fn chunks(&self) -> u64 {
        self.encoded_blocks / self.params.rs_n as u64
    }

    /// Stored segments (ñ).
    pub fn segments(&self) -> u64 {
        self.segments
    }

    /// Bytes per stored segment (body + tag).
    pub fn segment_bytes(&self) -> usize {
        self.params.segment_bytes()
    }

    /// Bytes of segment body (the `v` blocks, without the tag).
    pub fn body_bytes(&self) -> usize {
        self.params.segment_blocks * BLOCK_BYTES
    }

    /// Total stored bytes across all segments.
    pub fn stored_bytes(&self) -> u64 {
        self.segments * self.segment_bytes() as u64
    }

    /// Data blocks that land in segment `s` — `v`, except the final
    /// segment which may be padded with zero blocks past `encoded_blocks`.
    fn blocks_in_segment(&self, s: u64) -> u16 {
        let start = s * self.params.segment_blocks as u64;
        let end = (start + self.params.segment_blocks as u64).min(self.encoded_blocks);
        (end - start) as u16
    }

    /// The retained metadata for this layout.
    pub fn metadata(&self, file_id: &str) -> FileMetadata {
        FileMetadata {
            file_id: file_id.to_owned(),
            original_len: self.original_len,
            raw_blocks: self.raw_blocks,
            encoded_blocks: self.encoded_blocks,
            segments: self.segments,
        }
    }
}

/// Destination for streamed tagged segments.
///
/// The encoder writes ciphertext blocks directly into sink-owned memory
/// (the PRP scatters them, so writes are random-access) and seals each
/// segment in place once its last block arrives. Contract:
///
/// * [`SegmentSink::segment_mut`] returns a buffer of exactly
///   `layout.segment_bytes()` bytes that is **zero-initialised** on
///   first access — trailing padding blocks and the tag area are never
///   explicitly written before sealing;
/// * [`SegmentSink::complete`] fires exactly once per segment, in
///   PRP-completion order (pseudorandom, *not* ascending index);
/// * [`SegmentSink::finish`] fires once, after every segment completed.
pub trait SegmentSink {
    /// Called once before any write; the sink sizes itself here.
    fn begin(&mut self, layout: &SegmentLayout);

    /// Mutable storage for segment `index` (body followed by tag area).
    fn segment_mut(&mut self, index: u64) -> &mut [u8];

    /// Segment `index` is fully written (body and tag).
    fn complete(&mut self, index: u64) {
        let _ = index;
    }

    /// All segments are complete.
    fn finish(&mut self, layout: &SegmentLayout) {
        let _ = layout;
    }

    /// A raw view over the sink's backing storage for the parallel
    /// encoder's workers, or `None` (the default) if the sink cannot
    /// offer one — in which case encoding stays sequential regardless of
    /// the requested thread count.
    ///
    /// Implementors must return a view over one contiguous buffer of
    /// `segments × segment_bytes` bytes at stride `segment_bytes`, valid
    /// until the next `&mut` method call on the sink. In parallel mode
    /// [`SegmentSink::complete`] fires after the wave that sealed the
    /// segment, in ascending index order within the wave.
    fn contiguous_view(&mut self) -> Option<SinkView> {
        None
    }
}

/// A raw, shareable window over a [`SegmentSink`]'s contiguous backing
/// store, through which parallel encode workers write ciphertext blocks
/// and tags.
///
/// Soundness rests on the disjoint-slot invariant: the PRP is a
/// bijection, so each of a wave's workers writes a distinct set of
/// block-sized slots, and each segment's tag area is written by exactly
/// one worker — the one whose block completed the segment's fill count
/// (an `AcqRel` counter chain makes all body writes visible to it). No
/// byte is written twice and no byte is read before its writer's
/// increment, so the view's unsafe accessors are race-free by
/// construction.
#[derive(Debug)]
pub struct SinkView {
    base: *mut u8,
    len: usize,
    stride: usize,
}

// SAFETY: the view is only used under the wave protocol above — writes
// from distinct threads never overlap and reads are ordered by the fill
// counters.
unsafe impl Send for SinkView {}
unsafe impl Sync for SinkView {}

impl SinkView {
    /// Wraps a contiguous segment buffer of stride `stride`.
    pub fn new(buf: &mut [u8], stride: usize) -> Self {
        SinkView {
            base: buf.as_mut_ptr(),
            len: buf.len(),
            stride,
        }
    }

    /// Writes `bytes` at `offset` inside segment `seg`.
    ///
    /// # Safety
    ///
    /// No concurrent access to the same byte range; the view's buffer
    /// must still be live.
    unsafe fn write(&self, seg: u64, offset: usize, bytes: &[u8]) {
        let start = seg as usize * self.stride + offset;
        assert!(start + bytes.len() <= self.len, "write past sink view");
        assert!(offset + bytes.len() <= self.stride, "write past segment");
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.base.add(start), bytes.len());
    }

    /// The first `len` bytes of segment `seg` (its body, when sealing).
    ///
    /// # Safety
    ///
    /// All writes to the range must happen-before this call and no
    /// concurrent writes to it may exist; the buffer must still be live.
    unsafe fn slice(&self, seg: u64, len: usize) -> &[u8] {
        let start = seg as usize * self.stride;
        assert!(
            start + len <= self.len && len <= self.stride,
            "read past sink view"
        );
        std::slice::from_raw_parts(self.base.add(start), len)
    }
}

/// The streaming five-step encoder: feed input with
/// [`StreamingEncoder::push`], close with [`StreamingEncoder::finish`].
///
/// Construct via [`crate::encode::PorEncoder::begin_encode`]. The total
/// input length must be declared up front: the block permutation spans
/// the whole encoded file, so its domain (and every segment's final
/// position) depends on it.
pub struct StreamingEncoder<S: SegmentSink> {
    layout: SegmentLayout,
    coder: ChunkCoder,
    mac: TruncatedMac,
    /// Per-file MAC key schedule: HMAC pad midstates hoisted out of the
    /// per-segment seal.
    mac_sched: HmacKeySchedule,
    file_id: String,
    /// Raw input bytes buffered toward the current wave (one RS chunk
    /// sequentially, `threads × WAVE_CHUNKS_PER_WORKER` chunks parallel).
    pending: Vec<u8>,
    /// Bytes buffered before a wave flushes.
    wave_bytes: usize,
    /// Worker threads for wave dispatch (1 = strictly sequential).
    threads: usize,
    fed: u64,
    next_chunk: u64,
    /// Blocks landed per segment; a segment seals when it hits
    /// [`SegmentLayout::blocks_in_segment`]. Two bytes per segment — the
    /// only per-file index the encoder keeps (≈ 2.4 % of stored bytes at
    /// paper parameters). Atomic so parallel waves can race on the
    /// increments; the AcqRel chain orders body writes before the seal.
    fill: Vec<AtomicU16>,
    sealed: u64,
    sink: S,
}

impl<S: SegmentSink> std::fmt::Debug for StreamingEncoder<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingEncoder")
            .field("layout", &self.layout)
            .field("fed", &self.fed)
            .field("sealed", &self.sealed)
            .finish_non_exhaustive()
    }
}

impl<S: SegmentSink> StreamingEncoder<S> {
    pub(crate) fn new(
        code: BlockCode,
        params: PorParams,
        keys: &PorKeys,
        file_id: &str,
        total_len: u64,
        mut sink: S,
        threads: usize,
    ) -> Self {
        let layout = SegmentLayout::for_len(params, total_len);
        assert!(
            params.segment_blocks <= u16::MAX as usize,
            "segment_blocks exceeds the fill-counter range"
        );
        sink.begin(&layout);
        let threads = threads.clamp(1, 256);
        let chunk_bytes = params.rs_k * BLOCK_BYTES;
        // A single-threaded encoder keeps the historical one-chunk buffer
        // (and the strict O(chunk) memory bound); parallel waves buffer
        // enough chunks to keep every worker busy, capped at the whole
        // (chunk-padded) input so small files don't over-allocate.
        let wave_bytes = if threads > 1 {
            (threads * WAVE_CHUNKS_PER_WORKER * chunk_bytes)
                .min((layout.chunks() as usize).saturating_mul(chunk_bytes))
                .max(chunk_bytes)
        } else {
            chunk_bytes
        };
        StreamingEncoder {
            coder: ChunkCoder::new(code, keys, layout.encoded_blocks()),
            mac: TruncatedMac::new(params.tag_bits),
            mac_sched: HmacKeySchedule::new(keys.mac_key()),
            file_id: file_id.to_owned(),
            pending: Vec::with_capacity(wave_bytes),
            wave_bytes,
            threads,
            fed: 0,
            next_chunk: 0,
            fill: std::iter::repeat_with(|| AtomicU16::new(0))
                .take(layout.segments() as usize)
                .collect(),
            sealed: 0,
            sink,
            layout,
        }
    }

    /// The layout being encoded into.
    pub fn layout(&self) -> &SegmentLayout {
        &self.layout
    }

    /// Bytes fed so far.
    pub fn bytes_fed(&self) -> u64 {
        self.fed
    }

    /// Segments sealed (tag written, sink notified) so far.
    pub fn segments_sealed(&self) -> u64 {
        self.sealed
    }

    /// Feeds the next `data` bytes of the input. Chunking is free-form;
    /// the encoder buffers at most one wave internally.
    ///
    /// # Panics
    ///
    /// Panics if more bytes than the declared total length are fed.
    pub fn push(&mut self, mut data: &[u8]) {
        assert!(
            self.fed + data.len() as u64 <= self.layout.original_len(),
            "push overflows declared length {} (fed {}, pushing {})",
            self.layout.original_len(),
            self.fed,
            data.len()
        );
        let chunk_bytes = self.layout.params().rs_k * BLOCK_BYTES;
        while !data.is_empty() {
            let take = (self.wave_bytes - self.pending.len()).min(data.len());
            self.pending.extend_from_slice(&data[..take]);
            self.fed += take as u64;
            data = &data[take..];
            if self.pending.len() == self.wave_bytes {
                self.flush_wave((self.wave_bytes / chunk_bytes) as u64);
            }
        }
    }

    /// Flushes the final (possibly padded) wave, seals any remaining
    /// segments and returns the metadata plus the filled sink.
    ///
    /// # Panics
    ///
    /// Panics if fewer bytes than the declared total length were fed.
    pub fn finish(mut self) -> (FileMetadata, S) {
        assert_eq!(
            self.fed,
            self.layout.original_len(),
            "finish called after {} of {} declared bytes",
            self.fed,
            self.layout.original_len()
        );
        // A ragged tail may remain, and an empty input still owes its
        // single all-zero chunk.
        let remaining = self.layout.chunks() - self.next_chunk;
        if remaining > 0 {
            self.flush_wave(remaining);
        }
        debug_assert_eq!(self.sealed, self.layout.segments());
        self.sink.finish(&self.layout);
        (self.layout.metadata(&self.file_id), self.sink)
    }

    /// Processes the next `count` chunks of the file from the wave
    /// buffer (absent bytes — the ragged tail or fully owed chunks — are
    /// zero). Dispatches to the pool when parallel encoding is on and
    /// the sink can take disjoint raw writes; the byte output is
    /// identical either way.
    fn flush_wave(&mut self, count: u64) {
        let _span = geoproof_obs::span("encode_wave");
        let started = std::time::Instant::now();
        let raw_bytes = self.pending.len() as u64;
        let sealed_before = self.sealed;
        self.run_wave(count);
        let m = stream_metrics();
        m.bytes.add(raw_bytes);
        m.waves.inc();
        m.chunks.record(count);
        m.sealed.add(self.sealed - sealed_before);
        let chunk_bytes = (self.layout.params().rs_k * BLOCK_BYTES) as u64;
        let elapsed_ns = started.elapsed().as_nanos().max(1) as u64;
        let mib_per_s =
            (count * chunk_bytes).saturating_mul(1_000_000_000) / elapsed_ns / (1 << 20);
        m.mib_per_s.set(mib_per_s as i64);
    }

    fn run_wave(&mut self, count: u64) {
        if self.threads > 1 && count > 1 {
            if let Some(view) = self.sink.contiguous_view() {
                let sealed = self.run_wave_parallel(count, view);
                self.next_chunk += count;
                self.pending.clear();
                self.sealed += sealed.len() as u64;
                for seg in sealed {
                    self.sink.complete(seg);
                }
                return;
            }
        }
        for i in 0..count {
            self.process_chunk_sequential(i);
        }
        self.next_chunk += count;
        self.pending.clear();
    }

    /// Runs wave chunk `wave_index` through [`ChunkCoder::encode`] and
    /// writes each ciphertext block to its permuted position in the sink.
    fn process_chunk_sequential(&mut self, wave_index: u64) {
        let p = *self.layout.params();
        let chunk_bytes = p.rs_k * BLOCK_BYTES;
        let (ciphertext, dsts) = self.coder.encode(
            self.next_chunk + wave_index,
            wave_chunk_bytes(&self.pending, wave_index as usize, chunk_bytes),
        );
        for (block, dst) in ciphertext.chunks_exact(BLOCK_BYTES).zip(dsts) {
            let seg = dst / p.segment_blocks as u64;
            let offset = (dst % p.segment_blocks as u64) as usize * BLOCK_BYTES;
            self.sink.segment_mut(seg)[offset..offset + BLOCK_BYTES].copy_from_slice(block);
            let landed = self.fill[seg as usize].fetch_add(1, Ordering::Relaxed) + 1;
            if landed == self.layout.blocks_in_segment(seg) {
                self.seal_segment(seg);
            }
        }
    }

    /// Fans `count` chunks out over the pool: each job runs a group of
    /// chunks through [`ChunkCoder::encode`] and writes the ciphertext
    /// through `view`, sealing any segment whose last block it lands.
    /// Returns the segments sealed this wave, ascending.
    fn run_wave_parallel(&self, count: u64, view: SinkView) -> Vec<u64> {
        let p = *self.layout.params();
        let chunk_bytes = p.rs_k * BLOCK_BYTES;
        let body_bytes = self.layout.body_bytes();
        let first = self.next_chunk;
        let layout = &self.layout;
        let coder = &self.coder;
        let mac = &self.mac;
        let mac_sched = &self.mac_sched;
        let fill = &self.fill;
        let pending = &self.pending;
        let file_id = &self.file_id;
        let view = &view;
        let sealed_log: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        // ~4 groups per worker so stealing can even out RS/MAC skew.
        let group = (count as usize).div_ceil(self.threads * 4).max(1);
        let jobs: Vec<Job> = (0..count as usize)
            .step_by(group)
            .map(|lo| {
                let hi = (lo + group).min(count as usize);
                let sealed_log = &sealed_log;
                Box::new(move || {
                    let mut local: Vec<u64> = Vec::new();
                    for i in lo..hi {
                        let (ciphertext, dsts) = coder
                            .encode(first + i as u64, wave_chunk_bytes(pending, i, chunk_bytes));
                        for (block, dst) in ciphertext.chunks_exact(BLOCK_BYTES).zip(dsts) {
                            let seg = dst / p.segment_blocks as u64;
                            let offset = (dst % p.segment_blocks as u64) as usize * BLOCK_BYTES;
                            // SAFETY: the PRP is a bijection — this wave
                            // writes each block slot exactly once, from
                            // exactly one worker.
                            unsafe { view.write(seg, offset, block) };
                            let landed = fill[seg as usize].fetch_add(1, Ordering::AcqRel) + 1;
                            if landed == layout.blocks_in_segment(seg) {
                                // SAFETY: every writer incremented the fill
                                // counter (AcqRel) after its write, and this
                                // thread's RMW observed the full count — all
                                // body writes happened-before this read. The
                                // tag slot is written only here, once.
                                let tag = {
                                    let body = unsafe { view.slice(seg, body_bytes) };
                                    let mut h = mac_sched.start();
                                    h.update(body);
                                    h.update(&seg.to_be_bytes());
                                    h.update(file_id.as_bytes());
                                    mac.truncate(&h.finalize())
                                };
                                unsafe { view.write(seg, body_bytes, &tag) };
                                local.push(seg);
                            }
                        }
                    }
                    sealed_log.lock().expect("sealed log").extend(local);
                }) as Job
            })
            .collect();
        run_jobs(self.threads, jobs);
        let mut sealed = sealed_log.into_inner().expect("sealed log");
        sealed.sort_unstable();
        sealed
    }

    /// MACs the completed body in place and writes the tag after it.
    fn seal_segment(&mut self, seg: u64) {
        let body_bytes = self.layout.body_bytes();
        let buf = self.sink.segment_mut(seg);
        let mut h = self.mac_sched.start();
        h.update(&buf[..body_bytes]);
        h.update(&seg.to_be_bytes());
        h.update(self.file_id.as_bytes());
        let tag = self.mac.truncate(&h.finalize());
        buf[body_bytes..].copy_from_slice(&tag);
        self.sink.complete(seg);
        self.sealed += 1;
    }
}

/// Steps 2–4 of the setup, one Reed–Solomon chunk at a time, with the
/// per-file key schedules they use (the tabulated PRP, the AES round
/// keys) built once and shared read-only by every worker. The extractor
/// runs the same steps backwards through [`ChunkCoder::decode`].
pub(crate) struct ChunkCoder {
    code: BlockCode,
    prp: PrpSchedule,
    ctr: Aes128Ctr,
}

impl ChunkCoder {
    /// The coder for a file of `encoded_blocks` blocks after RS coding.
    pub(crate) fn new(code: BlockCode, keys: &PorKeys, encoded_blocks: u64) -> Self {
        ChunkCoder {
            code,
            prp: PrpSchedule::new(keys.prp_key(), encoded_blocks),
            ctr: Aes128Ctr::new(keys.enc_key(), *b"geoproof"),
        }
    }

    /// RS-encodes file chunk `chunk` from its raw bytes (zero-padded to
    /// `rs_k` blocks), encrypts the `rs_n` output blocks with one CTR
    /// call (counter = global block index), and permutes those indices
    /// with one [`PrpSchedule::permute_range`] call. Returns the
    /// ciphertext (the blocks back to back) and each block's position in
    /// the stored file.
    fn encode(&self, chunk: u64, raw: &[u8]) -> (Vec<u8>, Vec<u64>) {
        let n = self.code.encoded_blocks();
        let base = chunk * n as u64;
        // `concat` flattens for the single CTR call; `as_flattened_mut`
        // would avoid the copy but needs a newer Rust than the MSRV.
        let mut ciphertext = self
            .code
            .encode_chunk(&build_blocks(self.code.data_blocks(), raw))
            .concat();
        self.ctr.apply_keystream_at(&mut ciphertext, base);
        let mut dsts = vec![0u64; n];
        self.prp.permute_range(base, &mut dsts);
        (ciphertext, dsts)
    }

    /// Inverts [`ChunkCoder::encode`] for file chunk `chunk`: gathers its
    /// blocks from their positions in `stored` (the permuted file),
    /// decrypts them with one CTR call and RS-decodes them. Every block
    /// whose `trusted` flag is false is an erasure, so its keystream
    /// does not matter.
    pub(crate) fn decode(
        &self,
        chunk: u64,
        stored: &[Block],
        trusted: &[bool],
    ) -> Result<Vec<Block>, DecodeError> {
        let n = self.code.encoded_blocks();
        let base = chunk * n as u64;
        let mut dsts = vec![0u64; n];
        self.prp.permute_range(base, &mut dsts);
        let mut bytes = Vec::with_capacity(n * BLOCK_BYTES);
        for &d in &dsts {
            bytes.extend_from_slice(&stored[d as usize]);
        }
        self.ctr.apply_keystream_at(&mut bytes, base);
        let blocks: Vec<Block> = bytes
            .chunks_exact(BLOCK_BYTES)
            .map(|b| b.try_into().expect("block-sized chunk"))
            .collect();
        let erasures: Vec<usize> = (0..n).filter(|&j| !trusted[dsts[j] as usize]).collect();
        self.code.decode_chunk(&blocks, &erasures)
    }
}

/// The raw input bytes of wave chunk `index` — possibly short (ragged
/// tail) or empty (an owed all-zero chunk past the buffered input).
fn wave_chunk_bytes(pending: &[u8], index: usize, chunk_bytes: usize) -> &[u8] {
    let start = index * chunk_bytes;
    if start >= pending.len() {
        &[]
    } else {
        &pending[start..(start + chunk_bytes).min(pending.len())]
    }
}

/// Zero-pads `raw` into exactly `k` blocks.
fn build_blocks(k: usize, raw: &[u8]) -> Vec<Block> {
    let mut chunk = vec![[0u8; BLOCK_BYTES]; k];
    for (slot, piece) in chunk.iter_mut().zip(raw.chunks(BLOCK_BYTES)) {
        slot[..piece.len()].copy_from_slice(piece);
    }
    chunk
}

// --- the contiguous-arena sink ---------------------------------------------

/// A [`SegmentSink`] backing all segments with one contiguous,
/// fixed-stride allocation — the zero-copy upload format. Freeze into a
/// [`TaggedArena`] with [`ArenaSink::into_arena`].
#[derive(Debug, Default)]
pub struct ArenaSink {
    buf: Vec<u8>,
    stride: usize,
}

impl SegmentSink for ArenaSink {
    fn begin(&mut self, layout: &SegmentLayout) {
        self.stride = layout.segment_bytes();
        self.buf = vec![0u8; layout.stored_bytes() as usize];
    }

    fn segment_mut(&mut self, index: u64) -> &mut [u8] {
        let start = index as usize * self.stride;
        &mut self.buf[start..start + self.stride]
    }

    fn contiguous_view(&mut self) -> Option<SinkView> {
        Some(SinkView::new(&mut self.buf, self.stride))
    }
}

impl ArenaSink {
    /// Freezes the filled arena (no copy).
    pub fn into_arena(self, metadata: FileMetadata) -> TaggedArena {
        debug_assert_eq!(
            self.buf.len(),
            metadata.segments as usize * self.stride,
            "arena size does not match metadata"
        );
        TaggedArena {
            buf: Bytes::from(self.buf),
            stride: self.stride,
            metadata,
        }
    }
}

/// An encoded, tagged file in one contiguous buffer: segment `i` lives at
/// byte offset `i × stride`. [`TaggedArena::segment`] returns a
/// refcounted [`Bytes`] view — storing, serving, and framing a segment
/// all alias this one allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaggedArena {
    buf: Bytes,
    stride: usize,
    metadata: FileMetadata,
}

impl TaggedArena {
    /// Rehydrates an arena from its parts (e.g. a store file read back
    /// from disk). `buf` must be exactly `metadata.segments × stride`
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics on a size mismatch.
    pub fn from_parts(buf: Bytes, stride: usize, metadata: FileMetadata) -> Self {
        assert_eq!(
            buf.len() as u64,
            metadata.segments * stride as u64,
            "arena buffer does not match segments × stride"
        );
        TaggedArena {
            buf,
            stride,
            metadata,
        }
    }

    /// The retained file metadata.
    pub fn metadata(&self) -> &FileMetadata {
        &self.metadata
    }

    /// Number of segments.
    pub fn segment_count(&self) -> u64 {
        self.metadata.segments
    }

    /// Bytes per segment slot.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The whole arena as one shared buffer.
    pub fn bytes(&self) -> &Bytes {
        &self.buf
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Segment `index` as a zero-copy view into the arena.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn segment(&self, index: u64) -> Bytes {
        assert!(
            index < self.metadata.segments,
            "segment {index} out of range ({})",
            self.metadata.segments
        );
        let start = index as usize * self.stride;
        self.buf.slice(start..start + self.stride)
    }

    /// All segments as cheap views (ñ refcount bumps, zero payload
    /// copies).
    pub fn segments(&self) -> Vec<Bytes> {
        (0..self.metadata.segments)
            .map(|i| self.segment(i))
            .collect()
    }

    /// Iterates segments as zero-copy views.
    pub fn iter(&self) -> impl Iterator<Item = Bytes> + '_ {
        (0..self.metadata.segments).map(|i| self.segment(i))
    }

    /// Deep-copies into the legacy [`crate::encode::TaggedFile`] shape
    /// (one owned `Vec` per segment) for callers that mutate segments.
    pub fn to_tagged_file(&self) -> crate::encode::TaggedFile {
        crate::encode::TaggedFile {
            segments: self.iter().map(|s| s.to_vec()).collect(),
            metadata: self.metadata.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::PorEncoder;
    use geoproof_crypto::chacha::ChaChaRng;

    fn keys() -> PorKeys {
        PorKeys::derive(b"stream-master", "sf")
    }

    fn sample(len: usize) -> Vec<u8> {
        let mut rng = ChaChaRng::from_u64_seed(77);
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    #[test]
    fn layout_matches_overhead_example() {
        for len in [0u64, 1, 16, 17, 4000, 100_000] {
            let layout = SegmentLayout::for_len(PorParams::test_small(), len);
            let ex = crate::params::overhead_example(&PorParams::test_small(), len);
            if len > 0 {
                assert_eq!(layout.raw_blocks(), ex.raw_blocks, "len {len}");
            }
            assert_eq!(layout.stored_bytes() % layout.segment_bytes() as u64, 0);
            assert_eq!(
                layout.segments(),
                layout.encoded_blocks().div_ceil(2),
                "len {len}"
            );
        }
    }

    #[test]
    fn streaming_output_equals_batch_encode_for_any_chunking() {
        let enc = PorEncoder::new(PorParams::test_small());
        let k = keys();
        let data = sample(5000);
        let batch = enc.encode(&data, &k, "sf");
        for chunk_size in [1usize, 7, 16, 176, 1000, 5000] {
            let mut stream = enc.begin_encode(&k, "sf", data.len() as u64, ArenaSink::default());
            for piece in data.chunks(chunk_size) {
                stream.push(piece);
            }
            let (md, sink) = stream.finish();
            let arena = sink.into_arena(md);
            assert_eq!(arena.metadata(), &batch.metadata, "chunk {chunk_size}");
            assert_eq!(
                arena.segment_count() as usize,
                batch.segments.len(),
                "chunk {chunk_size}"
            );
            for (i, seg) in batch.segments.iter().enumerate() {
                assert_eq!(
                    arena.segment(i as u64),
                    *seg,
                    "segment {i}, chunk {chunk_size}"
                );
            }
        }
    }

    #[test]
    fn arena_views_alias_one_allocation() {
        let enc = PorEncoder::new(PorParams::test_small());
        let arena = enc.encode_arena(&sample(2000), &keys(), "sf");
        let base = arena.bytes().as_ptr();
        for i in 0..arena.segment_count() {
            let seg = arena.segment(i);
            let expect = unsafe { base.add(i as usize * arena.stride()) };
            assert_eq!(seg.as_ptr(), expect, "segment {i} must be a view");
            assert_eq!(seg.len(), arena.stride());
        }
        let all = arena.segments();
        assert_eq!(all.len() as u64, arena.segment_count());
    }

    #[test]
    fn completion_order_is_pseudorandom_but_complete() {
        #[derive(Default)]
        struct Recording {
            inner: ArenaSink,
            order: Vec<u64>,
        }
        impl SegmentSink for Recording {
            fn begin(&mut self, layout: &SegmentLayout) {
                self.inner.begin(layout);
            }
            fn segment_mut(&mut self, index: u64) -> &mut [u8] {
                self.inner.segment_mut(index)
            }
            fn complete(&mut self, index: u64) {
                self.order.push(index);
            }
        }

        let enc = PorEncoder::new(PorParams::test_small());
        let data = sample(4000);
        let mut stream = enc.begin_encode(&keys(), "sf", data.len() as u64, Recording::default());
        stream.push(&data);
        let (md, sink) = stream.finish();
        let mut seen = sink.order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..md.segments).collect::<Vec<_>>());
        assert_ne!(
            sink.order,
            (0..md.segments).collect::<Vec<_>>(),
            "PRP scatter should not complete segments in index order"
        );
    }

    #[test]
    fn empty_input_produces_one_padded_chunk() {
        let enc = PorEncoder::new(PorParams::test_small());
        let stream = enc.begin_encode(&keys(), "sf", 0, ArenaSink::default());
        let (md, sink) = stream.finish();
        assert_eq!(md.raw_blocks, 1);
        assert_eq!(md.encoded_blocks, 15);
        let arena = sink.into_arena(md);
        assert_eq!(arena.segment_count(), 8);
        // Must equal the batch path bit for bit.
        let batch = enc.encode(&[], &keys(), "sf");
        for (i, seg) in batch.segments.iter().enumerate() {
            assert_eq!(arena.segment(i as u64), *seg);
        }
    }

    #[test]
    #[should_panic(expected = "push overflows")]
    fn overfeeding_panics() {
        let enc = PorEncoder::new(PorParams::test_small());
        let mut stream = enc.begin_encode(&keys(), "sf", 4, ArenaSink::default());
        stream.push(&[0u8; 5]);
    }

    #[test]
    #[should_panic(expected = "finish called after")]
    fn underfeeding_panics() {
        let enc = PorEncoder::new(PorParams::test_small());
        let mut stream = enc.begin_encode(&keys(), "sf", 64, ArenaSink::default());
        stream.push(&[0u8; 10]);
        let _ = stream.finish();
    }

    #[test]
    fn progress_counters_track_the_stream() {
        let enc = PorEncoder::new(PorParams::test_small());
        let data = sample(4000);
        let mut stream = enc.begin_encode(&keys(), "sf", data.len() as u64, ArenaSink::default());
        assert_eq!(stream.bytes_fed(), 0);
        stream.push(&data[..1000]);
        assert_eq!(stream.bytes_fed(), 1000);
        stream.push(&data[1000..]);
        assert_eq!(stream.bytes_fed(), 4000);
        let sealed_before_finish = stream.segments_sealed();
        let (md, _) = stream.finish();
        assert!(sealed_before_finish <= md.segments);
    }

    #[test]
    fn from_parts_roundtrip() {
        let enc = PorEncoder::new(PorParams::test_small());
        let arena = enc.encode_arena(&sample(1000), &keys(), "sf");
        let again = TaggedArena::from_parts(
            arena.bytes().clone(),
            arena.stride(),
            arena.metadata().clone(),
        );
        assert_eq!(again, arena);
        assert!(again.bytes().aliases(arena.bytes()));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_parts_rejects_size_mismatch() {
        let enc = PorEncoder::new(PorParams::test_small());
        let arena = enc.encode_arena(&sample(1000), &keys(), "sf");
        let truncated = arena.bytes().slice(..arena.total_bytes() - 1);
        TaggedArena::from_parts(truncated, arena.stride(), arena.metadata().clone());
    }
}
