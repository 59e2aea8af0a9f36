//! Streaming five-step setup: bounded-memory encoding straight into the
//! contiguous [`TaggedArena`], in two passes over a worker pool.
//!
//! [`crate::encode::PorEncoder::encode`] used to materialise five full
//! copies of the file (raw blocks, RS-expanded blocks, the flat
//! ciphertext, the permuted blocks, and the per-segment `Vec`s). This
//! module restructures the same pipeline around a push API and an
//! encoder-owned arena:
//!
//! 1. **Scatter pass** ([`StreamingEncoder::push`]). Every whole
//!    Reed–Solomon chunk a push carries is encoded in one pool dispatch,
//!    straight from the caller's slice: each job RS-encodes a group of
//!    chunks, encrypts each chunk with one CTR call (counter = global
//!    block index), permutes its block indices with one batched PRP call
//!    and writes every ciphertext block into its *final* position in the
//!    arena. Only a partial chunk (under `rs_k × 16` bytes) is buffered
//!    between pushes.
//! 2. **Tag pass** ([`StreamingEncoder::finish`]). Once the last
//!    (ragged or owed all-zero) chunk has landed, every segment is
//!    MAC-tagged in index order, in one dispatch over contiguous segment
//!    ranges.
//!
//! The RS chunk is the natural work unit of the scatter pass: its `rs_n`
//! output blocks depend only on its own `rs_k` input blocks, the CTR
//! keystream is positioned by global block index, and the PRP is a
//! bijection — so every job writes a disjoint set of block slots and the
//! interleaving cannot change a single output byte. The tag pass hands
//! each job its own `&mut` range of the arena. Per-file key schedules
//! (the PRP round table, the AES round keys, the HMAC pad midstates) are
//! built once and shared read-only by the jobs. With one worker the same
//! jobs run inline. Output is **bit-identical** at every thread count;
//! `tests/golden_datapath.rs` in the facade crate, `tests/stream_prop.rs`,
//! and the differential battery in `tests/parallel_encode_prop.rs`
//! enforce that.
//!
//! Working memory beyond the arena is less than one RS chunk of input
//! plus per-job scratch (one chunk in flight per worker) plus the
//! per-file PRP round table (≤ 1 MiB; 64 KiB for a 64 MiB file) — not
//! O(file).
//!
//! See `docs/datapath.md` for the end-to-end zero-copy story
//! (encode → upload → disk → challenge → transcript).

use crate::encode::{segment_mac, FileMetadata};
use crate::keys::PorKeys;
use crate::params::PorParams;
use bytes::Bytes;
use geoproof_crypto::aes::Aes128Ctr;
use geoproof_crypto::hmac::{HmacKeySchedule, TruncatedMac};
use geoproof_crypto::prp::PrpSchedule;
use geoproof_ecc::block_code::{Block, BlockCode, BLOCK_BYTES};
use geoproof_ecc::DecodeError;
use geoproof_pool::{run_jobs, Job};
use std::sync::OnceLock;

/// Cached telemetry handles for the encoder (see `geoproof_obs`): bytes
/// counts raw input pushed, sealed counts tagged segments.
struct StreamMetrics {
    bytes: std::sync::Arc<geoproof_obs::Counter>,
    sealed: std::sync::Arc<geoproof_obs::Counter>,
}

fn stream_metrics() -> &'static StreamMetrics {
    static METRICS: OnceLock<StreamMetrics> = OnceLock::new();
    METRICS.get_or_init(|| StreamMetrics {
        bytes: geoproof_obs::counter("encode_bytes_total"),
        sealed: geoproof_obs::counter("encode_segments_sealed_total"),
    })
}

/// Jobs per worker in one dispatch: enough that stealing evens out a
/// worker that starts late, few enough that job overhead stays nil.
const JOBS_PER_WORKER: usize = 4;

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
/// arithmetic over [`PorParams`]; the streaming encoder sizes its arena
/// from it.
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

    /// Raw input bytes per Reed–Solomon chunk (`rs_k × 16`).
    fn chunk_bytes(&self) -> usize {
        self.params.rs_k * BLOCK_BYTES
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

/// A raw, shareable pointer to the arena through which scatter jobs
/// write ciphertext blocks.
///
/// Soundness rests on the disjoint-slot invariant: the PRP is a
/// bijection, so within one dispatch each block slot is written exactly
/// once, by exactly one job, and nothing reads the arena until the
/// dispatch has joined.
struct ScatterView {
    base: *mut u8,
    len: usize,
}

// SAFETY: `base` points into the encoder's arena, which outlives every
// dispatch and is not otherwise touched while one runs; `len` is never
// written; writes through `base` from distinct threads never overlap (see
// above).
unsafe impl Send for ScatterView {}
unsafe impl Sync for ScatterView {}

impl ScatterView {
    /// Writes one block at byte offset `at`.
    ///
    /// # Safety
    ///
    /// No concurrent access to the same byte range; the arena must still
    /// be live.
    unsafe fn write_block(&self, at: usize, block: &[u8]) {
        assert!(
            block.len() == BLOCK_BYTES && at + BLOCK_BYTES <= self.len,
            "write past the arena"
        );
        std::ptr::copy_nonoverlapping(block.as_ptr(), self.base.add(at), BLOCK_BYTES);
    }
}

/// Runs one dispatch: inline on the calling thread with one worker (or
/// one job), otherwise over the shared work-stealing pool.
fn dispatch(threads: usize, jobs: Vec<Job>) {
    if threads == 1 || jobs.len() <= 1 {
        jobs.into_iter().for_each(|job| job());
    } else {
        run_jobs(threads, jobs);
    }
}

/// The streaming five-step encoder: feed input with
/// [`StreamingEncoder::push`], close with [`StreamingEncoder::finish`].
///
/// Construct via [`crate::encode::PorEncoder::begin_encode`]. The total
/// input length must be declared up front: the block permutation spans
/// the whole encoded file, so its domain (and every segment's final
/// position) depends on it.
pub struct StreamingEncoder {
    layout: SegmentLayout,
    coder: ChunkCoder,
    mac: TruncatedMac,
    /// Per-file MAC key schedule: HMAC pad midstates hoisted out of the
    /// per-segment tag.
    mac_sched: HmacKeySchedule,
    file_id: String,
    /// Worker threads per dispatch (1 = every job runs inline).
    threads: usize,
    /// Input of the chunk in progress, always shorter than one chunk.
    partial: Vec<u8>,
    fed: u64,
    /// Chunks scattered so far.
    next_chunk: u64,
    /// The destination: segment `i` at byte `i × segment_bytes`,
    /// zero-initialised, so padding blocks and tag areas need no write
    /// before the tag pass.
    arena: Vec<u8>,
}

impl std::fmt::Debug for StreamingEncoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingEncoder")
            .field("layout", &self.layout)
            .field("fed", &self.fed)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl StreamingEncoder {
    pub(crate) fn new(
        code: BlockCode,
        params: PorParams,
        keys: &PorKeys,
        file_id: &str,
        total_len: u64,
        threads: usize,
    ) -> Self {
        let layout = SegmentLayout::for_len(params, total_len);
        StreamingEncoder {
            coder: ChunkCoder::new(code, keys, layout.encoded_blocks()),
            mac: TruncatedMac::new(params.tag_bits),
            mac_sched: HmacKeySchedule::new(keys.mac_key()),
            file_id: file_id.to_owned(),
            threads: threads.clamp(1, 256),
            partial: Vec::with_capacity(layout.chunk_bytes()),
            fed: 0,
            next_chunk: 0,
            arena: vec![0u8; layout.stored_bytes() as usize],
            layout,
        }
    }

    /// Feeds the next `data` bytes of the input. Chunking is free-form:
    /// the whole chunks a push completes are encoded in one dispatch, and
    /// only a partial chunk is kept for the next push.
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
        self.fed += data.len() as u64;
        stream_metrics().bytes.add(data.len() as u64);
        let chunk_bytes = self.layout.chunk_bytes();
        if !self.partial.is_empty() {
            let take = (chunk_bytes - self.partial.len()).min(data.len());
            self.partial.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.partial.len() < chunk_bytes {
                return;
            }
        }
        let (whole, tail) = data.split_at(data.len() - data.len() % chunk_bytes);
        // `head` is the topped-up chunk, or empty.
        let mut head = std::mem::take(&mut self.partial);
        let count = usize::from(!head.is_empty()) + whole.len() / chunk_bytes;
        self.scatter(&head, whole, count);
        head.clear();
        head.extend_from_slice(tail);
        self.partial = head;
    }

    /// Encodes the ragged or owed last chunk, tags every segment, and
    /// returns the finished arena.
    ///
    /// # Panics
    ///
    /// Panics if fewer bytes than the declared total length were fed.
    pub fn finish(mut self) -> TaggedArena {
        assert_eq!(
            self.fed,
            self.layout.original_len(),
            "finish called after {} of {} declared bytes",
            self.fed,
            self.layout.original_len()
        );
        // A ragged tail may remain, and an empty input still owes its
        // single all-zero chunk.
        let remaining = (self.layout.chunks() - self.next_chunk) as usize;
        let tail = std::mem::take(&mut self.partial);
        self.scatter(&[], &tail, remaining);
        self.tag();
        TaggedArena {
            buf: Bytes::from(self.arena),
            stride: self.layout.segment_bytes(),
            metadata: self.layout.metadata(&self.file_id),
        }
    }

    /// The scatter pass over the next `count` chunks of the file, in one
    /// dispatch: `head` (when not empty) is the first chunk, and `body`
    /// holds the rest back to back. Absent bytes — a ragged tail, or a
    /// chunk owed past the input — are zero.
    fn scatter(&mut self, head: &[u8], body: &[u8], count: usize) {
        let chunk_bytes = self.layout.chunk_bytes();
        let v = self.layout.params().segment_blocks as u64;
        let stride = self.layout.segment_bytes();
        let first = self.next_chunk;
        let coder = &self.coder;
        let view = &ScatterView {
            base: self.arena.as_mut_ptr(),
            len: self.arena.len(),
        };
        let input = move |i: usize| match (head.is_empty(), i) {
            (false, 0) => head,
            (false, i) => chunk_of(body, i - 1, chunk_bytes),
            (true, i) => chunk_of(body, i, chunk_bytes),
        };
        let group = count.div_ceil(self.threads * JOBS_PER_WORKER).max(1);
        let jobs: Vec<Job> = (0..count)
            .step_by(group)
            .map(|lo| {
                Box::new(move || {
                    for i in lo..(lo + group).min(count) {
                        let (ciphertext, dsts) = coder.encode(first + i as u64, input(i));
                        for (block, dst) in ciphertext.chunks_exact(BLOCK_BYTES).zip(dsts) {
                            let at = (dst / v) as usize * stride + (dst % v) as usize * BLOCK_BYTES;
                            // SAFETY: the PRP is a bijection — this
                            // dispatch writes each block slot exactly
                            // once, from exactly one job.
                            unsafe { view.write_block(at, block) };
                        }
                    }
                }) as Job
            })
            .collect();
        dispatch(self.threads, jobs);
        self.next_chunk += count as u64;
    }

    /// The tag pass: MACs every segment body in index order and writes
    /// `τ_i = MAC_K′(S_i, i, fid)` after it, one job per contiguous range
    /// of segments.
    fn tag(&mut self) {
        let stride = self.layout.segment_bytes();
        let body_bytes = self.layout.body_bytes();
        let segments = self.layout.segments() as usize;
        let per_job = segments.div_ceil(self.threads * JOBS_PER_WORKER).max(1);
        let (mac, mac_sched, file_id) = (&self.mac, &self.mac_sched, &*self.file_id);
        let jobs: Vec<Job> = self
            .arena
            .chunks_mut(per_job * stride)
            .enumerate()
            .map(|(j, range)| {
                Box::new(move || {
                    for (s, segment) in range.chunks_exact_mut(stride).enumerate() {
                        let index = (j * per_job + s) as u64;
                        let (body, tag) = segment.split_at_mut(body_bytes);
                        mac.truncate(&segment_mac(mac_sched.start(), body, index, file_id), tag);
                    }
                }) as Job
            })
            .collect();
        dispatch(self.threads, jobs);
        stream_metrics().sealed.add(segments as u64);
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

/// The raw input bytes of chunk `index` of `data` — possibly short (a
/// ragged tail) or empty (an owed all-zero chunk past the input).
fn chunk_of(data: &[u8], index: usize, chunk_bytes: usize) -> &[u8] {
    let start = index * chunk_bytes;
    if start >= data.len() {
        &[]
    } else {
        &data[start..(start + chunk_bytes).min(data.len())]
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
            let mut stream = enc.begin_encode(&k, "sf", data.len() as u64);
            for piece in data.chunks(chunk_size) {
                stream.push(piece);
            }
            let arena = stream.finish();
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
    fn every_worker_count_tags_every_segment_like_the_batch_encoder() {
        let enc = PorEncoder::new(PorParams::test_small());
        let k = keys();
        // 230 chunks of 176 B: at every worker count each push below
        // spans several dispatch groups, and the tail chunk is ragged.
        let data = sample(40_000 + 37);
        let batch = enc.encode(&data, &k, "sf");
        for threads in [1usize, 2, 4] {
            let mut stream = enc.begin_encode_threads(&k, "sf", data.len() as u64, threads);
            for piece in data.chunks(9_000) {
                stream.push(piece);
            }
            let arena = stream.finish();
            assert_eq!(arena.metadata(), &batch.metadata, "threads {threads}");
            for (i, seg) in arena.iter().enumerate() {
                assert!(
                    enc.verify_segment(k.mac_key(), "sf", i as u64, &seg),
                    "segment {i} fails its tag at {threads} threads"
                );
                assert_eq!(seg, batch.segments[i], "segment {i}, threads {threads}");
            }
        }
    }

    #[test]
    fn empty_input_produces_one_padded_chunk() {
        let enc = PorEncoder::new(PorParams::test_small());
        let arena = enc.begin_encode(&keys(), "sf", 0).finish();
        assert_eq!(arena.metadata().raw_blocks, 1);
        assert_eq!(arena.metadata().encoded_blocks, 15);
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
        let mut stream = enc.begin_encode(&keys(), "sf", 4);
        stream.push(&[0u8; 5]);
    }

    #[test]
    #[should_panic(expected = "finish called after")]
    fn underfeeding_panics() {
        let enc = PorEncoder::new(PorParams::test_small());
        let mut stream = enc.begin_encode(&keys(), "sf", 64);
        stream.push(&[0u8; 10]);
        let _ = stream.finish();
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
