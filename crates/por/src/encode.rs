//! The five-step POR setup phase and its inverse, the extractor.
//!
//! Encoding (paper §V-A):
//!
//! 1. split the file into ℓ_B = 128-bit blocks,
//! 2. group into k-block chunks and Reed–Solomon encode each → F′,
//! 3. encrypt: F″ = E_K(F′) (AES-128-CTR),
//! 4. reorder blocks with a pseudorandom permutation → F‴,
//! 5. segment into v-block segments, append τ_i = MAC_K′(S_i, i, fid) → F̃.
//!
//! Extraction reverses the pipeline and is robust to bounded corruption:
//! segments failing MAC verification become *erasures* for the RS decoder,
//! which the PRP has scattered uniformly across chunks.

use crate::keys::PorKeys;
use crate::params::PorParams;
use crate::stream::{ChunkCoder, StreamingEncoder, TaggedArena};
use geoproof_crypto::hmac::{HmacSha256, TruncatedMac};
use geoproof_crypto::sha256::DIGEST_LEN;
use geoproof_ecc::block_code::{Block, BlockCode, BLOCK_BYTES};

/// Metadata the owner (and TPA) retain about an encoded file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileMetadata {
    /// File identifier bound into every tag.
    pub file_id: String,
    /// Original byte length (for exact un-padding).
    pub original_len: u64,
    /// Block count before coding (b).
    pub raw_blocks: u64,
    /// Block count after Reed–Solomon coding (b′).
    pub encoded_blocks: u64,
    /// Number of stored segments (ñ).
    pub segments: u64,
}

/// An encoded, tagged file ready for upload: ordered segments, each
/// `v` blocks followed by the truncated tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaggedFile {
    /// Segment bytes, index = segment number.
    pub segments: Vec<Vec<u8>>,
    /// Retained metadata.
    pub metadata: FileMetadata,
}

/// Errors from extraction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExtractError {
    /// Too many segments were corrupt for the error-correcting code.
    TooCorrupt {
        /// Index of the first chunk that failed to decode.
        chunk: usize,
    },
    /// Segment list length does not match the metadata.
    WrongSegmentCount {
        /// Expected number of segments.
        expected: u64,
        /// Provided number of segments.
        actual: usize,
    },
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::TooCorrupt { chunk } => {
                write!(f, "chunk {chunk} exceeded error-correction capacity")
            }
            ExtractError::WrongSegmentCount { expected, actual } => {
                write!(f, "expected {expected} segments, got {actual}")
            }
        }
    }
}

impl std::error::Error for ExtractError {}

/// The POR encoder/extractor for one parameter set.
#[derive(Clone, Debug)]
pub struct PorEncoder {
    params: PorParams,
    code: BlockCode,
}

impl PorEncoder {
    /// Creates an encoder; validates `params`.
    pub fn new(params: PorParams) -> Self {
        params.validate();
        PorEncoder {
            code: BlockCode::new(params.rs_n, params.rs_k),
            params,
        }
    }

    /// The parameter set in use.
    pub fn params(&self) -> &PorParams {
        &self.params
    }

    /// Runs the full five-step setup on `data`, producing the tagged file
    /// with one owned `Vec<u8>` per segment.
    ///
    /// Thin wrapper over the streaming pipeline (see [`crate::stream`]):
    /// output bytes are identical; only the allocation shape differs from
    /// [`PorEncoder::encode_arena`], which callers on the hot path should
    /// prefer.
    pub fn encode(&self, data: &[u8], keys: &PorKeys, file_id: &str) -> TaggedFile {
        self.encode_arena(data, keys, file_id).to_tagged_file()
    }

    /// Runs the five-step setup into one contiguous arena: segment `i` is
    /// a zero-copy [`bytes::Bytes`] view at stride `i`. This is the
    /// upload format the storage and wire layers serve without copying.
    pub fn encode_arena(&self, data: &[u8], keys: &PorKeys, file_id: &str) -> TaggedArena {
        self.encode_arena_threads(data, keys, file_id, 1)
    }

    /// [`PorEncoder::encode_arena`] with the encode work fanned out over
    /// `threads` pool workers (see [`crate::stream`]). The output arena is
    /// bit-identical at every thread count; pass
    /// [`crate::stream::default_encode_threads`] to follow the machine.
    pub fn encode_arena_threads(
        &self,
        data: &[u8],
        keys: &PorKeys,
        file_id: &str,
        threads: usize,
    ) -> TaggedArena {
        let mut stream = self.begin_encode_threads(keys, file_id, data.len() as u64, threads);
        stream.push(data);
        stream.finish()
    }

    /// Starts a streaming encode of a `total_len`-byte input into an
    /// encoder-owned arena.
    ///
    /// Feed the input with [`StreamingEncoder::push`] in chunks of any
    /// size; working memory beyond the arena stays under one Reed–Solomon
    /// chunk plus per-job scratch, instead of several copies of the whole
    /// file. [`StreamingEncoder::finish`] returns the [`TaggedArena`].
    pub fn begin_encode(&self, keys: &PorKeys, file_id: &str, total_len: u64) -> StreamingEncoder {
        self.begin_encode_threads(keys, file_id, total_len, 1)
    }

    /// [`PorEncoder::begin_encode`] on `threads` pool workers: each push's
    /// whole Reed–Solomon chunks are encoded, encrypted and PRP-scattered
    /// in one dispatch, and `finish` tags the segments in one more (see
    /// [`crate::stream`]). Output is bit-identical to `threads = 1`.
    pub fn begin_encode_threads(
        &self,
        keys: &PorKeys,
        file_id: &str,
        total_len: u64,
        threads: usize,
    ) -> StreamingEncoder {
        StreamingEncoder::new(
            self.code.clone(),
            self.params,
            keys,
            file_id,
            total_len,
            threads,
        )
    }

    /// Verifies one segment's embedded tag (what the TPA does per
    /// challenged segment: `τ_cj = MAC_K′(S_cj, c_j, fid)`).
    pub fn verify_segment(
        &self,
        mac_key: &[u8; 32],
        file_id: &str,
        index: u64,
        segment: &[u8],
    ) -> bool {
        let p = &self.params;
        if segment.len() != p.segment_bytes() {
            return false;
        }
        let (body, tag) = segment.split_at(p.segment_blocks * BLOCK_BYTES);
        let full = segment_mac(HmacSha256::new(mac_key), body, index, file_id);
        TruncatedMac::new(p.tag_bits).matches(&full, tag)
    }

    /// Recovers the original file from (possibly corrupted) segments.
    ///
    /// Corrupt segments are detected by their tags and handed to the
    /// Reed–Solomon decoder as erasures.
    ///
    /// # Errors
    ///
    /// [`ExtractError::TooCorrupt`] when a chunk exceeds the code's
    /// correction capacity; [`ExtractError::WrongSegmentCount`] on length
    /// mismatch.
    pub fn extract<S: AsRef<[u8]>>(
        &self,
        segments: &[S],
        keys: &PorKeys,
        metadata: &FileMetadata,
    ) -> Result<Vec<u8>, ExtractError> {
        let p = &self.params;
        if segments.len() as u64 != metadata.segments {
            return Err(ExtractError::WrongSegmentCount {
                expected: metadata.segments,
                actual: segments.len(),
            });
        }
        let encoded_blocks = metadata.encoded_blocks as usize;
        // Gather permuted blocks; remember which are trustworthy.
        let mut permuted: Vec<Block> = vec![[0u8; BLOCK_BYTES]; encoded_blocks];
        let mut block_ok = vec![false; encoded_blocks];
        for (s, seg) in segments.iter().enumerate() {
            let seg = seg.as_ref();
            let ok = self.verify_segment(keys.mac_key(), &metadata.file_id, s as u64, seg);
            for j in 0..p.segment_blocks {
                let idx = s * p.segment_blocks + j;
                if idx >= encoded_blocks {
                    break;
                }
                if ok {
                    permuted[idx].copy_from_slice(&seg[j * BLOCK_BYTES..(j + 1) * BLOCK_BYTES]);
                }
                block_ok[idx] = ok;
            }
        }
        // Chunk by chunk: un-permute, decrypt and RS-decode with the
        // untrusted blocks as erasures.
        let coder = ChunkCoder::new(self.code.clone(), keys, metadata.encoded_blocks);
        let chunks = encoded_blocks / p.rs_n;
        let mut blocks: Vec<Block> = Vec::with_capacity(chunks * p.rs_k);
        for c in 0..chunks {
            let data = coder
                .decode(c as u64, &permuted, &block_ok)
                .map_err(|_| ExtractError::TooCorrupt { chunk: c })?;
            blocks.extend(data);
        }
        // Drop chunk padding and un-pad to the original byte length.
        blocks.truncate(metadata.raw_blocks as usize);
        let mut out = Vec::with_capacity(metadata.original_len as usize);
        for b in &blocks {
            out.extend_from_slice(b);
        }
        out.truncate(metadata.original_len as usize);
        Ok(out)
    }
}

/// The full (untruncated) segment MAC `MAC_K′(S_i, i, fid)` over
/// body ‖ index ‖ fid, fed from `h` (a fresh or precomputed-key HMAC) —
/// the one owner of the static tag layout, for the tagger and the
/// verifier alike.
pub(crate) fn segment_mac(
    mut h: HmacSha256,
    body: &[u8],
    index: u64,
    file_id: &str,
) -> [u8; DIGEST_LEN] {
    h.update(body);
    h.update(&index.to_be_bytes());
    h.update(file_id.as_bytes());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoproof_crypto::chacha::ChaChaRng;

    fn encoder() -> PorEncoder {
        PorEncoder::new(PorParams::test_small())
    }

    fn keys() -> PorKeys {
        PorKeys::derive(b"owner-master-secret", "file-7")
    }

    fn sample_data(len: usize) -> Vec<u8> {
        let mut rng = ChaChaRng::from_u64_seed(7);
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    #[test]
    fn encode_extract_roundtrip_clean() {
        let enc = encoder();
        let k = keys();
        for len in [1usize, 15, 16, 17, 1000, 5000] {
            let data = sample_data(len);
            let tagged = enc.encode(&data, &k, "file-7");
            let out = enc.extract(&tagged.segments, &k, &tagged.metadata).unwrap();
            assert_eq!(out, data, "len {len}");
        }
    }

    #[test]
    fn all_tags_verify_after_encode() {
        let enc = encoder();
        let k = keys();
        let tagged = enc.encode(&sample_data(2000), &k, "file-7");
        for (i, seg) in tagged.segments.iter().enumerate() {
            assert!(
                enc.verify_segment(k.mac_key(), "file-7", i as u64, seg),
                "segment {i}"
            );
        }
    }

    #[test]
    fn tag_bound_to_index_and_fid() {
        let enc = encoder();
        let k = keys();
        let tagged = enc.encode(&sample_data(2000), &k, "file-7");
        let seg = &tagged.segments[0];
        assert!(
            !enc.verify_segment(k.mac_key(), "file-7", 1, seg),
            "index swap"
        );
        assert!(
            !enc.verify_segment(k.mac_key(), "file-8", 0, seg),
            "fid swap"
        );
    }

    #[test]
    fn corruption_is_detected_by_tag() {
        let enc = encoder();
        let k = keys();
        let mut tagged = enc.encode(&sample_data(2000), &k, "file-7");
        tagged.segments[3][0] ^= 0x01;
        assert!(!enc.verify_segment(k.mac_key(), "file-7", 3, &tagged.segments[3]));
    }

    #[test]
    fn extract_repairs_bounded_corruption() {
        // RS(15,11): t = 2 errors per 15-block chunk, 4 erasures. With the
        // PRP scattering, a couple of corrupted segments (v = 2 blocks each)
        // should always be recoverable for this size.
        let enc = encoder();
        let k = keys();
        let data = sample_data(4000);
        let mut tagged = enc.encode(&data, &k, "file-7");
        tagged.segments[1][5] ^= 0xff;
        tagged.segments[7][20] ^= 0xff;
        let out = enc.extract(&tagged.segments, &k, &tagged.metadata).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn extract_fails_cleanly_when_overwhelmed() {
        let enc = encoder();
        let k = keys();
        let data = sample_data(4000);
        let mut tagged = enc.encode(&data, &k, "file-7");
        // Corrupt most segments: far beyond capacity.
        for seg in tagged.segments.iter_mut().step_by(2) {
            seg[0] ^= 0xff;
        }
        match enc.extract(&tagged.segments, &k, &tagged.metadata) {
            Err(ExtractError::TooCorrupt { .. }) => {}
            other => panic!("expected TooCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn extract_rejects_wrong_segment_count() {
        let enc = encoder();
        let k = keys();
        let tagged = enc.encode(&sample_data(1000), &k, "file-7");
        let short = &tagged.segments[..tagged.segments.len() - 1];
        assert!(matches!(
            enc.extract(short, &k, &tagged.metadata),
            Err(ExtractError::WrongSegmentCount { .. })
        ));
    }

    #[test]
    fn wrong_keys_fail_every_tag() {
        let enc = encoder();
        let tagged = enc.encode(&sample_data(1000), &keys(), "file-7");
        let other = PorKeys::derive(b"other-master", "file-7");
        let ok = tagged
            .segments
            .iter()
            .enumerate()
            .filter(|(i, s)| enc.verify_segment(other.mac_key(), "file-7", *i as u64, s))
            .count();
        // 16-bit tags: stray collisions possible but vanishingly unlikely
        // across a handful of segments.
        assert_eq!(ok, 0);
    }

    #[test]
    fn metadata_counts_are_consistent() {
        let enc = encoder();
        let tagged = enc.encode(&sample_data(5000), &keys(), "file-7");
        let md = &tagged.metadata;
        assert_eq!(md.raw_blocks, 5000u64.div_ceil(16));
        assert_eq!(md.encoded_blocks % 15, 0);
        assert_eq!(md.segments as usize, tagged.segments.len());
        assert_eq!(md.segments, md.encoded_blocks.div_ceil(2));
    }

    #[test]
    fn paper_params_roundtrip_small_file() {
        // Full (255, 223) pipeline on a 100 KB file.
        let enc = PorEncoder::new(PorParams::paper());
        let k = keys();
        let data = sample_data(100_000);
        let tagged = enc.encode(&data, &k, "file-7");
        assert_eq!(tagged.segments[0].len(), 83); // 5×16 + 3
        let out = enc.extract(&tagged.segments, &k, &tagged.metadata).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn ciphertext_blocks_look_random() {
        // The stored segments must not contain the plaintext.
        let enc = encoder();
        let k = keys();
        let data = vec![0u8; 2000]; // highly structured plaintext
        let tagged = enc.encode(&data, &k, "file-7");
        let zero_blocks = tagged
            .segments
            .iter()
            .flat_map(|s| s[..32].chunks(16))
            .filter(|b| b.iter().all(|&x| x == 0))
            .count();
        assert_eq!(zero_blocks, 0, "plaintext zeros leaked into storage");
    }
}
