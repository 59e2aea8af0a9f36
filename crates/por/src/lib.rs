//! # geoproof-por
//!
//! Proofs of Retrievability (Juels–Kaliski, CCS'07) as used by GeoProof:
//!
//! * [`params`] — the paper's §V-A parameter set (ℓ_B = 128-bit blocks,
//!   RS(255, 223, 32), v = 5-block segments, 20-bit tags) and the
//!   storage-overhead arithmetic (≈ 14 % + 2.5 % ≈ 16.5 %);
//! * [`keys`] — per-file key derivation; the TPA receives only the MAC key;
//! * [`encode`] — the five-step MAC-based setup (split → RS → encrypt →
//!   permute → segment-and-tag) and the erasure-aware extractor;
//! * [`stream`] — the same pipeline as a bounded-memory, two-pass
//!   streaming encode (scatter, then tag in index order) straight into
//!   the contiguous [`stream::TaggedArena`], the zero-copy upload format
//!   (see `docs/datapath.md`);
//! * [`merkle`] / [`dynamic`] — the dynamic-POR extension the paper names
//!   (Wang et al. DPOR): Merkle-authenticated updates and appends;
//! * [`analysis`] — detection-probability analysis reproducing §V-C(a)'s
//!   "71.3 % per challenge" and "< 1 in 200,000 irretrievability" figures.
//!
//! # Examples
//!
//! ```
//! use geoproof_por::{encode::PorEncoder, keys::PorKeys, params::PorParams};
//!
//! let encoder = PorEncoder::new(PorParams::test_small());
//! let keys = PorKeys::derive(b"owner secret", "doc-1");
//! let tagged = encoder.encode(b"the quick brown fox", &keys, "doc-1");
//!
//! // Every stored segment carries a verifiable tag…
//! assert!(encoder.verify_segment(keys.mac_key(), "doc-1", 0, &tagged.segments[0]));
//! // …and the file extracts exactly.
//! let out = encoder.extract(&tagged.segments, &keys, &tagged.metadata).unwrap();
//! assert_eq!(out, b"the quick brown fox");
//! ```

pub mod analysis;
pub mod dynamic;
pub mod encode;
pub mod keys;
pub mod merkle;
pub mod params;
pub mod stream;

pub use analysis::{detection_probability, irretrievability_bound};
pub use dynamic::{
    tag_segment, verify_challenge, verify_tagged, DynamicDigest, DynamicError, DynamicOwner,
    DynamicStore, ProvenSegment,
};
pub use encode::{ExtractError, FileMetadata, PorEncoder, TaggedFile};
pub use keys::{AuditorKey, PorKeys};
pub use merkle::{MerkleProof, MerkleTree};
pub use params::PorParams;
pub use stream::{SegmentLayout, StreamingEncoder, TaggedArena};
