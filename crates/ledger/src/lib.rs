//! # geoproof-ledger
//!
//! The durable evidence ledger: an append-only, hash-chained log of
//! audit verdicts that outlives the TPA process that produced them.
//!
//! GeoProof's deliverable is *evidence* — a signed timing transcript a
//! customer can take to an SLA dispute. Everything upstream of this
//! crate holds that evidence in memory only; here it becomes a file
//! with four properties:
//!
//! * **tamper-evident** — every record is sealed with
//!   `SHA256(prev ‖ record)`, so flipping any byte anywhere breaks the
//!   chain from that point on ([`Ledger::read`] refuses the file);
//! * **checkpointed** — a Merkle root over all evidence seals is
//!   periodically written (and TPA-signed) into the chain, enabling
//!   O(log n) [`InclusionProof`]s for a single audit round without
//!   shipping the whole log;
//! * **crash-safe** — a torn tail write (power loss mid-append) is
//!   detected and truncated on [`LedgerWriter::open`]; complete records
//!   are never discarded, and a seal mismatch on a *complete* record is
//!   corruption, reported and never auto-repaired;
//! * **independently re-verifiable** — [`replay`] re-checks chain
//!   hashes, checkpoint signatures, transcript signatures, and
//!   re-derives every verdict through
//!   [`geoproof_core::policy::TimingPolicy`], byte-comparing against
//!   the recorded verdicts, with nothing but the TPA public key.
//!
//! The wire into the rest of the stack is
//! [`geoproof_core::evidence::EvidenceSink`]: [`LedgerSink`] adapts a
//! [`LedgerWriter`] so `AuditEngine`, `run_fleet_with_evidence` and
//! `Deployment` can persist verdicts as they happen. Appends are
//! zero-copy in the payload: the canonical transcript [`bytes::Bytes`]
//! from the bundle goes straight to the file write, and reads hand back
//! slices of one file buffer.
//!
//! Format details and trust boundaries: `crates/ledger/docs/evidence.md`.
//!
//! # Example
//!
//! ```
//! use geoproof_core::deployment::DeploymentBuilder;
//! use geoproof_crypto::chacha::ChaChaRng;
//! use geoproof_crypto::schnorr::SigningKey;
//! use geoproof_geo::coords::places::BRISBANE;
//! use geoproof_ledger::{replay, Ledger, LedgerSink};
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join(format!("gp-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("evidence.log");
//!
//! // The TPA's ledger key (its public half is all a re-verifier needs).
//! let tpa = SigningKey::generate(&mut ChaChaRng::from_u64_seed(7));
//!
//! // Audit with a ledger sink attached…
//! let sink = Arc::new(LedgerSink::create(&path, &tpa, 4, 1).unwrap());
//! let mut d = DeploymentBuilder::new(BRISBANE)
//!     .evidence_sink(sink.clone())
//!     .build();
//! assert!(d.run_audit(6).accepted());
//! sink.finish().unwrap();
//!
//! // …then, cold, re-verify the file with only the public key.
//! let ledger = Ledger::read(&path).unwrap();
//! let outcome = replay(&ledger, &tpa.verifying_key(), None).unwrap();
//! assert_eq!(outcome.evidence, 1);
//! assert_eq!(outcome.accepted, 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod chain;
pub mod proof;
pub mod reader;
pub mod record;
pub mod segment;
pub mod sink;
pub mod verify;
pub mod writer;

pub use chain::{forest_push, genesis_hash, seal_hash, Digest, FOREST_EMPTY};
pub use proof::{CheckpointBinding, InclusionProof, VerifiedEvidence};
pub use reader::{Checkpoint, Continuation, Entry, Header, Ledger, Record};
pub use record::{DigestOp, DigestRecord, EvidenceKind, EvidenceRecord, PositionRecord, NO_DIGEST};
pub use segment::{
    compact, discover, prove_global, rotate, verify_chain, ChainOutcome, CompactionOutcome,
    RotationOutcome, SegmentSource, SegmentSummary,
};
pub use sink::LedgerSink;
pub use verify::{
    replay, replay_position_record, replay_record, replay_sequential, OwnerKeys, ReplayOutcome,
};
pub use writer::{LedgerWriter, Recovery, DEFAULT_CHECKPOINT_INTERVAL};

use geoproof_core::evidence::ReportDecodeError;
use geoproof_core::messages::TranscriptDecodeError;

/// Ledger file magic (8 bytes).
pub const MAGIC: &[u8; 8] = b"GPEVLOG1";

/// On-disk format version of a fresh (unrotated) ledger file.
pub const VERSION: u16 = 1;

/// On-disk format version of a rotated segment file, whose header
/// carries a [`Continuation`] block chaining it to its predecessors.
pub const VERSION_SEGMENTED: u16 = 2;

/// Everything that can go wrong reading, writing, or re-verifying a
/// ledger. Strict readers treat *any* of these as "do not trust this
/// file"; only [`LedgerError::TornTail`] is recoverable, and only by
/// the writer's explicit open-time truncation.
#[derive(Debug)]
pub enum LedgerError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// The file ends before the header completes.
    TruncatedHeader,
    /// The file ends mid-record: a torn tail write. `offset` is the
    /// last good record boundary (where a recovering writer truncates).
    TornTail {
        /// Byte offset of the last complete record boundary.
        offset: u64,
    },
    /// A complete record's seal does not match the chain — the file was
    /// tampered with or corrupted in place.
    SealMismatch {
        /// Chain index of the failing record.
        index: u64,
    },
    /// A sealed record body failed structural parsing.
    Malformed {
        /// Chain index of the failing record.
        index: u64,
        /// Which field failed.
        what: &'static str,
    },
    /// A checkpoint's TPA signature failed.
    CheckpointSignature {
        /// Chain index of the checkpoint.
        index: u64,
    },
    /// A checkpoint's Merkle root does not match the evidence seals it
    /// claims to cover.
    CheckpointRoot {
        /// Chain index of the checkpoint.
        index: u64,
    },
    /// A checkpoint's coverage count disagrees with the evidence
    /// actually preceding it.
    CheckpointCoverage {
        /// Chain index of the checkpoint.
        index: u64,
    },
    /// An evidence record's device key is not a curve point.
    BadDeviceKey {
        /// Evidence ordinal of the failing record.
        evidence: u64,
    },
    /// An evidence record's transcript bytes failed to parse.
    Transcript {
        /// Evidence ordinal of the failing record.
        evidence: u64,
        /// The transcript decoder's reason.
        source: TranscriptDecodeError,
    },
    /// An evidence record's stored report bytes failed to parse.
    Report {
        /// Evidence ordinal of the failing record.
        evidence: u64,
        /// The report decoder's reason.
        source: ReportDecodeError,
    },
    /// Replaying an evidence record produced a verdict whose canonical
    /// bytes differ from the recorded ones.
    VerdictMismatch {
        /// Evidence ordinal of the failing record.
        evidence: u64,
    },
    /// A supplied MAC checker disagreed with a recorded per-round MAC
    /// verdict.
    MacMismatch {
        /// Evidence ordinal of the failing record.
        evidence: u64,
    },
    /// Replaying a position record — recomputing the aggregate estimate
    /// from the recorded vantages — produced bytes that differ from the
    /// recorded ones.
    PositionMismatch {
        /// Chain index of the failing record.
        index: u64,
    },
    /// The ledger's embedded TPA key differs from the trusted one the
    /// caller supplied.
    TpaKeyMismatch,
    /// A dynamic file's digest chain broke: a transition that does not
    /// leave from the current digest, a transition before any init, or a
    /// dynamic audit issued against a digest that was not current.
    DigestChain {
        /// Chain index of the failing record.
        index: u64,
        /// What broke.
        what: &'static str,
    },
    /// No checkpoint covers the requested evidence record yet.
    NotCovered {
        /// Evidence ordinal of the uncovered record.
        evidence: u64,
    },
    /// An inclusion proof failed verification.
    BadProof(&'static str),
    /// A segment operation (rotation, compaction, summary parsing)
    /// could not proceed.
    Segment(&'static str),
    /// The segment chain broke: a segment's continuation block, final
    /// head, or forest digest disagrees with what its predecessors
    /// establish.
    SegmentChain {
        /// The offending segment number.
        segment: u32,
        /// What broke.
        what: &'static str,
    },
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::Io(e) => write!(f, "ledger I/O: {e}"),
            LedgerError::BadMagic => write!(f, "not a geoproof evidence ledger (bad magic)"),
            LedgerError::BadVersion(v) => write!(f, "unsupported ledger version {v}"),
            LedgerError::TruncatedHeader => write!(f, "file ends inside the ledger header"),
            LedgerError::TornTail { offset } => {
                write!(
                    f,
                    "torn tail write: file ends mid-record after offset {offset}"
                )
            }
            LedgerError::SealMismatch { index } => {
                write!(
                    f,
                    "record {index}: seal does not match chain (tampered or corrupt)"
                )
            }
            LedgerError::Malformed { index, what } => {
                write!(f, "record {index}: malformed body ({what})")
            }
            LedgerError::CheckpointSignature { index } => {
                write!(f, "record {index}: checkpoint TPA signature invalid")
            }
            LedgerError::CheckpointRoot { index } => {
                write!(f, "record {index}: checkpoint Merkle root mismatch")
            }
            LedgerError::CheckpointCoverage { index } => {
                write!(f, "record {index}: checkpoint coverage count mismatch")
            }
            LedgerError::BadDeviceKey { evidence } => {
                write!(
                    f,
                    "evidence {evidence}: device key is not a valid curve point"
                )
            }
            LedgerError::Transcript { evidence, source } => {
                write!(f, "evidence {evidence}: transcript bytes invalid: {source}")
            }
            LedgerError::Report { evidence, source } => {
                write!(f, "evidence {evidence}: recorded report invalid: {source}")
            }
            LedgerError::VerdictMismatch { evidence } => {
                write!(
                    f,
                    "evidence {evidence}: replayed verdict differs from recorded verdict"
                )
            }
            LedgerError::MacMismatch { evidence } => {
                write!(
                    f,
                    "evidence {evidence}: recorded MAC verdict contradicts re-derived MAC"
                )
            }
            LedgerError::PositionMismatch { index } => {
                write!(
                    f,
                    "record {index}: replayed position estimate differs from recorded estimate"
                )
            }
            LedgerError::TpaKeyMismatch => {
                write!(f, "ledger TPA key differs from the trusted key supplied")
            }
            LedgerError::DigestChain { index, what } => {
                write!(f, "record {index}: digest chain broken ({what})")
            }
            LedgerError::NotCovered { evidence } => {
                write!(f, "evidence {evidence}: not covered by any checkpoint yet")
            }
            LedgerError::BadProof(what) => write!(f, "inclusion proof invalid: {what}"),
            LedgerError::Segment(what) => write!(f, "segment operation failed: {what}"),
            LedgerError::SegmentChain { segment, what } => {
                write!(f, "segment {segment}: chain broken ({what})")
            }
        }
    }
}

impl std::error::Error for LedgerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LedgerError::Io(e) => Some(e),
            LedgerError::Transcript { source, .. } => Some(source),
            LedgerError::Report { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LedgerError {
    fn from(e: std::io::Error) -> Self {
        LedgerError::Io(e)
    }
}
