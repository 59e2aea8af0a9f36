//! Segment rotation and compaction: bounding live-ledger size without
//! giving up whole-history verifiability.
//!
//! A ledger that records every audit verdict forever grows without
//! bound, and replaying it from byte zero grows with it. [`rotate`]
//! seals the live file under a final checkpoint and renames it to
//! `<path>.seg-<k>`; a fresh live file continues the chain, its header
//! carrying a [`Continuation`] block — previous head, global base
//! ordinal, and a Merkle-forest digest rolled over every earlier
//! segment's final checkpoint root ([`forest_push`]). Because the
//! header feeds the genesis hash, every seal and every TPA-signed v2
//! checkpoint in the new segment commits to the entire history.
//!
//! [`compact`] then shrinks a sealed segment to a summary file
//! (`<seg>.cseg`): the original header, the final TPA-signed
//! checkpoint, and one `(chain index, tag, seal)` triple per sealed
//! leaf. The payload bodies move aside verbatim as `<seg>.arc`. The
//! summary alone still verifies **from the TPA key only** — signature,
//! coverage, and the Merkle root recomputed over the retained seals —
//! and still serves the sibling paths an [`InclusionProof`] needs, so
//! proofs stay O(log n) across live and compacted segments alike.
//!
//! ## Trust boundary of a compacted segment
//!
//! Dropping the archive drops the *bodies*, so verdict re-derivation
//! for that segment is no longer possible — the summary proves the TPA
//! committed to exactly those seals, not that the verdicts behind them
//! re-derive. [`verify_chain`] therefore fully replays every segment
//! whose bytes are still present (live, rotated, or archived) and falls
//! back to summary verification only where the archive is gone;
//! [`prove_global`] needs the archive to extract a record body.

use crate::chain::{forest_push, Digest, FOREST_EMPTY};
use crate::proof::InclusionProof;
use crate::reader::{checkpoint_message_for, Checkpoint, Continuation, Entry, Header, Ledger};
use crate::verify::{replay, OwnerKeys, ReplayOutcome};
use crate::writer::LedgerWriter;
use crate::LedgerError;
use bytes::Bytes;
use geoproof_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use geoproof_por::merkle::MerkleTree;
use std::path::{Path, PathBuf};

/// Summary-file magic (8 bytes).
const SUMMARY_MAGIC: &[u8; 8] = b"GPEVSEG1";

/// `<path>.seg-<k>`: sealed segment `k` of the chain rooted at `path`.
fn segment_path(path: &Path, segment: u32) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(format!(".seg-{segment}"));
    PathBuf::from(os)
}

/// `<seg>.cseg` / `<seg>.arc` next to a sealed segment file.
fn suffixed(seg: &Path, suffix: &str) -> PathBuf {
    let mut os = seg.as_os_str().to_owned();
    os.push(suffix);
    PathBuf::from(os)
}

/// Where one sealed segment's bytes live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SegmentSource {
    /// The full rotated file, not yet compacted.
    Full(PathBuf),
    /// A compacted segment: the `.cseg` summary, plus the `.arc`
    /// archive when it is still around.
    Compacted {
        /// Path of the summary file.
        summary: PathBuf,
        /// Path of the archived original, if present.
        archive: Option<PathBuf>,
    },
}

/// Finds the sealed segments of the chain rooted at the live file
/// `path`, in segment order: `<path>.seg-k` or `<path>.seg-k.cseg` for
/// consecutive `k` from 0. Stops at the first gap.
///
/// # Errors
///
/// Currently infallible (kept fallible for symmetry with the other
/// chain operations).
pub fn discover(path: impl AsRef<Path>) -> Result<Vec<SegmentSource>, LedgerError> {
    let path = path.as_ref();
    let mut out = Vec::new();
    for k in 0u32.. {
        let seg = segment_path(path, k);
        if seg.exists() {
            out.push(SegmentSource::Full(seg));
            continue;
        }
        let summary = suffixed(&seg, ".cseg");
        if summary.exists() {
            let archive = suffixed(&seg, ".arc");
            out.push(SegmentSource::Compacted {
                summary,
                archive: archive.exists().then_some(archive),
            });
            continue;
        }
        break;
    }
    Ok(out)
}

/// What [`rotate`] did.
#[derive(Clone, Debug)]
pub struct RotationOutcome {
    /// Where the sealed segment now lives (`<path>.seg-<k>`).
    pub sealed_segment: PathBuf,
    /// The sealed segment's number.
    pub segment: u32,
    /// Sealed leaves in the sealed segment.
    pub sealed_leaves: u64,
    /// The new live file's segment number.
    pub next_segment: u32,
}

/// Seals the live ledger at `path` under a final checkpoint, renames it
/// to `<path>.seg-<k>`, and starts a fresh live file whose header
/// chains to it (previous head, cumulative base ordinal, forest
/// digest). Requires the TPA *signing* key — rotation commits a
/// checkpoint.
///
/// # Errors
///
/// Everything [`LedgerWriter::open`] can raise, plus
/// [`LedgerError::Segment`] for an empty segment (nothing to seal) or a
/// target segment file already in the way.
pub fn rotate(
    path: impl AsRef<Path>,
    tpa: &SigningKey,
    seed: u64,
) -> Result<RotationOutcome, LedgerError> {
    let path = path.as_ref();
    let (mut w, _recovery) = LedgerWriter::open(path, tpa, seed)?;
    if w.evidence_count() == 0 {
        return Err(LedgerError::Segment(
            "refusing to rotate a segment with no sealed records",
        ));
    }
    w.finish()?;
    let header = *w.header();
    let segment = header.segment();
    let sealed = w.evidence_count();
    let head = w.head();
    let root = w
        .current_root()
        .expect("a non-empty segment has a Merkle root");
    let sealed_path = segment_path(path, segment);
    if sealed_path.exists() {
        return Err(LedgerError::Segment(
            "target segment file already exists; was the chain rotated by hand?",
        ));
    }
    // Rename while still holding the writer lock (the open file handle
    // survives the rename), then release it so the new live file can
    // take the same `<path>.lock`.
    std::fs::rename(path, &sealed_path)?;
    let forest_prev = header.continuation.map_or(FOREST_EMPTY, |c| c.forest_prev);
    drop(w);
    let continuation = Continuation {
        segment: segment + 1,
        base_sealed: header.base_sealed() + sealed,
        prev_head: head,
        forest_prev: forest_push(&forest_prev, segment, &root),
    };
    LedgerWriter::create_segment(path, tpa, header.interval, seed, Some(continuation))?;
    Ok(RotationOutcome {
        sealed_segment: sealed_path,
        segment,
        sealed_leaves: sealed,
        next_segment: segment + 1,
    })
}

/// One sealed leaf retained by a segment summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SummaryLeaf {
    /// The record's chain index within its segment file.
    pub chain_index: u64,
    /// The record body's tag byte (evidence, dynamic, digest, position).
    pub tag: u8,
    /// The record's seal — the Merkle leaf checkpoints commit.
    pub seal: Digest,
}

/// A compacted segment: everything needed to verify the segment's place
/// in the chain and serve Merkle paths, without the record bodies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentSummary {
    /// The original segment file's header, verbatim.
    pub header: Header,
    /// The segment's final chain head (seal of its last record).
    pub head: Digest,
    /// The final checkpoint, covering every sealed leaf.
    pub checkpoint: Checkpoint,
    /// Every sealed leaf, in ordinal order.
    pub leaves: Vec<SummaryLeaf>,
}

impl SegmentSummary {
    /// Serialises the summary.
    pub fn encode(&self) -> Vec<u8> {
        let header_bytes = self.header.encode();
        let mut out = Vec::with_capacity(170 + header_bytes.len() + 41 * self.leaves.len());
        out.extend_from_slice(SUMMARY_MAGIC);
        out.extend_from_slice(&(header_bytes.len() as u16).to_be_bytes());
        out.extend_from_slice(&header_bytes);
        out.extend_from_slice(&self.head);
        out.extend_from_slice(&self.checkpoint.covered.to_be_bytes());
        out.extend_from_slice(&self.checkpoint.root);
        out.extend_from_slice(&self.checkpoint.signature);
        out.extend_from_slice(&(self.leaves.len() as u64).to_be_bytes());
        for leaf in &self.leaves {
            out.extend_from_slice(&leaf.chain_index.to_be_bytes());
            out.push(leaf.tag);
            out.extend_from_slice(&leaf.seal);
        }
        out
    }

    /// Parses a serialised summary, strictly (trailing bytes refused).
    ///
    /// # Errors
    ///
    /// [`LedgerError::Segment`] naming the malformed field.
    pub fn decode(bytes: &Bytes) -> Result<SegmentSummary, LedgerError> {
        let bad = LedgerError::Segment;
        let mut c = geoproof_core::cursor::ByteCursor::new(bytes);
        let trunc = |_| bad("truncated summary");
        if c.take(8).map_err(trunc)?.as_ref() != SUMMARY_MAGIC {
            return Err(bad("summary magic"));
        }
        let header_len = c.take_u16().map_err(trunc)? as usize;
        let header_bytes = c.take(header_len).map_err(trunc)?;
        let header =
            Header::decode(header_bytes.as_ref()).map_err(|_| bad("embedded segment header"))?;
        if header.len() != header_len {
            return Err(bad("embedded segment header length"));
        }
        let head: Digest = c.take_array().map_err(trunc)?;
        let covered = c.take_u64().map_err(trunc)?;
        let root: Digest = c.take_array().map_err(trunc)?;
        let signature: [u8; 64] = c.take_array().map_err(trunc)?;
        let n = c.take_u64().map_err(trunc)?;
        if n != covered {
            return Err(bad("leaf count disagrees with checkpoint coverage"));
        }
        let mut leaves = Vec::with_capacity(n.min(1 << 20) as usize);
        for _ in 0..n {
            let chain_index = c.take_u64().map_err(trunc)?;
            let tag = c.take_array::<1>().map_err(trunc)?[0];
            let seal: Digest = c.take_array().map_err(trunc)?;
            leaves.push(SummaryLeaf {
                chain_index,
                tag,
                seal,
            });
        }
        if !c.at_end() {
            return Err(bad("trailing bytes"));
        }
        Ok(SegmentSummary {
            header,
            head,
            checkpoint: Checkpoint {
                covered,
                root,
                signature,
            },
            leaves,
        })
    }

    /// Reads and parses a summary file.
    ///
    /// # Errors
    ///
    /// I/O and [`SegmentSummary::decode`] failures.
    pub fn read(path: impl AsRef<Path>) -> Result<SegmentSummary, LedgerError> {
        SegmentSummary::decode(&Bytes::from(std::fs::read(path)?))
    }

    /// Verifies the summary from the TPA public key alone: the embedded
    /// key matches, the final checkpoint's signature is genuine over the
    /// version-correct message, it covers exactly the retained leaves,
    /// and the Merkle root recomputed over the leaf seals matches.
    ///
    /// # Errors
    ///
    /// [`LedgerError::TpaKeyMismatch`] or [`LedgerError::Segment`].
    pub fn verify(&self, tpa: &VerifyingKey) -> Result<(), LedgerError> {
        if self.header.tpa_key != tpa.to_bytes() {
            return Err(LedgerError::TpaKeyMismatch);
        }
        let message =
            checkpoint_message_for(&self.header, self.checkpoint.covered, &self.checkpoint.root);
        if !tpa.verify(&message, &Signature::from_bytes(&self.checkpoint.signature)) {
            return Err(LedgerError::Segment("final checkpoint TPA signature"));
        }
        if self.checkpoint.covered != self.leaves.len() as u64 || self.leaves.is_empty() {
            return Err(LedgerError::Segment(
                "final checkpoint coverage disagrees with the retained leaves",
            ));
        }
        let seals: Vec<Vec<u8>> = self.leaves.iter().map(|l| l.seal.to_vec()).collect();
        if MerkleTree::build(&seals).root() != self.checkpoint.root {
            return Err(LedgerError::Segment(
                "Merkle root over the retained seals disagrees with the checkpoint",
            ));
        }
        Ok(())
    }
}

/// What [`compact`] produced.
#[derive(Clone, Debug)]
pub struct CompactionOutcome {
    /// The summary file written (`<seg>.cseg`).
    pub summary: PathBuf,
    /// Where the original segment bytes went (`<seg>.arc`).
    pub archive: PathBuf,
    /// Sealed leaves retained in the summary.
    pub leaves: u64,
}

/// Compacts the sealed segment file at `seg_path`: writes the
/// `<seg>.cseg` summary and renames the original to `<seg>.arc`. The
/// segment must end in a checkpoint covering every sealed leaf (what
/// [`rotate`] guarantees).
///
/// # Errors
///
/// Read/parse failures of the segment, [`LedgerError::Segment`] for a
/// segment that is not finalized or a summary already in the way.
pub fn compact(seg_path: impl AsRef<Path>) -> Result<CompactionOutcome, LedgerError> {
    let seg_path = seg_path.as_ref();
    let ledger = Ledger::read(seg_path)?;
    let Some(last) = ledger.records().last() else {
        return Err(LedgerError::Segment("segment has no records"));
    };
    let Entry::Checkpoint(checkpoint) = &last.entry else {
        return Err(LedgerError::Segment(
            "segment does not end in a checkpoint; rotate before compacting",
        ));
    };
    if checkpoint.covered != ledger.sealed_count() || checkpoint.covered == 0 {
        return Err(LedgerError::Segment(
            "segment's final checkpoint does not cover every sealed leaf",
        ));
    }
    let leaves: Vec<SummaryLeaf> = ledger
        .records()
        .iter()
        .filter(|r| r.entry.is_sealed_leaf())
        .map(|r| SummaryLeaf {
            chain_index: r.index,
            tag: r.body.first().copied().unwrap_or(0),
            seal: r.seal,
        })
        .collect();
    let summary = SegmentSummary {
        header: *ledger.header(),
        head: ledger.head(),
        checkpoint: checkpoint.clone(),
        leaves,
    };
    let summary_path = suffixed(seg_path, ".cseg");
    let archive_path = suffixed(seg_path, ".arc");
    if summary_path.exists() || archive_path.exists() {
        return Err(LedgerError::Segment("segment is already compacted"));
    }
    std::fs::write(&summary_path, summary.encode())?;
    std::fs::rename(seg_path, &archive_path)?;
    Ok(CompactionOutcome {
        summary: summary_path,
        archive: archive_path,
        leaves: summary.leaves.len() as u64,
    })
}

/// What a successful [`verify_chain`] established.
#[derive(Clone, Debug)]
pub struct ChainOutcome {
    /// Sealed segments before the live file.
    pub segments: u32,
    /// Of those, how many are compacted (summary-only or with archive).
    pub compacted: u32,
    /// Full files replayed end to end (rotated segments, archives, and
    /// the live file).
    pub replayed: u32,
    /// Sealed leaves across the whole chain, live file included.
    pub total_sealed: u64,
    /// Evidence verdicts re-derived as ACCEPT across every replayed file.
    pub accepted: u64,
    /// Evidence verdicts re-derived as REJECT across every replayed file.
    pub rejected: u64,
    /// The forest digest over all sealed segments — what the live
    /// file's header commits to.
    pub forest: Digest,
    /// The live file's replay outcome.
    pub live: ReplayOutcome,
}

/// Checks one segment header's continuation block against the running
/// chain state.
fn check_continuation(
    header: &Header,
    segment: u32,
    base_sealed: u64,
    prev_head: Option<&Digest>,
    forest: &Digest,
) -> Result<(), LedgerError> {
    let err = |what| LedgerError::SegmentChain { segment, what };
    match (&header.continuation, prev_head) {
        (None, None) => Ok(()),
        (None, Some(_)) => Err(err("missing continuation block")),
        (Some(_), None) => Err(err("segment 0 must not carry a continuation block")),
        (Some(c), Some(prev)) => {
            if c.segment != segment {
                return Err(err("continuation names the wrong segment number"));
            }
            if c.base_sealed != base_sealed {
                return Err(err("continuation base ordinal disagrees with the chain"));
            }
            if c.prev_head != *prev {
                return Err(err("continuation head does not match the previous segment"));
            }
            if c.forest_prev != *forest {
                return Err(err("continuation forest digest disagrees with the chain"));
            }
            Ok(())
        }
    }
}

/// Verifies the whole segment chain rooted at live file `path` with
/// nothing but the TPA public key: every present full file (rotated
/// segment, archive, live) is fully replayed ([`replay`] — batched
/// Schnorr, verdict re-derivation, checkpoint roots); every compacted
/// segment's summary is verified ([`SegmentSummary::verify`]) and, when
/// the archive is still present, cross-checked against it byte-level
/// (header, head, and every leaf seal must agree); and every segment's
/// continuation block must agree with the heads, ordinals, and forest
/// digest its predecessors establish. Given the owner's keys, every
/// replay re-derives the recorded tag bits too.
///
/// # Errors
///
/// The first failed check: per-file structural/replay errors,
/// [`LedgerError::SegmentChain`] for cross-segment breaks,
/// [`LedgerError::Segment`] for summary-level failures.
pub fn verify_chain(
    path: impl AsRef<Path>,
    tpa: &VerifyingKey,
    owner: Option<&OwnerKeys<'_>>,
) -> Result<ChainOutcome, LedgerError> {
    let path = path.as_ref();
    let sources = discover(path)?;
    let mut base_sealed = 0u64;
    let mut prev_head: Option<Digest> = None;
    let mut forest = FOREST_EMPTY;
    let mut compacted = 0u32;
    let mut replayed = 0u32;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for (k, source) in sources.iter().enumerate() {
        let k = k as u32;
        let chain_err = |what| LedgerError::SegmentChain { segment: k, what };
        // Establish (header, head, leaves, final root) for segment k,
        // fully replaying whenever the bytes are present.
        let (header, head, leaves, final_root) = match source {
            SegmentSource::Full(seg) => {
                let ledger = Ledger::read(seg)?;
                let outcome = replay(&ledger, tpa, owner)?;
                accepted += outcome.accepted;
                rejected += outcome.rejected;
                replayed += 1;
                let Some(Entry::Checkpoint(c)) = ledger.records().last().map(|r| &r.entry) else {
                    return Err(chain_err("sealed segment does not end in a checkpoint"));
                };
                if c.covered != ledger.sealed_count() {
                    return Err(chain_err("final checkpoint does not cover the segment"));
                }
                (
                    *ledger.header(),
                    ledger.head(),
                    ledger.sealed_count(),
                    c.root,
                )
            }
            SegmentSource::Compacted { summary, archive } => {
                let summary = SegmentSummary::read(summary)?;
                summary.verify(tpa)?;
                compacted += 1;
                if let Some(arc) = archive {
                    let ledger = Ledger::read(arc)?;
                    let outcome = replay(&ledger, tpa, owner)?;
                    accepted += outcome.accepted;
                    rejected += outcome.rejected;
                    replayed += 1;
                    if *ledger.header() != summary.header
                        || ledger.head() != summary.head
                        || ledger.sealed_count() != summary.leaves.len() as u64
                    {
                        return Err(chain_err("archive disagrees with its summary"));
                    }
                    let mut ordinal = 0usize;
                    for record in ledger.records() {
                        if !record.entry.is_sealed_leaf() {
                            continue;
                        }
                        let leaf = &summary.leaves[ordinal];
                        if leaf.seal != record.seal || leaf.chain_index != record.index {
                            return Err(chain_err("archive leaf disagrees with its summary"));
                        }
                        ordinal += 1;
                    }
                }
                let leaves = summary.leaves.len() as u64;
                (
                    summary.header,
                    summary.head,
                    leaves,
                    summary.checkpoint.root,
                )
            }
        };
        check_continuation(&header, k, base_sealed, prev_head.as_ref(), &forest)?;
        if header.tpa_key != tpa.to_bytes() {
            return Err(LedgerError::TpaKeyMismatch);
        }
        forest = forest_push(&forest, k, &final_root);
        prev_head = Some(head);
        base_sealed += leaves;
    }
    let live = Ledger::read(path)?;
    check_continuation(
        live.header(),
        sources.len() as u32,
        base_sealed,
        prev_head.as_ref(),
        &forest,
    )?;
    let outcome = replay(&live, tpa, owner)?;
    accepted += outcome.accepted;
    rejected += outcome.rejected;
    replayed += 1;
    Ok(ChainOutcome {
        segments: sources.len() as u32,
        compacted,
        replayed,
        total_sealed: base_sealed + live.sealed_count(),
        accepted,
        rejected,
        forest,
        live: outcome,
    })
}

/// Builds the inclusion proof for **global** sealed ordinal `evidence`
/// across the whole segment chain rooted at `path` — live, rotated, or
/// compacted. For a compacted segment the record body comes from the
/// archive (the summary alone holds only seals); the archive's head is
/// cross-checked against the summary first.
///
/// # Errors
///
/// [`LedgerError::NotCovered`] (with the global ordinal) when no
/// segment holds it, [`LedgerError::Segment`] when the needed archive is
/// gone, plus per-file read errors.
pub fn prove_global(path: impl AsRef<Path>, evidence: u64) -> Result<InclusionProof, LedgerError> {
    let path = path.as_ref();
    let to_global = |e: LedgerError| match e {
        LedgerError::NotCovered { .. } => LedgerError::NotCovered { evidence },
        other => other,
    };
    for source in discover(path)? {
        match source {
            SegmentSource::Full(seg) => {
                let ledger = Ledger::read(&seg)?;
                let base = ledger.header().base_sealed();
                if evidence < base + ledger.sealed_count() {
                    let local = evidence
                        .checked_sub(base)
                        .ok_or(LedgerError::NotCovered { evidence })?;
                    return ledger.prove(local).map_err(to_global);
                }
            }
            SegmentSource::Compacted { summary, archive } => {
                let summary = SegmentSummary::read(&summary)?;
                let base = summary.header.base_sealed();
                let n = summary.leaves.len() as u64;
                if evidence < base + n {
                    let local = evidence
                        .checked_sub(base)
                        .ok_or(LedgerError::NotCovered { evidence })?;
                    let Some(arc) = archive else {
                        return Err(LedgerError::Segment(
                            "record body is in the archive, which is gone; \
                             only seal-level verification remains for this segment",
                        ));
                    };
                    let ledger = Ledger::read(&arc)?;
                    if ledger.head() != summary.head {
                        return Err(LedgerError::Segment("archive does not match its summary"));
                    }
                    // The archive is the original segment file verbatim,
                    // so its own prove() emits exactly the proof the
                    // uncompacted segment would have — byte-identical
                    // across compaction.
                    return ledger.prove(local).map_err(to_global);
                }
            }
        }
    }
    let live = Ledger::read(path)?;
    let base = live.header().base_sealed();
    let local = evidence
        .checked_sub(base)
        .ok_or(LedgerError::NotCovered { evidence })?;
    live.prove(local).map_err(to_global)
}
