//! Strict, zero-copy ledger reading.
//!
//! [`Ledger::read`] loads the file into **one** shared buffer and
//! parses records as [`Bytes::slice`] views of it — record bodies,
//! recorded report bytes and transcript payloads all alias that single
//! allocation. Reading is *strict*: any chain break, malformed body, or
//! torn tail is an error. Recovery (truncating a torn tail) is a writer
//! decision ([`crate::writer::LedgerWriter::open`]), never something a
//! verifier does silently.
//!
//! Reading runs on every core. A cheap sequential framing pass reads
//! only the length prefixes, finding each complete record and the torn
//! tail; seal checks and body decodes then run per range of 1024
//! records through [`geoproof_core::pool::run_ordered`], and the ranges
//! are collected in chain order. Each record is checked against the
//! **stored** seal of its predecessor rather than the seal recomputed
//! for it, so no range waits on the one before. This accepts exactly
//! the files the sequential chain walk accepts, with the same first
//! error, by induction over the chain: if records `0..i` all pass,
//! each one's stored seal equals the chain value the walk computed for
//! it, so record `i` is checked against the same value in both readers
//! and passes or fails alike. The first failing record is therefore the
//! same in both; what either reader does with later records is never
//! reported, because ranges are consumed in order and the first error
//! stops the read. A bad record anywhere before a torn tail is that
//! error — the tail is only reported when every complete record passes.

use crate::chain::{genesis_hash, seal_hash, Digest};
use crate::proof::{CheckpointBinding, InclusionProof};
use crate::record::{
    DigestRecord, EvidenceRecord, PositionRecord, TAG_CHECKPOINT, TAG_DIGEST, TAG_DYN_EVIDENCE,
    TAG_EVIDENCE, TAG_POSITION,
};
use crate::{LedgerError, MAGIC, VERSION, VERSION_SEGMENTED};
use bytes::Bytes;
use geoproof_core::dynamic_audit::DynAuditRequest;
use geoproof_core::pool::run_ordered;
use geoproof_por::merkle::MerkleTree;
use std::path::Path;

/// Version-1 header length: magic ‖ version ‖ checkpoint interval ‖ TPA key.
pub(crate) const HEADER_LEN: usize = 8 + 2 + 4 + 32;

/// Version-2 header length: the v1 fields plus the segment-continuation
/// block (segment ‖ base_sealed ‖ prev_head ‖ forest_prev).
pub(crate) const HEADER_LEN_V2: usize = HEADER_LEN + 4 + 8 + 32 + 32;

/// The continuation block a rotated segment's header carries: where this
/// file sits in the segment chain. All four fields feed the genesis hash
/// (the header bytes are hashed whole), so every seal and checkpoint in
/// the segment commits to its predecessors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Continuation {
    /// This file's 0-based segment number (segment 0 is the original v1
    /// file and carries no continuation block).
    pub segment: u32,
    /// Sealed leaves in all earlier segments — this segment's leaf
    /// ordinals are globally `base_sealed + local`.
    pub base_sealed: u64,
    /// The previous segment's final chain head.
    pub prev_head: Digest,
    /// Merkle-forest digest over the final checkpoint roots of every
    /// earlier segment ([`crate::chain::forest_push`]).
    pub forest_prev: Digest,
}

/// The ledger file header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// On-disk format version (1, or 2 for a rotated segment).
    pub version: u16,
    /// Checkpoint interval the writer was configured with (0 = only
    /// explicit checkpoints).
    pub interval: u32,
    /// The TPA's compressed public key, embedded for convenience. A
    /// verifier that trusts only an out-of-band key passes it to
    /// [`crate::verify::replay`], which cross-checks this field.
    pub tpa_key: [u8; 32],
    /// Segment-chain continuation — `Some` exactly when `version == 2`.
    pub continuation: Option<Continuation>,
}

impl Header {
    /// This header's encoded length (version dependent).
    pub(crate) fn len(&self) -> usize {
        match self.continuation {
            None => HEADER_LEN,
            Some(_) => HEADER_LEN_V2,
        }
    }

    /// The first sealed ordinal of this file's segment (0 for v1).
    pub fn base_sealed(&self) -> u64 {
        self.continuation.map_or(0, |c| c.base_sealed)
    }

    /// This file's segment number (0 for v1).
    pub fn segment(&self) -> u32 {
        self.continuation.map_or(0, |c| c.segment)
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.version.to_be_bytes());
        out.extend_from_slice(&self.interval.to_be_bytes());
        out.extend_from_slice(&self.tpa_key);
        if let Some(c) = &self.continuation {
            out.extend_from_slice(&c.segment.to_be_bytes());
            out.extend_from_slice(&c.base_sealed.to_be_bytes());
            out.extend_from_slice(&c.prev_head);
            out.extend_from_slice(&c.forest_prev);
        }
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Header, LedgerError> {
        if bytes.len() < HEADER_LEN {
            // An empty or short file is not a ledger at all.
            return Err(if bytes.len() >= 8 && &bytes[..8] != MAGIC {
                LedgerError::BadMagic
            } else {
                LedgerError::TruncatedHeader
            });
        }
        if &bytes[..8] != MAGIC {
            return Err(LedgerError::BadMagic);
        }
        let version = u16::from_be_bytes(bytes[8..10].try_into().expect("2"));
        if version != VERSION && version != VERSION_SEGMENTED {
            return Err(LedgerError::BadVersion(version));
        }
        let interval = u32::from_be_bytes(bytes[10..14].try_into().expect("4"));
        let mut tpa_key = [0u8; 32];
        tpa_key.copy_from_slice(&bytes[14..46]);
        let continuation = if version == VERSION_SEGMENTED {
            if bytes.len() < HEADER_LEN_V2 {
                return Err(LedgerError::TruncatedHeader);
            }
            let segment = u32::from_be_bytes(bytes[46..50].try_into().expect("4"));
            let base_sealed = u64::from_be_bytes(bytes[50..58].try_into().expect("8"));
            let mut prev_head = [0u8; 32];
            prev_head.copy_from_slice(&bytes[58..90]);
            let mut forest_prev = [0u8; 32];
            forest_prev.copy_from_slice(&bytes[90..122]);
            Some(Continuation {
                segment,
                base_sealed,
                prev_head,
                forest_prev,
            })
        } else {
            None
        };
        Ok(Header {
            version,
            interval,
            tpa_key,
            continuation,
        })
    }
}

/// A periodic commitment: a TPA-signed Merkle root over the seals of
/// every evidence record written so far.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Evidence records covered (all of them, from the start).
    pub covered: u64,
    /// Merkle root over the covered evidence seals.
    pub root: Digest,
    /// TPA signature over `domain ‖ covered ‖ root`.
    pub signature: [u8; 64],
}

/// Message the TPA signs for a v1 checkpoint.
pub(crate) fn checkpoint_message(covered: u64, root: &Digest) -> Vec<u8> {
    let mut msg = Vec::with_capacity(64);
    msg.extend_from_slice(b"geoproof-ledger-ckpt-v1");
    msg.extend_from_slice(&covered.to_be_bytes());
    msg.extend_from_slice(root);
    msg
}

/// Message the TPA signs for a checkpoint in a rotated (v2) segment. The
/// segment number, global base ordinal and forest digest are all under
/// the signature, so one checkpoint signature commits to this segment's
/// place in the whole chain — not just its local leaves.
pub(crate) fn checkpoint_message_v2(
    segment: u32,
    base_sealed: u64,
    forest_prev: &Digest,
    covered: u64,
    root: &Digest,
) -> Vec<u8> {
    let mut msg = Vec::with_capacity(108);
    msg.extend_from_slice(b"geoproof-ledger-ckpt-v2");
    msg.extend_from_slice(&segment.to_be_bytes());
    msg.extend_from_slice(&base_sealed.to_be_bytes());
    msg.extend_from_slice(forest_prev);
    msg.extend_from_slice(&covered.to_be_bytes());
    msg.extend_from_slice(root);
    msg
}

/// The checkpoint message for a ledger with `header` — v1 or v2 as the
/// header dictates. `covered` and `root` are always *local* to the file.
pub(crate) fn checkpoint_message_for(header: &Header, covered: u64, root: &Digest) -> Vec<u8> {
    match &header.continuation {
        None => checkpoint_message(covered, root),
        Some(c) => checkpoint_message_v2(c.segment, c.base_sealed, &c.forest_prev, covered, root),
    }
}

impl Checkpoint {
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.push(TAG_CHECKPOINT);
        out.extend_from_slice(&self.covered.to_be_bytes());
        out.extend_from_slice(&self.root);
        out.extend_from_slice(&self.signature);
    }

    fn decode(body: &Bytes) -> Result<Checkpoint, &'static str> {
        if body.len() != 1 + 8 + 32 + 64 {
            return Err("checkpoint body length");
        }
        let covered = u64::from_be_bytes(body[1..9].try_into().expect("8"));
        let mut root = [0u8; 32];
        root.copy_from_slice(&body[9..41]);
        let mut signature = [0u8; 64];
        signature.copy_from_slice(&body[41..105]);
        Ok(Checkpoint {
            covered,
            root,
            signature,
        })
    }
}

/// A parsed record body.
#[derive(Clone, Debug, PartialEq)]
pub enum Entry {
    /// One audit verdict.
    Evidence(EvidenceRecord),
    /// One dynamic-audit verdict.
    DynEvidence(EvidenceRecord<DynAuditRequest>),
    /// One owner digest transition of a dynamic file.
    Digest(DigestRecord),
    /// One multi-vantage position estimate.
    Position(PositionRecord),
    /// A signed Merkle commitment over the sealed records so far.
    Checkpoint(Checkpoint),
}

impl Entry {
    /// True for the record kinds checkpoints commit to (everything but
    /// checkpoints themselves).
    pub fn is_sealed_leaf(&self) -> bool {
        !matches!(self, Entry::Checkpoint(_))
    }
}

/// One sealed record.
#[derive(Clone, Debug)]
pub struct Record {
    /// Position in the chain (0-based over all records).
    pub index: u64,
    /// Chain value before this record (`h_{index-1}`).
    pub prev: Digest,
    /// This record's seal (`h_index`).
    pub seal: Digest,
    /// The raw body bytes (a view of the file buffer).
    pub body: Bytes,
    /// The parsed body.
    pub entry: Entry,
}

/// A fully read, chain-verified ledger.
#[derive(Clone, Debug)]
pub struct Ledger {
    header: Header,
    head: Digest,
    records: Vec<Record>,
    /// Positions (into `records`) of sealed leaves — every non-checkpoint
    /// entry (static evidence, dynamic evidence, digest transitions,
    /// position estimates), in order. Checkpoint coverage counts and Merkle leaf indices live in
    /// this ordinal space.
    sealed_at: Vec<usize>,
    /// Positions (into `records`) of checkpoint entries, in order.
    checkpoints_at: Vec<usize>,
    /// Cached count of static evidence entries (O(1) accessors).
    n_evidence: u64,
    /// Cached count of dynamic evidence entries.
    n_dyn_evidence: u64,
    /// Cached count of position-estimate entries.
    n_position: u64,
}

/// Low-level scan outcome shared by the strict reader and the
/// recovering writer.
pub(crate) struct Scan {
    pub header: Header,
    pub head: Digest,
    pub records: Vec<Record>,
    /// Byte offset one past the last complete record; `Some` only when
    /// the file ends mid-record (torn tail).
    pub torn_at: Option<u64>,
}

/// Records per range of seal checks and body decodes — one unit of
/// parallel work in [`scan`].
const SCAN_RANGE: usize = 1024;

/// Threads the strict reader and the replay fan out over: every core
/// the process may use.
pub(crate) fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parses `bytes` record by record, verifying the seal chain. Stops at
/// a torn tail (reporting the last good boundary) but treats any
/// complete-but-wrong record as a hard error — the first one in chain
/// order, exactly as a sequential walk reports it (see the module docs).
pub(crate) fn scan(bytes: &Bytes) -> Result<Scan, LedgerError> {
    let header = Header::decode(bytes.as_ref())?;
    let header_len = header.len();
    let genesis = genesis_hash(&bytes.as_ref()[..header_len]);

    // Framing: where each complete record starts and how long its body
    // is. Only the length prefixes are read.
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let mut pos = header_len;
    let mut torn_at = None;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < 4 {
            torn_at = Some(pos as u64);
            break;
        }
        let body_len =
            u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if remaining < 4 + body_len + 32 {
            torn_at = Some(pos as u64);
            break;
        }
        frames.push((pos, body_len));
        pos += 4 + body_len + 32;
    }

    // Seal checks and decodes, one range at a time on every core,
    // collected in chain order; the first failing range's first error
    // wins.
    let ranges = frames.len().div_ceil(SCAN_RANGE);
    let workers = if ranges > 1 { parallelism() } else { 1 };
    let mut records = Vec::with_capacity(frames.len());
    run_ordered(
        workers,
        ranges,
        2 * workers,
        |r| {
            let span = r * SCAN_RANGE..((r + 1) * SCAN_RANGE).min(frames.len());
            scan_range(bytes, &frames, span, &genesis)
        },
        |_, range| {
            records.extend(range?);
            Ok::<(), LedgerError>(())
        },
    )?;
    let head = records.last().map_or(genesis, |r: &Record| r.seal);
    Ok(Scan {
        header,
        head,
        records,
        torn_at,
    })
}

/// Checks and decodes the framed records at chain indices `span`, each
/// against the **stored** seal of its predecessor (the genesis hash for
/// record 0). Stops at the span's first failure.
fn scan_range(
    bytes: &Bytes,
    frames: &[(usize, usize)],
    span: std::ops::Range<usize>,
    genesis: &Digest,
) -> Result<Vec<Record>, LedgerError> {
    let seal_at = |(pos, body_len): (usize, usize)| -> Digest {
        let at = pos + 4 + body_len;
        bytes[at..at + 32].try_into().expect("32 bytes")
    };
    let mut prev = match span.start {
        0 => *genesis,
        first => seal_at(frames[first - 1]),
    };
    let mut records = Vec::with_capacity(span.len());
    for (index, &(pos, body_len)) in (span.start as u64..).zip(&frames[span]) {
        let body = bytes.slice(pos + 4..pos + 4 + body_len);
        let seal = seal_at((pos, body_len));
        if seal_hash(&prev, index, body_len as u32, &[&body]) != seal {
            return Err(LedgerError::SealMismatch { index });
        }
        let malformed = |what| LedgerError::Malformed { index, what };
        let entry = match body.first() {
            Some(&TAG_EVIDENCE) => {
                Entry::Evidence(EvidenceRecord::decode(&body).map_err(malformed)?)
            }
            Some(&TAG_DYN_EVIDENCE) => {
                Entry::DynEvidence(EvidenceRecord::decode(&body).map_err(malformed)?)
            }
            Some(&TAG_DIGEST) => Entry::Digest(DigestRecord::decode(&body).map_err(malformed)?),
            Some(&TAG_POSITION) => {
                Entry::Position(PositionRecord::decode(&body).map_err(malformed)?)
            }
            Some(&TAG_CHECKPOINT) => {
                Entry::Checkpoint(Checkpoint::decode(&body).map_err(malformed)?)
            }
            _ => return Err(malformed("unknown record tag")),
        };
        records.push(Record {
            index,
            prev,
            seal,
            body,
            entry,
        });
        prev = seal;
    }
    Ok(records)
}

impl Ledger {
    /// Reads and chain-verifies a ledger file. The whole file lands in
    /// one buffer; every record body is a zero-copy view of it.
    ///
    /// # Errors
    ///
    /// Any structural problem — bad header, seal mismatch, malformed
    /// body, torn tail — is an error; nothing is silently skipped or
    /// repaired.
    pub fn read(path: impl AsRef<Path>) -> Result<Ledger, LedgerError> {
        Ledger::from_bytes(Bytes::from(std::fs::read(path)?))
    }

    /// Like [`Ledger::read`] over an in-memory buffer.
    ///
    /// # Errors
    ///
    /// As [`Ledger::read`].
    pub fn from_bytes(bytes: Bytes) -> Result<Ledger, LedgerError> {
        let scan = scan(&bytes)?;
        if let Some(offset) = scan.torn_at {
            return Err(LedgerError::TornTail { offset });
        }
        let mut sealed_at = Vec::new();
        let mut checkpoints_at = Vec::new();
        let mut n_evidence = 0u64;
        let mut n_dyn_evidence = 0u64;
        let mut n_position = 0u64;
        for (i, record) in scan.records.iter().enumerate() {
            match record.entry {
                Entry::Evidence(_) => n_evidence += 1,
                Entry::DynEvidence(_) => n_dyn_evidence += 1,
                Entry::Position(_) => n_position += 1,
                _ => {}
            }
            if record.entry.is_sealed_leaf() {
                sealed_at.push(i);
            } else {
                checkpoints_at.push(i);
            }
        }
        Ok(Ledger {
            header: scan.header,
            head: scan.head,
            records: scan.records,
            sealed_at,
            checkpoints_at,
            n_evidence,
            n_dyn_evidence,
            n_position,
        })
    }

    /// The file header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The chain head (seal of the last record, or the genesis hash for
    /// an empty ledger). Comparing this against an out-of-band copy is
    /// how a verifier rules out whole-suffix truncation at a record
    /// boundary — the one manipulation a self-contained file cannot
    /// reveal.
    pub fn head(&self) -> Digest {
        self.head
    }

    /// All records, in chain order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of sealed leaves — every non-checkpoint record (static
    /// evidence, dynamic evidence, digest transitions, position
    /// estimates). This is the ordinal space checkpoints cover and
    /// [`Ledger::prove`] indexes.
    pub fn sealed_count(&self) -> u64 {
        self.sealed_at.len() as u64
    }

    /// Number of *static* evidence records.
    pub fn evidence_count(&self) -> u64 {
        self.n_evidence
    }

    /// Number of dynamic evidence records.
    pub fn dyn_evidence_count(&self) -> u64 {
        self.n_dyn_evidence
    }

    /// Number of position-estimate records.
    pub fn position_count(&self) -> u64 {
        self.n_position
    }

    /// Number of checkpoint records.
    pub fn checkpoint_count(&self) -> u64 {
        self.checkpoints_at.len() as u64
    }

    /// Static evidence records with their 0-based **sealed** ordinals
    /// (the Merkle leaf index a checkpoint commits them at).
    pub fn evidence(&self) -> impl Iterator<Item = (u64, &EvidenceRecord)> {
        self.sealed_at
            .iter()
            .enumerate()
            .filter_map(|(ordinal, &i)| match &self.records[i].entry {
                Entry::Evidence(record) => Some((ordinal as u64, record)),
                _ => None,
            })
    }

    /// Dynamic evidence records with their 0-based sealed ordinals.
    pub fn dyn_evidence(&self) -> impl Iterator<Item = (u64, &EvidenceRecord<DynAuditRequest>)> {
        self.sealed_at
            .iter()
            .enumerate()
            .filter_map(|(ordinal, &i)| match &self.records[i].entry {
                Entry::DynEvidence(record) => Some((ordinal as u64, record)),
                _ => None,
            })
    }

    /// Position-estimate records with their 0-based sealed ordinals.
    pub fn positions(&self) -> impl Iterator<Item = (u64, &PositionRecord)> {
        self.sealed_at
            .iter()
            .enumerate()
            .filter_map(|(ordinal, &i)| match &self.records[i].entry {
                Entry::Position(record) => Some((ordinal as u64, record)),
                _ => None,
            })
    }

    /// The full chain record holding sealed ordinal `ordinal`.
    pub fn sealed_record(&self, ordinal: u64) -> Option<&Record> {
        self.sealed_at
            .get(ordinal as usize)
            .map(|&i| &self.records[i])
    }

    /// Checkpoints in chain order.
    pub fn checkpoints(&self) -> impl Iterator<Item = (&Record, &Checkpoint)> {
        self.checkpoints_at
            .iter()
            .map(|&i| match &self.records[i].entry {
                Entry::Checkpoint(c) => (&self.records[i], c),
                _ => unreachable!("checkpoints_at points at checkpoints"),
            })
    }

    /// Sealed records not yet covered by any checkpoint.
    pub fn uncovered_evidence(&self) -> u64 {
        let covered = self
            .checkpoints()
            .map(|(_, c)| c.covered)
            .max()
            .unwrap_or(0);
        self.sealed_count().saturating_sub(covered)
    }

    /// Seals of the first `covered` sealed records, as Merkle leaves.
    fn evidence_seals(&self, covered: u64) -> Vec<Vec<u8>> {
        self.sealed_at
            .iter()
            .take(covered as usize)
            .map(|&i| self.records[i].seal.to_vec())
            .collect()
    }

    /// Builds the self-contained inclusion proof for **local** sealed
    /// ordinal `evidence` against the earliest checkpoint covering it.
    /// The emitted proof carries the *global* ordinal
    /// (`header.base_sealed() + evidence`) and, for a rotated segment,
    /// the v2 checkpoint binding (segment number, base, forest digest).
    ///
    /// # Errors
    ///
    /// [`LedgerError::NotCovered`] when the record does not exist or no
    /// checkpoint covers it yet (append a checkpoint first).
    pub fn prove(&self, evidence: u64) -> Result<InclusionProof, LedgerError> {
        let record = self
            .sealed_record(evidence)
            .ok_or(LedgerError::NotCovered { evidence })?;
        let (ckpt_record, checkpoint) = self
            .checkpoints()
            .find(|(_, c)| c.covered > evidence && c.covered <= self.sealed_count())
            .ok_or(LedgerError::NotCovered { evidence })?;
        let tree = MerkleTree::build(&self.evidence_seals(checkpoint.covered));
        let proof = tree.prove(evidence);
        // A writer-produced file always satisfies this; a crafted one
        // (seals are unkeyed) can carry a checkpoint whose root does not
        // match its own evidence — refuse, don't emit a proof that can
        // never verify.
        if tree.root() != checkpoint.root {
            return Err(LedgerError::CheckpointRoot {
                index: ckpt_record.index,
            });
        }
        let ckpt = CheckpointBinding::from_header(&self.header);
        Ok(InclusionProof {
            record_index: record.index,
            prev: record.prev,
            body: record.body.clone(),
            evidence_index: self.header.base_sealed() + evidence,
            siblings: proof.siblings,
            covered: checkpoint.covered,
            root: checkpoint.root,
            signature: checkpoint.signature,
            ckpt,
        })
    }
}
