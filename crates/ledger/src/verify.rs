//! Offline re-verification: replaying a ledger with nothing but the
//! TPA public key.
//!
//! [`replay`] re-checks, for a chain-verified [`Ledger`]:
//!
//! 1. the embedded TPA key against the caller's trusted one;
//! 2. every checkpoint — TPA signature, coverage count, and the Merkle
//!    root recomputed from the evidence seals it claims to cover;
//! 3. every evidence record, static or dynamic, through one generic
//!    path ([`replay_record`]) — the transcript signature (under the
//!    *recorded* device key), nonce binding, GPS offset, round sanity,
//!    each round's judgement and the Δt_max timing policy, all
//!    re-derived through [`geoproof_core::auditor::VerifyChecks`] exactly
//!    as the live TPA did, with the recorded per-round MAC bits standing
//!    in for the keyed MAC checks (a dynamic round's Merkle proof is
//!    recomputed, by its kind's `Audit::judge`); the re-derived report
//!    must **byte-compare** equal to the recorded one.
//!
//! What the replay *trusts*: the recorded MAC bits (checking them needs
//! the owner's secret key — pass the owner's keys, [`OwnerKeys`], to
//! close that gap when the secret is available: each record's bits are
//! then re-derived by its own kind through `Audit::tag_bits`, the one
//! code that knows which MAC scheme a round uses), the recorded device
//! key (a live registry can cross-check it), and the ledger being the
//! *latest* one — a file truncated exactly at a record boundary is
//! indistinguishable from a crash-recovered log, so the chain head
//! ([`Ledger::head`]) must be compared out-of-band to rule that out.
//!
//! # How the work is split
//!
//! [`replay`] cuts the records into chunks of `BATCH_CHUNK` (1024) and
//! runs them through [`geoproof_core::pool::run_ordered`] on every core.
//! A chunk's pure work runs on whichever thread claims it: parsing
//! device keys and transcripts (with a per-chunk key cache), settling
//! every signature in one batch equation, and re-deriving each evidence
//! verdict and position estimate. Everything that depends on chain
//! state runs on the calling thread, chunk by chunk in record order:
//! the `--master` MAC re-derivation (the owner's key lookup need not be
//! `Sync`), accept/reject counts, the checkpoint Merkle accumulator,
//! coverage and root, the digest chain, and raising a chunk's failure
//! only after every record before it walked clean. So verdicts,
//! counters and the first error are those of [`replay_sequential`],
//! which walks the same chunks on one thread and checks one signature
//! at a time. A ledger of at most one chunk runs on the calling thread
//! alone.

use crate::reader::{checkpoint_message_for, parallelism, Entry, Header, Ledger, Record};
use crate::record::{DigestOp, EvidenceKind, EvidenceRecord, PositionRecord};
use crate::{Digest, LedgerError};
use bytes::Bytes;
use geoproof_core::auditor::VerifyChecks;
use geoproof_core::dynamic_audit::DynAuditRequest;
use geoproof_core::evidence::encode_report;
use geoproof_core::messages::{AuditRequest, Transcript};
use geoproof_core::pool::run_ordered;
use geoproof_core::verifier::Audit;
use geoproof_crypto::schnorr::{batch_verify_each, BatchEntry, Signature, VerifyingKey};
use geoproof_por::dynamic::DynamicDigest;
use geoproof_por::encode::PorEncoder;
use geoproof_por::merkle::MerkleAccumulator;
use std::collections::HashMap;

/// Records per signature batch — and per unit of parallel work. Large
/// enough that the shared-base multi-scalar equation amortises well (the
/// per-signature cost keeps falling up to a few hundred entries), small
/// enough to bound peak memory: each in-flight record holds a parsed
/// transcript until its chunk is walked, and at most `2 × cores` chunks
/// are in flight at once. A chunk holds no copy of any record's signed
/// bytes: its signature tasks are views of the ledger buffer, which is
/// resident anyway.
const BATCH_CHUNK: usize = 1024;

/// What the data owner holds: the static POR parameters and each file's
/// MAC key K′. Given them, replay re-derives the keyed tag bits — the
/// one check a key-less replay must otherwise take on trust — for every
/// evidence record, static or dynamic, under that record's own scheme.
pub struct OwnerKeys<'a> {
    /// The static POR parameters (segment layout, tag width); the
    /// dynamic tag scheme does not use them.
    pub encoder: &'a PorEncoder,
    /// K′ of the file with the given id.
    #[allow(clippy::type_complexity)]
    pub mac_key: Box<dyn Fn(&str) -> [u8; 32] + 'a>,
}

/// What a successful replay established.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Total chain records.
    pub records: u64,
    /// Static evidence records replayed.
    pub evidence: u64,
    /// Dynamic evidence records replayed (membership proofs recomputed
    /// against the recorded digests).
    pub dynamic: u64,
    /// Digest-transition records chained (per-file continuity checked).
    pub digests: u64,
    /// Position-estimate records replayed (the aggregate estimate
    /// recomputed from the recorded vantages and byte-compared).
    pub positions: u64,
    /// Checkpoints verified.
    pub checkpoints: u64,
    /// Evidence verdicts (static + dynamic) that were ACCEPT.
    pub accepted: u64,
    /// Evidence verdicts (static + dynamic) that were REJECT.
    pub rejected: u64,
    /// Sealed records after the last checkpoint (chain-verified but
    /// not yet Merkle-committed).
    pub uncovered: u64,
    /// Segment MACs re-derived (0 without the [`OwnerKeys`]).
    pub macs_checked: u64,
    /// The chain head — compare out-of-band to rule out suffix
    /// truncation at a record boundary.
    pub head: Digest,
}

/// Replays one evidence record of either kind and byte-compares the
/// re-derived verdict against the recorded one. A dynamic record's
/// Merkle membership proofs are **recomputed** against its recorded
/// digest (unkeyed — no trust involved); the keyed tag bits are read
/// from the record. Returns the parsed transcript so callers needing the
/// rounds (MAC re-derivation, display) don't decode it a second time.
///
/// # Errors
///
/// Structural failures (`BadDeviceKey`, `Transcript`) and
/// [`LedgerError::VerdictMismatch`] when the re-derived report's
/// canonical bytes differ.
pub fn replay_record<R: EvidenceKind>(
    record: &EvidenceRecord<R>,
    evidence: u64,
) -> Result<R::Transcript, LedgerError> {
    let key = VerifyingKey::from_bytes(&record.device_key)
        .ok_or(LedgerError::BadDeviceKey { evidence })?;
    let transcript = record
        .parse_transcript()
        .map_err(|source| LedgerError::Transcript { evidence, source })?;
    let signed = R::Transcript::signed_prefix(&record.transcript);
    let sig_ok = key.verify(&signed, transcript.signature());
    check_verdict(record, evidence, &key, &transcript, sig_ok)?;
    Ok(transcript)
}

/// The verdict re-derivation half of [`replay_record`], with the
/// signature verdict supplied by the caller: the check sequence rebuilt
/// from the record (its acceptance parameters, its request and the
/// recorded device key), each round judged by the record's kind from its
/// recorded tag bit. Byte-identical to the sequential path whenever
/// `sig_ok` equals what `device_key.verify` returns over the transcript's
/// signed bytes — which is exactly the contract [`batch_verify_each`]
/// keeps.
fn check_verdict<R: EvidenceKind>(
    record: &EvidenceRecord<R>,
    evidence: u64,
    device_key: &VerifyingKey,
    transcript: &R::Transcript,
    sig_ok: bool,
) -> Result<(), LedgerError> {
    let checks = VerifyChecks {
        device_key,
        sla_location: record.sla_location,
        location_tolerance: record.location_tolerance,
        policy: &record.policy,
    };
    let replayed =
        checks.verify_transcript_presigned(&record.request, transcript, sig_ok, &record.mac_ok);
    if encode_report(&replayed) != record.report_bytes.as_ref() {
        return Err(LedgerError::VerdictMismatch { evidence });
    }
    Ok(())
}

/// Replays one position record: recomputes the aggregate estimate from
/// the recorded vantages — the same SLA-seeded robust fit the live TPA
/// ran, pure geometry, no keys involved — re-encodes the record with the
/// re-derived estimate, and byte-compares against the recorded body.
///
/// # Errors
///
/// [`LedgerError::PositionMismatch`] when the re-derived bytes differ.
pub fn replay_position_record(
    record: &PositionRecord,
    body: &[u8],
    index: u64,
) -> Result<(), LedgerError> {
    let rederived = PositionRecord {
        estimate: record.derive_estimate(),
        ..record.clone()
    };
    let mut bytes = Vec::with_capacity(rederived.body_len());
    rederived.encode(&mut bytes);
    if bytes != body {
        return Err(LedgerError::PositionMismatch { index });
    }
    Ok(())
}

/// Per-record work pre-parsed in the first pass over a chunk, carrying
/// everything the verdict checks and the in-order walk need so nothing
/// is decoded twice.
enum Prep {
    /// Static evidence.
    Evidence(Parsed<AuditRequest>),
    /// Dynamic evidence.
    Dyn(Parsed<DynAuditRequest>),
    /// Checkpoint: only its TPA-signature task index.
    Checkpoint { task: usize },
    /// Digest transition or position estimate — no signature involved;
    /// the checks read the record itself.
    Plain,
}

/// An evidence record of kind `R` parsed in the first pass: its decoded
/// device key, parsed transcript, and the index of its signature task in
/// the chunk's batch.
struct Parsed<R: Audit> {
    key: VerifyingKey,
    transcript: R::Transcript,
    task: usize,
}

/// One signature to settle. An evidence message is a view of the
/// recorded transcript's signed bytes, not a copy; a checkpoint message
/// is built from the header.
struct SigTask {
    key: VerifyingKey,
    message: Bytes,
    signature: Signature,
}

/// One chunk with everything the chain state does not touch already
/// settled — the output of [`settle_chunk`], the input of the in-order
/// pass.
struct Settled {
    /// Parsed records, stopping right before the chunk's first failure.
    preps: Vec<Prep>,
    /// Signature verdicts, indexed by each prep's `task`.
    sig_ok: Vec<bool>,
    /// The chunk's first failure found off the chain state: structural
    /// (device key, transcript), a re-derived evidence verdict, or a
    /// re-derived position. Raised only after `preps` replay clean, so
    /// the first error surfaced is the sequential walk's.
    failure: Option<LedgerError>,
}

/// The pure half of replaying one chunk, safe to run on any thread:
/// parse every record, settle every signature (one batch, or one at a
/// time on the reference path), and re-derive each evidence verdict and
/// position estimate. `sealed` is the chunk's first sealed ordinal.
fn settle_chunk(
    chunk: &[Record],
    header: &Header,
    tpa: &VerifyingKey,
    sealed: u64,
    batched: bool,
) -> Settled {
    let (mut preps, tasks, mut failure) = prepare_chunk(chunk, header, tpa, sealed);
    let sig_ok: Vec<bool> = if batched {
        let entries: Vec<BatchEntry<'_>> = tasks
            .iter()
            .map(|t| BatchEntry {
                key: t.key,
                message: &t.message,
                signature: t.signature,
            })
            .collect();
        batch_verify_each(&entries)
    } else {
        tasks
            .iter()
            .map(|t| t.key.verify(&t.message, &t.signature))
            .collect()
    };
    let mut ordinal = sealed;
    let first_bad = chunk
        .iter()
        .zip(&preps)
        .enumerate()
        .find_map(|(j, (record, prep))| {
            let verdict = match (&record.entry, prep) {
                (Entry::Evidence(e), Prep::Evidence(p)) => {
                    check_verdict(e, ordinal, &p.key, &p.transcript, sig_ok[p.task])
                }
                (Entry::DynEvidence(e), Prep::Dyn(p)) => {
                    check_verdict(e, ordinal, &p.key, &p.transcript, sig_ok[p.task])
                }
                (Entry::Position(p), Prep::Plain) => {
                    replay_position_record(p, &record.body, record.index)
                }
                _ => Ok(()),
            };
            if record.entry.is_sealed_leaf() {
                ordinal += 1;
            }
            verdict.err().map(|err| (j, err))
        });
    if let Some((j, err)) = first_bad {
        preps.truncate(j);
        failure = Some(err);
    }
    Settled {
        preps,
        sig_ok,
        failure,
    }
}

/// First pass over a chunk: parse every record and collect its
/// signature work. Stops at the first *structural* failure (undecodable
/// device key, malformed transcript) and hands the error back unraised —
/// the in-order pass must finish the records before it first, so the
/// error surfaced is the same one the sequential walk would hit.
///
/// Device-key decompression is memoised across the chunk — a fleet
/// reuses a handful of keys over thousands of records, and point
/// decompression is a field exponentiation. `from_bytes` is pure, so
/// the cache cannot change any outcome.
fn prepare_chunk(
    chunk: &[Record],
    header: &Header,
    tpa: &VerifyingKey,
    mut sealed: u64,
) -> (Vec<Prep>, Vec<SigTask>, Option<LedgerError>) {
    let mut keys: HashMap<[u8; 32], Option<VerifyingKey>> = HashMap::new();
    let mut preps = Vec::with_capacity(chunk.len());
    let mut tasks = Vec::new();
    for record in chunk {
        let prep = match &record.entry {
            Entry::Evidence(e) => {
                parse_evidence(e, sealed, &mut keys, &mut tasks).map(Prep::Evidence)
            }
            Entry::DynEvidence(e) => {
                parse_evidence(e, sealed, &mut keys, &mut tasks).map(Prep::Dyn)
            }
            Entry::Digest(_) | Entry::Position(_) => Ok(Prep::Plain),
            Entry::Checkpoint(c) => {
                tasks.push(SigTask {
                    key: *tpa,
                    message: checkpoint_message_for(header, c.covered, &c.root).into(),
                    signature: Signature::from_bytes(&c.signature),
                });
                Ok(Prep::Checkpoint {
                    task: tasks.len() - 1,
                })
            }
        };
        match prep {
            Ok(prep) => preps.push(prep),
            Err(err) => return (preps, tasks, Some(err)),
        }
        if record.entry.is_sealed_leaf() {
            sealed += 1;
        }
    }
    (preps, tasks, None)
}

/// [`prepare_chunk`]'s work for one evidence record of either kind:
/// decode its device key (through the chunk's cache), parse its
/// transcript, and queue its signature — a view of the recorded signed
/// bytes — as a task.
fn parse_evidence<R: EvidenceKind>(
    record: &EvidenceRecord<R>,
    evidence: u64,
    keys: &mut HashMap<[u8; 32], Option<VerifyingKey>>,
    tasks: &mut Vec<SigTask>,
) -> Result<Parsed<R>, LedgerError> {
    let key = keys
        .entry(record.device_key)
        .or_insert_with(|| VerifyingKey::from_bytes(&record.device_key))
        .ok_or(LedgerError::BadDeviceKey { evidence })?;
    let transcript = record
        .parse_transcript()
        .map_err(|source| LedgerError::Transcript { evidence, source })?;
    tasks.push(SigTask {
        key,
        message: R::Transcript::signed_prefix(&record.transcript),
        signature: *transcript.signature(),
    });
    Ok(Parsed {
        key,
        transcript,
        task: tasks.len() - 1,
    })
}

/// Re-derives every round's tag bit under the owner's key, through the
/// record's own kind ([`Audit::tag_bits`]), and compares it with the
/// recorded one (a missing recorded bit reads as failed); returns how
/// many it checked.
fn rederive_bits<R: EvidenceKind>(
    record: &EvidenceRecord<R>,
    transcript: &R::Transcript,
    evidence: u64,
    owner: &OwnerKeys<'_>,
) -> Result<u64, LedgerError> {
    let mac_key = (owner.mac_key)(record.request.file_id());
    let derived = record.request.tag_bits(owner.encoder, &mac_key, transcript);
    let recorded = record
        .mac_ok
        .iter()
        .copied()
        .chain(std::iter::repeat(false));
    if derived.iter().zip(recorded).any(|(&d, r)| d != r) {
        return Err(LedgerError::MacMismatch { evidence });
    }
    Ok(derived.len() as u64)
}

/// Replays the whole ledger (see the module docs for what is checked
/// and what is trusted), settling signatures in batches of
/// `BATCH_CHUNK` (1024) through one random-linear-combination equation per
/// chunk, with chunks settled on every core. Verdicts, counters, and the
/// first error raised are identical to [`replay_sequential`] — batching
/// and threads only change *how* and *where* each signature bit and
/// verdict is computed, never what is done with it.
///
/// # Errors
///
/// The first failed check, most specific first: key mismatch, checkpoint
/// signature/coverage/root, then per-record structural and verdict
/// failures, then [`LedgerError::MacMismatch`] if a tag bit re-derived
/// under `owner`'s keys disagrees with a recorded one.
pub fn replay(
    ledger: &Ledger,
    tpa: &VerifyingKey,
    owner: Option<&OwnerKeys<'_>>,
) -> Result<ReplayOutcome, LedgerError> {
    replay_impl(ledger, tpa, owner, true)
}

/// [`replay`] with every signature checked one at a time — the
/// reference path batched replay is pinned against (same verdicts, same
/// counters, same first error). Kept public so differential tests and
/// benchmarks can hold the two implementations together.
///
/// # Errors
///
/// Exactly as [`replay`].
pub fn replay_sequential(
    ledger: &Ledger,
    tpa: &VerifyingKey,
    owner: Option<&OwnerKeys<'_>>,
) -> Result<ReplayOutcome, LedgerError> {
    replay_impl(ledger, tpa, owner, false)
}

fn replay_impl(
    ledger: &Ledger,
    tpa: &VerifyingKey,
    owner: Option<&OwnerKeys<'_>>,
    batched: bool,
) -> Result<ReplayOutcome, LedgerError> {
    let replay_started = std::time::Instant::now();
    if ledger.header().tpa_key != tpa.to_bytes() {
        return Err(LedgerError::TpaKeyMismatch);
    }
    // Binary-counter accumulator over the evidence seals: every
    // checkpoint needs the Merkle root over *all* seals so far, and
    // rebuilding the tree per checkpoint is quadratic in ledger length.
    // The accumulator's root is pinned equal to `MerkleTree::build`.
    let mut seals = MerkleAccumulator::new();
    let mut sealed = 0u64;
    let mut evidence = 0u64;
    let mut dynamic = 0u64;
    let mut digests = 0u64;
    let mut positions = 0u64;
    let mut checkpoints = 0u64;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut macs_checked = 0u64;
    // The digest chain: the current digest per dynamic file, advanced by
    // digest-transition records in chain order. Every dynamic audit must
    // have been issued against the digest current at its chain position —
    // that is what turns "the server served pre-update data" from a
    // claim into a provable fact.
    let mut current_digest: HashMap<&str, DynamicDigest> = HashMap::new();
    let chunks: Vec<&[Record]> = ledger.records().chunks(BATCH_CHUNK).collect();
    // Each chunk's first sealed ordinal, so any thread can settle it.
    let mut bases = Vec::with_capacity(chunks.len());
    let mut base = 0u64;
    for chunk in &chunks {
        bases.push(base);
        base += chunk.iter().filter(|r| r.entry.is_sealed_leaf()).count() as u64;
    }
    let workers = if batched && chunks.len() > 1 {
        parallelism()
    } else {
        1
    };
    // Chunks settle on every core; the chain state is walked here, on
    // the caller, in record order.
    let walk = |at: usize, settled: Settled| -> Result<(), LedgerError> {
        let Settled {
            preps,
            sig_ok,
            failure,
        } = settled;
        for (record, prep) in chunks[at].iter().zip(&preps) {
            // An evidence record's recorded verdict, read straight from
            // the bytes the settle pass proved re-derivable.
            let verdict = match (&record.entry, prep) {
                (Entry::Evidence(e), Prep::Evidence(p)) => {
                    if let Some(owner) = owner {
                        macs_checked += rederive_bits(e, &p.transcript, sealed, owner)?;
                    }
                    evidence += 1;
                    Some(e.report())
                }
                (Entry::DynEvidence(e), Prep::Dyn(p)) => {
                    // The audited digest must be the chain's current one
                    // for this file. A ledger with no digest records for
                    // the file has no chain to hold the audit against (a
                    // bare-audit ledger); the digest is then trusted as
                    // recorded.
                    if let Some(current) = current_digest.get(e.request.file_id.as_str()) {
                        if *current != e.request.digest {
                            return Err(LedgerError::DigestChain {
                                index: record.index,
                                what: "dynamic audit against a digest that was not current",
                            });
                        }
                    }
                    if let Some(owner) = owner {
                        macs_checked += rederive_bits(e, &p.transcript, sealed, owner)?;
                    }
                    dynamic += 1;
                    Some(e.report())
                }
                (Entry::Digest(d), Prep::Plain) => {
                    // Structural invariants were re-checked at decode;
                    // here the *chain* is: init starts (or restarts) a
                    // file, every later transition must leave from the
                    // current digest.
                    match d.op {
                        DigestOp::Init => {}
                        DigestOp::Update | DigestOp::Append => {
                            let Some(current) = current_digest.get(d.file_id.as_str()) else {
                                return Err(LedgerError::DigestChain {
                                    index: record.index,
                                    what: "digest transition before any init",
                                });
                            };
                            if *current != d.prev {
                                return Err(LedgerError::DigestChain {
                                    index: record.index,
                                    what:
                                        "digest transition does not leave from the current digest",
                                });
                            }
                        }
                    }
                    current_digest.insert(d.file_id.as_str(), d.new);
                    digests += 1;
                    None
                }
                (Entry::Position(_), Prep::Plain) => {
                    positions += 1;
                    None
                }
                (Entry::Checkpoint(c), Prep::Checkpoint { task }) => {
                    if !sig_ok[*task] {
                        return Err(LedgerError::CheckpointSignature {
                            index: record.index,
                        });
                    }
                    // A checkpoint always covers *all* sealed records so
                    // far, and the writer never commits before the first
                    // record (an empty Merkle tree does not exist).
                    if c.covered != sealed || c.covered == 0 {
                        return Err(LedgerError::CheckpointCoverage {
                            index: record.index,
                        });
                    }
                    if seals.root() != Some(c.root) {
                        return Err(LedgerError::CheckpointRoot {
                            index: record.index,
                        });
                    }
                    checkpoints += 1;
                    None
                }
                _ => unreachable!("prep shape always matches its entry"),
            };
            if let Some(report) = verdict {
                let report = report.map_err(|source| LedgerError::Report {
                    evidence: sealed,
                    source,
                })?;
                if report.accepted() {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
            if record.entry.is_sealed_leaf() {
                seals.push(&record.seal);
                sealed += 1;
            }
        }
        // Only once every record before it has replayed clean may the
        // chunk's settled failure surface — first-error ordering is then
        // identical to the sequential walk.
        failure.map_or(Ok(()), Err)
    };
    run_ordered(
        workers,
        chunks.len(),
        2 * workers,
        |at| settle_chunk(chunks[at], ledger.header(), tpa, bases[at], batched),
        walk,
    )?;
    record_replay_metrics(accepted, rejected, replay_started.elapsed());
    Ok(ReplayOutcome {
        records: ledger.records().len() as u64,
        evidence,
        dynamic,
        digests,
        positions,
        checkpoints,
        accepted,
        rejected,
        uncovered: ledger.uncovered_evidence(),
        macs_checked,
        head: ledger.head(),
    })
}

/// Folds a clean replay into the global registry: verdicts re-derived
/// by outcome, plus the latest pass's throughput.
fn record_replay_metrics(accepted: u64, rejected: u64, elapsed: std::time::Duration) {
    struct ReplayMetrics {
        accepted: std::sync::Arc<geoproof_obs::Counter>,
        rejected: std::sync::Arc<geoproof_obs::Counter>,
        rate: std::sync::Arc<geoproof_obs::Gauge>,
    }
    static METRICS: std::sync::OnceLock<ReplayMetrics> = std::sync::OnceLock::new();
    let m = METRICS.get_or_init(|| ReplayMetrics {
        accepted: geoproof_obs::counter("ledger_replay_verdicts_total{outcome=\"accept\"}"),
        rejected: geoproof_obs::counter("ledger_replay_verdicts_total{outcome=\"reject\"}"),
        rate: geoproof_obs::gauge("ledger_replay_verdicts_per_s"),
    });
    m.accepted.add(accepted);
    m.rejected.add(rejected);
    let elapsed_ns = elapsed.as_nanos().max(1) as u64;
    let per_s = (accepted + rejected).saturating_mul(1_000_000_000) / elapsed_ns;
    m.rate.set(per_s as i64);
}
