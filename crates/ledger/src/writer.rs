//! The append-only ledger writer: sealing, checkpointing, fsync
//! boundaries, and torn-tail crash recovery.
//!
//! ## Durability model
//!
//! Appends go straight to the file descriptor (no userspace buffer —
//! there is nothing to lose in a crash beyond what the OS holds), but
//! the OS page cache is only forced to disk at explicit boundaries:
//! [`LedgerWriter::sync`], every checkpoint, and
//! [`LedgerWriter::finish`]. A crash between boundaries can therefore
//! lose a *suffix* of appends, and a power cut mid-append can leave a
//! partial record at the tail. [`LedgerWriter::open`] detects exactly
//! that shape — the file ends mid-record — and truncates back to the
//! last complete record, reporting how many bytes were dropped. A
//! *complete* record whose seal does not match is a different animal:
//! that is tamper or in-place corruption, and the writer refuses to
//! touch the file rather than silently destroy evidence.
//!
//! ## Zero-copy appends
//!
//! [`LedgerWriter::append_bundle`] encodes the record prefix into a
//! reused scratch buffer and writes the transcript payload directly
//! from the bundle's refcounted [`bytes::Bytes`] — the payload is
//! hashed (for the seal) and handed to `write(2)`, never copied into
//! another userspace buffer.

use crate::chain::{genesis_hash, seal_hash, Digest};
use crate::reader::{checkpoint_message_for, scan, Checkpoint, Continuation, Entry, Header};
use crate::record::{DigestRecord, EvidenceKind, EvidenceRecord, PositionRecord};
use crate::{LedgerError, VERSION, VERSION_SEGMENTED};
use bytes::Bytes;
use geoproof_core::evidence::EvidenceBundle;
use geoproof_crypto::chacha::ChaChaRng;
use geoproof_crypto::schnorr::SigningKey;
use geoproof_por::merkle::MerkleAccumulator;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// A record the writer refuses: it would not replay.
fn invalid(what: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

/// Refuses a `u16`-length-prefixed field the record format cannot carry:
/// a silent `as` truncation would seal a record the decoder can never
/// parse — bricking the whole file.
fn fits_u16(what: &str, field: &str) -> std::io::Result<()> {
    if field.len() > usize::from(u16::MAX) {
        return Err(invalid(format!(
            "{what} is {} bytes; the record format caps it at {}",
            field.len(),
            u16::MAX
        )));
    }
    Ok(())
}

/// Cached telemetry handles (see `geoproof_obs`): appends/bytes count
/// every sealed record (evidence, dynamic, digest, position and
/// checkpoint frames alike — all pass through `write_record`), and the
/// fsync histogram covers the explicit durability boundaries.
struct WriterMetrics {
    appends: std::sync::Arc<geoproof_obs::Counter>,
    append_bytes: std::sync::Arc<geoproof_obs::Counter>,
    fsync: std::sync::Arc<geoproof_obs::Histogram>,
}

fn writer_metrics() -> &'static WriterMetrics {
    static METRICS: std::sync::OnceLock<WriterMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| WriterMetrics {
        appends: geoproof_obs::counter("ledger_appends_total"),
        append_bytes: geoproof_obs::counter("ledger_append_bytes_total"),
        fsync: geoproof_obs::histogram("ledger_fsync_us"),
    })
}

/// Default evidence records per automatic checkpoint.
pub const DEFAULT_CHECKPOINT_INTERVAL: u32 = 64;

/// What [`LedgerWriter::open`] found at the tail of an existing file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recovery {
    /// The file ended exactly at a record boundary.
    Clean,
    /// The file ended mid-record (crash during an append); the partial
    /// record was truncated away.
    TruncatedTail {
        /// Bytes removed.
        dropped: u64,
    },
}

/// The appending side of the evidence ledger.
pub struct LedgerWriter {
    file: File,
    header: Header,
    head: Digest,
    records: u64,
    /// Incremental Merkle accumulator over the evidence seals — the
    /// checkpoint root in O(log n) amortised per append instead of a
    /// full tree rebuild per checkpoint (quadratic over a ledger's
    /// life). Its root is pinned equal to `MerkleTree::build`.
    seals: MerkleAccumulator,
    /// Evidence records covered by the latest checkpoint.
    covered: u64,
    interval: u32,
    tpa: SigningKey,
    rng: ChaChaRng,
    scratch: Vec<u8>,
    /// Evidence records per prover — lets a CLI continue epoch numbering
    /// across process restarts.
    per_prover: HashMap<String, u64>,
    /// Bytes of durable, complete records (header included) — the
    /// rollback point when a write fails partway.
    good_len: u64,
    /// Set when a failed write could not be rolled back: the file tail
    /// is garbage that a later append would bury mid-file (turning a
    /// recoverable torn tail into permanent corruption), so all further
    /// appends are refused.
    poisoned: bool,
    /// The advisory lock file released on drop.
    lock_path: std::path::PathBuf,
    /// Test seam: makes the next record write fail after emitting a
    /// partial prefix, exercising the rollback path.
    #[cfg(test)]
    fail_next_write: bool,
}

impl Drop for LedgerWriter {
    fn drop(&mut self) {
        std::fs::remove_file(&self.lock_path).ok();
    }
}

/// Takes the advisory writer lock for `path` (`<path>.lock`, holding
/// the owner's pid). Two live writers interleaving appends would
/// corrupt the chain irreparably, so exclusion is mandatory; a lock
/// whose owner is no longer running (crash) is reclaimed.
fn acquire_lock(path: &Path) -> Result<std::path::PathBuf, LedgerError> {
    let lock_path = {
        let mut os = path.as_os_str().to_owned();
        os.push(".lock");
        std::path::PathBuf::from(os)
    };
    for _ in 0..2 {
        match OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock_path)
        {
            Ok(mut f) => {
                f.write_all(std::process::id().to_string().as_bytes()).ok();
                return Ok(lock_path);
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = std::fs::read_to_string(&lock_path).unwrap_or_default();
                let stale = holder
                    .trim()
                    .parse::<u32>()
                    .is_ok_and(|pid| !Path::new(&format!("/proc/{pid}")).exists());
                if stale {
                    // The holder is gone (crashed mid-run); reclaim and
                    // retry the atomic create once.
                    std::fs::remove_file(&lock_path).ok();
                    continue;
                }
                return Err(LedgerError::Io(std::io::Error::other(format!(
                    "ledger is locked by a live writer (pid {}); remove {} only if you are \
                     certain no writer is running",
                    holder.trim(),
                    lock_path.display()
                ))));
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(LedgerError::Io(std::io::Error::other(format!(
        "could not acquire {} after reclaiming a stale lock",
        lock_path.display()
    ))))
}

impl std::fmt::Debug for LedgerWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LedgerWriter")
            .field("records", &self.records)
            .field("evidence", &self.seals.len())
            .field("covered", &self.covered)
            .finish_non_exhaustive()
    }
}

impl LedgerWriter {
    /// Creates a fresh ledger file (failing if `path` already exists),
    /// writes and syncs the header. `interval` is the evidence count
    /// between automatic checkpoints (0 disables them — only
    /// [`LedgerWriter::checkpoint`]/[`LedgerWriter::finish`] commit).
    /// `seed` feeds the signing hedge RNG.
    ///
    /// # Errors
    ///
    /// Propagates file creation/write failures.
    pub fn create(
        path: impl AsRef<Path>,
        tpa: &SigningKey,
        interval: u32,
        seed: u64,
    ) -> Result<LedgerWriter, LedgerError> {
        Self::create_segment(path, tpa, interval, seed, None)
    }

    /// [`LedgerWriter::create`] with an explicit segment-continuation
    /// block — how [`crate::segment::rotate`] starts the next segment of
    /// a rotated chain.
    pub(crate) fn create_segment(
        path: impl AsRef<Path>,
        tpa: &SigningKey,
        interval: u32,
        seed: u64,
        continuation: Option<Continuation>,
    ) -> Result<LedgerWriter, LedgerError> {
        let path = path.as_ref();
        let lock_path = acquire_lock(path)?;
        let result =
            Self::create_locked(path, tpa, interval, seed, continuation, lock_path.clone());
        if result.is_err() {
            std::fs::remove_file(&lock_path).ok();
        }
        result
    }

    fn create_locked(
        path: &Path,
        tpa: &SigningKey,
        interval: u32,
        seed: u64,
        continuation: Option<Continuation>,
        lock_path: std::path::PathBuf,
    ) -> Result<LedgerWriter, LedgerError> {
        let header = Header {
            version: if continuation.is_some() {
                VERSION_SEGMENTED
            } else {
                VERSION
            },
            interval,
            tpa_key: tpa.verifying_key().to_bytes(),
            continuation,
        };
        let header_bytes = header.encode();
        let mut file = OpenOptions::new().write(true).create_new(true).open(path)?;
        file.write_all(&header_bytes)?;
        file.sync_data()?;
        Ok(LedgerWriter {
            file,
            header,
            head: genesis_hash(&header_bytes),
            records: 0,
            seals: MerkleAccumulator::new(),
            covered: 0,
            interval,
            tpa: tpa.clone(),
            rng: ChaChaRng::from_u64_seed(seed),
            scratch: Vec::new(),
            per_prover: HashMap::new(),
            good_len: header_bytes.len() as u64,
            poisoned: false,
            lock_path,
            #[cfg(test)]
            fail_next_write: false,
        })
    }

    /// Opens an existing ledger for appending, verifying the whole chain
    /// and recovering from a torn tail write (see the module docs for
    /// the recovery contract). The truncated tail bytes, if any, are
    /// quarantined to `<path>.torn-<offset>` rather than discarded —
    /// recovery never destroys bytes it cannot prove worthless.
    ///
    /// # Errors
    ///
    /// Fails on I/O, on any chain/seal/structure violation in the
    /// *complete* prefix of the file, and on a TPA key mismatch (the
    /// embedded key must match `tpa` — a ledger is one TPA's log).
    pub fn open(
        path: impl AsRef<Path>,
        tpa: &SigningKey,
        seed: u64,
    ) -> Result<(LedgerWriter, Recovery), LedgerError> {
        let path = path.as_ref();
        let lock_path = acquire_lock(path)?;
        let result = Self::open_locked(path, tpa, seed, lock_path.clone());
        if result.is_err() {
            std::fs::remove_file(&lock_path).ok();
        }
        result
    }

    fn open_locked(
        path: &Path,
        tpa: &SigningKey,
        seed: u64,
        lock_path: std::path::PathBuf,
    ) -> Result<(LedgerWriter, Recovery), LedgerError> {
        let bytes = Bytes::from(std::fs::read(path)?);
        let parsed = scan(&bytes)?;
        if parsed.header.tpa_key != tpa.verifying_key().to_bytes() {
            return Err(LedgerError::TpaKeyMismatch);
        }
        let recovery = match parsed.torn_at {
            None => Recovery::Clean,
            Some(offset) => Recovery::TruncatedTail {
                dropped: bytes.len() as u64 - offset,
            },
        };
        let good_len = parsed.torn_at.unwrap_or(bytes.len() as u64);

        let mut seals = MerkleAccumulator::new();
        let mut covered = 0u64;
        let mut per_prover: HashMap<String, u64> = HashMap::new();
        for record in &parsed.records {
            match &record.entry {
                Entry::Evidence(EvidenceRecord { prover, .. })
                | Entry::DynEvidence(EvidenceRecord { prover, .. }) => {
                    seals.push(&record.seal);
                    *per_prover.entry(prover.clone()).or_insert(0) += 1;
                }
                Entry::Digest(_) | Entry::Position(_) => seals.push(&record.seal),
                Entry::Checkpoint(c) => {
                    // Seals are unkeyed, so a crafted file can chain a
                    // checkpoint with any `covered` claim; taking it at
                    // face value would corrupt the writer's arithmetic.
                    // (The root and TPA signature are [`crate::replay`]'s
                    // business — appending never depends on them.)
                    if c.covered != seals.len() || c.covered == 0 {
                        return Err(LedgerError::CheckpointCoverage {
                            index: record.index,
                        });
                    }
                    covered = c.covered;
                }
            }
        }

        let file = OpenOptions::new().write(true).open(path)?;
        if recovery != Recovery::Clean {
            // Quarantine before truncating: a mid-file bit flip in a
            // length prefix also *looks* like a torn tail (the claimed
            // record overruns EOF), and in that case the dropped suffix
            // holds real evidence an operator can repair by hand.
            // Recovery must never be the thing that destroys it.
            let quarantine = {
                let mut os = path.as_os_str().to_owned();
                os.push(format!(".torn-{good_len}"));
                std::path::PathBuf::from(os)
            };
            std::fs::write(&quarantine, &bytes.as_ref()[good_len as usize..])?;
            file.set_len(good_len)?;
            file.sync_data()?;
        }
        // set_len leaves the cursor wherever it was; append positions are
        // explicit via seek-to-end on the next write.
        let mut file = file;
        std::io::Seek::seek(&mut file, std::io::SeekFrom::End(0))?;
        Ok((
            LedgerWriter {
                file,
                header: parsed.header,
                head: parsed.head,
                records: parsed.records.len() as u64,
                seals,
                covered,
                interval: parsed.header.interval,
                tpa: tpa.clone(),
                rng: ChaChaRng::from_u64_seed(seed),
                scratch: Vec::new(),
                per_prover,
                good_len,
                poisoned: false,
                lock_path,
                #[cfg(test)]
                fail_next_write: false,
            },
            recovery,
        ))
    }

    /// [`LedgerWriter::open`] when the file exists, else
    /// [`LedgerWriter::create`] with `interval`.
    ///
    /// # Errors
    ///
    /// As the underlying constructor.
    pub fn open_or_create(
        path: impl AsRef<Path>,
        tpa: &SigningKey,
        interval: u32,
        seed: u64,
    ) -> Result<(LedgerWriter, Recovery), LedgerError> {
        if path.as_ref().exists() {
            LedgerWriter::open(path, tpa, seed)
        } else {
            Ok((
                LedgerWriter::create(path, tpa, interval, seed)?,
                Recovery::Clean,
            ))
        }
    }

    /// Records written (sealed leaves + checkpoints).
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Sealed leaves written (static evidence, dynamic evidence, digest
    /// transitions) — the ordinal space checkpoints cover.
    pub fn evidence_count(&self) -> u64 {
        self.seals.len()
    }

    /// Evidence records not yet covered by a checkpoint. (Saturating:
    /// `open` validates checkpoint coverage, so `covered` can never
    /// legitimately exceed the evidence count — but a subtraction panic
    /// is never the right failure mode for file-derived state.)
    pub fn uncovered(&self) -> u64 {
        self.evidence_count().saturating_sub(self.covered)
    }

    /// The chain head.
    pub fn head(&self) -> Digest {
        self.head
    }

    /// The file header (with its continuation block, for a rotated
    /// segment).
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Current Merkle root over all evidence seals (`None` while empty) —
    /// what the next checkpoint would commit.
    pub(crate) fn current_root(&self) -> Option<Digest> {
        self.seals.root()
    }

    /// The next epoch ordinal for `prover` (its evidence count so far) —
    /// survives restarts because it is rebuilt from the file on open.
    pub fn next_epoch(&self, prover: &str) -> u64 {
        self.per_prover.get(prover).copied().unwrap_or(0)
    }

    /// Evidence-record counts per prover, sorted by prover id — the
    /// natural seed for `AuditEngine::seed_epochs` when an engine
    /// appends to this ledger across process restarts.
    pub fn prover_epochs(&self) -> Vec<(String, u64)> {
        let mut counts: Vec<(String, u64)> = self
            .per_prover
            .iter()
            .map(|(prover, &n)| (prover.clone(), n))
            .collect();
        counts.sort();
        counts
    }

    /// Refuses appends once a failed write could not be rolled back.
    fn check_poisoned(&self) -> std::io::Result<()> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "ledger writer poisoned: an earlier failed write could not be rolled back; \
                 reopen the file to recover",
            ));
        }
        Ok(())
    }

    /// Seals and writes one record whose body is `prefix ‖ payload`,
    /// advancing the chain. The payload bytes go straight from the
    /// caller's buffer to the file.
    ///
    /// On a failed write the partial record is rolled back (truncate to
    /// the last good boundary) so the file stays append-able; if even
    /// the rollback fails, the writer is poisoned — appending after
    /// partial garbage would bury it mid-file, turning a recoverable
    /// torn tail into permanent corruption.
    fn write_record(&mut self, payload: &[u8]) -> std::io::Result<Digest> {
        let body_len = (self.scratch.len() - 4) + payload.len();
        // The per-field caps in `append` bound each piece, but the *sum*
        // must also fit the u32 length prefix — a wrapped cast would
        // seal a record no reader can ever parse.
        if body_len as u64 > u64::from(u32::MAX) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("record body is {body_len} bytes; the u32 length prefix caps it"),
            ));
        }
        let len_bytes = (body_len as u32).to_be_bytes();
        self.scratch[..4].copy_from_slice(&len_bytes);
        let seal = seal_hash(
            &self.head,
            self.records,
            body_len as u32,
            &[&self.scratch[4..], payload],
        );
        let wrote: std::io::Result<()> = (|| {
            #[cfg(test)]
            if self.fail_next_write {
                self.fail_next_write = false;
                self.file
                    .write_all(&self.scratch[..self.scratch.len() / 2])?;
                return Err(std::io::Error::other("injected write failure"));
            }
            self.file.write_all(&self.scratch)?;
            if !payload.is_empty() {
                self.file.write_all(payload)?;
            }
            self.file.write_all(&seal)
        })();
        if let Err(e) = wrote {
            let rollback = self
                .file
                .set_len(self.good_len)
                .and_then(|()| std::io::Seek::seek(&mut self.file, std::io::SeekFrom::End(0)));
            if rollback.is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.head = seal;
        self.records += 1;
        self.good_len += 4 + body_len as u64 + 32;
        let m = writer_metrics();
        m.appends.inc();
        m.append_bytes.add(4 + body_len as u64 + 32);
        Ok(seal)
    }

    /// Appends one evidence record of either audit kind (tag `0x01` or
    /// `0x03`). The transcript [`Bytes`] inside is not copied.
    /// Automatically checkpoints when the configured interval fills.
    ///
    /// The record is validated to *replay* before it is sealed: its
    /// transcript and report bytes must round-trip through the strict
    /// canonical parsers. Live verification tolerates a few shapes the
    /// offline verifier refuses (e.g. a hostile device signing a
    /// non-finite GPS fix — the live GPS check simply doesn't fire);
    /// writing such a record would poison the whole file for
    /// [`crate::replay`], so it is rejected here instead, surfacing
    /// through the producer's sink-error channel without changing any
    /// verdict.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidData`] for a record that would not
    /// re-verify; otherwise propagates write failures. A failed write is
    /// rolled back to the previous record boundary so later appends stay
    /// valid; if rollback itself fails the writer refuses all further
    /// appends (a crash at that point still recovers via
    /// [`LedgerWriter::open`]'s torn-tail truncation).
    pub fn append<R: EvidenceKind>(&mut self, record: &EvidenceRecord<R>) -> std::io::Result<()> {
        self.check_poisoned()?;
        fits_u16("prover id", &record.prover)?;
        fits_u16("file id", record.request.file_id())?;
        if record.mac_ok.len() as u64 > u64::from(u32::MAX)
            || record.report_bytes.len() as u64 > u64::from(u32::MAX)
            || record.transcript.len() as u64 > u64::from(u32::MAX)
        {
            return Err(invalid("record field exceeds the u32 length prefix".into()));
        }
        if let Err(e) = record.parse_transcript() {
            return Err(invalid(format!(
                "refusing unreplayable record: transcript bytes: {e}"
            )));
        }
        if let Err(e) = record.report() {
            return Err(invalid(format!(
                "refusing unreplayable record: report bytes: {e}"
            )));
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0u8; 4]); // length placeholder
        record.encode_prefix(&mut self.scratch);
        let payload = record.transcript.clone();
        let seal = self.write_record(&payload)?;
        self.seals.push(&seal);
        *self.per_prover.entry(record.prover.clone()).or_insert(0) += 1;
        self.auto_checkpoint()
    }

    /// Fires the interval checkpoint after a successful append. The
    /// record itself is written and chained at this point; a checkpoint
    /// failure must not read as "recording failed" (a retry would
    /// duplicate the evidence), so the error says exactly what state the
    /// file is in.
    fn auto_checkpoint(&mut self) -> std::io::Result<()> {
        if self.interval > 0 && self.uncovered() >= u64::from(self.interval) {
            if let Err(e) = self.checkpoint() {
                return Err(std::io::Error::new(
                    e.kind(),
                    format!(
                        "evidence record {} was appended, but the automatic checkpoint \
                         (and its fsync) failed — do not re-record the verdict; \
                         retry checkpoint()/finish() instead: {e}",
                        self.evidence_count() - 1
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Converts and appends an [`EvidenceBundle`] of either audit kind.
    ///
    /// # Errors
    ///
    /// As [`LedgerWriter::append`].
    pub fn append_bundle<R: EvidenceKind>(
        &mut self,
        bundle: &EvidenceBundle<R>,
    ) -> std::io::Result<()> {
        self.append(&EvidenceRecord::from_bundle(bundle))
    }

    /// Appends one owner digest transition. The record's structural
    /// invariants (init from the zero sentinel, update preserves length,
    /// append grows by one) are enforced here so the file always
    /// replays; *chain* continuity against the previous record for the
    /// same file is [`crate::replay`]'s business.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a structurally invalid record; otherwise as
    /// [`LedgerWriter::append`].
    pub fn append_digest(&mut self, record: &DigestRecord) -> std::io::Result<()> {
        self.check_poisoned()?;
        fits_u16("file id", &record.file_id)?;
        if let Err(what) = record.validate() {
            return Err(invalid(format!("refusing invalid digest record: {what}")));
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0u8; 4]);
        record.encode(&mut self.scratch);
        let seal = self.write_record(&[])?;
        self.seals.push(&seal);
        self.auto_checkpoint()
    }

    /// Appends one multi-vantage position record. Like
    /// [`LedgerWriter::append`], the record is validated to *replay*
    /// before it is sealed: structural invariants must hold, and the
    /// recorded estimate must re-derive byte-identically from the
    /// recorded inputs (the offline verifier recomputes the seeded
    /// robust fit and byte-compares — an estimate that does not
    /// re-derive would poison the file for [`crate::replay`]).
    ///
    /// # Errors
    ///
    /// `InvalidData` for a record that would not replay; otherwise as
    /// [`LedgerWriter::append`].
    pub fn append_position(&mut self, record: &PositionRecord) -> std::io::Result<()> {
        self.check_poisoned()?;
        fits_u16("prover id", &record.prover)?;
        if record.vantages.len() as u64 > u64::from(u32::MAX) {
            return Err(invalid("record field exceeds the u32 length prefix".into()));
        }
        if let Err(what) = record.validate() {
            return Err(invalid(format!("refusing invalid position record: {what}")));
        }
        let rederived = PositionRecord {
            estimate: record.derive_estimate(),
            ..record.clone()
        };
        let mut a = Vec::with_capacity(record.body_len());
        record.encode(&mut a);
        let mut b = Vec::with_capacity(rederived.body_len());
        rederived.encode(&mut b);
        if a != b {
            return Err(invalid(
                "refusing unreplayable record: the recorded estimate does not re-derive \
                 from the recorded vantages"
                    .into(),
            ));
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0u8; 4]);
        self.scratch.extend_from_slice(&a);
        let seal = self.write_record(&[])?;
        self.seals.push(&seal);
        self.auto_checkpoint()
    }

    /// Converts and appends a
    /// [`geoproof_core::evidence::PositionBundle`].
    ///
    /// # Errors
    ///
    /// As [`LedgerWriter::append_position`].
    pub fn append_position_bundle(
        &mut self,
        bundle: &geoproof_core::evidence::PositionBundle,
    ) -> std::io::Result<()> {
        self.append_position(&PositionRecord::from_bundle(bundle))
    }

    /// Writes a checkpoint (TPA-signed Merkle root over all evidence
    /// seals) and **syncs** — a returned `Ok(true)` means everything up
    /// to here is on disk. Returns `Ok(false)` (and writes nothing) when
    /// no evidence arrived since the last checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates write/sync failures.
    pub fn checkpoint(&mut self) -> std::io::Result<bool> {
        self.check_poisoned()?;
        if self.uncovered() == 0 {
            return Ok(false);
        }
        let root = self
            .seals
            .root()
            .expect("uncovered() > 0 implies at least one seal");
        let covered = self.seals.len();
        let signature = self
            .tpa
            .sign(
                &checkpoint_message_for(&self.header, covered, &root),
                &mut self.rng,
            )
            .to_bytes();
        let checkpoint = Checkpoint {
            covered,
            root,
            signature,
        };
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0u8; 4]);
        checkpoint.encode(&mut self.scratch);
        self.write_record(&[])?;
        self.covered = covered;
        self.sync()?;
        Ok(true)
    }

    /// Forces everything written so far to disk (the explicit fsync
    /// boundary).
    ///
    /// # Errors
    ///
    /// Propagates `fsync` failure.
    pub fn sync(&mut self) -> std::io::Result<()> {
        let started = std::time::Instant::now();
        let result = self.file.sync_data();
        writer_metrics().fsync.record_duration_us(started.elapsed());
        result
    }

    /// Seals the ledger for handoff: checkpoints any uncovered evidence
    /// and syncs. Idempotent.
    ///
    /// # Errors
    ///
    /// Propagates write/sync failures.
    pub fn finish(&mut self) -> std::io::Result<()> {
        self.checkpoint()?;
        self.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::Ledger;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gp-ledger-writer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        dir.join(name)
    }

    fn tpa() -> SigningKey {
        SigningKey::generate(&mut ChaChaRng::from_u64_seed(42))
    }

    fn sample(k: usize, epoch: u64) -> EvidenceRecord {
        let mut r = crate::record::tests::sample_record(k);
        r.epoch = epoch;
        r
    }

    #[test]
    fn create_append_read_roundtrip() {
        let path = tmp("roundtrip.log");
        std::fs::remove_file(&path).ok();
        let tpa = tpa();
        let mut w = LedgerWriter::create(&path, &tpa, 0, 1).expect("create");
        for epoch in 0..3 {
            w.append(&sample(4, epoch)).expect("append");
        }
        assert!(w.checkpoint().expect("checkpoint"));
        assert!(!w.checkpoint().expect("no-op checkpoint"), "nothing new");
        let ledger = Ledger::read(&path).expect("read");
        assert_eq!(ledger.evidence_count(), 3);
        assert_eq!(ledger.checkpoint_count(), 1);
        assert_eq!(ledger.head(), w.head());
        for (ev, record) in ledger.evidence() {
            assert_eq!(record.epoch, ev);
            assert_eq!(record, &sample(4, ev));
        }
    }

    #[test]
    fn automatic_checkpoints_fire_on_interval() {
        let path = tmp("auto-ckpt.log");
        std::fs::remove_file(&path).ok();
        let mut w = LedgerWriter::create(&path, &tpa(), 2, 1).expect("create");
        for epoch in 0..5 {
            w.append(&sample(3, epoch)).expect("append");
        }
        w.finish().expect("finish");
        let ledger = Ledger::read(&path).expect("read");
        assert_eq!(ledger.evidence_count(), 5);
        // Two automatic (after 2 and 4) plus the finishing one.
        assert_eq!(ledger.checkpoint_count(), 3);
        assert_eq!(ledger.uncovered_evidence(), 0);
    }

    #[test]
    fn reopen_continues_the_chain_and_epochs() {
        let path = tmp("reopen.log");
        std::fs::remove_file(&path).ok();
        let tpa = tpa();
        {
            let mut w = LedgerWriter::create(&path, &tpa, 0, 1).expect("create");
            w.append(&sample(4, 0)).expect("append");
            w.finish().expect("finish");
        }
        let (mut w, recovery) = LedgerWriter::open(&path, &tpa, 2).expect("open");
        assert_eq!(recovery, Recovery::Clean);
        assert_eq!(w.next_epoch("prover-0001"), 1);
        w.append(&sample(4, w.next_epoch("prover-0001")))
            .expect("append");
        w.finish().expect("finish");
        let ledger = Ledger::read(&path).expect("read");
        assert_eq!(ledger.evidence_count(), 2);
        let epochs: Vec<u64> = ledger.evidence().map(|(_, e)| e.epoch).collect();
        assert_eq!(epochs, vec![0, 1]);
    }

    #[test]
    fn failed_write_rolls_back_and_later_appends_stay_valid() {
        let path = tmp("rollback.log");
        std::fs::remove_file(&path).ok();
        let tpa = tpa();
        let mut w = LedgerWriter::create(&path, &tpa, 0, 1).expect("create");
        w.append(&sample(3, 0)).expect("append");
        let good = std::fs::metadata(&path).expect("stat").len();

        // Inject a mid-record write failure: the partial prefix must be
        // rolled back, not left for the next append to bury.
        w.fail_next_write = true;
        let err = w.append(&sample(3, 1)).expect_err("injected failure");
        assert_eq!(err.to_string(), "injected write failure");
        assert_eq!(
            std::fs::metadata(&path).expect("stat").len(),
            good,
            "partial record must be truncated away"
        );

        // The writer is still usable and the file stays fully valid.
        w.append(&sample(3, 1)).expect("append after rollback");
        w.finish().expect("finish");
        let ledger = Ledger::read(&path).expect("read");
        assert_eq!(ledger.evidence_count(), 2);
        let epochs: Vec<u64> = ledger.evidence().map(|(_, e)| e.epoch).collect();
        assert_eq!(epochs, vec![0, 1]);
    }

    #[test]
    fn append_refuses_records_that_would_not_replay() {
        let path = tmp("unreplayable.log");
        std::fs::remove_file(&path).ok();
        let mut w = LedgerWriter::create(&path, &tpa(), 0, 1).expect("create");
        // Garbage transcript bytes: live code never produces these, but a
        // caller assembling records by hand must not poison the file.
        let mut bad = sample(2, 0);
        bad.transcript = bytes::Bytes::from(vec![0xffu8; 64]);
        let err = w.append(&bad).expect_err("must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Same for undecodable report bytes.
        let mut bad = sample(2, 0);
        bad.report_bytes = bytes::Bytes::from(vec![0u8; 3]);
        let err = w.append(&bad).expect_err("must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Nothing was written: the file holds exactly the header.
        assert_eq!(w.record_count(), 0);
        w.sync().expect("sync");
        let ledger = crate::Ledger::read(&path).expect("read");
        assert_eq!(ledger.records().len(), 0);
    }

    #[test]
    fn concurrent_writers_are_excluded_and_stale_locks_reclaimed() {
        let path = tmp("locked.log");
        std::fs::remove_file(&path).ok();
        let tpa = tpa();
        let w = LedgerWriter::create(&path, &tpa, 0, 1).expect("create");
        // A second live writer (same pid — `/proc/<pid>` exists) is
        // refused while the first holds the lock.
        assert!(matches!(
            LedgerWriter::open(&path, &tpa, 2),
            Err(LedgerError::Io(_))
        ));
        drop(w); // releases the lock
        let (w, _) = LedgerWriter::open(&path, &tpa, 2).expect("open after release");
        drop(w);
        // A lock left by a dead process is reclaimed automatically.
        let lock_path = {
            let mut os = path.as_os_str().to_owned();
            os.push(".lock");
            std::path::PathBuf::from(os)
        };
        std::fs::write(&lock_path, "999999999").expect("stale lock");
        let (_w, _) = LedgerWriter::open(&path, &tpa, 3).expect("reclaim stale lock");
    }

    #[test]
    fn torn_tail_recovery_quarantines_the_dropped_bytes() {
        let path = tmp("quarantine.log");
        std::fs::remove_file(&path).ok();
        let tpa = tpa();
        let mut w = LedgerWriter::create(&path, &tpa, 0, 1).expect("create");
        w.append(&sample(3, 0)).expect("append");
        let good = std::fs::metadata(&path).expect("stat").len();
        w.append(&sample(3, 1)).expect("append");
        drop(w);
        let full = std::fs::read(&path).expect("read");
        std::fs::write(&path, &full[..full.len() - 5]).expect("tear");

        let (_w, recovery) = LedgerWriter::open(&path, &tpa, 2).expect("recover");
        assert!(matches!(recovery, Recovery::TruncatedTail { .. }));
        // The dropped suffix is preserved verbatim next to the ledger,
        // never destroyed — a mid-file length-prefix flip looks exactly
        // like a torn tail, and that suffix would be real evidence.
        let quarantine = {
            let mut os = path.as_os_str().to_owned();
            os.push(format!(".torn-{good}"));
            std::path::PathBuf::from(os)
        };
        let kept = std::fs::read(&quarantine).expect("quarantined bytes");
        assert_eq!(kept, &full[good as usize..full.len() - 5]);
        std::fs::remove_file(&quarantine).ok();
    }

    #[test]
    fn append_refuses_field_widths_the_format_cannot_carry() {
        // A 70 kB prover id would silently truncate through the u16
        // length prefix, sealing a record the decoder can never parse —
        // and with it, bricking every later read of the file.
        let path = tmp("overwide.log");
        std::fs::remove_file(&path).ok();
        let mut w = LedgerWriter::create(&path, &tpa(), 0, 1).expect("create");
        let mut wide = sample(2, 0);
        wide.prover = "p".repeat(70_000);
        let err = w.append(&wide).expect_err("must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let mut wide = sample(2, 0);
        wide.request.file_id = "f".repeat(70_000);
        let err = w.append(&wide).expect_err("must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The file is untouched and still appendable.
        w.append(&sample(2, 0)).expect("normal append still works");
        w.finish().expect("finish");
        assert_eq!(Ledger::read(&path).expect("read").evidence_count(), 1);
    }

    #[test]
    fn position_records_roundtrip_and_replay_from_the_tpa_key_alone() {
        let path = tmp("position.log");
        std::fs::remove_file(&path).ok();
        let tpa = tpa();
        let position = crate::record::tests::sample_position_record();
        {
            let mut w = LedgerWriter::create(&path, &tpa, 0, 1).expect("create");
            w.append_position(&position).expect("append position");
            w.append_position(&position).expect("append another");
            w.finish().expect("finish");
        }
        let ledger = Ledger::read(&path).expect("read");
        assert_eq!(ledger.position_count(), 2);
        let stored: Vec<_> = ledger.positions().collect();
        assert_eq!(stored.len(), 2);
        assert_eq!(stored[0].1, &position);
        // Offline replay recomputes the estimates and byte-compares.
        let outcome = crate::verify::replay(&ledger, &tpa.verifying_key(), None).expect("replay");
        assert_eq!(outcome.positions, 2);
        assert_eq!(outcome.evidence, 0);
        // The position record is also provable and replays via the proof.
        let proof = ledger.prove(1).expect("prove the position leaf");
        let verified = proof.verify(&tpa.verifying_key()).expect("verify");
        assert_eq!(verified.position(), Some(&position));
    }

    #[test]
    fn append_position_refuses_estimates_that_do_not_rederive() {
        let path = tmp("position-forged.log");
        std::fs::remove_file(&path).ok();
        let mut w = LedgerWriter::create(&path, &tpa(), 0, 1).expect("create");
        let mut forged = crate::record::tests::sample_position_record();
        // Nudge the recorded estimate away from the true fit: replay
        // would flag the file, so the writer must refuse it up front.
        if let Some(est) = forged.estimate.as_mut() {
            est.discrepancy = geoproof_sim::time::Km(est.discrepancy.0 + 1.0);
        }
        let err = w.append_position(&forged).expect_err("must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(w.record_count(), 0);
    }

    #[test]
    fn tampered_position_estimate_fails_replay() {
        let path = tmp("position-tamper.log");
        std::fs::remove_file(&path).ok();
        let tpa = tpa();
        let position = crate::record::tests::sample_position_record();
        {
            let mut w = LedgerWriter::create(&path, &tpa, 0, 1).expect("create");
            w.append_position(&position).expect("append position");
            w.sync().expect("sync");
        }
        // Flip one bit inside the recorded estimate's latitude. The seal
        // chain catches any in-place flip; re-sealing the record hides it
        // from the chain, but replay still recomputes the estimate.
        let mut raw = std::fs::read(&path).expect("read");
        let header_len = crate::reader::HEADER_LEN;
        let body_len = u32::from_be_bytes(raw[header_len..header_len + 4].try_into().unwrap());
        let body_at = header_len + 4;
        // estimate latitude = last (8+8+1+1) + 8+8 bytes from body end… locate
        // it structurally: body ends with [lat lon disc rms pack consistent].
        let est_lat_at = body_at + body_len as usize - (8 * 4 + 1 + 1);
        raw[est_lat_at + 7] ^= 0x01; // low mantissa bit of est.position.lat
        let body = &raw[body_at..body_at + body_len as usize];
        let genesis = crate::chain::genesis_hash(&raw[..header_len]);
        let seal = seal_hash(&genesis, 0, body_len, &[body]);
        let seal_at = body_at + body_len as usize;
        raw[seal_at..seal_at + 32].copy_from_slice(&seal);
        std::fs::write(&path, &raw).expect("write tampered");

        let ledger = Ledger::read(&path).expect("chain is internally consistent");
        match crate::verify::replay(&ledger, &tpa.verifying_key(), None) {
            Err(LedgerError::PositionMismatch { index }) => assert_eq!(index, 0),
            other => panic!("expected PositionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_crafted_checkpoint_coverage() {
        // Seals are unkeyed, so anyone can chain a checkpoint claiming
        // to cover more evidence than exists; trusting it would corrupt
        // the writer's arithmetic (uncovered() underflow).
        let path = tmp("forged-coverage.log");
        std::fs::remove_file(&path).ok();
        let tpa = tpa();
        let mut w = LedgerWriter::create(&path, &tpa, 0, 1).expect("create");
        w.append(&sample(2, 0)).expect("append");
        w.sync().expect("sync");
        let head = w.head();
        let records = w.record_count();
        drop(w);

        // Hand-chain a forged checkpoint record claiming covered=1000.
        let mut body = vec![crate::record::TAG_CHECKPOINT];
        body.extend_from_slice(&1000u64.to_be_bytes());
        body.extend_from_slice(&[0u8; 32]); // bogus root
        body.extend_from_slice(&[0u8; 64]); // bogus signature
        let seal = seal_hash(&head, records, body.len() as u32, &[&body]);
        let mut file = OpenOptions::new().append(true).open(&path).expect("open");
        file.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
        file.write_all(&body).unwrap();
        file.write_all(&seal).unwrap();
        drop(file);

        match LedgerWriter::open(&path, &tpa, 1) {
            Err(LedgerError::CheckpointCoverage { index }) => assert_eq!(index, records),
            other => panic!("expected CheckpointCoverage, got {other:?}"),
        }
        // The strict reader's prove() refuses it too, without panicking.
        let ledger = Ledger::read(&path).expect("chain itself is valid");
        assert!(matches!(
            ledger.prove(0),
            Err(LedgerError::CheckpointRoot { .. }) | Err(LedgerError::NotCovered { .. })
        ));
    }

    #[test]
    fn open_rejects_wrong_tpa_key() {
        let path = tmp("wrong-key.log");
        std::fs::remove_file(&path).ok();
        let mut w = LedgerWriter::create(&path, &tpa(), 0, 1).expect("create");
        w.append(&sample(2, 0)).expect("append");
        w.finish().expect("finish");
        drop(w); // release the writer lock so the key check is reached
        let other = SigningKey::generate(&mut ChaChaRng::from_u64_seed(99));
        assert!(matches!(
            LedgerWriter::open(&path, &other, 1),
            Err(LedgerError::TpaKeyMismatch)
        ));
    }

    #[test]
    fn create_refuses_to_clobber() {
        let path = tmp("clobber.log");
        std::fs::remove_file(&path).ok();
        let tpa = tpa();
        LedgerWriter::create(&path, &tpa, 0, 1).expect("create");
        assert!(matches!(
            LedgerWriter::create(&path, &tpa, 0, 1),
            Err(LedgerError::Io(_))
        ));
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let path = tmp("torn.log");
        std::fs::remove_file(&path).ok();
        let tpa = tpa();
        let mut w = LedgerWriter::create(&path, &tpa, 0, 1).expect("create");
        w.append(&sample(4, 0)).expect("append");
        let good_len = std::fs::metadata(&path).expect("stat").len();
        w.append(&sample(4, 1)).expect("append");
        drop(w);
        // Simulate a crash mid-second-append: keep a strict prefix.
        let full = std::fs::read(&path).expect("read file");
        std::fs::write(&path, &full[..full.len() - 7]).expect("tear");

        // Strict reading refuses the torn file…
        assert!(matches!(
            Ledger::read(&path),
            Err(LedgerError::TornTail { .. })
        ));
        // …the writer recovers it…
        let (mut w, recovery) = LedgerWriter::open(&path, &tpa, 2).expect("recover");
        assert_eq!(
            recovery,
            Recovery::TruncatedTail {
                dropped: full.len() as u64 - 7 - good_len
            }
        );
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), good_len);
        assert_eq!(w.evidence_count(), 1);
        // …and the chain continues as if the lost append never happened.
        w.append(&sample(4, 1)).expect("append after recovery");
        w.finish().expect("finish");
        let ledger = Ledger::read(&path).expect("read");
        assert_eq!(ledger.evidence_count(), 2);
    }
}
