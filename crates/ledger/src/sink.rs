//! The bridge between live verification paths and the ledger: a
//! thread-safe [`geoproof_core::evidence::EvidenceSink`] wrapping a
//! [`LedgerWriter`].

use crate::writer::{LedgerWriter, Recovery};
use crate::LedgerError;
use geoproof_core::evidence::{EvidenceBundle, EvidenceSink};
use geoproof_crypto::schnorr::SigningKey;
use parking_lot::Mutex;
use std::path::Path;

/// A shareable ledger sink: hand `Arc<LedgerSink>` to an
/// `AuditEngine`, `run_fleet_with_evidence`, or a `DeploymentBuilder`,
/// then call [`LedgerSink::finish`] once the run is over to checkpoint
/// and fsync.
pub struct LedgerSink {
    writer: Mutex<LedgerWriter>,
}

impl std::fmt::Debug for LedgerSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LedgerSink")
            .field("writer", &*self.writer.lock())
            .finish()
    }
}

impl LedgerSink {
    /// Wraps an existing writer.
    pub fn new(writer: LedgerWriter) -> Self {
        LedgerSink {
            writer: Mutex::new(writer),
        }
    }

    /// Creates a fresh ledger file (see [`LedgerWriter::create`]).
    ///
    /// # Errors
    ///
    /// As [`LedgerWriter::create`].
    pub fn create(
        path: impl AsRef<Path>,
        tpa: &SigningKey,
        interval: u32,
        seed: u64,
    ) -> Result<LedgerSink, LedgerError> {
        Ok(LedgerSink::new(LedgerWriter::create(
            path, tpa, interval, seed,
        )?))
    }

    /// Opens or creates a ledger file, recovering a torn tail (see
    /// [`LedgerWriter::open_or_create`]).
    ///
    /// # Errors
    ///
    /// As [`LedgerWriter::open_or_create`].
    pub fn open_or_create(
        path: impl AsRef<Path>,
        tpa: &SigningKey,
        interval: u32,
        seed: u64,
    ) -> Result<(LedgerSink, Recovery), LedgerError> {
        let (writer, recovery) = LedgerWriter::open_or_create(path, tpa, interval, seed)?;
        Ok((LedgerSink::new(writer), recovery))
    }

    /// Runs `f` on the wrapped writer.
    pub fn with_writer<R>(&self, f: impl FnOnce(&mut LedgerWriter) -> R) -> R {
        f(&mut self.writer.lock())
    }

    /// Evidence counts per prover (see [`LedgerWriter::prover_epochs`]) —
    /// feed these to `AuditEngine::seed_epochs` before re-auditing into
    /// a ledger that earlier runs already wrote to.
    pub fn prover_epochs(&self) -> Vec<(String, u64)> {
        self.writer.lock().prover_epochs()
    }

    /// Checkpoints uncovered evidence and fsyncs. Idempotent; call when
    /// a run completes.
    ///
    /// # Errors
    ///
    /// Propagates write/sync failures.
    pub fn finish(&self) -> std::io::Result<()> {
        self.writer.lock().finish()
    }
}

impl EvidenceSink for LedgerSink {
    fn record(&self, bundle: &EvidenceBundle) -> std::io::Result<()> {
        self.writer.lock().append_bundle(bundle)
    }
}
