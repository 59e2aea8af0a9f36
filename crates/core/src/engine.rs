//! The concurrent multi-prover audit engine.
//!
//! The paper audits one prover at a time; the engine audits a fleet. It
//! owns:
//!
//! * a **sharded session table** — per-shard `parking_lot` mutexes keyed
//!   by prover id, so hundreds of sessions progress without a global lock;
//! * **order-independent challenge planning** — each session's nonce
//!   comes from `(engine seed, prover id)` via [`geoproof_por::batch`],
//!   never from shared RNG state, so opening sessions in any order (or
//!   from any thread) yields identical audits;
//! * **batched verification** — all collected transcripts are judged in
//!   one pass sharing the MAC parameterisation
//!   ([`SegmentBatchVerifier`]), with verdicts *byte-identical* to the
//!   sequential [`crate::auditor::Auditor`] path;
//! * a **work-stealing driver** ([`AuditEngine::run_sessions`]) that runs
//!   many blocking sessions on a [`crate::pool`] worker pool — the mode
//!   clients of the multiplexing `geoproof serve` exercise.
//!
//! The deterministic fleet simulation on top of this engine lives in
//! [`crate::fleet`].

use crate::auditor::{AuditReport, VerifyChecks};
use crate::evidence::{EvidenceBundle, EvidenceSink};
use crate::messages::{AuditRequest, SignedTranscript};
use crate::policy::TimingPolicy;
use crate::pool::{run_jobs, Job, PoolStats};
use crate::provider::SegmentProvider;
use crate::verifier::VerifierDevice;
use geoproof_crypto::schnorr::VerifyingKey;
use geoproof_geo::coords::GeoPoint;
use geoproof_por::batch::{session_nonce, SegmentBatchVerifier};
use geoproof_por::encode::PorEncoder;
use geoproof_por::keys::AuditorKey;
use geoproof_sim::time::Km;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Cached telemetry handles (see `geoproof_obs`): verdict counters move
/// only on a session's *first* verdict, so they count audits — never
/// re-verification passes; the latency histogram covers the full
/// challenge/response/sign session as run on the pool.
struct EngineMetrics {
    accept: std::sync::Arc<geoproof_obs::Counter>,
    reject: std::sync::Arc<geoproof_obs::Counter>,
    latency: std::sync::Arc<geoproof_obs::Histogram>,
}

fn metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EngineMetrics {
        accept: geoproof_obs::counter("audit_verdicts_total{outcome=\"accept\"}"),
        reject: geoproof_obs::counter("audit_verdicts_total{outcome=\"reject\"}"),
        latency: geoproof_obs::histogram("audit_session_latency_us"),
    })
}

/// Identifies a prover (a cloud site under audit).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProverId(pub String);

impl std::fmt::Display for ProverId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for ProverId {
    fn from(s: &str) -> Self {
        ProverId(s.to_owned())
    }
}

/// Where a session is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// Challenges issued; rounds in flight.
    InFlight,
    /// Transcript received; awaiting verification.
    Collected,
    /// Verified; report available.
    Done,
}

/// One prover's audit session.
#[derive(Clone, Debug)]
pub struct AuditSession {
    /// The prover under audit.
    pub prover: ProverId,
    /// The request issued for this session.
    pub request: AuditRequest,
    /// The signed transcript, once the device returned it.
    pub transcript: Option<SignedTranscript>,
    /// The verdict, once verified.
    pub report: Option<AuditReport>,
}

impl AuditSession {
    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        match (&self.transcript, &self.report) {
            (_, Some(_)) => SessionState::Done,
            (Some(_), None) => SessionState::Collected,
            (None, None) => SessionState::InFlight,
        }
    }
}

/// FNV-1a over the prover id — deterministic shard selection (no
/// per-process hasher randomness, so load patterns reproduce).
fn shard_of(id: &ProverId, shards: usize) -> usize {
    (geoproof_crypto::fnv::fnv1a_64(id.0.as_bytes()) as usize) % shards
}

/// A sharded, thread-safe session table keyed by prover id.
///
/// Invariants (pinned by property tests): a session is in exactly one
/// shard; interleaved `insert`/`complete` across threads never lose or
/// duplicate a session; `len` equals the number of live sessions.
#[derive(Debug)]
pub struct SessionTable {
    shards: Vec<Mutex<HashMap<ProverId, AuditSession>>>,
}

impl SessionTable {
    /// Creates a table with `shards` shards (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        SessionTable {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Inserts a session. Returns `false` (and leaves the table
    /// unchanged) if the prover already has a live session — sessions are
    /// never silently replaced.
    pub fn insert(&self, session: AuditSession) -> bool {
        let mut shard = self.shards[shard_of(&session.prover, self.shards.len())].lock();
        match shard.entry(session.prover.clone()) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(session);
                true
            }
        }
    }

    /// Runs `f` on the prover's live session, if any.
    pub fn with_mut<R>(&self, id: &ProverId, f: impl FnOnce(&mut AuditSession) -> R) -> Option<R> {
        let mut shard = self.shards[shard_of(id, self.shards.len())].lock();
        shard.get_mut(id).map(f)
    }

    /// Removes and returns the prover's session.
    pub fn complete(&self, id: &ProverId) -> Option<AuditSession> {
        let mut shard = self.shards[shard_of(id, self.shards.len())].lock();
        shard.remove(id)
    }

    /// Atomically removes the prover's session iff `pred` holds for it —
    /// check and removal happen under one shard lock, so no concurrent
    /// insert can slip in between.
    pub fn complete_if(
        &self,
        id: &ProverId,
        pred: impl FnOnce(&AuditSession) -> bool,
    ) -> Option<AuditSession> {
        let mut shard = self.shards[shard_of(id, self.shards.len())].lock();
        if shard.get(id).is_some_and(pred) {
            shard.remove(id)
        } else {
            None
        }
    }

    /// Atomically inserts `session`, replacing an existing one only when
    /// `allow_replace(existing)` holds. Returns whether the insert
    /// happened. The whole decision runs under one shard lock.
    pub fn insert_if(
        &self,
        session: AuditSession,
        allow_replace: impl FnOnce(&AuditSession) -> bool,
    ) -> bool {
        let mut shard = self.shards[shard_of(&session.prover, self.shards.len())].lock();
        match shard.get(&session.prover) {
            Some(existing) if !allow_replace(existing) => false,
            _ => {
                shard.insert(session.prover.clone(), session);
                true
            }
        }
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All live prover ids, sorted (deterministic iteration order).
    pub fn ids(&self) -> Vec<ProverId> {
        let mut ids: Vec<ProverId> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().keys().cloned().collect::<Vec<_>>())
            .collect();
        ids.sort();
        ids
    }
}

/// A registered prover: the key its verifier device signs with and the
/// location its SLA promises.
#[derive(Clone, Debug)]
pub struct ProverSpec {
    /// The device's registered public key.
    pub device_key: VerifyingKey,
    /// The SLA location.
    pub sla_location: GeoPoint,
}

/// Engine-wide configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Session-table shards.
    pub shards: usize,
    /// Worker threads for [`AuditEngine::run_sessions`].
    pub workers: usize,
    /// Seed for order-independent challenge planning.
    pub seed: u64,
    /// Challenges per session.
    pub k: u32,
    /// Accepted GPS offset from each prover's SLA location.
    pub location_tolerance: Km,
    /// The Δt_max policy.
    pub policy: TimingPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 16,
            workers: 4,
            seed: 0x6765_6f70_726f_6f66, // "geoproof"
            k: 10,
            location_tolerance: Km(25.0),
            policy: TimingPolicy::paper(),
        }
    }
}

/// The concurrent multi-prover audit engine for one file.
pub struct AuditEngine {
    config: EngineConfig,
    file_id: String,
    n_segments: u64,
    encoder: PorEncoder,
    auditor_key: AuditorKey,
    provers: Mutex<HashMap<ProverId, ProverSpec>>,
    /// Audits opened per prover — folded into the nonce derivation so a
    /// re-audit gets a fresh nonce (an old transcript cannot replay into
    /// a new session), while staying a pure function of the engine's
    /// history with that prover.
    epochs: Mutex<HashMap<ProverId, u64>>,
    table: SessionTable,
    /// Optional durable-evidence sink: every *first* verdict for a
    /// session is recorded. `None` keeps the hot path free of evidence
    /// work (no canonical-bytes build, no allocation).
    sink: Mutex<Option<std::sync::Arc<dyn EvidenceSink>>>,
    /// First evidence-recording failure, surfaced out-of-band — verdicts
    /// never change because a sink failed.
    sink_error: Mutex<Option<String>>,
}

impl std::fmt::Debug for AuditEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditEngine")
            .field("file_id", &self.file_id)
            .field("n_segments", &self.n_segments)
            .field("live_sessions", &self.table.len())
            .finish_non_exhaustive()
    }
}

impl AuditEngine {
    /// Creates an engine for one audited file.
    pub fn new(
        file_id: impl Into<String>,
        n_segments: u64,
        encoder: PorEncoder,
        auditor_key: AuditorKey,
        config: EngineConfig,
    ) -> Self {
        let shards = config.shards;
        AuditEngine {
            config,
            file_id: file_id.into(),
            n_segments,
            encoder,
            auditor_key,
            provers: Mutex::new(HashMap::new()),
            epochs: Mutex::new(HashMap::new()),
            table: SessionTable::new(shards),
            sink: Mutex::new(None),
            sink_error: Mutex::new(None),
        }
    }

    /// Installs a durable-evidence sink. Each session's first verdict
    /// (the transition to [`SessionState::Done`]) is recorded as an
    /// [`EvidenceBundle`]; re-verifying an already-`Done` session emits
    /// nothing, so the sequential/batched equivalence passes don't
    /// duplicate records.
    pub fn set_evidence_sink(&self, sink: std::sync::Arc<dyn EvidenceSink>) {
        *self.sink.lock() = Some(sink);
    }

    /// The first evidence-recording error, if any. Recording failures
    /// never alter verdicts; callers that care about durability check
    /// this (and their sink's own close/flush result) after a run.
    pub fn evidence_error(&self) -> Option<String> {
        self.sink_error.lock().clone()
    }

    /// Seeds per-prover audit epochs — use when this engine appends to a
    /// ledger that earlier runs already wrote to (e.g. from
    /// `LedgerWriter::prover_epochs`), so nonces keep rotating and
    /// `(prover, epoch)` stays unique across process restarts. Seeding
    /// after sessions have opened would replay nonces; call before any
    /// [`AuditEngine::open_session`].
    pub fn seed_epochs(&self, seeds: impl IntoIterator<Item = (ProverId, u64)>) {
        let mut epochs = self.epochs.lock();
        for (prover, epoch) in seeds {
            epochs.insert(prover, epoch);
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The session table (exposed for inspection and tests).
    pub fn table(&self) -> &SessionTable {
        &self.table
    }

    /// Registers a prover's device key and SLA location. Re-registering
    /// replaces the spec (device rotation).
    pub fn register_prover(&self, id: ProverId, spec: ProverSpec) {
        self.provers.lock().insert(id, spec);
    }

    /// Registered prover count.
    pub fn prover_count(&self) -> usize {
        self.provers.lock().len()
    }

    /// Opens a session for `prover`: derives its order-independent nonce
    /// and parks the session in the table. (Challenge *indices* are drawn
    /// by the prover's verifier device, as in the paper's protocol; the
    /// engine-side derivation covers the nonce binding the transcript.)
    ///
    /// A finished (`Done`) session from an earlier audit round is evicted
    /// and superseded — re-auditing a prover is routine. Returns `None`
    /// if the prover is unregistered or still has an unfinished session.
    pub fn open_session(&self, prover: &ProverId) -> Option<AuditRequest> {
        if !self.provers.lock().contains_key(prover) {
            return None;
        }
        // The epochs lock is held across the epoch read, the nonce
        // derivation *and* the table insert: two racing opens would
        // otherwise both read the same epoch and commit the same nonce
        // in successive rounds, re-enabling cross-round replay.
        let mut epochs = self.epochs.lock();
        let epoch = epochs.get(prover).copied().unwrap_or(0);
        let nonce = session_nonce(self.config.seed, &format!("{}#{epoch}", prover.0));
        let request = AuditRequest {
            file_id: self.file_id.clone(),
            n_segments: self.n_segments,
            k: self.config.k,
            nonce,
        };
        let session = AuditSession {
            prover: prover.clone(),
            request: request.clone(),
            transcript: None,
            report: None,
        };
        // Atomic insert-or-supersede: only a *finished* session may be
        // replaced, and the decision happens under the shard lock, so
        // racing opens can never evict each other's live session.
        if self
            .table
            .insert_if(session, |existing| existing.state() == SessionState::Done)
        {
            *epochs.entry(prover.clone()).or_insert(0) += 1;
            Some(request)
        } else {
            None // audit still running, or lost a race to a concurrent open
        }
    }

    /// Removes a finished session, returning it (report included). Live
    /// sessions are left untouched — eviction never cancels an audit
    /// (check and removal are atomic under the shard lock).
    pub fn take_finished(&self, prover: &ProverId) -> Option<AuditSession> {
        self.table
            .complete_if(prover, |s| s.state() == SessionState::Done)
    }

    /// Attaches a device's signed transcript to its session. Returns
    /// `false` when no live session exists or one was already submitted.
    pub fn submit_transcript(&self, prover: &ProverId, transcript: SignedTranscript) -> bool {
        self.table
            .with_mut(prover, |s| {
                if s.transcript.is_some() {
                    false
                } else {
                    s.transcript = Some(transcript);
                    true
                }
            })
            .unwrap_or(false)
    }

    fn checks_for<'a>(&'a self, spec: &'a ProverSpec) -> VerifyChecks<'a> {
        VerifyChecks {
            file_id: &self.file_id,
            n_segments: self.n_segments,
            device_key: &spec.device_key,
            sla_location: spec.sla_location,
            location_tolerance: self.config.location_tolerance,
            policy: &self.config.policy,
        }
    }

    /// Verifies every collected session **sequentially** — the reference
    /// path, calling [`PorEncoder::verify_segment`] per round exactly as
    /// the single-prover [`crate::auditor::Auditor`] does. Sessions stay
    /// in the table with their reports attached; results are sorted by
    /// prover id. Already-`Done` sessions are re-verified (verdicts are
    /// deterministic, so this can only reproduce them) — long-lived
    /// engines should evict finished sessions with
    /// [`AuditEngine::take_finished`].
    pub fn verify_collected_sequential(&self) -> Vec<(ProverId, AuditReport)> {
        self.verify_sequential_filtered(None)
    }

    fn verify_sequential_filtered(
        &self,
        only: Option<&std::collections::HashSet<ProverId>>,
    ) -> Vec<(ProverId, AuditReport)> {
        self.verify_collected_with(only, |_prover, transcript| {
            transcript
                .rounds
                .iter()
                .map(|round| {
                    self.encoder.verify_segment(
                        self.auditor_key.mac_key(),
                        &self.file_id,
                        round.index,
                        &round.segment,
                    )
                })
                .collect()
        })
    }

    /// Verifies every collected session in **one batched pass**: all
    /// sessions share a single [`SegmentBatchVerifier`] (one MAC
    /// parameterisation, one message buffer) over the whole fleet's
    /// rounds. Verdicts are byte-identical to
    /// [`AuditEngine::verify_collected_sequential`].
    pub fn verify_collected_batched(&self) -> Vec<(ProverId, AuditReport)> {
        self.verify_batched_filtered(None)
    }

    fn verify_batched_filtered(
        &self,
        only: Option<&std::collections::HashSet<ProverId>>,
    ) -> Vec<(ProverId, AuditReport)> {
        let mut batch =
            SegmentBatchVerifier::new(&self.encoder, self.auditor_key.mac_key(), &self.file_id);
        self.verify_collected_with(only, move |_prover, transcript| {
            transcript
                .rounds
                .iter()
                .map(|round| batch.verify_one(round.index, &round.segment))
                .collect()
        })
    }

    /// Shared driver: `segment_verdicts` maps a transcript to one MAC
    /// verdict per round; everything else (signature, nonce, GPS, round
    /// sanity, timing) is the common [`VerifyChecks`] logic. `only`
    /// restricts the pass to a subset of provers so callers auditing in
    /// rounds don't re-verify earlier rounds' finished sessions.
    fn verify_collected_with(
        &self,
        only: Option<&std::collections::HashSet<ProverId>>,
        mut segment_verdicts: impl FnMut(&ProverId, &SignedTranscript) -> Vec<bool>,
    ) -> Vec<(ProverId, AuditReport)> {
        let provers = self.provers.lock().clone();
        let mut out = Vec::new();
        for id in self.table.ids() {
            if only.is_some_and(|set| !set.contains(&id)) {
                continue; // outside the caller's scope
            }
            let snapshot = self
                .table
                .with_mut(&id, |s| {
                    s.transcript.clone().map(|t| (s.request.clone(), t))
                })
                .flatten();
            let Some((request, transcript)) = snapshot else {
                continue; // still in flight
            };
            let Some(spec) = provers.get(&id) else {
                continue; // deregistered mid-audit
            };
            let verdicts = segment_verdicts(&id, &transcript);
            let report =
                self.checks_for(spec)
                    .verify_transcript(&request, &transcript, |i, _round| {
                        verdicts.get(i).copied().unwrap_or(false)
                    });
            // Clone the sink handle out so no engine lock is held across
            // the sink's I/O. The epoch must be read *before* the report
            // is published: until then the session is not `Done`, so a
            // racing `open_session` cannot supersede it and bump the
            // count out from under us. (`epochs` counts opens, so the
            // session being judged is epoch `count - 1`.)
            let sink = self.sink.lock().clone();
            let epoch = if sink.is_some() {
                self.epochs
                    .lock()
                    .get(&id)
                    .copied()
                    .unwrap_or(1)
                    .saturating_sub(1)
            } else {
                0
            };
            let fresh_verdict = self
                .table
                .with_mut(&id, |s| {
                    // Publish only onto the session we actually verified:
                    // a concurrent `open_session` may have superseded a
                    // `Done` session while this pass held its snapshot,
                    // and stamping the old report (or recording duplicate
                    // evidence under the new epoch) onto the fresh
                    // session would corrupt it. Nonces are unique per
                    // epoch, so they identify the session.
                    if s.request.nonce != request.nonce {
                        return false;
                    }
                    let fresh = s.report.is_none();
                    s.report = Some(report.clone());
                    fresh
                })
                .unwrap_or(false);
            if fresh_verdict {
                let m = metrics();
                if report.accepted() {
                    m.accept.inc();
                } else {
                    m.reject.inc();
                }
                if let Some(sink) = sink {
                    let bundle = EvidenceBundle {
                        prover: id.0.clone(),
                        epoch,
                        device_key: spec.device_key.to_bytes(),
                        sla_location: spec.sla_location,
                        location_tolerance: self.config.location_tolerance,
                        policy: self.config.policy,
                        request,
                        mac_ok: verdicts,
                        report: report.clone(),
                        transcript: transcript.canonical_bytes(),
                    };
                    if let Err(e) = sink.record(&bundle) {
                        let mut err = self.sink_error.lock();
                        if err.is_none() {
                            *err = Some(e.to_string());
                        }
                    }
                }
            }
            out.push((id, report));
        }
        out
    }

    /// Drives many blocking sessions to completion on a work-stealing
    /// pool, then batch-verifies. Each entry supplies the prover's
    /// verifier device and the provider answering its challenges; the
    /// whole session (k ordered rounds + signing) runs as one job.
    ///
    /// Returns the reports of **this run's** sessions (sorted by id) plus
    /// pool statistics — provers whose session could not be opened (still
    /// mid-audit from elsewhere, or unregistered) are absent, never
    /// served stale verdicts from an earlier round.
    pub fn run_sessions(
        &self,
        fleet: Vec<(ProverId, VerifierDevice, Box<dyn SegmentProvider + Send>)>,
    ) -> (Vec<(ProverId, AuditReport)>, PoolStats) {
        let opened: Mutex<std::collections::HashSet<ProverId>> =
            Mutex::new(std::collections::HashSet::new());
        let jobs: Vec<Job<'_>> = fleet
            .into_iter()
            .map(|(id, mut device, mut provider)| {
                let opened = &opened;
                Box::new(move || {
                    let Some(request) = self.open_session(&id) else {
                        return;
                    };
                    let _span = geoproof_obs::span("audit_session");
                    let started = std::time::Instant::now();
                    opened.lock().insert(id.clone());
                    let transcript = device.run_audit(&request, &mut *provider);
                    self.submit_transcript(&id, transcript);
                    metrics().latency.record_duration_us(started.elapsed());
                }) as Job<'_>
            })
            .collect();
        let stats = run_jobs(self.config.workers, jobs);
        let opened = opened.into_inner();
        // Verify only this run's sessions — earlier rounds' finished
        // sessions are neither re-verified nor reported.
        (self.verify_batched_filtered(Some(&opened)), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::LocalProvider;
    use geoproof_crypto::chacha::ChaChaRng;
    use geoproof_crypto::schnorr::SigningKey;
    use geoproof_geo::coords::places::BRISBANE;
    use geoproof_geo::gps::GpsReceiver;
    use geoproof_net::lan::LanPath;
    use geoproof_por::keys::PorKeys;
    use geoproof_por::params::PorParams;
    use geoproof_sim::clock::SimClock;
    use geoproof_storage::hdd::{HddModel, WD_2500JD};
    use geoproof_storage::server::{FileId, StorageServer};

    fn session(id: &str) -> AuditSession {
        AuditSession {
            prover: ProverId::from(id),
            request: AuditRequest {
                file_id: "f".into(),
                n_segments: 10,
                k: 2,
                nonce: [0u8; 32],
            },
            transcript: None,
            report: None,
        }
    }

    #[test]
    fn table_insert_is_exclusive() {
        let t = SessionTable::new(4);
        assert!(t.insert(session("p")));
        assert!(!t.insert(session("p")), "duplicate insert must fail");
        assert_eq!(t.len(), 1);
        assert!(t.complete(&ProverId::from("p")).is_some());
        assert!(t.complete(&ProverId::from("p")).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn table_ids_are_sorted_across_shards() {
        let t = SessionTable::new(8);
        for id in ["zeta", "alpha", "mu", "beta"] {
            assert!(t.insert(session(id)));
        }
        let ids: Vec<String> = t.ids().into_iter().map(|p| p.0).collect();
        assert_eq!(ids, vec!["alpha", "beta", "mu", "zeta"]);
    }

    #[test]
    fn one_shard_still_works() {
        let t = SessionTable::new(0); // clamps to 1
        assert_eq!(t.shard_count(), 1);
        assert!(t.insert(session("a")));
        assert!(t.insert(session("b")));
        assert_eq!(t.len(), 2);
    }

    /// One prover's kit: identity, device, and the provider under audit.
    type FleetEntry = (ProverId, VerifierDevice, Box<dyn SegmentProvider + Send>);

    /// A full in-memory rig: one encoded file, n provers with their own
    /// devices and honest local storage.
    fn rig(n_provers: usize, seed: u64) -> (AuditEngine, Vec<FleetEntry>) {
        let params = PorParams::test_small();
        let encoder = PorEncoder::new(params);
        let keys = PorKeys::derive(b"engine-master", "ef");
        let data: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8).collect();
        let tagged = encoder.encode_arena(&data, &keys, "ef");
        let n = tagged.metadata().segments;

        let engine = AuditEngine::new(
            "ef",
            n,
            PorEncoder::new(params),
            keys.auditor_view(),
            EngineConfig {
                seed,
                k: 8,
                workers: 4,
                ..EngineConfig::default()
            },
        );

        let mut fleet = Vec::new();
        for i in 0..n_provers {
            let id = ProverId(format!("prover-{i:03}"));
            let mut rng = ChaChaRng::from_u64_seed(seed ^ (i as u64 + 1) << 8);
            let sk = SigningKey::generate(&mut rng);
            engine.register_prover(
                id.clone(),
                ProverSpec {
                    device_key: sk.verifying_key(),
                    sla_location: BRISBANE,
                },
            );
            let device = VerifierDevice::new(
                sk,
                GpsReceiver::new(BRISBANE),
                SimClock::new(),
                seed ^ (i as u64 + 77),
            );
            let mut storage = StorageServer::new(HddModel::deterministic(WD_2500JD), i as u64);
            storage.put_arena(FileId::from("ef"), crate::provider::shared_store(&tagged));
            let provider: Box<dyn SegmentProvider + Send> = Box::new(LocalProvider::new(
                storage,
                LanPath::adjacent(),
                i as u64 + 9,
            ));
            fleet.push((id, device, provider));
        }
        (engine, fleet)
    }

    #[test]
    fn concurrent_sessions_all_verify() {
        let (engine, fleet) = rig(12, 5);
        let (reports, stats) = engine.run_sessions(fleet);
        assert_eq!(reports.len(), 12);
        assert_eq!(stats.jobs, 12);
        for (id, report) in &reports {
            assert!(report.accepted(), "{id}: {:?}", report.violations);
            assert_eq!(report.segments_ok, 8);
        }
    }

    #[test]
    fn batched_equals_sequential_verdicts() {
        let (engine, fleet) = rig(6, 11);
        let (_, _) = engine.run_sessions(fleet);
        let sequential = engine.verify_collected_sequential();
        let batched = engine.verify_collected_batched();
        assert_eq!(sequential, batched);
    }

    #[test]
    fn unregistered_prover_cannot_open_session() {
        let (engine, _) = rig(1, 1);
        assert!(engine.open_session(&ProverId::from("ghost")).is_none());
    }

    #[test]
    fn double_open_is_rejected() {
        let (engine, _) = rig(1, 2);
        let id = ProverId::from("prover-000");
        assert!(engine.open_session(&id).is_some());
        assert!(engine.open_session(&id).is_none());
    }

    #[test]
    fn session_plans_are_independent_of_open_order() {
        let (a, _) = rig(3, 9);
        let (b, _) = rig(3, 9);
        let ids: Vec<ProverId> = (0..3).map(|i| ProverId(format!("prover-{i:03}"))).collect();
        let fwd: Vec<_> = ids.iter().map(|i| a.open_session(i).unwrap()).collect();
        let rev: Vec<_> = ids
            .iter()
            .rev()
            .map(|i| b.open_session(i).unwrap())
            .collect();
        assert_eq!(fwd[0], rev[2]);
        assert_eq!(fwd[2], rev[0]);
    }

    #[test]
    fn submit_requires_live_session_and_is_single_shot() {
        let (engine, fleet) = rig(1, 3);
        let (id, mut device, mut provider) = fleet.into_iter().next().unwrap();
        let request = engine.open_session(&id).unwrap();
        let transcript = device.run_audit(&request, provider.as_mut());
        assert!(!engine.submit_transcript(&ProverId::from("ghost"), transcript.clone()));
        assert!(engine.submit_transcript(&id, transcript.clone()));
        assert!(
            !engine.submit_transcript(&id, transcript),
            "second submit rejected"
        );
        let state = engine.table().with_mut(&id, |s| s.state()).unwrap();
        assert_eq!(state, SessionState::Collected);
    }

    #[test]
    fn finished_sessions_can_be_reaudited_and_old_transcripts_cannot_replay() {
        let (engine, fleet) = rig(1, 6);
        let (id, mut device, mut provider) = fleet.into_iter().next().unwrap();
        let req1 = engine.open_session(&id).unwrap();
        let t1 = device.run_audit(&req1, provider.as_mut());
        engine.submit_transcript(&id, t1.clone());
        let first = engine.verify_collected_batched();
        assert_eq!(first.len(), 1);
        assert!(first[0].1.accepted());

        // Re-opening evicts the finished session and derives a *fresh*
        // nonce (epoch bump), so the first transcript cannot replay.
        let req2 = engine.open_session(&id).unwrap();
        assert_ne!(req1.nonce, req2.nonce, "re-audit must rotate the nonce");
        engine.submit_transcript(&id, t1); // replay attempt
        let replayed = engine.verify_collected_batched();
        assert!(
            replayed[0]
                .1
                .violations
                .contains(&crate::auditor::Violation::StaleNonce),
            "replayed transcript must be flagged: {:?}",
            replayed[0].1.violations
        );

        // A genuine fresh audit under the new request is accepted.
        let (engine2, fleet2) = rig(1, 6);
        let (id2, mut device2, mut provider2) = fleet2.into_iter().next().unwrap();
        engine2.open_session(&id2).unwrap();
        engine2.take_finished(&id2); // no-op: not finished
        assert!(engine2.table().with_mut(&id2, |s| s.state()).is_some());
        let req = AuditRequest {
            nonce: req2.nonce,
            ..req2.clone()
        };
        let t2 = device2.run_audit(&req, provider2.as_mut());
        // Different device key, so only the nonce path is exercised here;
        // the point is the fresh transcript carries the fresh nonce.
        assert_eq!(t2.nonce, req2.nonce);
    }

    #[test]
    fn take_finished_only_removes_done_sessions() {
        let (engine, fleet) = rig(1, 12);
        let (id, mut device, mut provider) = fleet.into_iter().next().unwrap();
        let request = engine.open_session(&id).unwrap();
        assert!(engine.take_finished(&id).is_none(), "in-flight stays put");
        let transcript = device.run_audit(&request, provider.as_mut());
        engine.submit_transcript(&id, transcript);
        assert!(engine.take_finished(&id).is_none(), "collected stays put");
        engine.verify_collected_batched();
        let taken = engine.take_finished(&id).expect("done session evictable");
        assert!(taken.report.unwrap().accepted());
        assert!(engine.table().is_empty());
    }

    #[test]
    fn session_state_progression() {
        let (engine, fleet) = rig(1, 4);
        let (id, mut device, mut provider) = fleet.into_iter().next().unwrap();
        let request = engine.open_session(&id).unwrap();
        assert_eq!(
            engine.table().with_mut(&id, |s| s.state()).unwrap(),
            SessionState::InFlight
        );
        let transcript = device.run_audit(&request, provider.as_mut());
        engine.submit_transcript(&id, transcript);
        engine.verify_collected_batched();
        assert_eq!(
            engine.table().with_mut(&id, |s| s.state()).unwrap(),
            SessionState::Done
        );
    }
}
