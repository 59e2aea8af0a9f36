//! The multi-prover audit engine.
//!
//! The paper audits one prover at a time; the engine audits a fleet
//! against one file, in the TPA's three steps:
//!
//! * **issue** ([`AuditEngine::issue`]) — a fresh request per audit. Its
//!   nonce comes from `(engine seed, prover id, epoch)`, where the epoch
//!   counts the prover's earlier audits — never from shared RNG state, so
//!   issuing in any order yields identical requests, and a re-audit never
//!   reuses a nonce;
//! * **drive** — the prover's verifier device runs the k timed rounds
//!   and signs the transcript. [`AuditEngine::run_sessions`] drives many
//!   devices at once on a [`crate::pool`] worker pool; [`crate::fleet`]
//!   drives them on one SimNet timeline;
//! * **judge** ([`AuditEngine::judge`]) — every transcript through the
//!   single-prover [`crate::auditor::Auditor`]'s check sequence, its tag
//!   bits from [`Audit::tag_bits`]; each verdict is counted and recorded
//!   as evidence under its audit's own issued epoch.
//!
//! The engine owns its state (registered provers, epochs, the evidence
//! sink) and changes it only through `&mut self`.

use crate::auditor::{AuditReport, VerifyChecks};
use crate::evidence::EvidenceSink;
use crate::messages::{AuditRequest, SignedTranscript};
use crate::policy::TimingPolicy;
use crate::pool::{run_jobs, Job, PoolStats};
use crate::provider::SegmentProvider;
use crate::verifier::{Audit, VerifierDevice};
use geoproof_crypto::chacha::ChaChaRng;
use geoproof_crypto::schnorr::VerifyingKey;
use geoproof_crypto::sha256::Sha256;
use geoproof_geo::coords::GeoPoint;
use geoproof_por::encode::PorEncoder;
use geoproof_por::keys::AuditorKey;
use geoproof_sim::time::Km;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Cached telemetry handles (see `geoproof_obs`): verdict counters move
/// once per audit [`AuditEngine::judge`] passes; the latency histogram
/// covers the full challenge/response/sign session as run on the pool.
struct EngineMetrics {
    accept: Arc<geoproof_obs::Counter>,
    reject: Arc<geoproof_obs::Counter>,
    latency: Arc<geoproof_obs::Histogram>,
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

/// One issued audit: the request the prover's device answers and the
/// epoch its evidence carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Issued {
    /// The prover under audit.
    pub prover: ProverId,
    /// 0-based ordinal of this audit of this prover.
    pub epoch: u64,
    /// The request; its nonce is derived from `(seed, prover#epoch)`.
    pub request: AuditRequest,
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
    /// Worker threads for [`AuditEngine::run_sessions`].
    pub workers: usize,
    /// Seed for order-independent nonce derivation.
    pub seed: u64,
    /// Challenges per audit.
    pub k: u32,
    /// Accepted GPS offset from each prover's SLA location.
    pub location_tolerance: Km,
    /// The Δt_max policy.
    pub policy: TimingPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            seed: 0x6765_6f70_726f_6f66, // "geoproof"
            k: 10,
            location_tolerance: Km(25.0),
            policy: TimingPolicy::paper(),
        }
    }
}

/// The multi-prover audit engine for one file.
pub struct AuditEngine {
    config: EngineConfig,
    file_id: String,
    n_segments: u64,
    encoder: PorEncoder,
    auditor_key: AuditorKey,
    provers: HashMap<ProverId, ProverSpec>,
    /// Audits issued per prover — folded into the nonce derivation so a
    /// re-audit gets a fresh nonce (an old transcript cannot replay into
    /// a new audit), while staying a pure function of the engine's
    /// history with that prover.
    epochs: HashMap<ProverId, u64>,
    /// Optional durable-evidence sink: [`AuditEngine::judge`] records
    /// every verdict. `None` keeps judging free of evidence work (no
    /// canonical-bytes build, no allocation).
    sink: Option<Arc<dyn EvidenceSink>>,
    /// First evidence-recording failure, surfaced out-of-band — verdicts
    /// never change because a sink failed.
    sink_error: Option<String>,
}

impl std::fmt::Debug for AuditEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditEngine")
            .field("file_id", &self.file_id)
            .field("n_segments", &self.n_segments)
            .field("provers", &self.provers.len())
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
        AuditEngine {
            config,
            file_id: file_id.into(),
            n_segments,
            encoder,
            auditor_key,
            provers: HashMap::new(),
            epochs: HashMap::new(),
            sink: None,
            sink_error: None,
        }
    }

    /// Installs a durable-evidence sink: every verdict
    /// [`AuditEngine::judge`] reaches is recorded as an
    /// [`crate::evidence::EvidenceBundle`] under its audit's issued epoch.
    pub fn set_evidence_sink(&mut self, sink: Arc<dyn EvidenceSink>) {
        self.sink = Some(sink);
    }

    /// The first evidence-recording error, if any. Recording failures
    /// never alter verdicts; callers that care about durability check
    /// this (and their sink's own close/flush result) after a run.
    pub fn evidence_error(&self) -> Option<String> {
        self.sink_error.clone()
    }

    /// Seeds per-prover audit epochs — use when this engine appends to a
    /// ledger that earlier runs already wrote to (e.g. from
    /// `LedgerWriter::prover_epochs`), so nonces keep rotating and
    /// `(prover, epoch)` stays unique across process restarts. Seeding
    /// after audits were issued would replay nonces; call before any
    /// [`AuditEngine::issue`].
    pub fn seed_epochs(&mut self, seeds: impl IntoIterator<Item = (ProverId, u64)>) {
        self.epochs.extend(seeds);
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Registers a prover's device key and SLA location. Re-registering
    /// replaces the spec (device rotation).
    pub fn register_prover(&mut self, id: ProverId, spec: ProverSpec) {
        self.provers.insert(id, spec);
    }

    /// Registered prover count.
    pub fn prover_count(&self) -> usize {
        self.provers.len()
    }

    /// Issues the next audit of `prover`: derives its nonce from
    /// `(seed, prover#epoch)` and bumps the prover's epoch. (Challenge
    /// *indices* are drawn by the prover's verifier device, as in the
    /// paper's protocol; the engine-side derivation covers the nonce
    /// binding the transcript.) Returns `None` for an unregistered
    /// prover.
    pub fn issue(&mut self, prover: &ProverId) -> Option<Issued> {
        if !self.provers.contains_key(prover) {
            return None;
        }
        let next = self.epochs.entry(prover.clone()).or_insert(0);
        let epoch = *next;
        *next += 1;
        let nonce = session_nonce(self.config.seed, &format!("{}#{epoch}", prover.0));
        Some(Issued {
            prover: prover.clone(),
            epoch,
            request: AuditRequest {
                file_id: self.file_id.clone(),
                n_segments: self.n_segments,
                k: self.config.k,
                nonce,
            },
        })
    }

    fn checks_for<'a>(&'a self, spec: &'a ProverSpec) -> VerifyChecks<'a> {
        VerifyChecks {
            device_key: &spec.device_key,
            sla_location: spec.sla_location,
            location_tolerance: self.config.location_tolerance,
            policy: &self.config.policy,
        }
    }

    /// Judges `audits`, sorted by prover id (stably, so a prover's
    /// audits keep their input order); audits of unregistered provers
    /// are skipped. Each round's tag bit is [`Audit::tag_ok`]'s, exactly
    /// as the single-prover [`crate::auditor::Auditor`] derives it. Each
    /// verdict is counted once and, with a sink installed, recorded as
    /// evidence under its audit's own issued epoch, in the returned
    /// order.
    pub fn judge(
        &mut self,
        mut audits: Vec<(Issued, SignedTranscript)>,
    ) -> Vec<(ProverId, AuditReport)> {
        audits.sort_by(|a, b| a.0.prover.cmp(&b.0.prover));
        let mac_key = self.auditor_key.mac_key();
        let mut out = Vec::with_capacity(audits.len());
        for (issued, transcript) in audits {
            let Some(spec) = self.provers.get(&issued.prover) else {
                continue;
            };
            let mac_ok = issued.request.tag_bits(&self.encoder, mac_key, &transcript);
            let checks = self.checks_for(spec);
            let report = checks.verify_transcript(&issued.request, &transcript, &mac_ok);
            let m = metrics();
            if report.accepted() {
                m.accept.inc();
            } else {
                m.reject.inc();
            }
            if let Some(sink) = &self.sink {
                let bundle = checks.bundle(
                    issued.prover.0.clone(),
                    issued.epoch,
                    issued.request,
                    mac_ok,
                    report.clone(),
                    &transcript,
                );
                if let Err(e) = sink.record(&bundle) {
                    self.sink_error.get_or_insert(e.to_string());
                }
            }
            out.push((issued.prover, report));
        }
        out
    }

    /// Issues one audit per fleet entry, drives every device's session
    /// (k ordered rounds + signing) as one job on a work-stealing pool,
    /// then [`AuditEngine::judge`]s them all.
    ///
    /// Returns this run's reports (sorted by prover id; a prover listed
    /// twice is audited twice, under consecutive epochs), every audit
    /// with its transcript in fleet order, and pool statistics.
    /// Unregistered provers are absent from both lists.
    #[allow(clippy::type_complexity)]
    pub fn run_sessions(
        &mut self,
        fleet: Vec<(ProverId, VerifierDevice, Box<dyn SegmentProvider + Send>)>,
    ) -> (
        Vec<(ProverId, AuditReport)>,
        Vec<(Issued, SignedTranscript)>,
        PoolStats,
    ) {
        let (issued, kits): (Vec<Issued>, Vec<_>) = fleet
            .into_iter()
            .filter_map(|(id, device, provider)| Some((self.issue(&id)?, (device, provider))))
            .unzip();
        let mut transcripts: Vec<Option<SignedTranscript>> = vec![None; issued.len()];
        let jobs: Vec<Job<'_>> = issued
            .iter()
            .zip(kits)
            .zip(&mut transcripts)
            .map(|((issued, (mut device, mut provider)), slot)| {
                Box::new(move || {
                    let started = std::time::Instant::now();
                    *slot = Some(device.run_audit(&issued.request, &mut *provider));
                    metrics().latency.record_duration_us(started.elapsed());
                }) as Job<'_>
            })
            .collect();
        let stats = run_jobs(self.config.workers, jobs);
        // `run_jobs` returns only after every job ran (a panic propagates).
        let audits: Vec<(Issued, SignedTranscript)> = issued
            .into_iter()
            .zip(transcripts)
            .map(|(issued, transcript)| (issued, transcript.expect("job ran")))
            .collect();
        (self.judge(audits.clone()), audits, stats)
    }
}

/// The seed of a session's ChaCha stream.
fn session_seed(engine_seed: u64, session_key: &str) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"geoproof-plan-v1");
    h.update(&engine_seed.to_be_bytes());
    h.update(&(session_key.len() as u64).to_be_bytes());
    h.update(session_key.as_bytes());
    h.finalize()
}

/// Derives a session's audit nonce purely from `(engine seed, session
/// key)`: the first 32 bytes of a ChaCha stream seeded with
/// `SHA-256("geoproof-plan-v1" ‖ engine_seed ‖ len(session_key) ‖
/// session_key)`. No shared RNG state is involved, so nonces are
/// identical no matter how many sibling sessions exist or in which
/// order they are issued. The verifier devices draw the challenge
/// indices themselves, as the paper's protocol has the device do.
fn session_nonce(engine_seed: u64, session_key: &str) -> [u8; 32] {
    let mut rng = ChaChaRng::from_seed(session_seed(engine_seed, session_key));
    let mut nonce = [0u8; 32];
    rng.fill_bytes(&mut nonce);
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::LocalProvider;
    use geoproof_crypto::schnorr::SigningKey;
    use geoproof_geo::coords::places::BRISBANE;
    use geoproof_geo::gps::GpsReceiver;
    use geoproof_net::lan::LanPath;
    use geoproof_por::keys::PorKeys;
    use geoproof_por::params::PorParams;
    use geoproof_sim::clock::SimClock;
    use geoproof_storage::hdd::{HddModel, WD_2500JD};
    use geoproof_storage::server::{FileId, StorageServer};

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

        let mut engine = AuditEngine::new(
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
        let (mut engine, fleet) = rig(12, 5);
        let (reports, audits, stats) = engine.run_sessions(fleet);
        assert_eq!(reports.len(), 12);
        assert_eq!(audits.len(), 12);
        assert_eq!(stats.jobs, 12);
        for (id, report) in &reports {
            assert!(report.accepted(), "{id}: {:?}", report.violations);
            assert_eq!(report.segments_ok, 8);
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn session_nonce_is_pinned() {
        // Known answers: the engine's nonce derivation may not drift. The
        // second key has the engine's `prover#epoch` shape under the
        // fleet tests' default seed.
        assert_eq!(
            hex(&session_nonce(9, "p-0")),
            "37089f31354273c0cd16f793599a48a07b15711137534555da584a6def748bbd"
        );
        assert_eq!(
            hex(&session_nonce(0x6765_6f21, "prover-017#3")),
            "8338541d0b2606a82a82aae1c8ea5edeaab77975dc218668393a3926dcdc43dc"
        );
    }

    #[test]
    fn session_nonces_differ_across_sessions_and_seeds() {
        let a = session_nonce(9, "p-0");
        assert_ne!(a, session_nonce(9, "p-1"));
        assert_ne!(a, session_nonce(10, "p-0"));
    }

    #[test]
    fn unregistered_prover_is_absent_from_the_reports() {
        let (mut engine, mut fleet) = rig(2, 1);
        let ghost = ProverId::from("ghost");
        assert!(engine.issue(&ghost).is_none());
        fleet[1].0 = ghost;
        let (reports, audits, stats) = engine.run_sessions(fleet);
        let ids: Vec<&str> = reports.iter().map(|(id, _)| id.0.as_str()).collect();
        assert_eq!(ids, ["prover-000"]);
        assert_eq!(audits.len(), 1);
        assert_eq!(stats.jobs, 1);
    }

    #[test]
    fn issuing_twice_gives_consecutive_epochs_and_distinct_nonces() {
        let (mut engine, _) = rig(1, 2);
        let id = ProverId::from("prover-000");
        let first = engine.issue(&id).unwrap();
        let second = engine.issue(&id).unwrap();
        assert_eq!((first.epoch, second.epoch), (0, 1));
        assert_ne!(first.request.nonce, second.request.nonce);
    }

    #[test]
    fn session_plans_are_independent_of_open_order() {
        let (mut a, _) = rig(3, 9);
        let (mut b, _) = rig(3, 9);
        let ids: Vec<ProverId> = (0..3).map(|i| ProverId(format!("prover-{i:03}"))).collect();
        let fwd: Vec<_> = ids.iter().map(|i| a.issue(i).unwrap()).collect();
        let rev: Vec<_> = ids.iter().rev().map(|i| b.issue(i).unwrap()).collect();
        assert_eq!(fwd[0], rev[2]);
        assert_eq!(fwd[2], rev[0]);
    }

    /// Records `(epoch, nonce)` of every evidence bundle it receives.
    struct EpochLog(std::sync::mpsc::Sender<(u64, [u8; 32])>);

    impl EvidenceSink for EpochLog {
        fn record(&self, bundle: &crate::evidence::EvidenceBundle) -> std::io::Result<()> {
            self.0
                .send((bundle.epoch, bundle.request.nonce))
                .map_err(std::io::Error::other)
        }
    }

    #[test]
    fn judging_in_reverse_order_records_each_audit_under_its_own_epoch() {
        let (mut engine, fleet) = rig(1, 6);
        let (tx, rx) = std::sync::mpsc::channel();
        engine.set_evidence_sink(Arc::new(EpochLog(tx)));
        let (id, mut device, mut provider) = fleet.into_iter().next().unwrap();
        let first = engine.issue(&id).unwrap();
        let second = engine.issue(&id).unwrap();
        let expected = vec![(1, second.request.nonce), (0, first.request.nonce)];
        let t1 = device.run_audit(&first.request, provider.as_mut());
        let t2 = device.run_audit(&second.request, provider.as_mut());
        let reports = engine.judge(vec![(second, t2), (first, t1)]);
        assert!(reports.iter().all(|(_, r)| r.accepted()), "{reports:?}");
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), expected);
        assert!(engine.evidence_error().is_none());
    }

    #[test]
    fn a_first_request_transcript_judged_against_the_second_is_stale() {
        let (mut engine, fleet) = rig(1, 6);
        let (id, mut device, mut provider) = fleet.into_iter().next().unwrap();
        let first = engine.issue(&id).unwrap();
        let second = engine.issue(&id).unwrap();
        let t1 = device.run_audit(&first.request, provider.as_mut());
        let genuine = engine.judge(vec![(first, t1.clone())]);
        assert!(genuine[0].1.accepted());
        let replayed = engine.judge(vec![(second, t1)]);
        assert!(
            replayed[0]
                .1
                .violations
                .contains(&crate::auditor::Violation::StaleNonce),
            "replayed transcript must be flagged: {:?}",
            replayed[0].1.violations
        );
    }

    #[test]
    fn a_prover_listed_twice_is_audited_twice_under_consecutive_epochs() {
        let (mut engine, mut fleet) = rig(1, 7);
        fleet.extend(rig(1, 7).1); // the same prover's kit again
        let (reports, audits, _) = engine.run_sessions(fleet);
        assert_eq!(reports.len(), 2);
        assert!(reports
            .iter()
            .all(|(id, r)| id.0 == "prover-000" && r.accepted()));
        let epochs: Vec<u64> = audits.iter().map(|(issued, _)| issued.epoch).collect();
        assert_eq!(epochs, [0, 1]);
        assert_ne!(audits[0].1.nonce, audits[1].1.nonce);
    }
}
