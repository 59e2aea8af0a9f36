//! Deterministic fleet simulation: hundreds of concurrent provers —
//! honest, slow, relaying, proof-forging — driving the
//! [`crate::engine::AuditEngine`] on one seeded
//! [`geoproof_sim::simnet::SimNet`] timeline.
//!
//! Every prover runs its own challenge/response state machine — the
//! same [`crate::verifier::AuditRun`] the SimClock device and the TCP
//! shell drive, here in an event-driven shell on SimNet; rounds from all
//! sessions interleave on the event queue exactly as they would on a
//! busy TPA, yet the whole run is a pure function of the seed. Adversary
//! behaviour is a per-prover [`AdversaryProfile`]; adding a new adversary
//! means adding a variant and a provider construction — see
//! `crates/sim/docs/simnet.md` for the recipe.

use crate::engine::{AuditEngine, EngineConfig, Issued, ProverId, ProverSpec};
use crate::messages::{AuditRequest, SignedTranscript};
use crate::provider::{DelayedProvider, LocalProvider, RelayProvider, SegmentProvider};
use crate::verifier::{AuditRun, VerifierDevice};
use geoproof_crypto::chacha::ChaChaRng;
use geoproof_crypto::schnorr::SigningKey;
use geoproof_crypto::sha256::Sha256;
use geoproof_geo::coords::places::BRISBANE;
use geoproof_geo::gps::GpsReceiver;
use geoproof_net::lan::LanPath;
use geoproof_net::load::ContentionModel;
use geoproof_net::wan::{AccessKind, WanModel};
use geoproof_por::encode::PorEncoder;
use geoproof_por::keys::PorKeys;
use geoproof_por::params::PorParams;
use geoproof_sim::clock::Stopwatch;
use geoproof_sim::simnet::SimNet;
use geoproof_sim::time::{Km, SimDuration};
use geoproof_storage::hdd::{HddModel, HddSpec, IBM_36Z15, WD_2500JD};
use geoproof_storage::server::{FileId, StorageServer};

use crate::auditor::AuditReport;

/// How a simulated prover behaves.
#[derive(Clone, Debug, PartialEq)]
pub enum AdversaryProfile {
    /// Stores honestly at the SLA site on the paper's reference disk.
    Honest,
    /// Honest data, overloaded service: fixed extra delay per round.
    Slow {
        /// Added delay per request.
        extra: SimDuration,
    },
    /// Fig. 6 relay: data actually lives `distance` away behind `access`,
    /// on the fastest catalogued disk (attackers buy good hardware).
    Relay {
        /// Distance to the remote data centre.
        distance: Km,
        /// Access class of the inter-site link.
        access: AccessKind,
    },
    /// Keeps timing honest but forges segment contents (every stored
    /// segment corrupted) — the POR layer must catch it.
    ForgeSegments,
}

impl AdversaryProfile {
    /// Short label for tallies.
    pub fn label(&self) -> &'static str {
        match self {
            AdversaryProfile::Honest => "honest",
            AdversaryProfile::Slow { .. } => "slow",
            AdversaryProfile::Relay { .. } => "relay",
            AdversaryProfile::ForgeSegments => "forge",
        }
    }
}

/// Fleet simulation parameters.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// One profile per prover; prover i is named `prover-{i:04}`.
    pub provers: Vec<AdversaryProfile>,
    /// Challenges per session.
    pub k: u32,
    /// Master seed: drives file content, keys, device RNGs, schedule.
    pub seed: u64,
    /// POR parameters for the shared audited file.
    pub params: PorParams,
    /// Plaintext size of the audited file.
    pub file_bytes: usize,
    /// Queueing model for concurrent load on the audit path.
    pub contention: ContentionModel,
    /// Session starts are staggered uniformly across this window.
    pub start_spread: SimDuration,
}

impl FleetConfig {
    /// A mixed fleet with paper-derived adversary defaults: relays at
    /// 720 km over a data-centre link (twice the paper's ≈ 360 km
    /// evasion bound, so detection is certain), 10 ms overload for slow
    /// provers.
    pub fn mixed(honest: usize, slow: usize, relay: usize, forging: usize, seed: u64) -> Self {
        let mut provers = Vec::with_capacity(honest + slow + relay + forging);
        provers.extend(std::iter::repeat(AdversaryProfile::Honest).take(honest));
        provers.extend(
            std::iter::repeat(AdversaryProfile::Slow {
                extra: SimDuration::from_millis(10),
            })
            .take(slow),
        );
        provers.extend(
            std::iter::repeat(AdversaryProfile::Relay {
                distance: Km(720.0),
                access: AccessKind::DataCentre,
            })
            .take(relay),
        );
        provers.extend(std::iter::repeat(AdversaryProfile::ForgeSegments).take(forging));
        FleetConfig {
            provers,
            k: 8,
            seed,
            params: PorParams::test_small(),
            file_bytes: 6000,
            contention: ContentionModel::none(),
            start_spread: SimDuration::from_millis(50),
        }
    }
}

/// The outcome of one fleet run.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// Per-prover verdicts, sorted by prover id.
    pub reports: Vec<(ProverId, AuditReport)>,
    /// Each prover's profile, sorted by prover id.
    pub profiles: Vec<(ProverId, AdversaryProfile)>,
    /// Events the scheduler processed.
    pub events: u64,
    /// Simulated time at which the last session finished.
    pub sim_time: SimDuration,
    /// Most sessions simultaneously in flight.
    pub peak_in_flight: usize,
    /// First evidence-recording failure, when a sink was installed —
    /// verdicts are never affected, but a caller persisting evidence
    /// must check this (and its sink's own `finish`) before trusting
    /// the ledger to be complete.
    pub evidence_error: Option<String>,
}

impl FleetOutcome {
    /// Accepted session count.
    pub fn accepted(&self) -> usize {
        self.reports.iter().filter(|(_, r)| r.accepted()).count()
    }

    /// Rejected session count.
    pub fn rejected(&self) -> usize {
        self.reports.len() - self.accepted()
    }

    /// `(label, accepted, total)` per profile, sorted by label.
    pub fn tally(&self) -> Vec<(&'static str, usize, usize)> {
        let mut map: std::collections::BTreeMap<&'static str, (usize, usize)> =
            std::collections::BTreeMap::new();
        for ((id, report), (pid, profile)) in self.reports.iter().zip(&self.profiles) {
            debug_assert_eq!(id, pid);
            let entry = map.entry(profile.label()).or_default();
            entry.1 += 1;
            if report.accepted() {
                entry.0 += 1;
            }
        }
        map.into_iter()
            .map(|(label, (acc, total))| (label, acc, total))
            .collect()
    }

    /// A snapshot of the global telemetry registry, taken now — the
    /// hook benches and the fleet dashboard use to fold run counters
    /// (`fleet_*`, `audit_*`, pool and encode totals) into their JSON
    /// artifacts. Only meaningful when recording was enabled
    /// ([`geoproof_obs::set_enabled`]) before the run.
    pub fn registry_snapshot(&self) -> geoproof_obs::Snapshot {
        geoproof_obs::global().snapshot()
    }

    /// A digest of the entire outcome (verdicts, violations, timings,
    /// event count) — two runs are behaviourally identical iff their
    /// fingerprints match.
    pub fn fingerprint(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"geoproof-fleet-v1");
        h.update(format!("{:?}", self.reports).as_bytes());
        h.update(&self.events.to_be_bytes());
        h.update(&self.sim_time.as_nanos().to_be_bytes());
        h.finalize()
    }
}

/// Per-prover state while its session runs.
struct Driver {
    id: ProverId,
    device: VerifierDevice,
    provider: Box<dyn SegmentProvider>,
    issued: Option<Issued>,
    run: Option<AuditRun<AuditRequest>>,
    timer: Option<Stopwatch>,
    pending: Option<Option<bytes::Bytes>>,
    started: Option<geoproof_sim::time::SimInstant>,
}

/// Scheduler events: a session starting, or a round's response arriving.
#[derive(Clone, Copy, Debug)]
enum FleetEvent {
    Start(usize),
    Response(usize),
}

/// Runs the whole fleet to completion; a pure function of `config`.
///
/// # Panics
///
/// Panics if `config.provers` is empty or `k` exceeds the encoded
/// file's segment count.
pub fn run_fleet(config: &FleetConfig) -> FleetOutcome {
    run_fleet_inner(config, None)
}

/// Like [`run_fleet`], but records every prover's verdict into `sink` as
/// durable evidence. The simulation itself is unchanged — outcomes (and
/// fingerprints) are identical to [`run_fleet`] with the same config;
/// records are written by [`AuditEngine::judge`] in sorted prover
/// order, so the ledger contents are as deterministic as the fleet
/// itself.
///
/// # Panics
///
/// Panics as [`run_fleet`] does.
pub fn run_fleet_with_evidence(
    config: &FleetConfig,
    sink: std::sync::Arc<dyn crate::evidence::EvidenceSink>,
) -> FleetOutcome {
    run_fleet_inner(config, Some(sink))
}

fn run_fleet_inner(
    config: &FleetConfig,
    sink: Option<std::sync::Arc<dyn crate::evidence::EvidenceSink>>,
) -> FleetOutcome {
    assert!(
        !config.provers.is_empty(),
        "fleet needs at least one prover"
    );
    let file_id = "fleet-file";
    let encoder = PorEncoder::new(config.params);
    let keys = PorKeys::derive(&config.seed.to_be_bytes(), file_id);
    let mut content_rng = ChaChaRng::from_u64_seed(config.seed ^ 0xf1ee7);
    let mut data = vec![0u8; config.file_bytes];
    content_rng.fill_bytes(&mut data);
    let tagged = encoder.encode_arena(&data, &keys, file_id);
    let n_segments = tagged.metadata().segments;

    let mut engine = AuditEngine::new(
        file_id,
        n_segments,
        PorEncoder::new(config.params),
        keys.auditor_view(),
        EngineConfig {
            seed: config.seed,
            k: config.k,
            ..EngineConfig::default()
        },
    );
    if let Some(sink) = sink {
        engine.set_evidence_sink(sink);
    }

    let mut net: SimNet<FleetEvent> = SimNet::new(config.seed);
    let fid = FileId::from(file_id);

    // Build one driver per prover, all sharing the scheduler's timeline.
    let mut drivers: Vec<Driver> = Vec::with_capacity(config.provers.len());
    for (i, profile) in config.provers.iter().enumerate() {
        let id = ProverId(format!("prover-{i:04}"));
        let mut key_rng = ChaChaRng::from_seed(Sha256::digest(
            format!("fleet-device:{}:{}", config.seed, id.0).as_bytes(),
        ));
        let sk = SigningKey::generate(&mut key_rng);
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
            net.clock(),
            config.seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9),
        );

        let storage = |disk: HddSpec, seed: u64, corrupt: bool| {
            let mut s = StorageServer::new(HddModel::deterministic(disk), seed);
            if corrupt {
                // The forger rewrites the data, so it genuinely owns a
                // mutated copy.
                let segments: Vec<Vec<u8>> = tagged
                    .iter()
                    .map(|seg| seg.iter().map(|b| b ^ 0x5a).collect())
                    .collect();
                s.put_file(fid.clone(), segments);
            } else {
                // Honest provers all share views of the one upload.
                s.put_arena(fid.clone(), crate::provider::shared_store(&tagged));
            }
            s
        };
        let prover_seed = config.seed ^ ((i as u64 + 1) << 16);
        let provider: Box<dyn SegmentProvider> = match profile {
            AdversaryProfile::Honest => Box::new(LocalProvider::new(
                storage(WD_2500JD, prover_seed, false),
                LanPath::adjacent(),
                prover_seed + 1,
            )),
            AdversaryProfile::Slow { extra } => Box::new(DelayedProvider::new(
                LocalProvider::new(
                    storage(WD_2500JD, prover_seed, false),
                    LanPath::adjacent(),
                    prover_seed + 1,
                ),
                *extra,
            )),
            AdversaryProfile::Relay { distance, access } => Box::new(RelayProvider::new(
                storage(IBM_36Z15, prover_seed, false),
                LanPath::adjacent(),
                WanModel::calibrated(*access),
                *distance,
                prover_seed + 1,
            )),
            AdversaryProfile::ForgeSegments => Box::new(LocalProvider::new(
                storage(WD_2500JD, prover_seed, true),
                LanPath::adjacent(),
                prover_seed + 1,
            )),
        };
        drivers.push(Driver {
            id,
            device,
            provider,
            issued: None,
            run: None,
            timer: None,
            pending: None,
            started: None,
        });
    }

    // Stagger session starts across the spread window.
    let n = drivers.len() as u64;
    for i in 0..drivers.len() {
        let offset = SimDuration::from_nanos(config.start_spread.as_nanos() * i as u64 / n.max(1));
        net.schedule_at(
            geoproof_sim::time::SimInstant::EPOCH.advance(offset),
            FleetEvent::Start(i),
        );
    }

    let mut audits: Vec<(Issued, SignedTranscript)> = Vec::with_capacity(drivers.len());
    let mut active: usize = 0;
    let mut peak: usize = 0;
    // Simulated-time session durations (µs), folded into the registry
    // after the run so handle lookups stay out of the event loop.
    let mut session_latencies_us: Vec<u64> = Vec::new();
    let contention = config.contention.clone();

    // Issues the next challenge of driver `i`'s session.
    fn issue(
        net: &mut SimNet<FleetEvent>,
        driver: &mut Driver,
        i: usize,
        active: usize,
        contention: &ContentionModel,
        fid: &FileId,
    ) {
        let run = driver.run.as_ref().expect("session running");
        let index = run.next_index().expect("rounds remaining");
        driver.timer = Some(driver.device.clock().start_timer());
        let (data, service_time) = driver.provider.serve(fid, index);
        driver.pending = Some(data);
        let delay = service_time + contention.queueing_delay(active);
        net.schedule(delay, FleetEvent::Response(i));
    }

    net.run(|net, event| match event {
        FleetEvent::Start(i) => {
            let driver = &mut drivers[i];
            let issued = engine.issue(&driver.id).expect("registered prover");
            let run = driver
                .device
                .begin_audit(&issued.request)
                .expect("k within the file");
            driver.issued = Some(issued);
            driver.run = Some(run);
            driver.started = Some(net.now());
            active += 1;
            peak = peak.max(active);
            issue(net, driver, i, active, &contention, &fid);
        }
        FleetEvent::Response(i) => {
            let driver = &mut drivers[i];
            let rtt = driver.timer.take().expect("round timed").elapsed();
            let payload = driver.pending.take().expect("response in flight");
            let run = driver.run.as_mut().expect("session running");
            run.record_round(payload, rtt);
            if run.is_complete() {
                let run = driver.run.take().expect("session running");
                let transcript = driver.device.finish_audit(run);
                let issued = driver.issued.take().expect("session issued");
                audits.push((issued, transcript));
                let started = driver.started.take().expect("session started");
                session_latencies_us.push(net.now().duration_since(started).as_nanos() / 1_000);
                active -= 1;
            } else {
                issue(net, driver, i, active, &contention, &fid);
            }
        }
    });

    let reports = engine.judge(audits);

    let profiles = {
        let mut p: Vec<(ProverId, AdversaryProfile)> = config
            .provers
            .iter()
            .enumerate()
            .map(|(i, profile)| (ProverId(format!("prover-{i:04}")), profile.clone()))
            .collect();
        p.sort_by(|a, b| a.0.cmp(&b.0));
        p
    };

    // Fold the run into the global registry: one run, one audit verdict
    // per prover. (Per-session accept/reject counters moved inside the
    // engine's judge; these are the fleet-level rollups.)
    {
        struct FleetMetrics {
            runs: std::sync::Arc<geoproof_obs::Counter>,
            accept: std::sync::Arc<geoproof_obs::Counter>,
            reject: std::sync::Arc<geoproof_obs::Counter>,
            session_latency: std::sync::Arc<geoproof_obs::Histogram>,
        }
        static METRICS: std::sync::OnceLock<FleetMetrics> = std::sync::OnceLock::new();
        let m = METRICS.get_or_init(|| FleetMetrics {
            runs: geoproof_obs::counter("fleet_runs_total"),
            accept: geoproof_obs::counter("fleet_audits_total{outcome=\"accept\"}"),
            reject: geoproof_obs::counter("fleet_audits_total{outcome=\"reject\"}"),
            // Simulated time, unlike `audit_session_latency_us` (wall
            // clock on the live engine) — separate series on purpose.
            session_latency: geoproof_obs::histogram("fleet_session_latency_us"),
        });
        m.runs.inc();
        let accepted = reports.iter().filter(|(_, r)| r.accepted()).count() as u64;
        m.accept.add(accepted);
        m.reject.add(reports.len() as u64 - accepted);
        for us in &session_latencies_us {
            m.session_latency.record(*us);
        }
    }

    FleetOutcome {
        reports,
        profiles,
        events: net.events_processed(),
        sim_time: net
            .now()
            .duration_since(geoproof_sim::time::SimInstant::EPOCH),
        peak_in_flight: peak,
        evidence_error: engine.evidence_error(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_mixed_fleet_detects_every_adversary() {
        let outcome = run_fleet(&FleetConfig::mixed(6, 2, 2, 2, 33));
        assert_eq!(outcome.reports.len(), 12);
        let tally = outcome.tally();
        assert_eq!(
            tally,
            vec![
                ("forge", 0, 2),
                ("honest", 6, 6),
                ("relay", 0, 2),
                ("slow", 0, 2)
            ]
        );
    }

    #[test]
    fn fleet_surfaces_evidence_recording_failures() {
        struct FailingSink;
        impl crate::evidence::EvidenceSink for FailingSink {
            fn record(&self, _: &crate::evidence::EvidenceBundle) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let outcome = run_fleet_with_evidence(
            &FleetConfig::mixed(2, 0, 0, 0, 3),
            std::sync::Arc::new(FailingSink),
        );
        assert_eq!(outcome.accepted(), 2, "verdicts are unaffected");
        let err = outcome.evidence_error.expect("failure must surface");
        assert!(err.contains("disk full"), "{err}");
        // And a healthy run reports none.
        assert!(run_fleet(&FleetConfig::mixed(2, 0, 0, 0, 3))
            .evidence_error
            .is_none());
    }

    #[test]
    fn fleet_is_deterministic_per_seed() {
        let a = run_fleet(&FleetConfig::mixed(4, 1, 1, 1, 7));
        let b = run_fleet(&FleetConfig::mixed(4, 1, 1, 1, 7));
        let c = run_fleet(&FleetConfig::mixed(4, 1, 1, 1, 8));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn sessions_overlap_in_time() {
        let outcome = run_fleet(&FleetConfig::mixed(8, 0, 0, 0, 21));
        assert!(
            outcome.peak_in_flight > 1,
            "staggered starts within the spread must overlap, peak {}",
            outcome.peak_in_flight
        );
        // Every session contributes k responses plus one start event.
        assert_eq!(outcome.events, 8 * (8 + 1));
    }

    #[test]
    fn contention_pushes_honest_provers_over_budget() {
        // Paper headroom is ≈ 2.9 ms (16 − 13.1); with 1 ms of queueing
        // per concurrent session, a tightly-packed fleet busts it.
        let mut config = FleetConfig::mixed(10, 0, 0, 0, 5);
        config.contention = geoproof_net::load::ContentionModel::linear(
            SimDuration::from_millis(1),
            SimDuration::from_millis(100),
        );
        config.start_spread = SimDuration::from_micros(100); // all at once
        let loaded = run_fleet(&config);
        assert!(
            loaded.accepted() < 10,
            "queueing should reject some honest provers, accepted {}",
            loaded.accepted()
        );
        // The same fleet without contention is all-accept.
        let mut free = FleetConfig::mixed(10, 0, 0, 0, 5);
        free.start_spread = SimDuration::from_micros(100);
        assert_eq!(run_fleet(&free).accepted(), 10);
    }
}
