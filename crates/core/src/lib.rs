//! # geoproof-core
//!
//! The GeoProof protocol (Albeshri, Boyd, Gonzalez Nieto — ICDCSW 2012):
//! geographic-location assurance for cloud storage by combining the
//! Juels–Kaliski Proof of Retrievability with a timed, distance-bounding
//! style challenge–response phase.
//!
//! The cast (paper Fig. 4):
//!
//! * the **data owner** ([`deployment::DataOwner`]) encodes the file
//!   (RS + encrypt + permute + MAC) and provisions the TPA;
//! * the **cloud provider** ([`provider::SegmentProvider`]) answers
//!   segment challenges — honestly from the SLA site, or adversarially
//!   (relay, corruption, stalling);
//! * the **verifier device** ([`verifier::VerifierDevice`]) — tamper-proof
//!   and GPS-enabled, on the provider's LAN — times each of the k rounds
//!   and signs the transcript;
//! * the **third-party auditor** ([`auditor::Auditor`]) checks signature,
//!   GPS position, MACs and `max Δt_j ≤ Δt_max`
//!   ([`policy::TimingPolicy`], ≈ 16 ms in the paper), for static files
//!   and for dynamic ones ([`dynamic_audit`]) alike: what the two audit
//!   kinds differ in is the [`verifier::Audit`] trait.
//!
//! Beyond the paper's single-prover protocol, [`engine`] audits many
//! provers (issue → drive on the work-stealing [`pool`] → judge), and
//! [`fleet`] simulates whole mixed honest/adversarial prover fleets
//! deterministically on a seeded event scheduler.
//!
//! # Examples
//!
//! ```
//! use geoproof_core::deployment::{DeploymentBuilder, ProviderBehaviour};
//! use geoproof_geo::coords::places::BRISBANE;
//! use geoproof_sim::time::Km;
//! use geoproof_storage::hdd::IBM_36Z15;
//! use geoproof_net::wan::AccessKind;
//!
//! // Honest provider: audits pass.
//! let mut honest = DeploymentBuilder::new(BRISBANE).build();
//! assert!(honest.run_audit(10).accepted());
//!
//! // Provider that moved the data 720 km away: timing gives it away.
//! let mut cheat = DeploymentBuilder::new(BRISBANE)
//!     .behaviour(ProviderBehaviour::Relay {
//!         remote_disk: IBM_36Z15,
//!         distance: Km(720.0),
//!         access: AccessKind::DataCentre,
//!     })
//!     .build();
//! assert!(!cheat.run_audit(10).accepted());
//! ```

pub mod auditor;
pub mod cache_attack;
pub mod campaign;
pub mod cost;
pub mod cursor;
pub mod deployment;
pub mod dynamic_audit;
pub mod engine;
pub mod evidence;
pub mod fleet;
pub mod landmark_audit;
pub mod messages;
pub mod multisite;
pub mod policy;
pub mod provider;
pub mod scheduler;
pub mod vantage;
pub mod verifier;

pub use auditor::{AuditReport, Auditor, SegmentVerdict, VerifyChecks, Violation};
pub use cache_attack::CachingRelayProvider;
pub use campaign::{run_campaign, CampaignResult, MisbehaviourOnset};
pub use cost::{audit_cost, naive_download_bytes, AuditCost};
pub use deployment::{DataOwner, Deployment, DeploymentBuilder, ProviderBehaviour};
pub use dynamic_audit::{
    DynAuditRequest, DynSegmentProvider, DynSignedTranscript, DynTimedRound, LocalDynProvider,
};
pub use engine::{AuditEngine, EngineConfig, Issued, ProverId, ProverSpec};
pub use evidence::{decode_report, encode_report, EvidenceBundle, EvidenceSink, PositionBundle};
pub use fleet::{run_fleet, run_fleet_with_evidence, AdversaryProfile, FleetConfig, FleetOutcome};
/// The shared work-stealing pool, lifted to its own crate so the POR
/// encoder (below `core` in the dependency DAG) can use it too;
/// re-exported here to keep the historical `geoproof_core::pool` path.
pub use geoproof_pool as pool;
pub use landmark_audit::{harden_report, landmark_position_check, LandmarkPing};
pub use messages::{AuditRequest, Round, SignedTranscript, TimedRound, Transcript};
pub use multisite::{ReplicaSite, ReplicationAudit, ReplicationReport};
pub use policy::{paper_relay_bound, relay_distance_bound, TimingPolicy};
pub use pool::{run_jobs, PoolStats};
pub use provider::{DelayedProvider, LocalProvider, RelayProvider, SegmentProvider};
pub use scheduler::{AuditScheduler, SchedulePolicy};
pub use vantage::{
    aggregate_vantages, observation_range, run_vantage_sessions, MultiVantageEstimate,
    MultiVantageOutcome, VantageObservation, VantagePolicy, VantageSession,
};
pub use verifier::{Audit, VerifierDevice};
