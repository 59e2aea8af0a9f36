//! # geoproof
//!
//! A from-scratch Rust reproduction of **"GeoProof: Proofs of Geographic
//! Location for Cloud Computing Environment"** (Albeshri, Boyd,
//! Gonzalez Nieto — ICDCS Workshops 2012).
//!
//! GeoProof lets a data owner verify that a cloud provider keeps a file at
//! the geographic location promised in the SLA, by combining a
//! Juels–Kaliski **Proof of Retrievability** with a **timed,
//! distance-bounding style** challenge–response phase run by a
//! tamper-proof GPS-enabled verifier device inside the provider's LAN.
//!
//! This facade re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`crypto`] | `geoproof-crypto` | SHA-256, HMAC, HKDF, AES-128(-CTR), ChaCha20 DRBG, Feistel PRP, Schnorr/edwards25519 |
//! | [`ecc`] | `geoproof-ecc` | GF(2^8), Reed–Solomon (255, 223, 32) with errors + erasures |
//! | [`sim`] | `geoproof-sim` | simulated clock, time/distance units, latency distributions |
//! | [`storage`] | `geoproof-storage` | Table I disk catalogue, arena-backed storage server |
//! | [`net`] | `geoproof-net` | LAN (Table II) and Internet (Table III) models |
//! | [`geo`] | `geoproof-geo` | coordinates, GPS + spoofing, triangulation, geolocation baselines |
//! | [`distbound`] | `geoproof-distbound` | Brands–Chaum, Hancke–Kuhn, Reid et al. + attacks |
//! | [`por`] | `geoproof-por` | MAC-based POR, streaming encode, dynamic POR, detection analysis |
//! | [`core`] | `geoproof-core` | the GeoProof protocol: owner, provider, verifier, TPA; the concurrent audit engine, deterministic fleet simulator, and continuous audit scheduler |
//! | [`reactor`] | `geoproof-reactor` | freestanding epoll event loop: edge-triggered readiness, hashed timer wheel, cross-thread waker |
//! | [`wire`] | `geoproof-wire` | framing codec, real-TCP challenge–response, multi-connection session-multiplexing prover server (one connection machine on an epoll shell) |
//! | [`ledger`] | `geoproof-ledger` | durable evidence: append-only hash-chained audit log, Merkle checkpoints, crash recovery, offline re-verification |
//! | [`obs`] | `geoproof-obs` | observability: lock-free counters/gauges/histograms, span journal, Prometheus text exposition |
//!
//! # Quickstart
//!
//! ```
//! use geoproof::prelude::*;
//!
//! // Stand up a full deployment (owner → cloud → TPA) in Brisbane…
//! let mut deployment = DeploymentBuilder::new(BRISBANE).build();
//! // …and audit it: 10 timed segment challenges.
//! let report = deployment.run_audit(10);
//! assert!(report.accepted());
//! ```

pub mod tcp_audit;

pub use geoproof_core as core;
pub use geoproof_crypto as crypto;
pub use geoproof_distbound as distbound;
pub use geoproof_ecc as ecc;
pub use geoproof_geo as geo;
pub use geoproof_ledger as ledger;
pub use geoproof_net as net;
pub use geoproof_obs as obs;
pub use geoproof_por as por;
pub use geoproof_reactor as reactor;
pub use geoproof_sim as sim;
pub use geoproof_storage as storage;
pub use geoproof_wire as wire;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use geoproof_core::auditor::{AuditReport, Auditor, Violation};
    pub use geoproof_core::campaign::{run_campaign, CampaignResult, MisbehaviourOnset};
    pub use geoproof_core::cost::{audit_cost, naive_download_bytes, AuditCost};
    pub use geoproof_core::deployment::{
        DataOwner, Deployment, DeploymentBuilder, ProviderBehaviour,
    };
    pub use geoproof_core::engine::{AuditEngine, EngineConfig, Issued, ProverId, ProverSpec};
    pub use geoproof_core::evidence::{decode_report, encode_report, EvidenceBundle, EvidenceSink};
    pub use geoproof_core::fleet::{
        run_fleet, run_fleet_with_evidence, AdversaryProfile, FleetConfig, FleetOutcome,
    };
    pub use geoproof_core::messages::{AuditRequest, SignedTranscript, TimedRound};
    pub use geoproof_core::multisite::{ReplicaSite, ReplicationAudit, ReplicationReport};
    pub use geoproof_core::policy::{paper_relay_bound, relay_distance_bound, TimingPolicy};
    pub use geoproof_core::provider::{
        shared_store, DelayedProvider, LocalProvider, RelayProvider, SegmentProvider,
    };
    pub use geoproof_core::verifier::VerifierDevice;
    pub use geoproof_crypto::chacha::ChaChaRng;
    pub use geoproof_geo::coords::places::*;
    pub use geoproof_geo::coords::GeoPoint;
    pub use geoproof_ledger::{
        replay, EvidenceRecord, InclusionProof, Ledger, LedgerSink, LedgerWriter, ReplayOutcome,
    };
    pub use geoproof_net::wan::{AccessKind, WanModel};
    pub use geoproof_por::encode::PorEncoder;
    pub use geoproof_por::keys::PorKeys;
    pub use geoproof_por::params::PorParams;
    pub use geoproof_por::stream::{SegmentLayout, TaggedArena};
    pub use geoproof_sim::simnet::SimNet;
    pub use geoproof_sim::time::{Km, SimDuration};
    pub use geoproof_storage::arena::SegmentArena;
    pub use geoproof_storage::hdd::{HddSpec, IBM_36Z15, TABLE_I, WD_2500JD};
    pub use geoproof_storage::server::FileId;
}
