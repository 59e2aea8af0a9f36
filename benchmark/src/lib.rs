//! The repo's benchmark: one complete audit — `Auditor::issue_request`
//! → `WallClockVerifier::run_audit` over loopback TCP against an
//! in-process `MuxProverServer::spawn_reactor` →
//! `Auditor::verify_evidence` → `LedgerWriter::append_bundle` — under
//! five workloads, then the replay of the ledger it wrote. Every layer
//! is measured from outside, by timing calls into public functions. See
//! `README.md` for what each workload and metric is for.

pub mod compare;
pub mod contract;
pub mod drive;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod procfs;
pub mod rig;
pub mod run;
pub mod stats;
pub mod workload;
