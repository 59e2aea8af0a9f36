//! The five workloads. Later issues refer to them by name; why each was
//! chosen is written in `BENCHMARK.json` and `README.md`.

use std::time::Duration;

/// Auditor threads, each with at most one connection open. Fixed, not
/// taken from the host, so results compare across hosts; the host's core
/// count is recorded beside every result.
pub const C: usize = 2;

/// Timed windows per run; each end-to-end metric is the median of its
/// per-window values.
pub const WINDOWS: usize = 10;

/// Load seconds of a `--smoke` run (the default is `run_seconds` of
/// `BENCHMARK.json`).
pub const SMOKE_SECONDS: f64 = 5.0;

/// A percentile is taken per window when every window leaves at least
/// this many samples beyond it (1000 samples for p99, 200 for p95, 20
/// for p50), otherwise over the pooled samples of the run.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Challenges per audit.
    pub k: u32,
    pub file_mib: usize,
    /// Evidence records per signed, fsynced checkpoint.
    pub checkpoint_interval: u32,
    /// The server's stand-in for the disk look-up.
    pub service_delay: Duration,
    /// Open loop: provers enrolled in the scheduler under [`OPEN_POLICY`]
    /// (offered rate = provers ÷ cadence). `None` is a closed loop of
    /// [`C`] auditors.
    pub open_provers: Option<usize>,
}

/// The scheduler policy of the open-loop workload; `max-in-flight=0`
/// lifts the admission cap so the offered rate is never throttled.
pub const OPEN_POLICY: &str = "cadence=2s,jitter=0.2,max-in-flight=0";
/// Offered rates of the ramp that follows the traced open-loop windows.
pub const RAMP_RATES: [usize; 3] = [1200, 1600, 2000];
/// The latency limit a ramp step must meet at p99.
pub const RAMP_P99_LIMIT_US: f64 = 10_000.0;

pub const WORKLOADS: [Workload; 5] = [
    // The CLI default and paper-shaped audit: every layer contributes.
    // Headline capacity.
    Workload {
        name: "steady_k20",
        k: 20,
        file_mib: 4,
        checkpoint_interval: 64,
        service_delay: Duration::ZERO,
        open_provers: None,
    },
    // Every verdict checkpointed and fsynced, one round per audit: the
    // per-audit fixed costs (connect, Schnorr, append, fsync) do the work.
    Workload {
        name: "churn_k1",
        k: 1,
        file_mib: 4,
        checkpoint_interval: 1,
        service_delay: Duration::ZERO,
        open_provers: None,
    },
    // An arena larger than cache and 200 rounds: per-round wire, reactor and
    // store cost is nearly all of the audit; verify and ledger are noise.
    Workload {
        name: "long_k200",
        k: 200,
        file_mib: 64,
        checkpoint_interval: 64,
        service_delay: Duration::ZERO,
        open_provers: None,
    },
    // steady_k20 with a stand-in for the disk look-up: timer parking and
    // cold wake-ups; throughput is delay-bound, round excess and CPU move.
    Workload {
        name: "lookup_2ms",
        k: 20,
        file_mib: 4,
        checkpoint_interval: 64,
        service_delay: Duration::from_millis(2),
        open_provers: None,
    },
    // Schedule-driven: 1600 provers ÷ 2 s = 800 audits/s offered, latency
    // from the due tick; scheduler, queueing and ledger mutex matter here.
    Workload {
        name: "open_k20",
        k: 20,
        file_mib: 4,
        checkpoint_interval: 64,
        service_delay: Duration::ZERO,
        open_provers: Some(1600),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
