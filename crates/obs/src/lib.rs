//! # geoproof-obs — fleet-scale telemetry for the audit stack
//!
//! A dependency-free observability subsystem in the workspace's
//! vendored-shim discipline (crates.io is unreachable, so there is no
//! `prometheus`, no `tracing`, no `hdrhistogram` — the useful tenth of
//! each is rebuilt here on `std` atomics alone):
//!
//! * **[`Counter`]/[`Gauge`]** — single `AtomicU64`/`AtomicI64` cells;
//! * **[`Histogram`]** — log-linear (HDR-style) buckets: exact below
//!   16, then 16 sub-buckets per power of two, so any `u64` lands in a
//!   bucket whose width is ≤ 1/16 of its value and quantile estimates
//!   carry a bounded ≤ 6.25 % relative error;
//! * **[`Registry`]** — a sharded get-or-register name → metric table.
//!   [`global()`] is the process-wide instance every instrumented crate
//!   records into;
//! * **[`span`]/[`SpanJournal`]** — enter/exit events with monotonic
//!   timestamps and parent ids in a fixed-size lock-free ring buffer,
//!   drainable while writers keep appending;
//! * **[`expose`]** — Prometheus-text-format rendering, a plain-TCP
//!   scrape listener (`GET /metrics`), and a push path
//!   (`POST /ingest`) for short-lived processes (the `audit` CLI)
//!   to report verdicts into a long-lived server's registry.
//!
//! ## The overhead contract
//!
//! Recording is **disabled by default**. Every record path starts with
//! one relaxed [`enabled()`] load; while disabled, instrumented hot
//! paths pay that single branch and nothing else — no allocation, no
//! atomic RMW, no clock read (this crate's `tests/disabled_alloc.rs`
//! pins the zero-allocation half of that claim). While *enabled*,
//! recording is lock-free atomics only — still allocation-free — so a
//! scraped production server never stalls a data-path thread; the
//! repo's benchmark reports that cost on a complete audit as
//! `obs.enabled_overhead_frac`. Registration (first use of a metric
//! name) allocates and may take a shard write lock; instrumented code
//! therefore registers once and caches the returned
//! [`std::sync::Arc`] handle.
//!
//! ## Naming scheme
//!
//! `<domain>_<what>[_<unit>][_total]{label="value"}` — domains are
//! `audit`, `encode`, `ledger`, `mux`, `pool`, `fleet`; units are
//! explicit (`_us`, `_bytes`); monotone counters end in `_total`.
//! Labelled variants embed rendered Prometheus labels directly in the
//! registered name: `audit_verdicts_total{outcome="accept"}`. See
//! `docs/observability.md` for the full catalogue.

pub mod expose;
mod histogram;
mod metrics;
mod registry;
mod span;

pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use metrics::{Counter, Gauge};
pub use registry::{counter, gauge, global, histogram, Registry, Snapshot};
pub use span::{journal, span, SpanEvent, SpanGuard, SpanJournal, SpanKind};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns recording on or off process-wide. Off (the default) keeps
/// every instrumented hot path at a single relaxed load + branch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether recording is currently on.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Monotonic nanoseconds since the first observability call in this
/// process — the span journal's clock.
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    static START: OnceLock<std::time::Instant> = OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// FNV-1a over a name — the deterministic shard/intern hash (std's
/// `RandomState` would randomise layout per process, making load
/// investigations unrepeatable; matches the session-table idiom in
/// `geoproof-wire`).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
