//! One screen of fleet telemetry: a mixed adversarial fleet runs with
//! the metrics registry enabled and every verdict recorded to a durable
//! evidence ledger, then the registry snapshot is rendered as the
//! summary an operator would watch — audit throughput, verdict mix,
//! session-latency quantiles, and the ledger append rate.
//!
//! The same numbers are scrapeable live from a real deployment:
//! `geoproof serve <store-dir> --metrics-addr 127.0.0.1:9100` exposes
//! them at `GET /metrics`, and `geoproof stats 127.0.0.1:9100 --watch`
//! renders this screen continuously. See
//! `crates/obs/docs/observability.md` for the full metric catalogue.
//!
//! ```sh
//! cargo run --example telemetry_dashboard
//! ```

use geoproof::crypto::schnorr::SigningKey;
use geoproof::obs::HistogramSnapshot;
use geoproof::prelude::*;
use std::sync::Arc;

fn main() {
    // Metrics are off by default and free when off; a deployment (or an
    // example) opts in once at startup.
    geoproof::obs::set_enabled(true);

    // Durable evidence: the fleet's verdicts land in a TPA-signed
    // ledger, and every append ticks `ledger_appends_total`.
    let ledger_path = std::env::temp_dir().join(format!(
        "geoproof-telemetry-dashboard-{}.evidence",
        std::process::id()
    ));
    std::fs::remove_file(&ledger_path).ok();
    let mut rng = ChaChaRng::from_u64_seed(77);
    let tpa_key = SigningKey::generate(&mut rng);
    let sink = Arc::new(LedgerSink::create(&ledger_path, &tpa_key, 8, 77).expect("ledger"));

    // 60 provers: 40 honest, 6 overloaded, 7 relaying offshore, 7
    // forging segments. Everything below is derived from this one run.
    let config = FleetConfig::mixed(40, 6, 7, 7, 0xda5b0a2d);
    let wall = std::time::Instant::now();
    let outcome = run_fleet_with_evidence(&config, sink);
    let wall = wall.elapsed();
    assert!(outcome.evidence_error.is_none(), "ledger must stay healthy");

    let snap = outcome.registry_snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let audits = counter("fleet_audits_total{outcome=\"accept\"}")
        + counter("fleet_audits_total{outcome=\"reject\"}");

    println!("== geoproof fleet telemetry ==================================");
    println!(
        "fleet            {} provers ({} events, peak {} sessions in flight)",
        outcome.reports.len(),
        outcome.events,
        outcome.peak_in_flight
    );
    println!(
        "audit throughput {:.0} audits/s wall  ({} audits in {:.0} ms; {:.1} s simulated)",
        audits as f64 / wall.as_secs_f64(),
        audits,
        wall.as_secs_f64() * 1e3,
        outcome.sim_time.as_millis_f64() / 1e3,
    );
    println!(
        "verdict mix      {} accept / {} reject",
        counter("fleet_audits_total{outcome=\"accept\"}"),
        counter("fleet_audits_total{outcome=\"reject\"}"),
    );
    if let Some(h) = snap.histogram("fleet_session_latency_us") {
        println!(
            "session latency  p50 {}  p99 {}  mean {}   (simulated, {} sessions)",
            fmt_us(h.quantile(0.5)),
            fmt_us(h.quantile(0.99)),
            fmt_us(h.mean() as u64),
            h.count,
        );
    }
    println!(
        "evidence ledger  {} appends, {} B written  ({:.0} appends/s wall)",
        counter("ledger_appends_total"),
        counter("ledger_append_bytes_total"),
        counter("ledger_appends_total") as f64 / wall.as_secs_f64(),
    );
    print_fsync(snap.histogram("ledger_fsync_us"));
    println!("==============================================================");

    // The registry agrees with the fleet's own report card.
    let accepted = outcome.reports.iter().filter(|(_, r)| r.accepted()).count() as u64;
    assert_eq!(counter("fleet_audits_total{outcome=\"accept\"}"), accepted);
    assert_eq!(audits, outcome.reports.len() as u64);
    assert!(
        counter("ledger_appends_total") >= outcome.reports.len() as u64,
        "at least one evidence record per prover (plus checkpoint frames)"
    );

    std::fs::remove_file(&ledger_path).ok();
}

fn print_fsync(h: Option<&HistogramSnapshot>) {
    if let Some(h) = h {
        if h.count > 0 {
            println!(
                "ledger fsync     p50 {}  p99 {}  ({} syncs)",
                fmt_us(h.quantile(0.5)),
                fmt_us(h.quantile(0.99)),
                h.count
            );
        }
    }
}

/// Microseconds rendered at a human scale.
fn fmt_us(us: u64) -> String {
    if us >= 10_000 {
        format!("{:.1} ms", us as f64 / 1e3)
    } else {
        format!("{us} µs")
    }
}
