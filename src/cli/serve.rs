//! `serve` (the prover server) and `stats` (a one-screen rendering of
//! its metrics scrape).

use super::args::Args;
use super::store::{read_dyn_store, read_store};
use super::{hex, CliResult};
use geoproof::wire::mux::MuxProverServer;
use geoproof::wire::tcp::SegmentStore;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

pub fn serve(raw: &[String]) -> CliResult {
    let values = "--delay-ms --metrics-addr";
    let args = Args::parse(raw, "<store-dir>", values, "")?;
    let store_dir = Path::new(args.pos(0));
    let delay_ms: u64 = args.get("--delay-ms", 0)?;
    let delay = std::time::Duration::from_millis(delay_ms);

    // The scrape listener binds before the prover socket so the banner
    // order is fixed (metrics line first, serving line second — both
    // parseable by `split(" on ")`). Binding also enables the global
    // registry, so the server records its hot-path metrics. The handle
    // must outlive the serve loop.
    let _metrics = match args.str("--metrics-addr") {
        Some(addr) => {
            let server = geoproof::obs::expose::ScrapeServer::bind(addr)
                .map_err(|e| format!("metrics bind {addr}: {e}"))?;
            println!("metrics on {} (GET /metrics, POST /ingest)", server.addr());
            Some(server)
        }
        None => None,
    };

    let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
    let server = MuxProverServer::spawn_reactor(store, delay).map_err(|e| {
        if e.kind() == std::io::ErrorKind::Unsupported {
            "serve needs the epoll reactor (Linux x86-64 or aarch64), \
             which this target lacks"
                .to_owned()
        } else {
            format!("bind: {e}")
        }
    })?;

    // A dynamic store dir (dyn-meta.txt present) is registered with its
    // owner's key — updates and appends arrive over the same socket
    // audits use; a static one is served as zero-copy segment views.
    let dynamic = store_dir.join("dyn-meta.txt").exists();
    let (file_id, detail) = if dynamic {
        let (tagged, meta) = read_dyn_store(store_dir)?;
        let owner_key = geoproof::crypto::schnorr::VerifyingKey::from_bytes(&meta.owner_pub)
            .ok_or("owner_pub in dyn-meta.txt is not a valid curve point")?;
        let digest = server.put_dynamic_with_owner(&meta.file_id, tagged, owner_key);
        let root = hex(&digest.root[..8]);
        let detail = format!("{} dynamic segments, digest root {root}", digest.segments);
        (meta.file_id, detail)
    } else {
        let (segments, md) = read_store(store_dir)?;
        server.put_shared(&md.file_id, segments);
        (md.file_id, format!("{} segments", md.segments))
    };
    let mode = if dynamic { "dynamic mode, " } else { "" };
    println!(
        "serving {file_id} ({detail}) on {} ({mode}reactor, service delay {delay_ms} ms); \
         Ctrl-C to stop",
        server.addr()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(60));
        let stats = server.stats();
        println!(
            "[stats] connections {} | challenges {} | hits {}",
            stats.connections, stats.challenges, stats.hits
        );
    }
}

pub fn stats(raw: &[String]) -> CliResult {
    use geoproof::obs::expose::{scrape, TextMetrics};
    let args = Args::parse(raw, "<ip:port>", "--interval-ms", "--watch --raw")?;
    let addr = args.pos(0);
    let interval_ms: u64 = args.get("--interval-ms", 2000)?;
    loop {
        let body = scrape(addr).map_err(|e| format!("scrape {addr}: {e}"))?;
        if args.has("--raw") {
            print!("{body}");
        } else {
            print!("{}", render_stats(&TextMetrics::parse(&body), addr));
        }
        if !args.has("--watch") {
            return Ok(());
        }
        std::io::stdout()
            .flush()
            .map_err(|e| format!("stdout: {e}"))?;
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
        println!("---");
    }
}

/// One-screen rendering of a parsed exposition: scalar series first,
/// then each histogram reduced to count / mean / p50 / p99.
fn render_stats(m: &geoproof::obs::expose::TextMetrics, addr: &str) -> String {
    let mut out = format!("metrics @ {addr}\n");
    if m.samples.is_empty() && m.histograms.is_empty() {
        out.push_str("  (no series recorded yet)\n");
        return out;
    }
    for (name, value) in &m.samples {
        out.push_str(&format!("  {name:<52} {value}\n"));
    }
    for (name, h) in &m.histograms {
        let mean = if h.count == 0 {
            0.0
        } else {
            h.sum / h.count as f64
        };
        out.push_str(&format!(
            "  {name:<52} count {} mean {mean:.1} p50 {} p99 {}\n",
            h.count,
            h.quantile(0.5),
            h.quantile(0.99),
        ));
    }
    out
}
