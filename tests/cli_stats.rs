//! CLI observability end-to-end over real TCP: encode → serve with a
//! `--metrics-addr` scrape listener → audits that push their verdicts
//! over `POST /ingest` → scrape + `geoproof stats`, asserting the
//! registry agrees exactly with the audits actually run (and their
//! exit codes).

use geoproof::obs::expose::{scrape, TextMetrics};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_geoproof");
const MASTER: &str = "cli-stats-master";

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gp-cli-stats-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir
}

/// Runs the binary, asserting the expected exit status; returns stdout.
fn run(args: &[&str], expect_success: bool) -> String {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn geoproof");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.success(),
        expect_success,
        "geoproof {args:?}\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    stdout
}

/// A `geoproof serve --metrics-addr` child killed on
/// drop; parses the metrics address from the first banner line and the
/// prover address from the second.
struct Server {
    child: Child,
    addr: String,
    metrics_addr: String,
}

impl Server {
    fn spawn(store: &Path) -> Server {
        let mut child = Command::new(BIN)
            .arg("serve")
            .arg(store)
            .args(["--metrics-addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let mut banner = || {
            let line = lines.next().expect("banner line").expect("read banner");
            // "metrics on <addr> (GET /metrics, POST /ingest)" /
            // "serving <fid> (<n> segments) on <addr> (reactor, ...)"
            line.split(" on ")
                .nth(1)
                .and_then(|s| s.split_whitespace().next())
                .unwrap_or_else(|| panic!("no address in banner: {line}"))
                .to_owned()
        };
        let metrics_addr = banner();
        let addr = banner();
        Server {
            child,
            addr,
            metrics_addr,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

#[test]
fn scraped_registry_agrees_with_audits_run() {
    let dir = tmpdir();
    let input = dir.join("input.bin");
    let data: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
    std::fs::write(&input, &data).expect("write input");
    let store = dir.join("store");

    run(
        &[
            "encode",
            input.to_str().unwrap(),
            store.to_str().unwrap(),
            "--fid",
            "cli-stats-demo",
            "--master",
            MASTER,
        ],
        true,
    );

    let server = Server::spawn(&store);

    // Three accepting audits (generous budget) plus one forced REJECT
    // (zero timing budget: every round violates) — the exit codes pin
    // exactly what the pushed verdict counters must say.
    for _ in 0..3 {
        let stdout = run(
            &[
                "audit",
                &server.addr,
                store.to_str().unwrap(),
                "--master",
                MASTER,
                "--k",
                "4",
                "--budget-ms",
                "5000",
                "--metrics-addr",
                &server.metrics_addr,
            ],
            true,
        );
        assert!(stdout.contains("verdict: ACCEPT"), "{stdout}");
    }
    let stdout = run(
        &[
            "audit",
            &server.addr,
            store.to_str().unwrap(),
            "--master",
            MASTER,
            "--k",
            "4",
            "--budget-ms",
            "0",
            "--metrics-addr",
            &server.metrics_addr,
        ],
        false,
    );
    assert!(stdout.contains("verdict: REJECT"), "{stdout}");

    // Scrape over real TCP: pushed verdicts + session latencies, and
    // the mux server's own hot-path instrumentation, all in one valid
    // text exposition.
    let text = scrape(server.metrics_addr.as_str()).expect("scrape");
    assert!(
        text.contains("# TYPE audit_verdicts_total counter"),
        "{text}"
    );
    assert!(
        text.contains("# TYPE audit_session_latency_us histogram"),
        "{text}"
    );
    let m = TextMetrics::parse(&text);
    assert_eq!(
        m.value("audit_verdicts_total{outcome=\"accept\"}"),
        Some(3.0),
        "{text}"
    );
    assert_eq!(
        m.value("audit_verdicts_total{outcome=\"reject\"}"),
        Some(1.0),
        "{text}"
    );
    assert_eq!(m.family_total("audit_verdicts_total"), 4.0);
    let h = m
        .histogram("audit_session_latency_us")
        .expect("latency histogram");
    assert_eq!(h.count, 4, "one session latency per audit\n{text}");
    assert!(h.sum > 0.0);

    // A flagless `serve` of a static store runs the session mux: the
    // serve process recorded its side of the same four audits.
    assert_eq!(m.value("mux_connections_total"), Some(4.0), "{text}");
    assert_eq!(m.value("mux_sessions_opened_total"), Some(4.0), "{text}");
    assert_eq!(
        m.value("mux_challenges_total"),
        Some(16.0),
        "k=4 challenges per audit\n{text}"
    );

    // `geoproof stats` renders the same scrape as a one-screen summary…
    let stdout = run(&["stats", &server.metrics_addr], true);
    assert!(
        stdout.contains("audit_verdicts_total{outcome=\"accept\"}"),
        "{stdout}"
    );
    assert!(stdout.contains("audit_session_latency_us"), "{stdout}");
    assert!(stdout.contains("p99"), "{stdout}");

    // …and --raw passes the exposition through untouched.
    let raw = run(&["stats", &server.metrics_addr, "--raw"], true);
    assert!(raw.contains("# TYPE audit_verdicts_total counter"), "{raw}");

    // A dead scrape target is a clean error, not a hang or a panic.
    run(&["stats", "127.0.0.1:1"], false);

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
