//! CLI observability end-to-end over real TCP: encode → serve with a
//! `--metrics-addr` scrape listener → audits that push their verdicts
//! over `POST /ingest` → scrape + `geoproof stats`, asserting the
//! registry agrees exactly with the audits actually run (and their
//! exit codes).

mod support;

use geoproof::obs::expose::{scrape, TextMetrics};
use std::io::{Read, Write};
use support::{run, tmpdir, write_input, Server};

const MASTER: &str = "cli-stats-master";

#[test]
fn scraped_registry_agrees_with_audits_run() {
    let dir = tmpdir("stats");
    let (input, store) = (format!("{dir}/input.bin"), format!("{dir}/store"));
    write_input(&input, 40_000);
    run(
        &format!("encode {input} {store} --fid cli-stats-demo --master {MASTER}"),
        true,
    );

    let server = Server::spawn(&format!("{store} --metrics-addr 127.0.0.1:0"));
    let metrics_addr = server.metrics_addr.clone().expect("metrics banner");

    // Three accepting audits (generous budget) plus one forced REJECT
    // (zero timing budget: every round violates) — the exit codes pin
    // exactly what the pushed verdict counters must say.
    let audit = |budget_ms: u32| {
        let line = format!(
            "audit {} {store} --master {MASTER} --k 4 --budget-ms {budget_ms} \
             --metrics-addr {metrics_addr}",
            server.addr
        );
        run(&line, budget_ms > 0)
    };
    for _ in 0..3 {
        let stdout = audit(5000);
        assert!(stdout.contains("verdict: ACCEPT"), "{stdout}");
    }
    let stdout = audit(0);
    assert!(stdout.contains("verdict: REJECT"), "{stdout}");

    // Scrape over real TCP: pushed verdicts + session latencies, and
    // the mux server's own hot-path instrumentation, all in one valid
    // text exposition.
    let text = scrape(metrics_addr.as_str()).expect("scrape");
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

    // The serve process recorded its side of the same four audits.
    assert_eq!(m.value("mux_connections_total"), Some(4.0), "{text}");
    assert_eq!(
        m.value("mux_challenges_total"),
        Some(16.0),
        "k=4 challenges per audit\n{text}"
    );
    assert_eq!(
        m.value("mux_hits_total"),
        Some(16.0),
        "every challenge found its segment\n{text}"
    );

    // A plain HTTP/1.1 client (as curl would send), not the crate's own
    // scrape helper, sees the same exposition line for line.
    let mut conn = std::net::TcpStream::connect(&metrics_addr).expect("connect metrics");
    write!(
        conn,
        "GET /metrics HTTP/1.1\r\nHost: {metrics_addr}\r\nAccept: */*\r\n\r\n"
    )
    .expect("send GET");
    let mut reply = String::new();
    conn.read_to_string(&mut reply).expect("read reply");
    let (head, body) = reply.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    for line in [
        "# TYPE audit_verdicts_total counter",
        "audit_verdicts_total{outcome=\"accept\"} 3",
        "audit_verdicts_total{outcome=\"reject\"} 1",
        "audit_session_latency_us_count 4",
        "mux_connections_total 4",
    ] {
        assert!(body.lines().any(|l| l == line), "{line:?} missing\n{body}");
    }

    // `geoproof stats` renders the same scrape as a one-screen summary…
    let stdout = run(&format!("stats {metrics_addr}"), true);
    assert!(
        stdout.contains("audit_verdicts_total{outcome=\"accept\"}"),
        "{stdout}"
    );
    assert!(stdout.contains("audit_session_latency_us"), "{stdout}");
    assert!(stdout.contains("p99"), "{stdout}");

    // …and --raw passes the exposition through untouched.
    let raw = run(&format!("stats {metrics_addr} --raw"), true);
    assert!(raw.contains("# TYPE audit_verdicts_total counter"), "{raw}");

    // A dead scrape target is a clean error, not a hang or a panic.
    run("stats 127.0.0.1:1", false);

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
