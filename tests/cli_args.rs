//! The CLI refuses, before any connect and before any ledger write,
//! every argument that would silently change or drop an audit: a
//! challenge count outside 1..=segments (in all three audit modes),
//! unknown flags, value flags without a value, repeated flags, and
//! flags the chosen mode does not read. Flag values never count as
//! positionals, so flags may come first.

mod support;

use support::{fail, run, tmpdir, write_input, Server};

const MASTER: &str = "cli-args-master";

/// A served 8 kB store: its directory, server and segment count.
struct Served {
    dir: String,
    store: String,
    server: Server,
    segments: u64,
}

impl Served {
    fn new(tag: &str, dynamic: bool) -> Served {
        let dir = tmpdir(tag);
        let (input, store) = (format!("{dir}/input.bin"), format!("{dir}/store"));
        write_input(&input, 8_000);
        let encode = if dynamic {
            "encode-dynamic --segment-bytes 2048"
        } else {
            "encode"
        };
        let stdout = run(
            &format!("{encode} {input} {store} --fid {tag} --master {MASTER}"),
            true,
        );
        let segments = stdout
            .split("-> ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
            .unwrap_or_else(|| panic!("no segment count: {stdout}"));
        let server = Server::spawn(&store);
        Served {
            dir,
            store,
            server,
            segments,
        }
    }

    /// `audit <addr> <store> --master M --budget-ms 5000 <extra>`.
    fn audit(&self, extra: &str) -> String {
        let (addr, store) = (&self.server.addr, &self.store);
        format!("audit {addr} {store} --master {MASTER} --budget-ms 5000 {extra}")
    }

    /// k = 0 and k = n + 1 both fail cleanly, naming the segment count,
    /// and leave no ledger behind.
    fn assert_k_range_refused(&self, mode: &str) {
        let ledger = format!("{}/evidence.log", self.dir);
        let n = self.segments;
        for k in [0, n + 1] {
            let stderr = fail(&self.audit(&format!("--k {k} --ledger {ledger} {mode}")));
            assert!(stderr.contains(&format!("1..={n}")), "{stderr}");
            assert!(stderr.contains(&format!("{n} segments")), "{stderr}");
            assert!(
                !std::path::Path::new(&ledger).exists(),
                "--k {k} wrote a ledger"
            );
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

#[test]
fn static_audit_refuses_k_outside_the_segment_count() {
    Served::new("args-k-static", false).assert_k_range_refused("");
}

#[test]
fn dynamic_audit_refuses_k_outside_the_segment_count() {
    let sv = Served::new("args-k-dynamic", true);
    assert_eq!(sv.segments, 4);
    sv.assert_k_range_refused("--dynamic");
    // k = n is the whole file, not a clamp target.
    let stdout = run(&sv.audit("--dynamic --k 4"), true);
    assert!(stdout.contains("segments verified: 4/4"), "{stdout}");
}

#[test]
fn multi_vantage_audit_refuses_k_outside_the_segment_count() {
    Served::new("args-k-vantages", false).assert_k_range_refused("--vantages 3");
}

#[test]
fn unknown_flags_are_errors() {
    let sv = Served::new("args-unknown", false);
    let stderr = fail(&sv.audit("--k 4 --budget_ms 0"));
    assert!(stderr.contains("unknown flag --budget_ms"), "{stderr}");
}

#[test]
fn a_value_flag_without_a_value_is_an_error() {
    let sv = Served::new("args-novalue", false);
    let stderr = fail(&sv.audit("--k 4 --ledger"));
    assert!(stderr.contains("--ledger needs a value"), "{stderr}");
}

#[test]
fn a_repeated_flag_is_an_error() {
    let sv = Served::new("args-repeat", false);
    let stderr = fail(&sv.audit("--k 4 --k 5"));
    assert!(stderr.contains("--k given twice"), "{stderr}");
}

#[test]
fn flag_values_are_not_positionals() {
    let sv = Served::new("args-positional", false);
    let (addr, store) = (&sv.server.addr, &sv.store);
    let stdout = run(
        &format!("audit --master {MASTER} {addr} {store} --k 4 --budget-ms 5000"),
        true,
    );
    assert!(stdout.contains("verdict: ACCEPT"), "{stdout}");

    let delayed = Server::spawn(&format!("--delay-ms 5 {store}"));
    assert!(
        delayed.banner.contains("service delay 5 ms"),
        "{}",
        delayed.banner
    );
}

#[test]
fn flags_the_audit_mode_does_not_read_are_errors() {
    let sv = Served::new("args-mode", false);
    for flag in [
        "--vantage-ring-km",
        "--byzantine-vantage",
        "--position-tolerance-km",
        "--residual-budget-km",
    ] {
        let stderr = fail(&sv.audit(&format!("--k 4 {flag} 1")));
        assert!(
            stderr.contains(&format!("{flag} needs --vantages")),
            "{stderr}"
        );
    }
    let transcript = format!("{}/t.bin", sv.dir);
    let stderr = fail(&sv.audit(&format!("--k 4 --vantages 3 --transcript {transcript}")));
    assert!(
        stderr.contains("--transcript does not combine with --vantages"),
        "{stderr}"
    );
}
