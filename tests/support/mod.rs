//! Shared harness for the `cli_*` suites: a scratch directory, runners
//! that pin the exit status of the actual `geoproof` binary, and a
//! `geoproof serve` child that is killed on drop. Commands are written
//! as shell-like lines and split on whitespace, so they read like the
//! CLI usage they check ([`tmpdir`] paths hold no whitespace).

#![allow(dead_code)] // each suite uses a different subset

use std::io::{BufRead, BufReader, Lines};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Output, Stdio};

pub const BIN: &str = env!("CARGO_BIN_EXE_geoproof");

/// A fresh, empty directory unique to this process and `tag`.
pub fn tmpdir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("gp-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("tempdir");
    let dir = dir.to_str().expect("utf-8 temp dir").to_owned();
    assert!(!dir.contains(char::is_whitespace), "{dir:?}");
    dir
}

fn output(line: &str) -> Output {
    Command::new(BIN)
        .args(line.split_whitespace())
        .output()
        .expect("spawn geoproof")
}

fn describe(line: &str, out: &Output) -> String {
    format!(
        "geoproof {line} exited {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// Runs `geoproof <line>`, asserting the expected exit status; returns
/// stdout.
pub fn run(line: &str, expect_success: bool) -> String {
    let out = output(line);
    let ok = out.status.success();
    assert_eq!(ok, expect_success, "{}", describe(line, &out));
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Runs `geoproof <line>`, asserting a clean error (exit 1, not a
/// panic's 101); returns stderr.
pub fn fail(line: &str) -> String {
    let out = output(line);
    assert_eq!(out.status.code(), Some(1), "{}", describe(line, &out));
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Deterministic, non-repeating-per-block input bytes.
pub fn write_input(path: &str, len: u32) {
    let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    std::fs::write(path, data).expect("write input");
}

/// Flips the low bit of the middle byte of `path`.
pub fn flip_middle_bit(path: &str) {
    let mut bytes = std::fs::read(path).expect("read for tamper");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(path, bytes).expect("write tampered");
}

/// A `geoproof serve <line>` child killed on drop. Reads the banner:
/// an optional `metrics on <addr>` line, then `serving … on <addr> (…)`.
pub struct Server {
    child: Child,
    /// Kept open so later `[stats]` lines never hit a closed pipe.
    _stdout: Lines<BufReader<ChildStdout>>,
    pub addr: String,
    pub metrics_addr: Option<String>,
    pub banner: String,
}

impl Server {
    pub fn spawn(line: &str) -> Server {
        let mut child = Command::new(BIN)
            .arg("serve")
            .args(line.split_whitespace())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve");
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let addr_of = |line: &str| {
            line.split(" on ")
                .nth(1)
                .and_then(|s| s.split_whitespace().next())
                .unwrap_or_else(|| panic!("no address in banner: {line}"))
                .to_owned()
        };
        let mut metrics_addr = None;
        let banner = loop {
            let next = lines
                .next()
                .unwrap_or_else(|| panic!("serve {line}: no banner"));
            let next = next.expect("read serve banner");
            if !next.starts_with("metrics on ") {
                break next;
            }
            metrics_addr = Some(addr_of(&next));
        };
        assert!(banner.starts_with("serving "), "{banner}");
        // The banner names the store's kind…
        let dynamic = line
            .split_whitespace()
            .any(|a| Path::new(a).join("dyn-meta.txt").exists());
        assert_eq!(banner.contains("dynamic mode"), dynamic, "{banner}");
        // …and, on Linux, the epoll shell `serve` runs on (off the
        // reactor's targets `serve` exits 1 before any banner).
        if cfg!(target_os = "linux") {
            assert!(banner.contains("reactor, service delay"), "{banner}");
        }
        Server {
            child,
            _stdout: lines,
            addr: addr_of(&banner),
            metrics_addr,
            banner,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}
