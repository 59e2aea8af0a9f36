//! The `geoproof` command-line interface, behind the dispatch in
//! `main.rs`.
//!
//! `encode` runs the paper's five-step setup **streaming**: the input is
//! fed through the encoder in bounded chunks (pass `-` to read stdin),
//! so peak memory is the encoded output arena plus one Reed–Solomon
//! chunk — never multiple copies of the file. The store directory
//! (`segments.bin` + `metadata.txt`) is written sequentially from the
//! arena. `serve` memory-maps nothing exotic: it reads `segments.bin`
//! into one shared buffer and serves zero-copy `Bytes` slices of it
//! from the multi-connection prover server (static and dynamic stores
//! alike), which only answers challenges: the audits come from an
//! independent `audit` client, never from the audited party itself.
//! Serving runs on the epoll **reactor** — every connection a
//! non-blocking state machine on one event-loop thread; on a target
//! without it (anything but Linux x86-64 and aarch64) `serve` exits 1.
//! `audit` runs the
//! wall-clock timed challenge–response against a server and applies the
//! Δt_max policy. The TPA's MAC key is derived from `--master`, so
//! auditing needs the owner's secret (as in the paper, where the owner
//! provisions the TPA).
//!
//! The dynamic flow (`encode-dynamic` / `update` / `append` /
//! `audit --dynamic`) runs the §IV DPOR extension over the same wire:
//! Merkle-authenticated segments, owner-derived digests, and — with
//! `--ledger` — a chained record of every digest transition so offline
//! replay can hold each audit against the digest that was current. See
//! `crates/por/docs/dynamic.md`.
//!
//! Telemetry: `serve --metrics-addr` binds a Prometheus text-format
//! scrape listener next to the prover socket; one-shot `audit`
//! invocations push their verdict and session latency into it
//! (`POST /ingest`), and `stats` renders a scrape as a one-screen
//! summary. See `crates/obs/docs/observability.md`.
//!
//! Layout: [`args`] is the one strict parser (flags may appear
//! anywhere; unknown, valueless and repeated flags are errors);
//! [`store`] the one reader and writer of both store directory
//! formats; [`audit`] the one audit session behind `audit`,
//! `audit --dynamic` and `audit --vantages`, which refuses a `--k`
//! outside 1..=segments before it connects or writes evidence.
//! [`owner`], [`serve`] and [`ledger`] hold the remaining commands.

pub mod args;
pub mod audit;
pub mod ledger;
pub mod owner;
pub mod serve;
pub mod store;

use geoproof::crypto::chacha::ChaChaRng;
use geoproof::crypto::schnorr::SigningKey;
use geoproof::crypto::sha256::Sha256;
use geoproof::ledger::{LedgerWriter, Recovery, DEFAULT_CHECKPOINT_INTERVAL};
use std::io::Read;

pub type CliResult = Result<(), String>;

/// Opens (or creates) the evidence ledger at `path` under the TPA key
/// derived from `master`, reporting a recovered torn tail on stderr.
pub fn open_ledger(path: &str, master: &str, seed: u64) -> Result<LedgerWriter, String> {
    let tpa = tpa_ledger_key(master);
    let (writer, recovery) =
        LedgerWriter::open_or_create(path, &tpa, DEFAULT_CHECKPOINT_INTERVAL, seed)
            .map_err(|e| format!("ledger {path}: {e}"))?;
    if let Recovery::TruncatedTail { dropped } = recovery {
        eprintln!("ledger: recovered torn tail write ({dropped} bytes truncated)");
    }
    Ok(writer)
}

/// The TPA's ledger signing key, derived deterministically from the
/// master secret (the owner provisions the TPA, as with the MAC key).
/// Only the *public* half is needed to re-verify a ledger.
pub fn tpa_ledger_key(master: &str) -> SigningKey {
    derived_key(&[b"geoproof-tpa-ledger-key-v1", master.as_bytes()])
}

/// The owner's update-authorisation signing key, derived from the
/// master secret per file — the *public* half is registered with the
/// server (via the store dir's metadata) so it can refuse mutations a
/// third party forges.
pub fn owner_update_key(master: &str, file_id: &str) -> SigningKey {
    derived_key(&[
        b"geoproof-dyn-owner-key-v1",
        &(master.len() as u64).to_be_bytes(),
        master.as_bytes(),
        file_id.as_bytes(),
    ])
}

/// A signing key generated from the SHA-256 of `parts`, concatenated.
fn derived_key(parts: &[&[u8]]) -> SigningKey {
    let mut h = Sha256::new();
    for part in parts {
        h.update(part);
    }
    SigningKey::generate(&mut ChaChaRng::from_seed(h.finalize()))
}

/// Per-invocation entropy for the audit's nonce, challenge draws and
/// ephemeral device key: `/dev/urandom` when available, always mixed
/// with wall-clock time and pid, domain-separated by `label`. (The
/// deterministic fixed-seed style the simulations use is exactly wrong
/// here — a real audit's unpredictability is its security.)
pub fn fresh_seed(label: &str) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"geoproof-cli-entropy-v1");
    h.update(label.as_bytes());
    if let Ok(mut f) = std::fs::File::open("/dev/urandom") {
        let mut buf = [0u8; 32];
        if f.read_exact(&mut buf).is_ok() {
            h.update(&buf);
        }
    }
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default();
    h.update(&now.as_nanos().to_be_bytes());
    h.update(&std::process::id().to_be_bytes());
    h.finalize()
}

pub fn fresh_seed_u64(label: &str) -> u64 {
    u64::from_be_bytes(fresh_seed(label)[..8].try_into().expect("8 bytes"))
}

pub fn parse_addr(addr: &str) -> Result<std::net::SocketAddr, String> {
    addr.parse().map_err(|e| format!("bad address: {e}"))
}

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

pub fn unhex32(s: &str) -> Result<[u8; 32], String> {
    let s = s.trim();
    if s.len() != 64 || !s.bytes().all(|c| c.is_ascii_hexdigit()) {
        return Err("expected 64 hex characters (32 bytes)".into());
    }
    let mut out = [0u8; 32];
    for (i, byte) in out.iter_mut().enumerate() {
        *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex digits");
    }
    Ok(out)
}
