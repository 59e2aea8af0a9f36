//! CLI end-to-end for the dynamic flow, over real TCP through the
//! actual `geoproof` binary: encode-dynamic → serve → audit --dynamic →
//! update/append → audit again — then the cheats: a stale pre-update
//! server, a silently corrupted store, and a slow (relaying) server all
//! REJECT — and finally the evidence ledger replays every dynamic
//! verdict plus the digest chain offline from the TPA public key alone,
//! with a single flipped bit failing verification. A dynamic audit
//! aimed at a static store's server must REJECT promptly, not hang.

use bytes::Bytes;
use geoproof::core::dynamic_audit::DynSignedTranscript;
use geoproof::ledger::{Entry, Ledger};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_geoproof");
const MASTER: &str = "cli-dyn-master";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gp-cli-{tag}-{}", std::process::id()));
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

/// A `geoproof serve` child killed on drop; parses the bound address
/// from its banner, which must name the store's kind.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(store: &Path, extra: &[&str]) -> Server {
        let mut child = Command::new(BIN)
            .arg("serve")
            .arg(store)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines
            .next()
            .expect("serve banner")
            .expect("read serve banner");
        let dynamic = store.join("dyn-meta.txt").exists();
        assert_eq!(first.contains("dynamic mode"), dynamic, "{first}");
        let addr = first
            .split(" on ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in banner: {first}"))
            .to_owned();
        Server { child, addr }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn copy_store(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for name in ["dyn-segments.bin", "dyn-meta.txt"] {
        std::fs::copy(from.join(name), to.join(name)).expect("copy store file");
    }
}

#[test]
fn cli_dynamic_audits_updates_and_ledger_replay_end_to_end() {
    let dir = tmpdir("dynamic");
    let input = dir.join("input.bin");
    let data: Vec<u8> = (0..30_000u32).map(|i| (i % 241) as u8).collect();
    std::fs::write(&input, &data).expect("write input");
    let store = dir.join("dynstore");
    let ledger_path = dir.join("evidence.log");
    let transcript_path = dir.join("dyn-transcript.bin");

    // Encode: 30 kB at 2 kB segments = 15 segments; init the digest chain.
    run(
        &[
            "encode-dynamic",
            input.to_str().unwrap(),
            store.to_str().unwrap(),
            "--fid",
            "dyn-demo",
            "--segment-bytes",
            "2048",
            "--master",
            MASTER,
            "--ledger",
            ledger_path.to_str().unwrap(),
        ],
        true,
    );

    // A pre-update copy: later served as the "stale" cheat.
    let stale_store = dir.join("stale-copy");
    copy_store(&store, &stale_store);

    let audit = |addr: &str, k: &str, with_ledger: bool, expect_success: bool| -> String {
        let mut args = vec![
            "audit",
            addr,
            store.to_str().unwrap(),
            "--dynamic",
            "--master",
            MASTER,
            "--k",
            k,
            "--budget-ms",
            "5000",
            "--prover",
            "dyn-prover",
        ];
        let lp = ledger_path.to_str().unwrap().to_owned();
        let tp = transcript_path.to_str().unwrap().to_owned();
        if with_ledger {
            args.extend_from_slice(&["--ledger", &lp, "--transcript", &tp]);
        }
        run(&args, expect_success)
    };

    {
        let server = Server::spawn(&store, &[]);

        // Honest audit against the fresh upload.
        let stdout = audit(&server.addr, "6", true, true);
        assert!(stdout.contains("verdict: ACCEPT"), "{stdout}");
        assert!(stdout.contains("dynamic record"), "{stdout}");

        // Update segment 3 and append a new one, over the wire, chaining
        // both transitions.
        let patch = dir.join("patch.bin");
        std::fs::write(&patch, b"updated segment body v2").expect("patch");
        let stdout = run(
            &[
                "update",
                &server.addr,
                store.to_str().unwrap(),
                "--index",
                "3",
                "--data",
                patch.to_str().unwrap(),
                "--master",
                MASTER,
                "--ledger",
                ledger_path.to_str().unwrap(),
            ],
            true,
        );
        assert!(stdout.contains("updated segment 3"), "{stdout}");
        let extra = dir.join("extra.bin");
        std::fs::write(&extra, vec![0xEEu8; 700]).expect("extra");
        let stdout = run(
            &[
                "append",
                &server.addr,
                store.to_str().unwrap(),
                "--data",
                extra.to_str().unwrap(),
                "--master",
                MASTER,
                "--ledger",
                ledger_path.to_str().unwrap(),
            ],
            true,
        );
        assert!(stdout.contains("appended segment 15"), "{stdout}");

        // Honest audit after the interleaved update + append: the live
        // server evolved with the owner, so the fresh digest ACCEPTs —
        // challenge every segment so the updated and appended ones are
        // covered.
        let stdout = audit(&server.addr, "16", true, true);
        assert!(stdout.contains("verdict: ACCEPT"), "{stdout}");
        assert!(stdout.contains("16 segments"), "{stdout}");
    }

    // The dumped canonical dynamic transcript round-trips.
    let raw = Bytes::from(std::fs::read(&transcript_path).expect("read transcript"));
    let transcript = DynSignedTranscript::from_canonical(&raw).expect("parse dumped transcript");
    assert_eq!(transcript.file_id, "dyn-demo");
    assert_eq!(transcript.rounds.len(), 16);
    assert_eq!(transcript.digest.segments, 16);
    assert_eq!(transcript.canonical_bytes(), raw);

    // Cheat 1: a stale pre-update server (the update was silently
    // dropped — it serves the old segments under the old tree).
    {
        let server = Server::spawn(&stale_store, &[]);
        let stdout = audit(&server.addr, "16", true, false);
        assert!(stdout.contains("verdict: REJECT"), "{stdout}");
        assert!(stdout.contains("failed Merkle proof"), "{stdout}");
    }

    // Cheat 2: silent corruption — bit-rot in the stored segments the
    // provider never re-verified. (Corrupt a copy; the owner mirror
    // stays intact.)
    {
        let corrupt_store = dir.join("corrupt-copy");
        copy_store(&store, &corrupt_store);
        let seg_file = corrupt_store.join("dyn-segments.bin");
        let mut bytes = std::fs::read(&seg_file).expect("read segments");
        for off in (6..bytes.len()).step_by(97) {
            bytes[off] ^= 0x40;
        }
        std::fs::write(&seg_file, &bytes).expect("corrupt");
        let server = Server::spawn(&corrupt_store, &[]);
        let stdout = audit(&server.addr, "8", false, false);
        assert!(stdout.contains("verdict: REJECT"), "{stdout}");
    }

    // Cheat 3: a relayed/slow server — 100 ms service delay against a
    // 30 ms budget fails every round on timing.
    {
        let server = Server::spawn(&store, &["--delay-ms", "100"]);
        let stdout = run(
            &[
                "audit",
                &server.addr,
                store.to_str().unwrap(),
                "--dynamic",
                "--master",
                MASTER,
                "--k",
                "4",
                "--budget-ms",
                "30",
                "--ledger",
                ledger_path.to_str().unwrap(),
                "--prover",
                "dyn-prover",
            ],
            false,
        );
        assert!(stdout.contains("verdict: REJECT"), "{stdout}");
        assert!(stdout.contains("over budget"), "{stdout}");
    }

    // The ledger now holds: init + update + append digest transitions,
    // two ACCEPTs, and two recorded REJECTs (stale, slow). Offline
    // replay from the embedded TPA public key alone re-verifies all of
    // it — verdict bytes, Merkle membership proofs, and the digest
    // chain.
    let stdout = run(&["ledger", "verify", ledger_path.to_str().unwrap()], true);
    assert!(stdout.contains("chain OK"), "{stdout}");
    assert!(stdout.contains("4 dynamic"), "{stdout}");
    assert!(stdout.contains("3 digest transitions"), "{stdout}");
    assert!(stdout.contains("2 ACCEPT, 2 REJECT"), "{stdout}");
    assert!(stdout.contains("transitions chained"), "{stdout}");

    // With the owner's master, every recorded tag bit is re-derived
    // under the dynamic scheme.
    let stdout = run(
        &[
            "ledger",
            "verify",
            ledger_path.to_str().unwrap(),
            "--master",
            MASTER,
        ],
        true,
    );
    assert!(
        stdout.contains(&format!("{} segment MACs re-derived", 6 + 16 + 16 + 4)),
        "{stdout}"
    );

    // Structure checks through the library: digest chain init → update →
    // append, audits interleaved, epochs counting up.
    {
        let ledger = Ledger::read(&ledger_path).expect("read ledger");
        assert_eq!(ledger.dyn_evidence_count(), 4);
        let epochs: Vec<u64> = ledger.dyn_evidence().map(|(_, e)| e.epoch).collect();
        assert_eq!(epochs, vec![0, 1, 2, 3]);
        let ops: Vec<_> = ledger
            .records()
            .iter()
            .filter_map(|r| match &r.entry {
                Entry::Digest(d) => Some(d.op),
                _ => None,
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                geoproof::ledger::DigestOp::Init,
                geoproof::ledger::DigestOp::Update,
                geoproof::ledger::DigestOp::Append,
            ]
        );
        // An inclusion proof for a dynamic verdict verifies standalone.
        let (ordinal, _) = ledger.dyn_evidence().next().expect("dynamic evidence");
        let proof = ledger.prove(ordinal).expect("prove");
        let tpa = geoproof::crypto::schnorr::VerifyingKey::from_bytes(&ledger.header().tpa_key)
            .expect("embedded key");
        let verified = proof.verify(&tpa).expect("verify");
        assert_eq!(
            verified.dyn_evidence().expect("dynamic").prover,
            "dyn-prover"
        );
    }

    // inspect names the dynamic records and transitions.
    let stdout = run(&["ledger", "inspect", ledger_path.to_str().unwrap()], true);
    assert!(stdout.contains("dynamic evidence"), "{stdout}");
    assert!(stdout.contains("Init"), "{stdout}");
    assert!(stdout.contains("Append"), "{stdout}");

    // A single flipped bit anywhere fails verification.
    let mut tampered = std::fs::read(&ledger_path).expect("read ledger bytes");
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x01;
    let tampered_path = dir.join("tampered.log");
    std::fs::write(&tampered_path, &tampered).expect("write tampered");
    run(
        &["ledger", "verify", tampered_path.to_str().unwrap()],
        false,
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dynamic_audit_of_a_static_serve_rejects_instead_of_hanging() {
    // Regression: a server holding only a static store used to ignore
    // `DynChallenge` frames, so the auditor blocked on a reply that never
    // came. The prover now answers `DynResponse { segment: None }` and
    // the audit completes — as a REJECT.
    let dir = tmpdir("dyn-vs-static");
    let input = dir.join("input.bin");
    std::fs::write(&input, vec![0x5au8; 8_000]).expect("write input");
    let static_store = dir.join("store");
    let dyn_store = dir.join("dynstore");
    for (cmd, store) in [("encode", &static_store), ("encode-dynamic", &dyn_store)] {
        run(
            &[
                cmd,
                input.to_str().unwrap(),
                store.to_str().unwrap(),
                "--fid",
                "mixed-up",
                "--master",
                MASTER,
            ],
            true,
        );
    }
    let server = Server::spawn(&static_store, &[]);

    let mut audit = Command::new(BIN)
        .args([
            "audit",
            &server.addr,
            dyn_store.to_str().unwrap(),
            "--dynamic",
            "--master",
            MASTER,
            "--k",
            "4",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn audit");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = audit.try_wait().expect("poll audit") {
            break status;
        }
        if Instant::now() >= deadline {
            audit.kill().ok();
            audit.wait().ok();
            panic!("audit --dynamic against a static serve hung past 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = audit.wait_with_output().expect("audit output");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!status.success(), "{stdout}");
    assert!(stdout.contains("verdict: REJECT"), "{stdout}");

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
