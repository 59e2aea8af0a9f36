//! CLI end-to-end for the dynamic flow, over real TCP through the
//! actual `geoproof` binary: encode-dynamic → serve → audit --dynamic →
//! update/append → audit again — then the cheats: a stale pre-update
//! server, a silently corrupted store, and a slow (relaying) server all
//! REJECT — and finally the evidence ledger replays every dynamic
//! verdict plus the digest chain offline from the TPA public key alone,
//! with a single flipped bit failing verification. A dynamic audit
//! aimed at a static store's server must REJECT promptly, not hang.

mod support;

use bytes::Bytes;
use geoproof::core::dynamic_audit::DynSignedTranscript;
use geoproof::core::messages::Transcript;
use geoproof::ledger::{Entry, Ledger};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use support::{flip_middle_bit, run, tmpdir, Server, BIN};

const MASTER: &str = "cli-dyn-master";

fn copy_store(from: &str, to: &str) {
    std::fs::create_dir_all(to).expect("mkdir");
    for name in ["dyn-segments.bin", "dyn-meta.txt"] {
        std::fs::copy(format!("{from}/{name}"), format!("{to}/{name}")).expect("copy store file");
    }
}

#[test]
fn cli_dynamic_audits_updates_and_ledger_replay_end_to_end() {
    let dir = tmpdir("dynamic");
    let input = format!("{dir}/input.bin");
    let data: Vec<u8> = (0..30_000u32).map(|i| (i % 241) as u8).collect();
    std::fs::write(&input, &data).expect("write input");
    let store = format!("{dir}/dynstore");
    let ledger_path = format!("{dir}/evidence.log");
    let transcript_path = format!("{dir}/dyn-transcript.bin");

    // Encode: 30 kB at 2 kB segments = 15 segments; init the digest chain.
    run(
        &format!(
            "encode-dynamic {input} {store} --fid dyn-demo --segment-bytes 2048 \
             --master {MASTER} --ledger {ledger_path}"
        ),
        true,
    );

    // A pre-update copy: later served as the "stale" cheat.
    let stale_store = format!("{dir}/stale-copy");
    copy_store(&store, &stale_store);

    let audit = |addr: &str, k: u32, with_ledger: bool, expect_success: bool| -> String {
        let mut line = format!(
            "audit {addr} {store} --dynamic --master {MASTER} --k {k} --budget-ms 5000 \
             --prover dyn-prover"
        );
        if with_ledger {
            line += &format!(" --ledger {ledger_path} --transcript {transcript_path}");
        }
        run(&line, expect_success)
    };

    {
        let server = Server::spawn(&store);

        // Honest audit against the fresh upload.
        let stdout = audit(&server.addr, 6, true, true);
        assert!(stdout.contains("verdict: ACCEPT"), "{stdout}");
        assert!(stdout.contains("dynamic record"), "{stdout}");

        // Update segment 3 and append a new one, over the wire, chaining
        // both transitions.
        let patch = format!("{dir}/patch.bin");
        std::fs::write(&patch, b"updated segment body v2").expect("patch");
        let stdout = run(
            &format!(
                "update {} {store} --index 3 --data {patch} --master {MASTER} \
                 --ledger {ledger_path}",
                server.addr
            ),
            true,
        );
        assert!(stdout.contains("updated segment 3"), "{stdout}");
        let extra = format!("{dir}/extra.bin");
        std::fs::write(&extra, vec![0xEEu8; 700]).expect("extra");
        let stdout = run(
            &format!(
                "append {} {store} --data {extra} --master {MASTER} --ledger {ledger_path}",
                server.addr
            ),
            true,
        );
        assert!(stdout.contains("appended segment 15"), "{stdout}");

        // Honest audit after the interleaved update + append: the live
        // server evolved with the owner, so the fresh digest ACCEPTs —
        // challenge every segment so the updated and appended ones are
        // covered.
        let stdout = audit(&server.addr, 16, true, true);
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
        let server = Server::spawn(&stale_store);
        let stdout = audit(&server.addr, 16, true, false);
        assert!(stdout.contains("verdict: REJECT"), "{stdout}");
        assert!(stdout.contains("failed Merkle proof"), "{stdout}");
    }

    // Cheat 2: silent corruption — bit-rot in the stored segments the
    // provider never re-verified. (Corrupt a copy; the owner mirror
    // stays intact.)
    {
        let corrupt_store = format!("{dir}/corrupt-copy");
        copy_store(&store, &corrupt_store);
        let seg_file = format!("{corrupt_store}/dyn-segments.bin");
        let mut bytes = std::fs::read(&seg_file).expect("read segments");
        for off in (6..bytes.len()).step_by(97) {
            bytes[off] ^= 0x40;
        }
        std::fs::write(&seg_file, &bytes).expect("corrupt");
        let server = Server::spawn(&corrupt_store);
        let stdout = audit(&server.addr, 8, false, false);
        assert!(stdout.contains("verdict: REJECT"), "{stdout}");
    }

    // Cheat 3: a relayed/slow server — 100 ms service delay against a
    // 30 ms budget fails every round on timing.
    {
        let server = Server::spawn(&format!("{store} --delay-ms 100"));
        let stdout = run(
            &format!(
                "audit {} {store} --dynamic --master {MASTER} --k 4 --budget-ms 30 \
                 --ledger {ledger_path} --prover dyn-prover",
                server.addr
            ),
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
    let stdout = run(&format!("ledger verify {ledger_path}"), true);
    assert!(stdout.contains("chain OK"), "{stdout}");
    assert!(stdout.contains("4 dynamic"), "{stdout}");
    assert!(stdout.contains("3 digest transitions"), "{stdout}");
    assert!(stdout.contains("2 ACCEPT, 2 REJECT"), "{stdout}");
    assert!(stdout.contains("transitions chained"), "{stdout}");

    // With the owner's master, every recorded tag bit is re-derived
    // under the dynamic scheme.
    let stdout = run(
        &format!("ledger verify {ledger_path} --master {MASTER}"),
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
    let stdout = run(&format!("ledger inspect {ledger_path}"), true);
    assert!(stdout.contains("dynamic evidence"), "{stdout}");
    assert!(stdout.contains("Init"), "{stdout}");
    assert!(stdout.contains("Append"), "{stdout}");

    // A single flipped bit anywhere fails verification.
    let tampered_path = format!("{dir}/tampered.log");
    std::fs::copy(&ledger_path, &tampered_path).expect("copy ledger");
    flip_middle_bit(&tampered_path);
    run(&format!("ledger verify {tampered_path}"), false);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dynamic_audit_of_a_static_serve_rejects_instead_of_hanging() {
    // Regression: a server holding only a static store used to ignore
    // `DynChallenge` frames, so the auditor blocked on a reply that never
    // came. The prover now answers `DynResponse { segment: None }` and
    // the audit completes — as a REJECT.
    let dir = tmpdir("dyn-vs-static");
    let input = format!("{dir}/input.bin");
    std::fs::write(&input, vec![0x5au8; 8_000]).expect("write input");
    let (static_store, dyn_store) = (format!("{dir}/store"), format!("{dir}/dynstore"));
    for (cmd, store) in [("encode", &static_store), ("encode-dynamic", &dyn_store)] {
        run(
            &format!("{cmd} {input} {store} --fid mixed-up --master {MASTER}"),
            true,
        );
    }
    let server = Server::spawn(&static_store);

    // `--k 2` is the whole 2-segment file: k beyond it is refused upfront.
    let line = format!(
        "audit {} {dyn_store} --dynamic --master {MASTER} --k 2",
        server.addr
    );
    let mut audit = Command::new(BIN)
        .args(line.split_whitespace())
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
