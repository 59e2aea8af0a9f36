//! CLI end-to-end over real TCP, through the actual `geoproof` binary:
//! encode → serve → audit (with evidence ledger + transcript dump) →
//! ledger verify/inspect/prove, plus the failure modes (tampered
//! ledger, wrong TPA key); segment rotation and compaction with proofs
//! across the compacted boundary; a multi-vantage audit sealing a
//! position record; and the encode → extract round trip.

mod support;

use bytes::Bytes;
use geoproof::core::messages::SignedTranscript;
use geoproof::ledger::{InclusionProof, Ledger};
use support::{flip_middle_bit, run, tmpdir, write_input, Server};

const MASTER: &str = "cli-test-master";

/// Encodes a `len`-byte input as `<dir>/store` under file id `fid`.
fn encode(dir: &str, fid: &str, len: u32) -> (String, String) {
    let (input, store) = (format!("{dir}/input.bin"), format!("{dir}/store"));
    write_input(&input, len);
    let stdout = run(
        &format!("encode {input} {store} --fid {fid} --master {MASTER}"),
        true,
    );
    (store, stdout)
}

#[test]
fn cli_audit_ledger_verify_inspect_prove_end_to_end() {
    let dir = tmpdir("ledger");
    let (store, _) = encode(&dir, "cli-demo", 40_000);
    let ledger = format!("{dir}/evidence.log");
    let transcript_path = format!("{dir}/transcript.bin");
    let server = Server::spawn(&store);

    // Two audits against the live server: epochs must count up, and the
    // generous budget keeps slow CI machines from flaking the verdict.
    for epoch in 0..2u32 {
        let stdout = run(
            &format!(
                "audit {} {store} --master {MASTER} --k 6 --budget-ms 5000 --ledger {ledger} \
                 --transcript {transcript_path} --prover cli-prover",
                server.addr
            ),
            true,
        );
        assert!(stdout.contains("verdict: ACCEPT"), "{stdout}");
        assert!(stdout.contains(&format!("epoch {epoch}")), "{stdout}");
    }

    // Transcript round-trip: the dumped canonical bytes parse back and
    // re-encode identically, and carry the audited file.
    let raw = Bytes::from(std::fs::read(&transcript_path).expect("read transcript"));
    let transcript = SignedTranscript::from_canonical(&raw).expect("parse dumped transcript");
    assert_eq!(transcript.file_id, "cli-demo");
    assert_eq!(transcript.rounds.len(), 6);
    assert_eq!(
        transcript.canonical_bytes(),
        raw,
        "canonical dump must round-trip byte-identically"
    );

    // Two invocations must not reuse audit material: the recorded
    // requests carry distinct nonces and distinct challenge sets (a
    // fixed CLI seed would let a server keep only the probed subset).
    {
        let ledger = Ledger::read(&ledger).expect("read ledger");
        let records: Vec<_> = ledger.evidence().map(|(_, e)| e.clone()).collect();
        assert_eq!(records.len(), 2);
        assert_ne!(
            records[0].request.nonce, records[1].request.nonce,
            "per-invocation nonces must rotate"
        );
        let challenges: Vec<Vec<u64>> = records
            .iter()
            .map(|r| {
                let t = r.parse_transcript().expect("transcript");
                t.rounds.iter().map(|round| round.index).collect()
            })
            .collect();
        assert_ne!(
            challenges[0], challenges[1],
            "per-invocation challenge draws must differ"
        );
    }

    // ledger verify: with the master (full MAC re-derivation)…
    let stdout = run(&format!("ledger verify {ledger} --master {MASTER}"), true);
    assert!(stdout.contains("2 ACCEPT, 0 REJECT"), "{stdout}");
    assert!(stdout.contains("12 segment MACs re-derived"), "{stdout}");

    // …and key-only, pinning the TPA key the audit printed is the
    // embedded one.
    let stdout = run(&format!("ledger verify {ledger}"), true);
    assert!(stdout.contains("chain OK"), "{stdout}");
    assert!(stdout.contains("recorded bits trusted"), "{stdout}");

    // inspect lists both evidence records with the prover id.
    let stdout = run(&format!("ledger inspect {ledger}"), true);
    assert_eq!(stdout.matches("\"cli-prover\"").count(), 2, "{stdout}");
    assert!(stdout.contains("checkpoint"), "{stdout}");

    // prove: the proof file verifies standalone against the embedded key.
    let proof_path = format!("{dir}/round0.proof");
    let stdout = run(
        &format!("ledger prove {ledger} --round 0 --out {proof_path}"),
        true,
    );
    assert!(stdout.contains("verifies against TPA key"), "{stdout}");
    let proof_bytes = Bytes::from(std::fs::read(&proof_path).expect("read proof"));
    let proof = InclusionProof::decode(&proof_bytes).expect("decode proof");
    let parsed = Ledger::read(&ledger).expect("read ledger");
    let tpa = geoproof::crypto::schnorr::VerifyingKey::from_bytes(&parsed.header().tpa_key)
        .expect("embedded key");
    let verified = proof.verify(&tpa).expect("proof verifies");
    let proven = verified.evidence().expect("static evidence");
    assert_eq!(proven.prover, "cli-prover");
    assert_eq!(proven.epoch, 0);

    // Out-of-range round is a clean error.
    run(&format!("ledger prove {ledger} --round 99"), false);

    // Tampering with one bit of evidence makes verify fail (exit != 0).
    let tampered = format!("{dir}/tampered.log");
    std::fs::copy(&ledger, &tampered).expect("copy ledger");
    flip_middle_bit(&tampered);
    run(&format!("ledger verify {tampered}"), false);

    // The wrong out-of-band TPA key is rejected even on a pristine file.
    let wrong_key = "ff".repeat(32);
    run(
        &format!("ledger verify {ledger} --tpa-pub {wrong_key}"),
        false,
    );

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rotated_and_compacted_chain_verifies_and_proves_across_the_boundary() {
    let dir = tmpdir("ledger-seg");
    let (store, _) = encode(&dir, "cli-seg", 50_000);
    let server = Server::spawn(&store);
    let ledger = format!("{dir}/chain.log");
    let audit = |i: u32| {
        let stdout = run(
            &format!(
                "audit {} {store} --master {MASTER} --k 8 --budget-ms 5000 --ledger {ledger} \
                 --prover cli-seg-{i}",
                server.addr
            ),
            true,
        );
        assert!(stdout.contains("verdict: ACCEPT"), "{stdout}");
    };
    // 3 verdicts | rotate | 3 verdicts | rotate | 2 verdicts in the live
    // file, then compact both sealed segments.
    let rotate = format!("ledger rotate {ledger} --master {MASTER}");
    (1..=3).for_each(audit);
    run(&rotate, true);
    (4..=6).for_each(audit);
    run(&rotate, true);
    (7..=8).for_each(audit);
    run(&format!("ledger compact {ledger}"), true);
    for suffix in [".cseg", ".arc"] {
        let len = std::fs::metadata(format!("{ledger}.seg-0{suffix}")).expect("compacted");
        assert!(len.len() > 0, "empty {suffix}");
    }

    let verify = format!("ledger verify {ledger} --master {MASTER}");
    let stdout = run(&verify, true);
    assert!(stdout.contains("chain of 2 sealed segments"), "{stdout}");

    // Global ordinal 1 lives in archived segment 0, ordinal 7 in the
    // live file: proofs on both sides of the compacted boundary.
    for round in [1, 7] {
        let out = format!("{dir}/round{round}.proof");
        run(
            &format!("ledger prove {ledger} --round {round} --out {out}"),
            true,
        );
        assert!(std::fs::metadata(&out).expect("proof").len() > 0);
    }

    // One flipped bit in the live file, then (live file restored) one in
    // the archived segment: each must fail the chain.
    let pristine = std::fs::read(&ledger).expect("read live file");
    flip_middle_bit(&ledger);
    run(&verify, false);
    std::fs::write(&ledger, pristine).expect("restore live file");
    run(&verify, true);
    flip_middle_bit(&format!("{ledger}.seg-0.arc"));
    run(&verify, false);

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_vantage_audit_seals_a_position_that_replays_from_the_tpa_key() {
    let dir = tmpdir("ledger-mv");
    let (store, _) = encode(&dir, "cli-mv", 50_000);
    let server = Server::spawn(&store);
    let ledger = format!("{dir}/evidence.log");
    let stdout = run(
        &format!(
            "audit {} {store} --master {MASTER} --k 8 --budget-ms 5000 --vantages 5 \
             --byzantine-vantage 2 --ledger {ledger}",
            server.addr
        ),
        true,
    );
    // The forced liar is trimmed, not trusted: the run still accepts.
    assert!(stdout.contains("FORCED BYZANTINE"), "{stdout}");
    assert!(stdout.contains("verdict : ACCEPT"), "{stdout}");
    let tpa_pub = stdout
        .split("TPA public key ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no TPA public key printed: {stdout}"))
        .to_owned();

    let verify = format!("ledger verify {ledger} --tpa-pub {tpa_pub}");
    let stdout = run(&verify, true);
    assert!(stdout.contains("1 position estimates"), "{stdout}");
    run(&format!("ledger inspect {ledger}"), true);

    // The position record is the sixth sealed leaf, after the five
    // per-vantage evidence records; its proof must self-verify.
    let proof = format!("{dir}/pos.proof");
    let stdout = run(
        &format!("ledger prove {ledger} --round 5 --out {proof}"),
        true,
    );
    assert!(stdout.contains("position estimate"), "{stdout}");
    assert!(std::fs::metadata(&proof).expect("proof").len() > 0);

    flip_middle_bit(&ledger);
    run(&verify, false);

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn encode_extract_round_trips_and_info_agrees() {
    let dir = tmpdir("ledger-rt");
    let (store, encoded) = encode(&dir, "rt", 40_000);
    let segments = encoded
        .split("-> ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no segment count: {encoded}"));

    let out = format!("{dir}/out.bin");
    let stdout = run(&format!("extract {store} {out} --master {MASTER}"), true);
    assert!(stdout.contains("extracted 40000 bytes"), "{stdout}");
    let input = std::fs::read(format!("{dir}/input.bin")).expect("read input");
    assert_eq!(std::fs::read(&out).expect("read extracted"), input);

    let info = run(&format!("info {store}"), true);
    assert!(info.contains("file_id        : rt\n"), "{info}");
    assert!(info.contains("original bytes : 40000\n"), "{info}");
    assert!(
        info.contains(&format!("segments       : {segments}\n")),
        "{info}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
