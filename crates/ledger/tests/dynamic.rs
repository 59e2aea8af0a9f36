//! Dynamic evidence end-to-end through the ledger: genuine dynamic
//! audits (produced by the real verifier/auditor pair) recorded next to
//! the owner's digest-transition chain, then re-verified offline from
//! the TPA public key alone — including the failure modes: a broken
//! digest chain, an audit against a non-current digest, and a recorded
//! tag bit the owner's key contradicts.

use bytes::Bytes;
use geoproof_core::auditor::{Auditor, Violation};
use geoproof_core::dynamic_audit::LocalDynProvider;
use geoproof_core::policy::TimingPolicy;
use geoproof_core::provider::LocalProvider;
use geoproof_core::verifier::VerifierDevice;
use geoproof_crypto::chacha::ChaChaRng;
use geoproof_crypto::schnorr::SigningKey;
use geoproof_crypto::sha256::Sha256;
use geoproof_geo::coords::places::BRISBANE;
use geoproof_geo::gps::GpsReceiver;
use geoproof_ledger::{
    replay, DigestOp, DigestRecord, Ledger, LedgerError, LedgerWriter, OwnerKeys, NO_DIGEST,
};
use geoproof_net::lan::LanPath;
use geoproof_por::dynamic::{DynamicOwner, DynamicStore};
use geoproof_por::encode::PorEncoder;
use geoproof_por::keys::PorKeys;
use geoproof_por::params::PorParams;
use geoproof_sim::clock::SimClock;
use geoproof_sim::time::{Km, SimDuration};
use geoproof_storage::hdd::{HddModel, WD_2500JD};
use geoproof_storage::server::{FileId, StorageServer};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gp-ledger-dyn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

struct Rig {
    auditor: Auditor,
    verifier: VerifierDevice,
    provider: LocalDynProvider,
    owner: DynamicOwner,
    keys: PorKeys,
    tpa: SigningKey,
}

fn rig() -> Rig {
    let keys = PorKeys::derive(b"ledger-dyn-master", "df");
    let bodies: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 32]).collect();
    let (store, _d0) = DynamicStore::initialise("df", &bodies, &keys);
    let tagged: Vec<Bytes> = (0..16u64).map(|i| store.segment(i).unwrap()).collect();
    let owner = DynamicOwner::from_tagged("df", &tagged);
    let mut rng = ChaChaRng::from_u64_seed(31);
    let sk = SigningKey::generate(&mut rng);
    let verifier = VerifierDevice::new(sk.clone(), GpsReceiver::new(BRISBANE), SimClock::new(), 32);
    let auditor = Auditor::new(
        "df".into(),
        owner.digest().segments,
        PorEncoder::new(PorParams::paper()),
        keys.auditor_view(),
        sk.verifying_key(),
        BRISBANE,
        Km(10.0),
        TimingPolicy::paper(),
        33,
    );
    Rig {
        auditor,
        verifier,
        provider: LocalDynProvider {
            store,
            file_id: "df".into(),
            latency: SimDuration::from_millis(5),
        },
        owner,
        keys,
        tpa: SigningKey::generate(&mut ChaChaRng::from_u64_seed(34)),
    }
}

/// The owner's keys for every file, derived from `master` as the CLI
/// does with `--master`, over the static files' `encoder`.
fn owner_keys<'a>(encoder: &'a PorEncoder, master: &'static [u8]) -> OwnerKeys<'a> {
    OwnerKeys {
        encoder,
        mac_key: Box::new(move |fid: &str| *PorKeys::derive(master, fid).mac_key()),
    }
}

#[test]
fn dynamic_audits_and_digest_chain_replay_offline() {
    let mut r = rig();
    let path = tmp("chain.log");
    let mut w = LedgerWriter::create(&path, &r.tpa, 0, 1).expect("create");

    // Init the chain.
    let d0 = r.owner.digest();
    w.append_digest(&DigestRecord {
        file_id: "df".into(),
        op: DigestOp::Init,
        index: 0,
        prev: NO_DIGEST,
        new: d0,
    })
    .expect("init");

    // Audit (ACCEPT), update, audit again, append, audit again — each
    // audit against the chain's current digest.
    let mut current = d0;
    for round in 0..3u64 {
        let req = r.auditor.issue_dynamic(current, 6);
        let t = r.verifier.run_audit(&req, &mut r.provider);
        let epoch = w.next_epoch("acme");
        let (report, bundle) = r.auditor.verify_evidence(&req, &t, "acme", epoch);
        assert!(report.accepted(), "round {round}: {:?}", report.violations);
        w.append_bundle(&bundle).expect("append evidence");

        if round == 0 {
            let (tagged, next) = r.owner.tag_update(4, b"v2", &r.keys).unwrap();
            r.provider
                .store
                .apply_update(4, Bytes::from(tagged))
                .unwrap();
            w.append_digest(&DigestRecord {
                file_id: "df".into(),
                op: DigestOp::Update,
                index: 4,
                prev: current,
                new: next,
            })
            .expect("update transition");
            current = next;
        } else if round == 1 {
            let (tagged, next) = r.owner.tag_append(b"seventeenth", &r.keys);
            r.provider.store.apply_append(Bytes::from(tagged));
            w.append_digest(&DigestRecord {
                file_id: "df".into(),
                op: DigestOp::Append,
                index: current.segments,
                prev: current,
                new: next,
            })
            .expect("append transition");
            current = next;
        }
    }

    // One REJECT goes in too: a stale provider (update dropped).
    let (_tagged, fresh) = r.owner.tag_update(0, b"v3", &r.keys).unwrap();
    w.append_digest(&DigestRecord {
        file_id: "df".into(),
        op: DigestOp::Update,
        index: 0,
        prev: current,
        new: fresh,
    })
    .expect("transition");
    let req = r.auditor.issue_dynamic(fresh, 16);
    let t = r.verifier.run_audit(&req, &mut r.provider);
    let epoch = w.next_epoch("acme");
    let (report, bundle) = r.auditor.verify_evidence(&req, &t, "acme", epoch);
    assert!(!report.accepted(), "stale provider must fail");
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::BadProof { .. })));
    w.append_bundle(&bundle).expect("append reject");
    w.finish().expect("finish");
    drop(w);

    // Offline: public key alone.
    let ledger = Ledger::read(&path).expect("read");
    assert_eq!(ledger.dyn_evidence_count(), 4);
    let outcome = replay(&ledger, &r.tpa.verifying_key(), None).expect("replay");
    assert_eq!(outcome.dynamic, 4);
    assert_eq!(outcome.digests, 4);
    assert_eq!(outcome.accepted, 3);
    assert_eq!(outcome.rejected, 1);
    assert_eq!(outcome.checkpoints, 1);

    // With the owner's master: every recorded tag bit re-derived.
    let encoder = PorEncoder::new(PorParams::paper());
    let outcome = replay(
        &ledger,
        &r.tpa.verifying_key(),
        Some(&owner_keys(&encoder, b"ledger-dyn-master")),
    )
    .expect("replay with keys");
    assert_eq!(outcome.macs_checked, (6 + 6 + 6 + 16) as u64);

    // A contradicting key exposes the recorded bits.
    let err = replay(
        &ledger,
        &r.tpa.verifying_key(),
        Some(&owner_keys(&encoder, b"wrong-master")),
    )
    .expect_err("wrong key must contradict recorded bits");
    assert!(matches!(err, LedgerError::MacMismatch { .. }), "{err}");

    // Inclusion proofs work for dynamic records and digest transitions.
    let proof = ledger.prove(1).expect("prove dynamic evidence");
    let verified = proof.verify(&r.tpa.verifying_key()).expect("verify");
    assert_eq!(verified.dyn_evidence().expect("dynamic").prover, "acme");
    let proof = ledger.prove(0).expect("prove digest init");
    let verified = proof.verify(&r.tpa.verifying_key()).expect("verify");
    assert_eq!(verified.digest().expect("digest").op, DigestOp::Init);
    std::fs::remove_file(&path).ok();
}

#[test]
fn audit_against_non_current_digest_breaks_the_chain() {
    let mut r = rig();
    let path = tmp("stale-audit.log");
    let mut w = LedgerWriter::create(&path, &r.tpa, 0, 1).expect("create");
    let d0 = r.owner.digest();
    w.append_digest(&DigestRecord {
        file_id: "df".into(),
        op: DigestOp::Init,
        index: 0,
        prev: NO_DIGEST,
        new: d0,
    })
    .expect("init");
    // The owner updates (chain advances)…
    let (tagged, d1) = r.owner.tag_update(2, b"v2", &r.keys).unwrap();
    r.provider
        .store
        .apply_update(2, Bytes::from(tagged))
        .unwrap();
    w.append_digest(&DigestRecord {
        file_id: "df".into(),
        op: DigestOp::Update,
        index: 2,
        prev: d0,
        new: d1,
    })
    .expect("transition");
    // …but a (colluding or buggy) TPA records an audit against the OLD
    // digest. The provider still holds the old state for it, so the
    // verdict itself is a perfectly consistent ACCEPT — only the digest
    // chain can expose it.
    let mut stale_provider = LocalDynProvider {
        store: {
            let bodies: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 32]).collect();
            DynamicStore::initialise("df", &bodies, &r.keys).0
        },
        file_id: "df".into(),
        latency: SimDuration::from_millis(5),
    };
    let req = r.auditor.issue_dynamic(d0, 5);
    let t = r.verifier.run_audit(&req, &mut stale_provider);
    let (report, bundle) = r.auditor.verify_evidence(&req, &t, "acme", 0);
    assert!(report.accepted(), "self-consistent against the old digest");
    w.append_bundle(&bundle).expect("append");
    w.finish().expect("finish");
    drop(w);

    let ledger = Ledger::read(&path).expect("read");
    let err = replay(&ledger, &r.tpa.verifying_key(), None).expect_err("chain must break");
    assert!(
        matches!(err, LedgerError::DigestChain { what, .. }
            if what.contains("not current")),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn disconnected_transition_and_missing_init_break_the_chain() {
    let r = rig();
    let path = tmp("broken-chain.log");
    let mut w = LedgerWriter::create(&path, &r.tpa, 0, 1).expect("create");
    // An update transition with no init before it.
    let some = geoproof_por::dynamic::DynamicDigest {
        root: [9u8; 32],
        segments: 4,
    };
    let other = geoproof_por::dynamic::DynamicDigest {
        root: [8u8; 32],
        segments: 4,
    };
    w.append_digest(&DigestRecord {
        file_id: "orphan".into(),
        op: DigestOp::Update,
        index: 1,
        prev: some,
        new: other,
    })
    .expect("structurally fine");
    w.finish().expect("finish");
    drop(w);
    let ledger = Ledger::read(&path).expect("read");
    let err = replay(&ledger, &r.tpa.verifying_key(), None).expect_err("must break");
    assert!(
        matches!(err, LedgerError::DigestChain { what, .. } if what.contains("before any init")),
        "{err}"
    );
    std::fs::remove_file(&path).ok();

    // Init then a transition that does not leave from the current digest.
    let path = tmp("forked-chain.log");
    let mut w = LedgerWriter::create(&path, &r.tpa, 0, 1).expect("create");
    w.append_digest(&DigestRecord {
        file_id: "f".into(),
        op: DigestOp::Init,
        index: 0,
        prev: NO_DIGEST,
        new: some,
    })
    .expect("init");
    w.append_digest(&DigestRecord {
        file_id: "f".into(),
        op: DigestOp::Update,
        index: 0,
        prev: other, // not the current digest
        new: some,
    })
    .expect("structurally fine");
    w.finish().expect("finish");
    drop(w);
    let ledger = Ledger::read(&path).expect("read");
    let err = replay(&ledger, &r.tpa.verifying_key(), None).expect_err("must break");
    assert!(
        matches!(err, LedgerError::DigestChain { what, .. }
            if what.contains("does not leave from")),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn writer_refuses_structurally_invalid_dynamic_records() {
    let r = rig();
    let path = tmp("refuse.log");
    let mut w = LedgerWriter::create(&path, &r.tpa, 0, 1).expect("create");
    // Digest record violating its own arithmetic.
    let err = w
        .append_digest(&DigestRecord {
            file_id: "f".into(),
            op: DigestOp::Append,
            index: 3,
            prev: geoproof_por::dynamic::DynamicDigest {
                root: [1u8; 32],
                segments: 4,
            },
            new: geoproof_por::dynamic::DynamicDigest {
                root: [2u8; 32],
                segments: 4, // append must grow by one
            },
        })
        .expect_err("must refuse");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // Dynamic evidence whose transcript bytes cannot replay.
    let mut r2 = rig();
    let req = r2.auditor.issue_dynamic(r2.owner.digest(), 2);
    let t = r2.verifier.run_audit(&req, &mut r2.provider);
    let (_report, mut bundle) = r2.auditor.verify_evidence(&req, &t, "p", 0);
    bundle.transcript = Bytes::from(vec![0xeeu8; 40]);
    let err = w.append_bundle(&bundle).expect_err("must refuse");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(w.record_count(), 0, "nothing was written");
    std::fs::remove_file(&path).ok();
}

/// A round whose Merkle proof and tag both fail is judged on the proof
/// alone: one `BadProof`, never a `BadTag`. The live verdict and its
/// offline replay must agree on that order.
#[test]
fn a_round_failing_proof_and_tag_is_one_bad_proof_live_and_replayed() {
    let mut r = rig();
    // Flipping every byte breaks both the leaf hash and the tag.
    for i in 0..16 {
        assert!(r.provider.store.corrupt_silently(i, 0x11));
    }
    let req = r.auditor.issue_dynamic(r.owner.digest(), 1);
    let t = r.verifier.run_audit(&req, &mut r.provider);
    let (report, bundle) = r.auditor.verify_evidence(&req, &t, "acme", 0);
    let segment = t.rounds[0].index;
    assert_eq!(bundle.mac_ok, vec![false], "the tag fails too");
    assert_eq!(
        report.violations,
        vec![Violation::BadProof { round: 0, segment }]
    );

    let path = tmp("proof-before-tag.log");
    let mut w = LedgerWriter::create(&path, &r.tpa, 0, 1).expect("create");
    w.append_bundle(&bundle).expect("append");
    w.finish().expect("finish");
    drop(w);
    let ledger = Ledger::read(&path).expect("read");
    let outcome = replay(&ledger, &r.tpa.verifying_key(), None).expect("replay");
    assert_eq!((outcome.dynamic, outcome.rejected), (1, 1));
    let (_, record) = ledger.dyn_evidence().next().expect("one dynamic record");
    assert_eq!(record.report().expect("report"), report);
    std::fs::remove_file(&path).ok();
}

/// A static auditor, device and provider over one small encoded file.
fn static_rig() -> (Auditor, VerifierDevice, LocalProvider) {
    let params = PorParams::test_small();
    let keys = PorKeys::derive(b"ledger-dyn-master", "sf");
    let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
    let tagged = PorEncoder::new(params).encode(&data, &keys, "sf");
    let mut storage = StorageServer::new(HddModel::deterministic(WD_2500JD), 1);
    storage.put_file(FileId::from("sf"), tagged.segments.clone());
    let sk = SigningKey::generate(&mut ChaChaRng::from_u64_seed(35));
    let auditor = Auditor::new(
        "sf".into(),
        tagged.metadata.segments,
        PorEncoder::new(params),
        keys.auditor_view(),
        sk.verifying_key(),
        BRISBANE,
        Km(10.0),
        TimingPolicy::paper(),
        36,
    );
    let device = VerifierDevice::new(sk, GpsReceiver::new(BRISBANE), SimClock::new(), 37);
    (
        auditor,
        device,
        LocalProvider::new(storage, LanPath::adjacent(), 2),
    )
}

/// Every record kind a static-and-dynamic deployment writes, in one
/// seeded ledger: static evidence, a digest init, a dynamic ACCEPT, a
/// digest update, a stale-copy dynamic REJECT, and the checkpoints an
/// interval of 2 fires. Its length and SHA-256 pin every byte of the
/// `0x01`, `0x03` and `0x04` record layouts and of both transcript
/// encodings they carry. With the owner's keys, replay re-derives every
/// recorded tag bit, each record under its own kind's MAC scheme.
#[test]
fn mixed_static_and_dynamic_ledger_is_byte_pinned() {
    let mut r = rig();
    let (mut auditor, mut device, mut provider) = static_rig();
    let path = tmp("mixed-pin.log");
    let mut w = LedgerWriter::create(&path, &r.tpa, 2, 1).expect("create");

    let req = auditor.issue_request(6);
    let t = device.run_audit(&req, &mut provider);
    let (report, bundle) = auditor.verify_evidence(&req, &t, "static-site", 0);
    assert!(report.accepted(), "{:?}", report.violations);
    w.append_bundle(&bundle).expect("static evidence");

    let d0 = r.owner.digest();
    w.append_digest(&DigestRecord {
        file_id: "df".into(),
        op: DigestOp::Init,
        index: 0,
        prev: NO_DIGEST,
        new: d0,
    })
    .expect("init");
    let req = r.auditor.issue_dynamic(d0, 5);
    let t = r.verifier.run_audit(&req, &mut r.provider);
    let (report, bundle) = r.auditor.verify_evidence(&req, &t, "acme", 0);
    assert!(report.accepted(), "{:?}", report.violations);
    w.append_bundle(&bundle).expect("dynamic accept");

    // The owner updates; the provider keeps serving its stale copy.
    let (_tagged, d1) = r.owner.tag_update(4, b"v2", &r.keys).unwrap();
    w.append_digest(&DigestRecord {
        file_id: "df".into(),
        op: DigestOp::Update,
        index: 4,
        prev: d0,
        new: d1,
    })
    .expect("update");
    let req = r.auditor.issue_dynamic(d1, 16);
    let t = r.verifier.run_audit(&req, &mut r.provider);
    let (report, bundle) = r.auditor.verify_evidence(&req, &t, "acme", 1);
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::BadProof { .. })));
    w.append_bundle(&bundle).expect("dynamic reject");
    w.finish().expect("finish");
    drop(w);

    let ledger = Ledger::read(&path).expect("read");
    let outcome = replay(&ledger, &r.tpa.verifying_key(), None).expect("replay");
    assert_eq!(
        (outcome.evidence, outcome.dynamic, outcome.digests),
        (1, 2, 2)
    );
    assert_eq!((outcome.accepted, outcome.rejected), (2, 1));
    assert_eq!(outcome.checkpoints, 3);
    let encoder = PorEncoder::new(PorParams::test_small());
    let tpa = r.tpa.verifying_key();
    let outcome = replay(
        &ledger,
        &tpa,
        Some(&owner_keys(&encoder, b"ledger-dyn-master")),
    )
    .expect("replay with the owner's keys");
    assert_eq!(outcome.macs_checked, 6 + 5 + 16);
    let err = replay(&ledger, &tpa, Some(&owner_keys(&encoder, b"wrong-master")))
        .expect_err("wrong keys must contradict the recorded bits");
    assert!(
        matches!(err, LedgerError::MacMismatch { evidence: 0 }),
        "{err}"
    );
    let bytes = std::fs::read(&path).expect("read back");
    assert_eq!(
        (bytes.len(), hex(&Sha256::digest(&bytes))),
        (
            6_825,
            "5bbf859cadbad49b3ebdfa3290d9f2d1809f1a1f23b9c52fc5265c71b1f439de".to_owned()
        )
    );
    std::fs::remove_file(&path).ok();
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
