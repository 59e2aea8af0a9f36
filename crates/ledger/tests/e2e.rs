//! End-to-end evidence flow: live audits (engine, fleet, deployment)
//! recorded into a ledger, then replayed cold — chain, checkpoints,
//! transcript signatures and verdicts re-derived from the TPA public
//! key alone, byte-identical to what the live TPA decided.

use bytes::Bytes;
use geoproof_core::deployment::{DeploymentBuilder, ProviderBehaviour};
use geoproof_core::engine::{AuditEngine, EngineConfig, ProverId, ProverSpec};
use geoproof_core::evidence::encode_report;
use geoproof_core::fleet::{run_fleet, run_fleet_with_evidence, FleetConfig};
use geoproof_core::provider::{LocalProvider, SegmentProvider};
use geoproof_core::verifier::VerifierDevice;
use geoproof_crypto::chacha::ChaChaRng;
use geoproof_crypto::schnorr::SigningKey;
use geoproof_crypto::sha256::Sha256;
use geoproof_geo::coords::places::BRISBANE;
use geoproof_geo::gps::GpsReceiver;
use geoproof_ledger::{replay, InclusionProof, Ledger, LedgerError, LedgerSink, OwnerKeys};
use geoproof_net::lan::LanPath;
use geoproof_por::encode::PorEncoder;
use geoproof_por::keys::PorKeys;
use geoproof_por::params::PorParams;
use geoproof_sim::clock::SimClock;
use geoproof_sim::time::SimDuration;
use geoproof_storage::hdd::{HddModel, WD_2500JD};
use geoproof_storage::server::{FileId, StorageServer};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gp-ledger-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

fn tpa_key(seed: u64) -> SigningKey {
    SigningKey::generate(&mut ChaChaRng::from_u64_seed(seed))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

type FleetEntry = (ProverId, VerifierDevice, Box<dyn SegmentProvider + Send>);

/// An engine rig mirroring the core engine tests: one encoded file,
/// `n_provers` honest provers.
fn engine_rig(n_provers: usize, seed: u64) -> (AuditEngine, Vec<FleetEntry>, PorKeys) {
    let params = PorParams::test_small();
    let encoder = PorEncoder::new(params);
    let keys = PorKeys::derive(b"ledger-e2e-master", "ef");
    let data: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8).collect();
    let tagged = encoder.encode_arena(&data, &keys, "ef");
    let n = tagged.metadata().segments;

    let mut engine = AuditEngine::new(
        "ef",
        n,
        PorEncoder::new(params),
        keys.auditor_view(),
        EngineConfig {
            seed,
            k: 8,
            workers: 4,
            ..EngineConfig::default()
        },
    );

    let mut fleet = Vec::new();
    for i in 0..n_provers {
        let id = ProverId(format!("prover-{i:03}"));
        let mut rng = ChaChaRng::from_u64_seed(seed ^ (i as u64 + 1) << 8);
        let sk = SigningKey::generate(&mut rng);
        engine.register_prover(
            id.clone(),
            ProverSpec {
                device_key: sk.verifying_key(),
                sla_location: BRISBANE,
            },
        );
        let device = VerifierDevice::new(
            sk,
            GpsReceiver::new(BRISBANE),
            SimClock::new(),
            seed ^ (i as u64 + 77),
        );
        let mut storage = StorageServer::new(HddModel::deterministic(WD_2500JD), i as u64);
        storage.put_arena(
            FileId::from("ef"),
            geoproof_core::provider::shared_store(&tagged),
        );
        let provider: Box<dyn SegmentProvider + Send> = Box::new(LocalProvider::new(
            storage,
            LanPath::adjacent(),
            i as u64 + 9,
        ));
        fleet.push((id, device, provider));
    }
    (engine, fleet, keys)
}

#[test]
fn engine_run_records_every_verdict_and_replays_byte_identically() {
    let path = tmp("engine.log");
    let tpa = tpa_key(11);
    let (mut engine, fleet, keys) = engine_rig(10, 5);
    let sink = Arc::new(LedgerSink::create(&path, &tpa, 4, 1).expect("create"));
    engine.set_evidence_sink(sink.clone());
    let (reports, _, _) = engine.run_sessions(fleet);
    assert_eq!(reports.len(), 10);
    assert!(engine.evidence_error().is_none());
    sink.finish().expect("finish");

    // Cold: nothing but the file and the TPA public key.
    let ledger = Ledger::read(&path).expect("read");
    assert_eq!(ledger.evidence_count(), 10);
    assert!(ledger.checkpoint_count() >= 2, "interval 4 over 10 records");
    assert_eq!(ledger.uncovered_evidence(), 0);
    let outcome = replay(&ledger, &tpa.verifying_key(), None).expect("replay");
    assert_eq!(outcome.evidence, 10);
    assert_eq!(outcome.accepted, 10);
    assert_eq!(outcome.macs_checked, 0);

    // The recorded verdict bytes equal the live reports, record by
    // record (sorted prover order in both).
    for ((id, live), (_, recorded)) in reports.iter().zip(ledger.evidence()) {
        assert_eq!(recorded.prover, id.0);
        assert_eq!(
            recorded.report_bytes.as_ref(),
            encode_report(live).as_slice(),
            "{id}: ledger bytes must equal the live verdict"
        );
    }

    // With the owner's secret, the MAC bits are re-derived too.
    let encoder = PorEncoder::new(PorParams::test_small());
    let mac_key = *keys.mac_key();
    let owner = OwnerKeys {
        encoder: &encoder,
        mac_key: Box::new(move |_: &str| mac_key),
    };
    let full = replay(&ledger, &tpa.verifying_key(), Some(&owner)).expect("full replay");
    assert_eq!(full.macs_checked, 10 * 8);
}

/// Byte pins for the engine and fleet evidence paths: the fleet's
/// outcome fingerprint and the exact ledger bytes each path writes. Any
/// change to nonces, epochs, verdicts, record order or encoding moves
/// one of these digests.
#[test]
fn fleet_and_engine_ledgers_are_byte_pinned() {
    let config = FleetConfig::mixed(6, 2, 2, 2, 33);
    let fleet_fingerprint = "59fd6d59c12440e0f6505d4241d3699687e1e79ee4723944c69eb5cb796b3861";
    assert_eq!(hex(&run_fleet(&config).fingerprint()), fleet_fingerprint);

    let path = tmp("pin-fleet.log");
    let sink = Arc::new(LedgerSink::create(&path, &tpa_key(11), 4, 1).expect("create"));
    let outcome = run_fleet_with_evidence(&config, sink.clone());
    sink.finish().expect("finish");
    assert_eq!(hex(&outcome.fingerprint()), fleet_fingerprint);
    let bytes = std::fs::read(&path).expect("read back");
    assert_eq!(
        (bytes.len(), hex(&Sha256::digest(&bytes))),
        (
            11_137,
            "9e698a246ce3515b1e91ececda68daa9a87028567992936d302729f4861c9515".to_owned()
        )
    );

    let path = tmp("pin-engine.log");
    let (mut engine, fleet, _) = engine_rig(10, 5);
    let sink = Arc::new(LedgerSink::create(&path, &tpa_key(11), 4, 1).expect("create"));
    engine.set_evidence_sink(sink.clone());
    engine.run_sessions(fleet);
    sink.finish().expect("finish");
    let bytes = std::fs::read(&path).expect("read back");
    assert_eq!(
        (bytes.len(), hex(&Sha256::digest(&bytes))),
        (
            8_509,
            "d1b8ce5d6f95048a508374188730578d7e9a7bf654d4633c287a71eeaf680955".to_owned()
        )
    );
}

#[test]
fn reaudited_prover_gets_distinct_epochs_in_the_ledger() {
    let path = tmp("epochs.log");
    let tpa = tpa_key(13);
    let (mut engine, mut fleet, _) = engine_rig(1, 9);
    let sink = Arc::new(LedgerSink::create(&path, &tpa, 0, 1).expect("create"));
    engine.set_evidence_sink(sink.clone());
    let (id, mut device, mut provider) = fleet.remove(0);
    for _ in 0..3 {
        let issued = engine.issue(&id).expect("registered");
        let transcript = device.run_audit(&issued.request, provider.as_mut());
        engine.judge(vec![(issued, transcript)]);
    }
    sink.finish().expect("finish");
    let ledger = Ledger::read(&path).expect("read");
    let epochs: Vec<u64> = ledger.evidence().map(|(_, e)| e.epoch).collect();
    assert_eq!(epochs, vec![0, 1, 2]);
    replay(&ledger, &tpa.verifying_key(), None).expect("replay");
}

#[test]
fn engine_epochs_continue_across_process_restarts() {
    // Run 1 writes epochs 0..; run 2 (fresh engine, reopened ledger)
    // must seed from the file so (prover, epoch) stays unique.
    let path = tmp("restart-epochs.log");
    let tpa = tpa_key(47);
    {
        let (mut engine, fleet, _) = engine_rig(2, 4);
        let sink = Arc::new(LedgerSink::create(&path, &tpa, 0, 1).expect("create"));
        engine.set_evidence_sink(sink.clone());
        engine.run_sessions(fleet);
        sink.finish().expect("finish");
    }
    {
        let (mut engine, fleet, _) = engine_rig(2, 4);
        let (sink, recovery) = LedgerSink::open_or_create(&path, &tpa, 0, 2).expect("reopen");
        assert_eq!(recovery, geoproof_ledger::Recovery::Clean);
        let sink = Arc::new(sink);
        engine.seed_epochs(
            sink.prover_epochs()
                .into_iter()
                .map(|(prover, epoch)| (ProverId(prover), epoch)),
        );
        engine.set_evidence_sink(sink.clone());
        engine.run_sessions(fleet);
        sink.finish().expect("finish");
    }
    let ledger = Ledger::read(&path).expect("read");
    replay(&ledger, &tpa.verifying_key(), None).expect("replay");
    let mut seen: Vec<(String, u64)> = ledger
        .evidence()
        .map(|(_, e)| (e.prover.clone(), e.epoch))
        .collect();
    seen.sort();
    assert_eq!(
        seen,
        vec![
            ("prover-000".to_owned(), 0),
            ("prover-000".to_owned(), 1),
            ("prover-001".to_owned(), 0),
            ("prover-001".to_owned(), 1),
        ],
        "epochs must continue, never repeat, across restarts"
    );
}

#[test]
fn fleet_evidence_captures_adversaries_and_replays() {
    let path = tmp("fleet.log");
    let tpa = tpa_key(17);
    let sink = Arc::new(LedgerSink::create(&path, &tpa, 8, 1).expect("create"));
    let outcome = run_fleet_with_evidence(&FleetConfig::mixed(6, 2, 2, 2, 33), sink.clone());
    sink.finish().expect("finish");

    let ledger = Ledger::read(&path).expect("read");
    assert_eq!(ledger.evidence_count(), 12);
    let replayed = replay(&ledger, &tpa.verifying_key(), None).expect("replay");
    assert_eq!(replayed.accepted as usize, outcome.accepted());
    assert_eq!(replayed.rejected as usize, outcome.rejected());

    // Rejected provers' evidence carries their violations durably.
    let mut rejected_with_violations = 0;
    for (_, record) in ledger.evidence() {
        let report = record.report().expect("report");
        if !report.accepted() {
            assert!(!report.violations.is_empty());
            rejected_with_violations += 1;
        }
    }
    assert_eq!(rejected_with_violations, 6, "slow + relay + forge");
}

#[test]
fn fleet_evidence_is_deterministic_per_seed() {
    let run = |tag: &str| {
        let path = tmp(tag);
        let tpa = tpa_key(19);
        let sink = Arc::new(LedgerSink::create(&path, &tpa, 4, 7).expect("create"));
        run_fleet_with_evidence(&FleetConfig::mixed(4, 1, 1, 1, 21), sink.clone());
        sink.finish().expect("finish");
        std::fs::read(&path).expect("read back")
    };
    assert_eq!(
        run("det-a.log"),
        run("det-b.log"),
        "same seed, same TPA key, same bytes"
    );
}

#[test]
fn deployment_sink_records_honest_and_misbehaving_months() {
    let path = tmp("deployment.log");
    let tpa = tpa_key(23);
    let sink = Arc::new(LedgerSink::create(&path, &tpa, 0, 1).expect("create"));
    let mut honest = DeploymentBuilder::new(BRISBANE)
        .seed(1)
        .prover_label("acme-cloud")
        .evidence_sink(sink.clone())
        .build();
    for _ in 0..2 {
        assert!(honest.run_audit(10).accepted());
    }
    let mut slow = DeploymentBuilder::new(BRISBANE)
        .behaviour(ProviderBehaviour::Slow {
            disk: WD_2500JD,
            extra: SimDuration::from_millis(10),
        })
        .seed(2)
        .prover_label("acme-cloud-slow")
        .evidence_sink(sink.clone())
        .build();
    assert!(!slow.run_audit(10).accepted());
    assert!(honest.evidence_error().is_none());
    assert!(slow.evidence_error().is_none());
    sink.finish().expect("finish");

    let ledger = Ledger::read(&path).expect("read");
    assert_eq!(ledger.evidence_count(), 3);
    let outcome = replay(&ledger, &tpa.verifying_key(), None).expect("replay");
    assert_eq!(outcome.accepted, 2);
    assert_eq!(outcome.rejected, 1);
    let provers: Vec<String> = ledger.evidence().map(|(_, e)| e.prover.clone()).collect();
    assert_eq!(provers, vec!["acme-cloud", "acme-cloud", "acme-cloud-slow"]);
}

#[test]
fn inclusion_proofs_verify_and_reject_tampering() {
    let path = tmp("prove.log");
    let tpa = tpa_key(29);
    let (mut engine, fleet, _) = engine_rig(5, 3);
    let sink = Arc::new(LedgerSink::create(&path, &tpa, 0, 1).expect("create"));
    engine.set_evidence_sink(sink.clone());
    engine.run_sessions(fleet);
    sink.finish().expect("finish");

    let ledger = Ledger::read(&path).expect("read");
    for ev in 0..ledger.evidence_count() {
        let proof = ledger.prove(ev).expect("prove");
        // Round-trip through the wire form, then verify standalone.
        let decoded = InclusionProof::decode(&Bytes::from(proof.encode())).expect("decode");
        let verified = decoded.verify(&tpa.verifying_key()).expect("verify");
        assert_eq!(
            verified.evidence().expect("static evidence").prover,
            format!("prover-{ev:03}")
        );
        assert_eq!(
            verified.seal,
            ledger.sealed_record(ev).expect("record").seal
        );

        // Any flipped byte anywhere in the proof must break it.
        let enc = proof.encode();
        for pos in [0, 9, 45, enc.len() / 2, enc.len() - 1] {
            let mut bad = enc.clone();
            bad[pos] ^= 1;
            let outcome = InclusionProof::decode(&Bytes::from(bad))
                .and_then(|p| p.verify(&tpa.verifying_key()).map(|_| ()));
            assert!(outcome.is_err(), "evidence {ev}, flipped byte {pos}");
        }

        // The wrong TPA key never validates a genuine proof.
        let wrong = tpa_key(31);
        assert!(matches!(
            proof.verify(&wrong.verifying_key()),
            Err(LedgerError::BadProof(_))
        ));
    }
}

#[test]
fn replay_flags_forged_mac_bits_when_secret_is_available() {
    // A corrupt TPA writes "MAC ok" for a forging prover; without the
    // owner's key the replay cannot tell (the verdict re-derives
    // consistently), but with it the forgery surfaces.
    let path = tmp("forged-macs.log");
    let tpa = tpa_key(37);
    let (mut engine, fleet, _) = engine_rig(1, 8);
    let sink = Arc::new(LedgerSink::create(&path, &tpa, 0, 1).expect("create"));
    engine.set_evidence_sink(sink.clone());
    engine.run_sessions(fleet);
    sink.finish().expect("finish");

    let ledger = Ledger::read(&path).expect("read");
    let encoder = PorEncoder::new(PorParams::test_small());
    // A key other than the one the bits were recorded under stands in
    // for "the recorded bits are wrong": every honest bit now derives
    // false, so recorded-vs-derived must clash.
    let wrong_key = OwnerKeys {
        encoder: &encoder,
        mac_key: Box::new(|fid: &str| *PorKeys::derive(b"wrong-master", fid).mac_key()),
    };
    assert!(matches!(
        replay(&ledger, &tpa.verifying_key(), Some(&wrong_key)),
        Err(LedgerError::MacMismatch { evidence: 0 })
    ));
}

#[test]
fn replay_rejects_the_wrong_tpa_key() {
    let path = tmp("wrong-tpa.log");
    let tpa = tpa_key(41);
    let (mut engine, fleet, _) = engine_rig(1, 2);
    let sink = Arc::new(LedgerSink::create(&path, &tpa, 0, 1).expect("create"));
    engine.set_evidence_sink(sink.clone());
    engine.run_sessions(fleet);
    sink.finish().expect("finish");
    let ledger = Ledger::read(&path).expect("read");
    let wrong = tpa_key(43);
    assert!(matches!(
        replay(&ledger, &wrong.verifying_key(), None),
        Err(LedgerError::TpaKeyMismatch)
    ));
}
