//! Failure-injection integration tests: partial data loss, degenerate
//! parameters, mid-campaign storage failures, transport faults — the
//! system must fail *closed* (audits reject, extraction errors cleanly,
//! no panics on hostile input).

use geoproof::core::auditor::Violation;
use geoproof::por::encode::ExtractError;
use geoproof::prelude::*;
use geoproof::wire::codec::WireMessage;
use geoproof::wire::tcp::{SegmentStore, TcpChallenger};
use geoproof::wire::MuxProverServer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

// --- storage-side failures ---------------------------------------------------

#[test]
fn provider_that_lost_the_file_fails_every_mac() {
    use geoproof::core::auditor::Auditor;
    use geoproof::core::provider::LocalProvider;
    use geoproof::core::verifier::VerifierDevice;
    use geoproof::crypto::schnorr::SigningKey;
    use geoproof::geo::gps::GpsReceiver;
    use geoproof::por::encode::PorEncoder;
    use geoproof::por::keys::PorKeys;
    use geoproof::sim::clock::SimClock;
    use geoproof::storage::hdd::HddModel;
    use geoproof::storage::server::StorageServer;

    let params = PorParams::test_small();
    let encoder = PorEncoder::new(params);
    let keys = PorKeys::derive(b"m", "lost");
    let tagged = encoder.encode(&vec![7u8; 5000], &keys, "lost");
    let n = tagged.metadata.segments;

    // Provider stored the file… then lost it entirely.
    let mut storage = StorageServer::new(HddModel::deterministic(WD_2500JD), 1);
    storage.put_file(FileId::from("lost"), tagged.segments);
    assert!(storage.delete_file(&FileId::from("lost")));
    let mut provider = LocalProvider::new(storage, geoproof::net::lan::LanPath::adjacent(), 2);

    let mut rng = ChaChaRng::from_u64_seed(900);
    let sk = SigningKey::generate(&mut rng);
    let mut verifier =
        VerifierDevice::new(sk.clone(), GpsReceiver::new(BRISBANE), SimClock::new(), 3);
    let mut auditor = Auditor::new(
        "lost".into(),
        n,
        PorEncoder::new(params),
        keys.auditor_view(),
        sk.verifying_key(),
        BRISBANE,
        Km(25.0),
        TimingPolicy::paper(),
        4,
    );
    let req = auditor.issue_request(6);
    let transcript = verifier.run_audit(&req, &mut provider);
    let report = auditor.verify(&req, &transcript);
    assert!(!report.accepted());
    assert_eq!(report.segments_ok, 0, "nothing can verify");
    assert_eq!(
        report
            .violations
            .iter()
            .filter(|v| matches!(v, Violation::BadSegment { .. }))
            .count(),
        6
    );
}

#[test]
fn partially_deleted_file_detected_and_sometimes_recoverable() {
    let owner = DataOwner::new(b"m", PorParams::test_small());
    let mut rng = ChaChaRng::from_u64_seed(901);
    let mut data = vec![0u8; 30_000];
    rng.fill_bytes(&mut data);
    let (tagged, keys) = owner.prepare(&data, "f");

    // Lose 1% of segments: extraction should still succeed via erasures.
    let mut light = tagged.segments.clone();
    let n = light.len();
    for i in (0..n).step_by(100) {
        light[i].clear();
        light[i].resize(tagged.segments[i].len(), 0);
    }
    let out = owner.encoder().extract(&light, &keys, &tagged.metadata);
    assert_eq!(out.expect("1% loss within RS budget"), data);

    // Lose 40%: extraction must fail cleanly, not return garbage.
    let mut heavy = tagged.segments.clone();
    for i in (0..n).step_by(2).take(2 * n / 5) {
        heavy[i].clear();
        heavy[i].resize(tagged.segments[i].len(), 0);
    }
    match owner.encoder().extract(&heavy, &keys, &tagged.metadata) {
        Err(ExtractError::TooCorrupt { .. }) => {}
        Ok(recovered) => assert_ne!(recovered, data, "garbage returned as success"),
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn zero_length_and_tiny_files_roundtrip() {
    let owner = DataOwner::new(b"m", PorParams::test_small());
    for len in [0usize, 1, 2, 15, 16, 17] {
        let data = vec![0xabu8; len];
        let (tagged, keys) = owner.prepare(&data, "tiny");
        let out = owner
            .encoder()
            .extract(&tagged.segments, &keys, &tagged.metadata)
            .unwrap_or_else(|e| panic!("len {len}: {e}"));
        assert_eq!(out, data, "len {len}");
    }
}

#[test]
fn metadata_mismatch_rejected_not_panicking() {
    let owner = DataOwner::new(b"m", PorParams::test_small());
    let (tagged, keys) = owner.prepare(b"some data here", "f");
    let mut md = tagged.metadata.clone();
    md.segments += 1;
    assert!(matches!(
        owner.encoder().extract(&tagged.segments, &keys, &md),
        Err(ExtractError::WrongSegmentCount { .. })
    ));
}

// --- audit-side failures ------------------------------------------------------

#[test]
fn audit_of_erased_storage_reports_every_round() {
    let mut d = DeploymentBuilder::new(BRISBANE)
        .behaviour(ProviderBehaviour::Corrupting {
            disk: WD_2500JD,
            fraction: 1.0, // everything corrupted
        })
        .seed(902)
        .build();
    let report = d.run_audit(8);
    assert!(!report.accepted());
    assert_eq!(
        report
            .violations
            .iter()
            .filter(|v| matches!(v, Violation::BadSegment { .. }))
            .count(),
        8
    );
    assert_eq!(report.segments_ok, 0);
}

#[test]
fn extreme_challenge_counts_behave() {
    let mut d = DeploymentBuilder::new(BRISBANE).seed(903).build();
    // k = 1: minimal audit still sound.
    assert!(d.run_audit(1).accepted());
    // k = n: audit the entire file.
    let n = d.n_segments as u32;
    let report = d.run_audit(n);
    assert!(report.accepted());
    assert_eq!(report.segments_ok as u64, d.n_segments);
}

// --- transport failures ----------------------------------------------------------

#[test]
fn tcp_server_survives_garbage_frames() {
    let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
    store
        .lock()
        .insert("f".into(), vec![bytes::Bytes::from(vec![1u8; 35]); 4]);
    let server = MuxProverServer::spawn_reactor(store, Duration::ZERO).expect("bind");

    // Throw raw garbage at the socket; the connection may drop, the
    // server must keep serving new clients.
    {
        use std::io::Write;
        let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
        s.write_all(&[0xff; 64]).unwrap();
        // oversized frame header
        let mut t = std::net::TcpStream::connect(server.addr()).unwrap();
        t.write_all(&(u32::MAX).to_be_bytes()).unwrap();
    }
    let mut ok_client = TcpChallenger::connect(server.addr()).expect("connect");
    let (seg, _) = ok_client.challenge("f", 2).expect("serve after garbage");
    assert_eq!(seg.unwrap(), vec![1u8; 35]);
}

#[test]
fn tcp_missing_file_yields_none_not_error() {
    let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
    let server = MuxProverServer::spawn_reactor(store, Duration::ZERO).expect("bind");
    let mut client = TcpChallenger::connect(server.addr()).expect("connect");
    let (seg, _) = client.challenge("ghost", 0).expect("protocol ok");
    assert!(seg.is_none());
}

/// One wire-malformation table over every frame the codec knows, with
/// both arms of each `Option`: every truncation, one trailing byte and
/// (where the frame has one) an option presence byte of 2 are refused;
/// the untouched frame decodes back to the message.
#[test]
fn codec_rejects_every_truncation_of_every_variant() {
    use geoproof::por::dynamic::DynamicDigest;
    use geoproof::por::merkle::MerkleProof;
    use geoproof::wire::CodecError;

    let proof = MerkleProof {
        index: 2,
        siblings: vec![([1u8; 32], true), ([2u8; 32], false)],
    };
    let digest = DynamicDigest {
        root: [4u8; 32],
        segments: 5,
    };
    // (message, whether its second payload byte is an option's presence byte)
    let messages = vec![
        (
            WireMessage::Challenge {
                file_id: "abc".into(),
                index: 123,
            },
            false,
        ),
        (
            WireMessage::Response {
                segment: Some(vec![7; 30].into()),
            },
            true,
        ),
        (WireMessage::Response { segment: None }, true),
        (WireMessage::Bye, false),
        (
            WireMessage::DynChallenge {
                file_id: "f".into(),
                index: 2,
            },
            false,
        ),
        (
            WireMessage::DynResponse {
                segment: Some((vec![1u8; 10].into(), proof)),
            },
            true,
        ),
        (WireMessage::DynResponse { segment: None }, true),
        (
            WireMessage::Update {
                file_id: "f".into(),
                index: 1,
                tagged: vec![2u8; 10].into(),
                sig: [0x21u8; 64],
            },
            false,
        ),
        (
            WireMessage::Append {
                file_id: "f".into(),
                tagged: vec![3u8; 10].into(),
                sig: [0x22u8; 64],
            },
            false,
        ),
        (
            WireMessage::UpdateAck {
                new_digest: Some(digest),
            },
            true,
        ),
        (WireMessage::UpdateAck { new_digest: None }, true),
    ];
    for (msg, has_option) in messages {
        let frame = msg.encode();
        let payload = &frame[4..];
        for cut in 0..payload.len() {
            assert!(
                WireMessage::decode(&payload[..cut]).is_err(),
                "{msg:?} truncated at {cut} decoded"
            );
        }
        let mut trailing = payload.to_vec();
        trailing.push(0);
        assert_eq!(
            WireMessage::decode(&trailing),
            Err(CodecError::TrailingBytes(1)),
            "{msg:?} with a trailing byte"
        );
        if has_option {
            let mut bad = payload.to_vec();
            bad[1] = 2;
            assert_eq!(
                WireMessage::decode(&bad),
                Err(CodecError::BadOption(2)),
                "{msg:?} with option byte 2"
            );
        }
        // Untruncated must decode.
        assert_eq!(WireMessage::decode(payload).unwrap(), msg);
    }
    // An unassigned tag is refused, whatever follows it.
    let mut tag3 = vec![3u8];
    tag3.extend_from_slice(&1u32.to_be_bytes());
    tag3.push(b'f');
    assert_eq!(WireMessage::decode(&tag3), Err(CodecError::BadTag(3)));
}

// --- clock/GPS failures --------------------------------------------------------

#[test]
fn gps_outage_modelled_as_wrong_location_rejects() {
    // A dead GPS reporting (0, 0) — "null island" — must fail the SLA
    // location check rather than accept silently.
    let mut d = DeploymentBuilder::new(BRISBANE).seed(904).build();
    d.verifier.gps_mut().spoof(GeoPoint::new(0.0, 0.0));
    let report = d.run_audit(4);
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::WrongLocation { .. })));
}
