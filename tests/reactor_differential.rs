//! Differential pin: the prover server's epoll reactor model and its
//! thread-per-connection model must be **byte-identical** on the wire.
//!
//! Both models drive one protocol implementation (`MuxService` in
//! `geoproof-wire`), so divergence would mean the reactor's state
//! machine corrupted, reordered, or dropped something the threaded
//! loop would have served. Two layers of pinning:
//!
//! 1. raw reply frames for a sweep of probe messages — happy path,
//!    unknown files, out-of-range indices, dynamic ops — compared
//!    byte-for-byte (replies carry no timestamps, so exact equality is
//!    required, not just semantic equality);
//! 2. full seeded audits run concurrently against both servers — the
//!    challenged indices, every served segment, and the TPA verdicts
//!    must agree (transcripts carry wall-clock RTTs, so the comparison
//!    is on everything *except* the timing noise, with a policy
//!    generous enough that timing cannot flip a verdict).

use bytes::Bytes;
use geoproof::core::auditor::Auditor;
use geoproof::core::policy::TimingPolicy;
use geoproof::crypto::chacha::ChaChaRng;
use geoproof::crypto::schnorr::SigningKey;
use geoproof::geo::coords::places::BRISBANE;
use geoproof::geo::gps::GpsReceiver;
use geoproof::por::encode::PorEncoder;
use geoproof::por::keys::PorKeys;
use geoproof::por::params::PorParams;
use geoproof::sim::time::{Km, SimDuration};
use geoproof::tcp_audit::WallClockVerifier;
use geoproof::wire::codec::WireMessage;
use geoproof::wire::tcp::SegmentStore;
use geoproof::wire::MuxProverServer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const FILE: &str = "df";

fn unsupported(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::Unsupported
}

/// One encoded store shared (same `Arc`) by both servers: any byte
/// difference in replies is then attributable to the serving path
/// alone.
fn encoded_store() -> (SegmentStore, u64, PorParams, PorKeys) {
    let params = PorParams::test_small();
    let keys = PorKeys::derive(b"differential-master", FILE);
    let data: Vec<u8> = (0..16_000u32).map(|i| (i * 31) as u8).collect();
    let tagged = PorEncoder::new(params).encode_arena(&data, &keys, FILE);
    let n = tagged.metadata().segments;
    let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
    store.lock().insert(FILE.to_owned(), tagged.segments());
    (store, n, params, keys)
}

/// Sends `msgs` down one connection and returns each raw reply frame
/// (length prefix included) exactly as it came off the socket.
fn raw_replies(addr: SocketAddr, msgs: &[WireMessage]) -> Vec<Vec<u8>> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut frames = Vec::with_capacity(msgs.len());
    for msg in msgs {
        s.write_all(&msg.encode()).expect("send probe");
        let mut len = [0u8; 4];
        s.read_exact(&mut len).expect("reply length");
        let mut frame = vec![0u8; 4 + u32::from_be_bytes(len) as usize];
        frame[..4].copy_from_slice(&len);
        s.read_exact(&mut frame[4..]).expect("reply body");
        frames.push(frame);
    }
    let _ = s.write_all(&WireMessage::Bye.encode());
    frames
}

fn challenge(file_id: &str, index: u64) -> WireMessage {
    WireMessage::Challenge {
        file_id: file_id.to_owned(),
        index,
    }
}

#[test]
fn mux_reply_frames_are_byte_identical_across_paths() {
    let (store, n, _, _) = encoded_store();
    let reactor = match MuxProverServer::spawn_reactor(store.clone(), Duration::ZERO) {
        Ok(s) => s,
        Err(e) if unsupported(&e) => return,
        Err(e) => panic!("spawn_reactor: {e}"),
    };
    let threaded = MuxProverServer::spawn(store, Duration::ZERO).expect("spawn threaded");

    let probes = vec![
        // A session opener first: both paths must treat the following
        // challenges as part of the same announced session.
        challenge(FILE, 0),
        challenge(FILE, n / 2),
        challenge(FILE, n - 1),
        challenge(FILE, n),    // out of range -> Response(None)
        challenge("ghost", 0), // unknown file -> Response(None)
        WireMessage::DynChallenge {
            file_id: "ghost".to_owned(), // no registry entry -> DynResponse(None)
            index: 3,
        },
        WireMessage::Update {
            file_id: "ghost".to_owned(),
            index: 0,
            tagged: Bytes::from(b"junk".to_vec()),
            sig: [0u8; 64],
        },
        WireMessage::Append {
            file_id: "ghost".to_owned(),
            tagged: Bytes::from(b"junk".to_vec()),
            sig: [0u8; 64],
        },
    ];
    let a = raw_replies(reactor.addr(), &probes);
    let b = raw_replies(threaded.addr(), &probes);
    for (i, (ra, rb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(ra, rb, "probe {i}: reactor and threaded replies diverge");
    }
}

#[test]
fn dynamic_ops_are_byte_identical_across_paths() {
    use geoproof::por::dynamic::{tag_segment, DynamicOwner};

    let keys = PorKeys::derive(b"differential-dyn", "dyn");
    let tagged: Vec<Bytes> = (0..8u64)
        .map(|i| Bytes::from(tag_segment(&keys, "dyn", i, &[(i * 3) as u8; 40])))
        .collect();
    let empty = || -> SegmentStore { Arc::new(Mutex::new(HashMap::new())) };
    let reactor = match MuxProverServer::spawn_reactor(empty(), Duration::ZERO) {
        Ok(s) => s,
        Err(e) if unsupported(&e) => return,
        Err(e) => panic!("spawn_reactor: {e}"),
    };
    let threaded = MuxProverServer::spawn(empty(), Duration::ZERO).expect("spawn threaded");
    let da = reactor.put_dynamic("dyn", tagged.clone());
    let db = threaded.put_dynamic("dyn", tagged.clone());
    assert_eq!(da, db, "registries start from different digests");

    // The same owner-signed update bytes go to both servers, so the
    // UpdateAck digests — and every proof served afterwards — must
    // match byte-for-byte.
    let mut owner = DynamicOwner::from_tagged("dyn", &tagged);
    let (new_tagged, _) = owner.tag_update(3, b"replacement", &keys).unwrap();
    let (appended, _) = owner.tag_append(b"ninth", &keys);
    let mut probes: Vec<WireMessage> = (0..9u64)
        .map(|i| WireMessage::DynChallenge {
            file_id: "dyn".to_owned(),
            index: i,
        })
        .collect();
    probes.insert(
        0,
        WireMessage::Update {
            file_id: "dyn".to_owned(),
            index: 3,
            tagged: Bytes::from(new_tagged),
            sig: [0u8; 64],
        },
    );
    probes.insert(
        1,
        WireMessage::Append {
            file_id: "dyn".to_owned(),
            tagged: Bytes::from(appended),
            sig: [0u8; 64],
        },
    );
    let a = raw_replies(reactor.addr(), &probes);
    let b = raw_replies(threaded.addr(), &probes);
    for (i, (ra, rb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(ra, rb, "dynamic probe {i} diverges between paths");
    }
}

/// What one seeded audit saw, minus wall-clock noise.
#[derive(Debug, PartialEq)]
struct AuditShadow {
    indices: Vec<u64>,
    segments: Vec<Vec<u8>>,
    accepted: bool,
    segments_ok: usize,
}

/// Runs `n_audits` fully seeded audits concurrently against `addr` and
/// returns each audit's shadow, keyed by seed. Auditor, verifier and
/// challenge RNGs all derive from the seed, so two servers given the
/// same seeds must produce the same shadows.
fn seeded_audits(
    addr: SocketAddr,
    n_segments: u64,
    params: PorParams,
    keys: &PorKeys,
    n_audits: u64,
    k: u32,
) -> Vec<AuditShadow> {
    // Wall-clock RTTs differ run to run; keep them out of the verdict
    // with allowances far beyond loopback latency.
    let generous = TimingPolicy {
        max_network: SimDuration::from_millis(5_000),
        max_lookup: SimDuration::from_millis(5_000),
    };
    let handles: Vec<_> = (0..n_audits)
        .map(|seed| {
            let keys = keys.clone();
            std::thread::spawn(move || {
                let mut rng = ChaChaRng::from_u64_seed(seed * 7 + 1);
                let sk = SigningKey::generate(&mut rng);
                let mut auditor = Auditor::new(
                    FILE.into(),
                    n_segments,
                    PorEncoder::new(params),
                    keys.auditor_view(),
                    sk.verifying_key(),
                    BRISBANE,
                    Km(25.0),
                    generous,
                    3,
                );
                let mut verifier =
                    WallClockVerifier::new(sk, GpsReceiver::new(BRISBANE), seed * 11 + 5);
                let request = auditor.issue_request(k);
                let transcript = verifier.run_audit(&request, addr).expect("audit I/O");
                let report = auditor.verify(&request, &transcript);
                AuditShadow {
                    indices: transcript.rounds.iter().map(|r| r.index).collect(),
                    segments: transcript
                        .rounds
                        .iter()
                        .map(|r| r.segment.to_vec())
                        .collect(),
                    accepted: report.accepted(),
                    segments_ok: report.segments_ok,
                }
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("audit thread"))
        .collect()
}

#[test]
fn concurrent_seeded_audits_agree_between_reactor_and_threaded() {
    let (store, n, params, keys) = encoded_store();
    let reactor = match MuxProverServer::spawn_reactor(store.clone(), Duration::ZERO) {
        Ok(s) => s,
        Err(e) if unsupported(&e) => return,
        Err(e) => panic!("spawn_reactor: {e}"),
    };
    let threaded = MuxProverServer::spawn(store, Duration::ZERO).expect("spawn threaded");

    const N_AUDITS: u64 = 8;
    const K: u32 = 6;
    let a = seeded_audits(reactor.addr(), n, params, &keys, N_AUDITS, K);
    let b = seeded_audits(threaded.addr(), n, params, &keys, N_AUDITS, K);
    for (seed, (sa, sb)) in a.iter().zip(&b).enumerate() {
        assert!(sa.accepted, "seed {seed}: reactor path audit rejected");
        assert_eq!(sa, sb, "seed {seed}: audits diverge between paths");
        assert_eq!(
            sa.segments_ok, K as usize,
            "seed {seed}: segment verification failed"
        );
    }
}
