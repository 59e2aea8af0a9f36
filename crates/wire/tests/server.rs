//! The prover server's behaviour over real sockets.
//!
//! Every connection is a socket-free machine driven by the epoll shell
//! ([`MuxProverServer::spawn_reactor`], one event thread); every
//! scenario here runs against a fresh server from [`spawn`], and the
//! reply frames are held to exact bytes. The timing client's Δt is
//! pinned here too, against a hand-written prover.

use bytes::Bytes;
use geoproof_wire::codec::{read_frame, write_frame, WireMessage};
use geoproof_wire::tcp::SegmentStore;
use geoproof_wire::{MuxProverServer, MuxStats, TcpChallenger};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn store_with(files: &[(&str, usize)]) -> SegmentStore {
    let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
    for &(fid, n) in files {
        store.lock().insert(
            fid.to_owned(),
            (0..n).map(|i| Bytes::from(vec![i as u8; 83])).collect(),
        );
    }
    store
}

/// A server over `store`; a reactor that fails to start fails the test.
fn spawn(store: SegmentStore, delay: Duration) -> MuxProverServer {
    MuxProverServer::spawn_reactor(store, delay).expect("spawn_reactor")
}

/// Shuts `server` down on a helper thread; whether it returned within
/// `limit` (a hung shutdown fails the test instead of hanging it).
fn shutdown_within(mut server: MuxProverServer, limit: Duration) -> bool {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    finished.recv_timeout(limit).is_ok()
}

fn challenge(file_id: &str, index: u64) -> WireMessage {
    WireMessage::Challenge {
        file_id: file_id.to_owned(),
        index,
    }
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

#[test]
fn serves_segments_over_tcp() {
    let server = spawn(store_with(&[("f", 10)]), Duration::ZERO);
    let mut client = TcpChallenger::connect(server.addr()).expect("connect");
    for idx in [0u64, 5, 9] {
        let (seg, rtt) = client.challenge("f", idx).expect("challenge");
        assert_eq!(seg.unwrap(), vec![idx as u8; 83]);
        assert!(rtt < Duration::from_secs(1));
    }
    client.bye().unwrap();
}

#[test]
fn reply_frames_are_exact_on_every_shell() {
    let probes = [
        (challenge("f", 0), Some(0u8)),
        (challenge("f", 2), Some(2)),
        (challenge("f", 3), Some(3)),
        (challenge("f", 4), None),     // out of range
        (challenge("ghost", 0), None), // unknown file
    ];
    let mut msgs: Vec<WireMessage> = probes.iter().map(|(m, _)| m.clone()).collect();
    let mut expected: Vec<Vec<u8>> = probes
        .iter()
        .map(|(_, seg)| {
            WireMessage::Response {
                segment: seg.map(|i| Bytes::from(vec![i; 83])),
            }
            .encode()
            .to_vec()
        })
        .collect();
    // Dynamic traffic against a file no registry holds.
    msgs.extend([
        WireMessage::DynChallenge {
            file_id: "ghost".to_owned(),
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
    ]);
    expected.extend([
        WireMessage::DynResponse { segment: None }.encode().to_vec(),
        WireMessage::UpdateAck { new_digest: None }
            .encode()
            .to_vec(),
        WireMessage::UpdateAck { new_digest: None }
            .encode()
            .to_vec(),
    ]);
    let server = spawn(store_with(&[("f", 4)]), Duration::ZERO);
    let got = raw_replies(server.addr(), &msgs);
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "probe {i} reply frame");
    }
}

#[test]
fn service_delay_shows_up_in_rtt() {
    let fast = spawn(store_with(&[("f", 3)]), Duration::ZERO);
    let slow = spawn(store_with(&[("f", 3)]), Duration::from_millis(30));
    let mut cf = TcpChallenger::connect(fast.addr()).unwrap();
    let mut cs = TcpChallenger::connect(slow.addr()).unwrap();
    let (_, rf) = cf.challenge("f", 0).unwrap();
    let (_, rs) = cs.challenge("f", 0).unwrap();
    assert!(
        rs >= rf + Duration::from_millis(20),
        "fast {rf:?}, slow {rs:?}"
    );
}

/// Δt ends only when the reply's last payload byte is read: a prover
/// that writes the first 10 bytes of its reply at once and the rest
/// 30 ms later is measured at ≥ 30 ms.
#[test]
fn rtt_waits_for_the_last_reply_byte() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let prover = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        read_frame(&mut conn).expect("challenge");
        let reply = WireMessage::Response {
            segment: Some(Bytes::from(vec![5u8; 64])),
        }
        .encode();
        conn.write_all(&reply[..10]).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        conn.write_all(&reply[10..]).unwrap();
    });
    let mut client = TcpChallenger::connect(addr).unwrap();
    let (segment, rtt) = client.challenge("f", 0).unwrap();
    prover.join().unwrap();
    assert_eq!(segment.as_deref(), Some(&[5u8; 64][..]));
    assert!(rtt >= Duration::from_millis(30), "rtt {rtt:?}");
}

#[test]
fn slow_dribbled_frame_does_not_desync_the_stream() {
    // Regression: a frame split across two of the server's reads used to
    // lose its already-consumed bytes, desynchronising every later frame
    // on the connection.
    let server = spawn(store_with(&[("f", 4)]), Duration::ZERO);
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let frame = challenge("f", 2).encode();
    // The length prefix plus one payload byte, a stall so the halves
    // arrive on separate reads, then the rest.
    raw.write_all(&frame[..5]).unwrap();
    std::thread::sleep(Duration::from_millis(350));
    raw.write_all(&frame[5..]).unwrap();
    let reply = read_frame(&mut raw).expect("reply after dribble");
    assert_eq!(
        reply,
        WireMessage::Response {
            segment: Some(vec![2u8; 83].into())
        }
    );
    // Still in sync: a normally sent challenge round-trips too.
    write_frame(&mut raw, &challenge("f", 0)).unwrap();
    let reply = read_frame(&mut raw).expect("second reply");
    assert_eq!(
        reply,
        WireMessage::Response {
            segment: Some(vec![0u8; 83].into())
        }
    );
}

#[test]
fn put_file_updates_store() {
    let server = spawn(store_with(&[("f", 1)]), Duration::ZERO);
    server.put_file("g", vec![vec![0xaa; 10]]);
    let mut client = TcpChallenger::connect(server.addr()).unwrap();
    let (seg, _) = client.challenge("g", 0).unwrap();
    assert_eq!(seg.unwrap(), vec![0xaa; 10]);
}

#[test]
fn multiplexes_sessions_across_connections_and_files() {
    let server = spawn(store_with(&[("a", 8), ("b", 8)]), Duration::ZERO);
    let addr = server.addr();
    // Keep all four connections open while reading the counters.
    let clients: Vec<TcpChallenger> = (0..4)
        .map(|_| {
            let mut c = TcpChallenger::connect(addr).unwrap();
            // Interleave two files on one connection.
            for i in 0..8u64 {
                let fid = if i % 2 == 0 { "a" } else { "b" };
                let (seg, _) = c.challenge(fid, i % 8).unwrap();
                assert!(seg.is_some());
            }
            c
        })
        .collect();
    let stats = server.stats();
    assert_eq!(stats.connections, 4);
    assert_eq!(stats.challenges, 32);
    assert_eq!(stats.hits, 32);
    drop(clients);
    assert_eq!(server.stats(), stats, "closing changes no total");
}

#[test]
fn stats_stay_monotone_across_reconnects() {
    // Regression: closing a connection used to discard its per-file
    // counts, so a fleet of short-lived audit connections left `hits`
    // permanently undercounted. Every total must survive a close.
    let server = spawn(store_with(&[("f", 4)]), Duration::ZERO);
    let addr = server.addr();
    let mut last = MuxStats::default();
    for round in 0..3u64 {
        let mut raw = TcpStream::connect(addr).unwrap();
        for i in 0..3u64 {
            write_frame(&mut raw, &challenge("f", i)).unwrap();
            let reply = read_frame(&mut raw).unwrap();
            assert!(matches!(reply, WireMessage::Response { segment: Some(_) }));
        }
        write_frame(&mut raw, &WireMessage::Bye).unwrap();
        drop(raw);
        let stats = server.stats();
        assert_eq!(stats.connections, round + 1);
        assert_eq!(stats.challenges, (round + 1) * 3);
        assert_eq!(stats.hits, (round + 1) * 3, "hits lost at close");
        assert!(
            stats.connections >= last.connections
                && stats.challenges >= last.challenges
                && stats.hits >= last.hits,
            "stats went backwards across a reconnect: {last:?} -> {stats:?}"
        );
        last = stats;
    }
}

#[test]
fn shutdown_returns_promptly_and_stops_serving() {
    let server = spawn(store_with(&[("f", 4)]), Duration::ZERO);
    let addr = server.addr();
    // Idle connections must not hold shutdown.
    let idle: Vec<_> = (0..32)
        .map(|_| TcpChallenger::connect(addr).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let stats = server.stats();
    assert!(
        shutdown_within(server, Duration::from_secs(2)),
        "shutdown waited on idle connections"
    );
    drop(idle);
    assert_eq!(stats.challenges, 0);
    // After shutdown nothing is served: a connect may still land in
    // the listen backlog, but nothing answers a challenge on it.
    if let Ok(mut raw) = TcpStream::connect(addr) {
        raw.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let _ = raw.write_all(&challenge("f", 0).encode());
        let reply = read_frame(&mut raw);
        assert!(
            reply.is_err(),
            "answered a challenge after shutdown: {reply:?}"
        );
    }
}

#[test]
fn shutdown_is_not_held_hostage_by_a_slow_loris_client() {
    // A client dribbling bytes but never completing a frame must not
    // hold shutdown.
    let server = spawn(store_with(&[("f", 4)]), Duration::ZERO);
    let addr = server.addr();
    let dribbling = Arc::new(AtomicBool::new(true));
    let keep_going = dribbling.clone();
    let loris = std::thread::spawn(move || {
        let mut raw = TcpStream::connect(addr).unwrap();
        // A frame header promising far more bytes than ever arrive.
        let _ = raw.write_all(&1000u32.to_be_bytes());
        while keep_going.load(Ordering::Relaxed) {
            if raw.write_all(&[0u8]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    });
    std::thread::sleep(Duration::from_millis(100)); // let it dribble
    assert!(
        shutdown_within(server, Duration::from_secs(5)),
        "shutdown hung on the dribbling connection"
    );
    dribbling.store(false, Ordering::Relaxed);
    loris.join().unwrap();
}

/// Connects to `addr` and pipelines challenges for 16 KiB segments
/// without reading a byte back. Returns the socket and whether a write
/// failed (the server stopped taking bytes or reset the connection).
fn pipeline_without_reading(addr: SocketAddr) -> (TcpStream, bool) {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_nodelay(true).unwrap();
    raw.set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    // 2 000 × 16 KiB of replies overflow any kernel socket buffering.
    let failed = (0..2000).any(|_| write_frame(&mut raw, &challenge("big", 0)).is_err());
    (raw, failed)
}

#[test]
fn cuts_off_a_client_that_never_reads_its_responses() {
    // A peer that pipelines challenges while never reading its replies
    // grows the connection's write queue; past MAX_WRITE_BACKLOG (1 MiB)
    // the machine drops it instead of buffering without bound. The
    // server keeps serving others, and shutdown stays prompt
    // with such a sink still connected.
    let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
    store.lock().insert(
        "big".to_owned(),
        (0..4)
            .map(|_| Bytes::from(vec![0xabu8; 16 * 1024]))
            .collect(),
    );
    let server = spawn(store.clone(), Duration::ZERO);
    let (mut raw, mut cut_off) = pipeline_without_reading(server.addr());
    if !cut_off {
        // Every write landed in kernel buffers; the drop then shows
        // as EOF or reset on read. A server that buffered everything
        // would deliver all ~32 MiB, a capped one far less. Wait
        // before reading, so a server that fell behind the burst
        // cannot answer while this side drains.
        std::thread::sleep(Duration::from_millis(300));
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut sink = [0u8; 65536];
        let mut received = 0usize;
        while let Ok(n @ 1..) = raw.read(&mut sink) {
            received += n;
        }
        cut_off = received < 24 * 1024 * 1024;
    }
    assert!(cut_off, "never cut off the non-reading client");
    // The server survived: a well-behaved client is still served.
    let mut c = TcpChallenger::connect(server.addr()).unwrap();
    let (seg, _) = c.challenge("big", 1).unwrap();
    assert_eq!(seg.unwrap().len(), 16 * 1024);
    c.bye().unwrap();
    // A fresh sink, still unread at shutdown, must not hold it. Give
    // the server time to fill the socket and stall on it first.
    let (sink, _) = pipeline_without_reading(server.addr());
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        shutdown_within(server, Duration::from_secs(2)),
        "shutdown hung behind a client that never reads"
    );
    drop(sink);
}

#[test]
fn missing_files_are_answered_and_counted_as_misses() {
    // An unknown file id or an out-of-range index is answered with None
    // and counted as a challenge, not as a hit.
    let server = spawn(store_with(&[("f", 2)]), Duration::ZERO);
    let mut c = TcpChallenger::connect(server.addr()).unwrap();
    assert!(c.challenge("ghost", 0).unwrap().0.is_none());
    assert!(c.challenge("f", 1).unwrap().0.is_some());
    // An out-of-range index on a real file is a miss, not an error.
    assert!(c.challenge("f", 99).unwrap().0.is_none());
    assert_eq!(server.stats().hits, 1);
    assert_eq!(server.stats().challenges, 3, "misses count globally");
    c.bye().unwrap();
}

#[test]
fn hostile_unique_file_id_spam_is_answered_with_none() {
    // One connection, a hundred challenges for files that do not exist:
    // each is answered with None.
    let server = spawn(store_with(&[("f", 2)]), Duration::ZERO);
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    for i in 0..100u64 {
        write_frame(&mut raw, &challenge(&format!("phantom-{i}"), 0)).unwrap();
        let reply = read_frame(&mut raw).unwrap();
        assert_eq!(reply, WireMessage::Response { segment: None });
    }
    write_frame(&mut raw, &WireMessage::Bye).unwrap();
}

#[test]
fn one_connection_over_many_files_counts_every_hit() {
    // Regression: hits were summed from per-(connection, file) records
    // capped at 64 per connection, so a connection challenging more files
    // was served but undercounted, and `stats().hits` disagreed with
    // `mux_hits_total`.
    let files: Vec<String> = (0..80).map(|i| format!("file-{i:03}")).collect();
    let named: Vec<(&str, usize)> = files.iter().map(|f| (f.as_str(), 1)).collect();
    let server = spawn(store_with(&named), Duration::ZERO);
    let mut c = TcpChallenger::connect(server.addr()).unwrap();
    for f in &files {
        let (seg, _) = c.challenge(f, 0).unwrap();
        assert!(seg.is_some(), "{f} must be served");
    }
    let stats = server.stats();
    assert_eq!(stats.challenges, 80);
    assert_eq!(stats.hits, 80, "every served segment is a hit");
    c.bye().unwrap();
}

#[test]
fn dynamic_flow_over_tcp_challenge_update_append() {
    use geoproof_por::dynamic::{
        tag_segment, verify_challenge, DynamicOwner, DynamicStore, ProvenSegment,
    };
    use geoproof_por::keys::PorKeys;

    let keys = PorKeys::derive(b"mux-dyn", "d");
    let tagged: Vec<Bytes> = (0..6u64)
        .map(|i| Bytes::from(tag_segment(&keys, "d", i, &[i as u8; 30])))
        .collect();
    // An independent store that sees the same mutations as the server.
    let mut mirror = DynamicStore::from_tagged(tagged.clone());
    let server = spawn(store_with(&[]), Duration::ZERO);
    let d0 = server.put_dynamic("d", tagged.clone());
    let mut owner = DynamicOwner::from_tagged("d", &tagged);
    assert_eq!(owner.digest(), d0);

    let mut c = TcpChallenger::connect(server.addr()).unwrap();
    // Challenge with proof.
    let (served, _) = c.dyn_challenge("d", 2).unwrap();
    let (segment, proof) = served.expect("segment present");
    let proven = ProvenSegment { segment, proof };
    assert!(verify_challenge(&d0, "d", 2, &proven, &keys));
    // Unknown file/index come back clean.
    assert!(c.dyn_challenge("ghost", 0).unwrap().0.is_none());
    assert!(c.dyn_challenge("d", 6).unwrap().0.is_none());

    // Update over the wire: the server lands exactly on the owner's
    // independently derived digest.
    let (new_tagged, expected) = owner.tag_update(2, b"fresh", &keys).unwrap();
    let new_tagged = Bytes::from(new_tagged);
    mirror.apply_update(2, new_tagged.clone()).unwrap();
    let ack = c.update("d", 2, new_tagged, [0u8; 64]).unwrap();
    assert_eq!(ack, Some(expected));
    // Append likewise.
    let (appended, expected) = owner.tag_append(b"seventh", &keys);
    let appended = Bytes::from(appended);
    mirror.apply_append(appended.clone());
    let ack = c.append("d", appended, [0u8; 64]).unwrap();
    assert_eq!(ack, Some(expected));
    assert_eq!(mirror.digest(), expected);
    assert_eq!(expected.segments, 7);
    // The new segment serves and verifies under the new digest.
    let (served, _) = c.dyn_challenge("d", 6).unwrap();
    let (segment, proof) = served.expect("appended segment");
    let proven = ProvenSegment { segment, proof };
    assert!(verify_challenge(&expected, "d", 6, &proven, &keys));
    // Updates against unknown files ack None.
    assert!(c
        .update("ghost", 0, Bytes::new(), [0u8; 64])
        .unwrap()
        .is_none());
    assert!(c
        .append("ghost", Bytes::new(), [0u8; 64])
        .unwrap()
        .is_none());
    c.bye().unwrap();
    // Every proof served after the mutations, as raw frames, is the
    // mirror's byte for byte.
    let probes: Vec<WireMessage> = (0..7u64)
        .map(|i| WireMessage::DynChallenge {
            file_id: "d".to_owned(),
            index: i,
        })
        .collect();
    let got = raw_replies(server.addr(), &probes);
    for (i, frame) in got.iter().enumerate() {
        let p = mirror.challenge(i as u64).unwrap();
        let want = WireMessage::DynResponse {
            segment: Some((p.segment, p.proof)),
        };
        assert_eq!(frame, &want.encode().to_vec(), "proof {i}");
    }
}

#[test]
fn owner_keyed_dynamic_files_refuse_forged_mutations_over_tcp() {
    use geoproof_crypto::chacha::ChaChaRng;
    use geoproof_crypto::schnorr::SigningKey;
    use geoproof_por::dynamic::{owner_authorization, tag_segment, DynamicOwner};
    use geoproof_por::keys::PorKeys;

    let keys = PorKeys::derive(b"mux-auth", "d");
    let tagged: Vec<Bytes> = (0..4u64)
        .map(|i| Bytes::from(tag_segment(&keys, "d", i, &[i as u8; 30])))
        .collect();
    let owner_key = SigningKey::generate(&mut ChaChaRng::from_u64_seed(77));
    let server = spawn(store_with(&[]), Duration::ZERO);
    let d0 = server.put_dynamic_with_owner("d", tagged.clone(), owner_key.verifying_key());
    let mut owner = DynamicOwner::from_tagged("d", &tagged);

    let mut c = TcpChallenger::connect(server.addr()).unwrap();
    let (new_tagged, expected) = owner.tag_update(1, b"v2", &keys).unwrap();
    let new_tagged = Bytes::from(new_tagged);
    // Unsigned and mallory-signed mutations are refused; the store
    // is untouched.
    assert!(c
        .update("d", 1, new_tagged.clone(), [0u8; 64])
        .unwrap()
        .is_none());
    let mallory = SigningKey::generate(&mut ChaChaRng::from_u64_seed(78));
    let forged = mallory
        .sign(
            &owner_authorization("d", false, 1, &new_tagged),
            &mut ChaChaRng::from_u64_seed(79),
        )
        .to_bytes();
    assert!(c
        .update("d", 1, new_tagged.clone(), forged)
        .unwrap()
        .is_none());
    assert_eq!(server.dynamic().digest("d"), Some(d0));
    // The owner's genuine signature lands on the expected digest.
    let good = owner_key
        .sign(
            &owner_authorization("d", false, 1, &new_tagged),
            &mut ChaChaRng::from_u64_seed(80),
        )
        .to_bytes();
    let ack = c.update("d", 1, new_tagged, good).unwrap();
    assert_eq!(ack, Some(expected));
    c.bye().unwrap();
}

/// What one seeded audit saw: the challenged indices and the segment
/// bytes served for them.
type AuditShadow = (Vec<u64>, Vec<Vec<u8>>);

#[test]
fn concurrent_seeded_audits_are_served_the_stored_bytes() {
    use geoproof_crypto::chacha::ChaChaRng;
    use geoproof_por::encode::PorEncoder;
    use geoproof_por::keys::PorKeys;
    use geoproof_por::params::PorParams;

    const N_AUDITS: u64 = 8;
    const K: usize = 6;
    let params = PorParams::test_small();
    let keys = PorKeys::derive(b"shell-matrix-master", "df");
    let data: Vec<u8> = (0..16_000u32).map(|i| (i * 31) as u8).collect();
    let tagged = PorEncoder::new(params).encode_arena(&data, &keys, "df");
    let n = tagged.metadata().segments;
    let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
    store.lock().insert("df".to_owned(), tagged.segments());

    let server = spawn(store, Duration::ZERO);
    // Concurrent audits, each with its own connection and seed.
    let audits: Vec<_> = (0..N_AUDITS)
        .map(|seed| {
            let addr = server.addr();
            std::thread::spawn(move || -> AuditShadow {
                let indices = ChaChaRng::from_u64_seed(seed * 7 + 1).sample_distinct(n, K);
                let mut c = TcpChallenger::connect(addr).unwrap();
                let segments = indices
                    .iter()
                    .map(|&i| c.challenge("df", i).unwrap().0.expect("hit").to_vec())
                    .collect();
                c.bye().unwrap();
                (indices, segments)
            })
        })
        .collect();
    let shadows: Vec<AuditShadow> = audits.into_iter().map(|h| h.join().unwrap()).collect();
    // Every served segment is the encoded arena's, byte for byte.
    let stored = tagged.segments();
    for (seed, (indices, segments)) in shadows.iter().enumerate() {
        for (&i, seg) in indices.iter().zip(segments) {
            assert_eq!(
                seg[..],
                stored[i as usize][..],
                "seed {seed} segment {i} differs from the store"
            );
        }
    }
}
