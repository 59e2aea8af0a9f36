//! The reactor execution model must behave exactly like the threaded
//! one: same answers, same session accounting, same shutdown
//! guarantees. These tests mirror the threaded suites in
//! `src/tcp.rs`/`src/mux.rs` against [`MuxProverServer::spawn_reactor`],
//! plus reactor-only properties (slow-loris immunity, write-backlog
//! cutoff).

use bytes::Bytes;
use geoproof_wire::codec::{read_frame, write_frame, WireMessage};
use geoproof_wire::tcp::SegmentStore;
use geoproof_wire::{MuxProverServer, TcpChallenger, MAX_SESSIONS_PER_CONNECTION};
use parking_lot::Mutex;
use std::collections::HashMap;
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

/// The whole suite is a no-op on targets without the epoll backend.
fn unsupported(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::Unsupported
}

#[test]
fn reactor_serves_segments_over_tcp() {
    let server = match MuxProverServer::spawn_reactor(store_with(&[("f", 10)]), Duration::ZERO) {
        Ok(s) => s,
        Err(e) if unsupported(&e) => return,
        Err(e) => panic!("spawn_reactor: {e}"),
    };
    let mut client = TcpChallenger::connect(server.addr()).expect("connect");
    for idx in [0u64, 5, 9] {
        let (seg, rtt) = client.challenge("f", idx).expect("challenge");
        assert_eq!(seg.unwrap(), vec![idx as u8; 83]);
        assert!(rtt < Duration::from_secs(1));
    }
    // Unknown file/index answered with None, like the threaded path.
    assert!(client.challenge("f", 99).unwrap().0.is_none());
    assert!(client.challenge("ghost", 0).unwrap().0.is_none());
    client.bye().unwrap();
}

#[test]
fn reactor_service_delay_runs_on_timers_and_shows_in_rtt() {
    let fast = match MuxProverServer::spawn_reactor(store_with(&[("f", 3)]), Duration::ZERO) {
        Ok(s) => s,
        Err(e) if unsupported(&e) => return,
        Err(e) => panic!("{e}"),
    };
    let slow =
        MuxProverServer::spawn_reactor(store_with(&[("f", 3)]), Duration::from_millis(30)).unwrap();
    let mut cf = TcpChallenger::connect(fast.addr()).unwrap();
    let mut cs = TcpChallenger::connect(slow.addr()).unwrap();
    let (_, rf) = cf.challenge("f", 0).unwrap();
    let (_, rs) = cs.challenge("f", 0).unwrap();
    assert!(
        rs >= rf + Duration::from_millis(20),
        "fast {rf:?}, slow {rs:?}"
    );
}

#[test]
fn reactor_mux_multiplexes_sessions_across_connections_and_files() {
    let server =
        match MuxProverServer::spawn_reactor(store_with(&[("a", 8), ("b", 8)]), Duration::ZERO) {
            Ok(s) => s,
            Err(e) if unsupported(&e) => return,
            Err(e) => panic!("{e}"),
        };
    let addr = server.addr();
    let clients: Vec<TcpChallenger> = (0..4)
        .map(|_| {
            let mut c = TcpChallenger::connect(addr).unwrap();
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
    assert_eq!(stats.sessions, 8);
    assert_eq!(stats.challenges, 32);
    let per_session = server.sessions();
    assert_eq!(per_session.len(), 8);
    assert!(per_session.iter().all(|(_, s)| s.challenges == 4));
    assert!(per_session.iter().all(|(_, s)| s.hits == 4));
    drop(clients);
    // Closed connections release their per-session state, totals stay.
    for _ in 0..200 {
        if server.sessions().is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.sessions().is_empty());
    assert_eq!(server.stats().challenges, 32);
    assert_eq!(server.stats().sessions, 8);
}

#[test]
fn reactor_mux_stats_stay_monotone_across_reconnects() {
    let server = match MuxProverServer::spawn_reactor(store_with(&[("f", 4)]), Duration::ZERO) {
        Ok(s) => s,
        Err(e) if unsupported(&e) => return,
        Err(e) => panic!("{e}"),
    };
    let addr = server.addr();
    for round in 0..3u64 {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        write_frame(
            &mut raw,
            &WireMessage::StartAudit {
                file_id: "f".to_owned(),
                n_segments: 4,
                k: 3,
                nonce: [0u8; 32],
            },
        )
        .unwrap();
        for i in 0..3u64 {
            write_frame(
                &mut raw,
                &WireMessage::Challenge {
                    file_id: "f".to_owned(),
                    index: i,
                },
            )
            .unwrap();
            let reply = read_frame(&mut raw).unwrap();
            assert!(matches!(reply, WireMessage::Response { segment: Some(_) }));
        }
        write_frame(&mut raw, &WireMessage::Bye).unwrap();
        drop(raw);
        for _ in 0..200 {
            if server.stats().sessions_complete == round + 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let stats = server.stats();
        assert_eq!(stats.hits, (round + 1) * 3, "hits lost at connection close");
        assert_eq!(stats.sessions_complete, round + 1);
        assert_eq!(stats.sessions_incomplete, 0);
    }
}

#[test]
fn reactor_mux_refuses_phantom_sessions_and_caps_per_connection() {
    // Hostile-input behaviour must match the threaded path: unknown
    // files are answered but never open sessions, and one connection
    // cannot hold more than MAX_SESSIONS_PER_CONNECTION.
    let files: Vec<String> = (0..MAX_SESSIONS_PER_CONNECTION + 8)
        .map(|i| format!("file-{i:03}"))
        .collect();
    let named: Vec<(&str, usize)> = files.iter().map(|f| (f.as_str(), 1)).collect();
    let server = match MuxProverServer::spawn_reactor(store_with(&named), Duration::ZERO) {
        Ok(s) => s,
        Err(e) if unsupported(&e) => return,
        Err(e) => panic!("{e}"),
    };
    let mut c = TcpChallenger::connect(server.addr()).unwrap();
    for i in 0..50u64 {
        let (seg, _) = c.challenge(&format!("phantom-{i}"), 0).unwrap();
        assert!(seg.is_none());
    }
    assert_eq!(server.stats().sessions, 0, "phantom files opened sessions");
    for f in &files {
        let (seg, _) = c.challenge(f, 0).unwrap();
        assert!(seg.is_some(), "{f} must still be served past the cap");
    }
    assert_eq!(server.stats().sessions, MAX_SESSIONS_PER_CONNECTION);
    c.bye().unwrap();
}

#[test]
fn reactor_mux_serves_dynamic_flow() {
    use geoproof_por::dynamic::{tag_segment, verify_challenge, DynamicOwner, ProvenSegment};
    use geoproof_por::keys::PorKeys;

    let keys = PorKeys::derive(b"reactor-dyn", "d");
    let tagged: Vec<Bytes> = (0..6u64)
        .map(|i| Bytes::from(tag_segment(&keys, "d", i, &[i as u8; 30])))
        .collect();
    let server = match MuxProverServer::spawn_reactor(store_with(&[]), Duration::ZERO) {
        Ok(s) => s,
        Err(e) if unsupported(&e) => return,
        Err(e) => panic!("{e}"),
    };
    let d0 = server.put_dynamic("d", tagged.clone());
    let mut owner = DynamicOwner::from_tagged("d", &tagged);
    assert_eq!(owner.digest(), d0);

    let mut c = TcpChallenger::connect(server.addr()).unwrap();
    let (served, _) = c.dyn_challenge("d", 2).unwrap();
    let (segment, proof) = served.expect("segment present");
    let proven = ProvenSegment { segment, proof };
    assert!(verify_challenge(&d0, "d", 2, &proven, &keys));
    assert!(c.dyn_challenge("ghost", 0).unwrap().0.is_none());

    let (new_tagged, expected) = owner.tag_update(2, b"fresh", &keys).unwrap();
    let ack = c
        .update("d", 2, Bytes::from(new_tagged), [0u8; 64])
        .unwrap();
    assert_eq!(ack, Some(expected));
    let (appended, expected) = owner.tag_append(b"seventh", &keys);
    let ack = c.append("d", Bytes::from(appended), [0u8; 64]).unwrap();
    assert_eq!(ack, Some(expected));
    let (served, _) = c.dyn_challenge("d", 6).unwrap();
    let (segment, proof) = served.expect("appended segment");
    let proven = ProvenSegment { segment, proof };
    assert!(verify_challenge(&expected, "d", 6, &proven, &keys));
    c.bye().unwrap();
}

#[test]
fn reactor_shutdown_is_not_held_hostage_by_a_slow_loris_client() {
    // Port of the threaded slow-loris regression: a client dribbling
    // bytes that never complete a frame must not delay shutdown. On the
    // reactor path this is structural — the waker interrupts the poll
    // and the event loop drops every connection state machine — but the
    // guarantee still deserves a pin.
    let mut server = match MuxProverServer::spawn_reactor(store_with(&[("f", 4)]), Duration::ZERO) {
        Ok(s) => s,
        Err(e) if unsupported(&e) => return,
        Err(e) => panic!("{e}"),
    };
    let addr = server.addr();
    let dribbling = Arc::new(AtomicBool::new(true));
    let keep_going = dribbling.clone();
    let loris = std::thread::spawn(move || {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        // A frame header promising far more bytes than we ever send.
        let _ = raw.write_all(&1000u32.to_be_bytes());
        while keep_going.load(Ordering::Relaxed) {
            if raw.write_all(&[0u8]).is_err() {
                break;
            }
            let _ = raw.flush();
            std::thread::sleep(Duration::from_millis(20));
        }
    });
    std::thread::sleep(Duration::from_millis(100)); // let it dribble
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown hung on the dribbling connection"
    );
    dribbling.store(false, Ordering::Relaxed);
    loris.join().unwrap();
}

#[test]
fn reactor_shutdown_returns_promptly_with_idle_connections() {
    let mut server = match MuxProverServer::spawn_reactor(store_with(&[("f", 4)]), Duration::ZERO) {
        Ok(s) => s,
        Err(e) if unsupported(&e) => return,
        Err(e) => panic!("{e}"),
    };
    let addr = server.addr();
    let idle: Vec<_> = (0..32)
        .map(|_| TcpChallenger::connect(addr).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "reactor shutdown must not wait on idle connections"
    );
    drop(idle);
}

#[test]
fn reactor_cuts_off_a_client_that_never_reads_its_responses() {
    // A peer that pipelines challenges while never reading replies
    // grows the server-side write queue; past MAX_WRITE_BACKLOG (1 MiB)
    // the reactor drops the connection instead of buffering without
    // bound. The threaded path "handles" this by blocking the
    // connection's own thread — the reactor must not let one sink stall
    // or bloat the shared loop.
    let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
    store.lock().insert(
        "big".to_owned(),
        (0..4)
            .map(|_| Bytes::from(vec![0xabu8; 16 * 1024]))
            .collect(),
    );
    let server = match MuxProverServer::spawn_reactor(store.clone(), Duration::ZERO) {
        Ok(s) => s,
        Err(e) if unsupported(&e) => return,
        Err(e) => panic!("{e}"),
    };
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    raw.set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    // ~16 KiB per response; a few hundred unread responses blow the cap
    // even with generous kernel socket buffering.
    let challenge = WireMessage::Challenge {
        file_id: "big".to_owned(),
        index: 0,
    };
    let mut cut_off = false;
    for _ in 0..2000 {
        if write_frame(&mut raw, &challenge).is_err() {
            cut_off = true; // reset by the server mid-write
            break;
        }
    }
    if !cut_off {
        // Writes may all have landed in kernel buffers; the drop then
        // shows up as EOF/reset on read. Count what arrives: a server
        // that buffered everything would deliver all ~32 MiB of
        // responses, a capped one far less.
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut sink = [0u8; 65536];
        let mut received = 0usize;
        use std::io::Read;
        loop {
            match raw.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(n) => received += n,
            }
        }
        cut_off = received < 24 * 1024 * 1024;
    }
    assert!(cut_off, "server never cut off the non-reading client");
    // The loop itself survived: a well-behaved client is still served.
    let mut c = TcpChallenger::connect(server.addr()).unwrap();
    let (seg, _) = c.challenge("big", 1).unwrap();
    assert_eq!(seg.unwrap().len(), 16 * 1024);
    c.bye().unwrap();
}
