//! The reactor's reason to exist: connection counts far beyond
//! thread-per-connection reach, held in O(connections) memory with no
//! per-connection threads.
//!
//! This test lives in its own integration-test binary (own process) on
//! purpose: it spends nearly the whole file-descriptor budget — each
//! idle connection costs two fds here, client end and server end — and
//! must not starve unrelated tests sharing a process.

use bytes::Bytes;
use geoproof_wire::tcp::SegmentStore;
use geoproof_wire::{MuxProverServer, TcpChallenger};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Threads currently in this process (Linux `/proc`; the reactor is
/// Linux-only anyway).
fn thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn ten_thousand_idle_connections_no_threads() {
    let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
    store
        .lock()
        .insert("f".to_owned(), vec![Bytes::from(vec![7u8; 83]); 4]);
    let server = MuxProverServer::spawn_reactor(store, Duration::ZERO).expect("spawn_reactor");
    let addr = server.addr();

    // Both connection ends live in this process: budget 2 fds per
    // connection out of the (raised) descriptor limit, with headroom
    // for the runtime's own fds.
    let limit = geoproof_wire::raise_nofile_limit().unwrap_or(1024);
    let target = (10_000u64).min(limit.saturating_sub(400) / 2) as usize;
    assert!(
        target >= 2_000,
        "fd limit {limit} too low to say anything meaningful"
    );

    let threads_before = thread_count();
    let mut idle = Vec::with_capacity(target);
    for i in 0..target {
        match TcpStream::connect(addr) {
            Ok(s) => idle.push(s),
            Err(e) => panic!("connect #{i} failed: {e}"),
        }
        // Pace the flood against the accept loop: outrunning it
        // overflows the listen backlog, and the kernel's SYN
        // retransmit backoff (seconds) then dominates the test.
        if i % 128 == 127 {
            for _ in 0..1000 {
                if server.stats().connections + 64 > i as u64 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    // Let the accept loop drain the backlog fully.
    for _ in 0..500 {
        if server.stats().connections >= target as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        server.stats().connections,
        target as u64,
        "reactor did not accept the whole flood"
    );

    // No per-connection threads: the thread count is what it was before
    // the flood (give or take test-harness noise), not O(connections).
    if let (Some(before), Some(after)) = (threads_before, thread_count()) {
        assert!(
            after <= before + 4,
            "thread count grew {before} -> {after} under {target} idle connections"
        );
    }

    // The loop still serves actual work promptly while holding them.
    let mut c = TcpChallenger::connect(addr).unwrap();
    let (seg, rtt) = c.challenge("f", 0).unwrap();
    assert_eq!(seg.unwrap(), vec![7u8; 83]);
    assert!(
        rtt < Duration::from_secs(2),
        "active audit starved by idle flood: {rtt:?}"
    );
    c.bye().unwrap();

    // And the idle sockets are really wired into the event loop, not
    // parked in a backlog: a sample of them can run a challenge.
    use std::io::Write;
    for s in idle.iter_mut().step_by(target / 16) {
        let frame = geoproof_wire::codec::WireMessage::Challenge {
            file_id: "f".to_owned(),
            index: 1,
        }
        .encode();
        s.write_all(&frame).unwrap();
        let reply = geoproof_wire::read_frame(s).unwrap();
        assert!(matches!(
            reply,
            geoproof_wire::WireMessage::Response { segment: Some(_) }
        ));
    }
    drop(idle);
}
