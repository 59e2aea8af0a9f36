//! Concurrency pins: counter conservation under a many-thread hammer
//! (every increment lands exactly once), histogram bucket/count/sum
//! conservation, and span-journal drains that stay consistent while
//! writers keep appending.

use geoproof_obs::{journal, span, Registry, SpanKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 50_000;

#[test]
fn counters_conserve_every_increment() {
    geoproof_obs::set_enabled(true);
    let r = Arc::new(Registry::new());
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let r = r.clone();
        handles.push(std::thread::spawn(move || {
            // Half the threads resolve the handle once (the documented
            // hot-path idiom); the rest re-look it up every time to
            // hammer the registry's read path too.
            if t % 2 == 0 {
                let c = r.counter("hammer_total");
                for _ in 0..OPS_PER_THREAD {
                    c.inc();
                }
            } else {
                for _ in 0..OPS_PER_THREAD {
                    r.counter("hammer_total").inc();
                }
            }
            r.gauge("hammer_depth").add(1);
        }));
    }
    for h in handles {
        h.join().expect("hammer thread");
    }
    let snap = r.snapshot();
    assert_eq!(
        snap.counter("hammer_total"),
        Some(THREADS as u64 * OPS_PER_THREAD),
        "increments lost or duplicated"
    );
    assert_eq!(snap.gauge("hammer_depth"), Some(THREADS as i64));
}

#[test]
fn histograms_conserve_under_concurrent_recording() {
    geoproof_obs::set_enabled(true);
    let r = Arc::new(Registry::new());
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let r = r.clone();
        handles.push(std::thread::spawn(move || {
            let h = r.histogram("hammer_us");
            let mut local_sum = 0u64;
            let mut x = (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for _ in 0..OPS_PER_THREAD {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = x % 1_000_000;
                h.record(v);
                local_sum = local_sum.wrapping_add(v);
            }
            local_sum
        }));
    }
    let expected_sum: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("hammer thread"))
        .fold(0u64, u64::wrapping_add);
    let frozen = r.snapshot();
    let h = frozen.histogram("hammer_us").expect("registered");
    let expected_count = THREADS as u64 * OPS_PER_THREAD;
    let bucket_total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
    assert_eq!(bucket_total, expected_count, "bucket counts leak");
    assert_eq!(h.count, expected_count);
    assert_eq!(h.sum, expected_sum, "sum drifted under concurrency");
    // Quantiles stay inside the recorded range.
    assert!(h.quantile(0.5) < 1_000_000 + 1_000_000 / 16);
}

#[test]
fn span_journal_drains_while_writers_append() {
    geoproof_obs::set_enabled(true);
    const WRITERS: usize = 4;
    let stop = Arc::new(AtomicBool::new(false));
    // Every writer publishes one span pair before the drains start;
    // without this the 50 drains can finish before any writer thread is
    // first scheduled, and `written` stays 0.
    let published = Arc::new(Barrier::new(WRITERS + 1));
    let mut writers = Vec::new();
    for _ in 0..WRITERS {
        let stop = stop.clone();
        let published = published.clone();
        writers.push(std::thread::spawn(move || {
            {
                let _outer = span("hammer_outer");
                let _inner = span("hammer_inner");
            }
            let mut spans = 2u64;
            published.wait();
            while !stop.load(Ordering::Relaxed) {
                let _outer = span("hammer_outer");
                let _inner = span("hammer_inner");
                spans += 2;
            }
            spans
        }));
    }
    // Drain concurrently: every drained batch must be internally
    // consistent — ordinals ascend, kinds parse, names resolve, and
    // inner spans point at a live parent in the same batch or earlier.
    published.wait();
    for _ in 0..50 {
        let events = journal().drain();
        assert!(events.len() <= journal().capacity());
        for w in events.windows(2) {
            assert!(w[0].ordinal < w[1].ordinal, "ordinals must ascend");
        }
        for e in &events {
            assert!(e.id != 0, "published event with unset id");
            assert!(
                e.name == "hammer_outer" || e.name == "hammer_inner" || e.name == "?",
                "unexpected name {:?}",
                e.name
            );
            if e.kind == SpanKind::Enter && e.name == "hammer_inner" {
                assert!(e.parent != 0, "inner span lost its parent");
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    let written: u64 = writers.into_iter().map(|w| w.join().expect("writer")).sum();
    assert!(written > 0);
    // The journal saw (almost) every write: tickets are drawn per event;
    // drops only occur on a full-lap race, which this cadence can hit
    // but only rarely — the written counter itself is exact.
    assert!(journal().written() >= written);
}
