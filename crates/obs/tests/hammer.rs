//! Concurrency pins: counter conservation under a many-thread hammer
//! (every increment lands exactly once) and histogram bucket/count/sum
//! conservation.

use geoproof_obs::Registry;
use std::sync::Arc;

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
