//! The disabled-path allocation pin (its own integration binary so no
//! sibling test can flip the global enable flag): with recording off —
//! the default — counter increments, histogram records, and span
//! guards allocate **zero** bytes; and even with recording *on*, the
//! steady-state record paths stay allocation-free once handles exist.
//! Same counting-allocator harness as the ledger's `append_alloc` pin.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && new_size > layout.size() {
            ALLOCATED.fetch_add(new_size - layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocated_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.load(Ordering::Relaxed);
    f();
    ALLOCATED.load(Ordering::Relaxed) - before
}

// One sequential test: both phases toggle the process-global enable
// flag, so they must not run as parallel test threads.
#[test]
fn recording_allocates_zero_bytes_disabled_and_enabled() {
    // Phase 1 — disabled (the default). Resolve handles while
    // allocation is expected (registration allocates by design — once,
    // cold).
    let counter = geoproof_obs::counter("alloc_pin_total");
    let gauge = geoproof_obs::gauge("alloc_pin_depth");
    let hist = geoproof_obs::histogram("alloc_pin_us");

    assert!(!geoproof_obs::enabled(), "recording must default to off");
    let bytes = allocated_during(|| {
        for i in 0..10_000u64 {
            counter.inc();
            gauge.add(1);
            hist.record(i);
            let _span = geoproof_obs::span("alloc_pin");
        }
    });
    assert_eq!(bytes, 0, "disabled hot path allocated {bytes} bytes");
    assert_eq!(counter.get(), 0, "disabled counter must not move");
    assert_eq!(hist.count(), 0);

    // Phase 2 — enabled steady state.
    let counter = geoproof_obs::counter("alloc_warm_total");
    let hist = geoproof_obs::histogram("alloc_warm_us");
    geoproof_obs::set_enabled(true);
    // Warm up: first span interns its name and seeds the journal/clock
    // one-time cells — that is the documented cold cost.
    {
        let _warm = geoproof_obs::span("alloc_warm");
        hist.record(1);
        counter.inc();
    }
    let bytes = allocated_during(|| {
        for i in 0..10_000u64 {
            counter.inc();
            hist.record(i % 1_000_000);
            let _span = geoproof_obs::span("alloc_warm");
        }
    });
    geoproof_obs::set_enabled(false);
    assert_eq!(bytes, 0, "enabled steady-state allocated {bytes} bytes");
    assert_eq!(counter.get(), 10_001);
    assert_eq!(hist.count(), 10_001);
}
