//! Real-network GeoProof: a full audit over an actual TCP socket with
//! wall-clock timing — no simulator.
//!
//! Two local prover servers are spawned: a "local" one answering
//! immediately and a "relay" one whose artificial service delay stands in
//! for a WAN hop plus remote look-up. Each is audited on the product
//! path — the TPA issues a request, the wall-clock verifier device runs
//! the k timed rounds and signs, the TPA verifies — and the real report
//! is printed. Exits non-zero unless the relay is rejected on timing and
//! the local prover has no non-timing violation.
//!
//! ```sh
//! cargo run --example tcp_demo
//! ```

use geoproof::crypto::schnorr::SigningKey;
use geoproof::geo::gps::GpsReceiver;
use geoproof::prelude::*;
use geoproof::tcp_audit::WallClockVerifier;
use geoproof::wire::tcp::SegmentStore;
use geoproof::wire::MuxProverServer;
use std::time::Duration;

fn main() -> std::io::Result<()> {
    // Encode a real file with the real POR pipeline.
    let params = PorParams::test_small();
    let keys = PorKeys::derive(b"tcp-demo-master", "demo-file");
    let data: Vec<u8> = (0..20_000u32).map(|i| (i * 31) as u8).collect();
    let tagged = PorEncoder::new(params).encode_arena(&data, &keys, "demo-file");
    println!(
        "encoded {} bytes → {} segments of {} bytes\n",
        data.len(),
        tagged.segment_count(),
        tagged.stride()
    );

    // "Local" prover: no added delay. "Relay": +25 ms service time, the
    // WAN + remote-lookup cost of a ~1000 km relay. Both serve zero-copy
    // views of the same encoded arena.
    let local = MuxProverServer::spawn_reactor(SegmentStore::default(), Duration::ZERO)?;
    let relay = MuxProverServer::spawn_reactor(SegmentStore::default(), Duration::from_millis(25))?;
    for server in [&local, &relay] {
        server.put_shared("demo-file", tagged.segments());
    }

    let device_key = SigningKey::generate(&mut ChaChaRng::from_u64_seed(1));
    let mut verifier = WallClockVerifier::new(device_key, GpsReceiver::new(BRISBANE), 2);
    let mut auditor = Auditor::new(
        "demo-file".into(),
        tagged.segment_count(),
        PorEncoder::new(params),
        keys.auditor_view(),
        verifier.verifying_key(),
        BRISBANE,
        Km(25.0),
        TimingPolicy::paper(),
        3,
    );

    let mut as_expected = true;
    for (label, addr, relayed) in [
        ("local prover", local.addr(), false),
        ("relay prover", relay.addr(), true),
    ] {
        let request = auditor.issue_request(10);
        let transcript = verifier.run_audit(&request, addr)?;
        let report = auditor.verify(&request, &transcript);
        let verdict = if report.accepted() {
            "ACCEPT"
        } else {
            "REJECT"
        };
        println!(
            "{label:>12}: {verdict}, {}/{} segments verified, max Δt' {:.3} ms",
            report.segments_ok,
            request.k,
            report.max_rtt.as_millis_f64()
        );
        for v in &report.violations {
            println!("{:>14}violation: {v}", "");
        }
        let timing_only = |v: &Violation| matches!(v, Violation::TooSlow { .. });
        as_expected &= report.violations.iter().all(timing_only) && !(relayed && report.accepted());
    }
    println!("\n(wall-clock timing; localhost RTTs are µs-scale, so the 25 ms relay");
    println!(" stand-in dominates exactly as a real WAN hop would)");
    if as_expected {
        Ok(())
    } else {
        Err(std::io::Error::other(
            "expected the relay rejected on timing and the local prover free of other violations",
        ))
    }
}
