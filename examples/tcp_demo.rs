//! Real-network GeoProof: the timed challenge–response phase over an
//! actual TCP socket with wall-clock timing — no simulator.
//!
//! Two local prover servers are spawned: a "local" one answering
//! immediately and a "relay" one whose artificial service delay stands in
//! for a WAN hop plus remote look-up. The verifier times genuine RTTs and
//! an auditor-style threshold separates them.
//!
//! ```sh
//! cargo run --example tcp_demo
//! ```

use geoproof::por::encode::PorEncoder;
use geoproof::por::keys::PorKeys;
use geoproof::por::params::PorParams;
use geoproof::wire::tcp::{SegmentStore, TcpChallenger};
use geoproof::wire::MuxProverServer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn main() -> std::io::Result<()> {
    // Encode a real file with the real POR pipeline.
    let encoder = PorEncoder::new(PorParams::test_small());
    let keys = PorKeys::derive(b"tcp-demo-master", "demo-file");
    let data: Vec<u8> = (0..20_000u32).map(|i| (i * 31) as u8).collect();
    let tagged = encoder.encode_arena(&data, &keys, "demo-file");
    println!(
        "encoded {} bytes → {} segments of {} bytes\n",
        data.len(),
        tagged.segment_count(),
        tagged.stride()
    );

    // Both provers serve zero-copy views of the same encoded arena.
    let make_store = || -> SegmentStore {
        let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
        store
            .lock()
            .insert("demo-file".to_owned(), tagged.segments());
        store
    };

    // "Local" prover: no added delay. "Relay": +25 ms service time, the
    // WAN + remote-lookup cost of a ~1000 km relay.
    let local = MuxProverServer::spawn(make_store(), Duration::ZERO)?;
    let relay = MuxProverServer::spawn(make_store(), Duration::from_millis(25))?;

    let budget = Duration::from_millis(16); // the paper's Δt_max
    for (label, addr) in [
        ("local prover", local.addr()),
        ("relay prover", relay.addr()),
    ] {
        let mut challenger = TcpChallenger::connect(addr)?;
        let mut max_rtt = Duration::ZERO;
        let mut verified = 0;
        let k = 10;
        for j in 0..k {
            let idx = (j * 7) % tagged.segment_count();
            let (segment, rtt) = challenger.challenge("demo-file", idx)?;
            max_rtt = max_rtt.max(rtt);
            let seg = segment.expect("segment present");
            if encoder.verify_segment(keys.mac_key(), "demo-file", idx, &seg) {
                verified += 1;
            }
        }
        challenger.bye()?;
        println!(
            "{label:>12}: {verified}/{k} tags verified, max RTT {:.3} ms → {}",
            max_rtt.as_secs_f64() * 1e3,
            if max_rtt <= budget {
                "within Δt_max: ACCEPT"
            } else {
                "over Δt_max: REJECT (data is not where it should be)"
            }
        );
    }
    println!("\n(wall-clock timing; localhost RTTs are µs-scale, so the 25 ms relay");
    println!(" stand-in dominates exactly as a real WAN hop would)");
    Ok(())
}
