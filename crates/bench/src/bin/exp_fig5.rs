//! Experiment F5 — reproduces **Fig. 5**: one full GeoProof protocol run,
//! message by message. Prints the TPA's trigger (ñ, k, N), each timed
//! round (c_j, |S_cj|, Δt_j), the signed transcript summary
//! (Δt*, c, {S_cj}, N, Pos_v, Sign_SK) and the TPA's four verification
//! steps with their outcomes.

use geoproof_bench::{banner, fmt_f64, Table};
use geoproof_core::deployment::DeploymentBuilder;
use geoproof_core::messages::Transcript;
use geoproof_geo::coords::places::BRISBANE;

fn main() {
    banner("F5", "GeoProof protocol transcript (paper Fig. 5)");
    let mut d = DeploymentBuilder::new(BRISBANE).seed(5).build();
    let k = 12;

    // TPA → V: (ñ, k, N)
    let req = d.auditor.issue_request(k);
    println!(
        "TPA → V : StartAudit {{ fid: {:?}, ñ: {}, k: {}, N: {:02x?}… }}\n",
        req.file_id,
        req.n_segments,
        req.k,
        &req.nonce[..4]
    );

    // V ↔ P: timed rounds.
    let transcript = d.verifier.run_audit(&req, d.provider.as_mut());
    let mut table = Table::new(&["j", "challenge c_j", "|S_cj ‖ τ_cj| (bytes)", "Δt_j (ms)"]);
    for (j, r) in transcript.rounds.iter().enumerate() {
        table.row_owned(vec![
            (j + 1).to_string(),
            r.index.to_string(),
            r.segment.len().to_string(),
            fmt_f64(r.rtt.as_millis_f64(), 3),
        ]);
    }
    table.print();

    println!("\nV → TPA : Sign_SK(Δt*, c, {{S_cj}}, N, Pos_v)");
    println!("  Pos_v     = {}", transcript.position);
    println!(
        "  Δt' (max) = {} ms",
        fmt_f64(transcript.max_rtt().as_millis_f64(), 3)
    );
    println!("  signature = {:?}\n", transcript.signature);

    // TPA verification steps (paper §V-B(b)).
    let report = d.auditor.verify(&req, &transcript);
    println!("TPA verification:");
    println!(
        "  1. verify Sign_SK(R)            : {}",
        step(
            !report
                .violations
                .iter()
                .any(|v| matches!(v, geoproof_core::auditor::Violation::BadSignature))
        )
    );
    println!(
        "  2. verify Pos_v vs SLA location : {}",
        step(
            !report
                .violations
                .iter()
                .any(|v| matches!(v, geoproof_core::auditor::Violation::WrongLocation { .. }))
        )
    );
    println!(
        "  3. τ_cj = MAC_K'(S_cj, c_j, fid): {} ({}/{} segments)",
        step(report.segments_ok == k as usize),
        report.segments_ok,
        k
    );
    println!(
        "  4. Δt' ≤ Δt_max (16 ms)         : {}",
        step(
            !report
                .violations
                .iter()
                .any(|v| matches!(v, geoproof_core::auditor::Violation::TooSlow { .. }))
        )
    );
    println!(
        "\naudit verdict: {}",
        if report.accepted() {
            "ACCEPT"
        } else {
            "REJECT"
        }
    );
}

fn step(ok: bool) -> &'static str {
    if ok {
        "pass"
    } else {
        "FAIL"
    }
}
