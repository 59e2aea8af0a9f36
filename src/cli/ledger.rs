//! `ledger verify | inspect | rotate | compact | prove`: offline work
//! on the evidence ledger an `audit --ledger` wrote.

use super::args::Args;
use super::{fresh_seed_u64, hex, tpa_ledger_key, unhex32, CliResult};
use geoproof::core::auditor::AuditReport;
use geoproof::core::evidence::ReportDecodeError;
use geoproof::crypto::schnorr::VerifyingKey;
use geoproof::ledger::{discover, replay, Entry, Ledger, OwnerKeys, SegmentSource};
use geoproof::por::encode::PorEncoder;
use geoproof::por::keys::PorKeys;
use geoproof::por::params::PorParams;
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;

pub fn run(args: &[String]) -> CliResult {
    let Some(sub) = args.first() else {
        return Err("ledger: missing subcommand (verify|inspect|rotate|compact|prove)".into());
    };
    let rest = &args[1..];
    match sub.as_str() {
        "verify" => verify(rest),
        "inspect" => inspect(rest),
        "rotate" => rotate(rest),
        "compact" => compact(rest),
        "prove" => prove(rest),
        other => Err(format!("unknown ledger subcommand {other:?}")),
    }
}

fn verify(raw: &[String]) -> CliResult {
    let args = Args::parse(raw, "<path>", "--tpa-pub --master", "")?;
    let path = args.pos(0);
    let ledger = Ledger::read(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;

    // Trust root for the replay: an out-of-band key beats one derived
    // from --master, which beats trusting the file's embedded key.
    let master = args.str("--master");
    let (tpa_bytes, key_source) = match (args.str("--tpa-pub"), master) {
        (Some(hexkey), _) => (unhex32(hexkey)?, "--tpa-pub"),
        (None, Some(m)) => (
            tpa_ledger_key(m).verifying_key().to_bytes(),
            "derived from --master",
        ),
        (None, None) => (
            ledger.header().tpa_key,
            "embedded in file — pass --tpa-pub to pin an out-of-band key",
        ),
    };
    let tpa = VerifyingKey::from_bytes(&tpa_bytes).ok_or("TPA key is not a valid curve point")?;

    // With the owner's secret the recorded MAC bits are re-derived too,
    // each record under its own kind's scheme. One KDF per file id,
    // memoised.
    let encoder = PorEncoder::new(PorParams::paper());
    let owner = master.map(|master| {
        let mac_keys = RefCell::new(HashMap::new());
        OwnerKeys {
            encoder: &encoder,
            mac_key: Box::new(move |fid: &str| {
                let derive = || *PorKeys::derive(master.as_bytes(), fid).mac_key();
                *mac_keys
                    .borrow_mut()
                    .entry(fid.to_owned())
                    .or_insert_with(derive)
            }),
        }
    });

    // A rotated chain (any `<path>.seg-*` next to the live file) is
    // verified whole: every present file fully replayed, compacted
    // summaries checked from the TPA key, continuity and the forest
    // digest enforced across every segment boundary.
    let segments = discover(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    if !segments.is_empty() {
        let chain = geoproof::ledger::verify_chain(Path::new(path), &tpa, owner.as_ref())
            .map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: chain of {} sealed segments + live file — {} sealed records total, chain OK",
            chain.segments, chain.total_sealed
        );
        println!("tpa key : {} ({key_source})", hex(&tpa_bytes));
        println!(
            "forest  : {} (roll-up of every sealed segment's final checkpoint root)",
            hex(&chain.forest)
        );
        println!(
            "replay  : {} files fully replayed — {} ACCEPT, {} REJECT; {} compacted segments \
             verified at summary strength where the archive is gone",
            chain.replayed, chain.accepted, chain.rejected, chain.compacted
        );
        return Ok(());
    }

    let outcome = replay(&ledger, &tpa, owner.as_ref()).map_err(|e| format!("{path}: {e}"))?;

    println!(
        "{path}: {} records ({} evidence, {} dynamic, {} digest transitions, {} position \
         estimates, {} checkpoints), chain OK",
        outcome.records,
        outcome.evidence,
        outcome.dynamic,
        outcome.digests,
        outcome.positions,
        outcome.checkpoints
    );
    println!("tpa key : {} ({key_source})", hex(&tpa_bytes));
    println!(
        "head    : {} (compare out-of-band to rule out truncation)",
        hex(&outcome.head)
    );
    println!(
        "replay  : {} verdicts re-derived byte-identically — {} ACCEPT, {} REJECT{}",
        outcome.evidence + outcome.dynamic,
        outcome.accepted,
        outcome.rejected,
        if outcome.uncovered > 0 {
            format!(" ({} not yet checkpointed)", outcome.uncovered)
        } else {
            String::new()
        }
    );
    if outcome.digests > 0 {
        println!(
            "digests : {} transitions chained; every dynamic audit verified against the digest \
             current at its chain position",
            outcome.digests
        );
    }
    if outcome.positions > 0 {
        println!(
            "position: {} aggregate estimates re-derived byte-identically from their recorded \
             vantage ranges",
            outcome.positions
        );
    }
    if outcome.macs_checked > 0 {
        println!(
            "macs    : {} segment MACs re-derived from --master",
            outcome.macs_checked
        );
    } else {
        println!("macs    : recorded bits trusted (pass --master to re-derive)");
    }
    Ok(())
}

fn inspect(raw: &[String]) -> CliResult {
    let args = Args::parse(raw, "<path>", "", "")?;
    let path = args.pos(0);
    let ledger = Ledger::read(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: v{}, checkpoint interval {}, tpa key {}",
        ledger.header().version,
        ledger.header().interval,
        hex(&ledger.header().tpa_key)
    );
    // Sealed leaves are numbered in file order; checkpoints are not
    // leaves.
    let mut sealed = 0u64;
    for record in ledger.records() {
        let bad = |err: ReportDecodeError| format!("record {}: {err}", record.index);
        let line = match &record.entry {
            Entry::Checkpoint(c) => {
                println!(
                    "  [{:>4}] checkpoint: covers {} sealed records, root {}…",
                    record.index,
                    c.covered,
                    hex(&c.root[..8])
                );
                continue;
            }
            Entry::Evidence(e) => format!(
                "evidence #{sealed}: prover {:?} epoch {} file {:?} k={} {}",
                e.prover,
                e.epoch,
                e.request.file_id,
                e.request.k,
                judged(&e.report().map_err(bad)?)
            ),
            Entry::DynEvidence(e) => format!(
                "dynamic evidence #{sealed}: prover {:?} epoch {} file {:?} k={} digest {}…/{} {}",
                e.prover,
                e.epoch,
                e.request.file_id,
                e.request.k,
                hex(&e.request.digest.root[..4]),
                e.request.digest.segments,
                judged(&e.report().map_err(bad)?)
            ),
            Entry::Digest(d) => format!(
                "digest #{sealed}: {:?} {:?} index {} — {}…/{} → {}…/{}",
                d.op,
                d.file_id,
                d.index,
                hex(&d.prev.root[..4]),
                d.prev.segments,
                hex(&d.new.root[..4]),
                d.new.segments,
            ),
            Entry::Position(p) => {
                let what = match &p.estimate {
                    Some(e) => format!(
                        "estimate ({:+.3}, {:+.3}), {:.1} km from SLA, rms {:.1} km, {}/{} \
                         inliers → {}",
                        e.position.lat,
                        e.position.lon,
                        e.discrepancy.0,
                        e.rms_inlier_residual.0,
                        e.inliers.iter().filter(|&&i| i).count(),
                        p.vantages.len(),
                        if e.consistent {
                            "CONSISTENT"
                        } else {
                            "INCONSISTENT"
                        }
                    ),
                    None => "no estimate (degenerate geometry)".to_owned(),
                };
                format!(
                    "position #{sealed}: prover {:?} first epoch {} — {} vantages, {what}",
                    p.prover,
                    p.first_epoch,
                    p.vantages.len(),
                )
            }
        };
        println!("  [{:>4}] {line}", record.index);
        sealed += 1;
    }
    println!("head: {}", hex(&ledger.head()));
    Ok(())
}

/// A recorded verdict as `inspect` lists it.
fn judged(report: &AuditReport) -> String {
    let ms = report.max_rtt.as_millis_f64();
    if report.accepted() {
        return format!("max Δt' {ms:.3} ms → ACCEPT");
    }
    let violations = report.violations.len();
    format!("max Δt' {ms:.3} ms → REJECT ({violations} violations)")
}

fn rotate(raw: &[String]) -> CliResult {
    let args = Args::parse(raw, "<path>", "--master", "")?;
    let path = args.pos(0);
    let master = args
        .str("--master")
        .ok_or("--master required (rotation seals the segment under a TPA-signed checkpoint)")?;
    let tpa = tpa_ledger_key(master);
    let outcome = geoproof::ledger::rotate(Path::new(path), &tpa, fresh_seed_u64("ledger-rotate"))
        .map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: segment {} sealed ({} records) → {}; live file continues as segment {}",
        outcome.segment,
        outcome.sealed_leaves,
        outcome.sealed_segment.display(),
        outcome.next_segment
    );
    Ok(())
}

fn compact(raw: &[String]) -> CliResult {
    let args = Args::parse(raw, "<path>", "", "")?;
    let path = args.pos(0);
    let sources = discover(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let mut done = 0usize;
    for source in sources {
        let SegmentSource::Full(seg) = source else {
            continue;
        };
        let outcome =
            geoproof::ledger::compact(&seg).map_err(|e| format!("{}: {e}", seg.display()))?;
        println!(
            "{}: {} sealed leaves → summary {} (bodies archived as {})",
            seg.display(),
            outcome.leaves,
            outcome.summary.display(),
            outcome.archive.display()
        );
        done += 1;
    }
    if done == 0 {
        println!("{path}: no uncompacted sealed segments (run `ledger rotate` first)");
    }
    Ok(())
}

fn prove(raw: &[String]) -> CliResult {
    let args = Args::parse(raw, "<path>", "--round --out", "")?;
    let path = args.pos(0);
    let round: u64 = args.need("--round")?;
    let ledger = Ledger::read(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    // `--round` is the global sealed ordinal: rotated and compacted
    // segments are searched too (a compacted segment needs its archive
    // for the record body).
    let proof = geoproof::ledger::prove_global(Path::new(path), round)
        .map_err(|e| format!("{path}: {e}"))?;

    // Self-check against the embedded key before handing the proof out.
    let tpa = VerifyingKey::from_bytes(&ledger.header().tpa_key)
        .ok_or("ledger's embedded TPA key is not a valid curve point")?;
    let verified = proof
        .verify(&tpa)
        .map_err(|e| format!("freshly built proof failed self-check: {e}"))?;

    let out = args.get("--out", format!("{path}.round-{round}.proof"))?;
    let encoded = proof.encode();
    std::fs::write(&out, &encoded).map_err(|e| format!("write {out}: {e}"))?;
    let what = match &verified.entry {
        Entry::Evidence(e) => {
            format!("audit evidence (prover {:?}, epoch {})", e.prover, e.epoch)
        }
        Entry::DynEvidence(e) => format!(
            "dynamic audit evidence (prover {:?}, epoch {})",
            e.prover, e.epoch
        ),
        Entry::Digest(d) => format!(
            "digest transition ({:?} of {:?} → {} segments)",
            d.op, d.file_id, d.new.segments
        ),
        Entry::Position(p) => format!(
            "position estimate (prover {:?}, {} vantages)",
            p.prover,
            p.vantages.len()
        ),
        Entry::Checkpoint(_) => unreachable!("checkpoints are not leaves"),
    };
    println!(
        "proof of record #{round} — {what}: {} bytes, {} Merkle siblings, \
         checkpoint covers {} → {out}",
        encoded.len(),
        proof.siblings.len(),
        proof.covered
    );
    println!("verifies against TPA key {}", hex(&ledger.header().tpa_key));
    Ok(())
}
