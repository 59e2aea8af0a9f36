//! Crash and tamper properties of the ledger file format:
//!
//! * truncating the file at **every** byte boundary inside the tail
//!   record is recovered cleanly on writer open (truncation back to the
//!   last complete record, appending resumes, replay stays green);
//! * flipping **any single byte** of a sealed ledger makes strict
//!   reading or replay fail with an error — never a panic, never a
//!   silent pass — and strict reading names exactly the error (variant
//!   and record index or offset) the sequential chain walk reaches
//!   first, including in the later 1024-record ranges of a long ledger
//!   and when a bad record precedes a torn tail.

use bytes::Bytes;
use geoproof_core::deployment::{DeploymentBuilder, ProviderBehaviour};
use geoproof_crypto::chacha::ChaChaRng;
use geoproof_crypto::schnorr::SigningKey;
use geoproof_geo::coords::places::BRISBANE;
use geoproof_ledger::{
    genesis_hash, replay, seal_hash, DigestOp, DigestRecord, EvidenceRecord, Ledger, LedgerError,
    LedgerSink, LedgerWriter, Recovery, NO_DIGEST,
};
use geoproof_por::dynamic::DynamicDigest;
use geoproof_sim::time::SimDuration;
use geoproof_storage::hdd::WD_2500JD;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gp-ledger-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir.join(format!(
        "{tag}-{}.log",
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn tpa(seed: u64) -> SigningKey {
    SigningKey::generate(&mut ChaChaRng::from_u64_seed(seed))
}

/// Builds a small sealed ledger via real audits: `months` honest audits
/// plus one slow (rejected) audit, finished with a checkpoint. Returns
/// the file path and its bytes.
fn build_ledger(tag: &str, months: usize, interval: u32, seed: u64) -> (PathBuf, Vec<u8>) {
    let path = tmp(tag);
    let tpa = tpa(seed);
    let sink = Arc::new(LedgerSink::create(&path, &tpa, interval, seed).expect("create"));
    let mut honest = DeploymentBuilder::new(BRISBANE)
        .seed(seed)
        .evidence_sink(sink.clone())
        .build();
    for _ in 0..months {
        honest.run_audit(4);
    }
    let mut slow = DeploymentBuilder::new(BRISBANE)
        .behaviour(ProviderBehaviour::Slow {
            disk: WD_2500JD,
            extra: SimDuration::from_millis(10),
        })
        .seed(seed + 1)
        .prover_label("slow-provider")
        .evidence_sink(sink.clone())
        .build();
    slow.run_audit(4);
    sink.finish().expect("finish");
    let bytes = std::fs::read(&path).expect("read back");
    (path, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Crash simulation: for every byte boundary inside the tail record
    /// (from "only the first length byte landed" to "all but the last
    /// seal byte landed"), opening the writer truncates back to the last
    /// complete boundary, reports the dropped bytes, and the ledger both
    /// replays and accepts further appends.
    #[test]
    fn torn_tail_recovers_at_every_byte_boundary(
        months in 1usize..4,
        interval in 0u32..3,
        seed in 1u64..1000,
    ) {
        let tpa_key = tpa(seed);
        let (path, full) = build_ledger("torn", months, interval, seed);

        // Locate the last record's start: strip the final record by
        // scanning forward over `len ‖ body ‖ seal` frames.
        let header_len = 46;
        let mut boundaries = vec![header_len];
        let mut pos = header_len;
        while pos < full.len() {
            let len = u32::from_be_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4 + len + 32;
            boundaries.push(pos);
        }
        prop_assert_eq!(pos, full.len(), "sealed file ends on a boundary");
        let last_start = boundaries[boundaries.len() - 2];

        for cut in last_start + 1..full.len() {
            std::fs::write(&path, &full[..cut]).expect("tear");
            // Strict readers refuse the torn file with TornTail.
            match Ledger::read(&path) {
                Err(LedgerError::TornTail { offset }) => {
                    prop_assert_eq!(offset, last_start as u64, "cut {}", cut)
                }
                other => prop_assert!(false, "cut {}: expected TornTail, got {:?}",
                    cut, other.map(|_| "Ok")),
            }
            // The writer truncates exactly the partial record.
            let (mut w, recovery) =
                LedgerWriter::open(&path, &tpa_key, seed).expect("recover");
            prop_assert_eq!(
                recovery,
                Recovery::TruncatedTail { dropped: (cut - last_start) as u64 },
                "cut {}", cut
            );
            prop_assert_eq!(
                std::fs::metadata(&path).expect("stat").len(),
                last_start as u64
            );
            // The recovered prefix is sealable and replayable.
            w.finish().expect("finish after recovery");
            let ledger = Ledger::read(&path).expect("read recovered");
            replay(&ledger, &tpa_key.verifying_key(), None).expect("replay recovered");
        }

        // Cutting exactly at a boundary is not a torn tail at all.
        std::fs::write(&path, &full[..last_start]).expect("boundary cut");
        let (_, recovery) = LedgerWriter::open(&path, &tpa_key, seed).expect("open");
        prop_assert_eq!(recovery, Recovery::Clean);
    }

    /// Tamper detection: flipping any single byte anywhere in a sealed
    /// ledger (header included) makes strict read or replay fail — with
    /// an error, not a panic — and strict reading reports exactly the
    /// error the sequential chain walk would (see [`flip_error`]).
    #[test]
    fn any_single_byte_flip_is_detected(
        months in 1usize..3,
        seed in 1u64..1000,
        bit in 0u8..8,
    ) {
        let tpa_key = tpa(seed);
        let (path, full) = build_ledger("tamper", months, 2, seed);
        // The pristine file is green.
        let ledger = Ledger::read(&path).expect("read");
        replay(&ledger, &tpa_key.verifying_key(), None).expect("replay pristine");
        let bounds = boundaries(&full);

        for pos in 0..full.len() {
            let mut bad = full.clone();
            bad[pos] ^= 1 << bit;
            std::fs::write(&path, &bad).expect("tamper");
            let read = Ledger::read(&path);
            let want = flip_error(&bounds, &bad, pos);
            prop_assert!(
                want.matches(&read),
                "bit {} of byte {}: want {:?}, got {:?}",
                bit, pos, want, read.as_ref().map(|_| "Ok")
            );
            let outcome = read.and_then(|l| replay(&l, &tpa_key.verifying_key(), None));
            prop_assert!(
                outcome.is_err(),
                "flipping bit {} of byte {} went undetected",
                bit,
                pos
            );
        }
    }

    /// The same exact-error pin on a ledger longer than two 1024-record
    /// ranges, so flips land in the later ranges too: every length-prefix
    /// byte plus the tag, mid-body, last body byte and both seal ends of
    /// the records either side of each range boundary and of the last
    /// record, and a seeded sample of positions past the first range.
    #[test]
    fn flips_in_later_ranges_report_the_sequential_error(
        seed in 1u64..1000,
        bit in 0u8..8,
    ) {
        let (full, bounds) = long_ledger();
        let n = bounds.len() - 1;
        prop_assert!(n > 2 * 1024, "{} records", n);
        let mut positions: Vec<usize> = [1023, 1024, 2047, 2048, n - 1]
            .iter()
            .flat_map(|&i| {
                let (start, end) = (bounds[i], bounds[i + 1]);
                let mid = (start + end) / 2;
                [start, start + 1, start + 2, start + 3, start + 4, mid, end - 33, end - 32, end - 1]
            })
            .collect();
        let mut rng = ChaChaRng::from_u64_seed(seed);
        let later = bounds[1024];
        positions.extend((0..40).map(|_| later + (rng.next_u64() as usize) % (full.len() - later)));
        for pos in positions {
            let mut bad = full.clone();
            bad[pos] ^= 1 << bit;
            let want = flip_error(bounds, &bad, pos);
            let read = Ledger::from_bytes(Bytes::from(bad));
            prop_assert!(
                want.matches(&read),
                "bit {} of byte {}: want {:?}, got {:?}",
                bit, pos, want, read.as_ref().map(|_| "Ok")
            );
        }
    }
}

/// Version-1 header length (the ledgers built here are never rotated).
const HEADER_LEN: usize = 46;

/// Record start offsets of a sealed ledger, then its length: record `i`
/// spans `bounds[i]..bounds[i + 1]`.
fn boundaries(full: &[u8]) -> Vec<usize> {
    let mut bounds = vec![HEADER_LEN];
    let mut pos = HEADER_LEN;
    while pos < full.len() {
        let len = u32::from_be_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4 + len + 32;
        bounds.push(pos);
    }
    assert_eq!(pos, full.len(), "sealed file ends on a boundary");
    bounds
}

/// The error strict reading must report.
#[derive(Debug)]
enum Want {
    BadMagic,
    BadVersion(u16),
    Seal(u64),
    Malformed(u64),
    Torn(u64),
}

impl Want {
    fn matches<T>(&self, got: &Result<T, LedgerError>) -> bool {
        match (self, got) {
            (Want::BadMagic, Err(LedgerError::BadMagic)) => true,
            (Want::BadVersion(v), Err(LedgerError::BadVersion(g))) => v == g,
            (Want::Seal(i), Err(LedgerError::SealMismatch { index })) => i == index,
            (Want::Malformed(i), Err(LedgerError::Malformed { index, .. })) => i == index,
            (Want::Torn(o), Err(LedgerError::TornTail { offset })) => o == offset,
            _ => false,
        }
    }
}

/// What the sequential chain walk reports for `bad`, a sealed ledger
/// with framing `bounds` whose byte `pos` alone was changed. Inside the
/// header: bad magic, bad version, or (the header feeds the genesis
/// hash) a seal mismatch on record 0. Inside record `i`: a seal
/// mismatch on `i` — unless the change is to its length prefix and the
/// new length runs past the end of the file, which is a torn tail at
/// the record's start.
fn flip_error(bounds: &[usize], bad: &[u8], pos: usize) -> Want {
    if pos < 8 {
        return Want::BadMagic;
    }
    if pos < 10 {
        return Want::BadVersion(u16::from_be_bytes([bad[8], bad[9]]));
    }
    if pos < HEADER_LEN {
        return Want::Seal(0);
    }
    let i = bounds.partition_point(|&b| b <= pos) - 1;
    let start = bounds[i];
    if pos < start + 4 {
        let len = u32::from_be_bytes(bad[start..start + 4].try_into().unwrap()) as usize;
        if start + 4 + len + 32 > bad.len() {
            return Want::Torn(start as u64);
        }
    }
    Want::Seal(i as u64)
}

/// Recomputes the seals of records `from..` over their current bodies,
/// chaining from the stored seal before `from` — so an edited body
/// reads as a genuinely sealed (if malformed) record.
fn reseal(bytes: &mut [u8], bounds: &[usize], from: usize) {
    let mut prev = if from == 0 {
        genesis_hash(&bytes[..HEADER_LEN])
    } else {
        bytes[bounds[from] - 32..bounds[from]].try_into().unwrap()
    };
    for i in from..bounds.len() - 1 {
        let (start, end) = (bounds[i], bounds[i + 1]);
        let len = (end - start - 36) as u32;
        let seal = seal_hash(&prev, i as u64, len, &[&bytes[start + 4..end - 32]]);
        bytes[end - 32..end].copy_from_slice(&seal);
        prev = seal;
    }
}

/// Sealed records in [`long_ledger`] (checkpoints come on top).
const LONG_SEALED: usize = 2300;

/// A sealed ledger of more than two 1024-record ranges — digest
/// transitions with a real evidence record every 50th, checkpointed
/// every 64 — and its framing. Built once per test binary.
fn long_ledger() -> &'static (Vec<u8>, Vec<usize>) {
    static LONG: OnceLock<(Vec<u8>, Vec<usize>)> = OnceLock::new();
    LONG.get_or_init(|| {
        let (_, small) = build_ledger("long-src", 1, 0, 5);
        let evidence: Vec<EvidenceRecord> = Ledger::from_bytes(Bytes::from(small))
            .expect("read source")
            .evidence()
            .map(|(_, e)| e.clone())
            .collect();
        let path = tmp("long");
        let mut w = LedgerWriter::create(&path, &tpa(5), 64, 5).expect("create");
        for i in 0..LONG_SEALED {
            if i % 50 == 0 {
                w.append(&evidence[i / 50 % evidence.len()])
                    .expect("append");
            } else {
                w.append_digest(&DigestRecord {
                    file_id: format!("f{i}"),
                    op: DigestOp::Init,
                    index: 0,
                    prev: NO_DIGEST,
                    new: DynamicDigest {
                        root: [i as u8; 32],
                        segments: 1 + i as u64,
                    },
                })
                .expect("append digest");
            }
        }
        w.finish().expect("finish");
        drop(w);
        let full = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        let bounds = boundaries(&full);
        (full, bounds)
    })
}

/// A bad record followed by a torn tail: the complete-but-wrong record
/// is the error, in both the strict reader and the recovering writer
/// (which must then leave the file untouched) — whether the bad record
/// fails its seal or, genuinely sealed, fails to parse.
#[test]
fn bad_record_before_a_torn_tail_wins() {
    let (full, bounds) = long_ledger();
    let n = bounds.len() - 1;
    let tpa_key = tpa(5);
    for bad_at in [3, 1024, 1500, n - 2] {
        let start = bounds[bad_at];
        for (want, edit) in [
            (Want::Seal(bad_at as u64), false),
            (Want::Malformed(bad_at as u64), true),
        ] {
            let mut bad = full.clone();
            if edit {
                bad[start + 4] = 0xee; // unknown record tag, resealed below
                reseal(&mut bad, bounds, bad_at);
            } else {
                bad[start + 4 + 1] ^= 0x10;
            }
            // Tear the last record mid-body.
            bad.truncate(bounds[n - 1] + 7);
            assert!(
                want.matches(&Ledger::from_bytes(Bytes::from(bad.clone()))),
                "record {bad_at}: want {want:?}"
            );
            let path = tmp("bad-then-torn");
            std::fs::write(&path, &bad).expect("write");
            assert!(
                want.matches(&LedgerWriter::open(&path, &tpa_key, 5)),
                "writer, record {bad_at}: want {want:?}"
            );
            assert_eq!(std::fs::read(&path).expect("read"), bad, "file untouched");
            std::fs::remove_file(&path).ok();
        }
    }
}

/// The writer refuses to "recover" a complete record whose seal is
/// wrong — that is tamper/corruption, not a crash, and auto-truncating
/// it would destroy evidence.
#[test]
fn writer_never_truncates_a_seal_mismatch() {
    let tpa_key = tpa(7);
    let (path, full) = build_ledger("no-autofix", 2, 0, 7);
    let mut bad = full.clone();
    let mid = 46 + (full.len() - 46) / 2;
    bad[mid] ^= 0x80;
    std::fs::write(&path, &bad).expect("corrupt");
    match LedgerWriter::open(&path, &tpa_key, 7) {
        Err(LedgerError::SealMismatch { .. }) | Err(LedgerError::Malformed { .. }) => {}
        other => panic!("expected corruption refusal, got {other:?}"),
    }
    assert_eq!(
        std::fs::read(&path).expect("read").len(),
        bad.len(),
        "the file must be left untouched"
    );
}
