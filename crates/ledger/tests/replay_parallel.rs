//! Differential suite: [`replay`] (chunks settled on every core, chain
//! state walked on the caller) against [`replay_sequential`] (one
//! thread, one signature at a time). On every ledger — clean or faulted
//! — the two must return the same `Ok(ReplayOutcome)` or the same `Err`.
//!
//! Ledgers mix static evidence, dynamic evidence, digest transitions and
//! position estimates, checkpointed every 1 or every 64 sealed records,
//! at sizes either side of the 1024-record chunk boundaries. Faults go
//! into chunk 1 or later, where a helper thread may settle them before
//! the caller has walked the chunks in front: the first error in chain
//! order must still be the one reported.

use bytes::Bytes;
use geoproof_core::auditor::{Auditor, VerifyChecks};
use geoproof_core::dynamic_audit::LocalDynProvider;
use geoproof_core::evidence::encode_report;
use geoproof_core::messages::{AuditRequest, SignedTranscript, TimedRound};
use geoproof_core::policy::TimingPolicy;
use geoproof_core::verifier::VerifierDevice;
use geoproof_crypto::chacha::ChaChaRng;
use geoproof_crypto::schnorr::{SigningKey, VerifyingKey};
use geoproof_geo::coords::places::BRISBANE;
use geoproof_geo::coords::GeoPoint;
use geoproof_geo::gps::GpsReceiver;
use geoproof_geo::triangulation::RangeMeasurement;
use geoproof_ledger::{
    genesis_hash, replay, replay_sequential, seal_hash, DigestOp, DigestRecord, Entry,
    EvidenceRecord, Ledger, LedgerWriter, OwnerKeys, PositionRecord, ReplayOutcome, NO_DIGEST,
};
use geoproof_por::dynamic::{DynamicDigest, DynamicOwner, DynamicStore};
use geoproof_por::encode::{PorEncoder, TaggedFile};
use geoproof_por::keys::PorKeys;
use geoproof_por::params::PorParams;
use geoproof_sim::clock::SimClock;
use geoproof_sim::time::{Km, SimDuration};
use std::sync::OnceLock;

/// Records per replay chunk (`BATCH_CHUNK` in `verify.rs`).
const CHUNK: usize = 1024;

/// The largest ledger; every smaller size is a prefix of it.
const MAX_RECORDS: usize = 3079;

/// Ledger sizes, in records (checkpoints included).
const SIZES: [usize; 7] = [0, 1, 1023, 1024, 1025, 2049, 3079];

/// Version-1 header length.
const HEADER_LEN: usize = 46;

const K: usize = 4;

/// The data owner's master secret; every file's keys derive from it.
const MASTER: &[u8] = b"replay-parallel-master";

fn tpa() -> SigningKey {
    SigningKey::generate(&mut ChaChaRng::from_u64_seed(0x7e57))
}

/// The static file every static record audits, encoded under the
/// owner's keys, so replay with those keys derives every recorded bit.
fn static_file() -> &'static TaggedFile {
    static FILE: OnceLock<TaggedFile> = OnceLock::new();
    FILE.get_or_init(|| {
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        PorEncoder::new(PorParams::test_small()).encode(&data, &PorKeys::derive(MASTER, "pf"), "pf")
    })
}

/// Static evidence record `s`: a genuinely signed transcript of genuine
/// segments and the report the live check sequence derives from it.
fn static_record(s: u64, device: &SigningKey, rng: &mut ChaChaRng) -> EvidenceRecord {
    let position = GeoPoint::new(-27.47, 153.02);
    let mut nonce = [0u8; 32];
    nonce[..8].copy_from_slice(&s.to_be_bytes());
    let file = static_file();
    let n_segments = file.metadata.segments;
    let rounds: Vec<TimedRound> = (0..K as u64)
        .map(|j| {
            let index = (s * 31 + j * 7) % n_segments;
            TimedRound {
                index,
                segment: Bytes::from(file.segments[index as usize].clone()),
                rtt: SimDuration::from_millis(5),
            }
        })
        .collect();
    let bytes = SignedTranscript::signing_bytes("pf", &nonce, &position, &rounds);
    let transcript = SignedTranscript {
        file_id: "pf".into(),
        nonce,
        position,
        rounds,
        signature: device.sign(&bytes, rng),
    };
    let request = AuditRequest {
        file_id: "pf".into(),
        n_segments,
        k: K as u32,
        nonce,
    };
    let policy = TimingPolicy::paper();
    let device_key = device.verifying_key();
    let checks = VerifyChecks {
        device_key: &device_key,
        sla_location: position,
        location_tolerance: Km(25.0),
        policy: &policy,
    };
    let report = checks.verify_transcript_presigned(&request, &transcript, true, &[true; K]);
    EvidenceRecord {
        prover: format!("prover-{:02}", s % 16),
        epoch: s / 16,
        device_key: device_key.to_bytes(),
        sla_location: position,
        location_tolerance: Km(25.0),
        policy,
        request,
        mac_ok: vec![true; K],
        report_bytes: Bytes::from(encode_report(&report)),
        transcript: transcript.canonical_bytes(),
    }
}

/// Position record `s`: five vantages around the SLA site, estimate
/// derived as the live TPA would.
fn position_record(s: u64) -> PositionRecord {
    let sla = GeoPoint::new(-27.47, 153.02);
    let posts = [
        GeoPoint::new(-33.87, 151.21),
        GeoPoint::new(-37.81, 144.96),
        GeoPoint::new(-31.95, 115.86),
        GeoPoint::new(-19.26, 146.82),
        GeoPoint::new(-34.93, 138.60),
    ];
    let vantages = posts
        .iter()
        .map(|p| RangeMeasurement {
            landmark: *p,
            distance: Km(p.distance(&sla).0 + (s % 7) as f64),
        })
        .collect();
    let mut record = PositionRecord {
        prover: format!("prover-{:02}", s % 16),
        first_epoch: s,
        sla_location: sla,
        position_tolerance: Km(50.0),
        residual_budget: Km(50.0),
        vantages,
        estimate: None,
    };
    record.estimate = record.derive_estimate();
    record
}

/// The dynamic-audit side: a 16-segment dynamic file, its owner, a
/// verifier device and an auditor.
struct DynRig {
    auditor: Auditor,
    verifier: VerifierDevice,
    provider: LocalDynProvider,
    owner: DynamicOwner,
    keys: PorKeys,
}

fn dyn_rig() -> DynRig {
    let keys = PorKeys::derive(MASTER, "df");
    let bodies: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 32]).collect();
    let (store, _) = DynamicStore::initialise("df", &bodies, &keys);
    let tagged: Vec<Bytes> = (0..16u64).map(|i| store.segment(i).unwrap()).collect();
    let owner = DynamicOwner::from_tagged("df", &tagged);
    let sk = SigningKey::generate(&mut ChaChaRng::from_u64_seed(31));
    let verifier = VerifierDevice::new(sk.clone(), GpsReceiver::new(BRISBANE), SimClock::new(), 32);
    let auditor = Auditor::new(
        "df".into(),
        owner.digest().segments,
        PorEncoder::new(PorParams::paper()),
        keys.auditor_view(),
        sk.verifying_key(),
        BRISBANE,
        Km(10.0),
        TimingPolicy::paper(),
        33,
    );
    DynRig {
        auditor,
        verifier,
        provider: LocalDynProvider {
            store,
            file_id: "df".into(),
            latency: SimDuration::from_millis(5),
        },
        owner,
        keys,
    }
}

/// A clean ledger of [`MAX_RECORDS`] records with a checkpoint after
/// every `interval` sealed records. Sealed ordinal `s` is a digest init
/// (`s = 0`), a dynamic audit of the current digest (`s % 97 == 5`), a
/// digest update (`s % 389 == 200`), a position estimate
/// (`s % 131 == 17`), a static audit by one of 16 devices (`s % 4 == 0`),
/// or otherwise the digest init of a padding file — a record with no
/// signature, which keeps the suite's run time down in debug builds.
fn build(interval: u64) -> Vec<u8> {
    let tpa = tpa();
    let mut rng = ChaChaRng::from_u64_seed(interval);
    let devices: Vec<SigningKey> = (0..16).map(|_| SigningKey::generate(&mut rng)).collect();
    let mut r = dyn_rig();
    let mut current = r.owner.digest();
    let dir = std::env::temp_dir().join(format!("gp-replay-parallel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join(format!("interval-{interval}.log"));
    std::fs::remove_file(&path).ok();
    let mut w = LedgerWriter::create(&path, &tpa, 0, interval).expect("create");
    let mut s = 0u64;
    while (w.record_count() as usize) < MAX_RECORDS {
        if s > 0 && s % interval == 0 && w.uncovered() > 0 {
            assert!(w.checkpoint().expect("checkpoint"));
            continue;
        }
        if s == 0 {
            w.append_digest(&DigestRecord {
                file_id: "df".into(),
                op: DigestOp::Init,
                index: 0,
                prev: NO_DIGEST,
                new: current,
            })
            .expect("init");
        } else if s % 97 == 5 {
            let req = r.auditor.issue_dynamic(current, 3);
            let t = r.verifier.run_audit(&req, &mut r.provider);
            let epoch = w.next_epoch("acme");
            let (_, bundle) = r.auditor.verify_evidence(&req, &t, "acme", epoch);
            w.append_bundle(&bundle).expect("dynamic");
        } else if s % 389 == 200 {
            let at = s % 16;
            let (tagged, next) = r.owner.tag_update(at, &s.to_be_bytes(), &r.keys).unwrap();
            r.provider
                .store
                .apply_update(at, Bytes::from(tagged))
                .unwrap();
            w.append_digest(&DigestRecord {
                file_id: "df".into(),
                op: DigestOp::Update,
                index: at,
                prev: current,
                new: next,
            })
            .expect("update");
            current = next;
        } else if s % 131 == 17 {
            w.append_position(&position_record(s)).expect("position");
        } else if s % 4 == 0 {
            let device = &devices[(s / 4 % 16) as usize];
            w.append(&static_record(s, device, &mut rng))
                .expect("evidence");
        } else {
            w.append_digest(&DigestRecord {
                file_id: format!("pad-{s}"),
                op: DigestOp::Init,
                index: 0,
                prev: NO_DIGEST,
                new: DynamicDigest {
                    root: [s as u8; 32],
                    segments: s,
                },
            })
            .expect("padding");
        }
        s += 1;
    }
    drop(w);
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    bytes
}

/// The two clean ledgers and their header bytes, built once per test
/// binary.
fn clean(interval: u64) -> &'static (Ledger, Vec<u8>) {
    static EVERY_1: OnceLock<(Ledger, Vec<u8>)> = OnceLock::new();
    static EVERY_64: OnceLock<(Ledger, Vec<u8>)> = OnceLock::new();
    let cell = if interval == 1 { &EVERY_1 } else { &EVERY_64 };
    cell.get_or_init(|| {
        let bytes = build(interval);
        let header = bytes[..HEADER_LEN].to_vec();
        let ledger = Ledger::from_bytes(Bytes::from(bytes)).expect("clean read");
        assert_eq!(ledger.records().len(), MAX_RECORDS);
        (ledger, header)
    })
}

/// Ledger bytes: `header`, then each body sealed onto the chain.
fn chain(header: &[u8], bodies: &[Vec<u8>]) -> Ledger {
    let mut out = header.to_vec();
    let mut prev = genesis_hash(header);
    for (i, body) in bodies.iter().enumerate() {
        let len = body.len() as u32;
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(body);
        prev = seal_hash(&prev, i as u64, len, &[body]);
        out.extend_from_slice(&prev);
    }
    Ledger::from_bytes(Bytes::from(out)).expect("resealed ledger reads")
}

/// Replays `ledger` both ways — with the owner's keys when `keyed`, so
/// every recorded tag bit is re-derived — and insists they agree
/// exactly.
fn both(ledger: &Ledger, keyed: bool) -> Result<ReplayOutcome, String> {
    let tpa = tpa().verifying_key();
    let encoder = PorEncoder::new(PorParams::test_small());
    let owner = OwnerKeys {
        encoder: &encoder,
        mac_key: Box::new(|fid: &str| *PorKeys::derive(MASTER, fid).mac_key()),
    };
    let owner = keyed.then_some(&owner);
    let parallel = replay(ledger, &tpa, owner).map_err(|e| format!("{e:?}"));
    let sequential = replay_sequential(ledger, &tpa, owner).map_err(|e| format!("{e:?}"));
    assert_eq!(
        parallel, sequential,
        "replay and replay_sequential disagree"
    );
    parallel
}

/// Sealed ordinal of record `index`.
fn ordinal(ledger: &Ledger, index: usize) -> u64 {
    ledger.records()[..index]
        .iter()
        .filter(|r| r.entry.is_sealed_leaf())
        .count() as u64
}

/// The first record at or after `from` of the kind `pick` accepts.
fn first_at(ledger: &Ledger, from: usize, pick: impl Fn(&Entry) -> bool) -> usize {
    (from..ledger.records().len())
        .find(|&i| pick(&ledger.records()[i].entry))
        .expect("such a record")
}

fn is_static(e: &Entry) -> bool {
    matches!(e, Entry::Evidence(_))
}

fn evidence_body(e: &EvidenceRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(e.body_len());
    e.encode_prefix(&mut out);
    out.extend_from_slice(&e.transcript);
    out
}

/// One injected fault: rewrites record `index` among `bodies`, and
/// names the error replay must report for it.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// The transcript re-signed by a device other than the recorded one.
    ForgedSignature,
    /// One bit of a checkpoint's TPA signature flipped.
    CheckpointSignature,
    /// The transcript bytes cut short by one byte.
    MalformedTranscript,
    /// A device key that is not a curve point.
    UndecodableKey,
    /// A checkpoint over a wrong root, correctly signed by the TPA.
    CheckpointRoot,
    /// One round's signed Δt rewritten, the device signature kept.
    TamperedRound,
    /// One round's recorded tag bit set false over its genuine segment,
    /// the report re-derived from the recorded bits: only a replay with
    /// the owner's keys can tell.
    FalseTagBit,
}

impl Fault {
    /// The record a fault goes into: the first of the right kind at or
    /// after `from`.
    fn target(self, ledger: &Ledger, from: usize) -> usize {
        match self {
            Fault::CheckpointSignature | Fault::CheckpointRoot => {
                first_at(ledger, from, |e| matches!(e, Entry::Checkpoint(_)))
            }
            _ => first_at(ledger, from, is_static),
        }
    }

    fn inject(self, ledger: &Ledger, bodies: &mut [Vec<u8>], index: usize) -> String {
        let record = &ledger.records()[index];
        let evidence = ordinal(ledger, index);
        match (self, &record.entry) {
            (Fault::ForgedSignature, Entry::Evidence(e)) => {
                let mut t = e.parse_transcript().expect("clean transcript");
                let forger = SigningKey::generate(&mut ChaChaRng::from_u64_seed(index as u64));
                let bytes =
                    SignedTranscript::signing_bytes(&t.file_id, &t.nonce, &t.position, &t.rounds);
                t.signature = forger.sign(&bytes, &mut ChaChaRng::from_u64_seed(1));
                let forged = EvidenceRecord {
                    transcript: t.canonical_bytes(),
                    ..e.clone()
                };
                bodies[index] = evidence_body(&forged);
                format!("VerdictMismatch {{ evidence: {evidence} }}")
            }
            (Fault::TamperedRound, Entry::Evidence(e)) => {
                let mut t = e.parse_transcript().expect("clean transcript");
                t.rounds[1].rtt = SimDuration::from_nanos(t.rounds[1].rtt.as_nanos() + 1);
                let tampered = EvidenceRecord {
                    transcript: t.canonical_bytes(),
                    ..e.clone()
                };
                bodies[index] = evidence_body(&tampered);
                format!("VerdictMismatch {{ evidence: {evidence} }}")
            }
            (Fault::MalformedTranscript, Entry::Evidence(e)) => {
                let cut = EvidenceRecord {
                    transcript: e.transcript.slice(..e.transcript.len() - 1),
                    ..e.clone()
                };
                bodies[index] = evidence_body(&cut);
                format!("Transcript {{ evidence: {evidence}, ")
            }
            (Fault::UndecodableKey, Entry::Evidence(e)) => {
                let not_a_point = (0..=255u8)
                    .map(|b| [b; 32])
                    .find(|k| VerifyingKey::from_bytes(k).is_none())
                    .expect("some byte string is not a point");
                let bad = EvidenceRecord {
                    device_key: not_a_point,
                    ..e.clone()
                };
                bodies[index] = evidence_body(&bad);
                format!("BadDeviceKey {{ evidence: {evidence} }}")
            }
            (Fault::FalseTagBit, Entry::Evidence(e)) => {
                let mut mac_ok = e.mac_ok.clone();
                mac_ok[0] = false;
                let transcript = e.parse_transcript().expect("clean transcript");
                let device_key = VerifyingKey::from_bytes(&e.device_key).expect("clean key");
                let checks = VerifyChecks {
                    device_key: &device_key,
                    sla_location: e.sla_location,
                    location_tolerance: e.location_tolerance,
                    policy: &e.policy,
                };
                let report = checks.verify_transcript(&e.request, &transcript, &mac_ok);
                let lying = EvidenceRecord {
                    mac_ok,
                    report_bytes: Bytes::from(encode_report(&report)),
                    ..e.clone()
                };
                bodies[index] = evidence_body(&lying);
                format!("MacMismatch {{ evidence: {evidence} }}")
            }
            (Fault::CheckpointSignature, Entry::Checkpoint(_)) => {
                bodies[index][1 + 8 + 32 + 5] ^= 0x04;
                format!("CheckpointSignature {{ index: {index} }}")
            }
            (Fault::CheckpointRoot, Entry::Checkpoint(c)) => {
                let mut root = c.root;
                root[0] ^= 0x01;
                let mut message = b"geoproof-ledger-ckpt-v1".to_vec();
                message.extend_from_slice(&c.covered.to_be_bytes());
                message.extend_from_slice(&root);
                let signature = tpa().sign(&message, &mut ChaChaRng::from_u64_seed(2));
                let body = &mut bodies[index];
                body[9..41].copy_from_slice(&root);
                body[41..105].copy_from_slice(&signature.to_bytes());
                format!("CheckpointRoot {{ index: {index} }}")
            }
            (fault, entry) => panic!("{fault:?} does not apply to {entry:?}"),
        }
    }
}

const FAULTS: [Fault; 6] = [
    Fault::ForgedSignature,
    Fault::CheckpointSignature,
    Fault::MalformedTranscript,
    Fault::UndecodableKey,
    Fault::CheckpointRoot,
    Fault::TamperedRound,
];

fn bodies_of(ledger: &Ledger) -> Vec<Vec<u8>> {
    ledger.records().iter().map(|r| r.body.to_vec()).collect()
}

#[test]
fn clean_ledgers_replay_identically_at_every_size() {
    for interval in [1, 64] {
        let (full, header) = clean(interval);
        let bodies = bodies_of(full);
        // On the full ledger, the owner's keys re-derive every recorded
        // bit, and both count the same re-derivations.
        for n in SIZES {
            // A prefix of a sealed chain is a sealed chain.
            let ledger = chain(header, &bodies[..n]);
            let outcome =
                both(&ledger, n == MAX_RECORDS).unwrap_or_else(|e| panic!("{n} records: {e}"));
            assert_eq!(outcome.records, n as u64);
            if n == MAX_RECORDS {
                assert!(outcome.evidence > 0 && outcome.dynamic > 0, "{outcome:?}");
                assert!(outcome.digests > 1 && outcome.positions > 0, "{outcome:?}");
                assert!(
                    outcome.checkpoints > 0 && outcome.macs_checked > 0,
                    "{outcome:?}"
                );
            }
        }
    }
}

#[test]
fn a_fault_in_a_later_chunk_fails_identically() {
    for interval in [1, 64] {
        let (full, header) = clean(interval);
        // Alternately in chunk 1 and chunk 2.
        for (i, fault) in FAULTS.into_iter().enumerate() {
            let mut bodies = bodies_of(full);
            let at = fault.target(full, (1 + i % 2) * CHUNK + 3);
            let want = fault.inject(full, &mut bodies, at);
            let err = both(&chain(header, &bodies), false).expect_err("fault must fail");
            assert!(
                err.starts_with(&want),
                "{fault:?} at {at}: want {want}, got {err}"
            );
        }
        // A recorded bit the owner's keys contradict.
        let mut bodies = bodies_of(full);
        let at = Fault::FalseTagBit.target(full, CHUNK + 3);
        let want = Fault::FalseTagBit.inject(full, &mut bodies, at);
        assert_eq!(
            want,
            format!("MacMismatch {{ evidence: {} }}", ordinal(full, at))
        );
        let err = both(&chain(header, &bodies), true).expect_err("the keys contradict a bit");
        assert_eq!(err, want);
    }
}

#[test]
fn the_earlier_of_two_faults_wins() {
    for interval in [1, 64] {
        let (full, header) = clean(interval);
        for (first, second) in [
            // A chain-state failure in chunk 1 before a pure one in chunk 2…
            (Fault::CheckpointRoot, Fault::MalformedTranscript),
            // …and the other way round.
            (Fault::ForgedSignature, Fault::CheckpointSignature),
            (Fault::UndecodableKey, Fault::ForgedSignature),
            (Fault::TamperedRound, Fault::CheckpointSignature),
            (Fault::CheckpointRoot, Fault::TamperedRound),
        ] {
            let mut bodies = bodies_of(full);
            let early = first.target(full, CHUNK + 10);
            let late = second.target(full, 2 * CHUNK + 10);
            let want = first.inject(full, &mut bodies, early);
            second.inject(full, &mut bodies, late);
            let err = both(&chain(header, &bodies), false).expect_err("faults must fail");
            assert!(
                err.starts_with(&want),
                "{first:?} then {second:?}: got {err}"
            );
        }
        // Within one chunk too: the walk's failure comes before the
        // settled one, which must wait behind it.
        let mut bodies = bodies_of(full);
        let early = Fault::CheckpointRoot.target(full, CHUNK + 10);
        let late = Fault::MalformedTranscript.target(full, early + 1);
        assert_eq!(early / CHUNK, late / CHUNK, "one chunk");
        let want = Fault::CheckpointRoot.inject(full, &mut bodies, early);
        Fault::MalformedTranscript.inject(full, &mut bodies, late);
        let err = both(&chain(header, &bodies), false).expect_err("faults must fail");
        assert!(err.starts_with(&want), "same chunk: got {err}");
        // A structural fault in chunk 1 beats a MAC disagreement in chunk 2.
        let mut bodies = bodies_of(full);
        let early = Fault::MalformedTranscript.target(full, CHUNK + 10);
        let want = Fault::MalformedTranscript.inject(full, &mut bodies, early);
        let late = Fault::FalseTagBit.target(full, 2 * CHUNK + 10);
        Fault::FalseTagBit.inject(full, &mut bodies, late);
        let err = both(&chain(header, &bodies), true).expect_err("fault must fail");
        assert!(err.starts_with(&want), "got {err}");
    }
}
