//! Golden pins for the segment data path.
//!
//! The zero-copy refactor (streaming encode, arena storage, `Bytes` on
//! the wire) must not change a single byte of (a) the encoded segments
//! or (b) the canonical signed-transcript encoding. These hashes were
//! captured from the pre-refactor implementation; any drift is a
//! protocol break, not a cleanup.

use geoproof::core::auditor::Auditor;
use geoproof::core::dynamic_audit::LocalDynProvider;
use geoproof::core::messages::{SignedTranscript, Transcript};
use geoproof::core::policy::TimingPolicy;
use geoproof::core::provider::LocalProvider;
use geoproof::core::verifier::VerifierDevice;
use geoproof::crypto::chacha::ChaChaRng;
use geoproof::crypto::schnorr::SigningKey;
use geoproof::crypto::sha256::Sha256;
use geoproof::geo::coords::places::BRISBANE;
use geoproof::geo::gps::GpsReceiver;
use geoproof::net::lan::LanPath;
use geoproof::por::dynamic::DynamicStore;
use geoproof::por::encode::PorEncoder;
use geoproof::por::keys::PorKeys;
use geoproof::por::params::PorParams;
use geoproof::sim::clock::SimClock;
use geoproof::sim::time::{Km, SimDuration};
use geoproof::storage::hdd::{HddModel, WD_2500JD};
use geoproof::storage::server::{FileId, StorageServer};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn sample_data(len: usize) -> Vec<u8> {
    let mut rng = ChaChaRng::from_u64_seed(0x676f_6c64); // "gold"
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Hash of every encoded segment (length-prefixed, in order) for one
/// deterministic (params, keys, file) triple, encoded on `threads`
/// workers.
fn encoded_digest_threads(params: PorParams, len: usize, threads: usize) -> String {
    let encoder = PorEncoder::new(params);
    let keys = PorKeys::derive(b"golden-master", "golden-file");
    let arena = encoder.encode_arena_threads(&sample_data(len), &keys, "golden-file", threads);
    let tagged = arena.to_tagged_file();
    let mut h = Sha256::new();
    for seg in &tagged.segments {
        h.update(&(seg.len() as u64).to_be_bytes());
        h.update(seg);
    }
    h.update(&tagged.metadata.segments.to_be_bytes());
    h.update(&tagged.metadata.encoded_blocks.to_be_bytes());
    h.update(&tagged.metadata.raw_blocks.to_be_bytes());
    hex(&h.finalize())
}

/// Hash of every encoded segment (length-prefixed, in order) for one
/// deterministic (params, keys, file) triple.
fn encoded_digest(params: PorParams, len: usize) -> String {
    encoded_digest_threads(params, len, 1)
}

#[test]
fn encoded_segments_are_byte_identical_to_pre_refactor() {
    assert_eq!(
        encoded_digest(PorParams::test_small(), 4000),
        "2c97620b3f8e7c72b4f2f1a4637a5368aa8690b540787a0e83ca049cf5c9162f",
        "test_small encoding drifted"
    );
    assert_eq!(
        encoded_digest(PorParams::paper(), 100_000),
        "08e33eb7ff635cc98e74dd58474a3ecd80607f041c7108c3bf547f9266ca9ebd",
        "paper-params encoding drifted"
    );
    // Padding edge cases: empty file, exactly one block, ragged tail.
    assert_eq!(
        encoded_digest(PorParams::test_small(), 0),
        "d5be87f1d71ffaf4d372e6c4668024f3d5cb252a732b9b201e65b6cbc22a6539"
    );
    assert_eq!(
        encoded_digest(PorParams::test_small(), 16),
        "c9f8a035cc478d785fad9552ff496536b348de41c9e7870eecb97d81e567986b"
    );
    assert_eq!(
        encoded_digest(PorParams::test_small(), 17),
        "a6c6a14389d45e595b5af0ffa4d3dbc53cdcfaaa5e19bb7d7c8b5a5bf494c130"
    );
}

/// The parallel encoder must reproduce the *same* golden hashes — the
/// pre-refactor pins above, not merely self-consistent output — at more
/// than one worker count.
#[test]
fn parallel_encoding_matches_the_golden_pins() {
    for threads in [2usize, 4] {
        assert_eq!(
            encoded_digest_threads(PorParams::test_small(), 4000, threads),
            "2c97620b3f8e7c72b4f2f1a4637a5368aa8690b540787a0e83ca049cf5c9162f",
            "test_small encoding drifted at {threads} threads"
        );
        assert_eq!(
            encoded_digest_threads(PorParams::paper(), 100_000, threads),
            "08e33eb7ff635cc98e74dd58474a3ecd80607f041c7108c3bf547f9266ca9ebd",
            "paper-params encoding drifted at {threads} threads"
        );
        assert_eq!(
            encoded_digest_threads(PorParams::test_small(), 0, threads),
            "d5be87f1d71ffaf4d372e6c4668024f3d5cb252a732b9b201e65b6cbc22a6539",
            "empty-file encoding drifted at {threads} threads"
        );
    }
}

/// Determinism pin: two encodes of the same input at *different* worker
/// counts hash identically — thread scheduling can never leak into the
/// stored bytes.
#[test]
fn encode_digest_is_independent_of_worker_count() {
    let lens = [4000usize, 17, 100_000];
    for len in lens {
        let a = encoded_digest_threads(PorParams::test_small(), len, 3);
        let b = encoded_digest_threads(PorParams::test_small(), len, 7);
        assert_eq!(a, b, "len {len}: worker count changed the stored bytes");
    }
}

/// One deterministic simulated audit; hash of the canonical signing bytes.
#[test]
fn signed_transcript_encoding_is_byte_identical_to_pre_refactor() {
    let params = PorParams::test_small();
    let encoder = PorEncoder::new(params);
    let keys = PorKeys::derive(b"golden-master", "golden-file");
    let tagged = encoder.encode(&sample_data(4000), &keys, "golden-file");
    let n = tagged.metadata.segments;

    let mut storage = StorageServer::new(HddModel::deterministic(WD_2500JD), 1);
    storage.put_file(FileId::from("golden-file"), tagged.segments.clone());
    let mut provider = LocalProvider::new(storage, LanPath::adjacent(), 2);

    let mut rng = ChaChaRng::from_u64_seed(0x7369_676e); // "sign"
    let sk = SigningKey::generate(&mut rng);
    let mut verifier =
        VerifierDevice::new(sk.clone(), GpsReceiver::new(BRISBANE), SimClock::new(), 3);
    let mut auditor = Auditor::new(
        "golden-file".into(),
        n,
        PorEncoder::new(params),
        keys.auditor_view(),
        sk.verifying_key(),
        BRISBANE,
        Km(25.0),
        TimingPolicy::paper(),
        4,
    );

    let request = auditor.issue_request(10);
    let transcript = verifier.run_audit(&request, &mut provider);
    let report = auditor.verify(&request, &transcript);
    assert!(report.accepted(), "violations: {:?}", report.violations);

    let bytes = SignedTranscript::signing_bytes(
        &transcript.file_id,
        &transcript.nonce,
        &transcript.position,
        &transcript.rounds,
    );
    assert_eq!(
        hex(&Sha256::digest(&bytes)),
        "9001c00dd86af035653de7d8e728c8b95ec87703a192905e9f81fc9f254f2884",
        "canonical signed-transcript bytes drifted"
    );
}

/// One deterministic simulated *dynamic* audit; hash of the canonical
/// transcript bytes (signature included).
#[test]
fn dynamic_transcript_encoding_is_pinned() {
    let keys = PorKeys::derive(b"golden-master", "golden-dyn");
    let bodies: Vec<Vec<u8>> = sample_data(24 * 40)
        .chunks(40)
        .map(<[u8]>::to_vec)
        .collect();
    let (store, digest) = DynamicStore::initialise("golden-dyn", &bodies, &keys);
    let mut provider = LocalDynProvider {
        store,
        file_id: "golden-dyn".into(),
        latency: SimDuration::from_millis(5),
    };

    let mut rng = ChaChaRng::from_u64_seed(0x7369_676e); // "sign"
    let sk = SigningKey::generate(&mut rng);
    let mut verifier =
        VerifierDevice::new(sk.clone(), GpsReceiver::new(BRISBANE), SimClock::new(), 3);
    let mut auditor = Auditor::new(
        "golden-dyn".into(),
        digest.segments,
        PorEncoder::new(PorParams::paper()),
        keys.auditor_view(),
        sk.verifying_key(),
        BRISBANE,
        Km(25.0),
        TimingPolicy::paper(),
        4,
    );

    let request = auditor.issue_dynamic(digest, 10);
    let transcript = verifier.run_audit(&request, &mut provider);
    let report = auditor.verify(&request, &transcript);
    assert!(report.accepted(), "violations: {:?}", report.violations);
    assert_eq!(
        hex(&Sha256::digest(&transcript.canonical_bytes())),
        "88a8184d246877620c0f66843dea81c6d130bbf229aa35534e8ada158f2a8d4c",
        "canonical dynamic-transcript bytes drifted"
    );
}
