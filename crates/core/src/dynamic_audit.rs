//! The timed dynamic audit session: GeoProof's Δt_max discipline over a
//! file that *changes* between audit epochs (the paper's §IV DPOR
//! extension taken online).
//!
//! A dynamic audit is issued against a [`DynamicDigest`] — the Merkle
//! root plus segment count the owner derived after its last
//! update/append ([`crate::auditor::Auditor::issue_dynamic`]). Each round
//! challenges one segment and must come back with a membership proof.
//! Everything else is the static audit's, run through the same code: the
//! device drives one [`crate::verifier::AuditRun`], the transcript goes
//! through the one [`Transcript`] codec, and the one
//! [`crate::auditor::Auditor`] judges it with the one check sequence,
//! [`crate::auditor::VerifyChecks`] — signature, nonce, GPS, round
//! sanity, Δt_max — so dynamic verdicts replay from the evidence ledger
//! byte-for-byte. What this module adds is only what a dynamic audit
//! adds:
//!
//! * the request, round and transcript types, and the transcript's
//!   [`Transcript`] hooks — the digest echoed after the nonce (checked
//!   against the request's, else
//!   [`crate::auditor::Violation::StaleDigest`]) and a Merkle proof
//!   before each round's segment;
//! * the simulated dynamic prover ([`LocalDynProvider`]).
//!
//! The per-round judgement is [`DynAuditRequest`]'s
//! [`crate::verifier::Audit::judge`]: the proof must tie the returned
//! bytes to the audited digest (unkeyed — offline replay recomputes it
//! from the ledger alone), then the embedded tag must be genuine for
//! `(file_id, index)` (keyed — replay trusts the recorded bit unless
//! given the owner's secret).
//!
//! A provider that keeps serving the pre-update segment (with its
//! then-valid proof) fails the Merkle check against the fresh digest:
//! that is the stale-copy cheat the digest chain in the ledger makes
//! provable.

use crate::cursor::{ByteCursor, Truncated};
use crate::messages::{take_segment, Round, Transcript, TranscriptDecodeError};
use bytes::Bytes;
use geoproof_crypto::schnorr::Signature;
use geoproof_geo::coords::GeoPoint;
use geoproof_por::dynamic::{DynamicDigest, ProvenSegment};
use geoproof_por::merkle::MerkleProof;
use geoproof_sim::time::SimDuration;

/// The TPA's dynamic audit trigger: digest under audit, challenge count,
/// fresh nonce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynAuditRequest {
    /// File under audit.
    pub file_id: String,
    /// The digest (root + segment count) this audit verifies against.
    pub digest: DynamicDigest,
    /// Number of segments to challenge, k.
    pub k: u32,
    /// Fresh nonce N binding the transcript to this audit.
    pub nonce: [u8; 32],
}

/// One timed dynamic round: challenged index, returned tagged segment,
/// its membership proof, and the measured Δt_j.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynTimedRound {
    /// Challenged segment index c_j.
    pub index: u64,
    /// Returned tagged segment bytes (empty when the prover had nothing —
    /// still signed, still damning). A refcounted view of the received
    /// frame buffer on the TCP path.
    pub segment: Bytes,
    /// Merkle membership proof for the segment (an empty-sibling proof
    /// when the prover had nothing; it can never verify).
    pub proof: MerkleProof,
    /// Measured round-trip time Δt_j.
    pub rtt: SimDuration,
}

/// The signed dynamic audit transcript. The digest is echoed and signed,
/// so a transcript cannot be replayed against a later (or earlier) state
/// without tripping [`crate::auditor::Violation::StaleDigest`] or the
/// signature check.
#[derive(Clone, Debug, PartialEq)]
pub struct DynSignedTranscript {
    /// File under audit.
    pub file_id: String,
    /// Echo of the TPA's nonce.
    pub nonce: [u8; 32],
    /// Echo of the digest the verifier audited against.
    pub digest: DynamicDigest,
    /// The verifier's GPS fix Pos_v.
    pub position: GeoPoint,
    /// The k timed rounds.
    pub rounds: Vec<DynTimedRound>,
    /// Schnorr signature over the canonical encoding of all of the above.
    pub signature: Signature,
}

impl Round for DynTimedRound {
    fn index(&self) -> u64 {
        self.index
    }
    fn rtt(&self) -> SimDuration {
        self.rtt
    }
    fn segment(&self) -> &Bytes {
        &self.segment
    }
    fn write_proof(&self, out: &mut Vec<u8>) {
        let proof = self.proof.to_bytes();
        out.extend_from_slice(&(proof.len() as u32).to_be_bytes());
        out.extend_from_slice(&proof);
    }
    fn decode(
        index: u64,
        rtt: SimDuration,
        c: &mut ByteCursor<'_>,
    ) -> Result<Self, TranscriptDecodeError> {
        use TranscriptDecodeError as E;
        let proof_len = c.take_u32().map_err(|_| E::Truncated)? as usize;
        let proof_bytes = c.take(proof_len).map_err(|_| E::Truncated)?;
        Ok(DynTimedRound {
            index,
            proof: MerkleProof::from_bytes(&proof_bytes).ok_or(E::BadProof)?,
            segment: take_segment(c)?,
            rtt,
        })
    }
}

/// The dynamic transcript binds the audited digest (`root ‖ u64
/// segments`) right after the nonce and carries each round's Merkle
/// proof before its segment, under its own magic.
impl Transcript for DynSignedTranscript {
    type Round = DynTimedRound;
    type Binding = DynamicDigest;
    const MAGIC: &'static [u8] = b"geoproof-dyn-transcript-v1";

    fn write_binding(digest: &DynamicDigest, out: &mut Vec<u8>) {
        out.extend_from_slice(&digest.root);
        out.extend_from_slice(&digest.segments.to_be_bytes());
    }
    fn read_binding(c: &mut ByteCursor<'_>) -> Result<DynamicDigest, Truncated> {
        Ok(DynamicDigest {
            root: c.take_array::<32>()?,
            segments: c.take_u64()?,
        })
    }
    fn assemble(
        file_id: String,
        nonce: [u8; 32],
        digest: DynamicDigest,
        position: GeoPoint,
        rounds: Vec<DynTimedRound>,
        signature: Signature,
    ) -> Self {
        DynSignedTranscript {
            file_id,
            nonce,
            digest,
            position,
            rounds,
            signature,
        }
    }

    fn file_id(&self) -> &str {
        &self.file_id
    }
    fn nonce(&self) -> &[u8; 32] {
        &self.nonce
    }
    fn binding(&self) -> &DynamicDigest {
        &self.digest
    }
    fn position(&self) -> &GeoPoint {
        &self.position
    }
    fn rounds(&self) -> &[DynTimedRound] {
        &self.rounds
    }
    fn signature(&self) -> &Signature {
        &self.signature
    }
}

/// Serves timed dynamic challenges — the provider side of the dynamic
/// Fig. 5 loop (simulated time; the TCP path lives in the facade's
/// `tcp_audit`).
pub trait DynSegmentProvider {
    /// Returns the proven segment (or `None` when missing) and the
    /// service time to charge to the verifier's clock.
    fn serve_dyn(&mut self, file_id: &str, index: u64) -> (Option<ProvenSegment>, SimDuration);
}

/// A [`DynSegmentProvider`] over an in-process
/// [`geoproof_por::dynamic::DynamicStore`] with a fixed service latency —
/// the simulation/test rig.
#[derive(Debug)]
pub struct LocalDynProvider {
    /// The provider-side store (tests mutate it to play adversary).
    pub store: geoproof_por::dynamic::DynamicStore,
    /// The file id the store answers for.
    pub file_id: String,
    /// Fixed per-round service time.
    pub latency: SimDuration,
}

impl DynSegmentProvider for LocalDynProvider {
    fn serve_dyn(&mut self, file_id: &str, index: u64) -> (Option<ProvenSegment>, SimDuration) {
        let served = if file_id == self.file_id {
            self.store.challenge(index).ok()
        } else {
            None
        };
        (served, self.latency)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! What only a dynamic audit has. The cases both kinds share run
    //! from `crate::auditor`'s table, on this rig.
    use super::*;
    use crate::auditor::{Auditor, Violation};
    use crate::policy::TimingPolicy;
    use crate::verifier::VerifierDevice;
    use geoproof_crypto::chacha::ChaChaRng;
    use geoproof_crypto::schnorr::SigningKey;
    use geoproof_geo::coords::places::BRISBANE;
    use geoproof_geo::gps::GpsReceiver;
    use geoproof_por::dynamic::{DynamicOwner, DynamicStore};
    use geoproof_por::encode::PorEncoder;
    use geoproof_por::keys::PorKeys;
    use geoproof_por::params::PorParams;
    use geoproof_sim::clock::SimClock;
    use geoproof_sim::time::Km;

    pub(crate) struct Rig {
        pub(crate) auditor: Auditor,
        pub(crate) verifier: VerifierDevice,
        pub(crate) provider: LocalDynProvider,
        pub(crate) owner: DynamicOwner,
        keys: PorKeys,
    }

    /// A 24-segment dynamic file served after `latency` per round.
    pub(crate) fn rig(latency: SimDuration) -> Rig {
        let keys = PorKeys::derive(b"dyn-core", "df");
        let bodies: Vec<Vec<u8>> = (0..24).map(|i| vec![i as u8; 40]).collect();
        let (store, _d0) = DynamicStore::initialise("df", &bodies, &keys);
        let tagged: Vec<Bytes> = (0..24u64).map(|i| store.segment(i).unwrap()).collect();
        let owner = DynamicOwner::from_tagged("df", &tagged);

        let mut rng = ChaChaRng::from_u64_seed(5);
        let sk = SigningKey::generate(&mut rng);
        let verifier =
            VerifierDevice::new(sk.clone(), GpsReceiver::new(BRISBANE), SimClock::new(), 7);
        let auditor = Auditor::new(
            "df".into(),
            owner.digest().segments,
            PorEncoder::new(PorParams::paper()),
            keys.auditor_view(),
            sk.verifying_key(),
            BRISBANE,
            Km(10.0),
            TimingPolicy::paper(),
            11,
        );
        Rig {
            auditor,
            verifier,
            provider: LocalDynProvider {
                store,
                file_id: "df".into(),
                latency,
            },
            owner,
            keys,
        }
    }

    #[test]
    fn audit_follows_updates_and_appends() {
        let mut r = rig(SimDuration::from_millis(5));
        // Update and append, advancing both sides.
        let (tagged, d1) = r.owner.tag_update(3, b"v2", &r.keys).unwrap();
        r.provider
            .store
            .apply_update(3, Bytes::from(tagged))
            .unwrap();
        let (tagged, d2) = r.owner.tag_append(b"25th", &r.keys);
        r.provider.store.apply_append(Bytes::from(tagged));
        assert_eq!(d2.segments, 25);
        assert_ne!(d1.root, d2.root);
        let req = r.auditor.issue_dynamic(d2, 10);
        let t = r.verifier.run_audit(&req, &mut r.provider);
        let report = r.auditor.verify(&req, &t);
        assert!(report.accepted(), "violations: {:?}", report.violations);
    }

    #[test]
    fn stale_provider_fails_merkle_proofs() {
        let mut r = rig(SimDuration::from_millis(5));
        // Owner updates; provider silently drops the update (stale copy).
        let (_tagged, fresh) = r.owner.tag_update(3, b"v2", &r.keys).unwrap();
        let req = r.auditor.issue_dynamic(fresh, 24); // all segments
        let t = r.verifier.run_audit(&req, &mut r.provider);
        let report = r.auditor.verify(&req, &t);
        assert!(!report.accepted());
        assert!(
            report
                .violations
                .iter()
                .all(|v| matches!(v, Violation::BadProof { .. })),
            "stale tree must fail proofs: {:?}",
            report.violations
        );
    }

    #[test]
    fn silently_corrupted_segment_is_caught() {
        let mut r = rig(SimDuration::from_millis(5));
        for i in 0..24 {
            assert!(r.provider.store.corrupt_silently(i, 0x11));
        }
        let req = r.auditor.issue_dynamic(r.owner.digest(), 6);
        let t = r.verifier.run_audit(&req, &mut r.provider);
        let report = r.auditor.verify(&req, &t);
        assert!(!report.accepted());
        assert_eq!(report.violations.len(), 6);
    }

    #[test]
    fn replayed_transcript_is_stale_on_nonce_and_digest() {
        let mut r = rig(SimDuration::from_millis(5));
        let req1 = r.auditor.issue_dynamic(r.owner.digest(), 5);
        let t1 = r.verifier.run_audit(&req1, &mut r.provider);
        // A request against an evolved digest trips StaleDigest on top of
        // the stale nonce.
        let (tagged, fresh) = r.owner.tag_update(0, b"v2", &r.keys).unwrap();
        r.provider
            .store
            .apply_update(0, Bytes::from(tagged))
            .unwrap();
        let req3 = r.auditor.issue_dynamic(fresh, 5);
        let report = r.auditor.verify(&req3, &t1);
        assert!(report.violations.contains(&Violation::StaleNonce));
        assert!(report.violations.contains(&Violation::StaleDigest));
    }
}
