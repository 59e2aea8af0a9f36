//! The tamper-proof verifier device V (paper Fig. 4/5).
//!
//! A GPS-enabled box on the provider's LAN, trusted to follow the protocol
//! and holding a signing key the provider cannot extract. On a TPA
//! trigger it: draws k distinct random challenge indices, runs the timed
//! challenge–response loop against the prover, reads its GPS fix, and
//! signs the whole transcript.
//!
//! One machine does this for static and dynamic audits alike: an
//! [`AuditRun`] over any [`Audit`] request. Its shells — the SimClock loop
//! in [`VerifierDevice::run_audit`], the fleet simulator and the facade's
//! TCP `WallClockVerifier` — only carry challenges and time replies.
//!
//! [`Audit`] is also where the TPA's side of the two kinds differs: how a
//! round's keyed tag is checked ([`Audit::tag_ok`]) and how a round is
//! judged from that bit ([`Audit::judge`]). `tag_ok` is the only code
//! that knows which MAC scheme a round uses: the auditor, the engine and
//! ledger replay (given the owner's key) all take their bits from
//! [`Audit::tag_bits`], and run one generic path above the two hooks.

use crate::auditor::SegmentVerdict;
use crate::dynamic_audit::{
    DynAuditRequest, DynSegmentProvider, DynSignedTranscript, DynTimedRound,
};
use crate::messages::{AuditRequest, Round, SignedTranscript, TimedRound, Transcript};
use crate::provider::SegmentProvider;
use bytes::Bytes;
use geoproof_crypto::chacha::ChaChaRng;
use geoproof_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use geoproof_geo::coords::GeoPoint;
use geoproof_geo::gps::GpsReceiver;
use geoproof_por::dynamic::{verify_tagged, DynamicDigest, ProvenSegment};
use geoproof_por::encode::PorEncoder;
use geoproof_por::merkle::{verify_proof, MerkleProof};
use geoproof_sim::clock::SimClock;
use geoproof_sim::time::SimDuration;
use geoproof_storage::server::FileId;
use std::io;

/// What a static and a dynamic audit differ in. Everything else — the
/// draw of k distinct indices, round order, the GPS fix and the
/// signature — is [`AuditRun`]'s and [`VerifierDevice`]'s; the transcript
/// codec is [`Transcript`]'s and the check sequence
/// [`crate::auditor::VerifyChecks`]'s, which judges each round through
/// [`Audit::judge`].
pub trait Audit: Clone {
    /// What the prover serves for one challenge.
    type Reply;
    /// One timed round of the transcript.
    type Round: Round;
    /// The signed transcript.
    type Transcript: Transcript<Round = Self::Round>;
    /// The simulated prover that serves this kind of challenge.
    type Provider: ?Sized;

    /// The segment count the challenge indices are drawn from, and k.
    fn challenges(&self) -> (u64, u32);

    /// File under audit.
    fn file_id(&self) -> &str;

    /// The fresh nonce N.
    fn nonce(&self) -> &[u8; 32];

    /// What the transcript must echo after the nonce
    /// ([`Transcript::Binding`]).
    fn binding(&self) -> <Self::Transcript as Transcript>::Binding;

    /// A served reply (`None`: the prover had nothing) and its Δt as a
    /// round. A missing reply is still signed, and can never verify.
    fn round(index: u64, reply: Option<Self::Reply>, rtt: SimDuration) -> Self::Round;

    /// Signs the canonical bytes of `(self, position, rounds)` with `sign`
    /// and assembles the transcript.
    fn sign(
        &self,
        position: GeoPoint,
        rounds: Vec<Self::Round>,
        sign: impl FnOnce(&[u8]) -> Signature,
    ) -> Self::Transcript {
        let binding = self.binding();
        let message = Self::Transcript::signing_message(
            self.file_id(),
            self.nonce(),
            &binding,
            &position,
            &rounds,
        );
        Self::Transcript::assemble(
            self.file_id().to_owned(),
            *self.nonce(),
            binding,
            position,
            rounds,
            sign(&message),
        )
    }

    /// Serves challenge `index` on simulated time: the reply and the
    /// service time to charge to the device's clock.
    fn serve(
        &self,
        provider: &mut Self::Provider,
        index: u64,
    ) -> (Option<Self::Reply>, SimDuration);

    /// Whether the round's segment carries a genuine keyed tag for
    /// `(file_id, index)` under `mac_key` — the bit the evidence records
    /// (and replay trusts unless given the owner's secret).
    fn tag_ok(&self, encoder: &PorEncoder, mac_key: &[u8; 32], round: &Self::Round) -> bool;

    /// Every round's [`Audit::tag_ok`] bit, in round order: the bits the
    /// live TPA judges and records, and the bits replay re-derives from
    /// the owner's key.
    fn tag_bits(
        &self,
        encoder: &PorEncoder,
        mac_key: &[u8; 32],
        transcript: &Self::Transcript,
    ) -> Vec<bool> {
        transcript
            .rounds()
            .iter()
            .map(|round| self.tag_ok(encoder, mac_key, round))
            .collect()
    }

    /// Judges one round from its recorded tag bit — the per-segment step
    /// of the shared check sequence, identical live and in replay.
    fn judge(&self, round: &Self::Round, tag_ok: bool) -> SegmentVerdict;
}

impl Audit for AuditRequest {
    type Reply = Bytes;
    type Round = TimedRound;
    type Transcript = SignedTranscript;
    type Provider = dyn SegmentProvider;

    fn challenges(&self) -> (u64, u32) {
        (self.n_segments, self.k)
    }

    fn file_id(&self) -> &str {
        &self.file_id
    }

    fn nonce(&self) -> &[u8; 32] {
        &self.nonce
    }

    fn binding(&self) {}

    fn round(index: u64, reply: Option<Bytes>, rtt: SimDuration) -> TimedRound {
        TimedRound {
            index,
            segment: reply.unwrap_or_default(),
            rtt,
        }
    }

    fn serve(&self, provider: &mut Self::Provider, index: u64) -> (Option<Bytes>, SimDuration) {
        provider.serve(&FileId::from(self.file_id.as_str()), index)
    }

    fn tag_ok(&self, encoder: &PorEncoder, mac_key: &[u8; 32], round: &TimedRound) -> bool {
        encoder.verify_segment(mac_key, &self.file_id, round.index, &round.segment)
    }

    /// The static scheme has only the tag.
    fn judge(&self, _round: &TimedRound, tag_ok: bool) -> SegmentVerdict {
        if tag_ok {
            SegmentVerdict::Ok
        } else {
            SegmentVerdict::BadTag
        }
    }
}

/// A dynamic audit: each reply carries a Merkle membership proof,
/// fetched inside the same timed window, and the signature also covers
/// the audited digest, binding the verdict to the exact file state it
/// judged.
impl Audit for DynAuditRequest {
    type Reply = ProvenSegment;
    type Round = DynTimedRound;
    type Transcript = DynSignedTranscript;
    type Provider = dyn DynSegmentProvider;

    fn challenges(&self) -> (u64, u32) {
        (self.digest.segments, self.k)
    }

    fn file_id(&self) -> &str {
        &self.file_id
    }

    fn nonce(&self) -> &[u8; 32] {
        &self.nonce
    }

    fn binding(&self) -> DynamicDigest {
        self.digest
    }

    fn round(index: u64, reply: Option<ProvenSegment>, rtt: SimDuration) -> DynTimedRound {
        let ProvenSegment { segment, proof } = reply.unwrap_or(ProvenSegment {
            segment: Bytes::new(),
            proof: MerkleProof {
                index,
                siblings: Vec::new(),
            },
        });
        DynTimedRound {
            index,
            segment,
            proof,
            rtt,
        }
    }

    fn serve(
        &self,
        provider: &mut Self::Provider,
        index: u64,
    ) -> (Option<ProvenSegment>, SimDuration) {
        provider.serve_dyn(&self.file_id, index)
    }

    /// The dynamic tag scheme (its own MAC input encoding); the encoder's
    /// static layout does not apply.
    fn tag_ok(&self, _encoder: &PorEncoder, mac_key: &[u8; 32], round: &DynTimedRound) -> bool {
        verify_tagged(mac_key, &self.file_id, round.index, &round.segment)
    }

    /// The membership proof first — it must tie the bytes to the audited
    /// root at the challenged index (unkeyed, so replay recomputes it) —
    /// then the tag bit.
    fn judge(&self, round: &DynTimedRound, tag_ok: bool) -> SegmentVerdict {
        if round.proof.index != round.index
            || !verify_proof(&self.digest.root, &round.segment, &round.proof)
        {
            SegmentVerdict::BadProof
        } else if !tag_ok {
            SegmentVerdict::BadTag
        } else {
            SegmentVerdict::Ok
        }
    }
}

/// The verifier device.
pub struct VerifierDevice {
    signing: SigningKey,
    gps: GpsReceiver,
    clock: SimClock,
    rng: ChaChaRng,
}

impl std::fmt::Debug for VerifierDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifierDevice")
            .field("gps", &self.gps)
            .finish_non_exhaustive()
    }
}

impl VerifierDevice {
    /// Builds a device with its signing key, GPS receiver, and the clock
    /// all latencies are charged to.
    pub fn new(signing: SigningKey, gps: GpsReceiver, clock: SimClock, seed: u64) -> Self {
        VerifierDevice {
            signing,
            gps,
            clock,
            rng: ChaChaRng::from_u64_seed(seed),
        }
    }

    /// The device's public key (registered with the TPA at install time).
    pub fn verifying_key(&self) -> VerifyingKey {
        self.signing.verifying_key()
    }

    /// Mutable access to the GPS receiver (attack experiments spoof it).
    pub fn gps_mut(&mut self) -> &mut GpsReceiver {
        &mut self.gps
    }

    /// The clock this device charges round times to. The fleet simulator
    /// re-anchors it to the event scheduler's timeline.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Starts the Fig. 5 protocol, returning the per-session state
    /// machine. The device draws the k distinct challenge indices up
    /// front; the caller (a blocking loop, a worker thread, a socket or a
    /// discrete-event simulation) then feeds replies round by round and
    /// calls [`VerifierDevice::finish_audit`] for the signed transcript.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if k is outside `1..=segments`; the device then
    /// draws nothing.
    pub fn begin_audit<R: Audit>(&mut self, request: &R) -> io::Result<AuditRun<R>> {
        let (segments, k) = request.challenges();
        if k == 0 || u64::from(k) > segments {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cannot sample k = {k} distinct challenges: k must be in 1..={segments}"),
            ));
        }
        let indices = self.rng.sample_distinct(segments, k as usize);
        Ok(AuditRun {
            request: request.clone(),
            rounds: Vec::with_capacity(indices.len()),
            indices,
        })
    }

    /// Signs a completed run into the transcript the TPA verifies:
    /// `(Δt*, c, {S_cj}, N, Pos_v)` under the device key.
    ///
    /// # Panics
    ///
    /// Panics if rounds are still outstanding — a device never signs a
    /// partial transcript.
    pub fn finish_audit<R: Audit>(&mut self, run: AuditRun<R>) -> R::Transcript {
        assert!(
            run.is_complete(),
            "cannot sign a transcript with {} rounds outstanding",
            run.remaining()
        );
        let position = self.gps.read_fix().position;
        let (signing, rng) = (&self.signing, &mut self.rng);
        run.request
            .sign(position, run.rounds, |bytes| signing.sign(bytes, rng))
    }

    /// Runs the Fig. 5 protocol against `provider` and returns the signed
    /// transcript.
    ///
    /// Per round j: pick c_j, start the clock, request segment c_j, stop
    /// the clock on response; afterwards sign. A dynamic provider builds
    /// its membership proof inside the timed window, so it cannot buy
    /// time by deferring it. This is [`VerifierDevice::begin_audit`]
    /// driven to completion in a blocking loop.
    ///
    /// # Panics
    ///
    /// Panics if k is outside `1..=segments`.
    pub fn run_audit<R: Audit>(
        &mut self,
        request: &R,
        provider: &mut R::Provider,
    ) -> R::Transcript {
        let mut run = self.begin_audit(request).unwrap_or_else(|e| panic!("{e}"));
        while let Some(index) = run.next_index() {
            let timer = self.clock.start_timer();
            let (reply, service_time) = request.serve(provider, index);
            self.clock.advance(service_time);
            run.record_round(reply, timer.elapsed());
        }
        self.finish_audit(run)
    }
}

/// One audit in progress on a verifier device: the challenge/response
/// state machine every shell drives.
///
/// Rounds must be answered in challenge order (the protocol is strictly
/// sequential per session — that is what makes the timing meaningful);
/// concurrency comes from interleaving many `AuditRun`s, not from
/// reordering rounds within one.
#[derive(Debug)]
pub struct AuditRun<R: Audit> {
    request: R,
    indices: Vec<u64>,
    rounds: Vec<R::Round>,
}

impl<R: Audit> AuditRun<R> {
    /// The next index to challenge, or `None` when all rounds are done.
    pub fn next_index(&self) -> Option<u64> {
        self.indices.get(self.rounds.len()).copied()
    }

    /// Records the reply to the current round with its measured RTT.
    ///
    /// # Panics
    ///
    /// Panics if the run is already complete.
    pub fn record_round(&mut self, reply: Option<R::Reply>, rtt: SimDuration) {
        let index = self
            .next_index()
            .expect("record_round called on a completed run");
        self.rounds.push(R::round(index, reply, rtt));
    }

    /// Rounds still outstanding.
    pub fn remaining(&self) -> usize {
        self.indices.len() - self.rounds.len()
    }

    /// True when every challenge has been answered.
    pub fn is_complete(&self) -> bool {
        self.rounds.len() == self.indices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::LocalProvider;
    use geoproof_geo::coords::places::BRISBANE;
    use geoproof_net::lan::LanPath;
    use geoproof_storage::hdd::{HddModel, WD_2500JD};
    use geoproof_storage::server::StorageServer;

    fn device(seed: u64) -> VerifierDevice {
        let mut rng = ChaChaRng::from_u64_seed(seed);
        let sk = SigningKey::generate(&mut rng);
        VerifierDevice::new(sk, GpsReceiver::new(BRISBANE), SimClock::new(), seed)
    }

    fn provider() -> LocalProvider {
        let mut s = StorageServer::new(HddModel::deterministic(WD_2500JD), 1);
        s.put_file(FileId::from("f"), vec![vec![0x5au8; 83]; 50]);
        LocalProvider::new(s, LanPath::adjacent(), 2)
    }

    fn request(k: u32) -> AuditRequest {
        AuditRequest {
            file_id: "f".into(),
            n_segments: 50,
            k,
            nonce: [9u8; 32],
        }
    }

    #[test]
    fn transcript_has_k_distinct_rounds() {
        let mut v = device(1);
        let mut p = provider();
        let t = v.run_audit(&request(10), &mut p);
        assert_eq!(t.rounds.len(), 10);
        let set: std::collections::HashSet<u64> = t.rounds.iter().map(|r| r.index).collect();
        assert_eq!(set.len(), 10, "challenge indices must be distinct");
        assert!(t.rounds.iter().all(|r| r.index < 50));
    }

    #[test]
    fn rounds_measure_service_time() {
        let mut v = device(2);
        let mut p = provider();
        let t = v.run_audit(&request(5), &mut p);
        for r in &t.rounds {
            // Deterministic WD lookup ≈ 13.1 ms + adjacent LAN.
            let ms = r.rtt.as_millis_f64();
            assert!(ms > 13.0 && ms < 14.0, "round rtt {ms}");
        }
    }

    #[test]
    fn signature_verifies_under_device_key() {
        let mut v = device(3);
        let mut p = provider();
        let t = v.run_audit(&request(5), &mut p);
        let bytes = SignedTranscript::signing_bytes(&t.file_id, &t.nonce, &t.position, &t.rounds);
        assert!(v.verifying_key().verify(&bytes, &t.signature));
    }

    #[test]
    fn transcript_records_gps_fix() {
        let mut v = device(4);
        let mut p = provider();
        let t = v.run_audit(&request(3), &mut p);
        assert_eq!(t.position, BRISBANE);
    }

    #[test]
    fn missing_segments_become_empty_rounds() {
        let mut v = device(5);
        let mut p = provider();
        let req = AuditRequest {
            file_id: "nope".into(),
            n_segments: 50,
            k: 4,
            nonce: [0u8; 32],
        };
        let t = v.run_audit(&req, &mut p);
        assert!(t.rounds.iter().all(|r| r.segment.is_empty()));
    }

    #[test]
    fn stepwise_run_equals_blocking_run() {
        // Driving the state machine by hand must produce byte-identical
        // transcripts to run_audit under the same device state.
        let mut v1 = device(7);
        let mut v2 = device(7);
        let mut p1 = provider();
        let mut p2 = provider();
        let req = request(6);
        let blocking = v1.run_audit(&req, &mut p1);

        let mut run = v2.begin_audit(&req).expect("k in range");
        let fid = FileId::from("f");
        while let Some(index) = run.next_index() {
            let timer = v2.clock().start_timer();
            let (data, t) = p2.serve(&fid, index);
            v2.clock().advance(t);
            run.record_round(data, timer.elapsed());
        }
        let stepwise = v2.finish_audit(run);
        assert_eq!(blocking, stepwise);
    }

    #[test]
    #[should_panic(expected = "rounds outstanding")]
    fn partial_transcript_is_never_signed() {
        let mut v = device(8);
        let req = request(5);
        let run = v.begin_audit(&req).expect("k in range");
        let _ = v.finish_audit(run); // zero of five rounds recorded
    }

    #[test]
    fn run_tracks_progress() {
        let mut v = device(9);
        let mut run = v.begin_audit(&request(3)).expect("k in range");
        assert_eq!(run.remaining(), 3);
        assert!(!run.is_complete());
        while let Some(_idx) = run.next_index() {
            run.record_round(Some(vec![1].into()), SimDuration::from_millis(1));
        }
        assert!(run.is_complete());
        assert_eq!(run.remaining(), 0);
        assert_eq!(run.next_index(), None);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn zero_challenges_panic() {
        device(6).run_audit(&request(0), &mut provider());
    }

    #[test]
    fn out_of_range_k_is_refused_before_any_draw() {
        let mut v = device(10);
        let refused = v.begin_audit(&request(0)).map(|_| ()).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidInput);
        assert!(v.begin_audit(&request(51)).is_err());
        let after = v.begin_audit(&request(5)).expect("k in range");
        let fresh = device(10).begin_audit(&request(5)).expect("k in range");
        assert_eq!(after.next_index(), fresh.next_index());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversized_challenge_panics() {
        let mut v = device(6);
        let mut p = provider();
        let req = AuditRequest {
            file_id: "f".into(),
            n_segments: 5,
            k: 6,
            nonce: [0u8; 32],
        };
        v.run_audit(&req, &mut p);
    }
}
