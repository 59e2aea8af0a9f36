//! The third-party auditor (TPA) — the paper's verification process
//! (§V-B(b)).
//!
//! The TPA holds: the MAC key K′ for the audited file, the verifier
//! device's public key, the SLA location, and the timing policy. On
//! receiving a signed transcript it checks, in the paper's order:
//!
//! 1. the signature `Sign_SK(R)`,
//! 2. the verifier's GPS position Pos_v against the SLA location,
//! 3. `τ_cj = MAC_K′(S_cj, c_j, fid)` for every challenged segment,
//! 4. `Δt′ = max(Δt_1 … Δt_k) ≤ Δt_max`.
//!
//! One [`Auditor`] serves both audit kinds: [`Auditor::issue_request`]
//! issues a static audit and [`Auditor::issue_dynamic`] a dynamic one
//! (§IV's DPOR extension, against an owner digest). Verification is
//! generic over [`Audit`]: step 3 is the kind's [`Audit::tag_ok`] and
//! [`Audit::judge`] — for a dynamic round, its Merkle proof against the
//! digest first, then the tag.

use crate::dynamic_audit::DynAuditRequest;
use crate::evidence::EvidenceBundle;
use crate::messages::{AuditRequest, Round, Transcript};
use crate::policy::TimingPolicy;
use crate::verifier::Audit;
use geoproof_crypto::chacha::ChaChaRng;
use geoproof_crypto::schnorr::VerifyingKey;
use geoproof_geo::coords::GeoPoint;
use geoproof_por::dynamic::DynamicDigest;
use geoproof_por::encode::PorEncoder;
use geoproof_por::keys::AuditorKey;
use geoproof_sim::time::{Km, SimDuration};

/// Everything that can go wrong with an audit.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Transcript signature failed.
    BadSignature,
    /// Nonce mismatch (replayed transcript).
    StaleNonce,
    /// GPS fix too far from the SLA location.
    WrongLocation {
        /// Distance between claimed fix and SLA location.
        offset: Km,
    },
    /// A challenged segment's MAC failed.
    BadSegment {
        /// Round index within the transcript.
        round: usize,
        /// Challenged segment index.
        segment: u64,
    },
    /// A round exceeded the timing budget.
    TooSlow {
        /// Round index within the transcript.
        round: usize,
        /// Measured RTT.
        rtt: SimDuration,
    },
    /// Transcript round count differs from the requested k.
    WrongRoundCount {
        /// Requested challenges.
        expected: u32,
        /// Rounds present.
        actual: usize,
    },
    /// A challenged index repeats or exceeds ñ.
    MalformedChallenge {
        /// Round index within the transcript.
        round: usize,
    },
    /// A dynamic round's Merkle membership proof failed against the
    /// audited digest (stale pre-update segment, grafted proof, or a
    /// provider whose tree diverged).
    BadProof {
        /// Round index within the transcript.
        round: usize,
        /// Challenged segment index.
        segment: u64,
    },
    /// A dynamic transcript echoes a digest other than the one the audit
    /// was issued against (replay across updates).
    StaleDigest,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::BadSignature => write!(f, "transcript signature invalid"),
            Violation::StaleNonce => write!(f, "nonce mismatch (replay?)"),
            Violation::WrongLocation { offset } => {
                write!(f, "verifier {offset} from SLA location")
            }
            Violation::BadSegment { round, segment } => {
                write!(f, "round {round}: segment {segment} failed MAC")
            }
            Violation::TooSlow { round, rtt } => {
                write!(f, "round {round}: {rtt} over budget")
            }
            Violation::WrongRoundCount { expected, actual } => {
                write!(f, "expected {expected} rounds, got {actual}")
            }
            Violation::MalformedChallenge { round } => {
                write!(f, "round {round}: malformed challenge index")
            }
            Violation::BadProof { round, segment } => {
                write!(f, "round {round}: segment {segment} failed Merkle proof")
            }
            Violation::StaleDigest => write!(f, "digest mismatch (stale state replay?)"),
        }
    }
}

/// The auditor's decision with full diagnostics.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditReport {
    /// Empty means the audit passed.
    pub violations: Vec<Violation>,
    /// Largest observed round time Δt′.
    pub max_rtt: SimDuration,
    /// Number of MAC-verified segments.
    pub segments_ok: usize,
}

impl AuditReport {
    /// True when no violations were recorded.
    pub fn accepted(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The third-party auditor for one file, static or dynamic: it issues
/// either kind of request and judges either kind of transcript through
/// the one check sequence, [`VerifyChecks`].
pub struct Auditor {
    file_id: String,
    n_segments: u64,
    auditor_key: AuditorKey,
    device_key: VerifyingKey,
    sla_location: GeoPoint,
    location_tolerance: Km,
    policy: TimingPolicy,
    encoder: PorEncoder,
    rng: ChaChaRng,
}

impl std::fmt::Debug for Auditor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Auditor")
            .field("file_id", &self.file_id)
            .field("n_segments", &self.n_segments)
            .field("sla_location", &self.sla_location)
            .finish_non_exhaustive()
    }
}

impl Auditor {
    /// Creates an auditor.
    ///
    /// `n_segments` is the static file's segment count (a dynamic
    /// request carries its own in its digest); `encoder` carries the
    /// static POR parameters (segment layout, tag width); `auditor_key`
    /// is the MAC key the owner shared; `device_key` is the verifier's
    /// registered public key; `sla_location` is where the SLA says the
    /// data lives.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        file_id: String,
        n_segments: u64,
        encoder: PorEncoder,
        auditor_key: AuditorKey,
        device_key: VerifyingKey,
        sla_location: GeoPoint,
        location_tolerance: Km,
        policy: TimingPolicy,
        seed: u64,
    ) -> Self {
        Auditor {
            file_id,
            n_segments,
            auditor_key,
            device_key,
            sla_location,
            location_tolerance,
            policy,
            encoder,
            rng: ChaChaRng::from_u64_seed(seed),
        }
    }

    /// The active timing policy.
    pub fn policy(&self) -> &TimingPolicy {
        &self.policy
    }

    fn fresh_nonce(&mut self) -> [u8; 32] {
        let mut nonce = [0u8; 32];
        self.rng.fill_bytes(&mut nonce);
        nonce
    }

    /// Issues a fresh audit request with `k` challenges and a random nonce.
    pub fn issue_request(&mut self, k: u32) -> AuditRequest {
        AuditRequest {
            file_id: self.file_id.clone(),
            n_segments: self.n_segments,
            k,
            nonce: self.fresh_nonce(),
        }
    }

    /// Issues a fresh dynamic audit of `k` challenges against `digest`
    /// (the owner's current one — the digest evolves with every update),
    /// its nonce drawn as [`Auditor::issue_request`] draws it.
    pub fn issue_dynamic(&mut self, digest: DynamicDigest, k: u32) -> DynAuditRequest {
        DynAuditRequest {
            file_id: self.file_id.clone(),
            digest,
            k,
            nonce: self.fresh_nonce(),
        }
    }

    fn checks(&self) -> VerifyChecks<'_> {
        VerifyChecks {
            device_key: &self.device_key,
            sla_location: self.sla_location,
            location_tolerance: self.location_tolerance,
            policy: &self.policy,
        }
    }

    /// Runs the §V-B(b) verification of a transcript against the request
    /// that triggered it.
    pub fn verify<R: Audit>(&self, request: &R, transcript: &R::Transcript) -> AuditReport {
        let tag_ok = request.tag_bits(&self.encoder, self.auditor_key.mac_key(), transcript);
        self.checks()
            .verify_transcript(request, transcript, &tag_ok)
    }

    /// Like [`Auditor::verify`], but also materialises the durable
    /// [`EvidenceBundle`] for this verdict: canonical transcript bytes,
    /// per-round tag bits, and the acceptance parameters the verdict was
    /// derived under. The report inside the bundle is byte-identical
    /// (under [`crate::evidence::encode_report`]) to the returned one.
    pub fn verify_evidence<R: Audit>(
        &self,
        request: &R,
        transcript: &R::Transcript,
        prover: impl Into<String>,
        epoch: u64,
    ) -> (AuditReport, EvidenceBundle<R>) {
        let tag_ok = request.tag_bits(&self.encoder, self.auditor_key.mac_key(), transcript);
        let checks = self.checks();
        let report = checks.verify_transcript(request, transcript, &tag_ok);
        let bundle = checks.bundle(
            prover.into(),
            epoch,
            request.clone(),
            tag_ok,
            report.clone(),
            transcript,
        );
        (report, bundle)
    }
}

/// The one §V-B(b) check sequence every audit path applies, static and
/// dynamic, live and replayed — signature, nonce (and, for a dynamic
/// audit, digest) freshness, GPS, round sanity, per-segment judgement,
/// timing. Each round is judged by its kind's [`Audit::judge`] from a
/// tag bit the caller supplies, so [`Auditor::verify`], the engine and
/// the offline replay run *exactly the same* logic and differ only in
/// where the bits come from: [`Audit::tag_bits`] live, the record in
/// replay.
#[derive(Clone, Debug)]
pub struct VerifyChecks<'a> {
    /// The verifier device's registered public key.
    pub device_key: &'a VerifyingKey,
    /// Where the SLA says the data lives.
    pub sla_location: GeoPoint,
    /// Accepted GPS offset from the SLA location.
    pub location_tolerance: Km,
    /// The Δt_max policy.
    pub policy: &'a TimingPolicy,
}

/// The outcome of judging one returned segment ([`Audit::judge`]). The
/// static scheme only distinguishes tag success/failure; the dynamic
/// scheme also has a Merkle membership proof that can fail independently
/// of (and is checked before) the tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentVerdict {
    /// Segment authentic (proof, where applicable, and tag both hold).
    Ok,
    /// The keyed MAC tag failed.
    BadTag,
    /// The Merkle membership proof failed (dynamic audits only).
    BadProof,
}

impl VerifyChecks<'_> {
    /// Runs the full §V-B(b) check sequence; `tag_ok[i]` is round i's
    /// keyed tag bit (a missing bit reads as failed).
    pub fn verify_transcript<R: Audit>(
        &self,
        request: &R,
        transcript: &R::Transcript,
        tag_ok: &[bool],
    ) -> AuditReport {
        let sig_ok = self
            .device_key
            .verify(&transcript.signing_bytes_of(), transcript.signature());
        self.verify_transcript_presigned(request, transcript, sig_ok, tag_ok)
    }

    /// [`VerifyChecks::verify_transcript`] with the signature verdict
    /// supplied by the caller — the hook batched replay uses to check
    /// hundreds of transcript signatures in one multi-scalar equation
    /// and then re-derive each verdict with the precomputed bit. The
    /// verdict is identical to the sequential path whenever `sig_ok`
    /// equals what `device_key.verify` returns over the transcript's
    /// canonical signing bytes.
    pub fn verify_transcript_presigned<R: Audit>(
        &self,
        request: &R,
        transcript: &R::Transcript,
        sig_ok: bool,
        tag_ok: &[bool],
    ) -> AuditReport {
        let mut violations = Vec::new();

        // 1. Signature over the canonical transcript bytes.
        if !sig_ok {
            violations.push(Violation::BadSignature);
        }

        // Nonce freshness (binds transcript to this request), and — for
        // dynamic audits — digest freshness (binds it to this state).
        if transcript.nonce() != request.nonce() || transcript.file_id() != request.file_id() {
            violations.push(Violation::StaleNonce);
        }
        if *transcript.binding() != request.binding() {
            violations.push(Violation::StaleDigest);
        }

        // 2. GPS position against the SLA location.
        let offset = transcript.position().distance(&self.sla_location);
        if offset.0 > self.location_tolerance.0 {
            violations.push(Violation::WrongLocation { offset });
        }

        // Round count and challenge sanity.
        let rounds = transcript.rounds();
        let (n_segments, expected) = request.challenges();
        if rounds.len() != expected as usize {
            violations.push(Violation::WrongRoundCount {
                expected,
                actual: rounds.len(),
            });
        }
        let mut seen = std::collections::HashSet::new();
        for (i, round) in rounds.iter().enumerate() {
            if round.index() >= n_segments || !seen.insert(round.index()) {
                violations.push(Violation::MalformedChallenge { round: i });
            }
        }

        // 3. Authenticity of every returned segment (membership proof
        // first where there is one, then the keyed tag).
        let mut segments_ok = 0;
        for (i, round) in rounds.iter().enumerate() {
            let segment = round.index();
            match request.judge(round, tag_ok.get(i).copied().unwrap_or(false)) {
                SegmentVerdict::Ok => segments_ok += 1,
                SegmentVerdict::BadTag => {
                    violations.push(Violation::BadSegment { round: i, segment })
                }
                SegmentVerdict::BadProof => {
                    violations.push(Violation::BadProof { round: i, segment })
                }
            }
        }

        // 4. Timing: max Δt_j ≤ Δt_max.
        for (i, round) in rounds.iter().enumerate() {
            if round.rtt() > self.policy.max_rtt() {
                violations.push(Violation::TooSlow {
                    round: i,
                    rtt: round.rtt(),
                });
            }
        }

        AuditReport {
            violations,
            max_rtt: transcript.max_rtt(),
            segments_ok,
        }
    }

    /// The durable [`EvidenceBundle`] of a verdict these checks reached:
    /// the acceptance parameters, the request, the per-round MAC (or
    /// dynamic tag) bits, the report and the canonical transcript bytes.
    pub fn bundle<R: Audit>(
        &self,
        prover: String,
        epoch: u64,
        request: R,
        mac_ok: Vec<bool>,
        report: AuditReport,
        transcript: &R::Transcript,
    ) -> EvidenceBundle<R> {
        EvidenceBundle {
            prover,
            epoch,
            device_key: self.device_key.to_bytes(),
            sla_location: self.sla_location,
            location_tolerance: self.location_tolerance,
            policy: *self.policy,
            request,
            mac_ok,
            report,
            transcript: transcript.canonical_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic_audit::DynSignedTranscript;
    use crate::messages::SignedTranscript;
    use crate::provider::{DelayedProvider, LocalProvider};
    use crate::verifier::VerifierDevice;
    use geoproof_geo::coords::places::{BRISBANE, PERTH};
    use geoproof_geo::gps::GpsReceiver;
    use geoproof_net::lan::LanPath;
    use geoproof_por::keys::PorKeys;
    use geoproof_por::params::PorParams;
    use geoproof_sim::clock::SimClock;
    use geoproof_storage::hdd::{HddModel, WD_2500JD};
    use geoproof_storage::server::{FileId, StorageServer};

    /// Issues a request of one kind for k challenges.
    type Issue<R> = Box<dyn Fn(&mut Auditor, u32) -> R>;

    /// An auditor, its verifier device and a prover, for one audit kind.
    struct Rig<R: Kind> {
        auditor: Auditor,
        verifier: VerifierDevice,
        provider: Box<R::Provider>,
        issue: Issue<R>,
    }

    impl<R: Kind> Rig<R> {
        fn issue(&mut self, k: u32) -> R {
            (self.issue)(&mut self.auditor, k)
        }

        fn run(&mut self, request: &R) -> R::Transcript {
            self.verifier.run_audit(request, &mut *self.provider)
        }
    }

    /// What the table needs of an audit kind beyond [`Audit`].
    trait Kind: Audit {
        /// A rig whose honest prover adds `delay` to every round.
        fn rig(delay: SimDuration) -> Rig<Self>;
        fn set_rtt(transcript: &mut Self::Transcript, round: usize, rtt: SimDuration);
    }

    impl Kind for AuditRequest {
        fn rig(delay: SimDuration) -> Rig<Self> {
            let (auditor, verifier, provider) = static_rig();
            Rig {
                auditor,
                verifier,
                provider: Box::new(DelayedProvider::new(provider, delay)),
                issue: Box::new(|auditor, k| auditor.issue_request(k)),
            }
        }
        fn set_rtt(transcript: &mut SignedTranscript, round: usize, rtt: SimDuration) {
            transcript.rounds[round].rtt = rtt;
        }
    }

    impl Kind for DynAuditRequest {
        fn rig(delay: SimDuration) -> Rig<Self> {
            let r = crate::dynamic_audit::tests::rig(SimDuration::from_millis(5) + delay);
            let digest = r.owner.digest();
            Rig {
                auditor: r.auditor,
                verifier: r.verifier,
                provider: Box::new(r.provider),
                issue: Box::new(move |auditor, k| auditor.issue_dynamic(digest, k)),
            }
        }
        fn set_rtt(transcript: &mut DynSignedTranscript, round: usize, rtt: SimDuration) {
            transcript.rounds[round].rtt = rtt;
        }
    }

    /// A static auditor, device and provider over one small encoded file.
    fn static_rig() -> (Auditor, VerifierDevice, LocalProvider) {
        let params = PorParams::test_small();
        let encoder = PorEncoder::new(params);
        let keys = PorKeys::derive(b"master", "f");
        let data: Vec<u8> = (0..4000u32).map(|i| i as u8).collect();
        let tagged = encoder.encode(&data, &keys, "f");
        let n = tagged.metadata.segments;

        let mut storage = StorageServer::new(HddModel::deterministic(WD_2500JD), 1);
        storage.put_file(FileId::from("f"), tagged.segments.clone());
        let provider = LocalProvider::new(storage, LanPath::adjacent(), 2);

        let mut rng = ChaChaRng::from_u64_seed(10);
        let sk = geoproof_crypto::schnorr::SigningKey::generate(&mut rng);
        let verifier =
            VerifierDevice::new(sk.clone(), GpsReceiver::new(BRISBANE), SimClock::new(), 3);

        let auditor = Auditor::new(
            "f".into(),
            n,
            PorEncoder::new(params),
            keys.auditor_view(),
            sk.verifying_key(),
            BRISBANE,
            Km(10.0),
            TimingPolicy::paper(),
            4,
        );
        (auditor, verifier, provider)
    }

    fn rig<R: Kind>() -> Rig<R> {
        R::rig(SimDuration::ZERO)
    }

    fn honest_audit_accepts<R: Kind>() {
        let mut r = rig::<R>();
        let req = r.issue(20);
        let t = r.run(&req);
        let report = r.auditor.verify(&req, &t);
        assert!(report.accepted(), "violations: {:?}", report.violations);
        assert_eq!(report.segments_ok, 20);
        assert!(report.max_rtt <= TimingPolicy::paper().max_rtt());
    }

    fn spoofed_gps_is_flagged<R: Kind>() {
        let mut r = rig::<R>();
        r.verifier.gps_mut().spoof(PERTH);
        let req = r.issue(5);
        let t = r.run(&req);
        let report = r.auditor.verify(&req, &t);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::WrongLocation { .. })));
    }

    fn replayed_transcript_is_flagged<R: Kind>() {
        let mut r = rig::<R>();
        let req1 = r.issue(5);
        let t1 = r.run(&req1);
        // Fresh request, old transcript.
        let req2 = r.issue(5);
        let report = r.auditor.verify(&req2, &t1);
        assert!(report.violations.contains(&Violation::StaleNonce));
    }

    fn tampered_transcript_breaks_signature<R: Kind>() {
        let mut r = rig::<R>();
        let req = r.issue(5);
        let mut t = r.run(&req);
        R::set_rtt(&mut t, 0, SimDuration::from_millis(1)); // forge a faster time
        let report = r.auditor.verify(&req, &t);
        assert!(report.violations.contains(&Violation::BadSignature));
    }

    fn slow_rounds_are_flagged<R: Kind>() {
        let mut r = R::rig(SimDuration::from_millis(40));
        let req = r.issue(5);
        let t = r.run(&req);
        let report = r.auditor.verify(&req, &t);
        assert!(!report.accepted());
        assert!(report
            .violations
            .iter()
            .all(|v| matches!(v, Violation::TooSlow { .. })));
    }

    fn verify_evidence_matches_verify_and_bundles_canonical_bytes<R: Kind>()
    where
        R::Transcript: PartialEq + std::fmt::Debug,
    {
        let mut r = rig::<R>();
        let req = r.issue(8);
        let t = r.run(&req);
        let plain = r.auditor.verify(&req, &t);
        let (report, bundle) = r.auditor.verify_evidence(&req, &t, "acme-cloud", 3);
        assert_eq!(report, plain, "evidence path must not change verdicts");
        assert_eq!(bundle.report, plain);
        assert_eq!(bundle.prover, "acme-cloud");
        assert_eq!(bundle.epoch, 3);
        assert_eq!(bundle.mac_ok.len(), 8);
        assert!(bundle.mac_ok.iter().all(|&ok| ok));
        let parsed = R::Transcript::from_canonical(&bundle.transcript).expect("parse");
        assert_eq!(parsed, t);
    }

    /// Each case runs once per audit kind, as `<case>::static_kind` and
    /// `<case>::dynamic_kind`, through the one [`Auditor`].
    macro_rules! both_kinds {
        ($($case:ident),* $(,)?) => {$(
            mod $case {
                use super::*;
                #[test]
                fn static_kind() {
                    super::$case::<AuditRequest>();
                }
                #[test]
                fn dynamic_kind() {
                    super::$case::<DynAuditRequest>();
                }
            }
        )*};
    }

    both_kinds!(
        honest_audit_accepts,
        spoofed_gps_is_flagged,
        replayed_transcript_is_flagged,
        tampered_transcript_breaks_signature,
        slow_rounds_are_flagged,
        verify_evidence_matches_verify_and_bundles_canonical_bytes,
    );

    #[test]
    fn corrupted_segment_is_flagged() {
        let (mut auditor, mut verifier, mut provider) = static_rig();
        // Corrupt everything so any challenge set hits corruption.
        let n = provider
            .storage_mut()
            .segment_count(&FileId::from("f"))
            .unwrap();
        provider
            .storage_mut()
            .corrupt_segments(&FileId::from("f"), 0..n, 0x80);
        let req = auditor.issue_request(10);
        let t = verifier.run_audit(&req, &mut provider);
        let report = auditor.verify(&req, &t);
        assert!(!report.accepted());
        assert!(report
            .violations
            .iter()
            .all(|v| matches!(v, Violation::BadSegment { .. })));
        assert_eq!(report.violations.len(), 10);
    }

    #[test]
    fn wrong_round_count_is_flagged() {
        let (mut auditor, mut verifier, mut provider) = static_rig();
        let req = auditor.issue_request(5);
        let mut t = verifier.run_audit(&req, &mut provider);
        t.rounds.pop();
        let report = auditor.verify(&req, &t);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            Violation::WrongRoundCount {
                expected: 5,
                actual: 4
            }
        )));
    }

    #[test]
    fn report_display_is_readable() {
        let v = Violation::TooSlow {
            round: 3,
            rtt: SimDuration::from_millis(20),
        };
        let s = format!("{v}");
        assert!(s.contains("round 3"));
    }
}
