//! Full GeoProof audits over real TCP with wall-clock timing.
//!
//! Bridges `geoproof-core` (roles, transcripts, verification) and
//! `geoproof-wire` (framing, sockets): a [`WallClockVerifier`] runs the
//! Fig. 5 challenge loop against a [`geoproof_wire::MuxProverServer`],
//! timing each round with `std::time::Instant`, and emits the same
//! [`SignedTranscript`] the simulated verifier produces — so the
//! *identical* TPA verification path judges real-network runs.

use geoproof_core::dynamic_audit::{DynAuditRequest, DynSignedTranscript, DynTimedRound};
use geoproof_core::messages::{AuditRequest, SignedTranscript, TimedRound};
use geoproof_crypto::chacha::ChaChaRng;
use geoproof_crypto::schnorr::{SigningKey, VerifyingKey};
use geoproof_geo::gps::GpsReceiver;
use geoproof_por::merkle::MerkleProof;
use geoproof_sim::time::SimDuration;
use geoproof_wire::tcp::TcpChallenger;
use std::net::SocketAddr;

/// A verifier device variant that times rounds on the host's real clock.
pub struct WallClockVerifier {
    signing: SigningKey,
    gps: GpsReceiver,
    rng: ChaChaRng,
}

impl std::fmt::Debug for WallClockVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WallClockVerifier")
            .field("gps", &self.gps)
            .finish_non_exhaustive()
    }
}

impl WallClockVerifier {
    /// Creates the device.
    pub fn new(signing: SigningKey, gps: GpsReceiver, seed: u64) -> Self {
        WallClockVerifier {
            signing,
            gps,
            rng: ChaChaRng::from_u64_seed(seed),
        }
    }

    /// The device's public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.signing.verifying_key()
    }

    /// Runs the audit against a TCP prover at `prover`: k distinct random
    /// challenges, wall-clock Δt_j per round, signed transcript.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn run_audit(
        &mut self,
        request: &AuditRequest,
        prover: SocketAddr,
    ) -> std::io::Result<SignedTranscript> {
        let mut challenger = TcpChallenger::connect(prover)?;
        let indices = self
            .rng
            .sample_distinct(request.n_segments, request.k as usize);
        let mut rounds = Vec::with_capacity(indices.len());
        for &index in &indices {
            let (segment, rtt) = challenger.challenge(&request.file_id, index)?;
            rounds.push(TimedRound {
                index,
                segment: segment.unwrap_or_default(),
                rtt: SimDuration::from_nanos(rtt.as_nanos().min(u128::from(u64::MAX)) as u64),
            });
        }
        let _ = challenger.bye();
        let position = self.gps.read_fix().position;
        let bytes =
            SignedTranscript::signing_bytes(&request.file_id, &request.nonce, &position, &rounds);
        let signature = self.signing.sign(&bytes, &mut self.rng);
        Ok(SignedTranscript {
            file_id: request.file_id.clone(),
            nonce: request.nonce,
            position,
            rounds,
            signature,
        })
    }

    /// Runs a *dynamic* audit against a TCP prover: k distinct random
    /// challenges out of the digest's segment count, each answered with
    /// a Merkle membership proof fetched **inside** the timed window,
    /// wall-clock Δt_j per round, signed transcript echoing the audited
    /// digest.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn run_dyn_audit(
        &mut self,
        request: &DynAuditRequest,
        prover: SocketAddr,
    ) -> std::io::Result<DynSignedTranscript> {
        let mut challenger = TcpChallenger::connect(prover)?;
        let indices = self
            .rng
            .sample_distinct(request.digest.segments, request.k as usize);
        let mut rounds = Vec::with_capacity(indices.len());
        for &index in &indices {
            let (served, rtt) = challenger.dyn_challenge(&request.file_id, index)?;
            let (segment, proof) = match served {
                Some((segment, proof)) => (segment, proof),
                None => (
                    bytes::Bytes::new(),
                    MerkleProof {
                        index,
                        siblings: Vec::new(),
                    },
                ),
            };
            rounds.push(DynTimedRound {
                index,
                segment,
                proof,
                rtt: SimDuration::from_nanos(rtt.as_nanos().min(u128::from(u64::MAX)) as u64),
            });
        }
        let _ = challenger.bye();
        let position = self.gps.read_fix().position;
        let bytes = DynSignedTranscript::signing_bytes(
            &request.file_id,
            &request.nonce,
            &request.digest,
            &position,
            &rounds,
        );
        let signature = self.signing.sign(&bytes, &mut self.rng);
        Ok(DynSignedTranscript {
            file_id: request.file_id.clone(),
            nonce: request.nonce,
            digest: request.digest,
            position,
            rounds,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoproof_core::auditor::Auditor;
    use geoproof_core::policy::TimingPolicy;
    use geoproof_geo::coords::places::BRISBANE;
    use geoproof_por::encode::PorEncoder;
    use geoproof_por::keys::PorKeys;
    use geoproof_por::params::PorParams;
    use geoproof_sim::time::Km;
    use geoproof_wire::tcp::SegmentStore;
    use geoproof_wire::MuxProverServer;
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Duration;

    struct TcpRig {
        _server: MuxProverServer,
        addr: SocketAddr,
        verifier: WallClockVerifier,
        auditor: Auditor,
    }

    fn rig(service_delay: Duration, policy: TimingPolicy) -> TcpRig {
        let params = PorParams::test_small();
        let encoder = PorEncoder::new(params);
        let keys = PorKeys::derive(b"tcp-master", "tf");
        let data: Vec<u8> = (0..8000u32).map(|i| i as u8).collect();
        let tagged = encoder.encode_arena(&data, &keys, "tf");
        let n = tagged.metadata().segments;

        let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
        store.lock().insert("tf".to_owned(), tagged.segments());
        let server = MuxProverServer::spawn(store, service_delay).expect("bind");
        let addr = server.addr();

        let mut rng = ChaChaRng::from_u64_seed(1);
        let sk = SigningKey::generate(&mut rng);
        let verifier = WallClockVerifier::new(sk.clone(), GpsReceiver::new(BRISBANE), 2);
        let auditor = Auditor::new(
            "tf".into(),
            n,
            PorEncoder::new(params),
            keys.auditor_view(),
            sk.verifying_key(),
            BRISBANE,
            Km(25.0),
            policy,
            3,
        );
        TcpRig {
            _server: server,
            addr,
            verifier,
            auditor,
        }
    }

    #[test]
    fn tcp_audit_end_to_end_accepts_fast_prover() {
        let mut r = rig(Duration::ZERO, TimingPolicy::paper());
        let req = r.auditor.issue_request(8);
        let transcript = r.verifier.run_audit(&req, r.addr).expect("audit I/O");
        let report = r.auditor.verify(&req, &transcript);
        assert!(report.accepted(), "violations: {:?}", report.violations);
        assert_eq!(report.segments_ok, 8);
    }

    #[test]
    fn tcp_audit_rejects_slow_prover_on_timing() {
        // 30 ms service delay stands in for relay + remote look-up.
        let mut r = rig(Duration::from_millis(30), TimingPolicy::paper());
        let req = r.auditor.issue_request(5);
        let transcript = r.verifier.run_audit(&req, r.addr).expect("audit I/O");
        let report = r.auditor.verify(&req, &transcript);
        assert!(!report.accepted());
        assert!(report
            .violations
            .iter()
            .all(|v| matches!(v, geoproof_core::auditor::Violation::TooSlow { .. })));
    }

    #[test]
    fn tcp_transcript_signature_is_sound() {
        let mut r = rig(Duration::ZERO, TimingPolicy::paper());
        let req = r.auditor.issue_request(4);
        let mut transcript = r.verifier.run_audit(&req, r.addr).expect("audit I/O");
        transcript.rounds[0].rtt = SimDuration::from_nanos(1); // forge
        let report = r.auditor.verify(&req, &transcript);
        assert!(report
            .violations
            .contains(&geoproof_core::auditor::Violation::BadSignature));
    }
}
