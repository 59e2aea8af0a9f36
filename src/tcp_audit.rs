//! Full GeoProof audits over real TCP with wall-clock timing: the TCP
//! shell of [`geoproof_core::verifier::AuditRun`].
//!
//! Bridges `geoproof-core` (roles, transcripts, verification) and
//! `geoproof-wire` (framing, sockets): a [`WallClockVerifier`] drives the
//! same audit machine as the simulated [`VerifierDevice`] — index draw,
//! round assembly and signing are the machine's — and only carries each
//! challenge to a [`geoproof_wire::MuxProverServer`] and times its reply
//! with `std::time::Instant`. It emits the same transcript types, so the
//! *identical* TPA verification path judges real-network runs.

use geoproof_core::dynamic_audit::DynAuditRequest;
use geoproof_core::messages::AuditRequest;
use geoproof_core::verifier::{Audit, VerifierDevice};
use geoproof_crypto::schnorr::{SigningKey, VerifyingKey};
use geoproof_geo::gps::GpsReceiver;
use geoproof_por::dynamic::ProvenSegment;
use geoproof_sim::clock::SimClock;
use geoproof_sim::time::SimDuration;
use geoproof_wire::tcp::TcpChallenger;
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// A request the TCP shell can put on the wire: the frame its challenge
/// travels in.
pub trait TcpAudit: Audit {
    /// Sends challenge `index` and returns the reply with its wall-clock
    /// round-trip time.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and unexpected replies.
    fn challenge(
        &self,
        challenger: &mut TcpChallenger,
        index: u64,
    ) -> io::Result<(Option<Self::Reply>, Duration)>;
}

impl TcpAudit for AuditRequest {
    fn challenge(
        &self,
        challenger: &mut TcpChallenger,
        index: u64,
    ) -> io::Result<(Option<Self::Reply>, Duration)> {
        challenger.challenge(&self.file_id, index)
    }
}

impl TcpAudit for DynAuditRequest {
    fn challenge(
        &self,
        challenger: &mut TcpChallenger,
        index: u64,
    ) -> io::Result<(Option<Self::Reply>, Duration)> {
        let (served, rtt) = challenger.dyn_challenge(&self.file_id, index)?;
        Ok((
            served.map(|(segment, proof)| ProvenSegment { segment, proof }),
            rtt,
        ))
    }
}

/// A verifier device that times rounds on the host's real clock.
#[derive(Debug)]
pub struct WallClockVerifier {
    device: VerifierDevice,
}

impl WallClockVerifier {
    /// Creates the device.
    pub fn new(signing: SigningKey, gps: GpsReceiver, seed: u64) -> Self {
        WallClockVerifier {
            device: VerifierDevice::new(signing, gps, SimClock::new(), seed),
        }
    }

    /// The device's public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.device.verifying_key()
    }

    /// Runs a static or dynamic audit against a TCP prover at `prover`:
    /// k distinct random challenges, wall-clock Δt_j per round, signed
    /// transcript. A dynamic reply's Merkle membership proof is fetched
    /// inside the timed window.
    ///
    /// # Errors
    ///
    /// `InvalidInput`, before connecting, if k is outside `1..=segments`.
    /// Socket errors are propagated naming the round they hit; a prover
    /// silent for the challenger's reply timeout is `TimedOut`.
    pub fn run_audit<R: TcpAudit>(
        &mut self,
        request: &R,
        prover: SocketAddr,
    ) -> io::Result<R::Transcript> {
        let mut run = self.device.begin_audit(request)?;
        let mut challenger = TcpChallenger::connect(prover)?;
        let k = run.remaining();
        while let Some(index) = run.next_index() {
            let (reply, rtt) = request.challenge(&mut challenger, index).map_err(|e| {
                let round = k - run.remaining() + 1;
                io::Error::new(e.kind(), format!("round {round} of {k}: {e}"))
            })?;
            let rtt = SimDuration::from_nanos(u64::try_from(rtt.as_nanos()).unwrap_or(u64::MAX));
            run.record_round(reply, rtt);
        }
        let _ = challenger.bye();
        Ok(self.device.finish_audit(run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoproof_core::auditor::Auditor;
    use geoproof_core::messages::{SignedTranscript, Transcript};
    use geoproof_core::policy::TimingPolicy;
    use geoproof_crypto::chacha::ChaChaRng;
    use geoproof_geo::coords::places::BRISBANE;
    use geoproof_por::dynamic::DynamicStore;
    use geoproof_por::encode::PorEncoder;
    use geoproof_por::keys::PorKeys;
    use geoproof_por::params::PorParams;
    use geoproof_sim::time::Km;
    use geoproof_wire::tcp::SegmentStore;
    use geoproof_wire::MuxProverServer;
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::net::TcpListener;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    struct TcpRig {
        server: MuxProverServer,
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
        let server = MuxProverServer::spawn_reactor(store, service_delay).expect("bind");
        let addr = server.addr();

        let sk = signing_key();
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
            server,
            addr,
            verifier,
            auditor,
        }
    }

    fn signing_key() -> SigningKey {
        SigningKey::generate(&mut ChaChaRng::from_u64_seed(1))
    }

    /// The SimClock device the TCP shell must agree with: same key, GPS
    /// fix and seed as the rig's `WallClockVerifier`.
    fn sim_device() -> VerifierDevice {
        VerifierDevice::new(
            signing_key(),
            GpsReceiver::new(BRISBANE),
            SimClock::new(),
            2,
        )
    }

    #[test]
    fn tcp_transcript_replays_byte_identically_through_the_sim_device() {
        let mut r = rig(Duration::ZERO, TimingPolicy::paper());
        let req = r.auditor.issue_request(8);
        let live = r.verifier.run_audit(&req, r.addr).expect("audit I/O");
        assert!(r.auditor.verify(&req, &live).accepted());

        let mut device = sim_device();
        let mut run = device.begin_audit(&req).expect("k in range");
        for round in &live.rounds {
            assert_eq!(run.next_index(), Some(round.index));
            run.record_round(Some(round.segment.clone()), round.rtt);
        }
        let replayed = device.finish_audit(run);
        assert_eq!(replayed.canonical_bytes(), live.canonical_bytes());
    }

    #[test]
    fn dynamic_tcp_transcript_replays_byte_identically_through_the_sim_device() {
        let r = rig(Duration::ZERO, TimingPolicy::paper());
        let keys = PorKeys::derive(b"tcp-master", "df");
        let bodies: Vec<Vec<u8>> = (0..24).map(|i| vec![i as u8; 40]).collect();
        let (store, _) = DynamicStore::initialise("df", &bodies, &keys);
        let tagged = (0..24u64).map(|i| store.segment(i).unwrap()).collect();
        let digest = r.server.put_dynamic("df", tagged);
        let mut auditor = Auditor::new(
            "df".into(),
            digest.segments,
            PorEncoder::new(PorParams::paper()),
            keys.auditor_view(),
            signing_key().verifying_key(),
            BRISBANE,
            Km(25.0),
            TimingPolicy::paper(),
            3,
        );
        let req = auditor.issue_dynamic(digest, 6);
        let mut verifier = r.verifier;
        let live = verifier.run_audit(&req, r.addr).expect("audit I/O");
        let report = auditor.verify(&req, &live);
        assert!(report.accepted(), "violations: {:?}", report.violations);

        let mut device = sim_device();
        let mut run = device.begin_audit(&req).expect("k in range");
        for round in &live.rounds {
            assert_eq!(run.next_index(), Some(round.index));
            let served = ProvenSegment {
                segment: round.segment.clone(),
                proof: round.proof.clone(),
            };
            run.record_round(Some(served), round.rtt);
        }
        let replayed = device.finish_audit(run);
        assert_eq!(replayed.canonical_bytes(), live.canonical_bytes());
    }

    /// Runs one k = 3 audit against `addr` on its own thread and waits at
    /// most `limit` for its outcome.
    fn audit_within(addr: SocketAddr, limit: Duration) -> std::io::Result<SignedTranscript> {
        let mut verifier = WallClockVerifier::new(signing_key(), GpsReceiver::new(BRISBANE), 2);
        let req = AuditRequest {
            file_id: "tf".into(),
            n_segments: 10,
            k: 3,
            nonce: [1; 32],
        };
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(verifier.run_audit(&req, addr));
        });
        rx.recv_timeout(limit)
            .expect("the audit hung on a silent prover")
    }

    #[test]
    fn a_silent_prover_times_out_naming_the_round() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // Accept and hold the connection, never answering.
        std::thread::spawn(move || {
            let held = listener.accept();
            std::thread::sleep(Duration::from_secs(30));
            drop(held);
        });
        let err = audit_within(addr, Duration::from_secs(10)).expect_err("no reply");
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
        assert!(
            err.to_string()
                .contains("round 1 of 3: no reply within 2 s"),
            "{err}"
        );
    }

    /// k outside 1..=n (`k_of(n)`) is refused with `InvalidInput` before
    /// any connection is made.
    fn refuses_k_before_connecting(k_of: fn(u64) -> u32) {
        let mut r = rig(Duration::ZERO, TimingPolicy::paper());
        let mut req = r.auditor.issue_request(1);
        req.k = k_of(req.n_segments);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let err = r
            .verifier
            .run_audit(&req, listener.local_addr().expect("addr"))
            .expect_err("k out of range");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        let accepted = listener.accept().map(|_| ()).map_err(|e| e.kind());
        assert_eq!(accepted, Err(std::io::ErrorKind::WouldBlock), "connected");
    }

    #[test]
    fn zero_challenges_are_refused_before_connecting() {
        refuses_k_before_connecting(|_| 0);
    }

    #[test]
    fn more_challenges_than_segments_are_refused_before_connecting() {
        refuses_k_before_connecting(|n| u32::try_from(n + 1).expect("small file"));
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
