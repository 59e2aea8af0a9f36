//! `audit`: the paper's TPA (Fig. 5). It issues the nonce, drives the
//! verifier device's timed rounds over TCP, and seals the verdict into
//! the evidence ledger.
//!
//! One [`Session`] holds what every mode shares — address, store,
//! master, k, the Δt_max budget, prover id, ledger, transcript and
//! metrics address — plus the one device constructor, the k-range
//! check and the verdict/exit path. The static, dynamic (`--dynamic`)
//! and multi-vantage (`--vantages N`) modes keep only what differs.

use super::args::Args;
use super::store::{dyn_owner, read_dyn_store, read_store};
use super::{fresh_seed, fresh_seed_u64, hex, open_ledger, parse_addr, tpa_ledger_key, CliResult};
use geoproof::core::auditor::{AuditReport, Auditor};
use geoproof::core::messages::Transcript;
use geoproof::core::policy::TimingPolicy;
use geoproof::crypto::chacha::ChaChaRng;
use geoproof::crypto::schnorr::SigningKey;
use geoproof::geo::coords::places::BRISBANE;
use geoproof::geo::coords::GeoPoint;
use geoproof::geo::gps::GpsReceiver;
use geoproof::ledger::{EvidenceKind, LedgerWriter};
use geoproof::por::encode::PorEncoder;
use geoproof::por::keys::PorKeys;
use geoproof::por::params::PorParams;
use geoproof::sim::time::{Km, SimDuration};
use geoproof::tcp_audit::{TcpAudit, WallClockVerifier};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Flags only the multi-vantage mode reads.
const VANTAGE_FLAGS: &str =
    "--vantage-ring-km --byzantine-vantage --position-tolerance-km --residual-budget-km";

/// How far a device's GPS fix may sit from where the SLA says the data
/// lives.
const LOCATION_TOLERANCE: Km = Km(25.0);

pub fn run(raw: &[String]) -> CliResult {
    let values = format!(
        "--master --k --budget-ms --ledger --prover --transcript --metrics-addr --vantages \
         {VANTAGE_FLAGS}"
    );
    let args = Args::parse(raw, "<host:port> <store-dir>", &values, "--dynamic")?;
    let session = Session::from_args(&args)?;
    if args.has("--vantages") {
        args.forbid("--dynamic --transcript", "does not combine with --vantages")?;
        return multi_vantage(&session, &args);
    }
    args.forbid(VANTAGE_FLAGS, "needs --vantages")?;
    if args.has("--dynamic") {
        let (tagged, meta) = read_dyn_store(Path::new(&session.store))?;
        let digest = dyn_owner(&tagged, &meta)?.digest();
        session.check_k(digest.segments)?;
        let (mut auditor, device) =
            session.auditor(&meta.file_id, digest.segments, "device", BRISBANE);
        let request = auditor.issue_dynamic(digest, session.k);
        let headline = format!(
            "dynamic audit of {} @ {}: {} challenges against digest root {} ({} segments)",
            meta.file_id,
            session.addr,
            session.k,
            hex(&digest.root[..8]),
            digest.segments
        );
        audit(&session, &auditor, device, &request, "dynamic ", &headline)
    } else {
        let (_, md) = read_store(Path::new(&session.store))?;
        session.check_k(md.segments)?;
        let (mut auditor, device) = session.auditor(&md.file_id, md.segments, "device", BRISBANE);
        let request = auditor.issue_request(session.k);
        let headline = format!(
            "audit of {} @ {}: {} challenges",
            md.file_id, session.addr, session.k
        );
        audit(&session, &auditor, device, &request, "", &headline)
    }
}

/// With `--ledger`: its path and the opened writer.
type Evidence<'a> = Option<(&'a str, LedgerWriter)>;

/// What every audit mode shares.
struct Session {
    addr: SocketAddr,
    store: String,
    master: String,
    k: u32,
    budget_ms: f64,
    timing: TimingPolicy,
    prover: String,
    ledger: Option<String>,
    transcript: Option<String>,
    metrics: Option<String>,
}

impl Session {
    fn from_args(args: &Args) -> Result<Session, String> {
        let addr = parse_addr(args.pos(0))?;
        let budget_ms: f64 = args.get("--budget-ms", 16.0)?;
        let half = SimDuration::from_millis_f64(budget_ms / 2.0);
        Ok(Session {
            addr,
            store: args.pos(1).to_owned(),
            master: args.need("--master")?,
            k: args.get("--k", 20)?,
            budget_ms,
            timing: TimingPolicy {
                max_network: half,
                max_lookup: half,
            },
            prover: args.get("--prover", addr.to_string())?,
            ledger: args.opt("--ledger")?,
            transcript: args.opt("--transcript")?,
            metrics: args.opt("--metrics-addr")?,
        })
    }

    /// k distinct challenges must fit the file: refused before any
    /// connect and before any ledger write.
    fn check_k(&self, segments: u64) -> CliResult {
        let k = self.k;
        if (1..=segments).contains(&u64::from(k)) {
            return Ok(());
        }
        Err(format!(
            "--k {k} is outside 1..={segments}: the store has {segments} segments"
        ))
    }

    /// A verifier device at `position`, and the seed for its auditor's
    /// nonces. Every seed is fresh per invocation: a fixed one would
    /// reissue the same nonce and challenge subset every run — a
    /// dishonest server could keep just those segments, and any old
    /// transcript would satisfy a later audit's nonce check.
    fn device(&self, label: &str, position: GeoPoint) -> (WallClockVerifier, u64) {
        let mut rng = ChaChaRng::from_seed(fresh_seed(&format!("{label}-key")));
        let verifier = WallClockVerifier::new(
            SigningKey::generate(&mut rng),
            GpsReceiver::new(position),
            fresh_seed_u64(&format!("{label}-challenges")),
        );
        (verifier, fresh_seed_u64(&format!("{label}-nonce")))
    }

    /// An auditor of `file_id` (`segments` long) paired with its own
    /// device at `position`.
    fn auditor(
        &self,
        file_id: &str,
        segments: u64,
        label: &str,
        position: GeoPoint,
    ) -> (Auditor, WallClockVerifier) {
        let (device, nonce_seed) = self.device(label, position);
        let keys = PorKeys::derive(self.master.as_bytes(), file_id);
        let auditor = Auditor::new(
            file_id.to_owned(),
            segments,
            PorEncoder::new(PorParams::paper()),
            keys.auditor_view(),
            device.verifying_key(),
            position,
            LOCATION_TOLERANCE,
            self.timing,
            nonce_seed,
        );
        (auditor, device)
    }

    /// With `--transcript`, writes the canonical transcript bytes.
    fn save_transcript(&self, kind: &str, bytes: &[u8]) -> CliResult {
        if let Some(path) = &self.transcript {
            std::fs::write(path, bytes).map_err(|e| format!("write {path}: {e}"))?;
            println!("transcript: canonical {kind}bytes written to {path}");
        }
        Ok(())
    }

    /// With `--ledger`, the opened evidence ledger and its path; and
    /// the prover's next epoch there (0 without a ledger).
    fn ledger(&self, seed: u64) -> Result<(Evidence<'_>, u64), String> {
        let Some(path) = &self.ledger else {
            return Ok((None, 0));
        };
        let writer = open_ledger(path, &self.master, seed)?;
        let epoch = writer.next_epoch(&self.prover);
        Ok((Some((path, writer)), epoch))
    }

    /// With a ledger, runs `append` and seals the ledger — before the
    /// verdict decides the exit code: a REJECT is evidence too, and the
    /// whole point is that it outlives this process. `records` names
    /// what was appended; a single record (`epoch` given) also gets its
    /// ordinal.
    fn seal(
        &self,
        ledger: Evidence<'_>,
        append: impl FnOnce(&mut LedgerWriter) -> std::io::Result<()>,
        records: &str,
        epoch: Option<u64>,
    ) -> CliResult {
        let Some((path, mut writer)) = ledger else {
            return Ok(());
        };
        let first = writer.evidence_count();
        append(&mut writer)
            .and_then(|()| writer.finish())
            .map_err(|e| format!("ledger {path}: {e}"))?;
        let what = match epoch {
            Some(epoch) => format!(
                "{records} {first} appended to {path} (prover {:?}, epoch {epoch}), sealed",
                self.prover
            ),
            None => format!("{records} appended to {path}"),
        };
        println!("evidence: {what}; chain head {}", hex(&writer.head()[..8]));
        let tpa = tpa_ledger_key(&self.master).verifying_key().to_bytes();
        println!("          TPA public key {}", hex(&tpa));
        Ok(())
    }

    /// Prints one timed audit's report after its `headline`, then
    /// concludes on its verdict.
    fn report(&self, headline: &str, report: &AuditReport, latency: Duration) -> CliResult {
        println!(
            "{headline}, max Δt' = {:.3} ms (budget {} ms)",
            report.max_rtt.as_millis_f64(),
            self.budget_ms
        );
        println!("segments verified: {}/{}", report.segments_ok, self.k);
        for v in &report.violations {
            println!("violation: {v}");
        }
        self.conclude("verdict", report.accepted(), Some(latency))
    }

    /// Prints the verdict line, pushes it to `--metrics-addr`, and maps
    /// it to the exit status.
    fn conclude(&self, label: &str, accepted: bool, latency: Option<Duration>) -> CliResult {
        println!("{label}: {}", if accepted { "ACCEPT" } else { "REJECT" });
        // This process exits before any scraper could reach it, so it
        // pushes the verdict into a long-lived server's registry (`POST
        // /ingest`). Telemetry never changes the outcome: failures warn.
        if let Some(addr) = &self.metrics {
            let outcome = if accepted { "accept" } else { "reject" };
            let mut body = format!("counter audit_verdicts_total{{outcome=\"{outcome}\"}} 1\n");
            if let Some(latency) = latency {
                let us = latency.as_micros();
                body.push_str(&format!("observe audit_session_latency_us {us}\n"));
            }
            if let Err(e) = geoproof::obs::expose::push(addr, &body) {
                eprintln!("warning: metrics push to {addr} failed: {e}");
            }
        }
        if accepted {
            Ok(())
        } else {
            Err("audit rejected".into())
        }
    }
}

/// One issued audit of either kind, after issuance: runs it, saves the
/// transcript, judges it into the ledger and reports. `kind` names it in
/// the printed lines ("" or "dynamic ").
fn audit<R: TcpAudit + EvidenceKind>(
    s: &Session,
    auditor: &Auditor,
    mut device: WallClockVerifier,
    request: &R,
    kind: &str,
    headline: &str,
) -> CliResult {
    let started = Instant::now();
    let transcript = device.run_audit(request, s.addr).map_err(audit_io)?;
    let latency = started.elapsed();
    s.save_transcript(kind, &transcript.canonical_bytes())?;
    let (ledger, epoch) = s.ledger(nonce_seed(request.nonce()))?;
    let (report, bundle) = auditor.verify_evidence(request, &transcript, &*s.prover, epoch);
    let records = format!("{kind}record");
    s.seal(ledger, |w| w.append_bundle(&bundle), &records, Some(epoch))?;
    s.report(headline, &report, latency)
}

fn audit_io(e: std::io::Error) -> String {
    format!("audit I/O: {e}")
}

/// The audit's own entropy, reused to seed the ledger's signatures.
fn nonce_seed(nonce: &[u8; 32]) -> u64 {
    u64::from_be_bytes(nonce[..8].try_into().expect("8 bytes"))
}

/// Positions vantage `i` of `n` on a ring of `radius_km` around
/// `center` (equal bearings; small-offset tangent-plane placement).
fn ring_vantage(center: GeoPoint, radius_km: f64, i: usize, n: usize) -> GeoPoint {
    const KM_PER_DEG_LAT: f64 = 111.32;
    let theta = std::f64::consts::TAU * (i as f64) / (n as f64);
    let lat = (center.lat + radius_km * theta.cos() / KM_PER_DEG_LAT).clamp(-90.0, 90.0);
    let lon_scale = KM_PER_DEG_LAT * center.lat.to_radians().cos().abs().max(0.1);
    let lon = (center.lon + radius_km * theta.sin() / lon_scale + 180.0).rem_euclid(360.0) - 180.0;
    GeoPoint::new(lat, lon)
}

/// The §V-C(b) countermeasure taken multi-vantage: N verifier devices
/// at known ring coordinates run concurrent timed sessions against the
/// one prover, each vantage's fastest Δt becomes a range, and the
/// outlier-robust aggregate is held against the SLA coordinates. A
/// minority of lying or laggy vantages (f < N/2) is trimmed rather
/// than trusted; `--byzantine-vantage I` forces vantage I to report a
/// wildly inflated Δt so the trim can be demonstrated end-to-end.
fn multi_vantage(s: &Session, args: &Args) -> CliResult {
    use geoproof::core::evidence::PositionBundle;
    use geoproof::core::vantage::{
        aggregate_vantages, observation_range, VantageObservation, VantagePolicy,
    };
    use geoproof::net::wan::{AccessKind, WanModel};

    let n: usize = args.need("--vantages")?;
    if !(1..=64).contains(&n) {
        return Err("--vantages must be between 1 and 64".into());
    }
    let ring_km: f64 = args.get("--vantage-ring-km", 100.0)?;
    if !ring_km.is_finite() || ring_km <= 0.0 || ring_km > 5000.0 {
        return Err("--vantage-ring-km must be in (0, 5000]".into());
    }
    let byzantine: Option<usize> = args.opt("--byzantine-vantage")?;
    if let Some(b) = byzantine.filter(|&b| b >= n) {
        return Err(format!(
            "--byzantine-vantage {b} out of range (vantages: {n})"
        ));
    }
    // Range calibration under the paper's WAN model; localhost Δt sits
    // below the fixed overhead, so honest ranges floor at zero and the
    // aggregate's residual is ≈ the ring radius — budget accordingly.
    let (speed, overhead) = WanModel::calibrated(AccessKind::Fibre).ranging_calibration();
    let policy = VantagePolicy {
        ranging_speed: speed,
        ranging_overhead: overhead,
        position_tolerance: Km(args.get("--position-tolerance-km", 60.0)?),
        residual_budget: Km(args.get("--residual-budget-km", ring_km + 60.0)?),
    };
    let (_, md) = read_store(Path::new(&s.store))?;
    s.check_k(md.segments)?;
    let sla = BRISBANE;

    // Each vantage is its own verifier device: own key, own GPS fix at
    // its ring coordinates, own challenge subset, own timed TCP session.
    // Sessions run concurrently (the prover multiplexes them) — the
    // whole point is N simultaneous Δt views. A dead session is a hard
    // error: the fleet geometry is meaningless with holes in it.
    let md = &md;
    let sessions = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|v| {
                let position = ring_vantage(sla, ring_km, v, n);
                scope.spawn(move || -> Result<_, String> {
                    let (mut auditor, mut device) =
                        s.auditor(&md.file_id, md.segments, &format!("vantage-{v}"), position);
                    let request = auditor.issue_request(s.k);
                    let transcript = device
                        .run_audit(&request, s.addr)
                        .map_err(|e| format!("vantage {v} audit I/O: {e}"))?;
                    Ok((position, auditor, request, transcript))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "vantage thread panicked".to_owned())?)
            .collect::<Result<Vec<_>, String>>()
    })?;

    // Convert each vantage's fastest round into a range measurement; a
    // forced-Byzantine vantage reports its Δt inflated by 30 ms (≈ a
    // few thousand km), exactly the lie the trim must survive.
    let mut min_rtts = Vec::with_capacity(n);
    let mut ranges = Vec::with_capacity(n);
    for (v, (vantage, _, _, transcript)) in sessions.iter().enumerate() {
        let fastest = transcript.rounds.iter().map(|r| r.rtt).min();
        let mut min_rtt = fastest.ok_or(format!("vantage {v}: empty transcript"))?;
        if byzantine == Some(v) {
            min_rtt += SimDuration::from_millis(30);
            println!("vantage {v}: FORCED BYZANTINE — reported Δt inflated by 30 ms");
        }
        let vantage = *vantage;
        ranges.push(observation_range(
            &VantageObservation { vantage, min_rtt },
            &policy,
        ));
        min_rtts.push(min_rtt);
    }

    // Timed verdicts (majority vote) and, with --ledger, one evidence
    // record per vantage plus the aggregate position record — all of it
    // replayable offline from the TPA public key alone.
    let (ledger, first_epoch) = s.ledger(fresh_seed_u64("multi-vantage-ledger"))?;
    let mut bundles = Vec::with_capacity(n);
    for (v, (position, auditor, request, transcript)) in sessions.iter().enumerate() {
        let epoch = first_epoch + v as u64;
        let (report, bundle) = auditor.verify_evidence(request, transcript, &*s.prover, epoch);
        println!(
            "vantage {v} @ ({:+.3}, {:+.3}): min Δt' {:.3} ms, max Δt' {:.3} ms, range {:.1} km → {}",
            position.lat,
            position.lon,
            min_rtts[v].as_millis_f64(),
            report.max_rtt.as_millis_f64(),
            ranges[v].distance.0,
            if report.accepted() { "ACCEPT" } else { "REJECT" }
        );
        bundles.push((report.accepted(), bundle));
    }
    let accepted_timing = bundles.iter().filter(|(ok, _)| *ok).count();
    let estimate = aggregate_vantages(
        sla,
        &ranges,
        policy.position_tolerance,
        policy.residual_budget,
    );
    let timing_ok = accepted_timing * 2 > n;
    let geometry_ok = estimate.as_ref().map_or(ranges.len() < 3, |e| e.consistent);
    let position = PositionBundle {
        prover: s.prover.clone(),
        first_epoch,
        sla_location: sla,
        position_tolerance: policy.position_tolerance,
        residual_budget: policy.residual_budget,
        vantages: ranges.clone(),
        estimate: estimate.clone(),
    };
    let append = |w: &mut LedgerWriter| {
        for (_, bundle) in &bundles {
            w.append_bundle(bundle)?;
        }
        w.append_position_bundle(&position)
    };
    let records = format!("{n} audit records + 1 position record");
    s.seal(ledger, append, &records, None)?;

    println!(
        "multi-vantage audit of {} @ {}: {n} vantages on a {ring_km} km ring, k={} each",
        md.file_id, s.addr, s.k
    );
    println!(
        "timing  : {accepted_timing}/{n} vantage audits accepted (majority {})",
        if timing_ok { "OK" } else { "FAILED" }
    );
    match &estimate {
        Some(e) => {
            let inliers = e.inliers.iter().filter(|&&i| i).count();
            println!(
                "geometry: estimate ({:+.3}, {:+.3}), {:.1} km from SLA claim (tolerance {:.1}), \
                 rms residual {:.1} km (budget {:.1}), {inliers}/{n} inliers → {}",
                e.position.lat,
                e.position.lon,
                e.discrepancy.0,
                policy.position_tolerance.0,
                e.rms_inlier_residual.0,
                policy.residual_budget.0,
                if e.consistent {
                    "CONSISTENT"
                } else {
                    "INCONSISTENT"
                }
            );
        }
        None if ranges.len() < 3 => {
            println!("geometry: fewer than 3 vantages — timing verdict only");
        }
        None => {
            println!("geometry: DEGENERATE (no usable estimate from {n} vantages) → fail closed");
        }
    }
    // One aggregate verdict; no single session latency to report.
    s.conclude("verdict ", timing_ok && geometry_ok, None)
}
