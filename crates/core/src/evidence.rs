//! Durable audit evidence: what a TPA verdict must carry to outlive the
//! process that produced it.
//!
//! GeoProof's output is *evidence* — a signed timing transcript a
//! customer can take to an SLA dispute. This module defines the bundle
//! every verification path emits, static and dynamic alike
//! ([`EvidenceBundle`], generic over the audit's request type and built
//! by [`crate::auditor::VerifyChecks::bundle`] from the one check
//! sequence's verdict), the sink trait the
//! [`crate::engine::AuditEngine`], [`crate::fleet`] and
//! [`crate::deployment::Deployment`] hand bundles to ([`EvidenceSink`]),
//! and the canonical byte encoding of an [`AuditReport`] that offline
//! re-verification byte-compares against
//! ([`encode_report`]/[`decode_report`]).
//!
//! The durable, hash-chained log itself lives in the `geoproof-ledger`
//! crate; keeping the trait here means the hot audit path carries no
//! ledger dependency and stays allocation-clean when no sink is
//! installed — a bundle is only materialised once a sink asks for it.

use crate::auditor::{AuditReport, Violation};
use crate::messages::AuditRequest;
use crate::policy::TimingPolicy;
use crate::vantage::MultiVantageEstimate;
use bytes::Bytes;
use geoproof_geo::coords::GeoPoint;
use geoproof_geo::triangulation::RangeMeasurement;
use geoproof_sim::time::{Km, SimDuration};

/// Everything needed to re-verify one audit verdict offline, for either
/// audit kind `R` (the request type: [`AuditRequest`] or
/// [`crate::dynamic_audit::DynAuditRequest`]): the identity under audit,
/// the TPA's acceptance parameters, the request, the canonical
/// signed-transcript bytes, the per-round keyed verdicts (the only part
/// an offline verifier must take on trust — checking them needs the
/// owner's secret key), and the verdict itself. A dynamic transcript also carries each round's Merkle
/// proof, which replay recomputes without any key.
#[derive(Clone, Debug, PartialEq)]
pub struct EvidenceBundle<R = AuditRequest> {
    /// The prover (cloud site) this verdict speaks about.
    pub prover: String,
    /// 0-based ordinal of this audit of this prover (re-audits count up).
    pub epoch: u64,
    /// The verifier device's registered public key (compressed).
    pub device_key: [u8; 32],
    /// Where the SLA says the data lives.
    pub sla_location: GeoPoint,
    /// Accepted GPS offset from the SLA location.
    pub location_tolerance: Km,
    /// The Δt_max policy the verdict was derived under.
    pub policy: TimingPolicy,
    /// The audit request that triggered the transcript (a dynamic one
    /// carries the audited digest).
    pub request: R,
    /// Per-round keyed verdicts, transcript order: the segment MAC of a
    /// static audit, the segment tag of a dynamic one.
    pub mac_ok: Vec<bool>,
    /// The TPA's verdict.
    pub report: AuditReport,
    /// The canonical signed-transcript bytes
    /// ([`crate::messages::Transcript::canonical_bytes`]). Shared,
    /// refcounted — sinks append these bytes without copying them.
    pub transcript: Bytes,
}

/// Receives evidence bundles as verdicts are reached.
///
/// Implementations must be cheap to call from verification loops and
/// thread-safe — one sink is shared, behind an `Arc`, by producers on
/// any thread. An I/O error is returned to the producer, which
/// surfaces it out-of-band (evidence failures never change verdicts).
pub trait EvidenceSink: Send + Sync {
    /// Records one verdict's evidence.
    ///
    /// # Errors
    ///
    /// Propagates the sink's storage failure.
    fn record(&self, bundle: &EvidenceBundle) -> std::io::Result<()>;
}

/// Everything needed to re-derive one multi-vantage position verdict
/// offline: the SLA claim, the acceptance thresholds, and every vantage's
/// coordinates and reported range. The aggregate `estimate` is recorded
/// too, but it is *derived* state — replay recomputes it from the inputs
/// (seeded at the SLA coordinates, so the fit is deterministic) and
/// byte-compares, exactly as audit reports are byte-compared.
#[derive(Clone, Debug, PartialEq)]
pub struct PositionBundle {
    /// The prover (cloud site) this estimate speaks about.
    pub prover: String,
    /// Epoch of the first constituent vantage audit; the vantage audits
    /// occupy `first_epoch .. first_epoch + vantages.len()` evidence
    /// records for this batch's vantage identities.
    pub first_epoch: u64,
    /// Where the SLA says the data lives.
    pub sla_location: GeoPoint,
    /// Accepted distance between the estimate and the SLA coordinates.
    pub position_tolerance: Km,
    /// Accepted RMS range residual over the inlier vantages.
    pub residual_budget: Km,
    /// Every vantage's coordinates and RTT-derived range, fleet order.
    pub vantages: Vec<RangeMeasurement>,
    /// The aggregate verdict — `None` when the geometry was degenerate
    /// or under-determined (fewer than three usable vantages).
    pub estimate: Option<MultiVantageEstimate>,
}

/// Domain-separation prefix of the canonical report encoding.
const REPORT_MAGIC: &[u8] = b"geoproof-report-v1";

/// Encodes an [`AuditReport`] canonically: same report, same bytes, on
/// every build — the offline re-verifier re-derives a report and
/// byte-compares it against the recorded encoding.
pub fn encode_report(report: &AuditReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + report.violations.len() * 24);
    out.extend_from_slice(REPORT_MAGIC);
    out.extend_from_slice(&(report.violations.len() as u32).to_be_bytes());
    for v in &report.violations {
        match v {
            Violation::BadSignature => out.push(0),
            Violation::StaleNonce => out.push(1),
            Violation::WrongLocation { offset } => {
                out.push(2);
                out.extend_from_slice(&offset.0.to_bits().to_be_bytes());
            }
            Violation::BadSegment { round, segment } => {
                out.push(3);
                out.extend_from_slice(&(*round as u64).to_be_bytes());
                out.extend_from_slice(&segment.to_be_bytes());
            }
            Violation::TooSlow { round, rtt } => {
                out.push(4);
                out.extend_from_slice(&(*round as u64).to_be_bytes());
                out.extend_from_slice(&rtt.as_nanos().to_be_bytes());
            }
            Violation::WrongRoundCount { expected, actual } => {
                out.push(5);
                out.extend_from_slice(&expected.to_be_bytes());
                out.extend_from_slice(&(*actual as u64).to_be_bytes());
            }
            Violation::MalformedChallenge { round } => {
                out.push(6);
                out.extend_from_slice(&(*round as u64).to_be_bytes());
            }
            Violation::BadProof { round, segment } => {
                out.push(7);
                out.extend_from_slice(&(*round as u64).to_be_bytes());
                out.extend_from_slice(&segment.to_be_bytes());
            }
            Violation::StaleDigest => out.push(8),
        }
    }
    out.extend_from_slice(&report.max_rtt.as_nanos().to_be_bytes());
    out.extend_from_slice(&(report.segments_ok as u64).to_be_bytes());
    out
}

/// Why a canonical report encoding failed to parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportDecodeError {
    /// Input ended before a field completed.
    Truncated,
    /// The `geoproof-report-v1` prefix is missing.
    BadMagic,
    /// Unknown violation tag.
    BadViolationTag(u8),
    /// Bytes remain after the last field.
    TrailingBytes,
}

impl std::fmt::Display for ReportDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportDecodeError::Truncated => write!(f, "report truncated mid-field"),
            ReportDecodeError::BadMagic => write!(f, "missing report version prefix"),
            ReportDecodeError::BadViolationTag(t) => write!(f, "unknown violation tag {t}"),
            ReportDecodeError::TrailingBytes => write!(f, "trailing bytes after report"),
        }
    }
}

impl std::error::Error for ReportDecodeError {}

/// Parses a canonical report encoding. Bounds-checked throughout; never
/// panics on malformed input.
///
/// # Errors
///
/// Returns [`ReportDecodeError`] describing the first malformed field.
pub fn decode_report(bytes: &Bytes) -> Result<AuditReport, ReportDecodeError> {
    use ReportDecodeError as E;
    let mut c = crate::cursor::ByteCursor::new(bytes);
    let trunc = |_| E::Truncated;

    if c.take(REPORT_MAGIC.len()).map_err(trunc)?.as_ref() != REPORT_MAGIC {
        return Err(E::BadMagic);
    }
    let n_violations = c.take_u32().map_err(trunc)?;
    let mut violations = Vec::new();
    for _ in 0..n_violations {
        let tag = c.take_array::<1>().map_err(trunc)?[0];
        violations.push(match tag {
            0 => Violation::BadSignature,
            1 => Violation::StaleNonce,
            2 => Violation::WrongLocation {
                offset: Km(c.take_f64_bits().map_err(trunc)?),
            },
            3 => Violation::BadSegment {
                round: c.take_u64().map_err(trunc)? as usize,
                segment: c.take_u64().map_err(trunc)?,
            },
            4 => Violation::TooSlow {
                round: c.take_u64().map_err(trunc)? as usize,
                rtt: SimDuration::from_nanos(c.take_u64().map_err(trunc)?),
            },
            5 => Violation::WrongRoundCount {
                expected: c.take_u32().map_err(trunc)?,
                actual: c.take_u64().map_err(trunc)? as usize,
            },
            6 => Violation::MalformedChallenge {
                round: c.take_u64().map_err(trunc)? as usize,
            },
            7 => Violation::BadProof {
                round: c.take_u64().map_err(trunc)? as usize,
                segment: c.take_u64().map_err(trunc)?,
            },
            8 => Violation::StaleDigest,
            t => return Err(E::BadViolationTag(t)),
        });
    }
    let max_rtt = SimDuration::from_nanos(c.take_u64().map_err(trunc)?);
    let segments_ok = c.take_u64().map_err(trunc)? as usize;
    if !c.at_end() {
        return Err(E::TrailingBytes);
    }
    Ok(AuditReport {
        violations,
        max_rtt,
        segments_ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with_everything() -> AuditReport {
        AuditReport {
            violations: vec![
                Violation::BadSignature,
                Violation::StaleNonce,
                Violation::WrongLocation { offset: Km(1234.5) },
                Violation::BadSegment {
                    round: 3,
                    segment: 99,
                },
                Violation::TooSlow {
                    round: 4,
                    rtt: SimDuration::from_millis(21),
                },
                Violation::WrongRoundCount {
                    expected: 10,
                    actual: 9,
                },
                Violation::MalformedChallenge { round: 7 },
                Violation::BadProof {
                    round: 8,
                    segment: 41,
                },
                Violation::StaleDigest,
            ],
            max_rtt: SimDuration::from_millis(21),
            segments_ok: 6,
        }
    }

    #[test]
    fn report_roundtrip_covers_every_violation_variant() {
        let r = report_with_everything();
        let bytes = Bytes::from(encode_report(&r));
        assert_eq!(decode_report(&bytes).expect("parse"), r);
        assert_eq!(encode_report(&decode_report(&bytes).unwrap()), bytes);
    }

    #[test]
    fn report_encoding_is_deterministic_and_field_sensitive() {
        let clean = AuditReport {
            violations: vec![],
            max_rtt: SimDuration::from_millis(3),
            segments_ok: 10,
        };
        assert_eq!(encode_report(&clean), encode_report(&clean.clone()));
        let mut slower = clean.clone();
        slower.max_rtt = SimDuration::from_millis(4);
        assert_ne!(encode_report(&clean), encode_report(&slower));
        let mut fewer = clean.clone();
        fewer.segments_ok = 9;
        assert_ne!(encode_report(&clean), encode_report(&fewer));
    }

    #[test]
    fn report_decode_rejects_malformed_input_without_panicking() {
        let good = Bytes::from(encode_report(&report_with_everything()));
        assert!(decode_report(&Bytes::new()).is_err());
        for cut in 0..good.len() {
            assert!(decode_report(&good.slice(..cut)).is_err(), "cut {cut}");
        }
        let mut extra = good.to_vec();
        extra.push(0);
        assert_eq!(
            decode_report(&Bytes::from(extra)),
            Err(ReportDecodeError::TrailingBytes)
        );
        let mut bad_tag = good.to_vec();
        bad_tag[REPORT_MAGIC.len() + 4] = 200; // first violation tag
        assert_eq!(
            decode_report(&Bytes::from(bad_tag)),
            Err(ReportDecodeError::BadViolationTag(200))
        );
    }

    #[test]
    fn wrong_location_offset_roundtrips_bit_exactly() {
        // The offset is a computed f64 — the encoding must preserve every
        // bit so replay byte-comparison can succeed.
        for bits in [0x3ff0_0000_0000_0001u64, 0x7fef_ffff_ffff_ffff, 1] {
            let r = AuditReport {
                violations: vec![Violation::WrongLocation {
                    offset: Km(f64::from_bits(bits)),
                }],
                max_rtt: SimDuration::ZERO,
                segments_ok: 0,
            };
            let decoded = decode_report(&Bytes::from(encode_report(&r))).unwrap();
            match decoded.violations[0] {
                Violation::WrongLocation { offset } => {
                    assert_eq!(offset.0.to_bits(), bits);
                }
                _ => panic!("variant lost"),
            }
        }
    }
}
