//! The ledger's record bodies. Evidence records of both audit kinds
//! share one layout and one codec, [`EvidenceRecord`]; the kind's
//! [`EvidenceKind`] supplies the tag and the request fields.
//!
//! An evidence body is `tag ‖ identity ‖ acceptance-parameters ‖ request
//! ‖ MAC bits ‖ canonical report bytes ‖ canonical transcript bytes`,
//! all length-delimited and order-fixed. The transcript bytes are the
//! exact [`geoproof_core::messages::Transcript::canonical_bytes`] the
//! TPA verified — they are carried as a refcounted [`Bytes`] view so
//! encoding a record for the write path never copies the payload
//! ([`EvidenceRecord::encode_prefix`] emits everything *before* the
//! transcript; the writer streams the transcript bytes themselves).

use bytes::Bytes;
use geoproof_core::auditor::AuditReport;
use geoproof_core::cursor::{ByteCursor, Truncated};
use geoproof_core::dynamic_audit::DynAuditRequest;
use geoproof_core::evidence::{
    decode_report, encode_report, EvidenceBundle, PositionBundle, ReportDecodeError,
};
use geoproof_core::messages::{AuditRequest, Transcript, TranscriptDecodeError};
use geoproof_core::policy::TimingPolicy;
use geoproof_core::vantage::{aggregate_vantages, MultiVantageEstimate};
use geoproof_core::verifier::Audit;
use geoproof_geo::coords::GeoPoint;
use geoproof_geo::triangulation::RangeMeasurement;
use geoproof_por::dynamic::DynamicDigest;
use geoproof_sim::time::{Km, SimDuration};

/// Body tag of an evidence record.
pub(crate) const TAG_EVIDENCE: u8 = 1;

/// Body tag of a checkpoint record.
pub(crate) const TAG_CHECKPOINT: u8 = 2;

/// Body tag of a dynamic-audit evidence record.
pub(crate) const TAG_DYN_EVIDENCE: u8 = 3;

/// Body tag of a digest-transition record (the owner's
/// init/update/append of a dynamic file, chained so replays can check
/// every dynamic audit against the digest that was current).
pub(crate) const TAG_DIGEST: u8 = 4;

/// Body tag of a multi-vantage position-estimate record.
pub(crate) const TAG_POSITION: u8 = 5;

/// What one audit kind's evidence record adds to the common layout: its
/// body tag and its request fields. Implemented for [`AuditRequest`]
/// (tag `0x01`) and [`DynAuditRequest`] (tag `0x03`); the transcript the
/// record carries is the kind's [`Audit::Transcript`].
pub trait EvidenceKind: Audit + Sized {
    /// Body tag.
    const TAG: u8;
    /// The decode error for a body carrying another tag.
    const WRONG_TAG: &'static str;
    /// The decode error for nonzero padding after the per-round bits.
    const BIT_PADDING: &'static str;
    /// Length of what [`EvidenceKind::write_request`] appends.
    fn request_len(&self) -> usize;
    /// Appends the request: `u16 len ‖ file id ‖ scope ‖ u32 k ‖ nonce`,
    /// where the scope is `u64 n_segments` for a static audit and the
    /// audited `digest root ‖ u64 segments` for a dynamic one.
    fn write_request(&self, out: &mut Vec<u8>);
    /// Parses what [`EvidenceKind::write_request`] wrote.
    ///
    /// # Errors
    ///
    /// The first malformed field's name.
    fn read_request(c: &mut ByteCursor<'_>) -> Result<Self, &'static str>;
}

impl EvidenceKind for AuditRequest {
    const TAG: u8 = TAG_EVIDENCE;
    const WRONG_TAG: &'static str = "not an evidence record";
    const BIT_PADDING: &'static str = "nonzero MAC padding bits";

    fn request_len(&self) -> usize {
        2 + self.file_id.len() + 8 + 4 + 32
    }
    fn write_request(&self, out: &mut Vec<u8>) {
        put_str16(out, &self.file_id);
        out.extend_from_slice(&self.n_segments.to_be_bytes());
        out.extend_from_slice(&self.k.to_be_bytes());
        out.extend_from_slice(&self.nonce);
    }
    fn read_request(c: &mut ByteCursor<'_>) -> Result<Self, &'static str> {
        Ok(AuditRequest {
            file_id: take_str16(c, "file id not UTF-8")?,
            n_segments: c.take_u64().map_err(trunc)?,
            k: c.take_u32().map_err(trunc)?,
            nonce: c.take_array::<32>().map_err(trunc)?,
        })
    }
}

impl EvidenceKind for DynAuditRequest {
    const TAG: u8 = TAG_DYN_EVIDENCE;
    const WRONG_TAG: &'static str = "not a dynamic evidence record";
    const BIT_PADDING: &'static str = "nonzero tag padding bits";

    fn request_len(&self) -> usize {
        2 + self.file_id.len() + 32 + 8 + 4 + 32
    }
    fn write_request(&self, out: &mut Vec<u8>) {
        put_str16(out, &self.file_id);
        out.extend_from_slice(&self.digest.root);
        out.extend_from_slice(&self.digest.segments.to_be_bytes());
        out.extend_from_slice(&self.k.to_be_bytes());
        out.extend_from_slice(&self.nonce);
    }
    fn read_request(c: &mut ByteCursor<'_>) -> Result<Self, &'static str> {
        Ok(DynAuditRequest {
            file_id: take_str16(c, "file id not UTF-8")?,
            digest: DynamicDigest {
                root: c.take_array::<32>().map_err(trunc)?,
                segments: c.take_u64().map_err(trunc)?,
            },
            k: c.take_u32().map_err(trunc)?,
            nonce: c.take_array::<32>().map_err(trunc)?,
        })
    }
}

/// One audit verdict of either kind `R`, durably: who was audited, under
/// which acceptance parameters, the request, the per-round keyed
/// verdicts, the verdict's canonical bytes, and the canonical signed
/// transcript. A dynamic record's Merkle proofs travel inside the
/// transcript and are *recomputed* on replay.
#[derive(Clone, Debug, PartialEq)]
pub struct EvidenceRecord<R = AuditRequest> {
    /// The prover (cloud site) this verdict speaks about.
    pub prover: String,
    /// 0-based ordinal of this audit of this prover.
    pub epoch: u64,
    /// The verifier device's registered public key (compressed).
    pub device_key: [u8; 32],
    /// Where the SLA says the data lives.
    pub sla_location: GeoPoint,
    /// Accepted GPS offset from the SLA location.
    pub location_tolerance: Km,
    /// The Δt_max policy the verdict was derived under.
    pub policy: TimingPolicy,
    /// The audit request that triggered the transcript.
    pub request: R,
    /// Per-round keyed verdicts, transcript order: segment MACs of a
    /// static audit, segment tags of a dynamic one. The one input an
    /// offline replay must take on trust (checking them needs the
    /// owner's secret key).
    pub mac_ok: Vec<bool>,
    /// The recorded verdict, canonically encoded
    /// ([`geoproof_core::evidence::encode_report`]).
    pub report_bytes: Bytes,
    /// The canonical signed-transcript bytes.
    pub transcript: Bytes,
}

impl<R: EvidenceKind> EvidenceRecord<R> {
    /// Builds a record from the bundle a verification path emitted. The
    /// transcript `Bytes` is aliased, not copied.
    pub fn from_bundle(bundle: &EvidenceBundle<R>) -> Self {
        EvidenceRecord {
            prover: bundle.prover.clone(),
            epoch: bundle.epoch,
            device_key: bundle.device_key,
            sla_location: bundle.sla_location,
            location_tolerance: bundle.location_tolerance,
            policy: bundle.policy,
            request: bundle.request.clone(),
            mac_ok: bundle.mac_ok.clone(),
            report_bytes: Bytes::from(encode_report(&bundle.report)),
            transcript: bundle.transcript.clone(),
        }
    }

    /// Decodes the recorded verdict.
    ///
    /// # Errors
    ///
    /// Propagates the report decoder's reason.
    pub fn report(&self) -> Result<AuditReport, ReportDecodeError> {
        decode_report(&self.report_bytes)
    }

    /// Parses the canonical transcript bytes. Round segments alias the
    /// record's buffer.
    ///
    /// # Errors
    ///
    /// Propagates the transcript decoder's reason.
    pub fn parse_transcript(&self) -> Result<R::Transcript, TranscriptDecodeError> {
        R::Transcript::from_canonical(&self.transcript)
    }

    /// Total body length on disk (prefix + transcript bytes).
    pub fn body_len(&self) -> usize {
        1 + 2
            + self.prover.len()
            + 8
            + 32
            + 8 * 3 // sla lat/lon + tolerance
            + 8 * 2 // policy
            + self.request.request_len()
            + 4
            + self.mac_ok.len().div_ceil(8)
            + 4
            + self.report_bytes.len()
            + 4
            + self.transcript.len()
    }

    /// Appends everything *except* the trailing transcript bytes to
    /// `out`. The full body is `prefix ‖ transcript`; keeping the
    /// payload out of the prefix is what lets the writer seal and write
    /// a record without copying the transcript.
    pub fn encode_prefix(&self, out: &mut Vec<u8>) {
        out.push(R::TAG);
        put_str16(out, &self.prover);
        out.extend_from_slice(&self.epoch.to_be_bytes());
        out.extend_from_slice(&self.device_key);
        out.extend_from_slice(&self.sla_location.lat.to_bits().to_be_bytes());
        out.extend_from_slice(&self.sla_location.lon.to_bits().to_be_bytes());
        out.extend_from_slice(&self.location_tolerance.0.to_bits().to_be_bytes());
        out.extend_from_slice(&self.policy.max_network.as_nanos().to_be_bytes());
        out.extend_from_slice(&self.policy.max_lookup.as_nanos().to_be_bytes());
        self.request.write_request(out);
        out.extend_from_slice(&(self.mac_ok.len() as u32).to_be_bytes());
        pack_bits(&self.mac_ok, out);
        out.extend_from_slice(&(self.report_bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.report_bytes);
        out.extend_from_slice(&(self.transcript.len() as u32).to_be_bytes());
    }

    /// Decodes a record body (tag included). `report_bytes` and
    /// `transcript` are zero-copy slices of `body`.
    ///
    /// # Errors
    ///
    /// Returns the first malformed field's name; the reader wraps it
    /// into [`crate::LedgerError::Malformed`]. Never panics.
    pub fn decode(body: &Bytes) -> Result<Self, &'static str> {
        let mut c = ByteCursor::new(body);
        if c.take_array::<1>().map_err(trunc)? != [R::TAG] {
            return Err(R::WRONG_TAG);
        }
        let prover = take_str16(&mut c, "prover id not UTF-8")?;
        let epoch = c.take_u64().map_err(trunc)?;
        let device_key = c.take_array::<32>().map_err(trunc)?;
        let lat = take_f64(&mut c)?;
        let lon = take_f64(&mut c)?;
        if !(-90.0..=90.0).contains(&lat) || !(-180.0..=180.0).contains(&lon) {
            return Err("SLA location out of range");
        }
        let sla_location = GeoPoint { lat, lon };
        let location_tolerance = Km(take_f64(&mut c)?);
        let policy = TimingPolicy {
            max_network: SimDuration::from_nanos(c.take_u64().map_err(trunc)?),
            max_lookup: SimDuration::from_nanos(c.take_u64().map_err(trunc)?),
        };
        let request = R::read_request(&mut c)?;
        let mac_count = c.take_u32().map_err(trunc)? as usize;
        let mac_ok = unpack_bits(&mut c, mac_count, R::BIT_PADDING)?;
        let report_len = c.take_u32().map_err(trunc)? as usize;
        let report_bytes = c.take(report_len).map_err(trunc)?;
        let transcript_len = c.take_u32().map_err(trunc)? as usize;
        let transcript = c.take(transcript_len).map_err(trunc)?;
        if !c.at_end() {
            return Err("trailing bytes in body");
        }
        Ok(EvidenceRecord {
            prover,
            epoch,
            device_key,
            sla_location,
            location_tolerance,
            policy,
            request,
            mac_ok,
            report_bytes,
            transcript,
        })
    }
}

/// Every body decoder's name for a field cut short.
fn trunc(_: Truncated) -> &'static str {
    "body truncated"
}

/// Reads a big-endian `f64` that must be finite.
fn take_f64(c: &mut ByteCursor<'_>) -> Result<f64, &'static str> {
    let v = c.take_f64_bits().map_err(trunc)?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err("non-finite float")
    }
}

/// Appends a `u16`-length-prefixed string (the writer caps the length).
fn put_str16(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Reads a `u16`-length-prefixed UTF-8 string; `not_utf8` names the
/// field when it is not UTF-8.
fn take_str16(c: &mut ByteCursor<'_>, not_utf8: &'static str) -> Result<String, &'static str> {
    let len = c.take_u16().map_err(trunc)? as usize;
    let raw = c.take(len).map_err(trunc)?;
    Ok(std::str::from_utf8(&raw).map_err(|_| not_utf8)?.to_owned())
}

/// Appends `bits` packed LSB-first, eight to a byte, the unused high bits
/// of the last byte zero.
fn pack_bits(bits: &[bool], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + bits.len().div_ceil(8), 0);
    for (i, _) in bits.iter().enumerate().filter(|(_, &bit)| bit) {
        out[start + i / 8] |= 1 << (i % 8);
    }
}

/// Reads `count` bits written by [`pack_bits`]. Nonzero padding bits are
/// refused with `padding_error`, so two encodings of the same bits never
/// both parse.
fn unpack_bits(
    c: &mut ByteCursor<'_>,
    count: usize,
    padding_error: &'static str,
) -> Result<Vec<bool>, &'static str> {
    let packed = c.take(count.div_ceil(8)).map_err(trunc)?;
    if let Some(last) = packed.last() {
        if count % 8 != 0 && last >> (count % 8) != 0 {
            return Err(padding_error);
        }
    }
    Ok((0..count)
        .map(|i| packed[i / 8] & (1 << (i % 8)) != 0)
        .collect())
}

/// Which owner operation a [`DigestRecord`] chains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DigestOp {
    /// First upload of the file (prev digest is the zero sentinel).
    Init,
    /// In-place replacement of one segment.
    Update,
    /// Append of one segment.
    Append,
}

/// The zero sentinel standing in for "no previous digest" on
/// [`DigestOp::Init`] records.
pub const NO_DIGEST: DynamicDigest = DynamicDigest {
    root: [0u8; 32],
    segments: 0,
};

/// One owner-side digest transition of a dynamic file, chained into the
/// ledger. The sequence of these records per file is the **digest
/// chain**: replay walks it (init → update/append → …) and checks every
/// dynamic audit against the digest that was current at that point — so
/// a provider caught serving pre-update state is provably cheating
/// against a *recorded* obligation, not a he-said-she-said digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DigestRecord {
    /// The dynamic file.
    pub file_id: String,
    /// Which operation this transition is.
    pub op: DigestOp,
    /// Segment index touched: the updated index for [`DigestOp::Update`],
    /// the appended index (= previous length) for [`DigestOp::Append`],
    /// 0 for [`DigestOp::Init`].
    pub index: u64,
    /// Digest before the operation ([`NO_DIGEST`] for init).
    pub prev: DynamicDigest,
    /// Digest after the operation.
    pub new: DynamicDigest,
}

impl DigestRecord {
    /// Structural invariants every digest record must satisfy (the
    /// writer refuses records that fail; the decoder re-checks so no
    /// crafted file smuggles one in).
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        match self.op {
            DigestOp::Init => {
                if self.prev != NO_DIGEST {
                    return Err("init with non-zero previous digest");
                }
                if self.index != 0 {
                    return Err("init with non-zero index");
                }
                if self.new.segments == 0 {
                    return Err("init to an empty file");
                }
            }
            DigestOp::Update => {
                if self.index >= self.prev.segments {
                    return Err("update index out of range");
                }
                if self.new.segments != self.prev.segments {
                    return Err("update changed the segment count");
                }
            }
            DigestOp::Append => {
                if self.index != self.prev.segments {
                    return Err("append index is not the previous length");
                }
                if self.new.segments != self.prev.segments + 1 {
                    return Err("append did not grow by one");
                }
            }
        }
        Ok(())
    }

    /// Body length on disk.
    pub fn body_len(&self) -> usize {
        1 + 2 + self.file_id.len() + 1 + 8 + (32 + 8) * 2
    }

    /// Encodes the full body (digest records have no streamed payload).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(TAG_DIGEST);
        put_str16(out, &self.file_id);
        out.push(match self.op {
            DigestOp::Init => 0,
            DigestOp::Update => 1,
            DigestOp::Append => 2,
        });
        out.extend_from_slice(&self.index.to_be_bytes());
        out.extend_from_slice(&self.prev.root);
        out.extend_from_slice(&self.prev.segments.to_be_bytes());
        out.extend_from_slice(&self.new.root);
        out.extend_from_slice(&self.new.segments.to_be_bytes());
    }

    /// Decodes a record body (tag included), re-checking the structural
    /// invariants.
    ///
    /// # Errors
    ///
    /// Returns the first malformed field's name. Never panics.
    pub fn decode(body: &Bytes) -> Result<DigestRecord, &'static str> {
        let mut c = ByteCursor::new(body);
        if c.take_array::<1>().map_err(trunc)? != [TAG_DIGEST] {
            return Err("not a digest record");
        }
        let file_id = take_str16(&mut c, "file id not UTF-8")?;
        let op = match c.take_array::<1>().map_err(trunc)?[0] {
            0 => DigestOp::Init,
            1 => DigestOp::Update,
            2 => DigestOp::Append,
            _ => return Err("unknown digest op"),
        };
        let index = c.take_u64().map_err(trunc)?;
        let prev = DynamicDigest {
            root: c.take_array::<32>().map_err(trunc)?,
            segments: c.take_u64().map_err(trunc)?,
        };
        let new = DynamicDigest {
            root: c.take_array::<32>().map_err(trunc)?,
            segments: c.take_u64().map_err(trunc)?,
        };
        if !c.at_end() {
            return Err("trailing bytes in body");
        }
        let record = DigestRecord {
            file_id,
            op,
            index,
            prev,
            new,
        };
        record.validate()?;
        Ok(record)
    }
}

/// One multi-vantage position verdict, durably: the SLA claim, the two
/// acceptance thresholds, every vantage's coordinates and RTT-derived
/// range, and the aggregate estimate. The estimate is *derived* state:
/// offline replay recomputes it from the recorded inputs (the robust fit
/// is seeded at the SLA coordinates, so it is deterministic) and the
/// re-encoded body must byte-compare equal — a tampered estimate, or one
/// computed under different thresholds, fails the replay.
#[derive(Clone, Debug, PartialEq)]
pub struct PositionRecord {
    /// The prover (cloud site) this estimate speaks about.
    pub prover: String,
    /// Epoch of the first constituent vantage audit (the vantage audits
    /// sit in their own evidence records; this ties the batch together).
    pub first_epoch: u64,
    /// Where the SLA says the data lives.
    pub sla_location: GeoPoint,
    /// Accepted distance between the estimate and the SLA coordinates.
    pub position_tolerance: Km,
    /// Accepted RMS range residual over the inlier vantages.
    pub residual_budget: Km,
    /// Every vantage's coordinates and range, fleet order.
    pub vantages: Vec<RangeMeasurement>,
    /// The aggregate verdict (`None` when the geometry was degenerate or
    /// under-determined).
    pub estimate: Option<MultiVantageEstimate>,
}

impl PositionRecord {
    /// Builds a record from the bundle a multi-vantage run emitted.
    pub fn from_bundle(bundle: &PositionBundle) -> Self {
        PositionRecord {
            prover: bundle.prover.clone(),
            first_epoch: bundle.first_epoch,
            sla_location: bundle.sla_location,
            position_tolerance: bundle.position_tolerance,
            residual_budget: bundle.residual_budget,
            vantages: bundle.vantages.clone(),
            estimate: bundle.estimate.clone(),
        }
    }

    /// Recomputes the aggregate estimate from the recorded inputs —
    /// exactly the seeded robust fit the live TPA ran. Replay compares
    /// the re-derived record's bytes against the recorded body.
    pub fn derive_estimate(&self) -> Option<MultiVantageEstimate> {
        aggregate_vantages(
            self.sla_location,
            &self.vantages,
            self.position_tolerance,
            self.residual_budget,
        )
    }

    /// Structural invariants every position record must satisfy (the
    /// writer refuses records that fail; the decoder re-checks so no
    /// crafted file smuggles one in).
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        let valid_point = |p: &GeoPoint| {
            p.lat.is_finite()
                && (-90.0..=90.0).contains(&p.lat)
                && p.lon.is_finite()
                && (-180.0..=180.0).contains(&p.lon)
        };
        if !valid_point(&self.sla_location) {
            return Err("SLA location out of range");
        }
        if !(self.position_tolerance.0.is_finite() && self.position_tolerance.0 >= 0.0) {
            return Err("position tolerance not finite and non-negative");
        }
        if !(self.residual_budget.0.is_finite() && self.residual_budget.0 >= 0.0) {
            return Err("residual budget not finite and non-negative");
        }
        for v in &self.vantages {
            if !valid_point(&v.landmark) {
                return Err("vantage coordinates out of range");
            }
            if !(v.distance.0.is_finite() && v.distance.0 >= 0.0) {
                return Err("vantage range not finite and non-negative");
            }
        }
        if let Some(est) = &self.estimate {
            if !valid_point(&est.position) {
                return Err("estimate position out of range");
            }
            if !(est.discrepancy.0.is_finite() && est.discrepancy.0 >= 0.0) {
                return Err("estimate discrepancy not finite and non-negative");
            }
            if !(est.rms_inlier_residual.0.is_finite() && est.rms_inlier_residual.0 >= 0.0) {
                return Err("estimate residual not finite and non-negative");
            }
            if est.inliers.len() != self.vantages.len() {
                return Err("inlier flags do not align with the vantages");
            }
            let derivable = est.discrepancy.0 <= self.position_tolerance.0
                && est.rms_inlier_residual.0 <= self.residual_budget.0;
            if est.consistent != derivable {
                return Err("consistency flag contradicts its thresholds");
            }
        }
        Ok(())
    }

    /// Body length on disk.
    pub fn body_len(&self) -> usize {
        1 + 2
            + self.prover.len()
            + 8
            + 8 * 2 // sla lat/lon
            + 8 * 2 // tolerance + budget
            + 4
            + 24 * self.vantages.len()
            + 1
            + self.estimate.as_ref().map_or(0, |est| {
                8 * 2 + 8 * 2 + est.inliers.len().div_ceil(8) + 1
            })
    }

    /// Encodes the full body (position records have no streamed payload).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(TAG_POSITION);
        put_str16(out, &self.prover);
        out.extend_from_slice(&self.first_epoch.to_be_bytes());
        out.extend_from_slice(&self.sla_location.lat.to_bits().to_be_bytes());
        out.extend_from_slice(&self.sla_location.lon.to_bits().to_be_bytes());
        out.extend_from_slice(&self.position_tolerance.0.to_bits().to_be_bytes());
        out.extend_from_slice(&self.residual_budget.0.to_bits().to_be_bytes());
        out.extend_from_slice(&(self.vantages.len() as u32).to_be_bytes());
        for v in &self.vantages {
            out.extend_from_slice(&v.landmark.lat.to_bits().to_be_bytes());
            out.extend_from_slice(&v.landmark.lon.to_bits().to_be_bytes());
            out.extend_from_slice(&v.distance.0.to_bits().to_be_bytes());
        }
        match &self.estimate {
            None => out.push(0),
            Some(est) => {
                out.push(1);
                out.extend_from_slice(&est.position.lat.to_bits().to_be_bytes());
                out.extend_from_slice(&est.position.lon.to_bits().to_be_bytes());
                out.extend_from_slice(&est.discrepancy.0.to_bits().to_be_bytes());
                out.extend_from_slice(&est.rms_inlier_residual.0.to_bits().to_be_bytes());
                pack_bits(&est.inliers, out);
                out.push(u8::from(est.consistent));
            }
        }
    }

    /// Decodes a record body (tag included), re-checking the structural
    /// invariants.
    ///
    /// # Errors
    ///
    /// Returns the first malformed field's name. Never panics.
    pub fn decode(body: &Bytes) -> Result<PositionRecord, &'static str> {
        let mut c = ByteCursor::new(body);
        if c.take_array::<1>().map_err(trunc)? != [TAG_POSITION] {
            return Err("not a position record");
        }
        let prover = take_str16(&mut c, "prover id not UTF-8")?;
        let first_epoch = c.take_u64().map_err(trunc)?;
        let sla_location = GeoPoint {
            lat: take_f64(&mut c)?,
            lon: take_f64(&mut c)?,
        };
        let position_tolerance = Km(take_f64(&mut c)?);
        let residual_budget = Km(take_f64(&mut c)?);
        let n_vantages = c.take_u32().map_err(trunc)? as usize;
        let mut vantages = Vec::with_capacity(n_vantages.min(1024));
        for _ in 0..n_vantages {
            let landmark = GeoPoint {
                lat: take_f64(&mut c)?,
                lon: take_f64(&mut c)?,
            };
            let distance = Km(take_f64(&mut c)?);
            vantages.push(RangeMeasurement { landmark, distance });
        }
        let estimate = match c.take_array::<1>().map_err(trunc)?[0] {
            0 => None,
            1 => {
                let position = GeoPoint {
                    lat: take_f64(&mut c)?,
                    lon: take_f64(&mut c)?,
                };
                let discrepancy = Km(take_f64(&mut c)?);
                let rms_inlier_residual = Km(take_f64(&mut c)?);
                let inliers = unpack_bits(&mut c, n_vantages, "nonzero inlier padding bits")?;
                let consistent = match c.take_array::<1>().map_err(trunc)?[0] {
                    0 => false,
                    1 => true,
                    _ => return Err("consistency flag is not a boolean"),
                };
                Some(MultiVantageEstimate {
                    position,
                    discrepancy,
                    rms_inlier_residual,
                    inliers,
                    consistent,
                })
            }
            _ => return Err("estimate presence flag is not a boolean"),
        };
        if !c.at_end() {
            return Err("trailing bytes in body");
        }
        let record = PositionRecord {
            prover,
            first_epoch,
            sla_location,
            position_tolerance,
            residual_budget,
            vantages,
            estimate,
        };
        record.validate()?;
        Ok(record)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use geoproof_core::auditor::Violation;
    use geoproof_core::dynamic_audit::{DynSignedTranscript, DynTimedRound};
    use geoproof_core::messages::{SignedTranscript, TimedRound};
    use geoproof_crypto::schnorr::Signature;
    use geoproof_por::merkle::MerkleProof;

    pub(crate) fn sample_record(k: usize) -> EvidenceRecord {
        let report = AuditReport {
            violations: vec![Violation::TooSlow {
                round: 1,
                rtt: SimDuration::from_millis(20),
            }],
            max_rtt: SimDuration::from_millis(20),
            segments_ok: k,
        };
        // A structurally genuine canonical transcript (the signature is
        // not valid — replay is not exercised on samples, but the writer
        // insists the bytes at least parse).
        let rounds: Vec<TimedRound> = (0..k)
            .map(|i| TimedRound {
                index: i as u64,
                segment: Bytes::from(vec![0xabu8; 10]),
                rtt: SimDuration::from_millis(5 + i as u64),
            })
            .collect();
        let transcript = SignedTranscript {
            file_id: "payroll".into(),
            nonce: [9u8; 32],
            position: GeoPoint::new(-27.47, 153.02),
            rounds,
            signature: Signature::from_bytes(&[0x42u8; 64]),
        }
        .canonical_bytes();
        EvidenceRecord {
            prover: "prover-0001".into(),
            epoch: 3,
            device_key: [7u8; 32],
            sla_location: GeoPoint::new(-27.47, 153.02),
            location_tolerance: Km(25.0),
            policy: TimingPolicy::paper(),
            request: AuditRequest {
                file_id: "payroll".into(),
                n_segments: 180,
                k: k as u32,
                nonce: [9u8; 32],
            },
            mac_ok: (0..k).map(|i| i % 3 != 0).collect(),
            report_bytes: Bytes::from(encode_report(&report)),
            transcript,
        }
    }

    fn sample_dyn_record(k: usize) -> EvidenceRecord<DynAuditRequest> {
        let report = AuditReport {
            violations: vec![Violation::BadProof {
                round: 0,
                segment: 0,
            }],
            max_rtt: SimDuration::from_millis(9),
            segments_ok: k.saturating_sub(1),
        };
        let rounds: Vec<DynTimedRound> = (0..k)
            .map(|i| DynTimedRound {
                index: i as u64,
                segment: Bytes::from(vec![0xcdu8; 12]),
                proof: MerkleProof {
                    index: i as u64,
                    siblings: vec![([i as u8; 32], i % 2 == 0)],
                },
                rtt: SimDuration::from_millis(4 + i as u64),
            })
            .collect();
        let digest = DynamicDigest {
            root: [0x77u8; 32],
            segments: 64,
        };
        let transcript = DynSignedTranscript {
            file_id: "ledger-dyn".into(),
            nonce: [3u8; 32],
            digest,
            position: GeoPoint::new(-27.47, 153.02),
            rounds,
            signature: Signature::from_bytes(&[0x21u8; 64]),
        }
        .canonical_bytes();
        EvidenceRecord {
            prover: "prover-dyn".into(),
            epoch: 1,
            device_key: [8u8; 32],
            sla_location: GeoPoint::new(-27.47, 153.02),
            location_tolerance: Km(25.0),
            policy: TimingPolicy::paper(),
            request: DynAuditRequest {
                file_id: "ledger-dyn".into(),
                digest,
                k: k as u32,
                nonce: [3u8; 32],
            },
            mac_ok: (0..k).map(|i| i % 2 == 0).collect(),
            report_bytes: Bytes::from(encode_report(&report)),
            transcript,
        }
    }

    pub(crate) fn sample_digest_record() -> DigestRecord {
        DigestRecord {
            file_id: "ledger-dyn".into(),
            op: DigestOp::Update,
            index: 3,
            prev: DynamicDigest {
                root: [0x55u8; 32],
                segments: 64,
            },
            new: DynamicDigest {
                root: [0x77u8; 32],
                segments: 64,
            },
        }
    }

    fn encode_full<R: EvidenceKind>(r: &EvidenceRecord<R>) -> Bytes {
        let mut out = Vec::new();
        r.encode_prefix(&mut out);
        out.extend_from_slice(&r.transcript);
        Bytes::from(out)
    }

    /// The evidence record codec's contract for one kind: bodies
    /// round-trip, agree with `body_len` and alias the transcript; every
    /// truncation, one trailing byte, the other kind's tag and a set
    /// padding bit after the per-round bits are refused without
    /// panicking.
    fn check_record_codec<R: EvidenceKind + PartialEq + std::fmt::Debug>(
        sample: fn(usize) -> EvidenceRecord<R>,
        other_tag: u8,
    ) {
        for k in [0usize, 1, 7, 8, 9, 20] {
            let r = sample(k);
            let body = encode_full(&r);
            assert_eq!(body.len(), r.body_len(), "k={k}");
            let back = EvidenceRecord::<R>::decode(&body).expect("decode");
            assert_eq!(back, r, "k={k}");
            let tail = body.slice(body.len() - r.transcript.len()..);
            assert!(back.transcript.aliases(&tail), "k={k}");
        }
        let r = sample(4);
        let body = encode_full(&r);
        for cut in 0..body.len() {
            assert!(
                EvidenceRecord::<R>::decode(&body.slice(..cut)).is_err(),
                "cut {cut}"
            );
        }
        let mutated = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut raw = body.to_vec();
            edit(&mut raw);
            EvidenceRecord::<R>::decode(&Bytes::from(raw)).err()
        };
        assert_eq!(mutated(&|raw| raw.push(0)), Some("trailing bytes in body"));
        assert_eq!(mutated(&|raw| raw[0] = other_tag), Some(R::WRONG_TAG));
        // Four bits use half of the one packed byte, which sits right
        // before `u32 len ‖ report ‖ u32 len ‖ transcript`.
        let packed = body.len() - r.transcript.len() - 4 - r.report_bytes.len() - 4 - 1;
        assert_eq!(mutated(&|raw| raw[packed] |= 1 << 6), Some(R::BIT_PADDING));
    }

    #[test]
    fn evidence_record_codec_holds_for_both_kinds() {
        check_record_codec(sample_record, TAG_DYN_EVIDENCE);
        check_record_codec(sample_dyn_record, TAG_EVIDENCE);
    }

    #[test]
    fn digest_record_roundtrip_and_validation() {
        for record in [
            DigestRecord {
                file_id: "f".into(),
                op: DigestOp::Init,
                index: 0,
                prev: NO_DIGEST,
                new: DynamicDigest {
                    root: [1u8; 32],
                    segments: 5,
                },
            },
            sample_digest_record(),
            DigestRecord {
                file_id: "f".into(),
                op: DigestOp::Append,
                index: 64,
                prev: DynamicDigest {
                    root: [2u8; 32],
                    segments: 64,
                },
                new: DynamicDigest {
                    root: [3u8; 32],
                    segments: 65,
                },
            },
        ] {
            let mut out = Vec::new();
            record.encode(&mut out);
            assert_eq!(out.len(), record.body_len());
            let back = DigestRecord::decode(&Bytes::from(out)).expect("decode");
            assert_eq!(back, record);
        }
        // Structural violations are refused by the decoder.
        let mut bad = sample_digest_record();
        bad.new.segments = 65; // update must not change length
        let mut out = Vec::new();
        bad.encode(&mut out);
        assert_eq!(
            DigestRecord::decode(&Bytes::from(out)),
            Err("update changed the segment count")
        );
        let mut bad_init = sample_digest_record();
        bad_init.op = DigestOp::Init;
        let mut out = Vec::new();
        bad_init.encode(&mut out);
        assert!(DigestRecord::decode(&Bytes::from(out)).is_err());
    }

    pub(crate) fn sample_position_record() -> PositionRecord {
        let sla = GeoPoint::new(-27.47, 153.02);
        let posts = [
            GeoPoint::new(-33.87, 151.21),
            GeoPoint::new(-37.81, 144.96),
            GeoPoint::new(-31.95, 115.86),
            GeoPoint::new(-19.26, 146.82),
            GeoPoint::new(-34.93, 138.60),
        ];
        let vantages: Vec<RangeMeasurement> = posts
            .iter()
            .map(|p| RangeMeasurement {
                landmark: *p,
                distance: p.distance(&sla),
            })
            .collect();
        let mut record = PositionRecord {
            prover: "prover-0001".into(),
            first_epoch: 2,
            sla_location: sla,
            position_tolerance: Km(50.0),
            residual_budget: Km(50.0),
            vantages,
            estimate: None,
        };
        record.estimate = record.derive_estimate();
        assert!(record.estimate.is_some(), "sample geometry must aggregate");
        record
    }

    #[test]
    fn position_record_roundtrip_and_body_len_agree() {
        let with_estimate = sample_position_record();
        let mut without = sample_position_record();
        without.vantages.truncate(2); // under-determined: no estimate
        without.estimate = None;
        for record in [with_estimate, without] {
            let mut out = Vec::new();
            record.encode(&mut out);
            assert_eq!(out.len(), record.body_len());
            let back = PositionRecord::decode(&Bytes::from(out)).expect("decode");
            assert_eq!(back, record);
        }
    }

    #[test]
    fn position_record_estimate_rederives_byte_identically() {
        let record = sample_position_record();
        let rederived = PositionRecord {
            estimate: record.derive_estimate(),
            ..record.clone()
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        record.encode(&mut a);
        rederived.encode(&mut b);
        assert_eq!(a, b, "the seeded robust fit must replay bit-exactly");
    }

    #[test]
    fn position_record_decode_rejects_malformed_without_panicking() {
        let record = sample_position_record();
        let mut out = Vec::new();
        record.encode(&mut out);
        let body = Bytes::from(out);
        for cut in 0..body.len() {
            assert!(
                PositionRecord::decode(&body.slice(..cut)).is_err(),
                "cut {cut}"
            );
        }
        let mut extra = body.to_vec();
        extra.push(0);
        assert!(PositionRecord::decode(&Bytes::from(extra)).is_err());
        let mut wrong_tag = body.to_vec();
        wrong_tag[0] = TAG_EVIDENCE;
        assert!(PositionRecord::decode(&Bytes::from(wrong_tag)).is_err());
        // A flipped consistency flag contradicts the recorded thresholds.
        let mut flipped = body.to_vec();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert_eq!(
            PositionRecord::decode(&Bytes::from(flipped)),
            Err("consistency flag contradicts its thresholds")
        );
        // Nonzero padding in the inlier bits is non-canonical.
        let mut padded = body.to_vec();
        let pad_at = padded.len() - 2; // the packed inlier byte (5 bits used)
        padded[pad_at] |= 1 << 6;
        assert_eq!(
            PositionRecord::decode(&Bytes::from(padded)),
            Err("nonzero inlier padding bits")
        );
    }
}
