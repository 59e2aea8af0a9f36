//! Protocol messages of Fig. 5 and their canonical byte encodings.
//!
//! The verifier signs `R = (Δt*, c, {S_cj ‖ τ_cj}, N, Pos_v)` with its
//! private key; the TPA re-encodes the received transcript and verifies
//! the signature over exactly those bytes, so every field is
//! length-delimited and order-fixed here.

use bytes::Bytes;
use geoproof_crypto::schnorr::Signature;
use geoproof_geo::coords::GeoPoint;
use geoproof_sim::time::SimDuration;

/// The TPA's audit trigger: "the TPA sends the total number of segments ñ
/// of F̃, the number of segments to be checked k, and a random nonce N to
/// the verifier".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditRequest {
    /// File under audit.
    pub file_id: String,
    /// Total number of stored segments ñ.
    pub n_segments: u64,
    /// Number of segments to challenge, k.
    pub k: u32,
    /// Fresh nonce N binding the transcript to this audit.
    pub nonce: [u8; 32],
}

/// One timed round: challenged index, returned segment, measured Δt_j.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimedRound {
    /// Challenged segment index c_j.
    pub index: u64,
    /// Returned segment bytes S_cj ‖ τ_cj (empty when the prover had
    /// nothing — still signed, still damning). A refcounted view: on the
    /// honest path these bytes alias the prover-side arena (local audits)
    /// or the received frame buffer (TCP audits), never a copy.
    pub segment: Bytes,
    /// Measured round-trip time Δt_j.
    pub rtt: SimDuration,
}

/// The signed audit transcript the verifier returns to the TPA.
#[derive(Clone, Debug, PartialEq)]
pub struct SignedTranscript {
    /// File under audit.
    pub file_id: String,
    /// Echo of the TPA's nonce.
    pub nonce: [u8; 32],
    /// The verifier's GPS fix Pos_v.
    pub position: GeoPoint,
    /// The k timed rounds.
    pub rounds: Vec<TimedRound>,
    /// Schnorr signature over the canonical encoding of all of the above.
    pub signature: Signature,
}

impl SignedTranscript {
    /// The canonical byte string that is signed and verified.
    pub fn signing_bytes(
        file_id: &str,
        nonce: &[u8; 32],
        position: &GeoPoint,
        rounds: &[TimedRound],
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + rounds.len() * 128);
        out.extend_from_slice(TRANSCRIPT_MAGIC);
        out.extend_from_slice(&(file_id.len() as u32).to_be_bytes());
        out.extend_from_slice(file_id.as_bytes());
        out.extend_from_slice(nonce);
        out.extend_from_slice(&position.lat.to_bits().to_be_bytes());
        out.extend_from_slice(&position.lon.to_bits().to_be_bytes());
        out.extend_from_slice(&(rounds.len() as u32).to_be_bytes());
        for r in rounds {
            out.extend_from_slice(&r.index.to_be_bytes());
            out.extend_from_slice(&r.rtt.as_nanos().to_be_bytes());
            out.extend_from_slice(&(r.segment.len() as u32).to_be_bytes());
            out.extend_from_slice(&r.segment);
        }
        out
    }

    /// Largest per-round RTT (the paper verifies
    /// `Δt′ = max(Δt_1 … Δt_k) ≤ Δt_max`).
    pub fn max_rtt(&self) -> SimDuration {
        self.rounds
            .iter()
            .map(|r| r.rtt)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The transcript's full canonical encoding: the signed bytes
    /// ([`SignedTranscript::signing_bytes`]) followed by the 64-byte
    /// signature. This is the durable form — what the evidence ledger
    /// stores and what [`SignedTranscript::from_canonical`] parses back —
    /// so re-encoding a parsed transcript is always byte-identical.
    pub fn canonical_bytes(&self) -> Bytes {
        let mut out = SignedTranscript::signing_bytes(
            &self.file_id,
            &self.nonce,
            &self.position,
            &self.rounds,
        );
        out.extend_from_slice(&self.signature.to_bytes());
        Bytes::from(out)
    }

    /// Parses a canonical encoding back into a transcript.
    ///
    /// Round segments are zero-copy [`Bytes::slice`] views of `bytes` —
    /// parsing a transcript out of a larger buffer (a ledger record, a
    /// file read) never copies payload. Every field is bounds-checked;
    /// malformed input returns an error, never panics. Trailing bytes
    /// are rejected so `from_canonical ∘ canonical_bytes` is the
    /// identity and nothing can hide after the signature.
    ///
    /// # Errors
    ///
    /// Returns [`TranscriptDecodeError`] describing the first malformed
    /// field encountered.
    pub fn from_canonical(bytes: &Bytes) -> Result<SignedTranscript, TranscriptDecodeError> {
        use TranscriptDecodeError as E;
        let mut c = crate::cursor::ByteCursor::new(bytes);
        let trunc = |_| E::Truncated;

        if c.take(TRANSCRIPT_MAGIC.len()).map_err(trunc)?.as_ref() != TRANSCRIPT_MAGIC {
            return Err(E::BadMagic);
        }
        let fid_len = c.take_u32().map_err(trunc)? as usize;
        let fid = c.take(fid_len).map_err(trunc)?;
        let file_id = std::str::from_utf8(&fid)
            .map_err(|_| E::BadFileId)?
            .to_owned();
        let nonce = c.take_array::<32>().map_err(trunc)?;
        let lat = c.take_f64_bits().map_err(trunc)?;
        let lon = c.take_f64_bits().map_err(trunc)?;
        if !lat.is_finite()
            || !lon.is_finite()
            || !(-90.0..=90.0).contains(&lat)
            || !(-180.0..=180.0).contains(&lon)
        {
            return Err(E::BadPosition);
        }
        let position = GeoPoint { lat, lon };
        let n_rounds = c.take_u32().map_err(trunc)?;
        let mut rounds = Vec::new();
        for _ in 0..n_rounds {
            let index = c.take_u64().map_err(trunc)?;
            let rtt = SimDuration::from_nanos(c.take_u64().map_err(trunc)?);
            let seg_len = c.take_u32().map_err(trunc)? as usize;
            let segment = c.take(seg_len).map_err(trunc)?;
            rounds.push(TimedRound {
                index,
                segment,
                rtt,
            });
        }
        let signature = Signature::from_bytes(&c.take_array::<SIGNATURE_LEN>().map_err(trunc)?);
        if !c.at_end() {
            return Err(E::TrailingBytes);
        }
        Ok(SignedTranscript {
            file_id,
            nonce,
            position,
            rounds,
            signature,
        })
    }

    /// The signed part of a canonical encoding that
    /// [`SignedTranscript::from_canonical`] accepted: a zero-copy view
    /// of every byte but the trailing 64-byte signature. Because the
    /// parse is strict, this equals [`SignedTranscript::signing_bytes`]
    /// of the parsed fields, so a signature can be checked without
    /// re-encoding the transcript.
    pub fn signed_prefix(canonical: &Bytes) -> Bytes {
        canonical.slice(..canonical.len().saturating_sub(SIGNATURE_LEN))
    }
}

/// Domain-separation prefix of the canonical transcript encoding.
const TRANSCRIPT_MAGIC: &[u8] = b"geoproof-transcript-v1";

/// Length of the Schnorr signature that ends every canonical transcript
/// encoding, static and dynamic.
pub(crate) const SIGNATURE_LEN: usize = 64;

/// Why a canonical transcript encoding failed to parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TranscriptDecodeError {
    /// Input ended before a field completed.
    Truncated,
    /// The `geoproof-transcript-v1` prefix is missing.
    BadMagic,
    /// File id is not valid UTF-8.
    BadFileId,
    /// GPS position is non-finite or out of range.
    BadPosition,
    /// A Merkle proof field failed its strict canonical parse (dynamic
    /// transcripts only).
    BadProof,
    /// Bytes remain after the signature.
    TrailingBytes,
}

impl std::fmt::Display for TranscriptDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranscriptDecodeError::Truncated => write!(f, "transcript truncated mid-field"),
            TranscriptDecodeError::BadMagic => write!(f, "missing transcript version prefix"),
            TranscriptDecodeError::BadFileId => write!(f, "file id is not UTF-8"),
            TranscriptDecodeError::BadPosition => write!(f, "GPS position out of range"),
            TranscriptDecodeError::BadProof => write!(f, "malformed Merkle proof field"),
            TranscriptDecodeError::TrailingBytes => write!(f, "trailing bytes after signature"),
        }
    }
}

impl std::error::Error for TranscriptDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn rounds() -> Vec<TimedRound> {
        vec![
            TimedRound {
                index: 5,
                segment: vec![1, 2, 3].into(),
                rtt: SimDuration::from_millis(14),
            },
            TimedRound {
                index: 99,
                segment: Bytes::new(),
                rtt: SimDuration::from_millis(15),
            },
        ]
    }

    #[test]
    fn signing_bytes_are_deterministic() {
        let pos = GeoPoint::new(-27.5, 153.0);
        let a = SignedTranscript::signing_bytes("f", &[7u8; 32], &pos, &rounds());
        let b = SignedTranscript::signing_bytes("f", &[7u8; 32], &pos, &rounds());
        assert_eq!(a, b);
    }

    #[test]
    fn signing_bytes_bind_every_field() {
        let pos = GeoPoint::new(-27.5, 153.0);
        let base = SignedTranscript::signing_bytes("f", &[7u8; 32], &pos, &rounds());

        let other_fid = SignedTranscript::signing_bytes("g", &[7u8; 32], &pos, &rounds());
        assert_ne!(base, other_fid);

        let other_nonce = SignedTranscript::signing_bytes("f", &[8u8; 32], &pos, &rounds());
        assert_ne!(base, other_nonce);

        let other_pos = SignedTranscript::signing_bytes(
            "f",
            &[7u8; 32],
            &GeoPoint::new(-27.5, 153.1),
            &rounds(),
        );
        assert_ne!(base, other_pos);

        let mut r = rounds();
        r[0].rtt = SimDuration::from_millis(13);
        let other_rtt = SignedTranscript::signing_bytes("f", &[7u8; 32], &pos, &r);
        assert_ne!(base, other_rtt);

        let mut r = rounds();
        r[1].segment = vec![0].into();
        let other_seg = SignedTranscript::signing_bytes("f", &[7u8; 32], &pos, &r);
        assert_ne!(base, other_seg);
    }

    #[test]
    fn length_prefixing_prevents_field_bleed() {
        // ("ab", rounds with segment "c") vs ("a", segment "bc") must
        // encode differently even though the concatenated bytes agree.
        let pos = GeoPoint::new(0.0, 0.0);
        let r1 = vec![TimedRound {
            index: 0,
            segment: Bytes::from(b"c".to_vec()),
            rtt: SimDuration::ZERO,
        }];
        let r2 = vec![TimedRound {
            index: 0,
            segment: Bytes::from(b"bc".to_vec()),
            rtt: SimDuration::ZERO,
        }];
        let a = SignedTranscript::signing_bytes("ab", &[0u8; 32], &pos, &r1);
        let b = SignedTranscript::signing_bytes("a", &[0u8; 32], &pos, &r2);
        assert_ne!(a, b);
    }

    fn transcript() -> SignedTranscript {
        SignedTranscript {
            file_id: "f".into(),
            nonce: [7u8; 32],
            position: GeoPoint::new(-27.5, 153.0),
            rounds: rounds(),
            signature: Signature::from_bytes(&[0x42u8; 64]),
        }
    }

    #[test]
    fn canonical_roundtrip_is_identity() {
        let t = transcript();
        let bytes = t.canonical_bytes();
        let parsed = SignedTranscript::from_canonical(&bytes).expect("parse");
        assert_eq!(parsed, t);
        assert_eq!(parsed.canonical_bytes(), bytes, "re-encode must match");
    }

    #[test]
    fn signed_prefix_is_the_signing_bytes() {
        // k = 0, 1 and 200; round 0 carries an empty segment.
        for k in [0u64, 1, 200] {
            let rounds: Vec<TimedRound> = (0..k)
                .map(|j| TimedRound {
                    index: j * 13,
                    segment: Bytes::from(vec![j as u8; (j % 3 * 50) as usize]),
                    rtt: SimDuration::from_nanos(j * 1_001),
                })
                .collect();
            let t = SignedTranscript {
                rounds,
                ..transcript()
            };
            let bytes = t.canonical_bytes();
            assert_eq!(SignedTranscript::from_canonical(&bytes), Ok(t.clone()));
            let prefix = SignedTranscript::signed_prefix(&bytes);
            let signing =
                SignedTranscript::signing_bytes(&t.file_id, &t.nonce, &t.position, &t.rounds);
            assert_eq!(prefix.as_ref(), signing.as_slice(), "k = {k}");
            assert!(prefix.aliases(&bytes.slice(..bytes.len() - SIGNATURE_LEN)));
        }
    }

    #[test]
    fn canonical_parse_is_zero_copy_for_segments() {
        let t = transcript();
        let bytes = t.canonical_bytes();
        let parsed = SignedTranscript::from_canonical(&bytes).expect("parse");
        // A round's segment must be a window into the input buffer, not a
        // copy: slicing the input at the same offset yields an alias.
        let seg = &parsed.rounds[0].segment;
        let hay = bytes.as_ref();
        let needle = seg.as_ref();
        let off = hay
            .windows(needle.len().max(1))
            .position(|w| w == needle)
            .expect("segment bytes present");
        assert!(
            seg.aliases(&bytes.slice(off..off + needle.len())),
            "parsed segment must alias the canonical buffer"
        );
    }

    #[test]
    fn canonical_parse_rejects_malformed_input_without_panicking() {
        let t = transcript();
        let good = t.canonical_bytes();
        // Empty, truncated at every boundary, and trailing garbage.
        assert!(SignedTranscript::from_canonical(&Bytes::new()).is_err());
        for cut in 0..good.len() {
            assert!(
                SignedTranscript::from_canonical(&good.slice(..cut)).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut extra = good.to_vec();
        extra.push(0);
        assert_eq!(
            SignedTranscript::from_canonical(&Bytes::from(extra)),
            Err(TranscriptDecodeError::TrailingBytes)
        );
        // Wrong magic.
        let mut wrong = good.to_vec();
        wrong[0] ^= 1;
        assert_eq!(
            SignedTranscript::from_canonical(&Bytes::from(wrong)),
            Err(TranscriptDecodeError::BadMagic)
        );
        // Non-finite latitude: flip its bits to an NaN pattern.
        let lat_off = TRANSCRIPT_MAGIC.len() + 4 + 1 + 32;
        let mut nan = good.to_vec();
        nan[lat_off..lat_off + 8].copy_from_slice(&f64::NAN.to_bits().to_be_bytes());
        assert_eq!(
            SignedTranscript::from_canonical(&Bytes::from(nan)),
            Err(TranscriptDecodeError::BadPosition)
        );
    }

    #[test]
    fn max_rtt_of_transcript() {
        let pos = GeoPoint::new(0.0, 0.0);
        let sig_bytes = [0u8; 64];
        let t = SignedTranscript {
            file_id: "f".into(),
            nonce: [0u8; 32],
            position: pos,
            rounds: rounds(),
            signature: geoproof_crypto::schnorr::Signature::from_bytes(&sig_bytes),
        };
        assert_eq!(t.max_rtt(), SimDuration::from_millis(15));
    }
}
