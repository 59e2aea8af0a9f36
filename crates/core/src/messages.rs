//! Protocol messages of Fig. 5 and their canonical byte encodings.
//!
//! The verifier signs `R = (Δt*, c, {S_cj ‖ τ_cj}, N, Pos_v)` with its
//! private key; the TPA re-encodes the received transcript and verifies
//! the signature over exactly those bytes, so every field is
//! length-delimited and order-fixed here. Static and dynamic transcripts
//! share the one codec, [`Transcript`]; a kind supplies only its magic,
//! what it binds after the nonce, and each [`Round`]'s proof.

use crate::cursor::{ByteCursor, Truncated};
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
    /// The canonical byte string that is signed and verified
    /// ([`Transcript::signing_message`]; a static transcript binds
    /// nothing beyond the common fields).
    pub fn signing_bytes(
        file_id: &str,
        nonce: &[u8; 32],
        position: &GeoPoint,
        rounds: &[TimedRound],
    ) -> Vec<u8> {
        Self::signing_message(file_id, nonce, &(), position, rounds)
    }

    /// [`Transcript::canonical_bytes`], callable without the trait.
    pub fn canonical_bytes(&self) -> Bytes {
        Transcript::canonical_bytes(self)
    }

    /// [`Transcript::from_canonical`], callable without the trait.
    ///
    /// # Errors
    ///
    /// As [`Transcript::from_canonical`].
    pub fn from_canonical(bytes: &Bytes) -> Result<SignedTranscript, TranscriptDecodeError> {
        Transcript::from_canonical(bytes)
    }
}

/// One timed round of either transcript kind, as the shared codec and
/// checks see it.
pub trait Round: Sized {
    /// Challenged segment index c_j.
    fn index(&self) -> u64;
    /// Measured round-trip time Δt_j.
    fn rtt(&self) -> SimDuration;
    /// Returned segment bytes S_cj ‖ τ_cj.
    fn segment(&self) -> &Bytes;
    /// Appends the proof the canonical encoding places between Δt_j and
    /// the segment: nothing for a static round, the `u32`-prefixed
    /// Merkle proof for a dynamic one.
    fn write_proof(&self, out: &mut Vec<u8>);
    /// Parses the rest of a round whose index and Δt_j are read: the
    /// [`Round::write_proof`] bytes, then the `u32`-prefixed segment.
    ///
    /// # Errors
    ///
    /// The first malformed field.
    fn decode(
        index: u64,
        rtt: SimDuration,
        c: &mut ByteCursor<'_>,
    ) -> Result<Self, TranscriptDecodeError>;
}

/// Reads a `u32`-prefixed segment as a zero-copy view.
pub(crate) fn take_segment(c: &mut ByteCursor<'_>) -> Result<Bytes, TranscriptDecodeError> {
    let len = c.take_u32().map_err(|_| TranscriptDecodeError::Truncated)? as usize;
    c.take(len).map_err(|_| TranscriptDecodeError::Truncated)
}

impl Round for TimedRound {
    fn index(&self) -> u64 {
        self.index
    }
    fn rtt(&self) -> SimDuration {
        self.rtt
    }
    fn segment(&self) -> &Bytes {
        &self.segment
    }
    fn write_proof(&self, _out: &mut Vec<u8>) {}
    fn decode(
        index: u64,
        rtt: SimDuration,
        c: &mut ByteCursor<'_>,
    ) -> Result<Self, TranscriptDecodeError> {
        Ok(TimedRound {
            index,
            segment: take_segment(c)?,
            rtt,
        })
    }
}

/// A signed transcript of either audit kind: the one canonical codec,
/// over what each kind adds to the common Fig. 5 fields.
///
/// The encoding is `magic ‖ u32 len ‖ file id ‖ nonce ‖ binding ‖ lat ‖
/// lon ‖ u32 k ‖ k × (u64 index ‖ u64 Δt ns ‖ proof ‖ u32 len ‖ segment)
/// ‖ 64-byte signature`, everything big-endian; the signature covers all
/// bytes before it.
pub trait Transcript: Sized {
    /// One timed round.
    type Round: Round;
    /// What the signature binds between the nonce and the position:
    /// nothing (`()`) for a static audit, the audited digest for a
    /// dynamic one.
    type Binding: PartialEq;
    /// Domain-separation prefix of the canonical encoding.
    const MAGIC: &'static [u8];

    /// Appends the canonical bytes of a binding.
    fn write_binding(binding: &Self::Binding, out: &mut Vec<u8>);
    /// Parses what [`Transcript::write_binding`] wrote.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when the input ends first.
    fn read_binding(c: &mut ByteCursor<'_>) -> Result<Self::Binding, Truncated>;
    /// Builds a transcript from its fields.
    fn assemble(
        file_id: String,
        nonce: [u8; 32],
        binding: Self::Binding,
        position: GeoPoint,
        rounds: Vec<Self::Round>,
        signature: Signature,
    ) -> Self;

    /// File under audit.
    fn file_id(&self) -> &str;
    /// Echo of the TPA's nonce.
    fn nonce(&self) -> &[u8; 32];
    /// The echoed binding.
    fn binding(&self) -> &Self::Binding;
    /// The verifier's GPS fix Pos_v.
    fn position(&self) -> &GeoPoint;
    /// The k timed rounds.
    fn rounds(&self) -> &[Self::Round];
    /// The device signature.
    fn signature(&self) -> &Signature;

    /// The canonical byte string that is signed and verified.
    fn signing_message(
        file_id: &str,
        nonce: &[u8; 32],
        binding: &Self::Binding,
        position: &GeoPoint,
        rounds: &[Self::Round],
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + rounds.len() * 128);
        out.extend_from_slice(Self::MAGIC);
        out.extend_from_slice(&(file_id.len() as u32).to_be_bytes());
        out.extend_from_slice(file_id.as_bytes());
        out.extend_from_slice(nonce);
        Self::write_binding(binding, &mut out);
        out.extend_from_slice(&position.lat.to_bits().to_be_bytes());
        out.extend_from_slice(&position.lon.to_bits().to_be_bytes());
        out.extend_from_slice(&(rounds.len() as u32).to_be_bytes());
        for r in rounds {
            out.extend_from_slice(&r.index().to_be_bytes());
            out.extend_from_slice(&r.rtt().as_nanos().to_be_bytes());
            r.write_proof(&mut out);
            out.extend_from_slice(&(r.segment().len() as u32).to_be_bytes());
            out.extend_from_slice(r.segment());
        }
        out
    }

    /// [`Transcript::signing_message`] of this transcript's own fields.
    fn signing_bytes_of(&self) -> Vec<u8> {
        Self::signing_message(
            self.file_id(),
            self.nonce(),
            self.binding(),
            self.position(),
            self.rounds(),
        )
    }

    /// Largest per-round RTT (the paper verifies
    /// `Δt′ = max(Δt_1 … Δt_k) ≤ Δt_max`).
    fn max_rtt(&self) -> SimDuration {
        self.rounds()
            .iter()
            .map(Round::rtt)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The transcript's full canonical encoding: the signed bytes
    /// followed by the 64-byte signature. This is the durable form —
    /// what the evidence ledger stores and what
    /// [`Transcript::from_canonical`] parses back — so re-encoding a
    /// parsed transcript is always byte-identical.
    fn canonical_bytes(&self) -> Bytes {
        let mut out = self.signing_bytes_of();
        out.extend_from_slice(&self.signature().to_bytes());
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
    fn from_canonical(bytes: &Bytes) -> Result<Self, TranscriptDecodeError> {
        use TranscriptDecodeError as E;
        let mut c = ByteCursor::new(bytes);
        let trunc = |_| E::Truncated;

        if c.take(Self::MAGIC.len()).map_err(trunc)?.as_ref() != Self::MAGIC {
            return Err(E::BadMagic);
        }
        let fid_len = c.take_u32().map_err(trunc)? as usize;
        let fid = c.take(fid_len).map_err(trunc)?;
        let file_id = std::str::from_utf8(&fid)
            .map_err(|_| E::BadFileId)?
            .to_owned();
        let nonce = c.take_array::<32>().map_err(trunc)?;
        let binding = Self::read_binding(&mut c).map_err(trunc)?;
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
            rounds.push(Self::Round::decode(index, rtt, &mut c)?);
        }
        let signature = Signature::from_bytes(&c.take_array::<SIGNATURE_LEN>().map_err(trunc)?);
        if !c.at_end() {
            return Err(E::TrailingBytes);
        }
        Ok(Self::assemble(
            file_id, nonce, binding, position, rounds, signature,
        ))
    }

    /// The signed part of a canonical encoding that
    /// [`Transcript::from_canonical`] accepted: a zero-copy view of every
    /// byte but the trailing 64-byte signature. Because the parse is
    /// strict, this equals [`Transcript::signing_bytes_of`] the parsed
    /// transcript, so a signature can be checked without re-encoding it.
    fn signed_prefix(canonical: &Bytes) -> Bytes {
        canonical.slice(..canonical.len().saturating_sub(SIGNATURE_LEN))
    }
}

impl Transcript for SignedTranscript {
    type Round = TimedRound;
    type Binding = ();
    const MAGIC: &'static [u8] = b"geoproof-transcript-v1";

    fn write_binding(_binding: &(), _out: &mut Vec<u8>) {}
    fn read_binding(_c: &mut ByteCursor<'_>) -> Result<(), Truncated> {
        Ok(())
    }
    fn assemble(
        file_id: String,
        nonce: [u8; 32],
        _binding: (),
        position: GeoPoint,
        rounds: Vec<TimedRound>,
        signature: Signature,
    ) -> Self {
        SignedTranscript {
            file_id,
            nonce,
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
    fn binding(&self) -> &() {
        &()
    }
    fn position(&self) -> &GeoPoint {
        &self.position
    }
    fn rounds(&self) -> &[TimedRound] {
        &self.rounds
    }
    fn signature(&self) -> &Signature {
        &self.signature
    }
}

/// Length of the Schnorr signature that ends every canonical transcript
/// encoding, static and dynamic.
const SIGNATURE_LEN: usize = 64;

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

    /// A dynamic transcript of `k` rounds cycling through a proven
    /// segment, an empty segment under an empty-sibling proof, and a
    /// deeper proof.
    fn dyn_transcript(k: u64) -> crate::dynamic_audit::DynSignedTranscript {
        use crate::dynamic_audit::{DynSignedTranscript, DynTimedRound};
        use geoproof_por::merkle::MerkleProof;
        let rounds = (0..k)
            .map(|j| DynTimedRound {
                index: j * 7,
                segment: Bytes::from(vec![j as u8; (j % 3 * 40) as usize]),
                proof: MerkleProof {
                    index: j * 7,
                    siblings: (0..j % 3).map(|d| ([d as u8; 32], d == 1)).collect(),
                },
                rtt: SimDuration::from_nanos(j * 999),
            })
            .collect();
        DynSignedTranscript {
            file_id: "df".into(),
            nonce: [3u8; 32],
            digest: geoproof_por::dynamic::DynamicDigest {
                root: [0x77u8; 32],
                segments: 4096,
            },
            position: GeoPoint::new(-27.5, 153.0),
            rounds,
            signature: Signature::from_bytes(&[0x21u8; 64]),
        }
    }

    /// A static transcript of `k` rounds; every third segment is empty.
    fn static_transcript(k: u64) -> SignedTranscript {
        let rounds = (0..k)
            .map(|j| TimedRound {
                index: j * 13,
                segment: Bytes::from(vec![j as u8; (j % 3 * 50) as usize]),
                rtt: SimDuration::from_nanos(j * 1_001),
            })
            .collect();
        SignedTranscript {
            rounds,
            ..transcript()
        }
    }

    /// The codec's contract for one transcript of either kind: parsing
    /// the encoding gives the transcript back with zero-copy segments,
    /// the signed prefix is the signing bytes, and every truncation, one
    /// trailing byte, a wrong magic and a NaN latitude are refused
    /// without panicking.
    fn check_codec<T: Transcript + PartialEq + std::fmt::Debug>(t: &T) {
        use TranscriptDecodeError as E;
        let k = t.rounds().len();
        let bytes = t.canonical_bytes();
        let parsed = T::from_canonical(&bytes).expect("parse");
        assert_eq!(&parsed, t, "k = {k}");
        let buffer = bytes.as_ptr_range();
        for round in parsed.rounds().iter().filter(|r| !r.segment().is_empty()) {
            assert!(buffer.contains(&round.segment().as_ptr()), "k = {k}");
        }
        let prefix = T::signed_prefix(&bytes);
        assert_eq!(prefix.as_ref(), t.signing_bytes_of().as_slice(), "k = {k}");
        assert!(prefix.aliases(&bytes.slice(..bytes.len() - SIGNATURE_LEN)));

        for cut in 0..bytes.len() {
            assert!(
                T::from_canonical(&bytes.slice(..cut)).is_err(),
                "k = {k}, cut {cut}"
            );
        }
        let mutated = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut raw = bytes.to_vec();
            edit(&mut raw);
            T::from_canonical(&Bytes::from(raw)).err()
        };
        assert_eq!(mutated(&|raw| raw.push(0)), Some(E::TrailingBytes));
        assert_eq!(mutated(&|raw| raw[0] ^= 1), Some(E::BadMagic));
        let mut binding = Vec::new();
        T::write_binding(t.binding(), &mut binding);
        let lat = T::MAGIC.len() + 4 + t.file_id().len() + 32 + binding.len();
        let nan = f64::NAN.to_bits().to_be_bytes();
        assert_eq!(
            mutated(&|raw| raw[lat..lat + 8].copy_from_slice(&nan)),
            Some(E::BadPosition)
        );
    }

    #[test]
    fn canonical_codec_holds_for_both_transcript_kinds() {
        for k in [0, 1, 2, 200] {
            check_codec(&static_transcript(k));
            check_codec(&dyn_transcript(k));
        }
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
