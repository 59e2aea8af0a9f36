//! Self-contained inclusion proofs: one audit round's evidence,
//! checkable against the TPA public key without the ledger.
//!
//! A proof carries the evidence record's body, the chain value before
//! it, the Merkle path from its seal to a checkpoint root, and the
//! TPA's signature over that root. [`InclusionProof::verify`] then
//! establishes, from the TPA key alone: the TPA committed to `root`
//! covering `covered` records; leaf `evidence_index` under that root is
//! this record's seal; the seal matches these body bytes at this chain
//! position; and the recorded verdict re-derives from the transcript
//! ([`crate::verify::replay_record`]). Size is O(log n) in ledger
//! length plus the one record.

use crate::chain::{seal_hash, Digest};
use crate::reader::{checkpoint_message, checkpoint_message_v2, Entry};
use crate::record::{
    DigestRecord, EvidenceRecord, PositionRecord, TAG_DIGEST, TAG_DYN_EVIDENCE, TAG_EVIDENCE,
    TAG_POSITION,
};
use crate::verify::{replay_position_record, replay_record};
use crate::LedgerError;
use bytes::Bytes;
use geoproof_core::dynamic_audit::DynAuditRequest;
use geoproof_crypto::schnorr::{Signature, VerifyingKey};
use geoproof_por::merkle::{verify_proof, MerkleProof};

/// Proof-file magic. `GPEVPRF2` added the checkpoint-binding kind byte
/// (v1 whole-ledger checkpoints vs v2 segment checkpoints); `GPEVPRF1`
/// files are no longer decoded — re-emit them from the ledger.
const PROOF_MAGIC: &[u8; 8] = b"GPEVPRF2";

/// Which checkpoint message the TPA signed over `covered ‖ root`: the
/// original whole-ledger v1 message, or the v2 segment message that also
/// commits the segment's number, global base ordinal and the
/// Merkle-forest digest over every earlier sealed segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointBinding {
    /// A v1 (single-file ledger, or segment 0) checkpoint.
    V1,
    /// A checkpoint inside rotated segment `segment`.
    V2 {
        /// The segment's 0-based number.
        segment: u32,
        /// Sealed leaves in all earlier segments; the proof's Merkle
        /// leaf index is `evidence_index - base_sealed`.
        base_sealed: u64,
        /// Forest digest over earlier segments' final checkpoint roots.
        forest_prev: Digest,
    },
}

impl CheckpointBinding {
    /// The binding every checkpoint inside a file with this header
    /// carries: v1 for an unrotated ledger (or segment 0), v2 with the
    /// header's continuation fields otherwise.
    pub fn from_header(header: &crate::reader::Header) -> CheckpointBinding {
        match &header.continuation {
            None => CheckpointBinding::V1,
            Some(c) => CheckpointBinding::V2 {
                segment: c.segment,
                base_sealed: c.base_sealed,
                forest_prev: c.forest_prev,
            },
        }
    }
}

/// A self-contained proof that one evidence record is committed by a
/// TPA-signed checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct InclusionProof {
    /// The record's chain index (local to its segment file).
    pub record_index: u64,
    /// Chain value before the record (`h_{record_index - 1}`).
    pub prev: Digest,
    /// The record's raw body bytes.
    pub body: Bytes,
    /// The record's **global** evidence ordinal across all segments
    /// (its Merkle leaf index is this minus the segment's base).
    pub evidence_index: u64,
    /// Sibling digests, leaf level upward (`true` = sibling on right).
    pub siblings: Vec<(Digest, bool)>,
    /// Evidence records the checkpoint covers (local to its segment).
    pub covered: u64,
    /// The checkpoint's Merkle root.
    pub root: Digest,
    /// TPA signature over the checkpoint.
    pub signature: [u8; 64],
    /// Which checkpoint message the signature covers.
    pub ckpt: CheckpointBinding,
}

/// What [`InclusionProof::verify`] hands back on success.
#[derive(Clone, Debug)]
pub struct VerifiedEvidence {
    /// The proven record, parsed — static evidence, dynamic evidence, or
    /// a digest transition (never a checkpoint; checkpoints are the
    /// commitment, not a leaf).
    pub entry: Entry,
    /// The record's seal (its Merkle leaf).
    pub seal: Digest,
}

impl VerifiedEvidence {
    /// The proven static evidence record, if that is what was proven.
    pub fn evidence(&self) -> Option<&EvidenceRecord> {
        match &self.entry {
            Entry::Evidence(e) => Some(e),
            _ => None,
        }
    }

    /// The proven dynamic evidence record, if that is what was proven.
    pub fn dyn_evidence(&self) -> Option<&EvidenceRecord<DynAuditRequest>> {
        match &self.entry {
            Entry::DynEvidence(e) => Some(e),
            _ => None,
        }
    }

    /// The proven digest transition, if that is what was proven.
    pub fn digest(&self) -> Option<&DigestRecord> {
        match &self.entry {
            Entry::Digest(d) => Some(d),
            _ => None,
        }
    }

    /// The proven position estimate, if that is what was proven.
    pub fn position(&self) -> Option<&PositionRecord> {
        match &self.entry {
            Entry::Position(p) => Some(p),
            _ => None,
        }
    }
}

impl InclusionProof {
    /// Serialises the proof.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 + self.body.len());
        out.extend_from_slice(PROOF_MAGIC);
        match &self.ckpt {
            CheckpointBinding::V1 => out.push(1),
            CheckpointBinding::V2 {
                segment,
                base_sealed,
                forest_prev,
            } => {
                out.push(2);
                out.extend_from_slice(&segment.to_be_bytes());
                out.extend_from_slice(&base_sealed.to_be_bytes());
                out.extend_from_slice(forest_prev);
            }
        }
        out.extend_from_slice(&self.record_index.to_be_bytes());
        out.extend_from_slice(&self.prev);
        out.extend_from_slice(&(self.body.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.body);
        out.extend_from_slice(&self.evidence_index.to_be_bytes());
        out.extend_from_slice(&(self.siblings.len() as u32).to_be_bytes());
        for (digest, on_right) in &self.siblings {
            out.extend_from_slice(digest);
            out.push(u8::from(*on_right));
        }
        out.extend_from_slice(&self.covered.to_be_bytes());
        out.extend_from_slice(&self.root);
        out.extend_from_slice(&self.signature);
        out
    }

    /// Parses a serialised proof. The body is a zero-copy view of
    /// `bytes`.
    ///
    /// # Errors
    ///
    /// [`LedgerError::BadProof`] naming the malformed field; never
    /// panics.
    pub fn decode(bytes: &Bytes) -> Result<InclusionProof, LedgerError> {
        let bad = LedgerError::BadProof;
        let mut c = geoproof_core::cursor::ByteCursor::new(bytes);
        let trunc = |_| bad("truncated");

        if c.take(8).map_err(trunc)?.as_ref() != PROOF_MAGIC {
            return Err(bad("magic"));
        }
        let ckpt = match c.take_array::<1>().map_err(trunc)?[0] {
            1 => CheckpointBinding::V1,
            2 => {
                let segment = c.take_u32().map_err(trunc)?;
                let base_sealed = c.take_u64().map_err(trunc)?;
                let forest_prev: Digest = c.take_array().map_err(trunc)?;
                CheckpointBinding::V2 {
                    segment,
                    base_sealed,
                    forest_prev,
                }
            }
            _ => return Err(bad("checkpoint binding kind")),
        };
        let record_index = c.take_u64().map_err(trunc)?;
        let prev: Digest = c.take_array().map_err(trunc)?;
        let body_len = c.take_u32().map_err(trunc)? as usize;
        let body = c.take(body_len).map_err(trunc)?;
        let evidence_index = c.take_u64().map_err(trunc)?;
        let n_siblings = c.take_u32().map_err(trunc)?;
        let mut siblings = Vec::new();
        for _ in 0..n_siblings {
            let digest: Digest = c.take_array().map_err(trunc)?;
            let dir = c.take_array::<1>().map_err(trunc)?;
            siblings.push((digest, dir[0] != 0));
        }
        let covered = c.take_u64().map_err(trunc)?;
        let root: Digest = c.take_array().map_err(trunc)?;
        let signature: [u8; 64] = c.take_array().map_err(trunc)?;
        if !c.at_end() {
            return Err(bad("trailing bytes"));
        }
        Ok(InclusionProof {
            record_index,
            prev,
            body,
            evidence_index,
            siblings,
            covered,
            root,
            signature,
            ckpt,
        })
    }

    /// Verifies the proof against the TPA public key and replays the
    /// record's verdict (see the module docs for the exact claims).
    ///
    /// # Errors
    ///
    /// [`LedgerError::BadProof`] on any commitment failure, plus the
    /// replay errors of [`replay_record`].
    pub fn verify(&self, tpa: &VerifyingKey) -> Result<VerifiedEvidence, LedgerError> {
        let signature = Signature::from_bytes(&self.signature);
        let message = match &self.ckpt {
            CheckpointBinding::V1 => checkpoint_message(self.covered, &self.root),
            CheckpointBinding::V2 {
                segment,
                base_sealed,
                forest_prev,
            } => checkpoint_message_v2(
                *segment,
                *base_sealed,
                forest_prev,
                self.covered,
                &self.root,
            ),
        };
        if !tpa.verify(&message, &signature) {
            return Err(LedgerError::BadProof("TPA checkpoint signature"));
        }
        let base = match &self.ckpt {
            CheckpointBinding::V1 => 0,
            CheckpointBinding::V2 { base_sealed, .. } => *base_sealed,
        };
        let leaf = self
            .evidence_index
            .checked_sub(base)
            .ok_or(LedgerError::BadProof("leaf below the segment base"))?;
        if leaf >= self.covered {
            return Err(LedgerError::BadProof("leaf outside checkpoint coverage"));
        }
        let seal = seal_hash(
            &self.prev,
            self.record_index,
            self.body.len() as u32,
            &[&self.body],
        );
        let merkle = MerkleProof {
            index: leaf,
            siblings: self.siblings.clone(),
        };
        if !verify_proof(&self.root, &seal, &merkle) {
            return Err(LedgerError::BadProof("Merkle path"));
        }
        let entry = match self.body.first() {
            Some(&TAG_EVIDENCE) => {
                let evidence = EvidenceRecord::decode(&self.body)
                    .map_err(|_| LedgerError::BadProof("evidence body"))?;
                replay_record(&evidence, self.evidence_index)?;
                Entry::Evidence(evidence)
            }
            Some(&TAG_DYN_EVIDENCE) => {
                let evidence = EvidenceRecord::decode(&self.body)
                    .map_err(|_| LedgerError::BadProof("dynamic evidence body"))?;
                replay_record(&evidence, self.evidence_index)?;
                Entry::DynEvidence(evidence)
            }
            // A digest transition proves the owner recorded this exact
            // state change; chain continuity against its neighbours needs
            // the whole ledger ([`crate::replay`]), not one leaf.
            Some(&TAG_DIGEST) => Entry::Digest(
                DigestRecord::decode(&self.body)
                    .map_err(|_| LedgerError::BadProof("digest body"))?,
            ),
            Some(&TAG_POSITION) => {
                let position = PositionRecord::decode(&self.body)
                    .map_err(|_| LedgerError::BadProof("position body"))?;
                replay_position_record(&position, &self.body, self.record_index)?;
                Entry::Position(position)
            }
            _ => return Err(LedgerError::BadProof("provable record tag")),
        };
        Ok(VerifiedEvidence { entry, seal })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::LedgerWriter;
    use crate::Ledger;
    use geoproof_crypto::chacha::ChaChaRng;
    use geoproof_crypto::schnorr::SigningKey;

    #[test]
    fn proof_decode_rejects_malformed_without_panicking() {
        // Structure-only checks (verification is exercised end-to-end in
        // tests/e2e.rs with genuine records).
        let proof = InclusionProof {
            record_index: 4,
            prev: [1u8; 32],
            body: Bytes::from(vec![1, 2, 3]),
            evidence_index: 2,
            siblings: vec![([3u8; 32], true), ([4u8; 32], false)],
            covered: 5,
            root: [5u8; 32],
            signature: [6u8; 64],
            ckpt: CheckpointBinding::V1,
        };
        let enc = Bytes::from(proof.encode());
        assert_eq!(InclusionProof::decode(&enc).expect("decode"), proof);
        for cut in 0..enc.len() {
            assert!(InclusionProof::decode(&enc.slice(..cut)).is_err(), "{cut}");
        }
        let mut extra = enc.to_vec();
        extra.push(0);
        assert!(InclusionProof::decode(&Bytes::from(extra)).is_err());

        // The v2 binding round-trips too, and an unknown kind byte is
        // refused rather than misparsed.
        let v2 = InclusionProof {
            ckpt: CheckpointBinding::V2 {
                segment: 3,
                base_sealed: 700,
                forest_prev: [9u8; 32],
            },
            evidence_index: 702,
            ..proof
        };
        let enc = Bytes::from(v2.encode());
        assert_eq!(InclusionProof::decode(&enc).expect("decode v2"), v2);
        let mut junk = enc.to_vec();
        junk[8] = 7;
        assert!(InclusionProof::decode(&Bytes::from(junk)).is_err());
    }

    #[test]
    fn ledger_prove_requires_checkpoint_coverage() {
        let dir = std::env::temp_dir().join(format!("gp-proof-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("cover.log");
        std::fs::remove_file(&path).ok();
        let tpa = SigningKey::generate(&mut ChaChaRng::from_u64_seed(5));
        let mut w = LedgerWriter::create(&path, &tpa, 0, 1).expect("create");
        w.append(&crate::record::tests::sample_record(3))
            .expect("append");
        w.sync().expect("sync");
        let ledger = Ledger::read(&path).expect("read");
        assert!(matches!(
            ledger.prove(0),
            Err(LedgerError::NotCovered { evidence: 0 })
        ));
        drop(ledger);
        w.checkpoint().expect("checkpoint");
        let ledger = Ledger::read(&path).expect("read");
        assert!(ledger.prove(0).is_ok());
        assert!(matches!(
            ledger.prove(1),
            Err(LedgerError::NotCovered { evidence: 1 })
        ));
    }
}
