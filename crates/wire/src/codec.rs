//! Length-prefixed wire encoding for GeoProof protocol messages.
//!
//! Frames are `u32 length ‖ u8 tag ‖ payload`, with all integers
//! big-endian and all variable-length fields length-prefixed — the same
//! canonical-encoding discipline as the signed transcript, so nothing
//! depends on parser lenience.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use geoproof_por::dynamic::DynamicDigest;
use geoproof_por::merkle::MerkleProof;

/// Maximum accepted frame size (1 MiB) — segments are ~83 bytes, so
/// anything near this is hostile.
pub const MAX_FRAME: usize = 1 << 20;

/// A protocol message on the verifier↔prover (and TPA↔verifier) links.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMessage {
    /// Verifier → prover: fetch segment `index` of `file_id`.
    Challenge {
        /// File identifier.
        file_id: String,
        /// Segment index.
        index: u64,
    },
    /// Prover → verifier: the segment, or `None` when missing.
    Response {
        /// Segment bytes with embedded tag — a refcounted view, so a
        /// response built from a storage arena (and a response decoded
        /// from a frame buffer) carries no payload copy.
        segment: Option<Bytes>,
    },
    /// TPA → verifier: start an audit (ñ, k, nonce as in Fig. 5).
    StartAudit {
        /// File identifier.
        file_id: String,
        /// Total segments ñ.
        n_segments: u64,
        /// Challenge count k.
        k: u32,
        /// Audit nonce N.
        nonce: [u8; 32],
    },
    /// Graceful connection close.
    Bye,
    /// Verifier → prover (dynamic flow): fetch segment `index` of
    /// `file_id` together with its Merkle membership proof.
    DynChallenge {
        /// File identifier.
        file_id: String,
        /// Segment index.
        index: u64,
    },
    /// Prover → verifier (dynamic flow): the tagged segment plus its
    /// membership proof, or `None` when the file/index is unknown.
    DynResponse {
        /// Segment bytes (a refcounted view — decoded responses alias
        /// the frame buffer) and the proof tying them to the digest.
        segment: Option<(Bytes, MerkleProof)>,
    },
    /// Owner → prover: replace segment `index` of `file_id` with the
    /// already-tagged bytes (the owner tags — the prover holds no keys).
    Update {
        /// File identifier.
        file_id: String,
        /// Segment index to replace.
        index: u64,
        /// The new tagged segment (`body ‖ τ`).
        tagged: Bytes,
        /// Owner Schnorr signature over
        /// [`geoproof_por::dynamic::owner_authorization`] — the server
        /// refuses mutations of owner-keyed files without it.
        sig: [u8; 64],
    },
    /// Owner → prover: append an already-tagged segment to `file_id`.
    Append {
        /// File identifier.
        file_id: String,
        /// The new tagged segment (`body ‖ τ`).
        tagged: Bytes,
        /// Owner Schnorr signature authorising the append (over the
        /// appended index = current length).
        sig: [u8; 64],
    },
    /// Prover → owner: the digest after an `Update`/`Append`, or `None`
    /// when the file was unknown or the index out of range. The owner
    /// compares it against its independently derived digest — a mismatch
    /// means the provider's state has diverged.
    UpdateAck {
        /// The provider's post-operation digest.
        new_digest: Option<DynamicDigest>,
    },
}

/// Decoding errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Frame advertises more than [`MAX_FRAME`] bytes.
    FrameTooLarge(usize),
    /// Payload ended before the advertised length.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// A string field was not UTF-8.
    BadString,
    /// A Merkle proof field failed its strict canonical parse.
    BadProof,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            CodecError::Truncated => write!(f, "truncated frame"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::BadString => write!(f, "invalid UTF-8 in string field"),
            CodecError::BadProof => write!(f, "malformed Merkle proof field"),
        }
    }
}

impl std::error::Error for CodecError {}

const TAG_CHALLENGE: u8 = 1;
const TAG_RESPONSE: u8 = 2;
const TAG_START_AUDIT: u8 = 3;
const TAG_BYE: u8 = 4;
const TAG_DYN_CHALLENGE: u8 = 5;
const TAG_DYN_RESPONSE: u8 = 6;
const TAG_UPDATE: u8 = 7;
const TAG_APPEND: u8 = 8;
const TAG_UPDATE_ACK: u8 = 9;

impl WireMessage {
    /// Encodes the message as one contiguous frame (for tests and
    /// callers that want a single buffer). The hot path is
    /// [`write_frame`], which uses [`WireMessage::encode_parts`] to skip
    /// copying segment payloads into the frame.
    pub fn encode(&self) -> Bytes {
        let (mut head, tail) = self.encode_parts();
        if let Some(tail) = tail {
            head.extend_from_slice(&tail);
        }
        head.freeze()
    }

    /// Encodes into `(head, tail)`: `head` is the length prefix plus all
    /// fixed fields; `tail`, when present, is the segment payload as a
    /// refcounted view that was **not** copied. Writing `head` then
    /// `tail` emits exactly the [`WireMessage::encode`] frame.
    pub fn encode_parts(&self) -> (BytesMut, Option<Bytes>) {
        let mut payload = BytesMut::new();
        let mut tail: Option<Bytes> = None;
        match self {
            WireMessage::Challenge { file_id, index } => {
                payload.put_u8(TAG_CHALLENGE);
                put_str(&mut payload, file_id);
                payload.put_u64(*index);
            }
            WireMessage::Response { segment } => {
                payload.put_u8(TAG_RESPONSE);
                match segment {
                    Some(bytes) => {
                        payload.put_u8(1);
                        payload.put_u32(bytes.len() as u32);
                        tail = Some(bytes.clone());
                    }
                    None => payload.put_u8(0),
                }
            }
            WireMessage::StartAudit {
                file_id,
                n_segments,
                k,
                nonce,
            } => {
                payload.put_u8(TAG_START_AUDIT);
                put_str(&mut payload, file_id);
                payload.put_u64(*n_segments);
                payload.put_u32(*k);
                payload.put_slice(nonce);
            }
            WireMessage::Bye => payload.put_u8(TAG_BYE),
            WireMessage::DynChallenge { file_id, index } => {
                payload.put_u8(TAG_DYN_CHALLENGE);
                put_str(&mut payload, file_id);
                payload.put_u64(*index);
            }
            WireMessage::DynResponse { segment } => {
                payload.put_u8(TAG_DYN_RESPONSE);
                match segment {
                    Some((bytes, proof)) => {
                        payload.put_u8(1);
                        let proof_bytes = proof.to_bytes();
                        payload.put_u32(proof_bytes.len() as u32);
                        payload.put_slice(&proof_bytes);
                        payload.put_u32(bytes.len() as u32);
                        tail = Some(bytes.clone());
                    }
                    None => payload.put_u8(0),
                }
            }
            WireMessage::Update {
                file_id,
                index,
                tagged,
                sig,
            } => {
                payload.put_u8(TAG_UPDATE);
                put_str(&mut payload, file_id);
                payload.put_u64(*index);
                payload.put_slice(sig);
                payload.put_u32(tagged.len() as u32);
                tail = Some(tagged.clone());
            }
            WireMessage::Append {
                file_id,
                tagged,
                sig,
            } => {
                payload.put_u8(TAG_APPEND);
                put_str(&mut payload, file_id);
                payload.put_slice(sig);
                payload.put_u32(tagged.len() as u32);
                tail = Some(tagged.clone());
            }
            WireMessage::UpdateAck { new_digest } => {
                payload.put_u8(TAG_UPDATE_ACK);
                match new_digest {
                    Some(digest) => {
                        payload.put_u8(1);
                        payload.put_slice(&digest.root);
                        payload.put_u64(digest.segments);
                    }
                    None => payload.put_u8(0),
                }
            }
        }
        let tail_len = tail.as_ref().map_or(0, Bytes::len);
        // Head capacity deliberately excludes the tail: the tail is
        // written from its own buffer, so reserving for it here would be
        // a payload-sized allocation per frame.
        let mut frame = BytesMut::with_capacity(4 + payload.len());
        frame.put_u32((payload.len() + tail_len) as u32);
        frame.extend_from_slice(&payload);
        (frame, tail)
    }

    /// Decodes one frame's payload (after the length prefix was
    /// consumed), copying any segment payload into a fresh buffer. The
    /// zero-copy receive path is [`WireMessage::decode_shared`].
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input.
    pub fn decode(payload: &[u8]) -> Result<WireMessage, CodecError> {
        Self::decode_shared(&Bytes::copy_from_slice(payload))
    }

    /// Decodes one frame's payload held as a shared buffer; a segment in
    /// a `Response` is returned as a *slice of that buffer* (refcount
    /// bump, no payload copy).
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input.
    pub fn decode_shared(payload: &Bytes) -> Result<WireMessage, CodecError> {
        let mut buf: &[u8] = payload;
        if buf.is_empty() {
            return Err(CodecError::Truncated);
        }
        let tag = buf.get_u8();
        match tag {
            TAG_CHALLENGE => {
                let file_id = get_str(&mut buf)?;
                if buf.remaining() < 8 {
                    return Err(CodecError::Truncated);
                }
                Ok(WireMessage::Challenge {
                    file_id,
                    index: buf.get_u64(),
                })
            }
            TAG_RESPONSE => {
                if buf.remaining() < 1 {
                    return Err(CodecError::Truncated);
                }
                match buf.get_u8() {
                    0 => Ok(WireMessage::Response { segment: None }),
                    // Slice the frame buffer instead of copying out.
                    _ => Ok(WireMessage::Response {
                        segment: Some(get_shared_bytes(payload, &mut buf)?),
                    }),
                }
            }
            TAG_START_AUDIT => {
                let file_id = get_str(&mut buf)?;
                if buf.remaining() < 8 + 4 + 32 {
                    return Err(CodecError::Truncated);
                }
                let n_segments = buf.get_u64();
                let k = buf.get_u32();
                let mut nonce = [0u8; 32];
                nonce.copy_from_slice(&buf[..32]);
                Ok(WireMessage::StartAudit {
                    file_id,
                    n_segments,
                    k,
                    nonce,
                })
            }
            TAG_BYE => Ok(WireMessage::Bye),
            TAG_DYN_CHALLENGE => {
                let file_id = get_str(&mut buf)?;
                if buf.remaining() < 8 {
                    return Err(CodecError::Truncated);
                }
                Ok(WireMessage::DynChallenge {
                    file_id,
                    index: buf.get_u64(),
                })
            }
            TAG_DYN_RESPONSE => {
                if buf.remaining() < 1 {
                    return Err(CodecError::Truncated);
                }
                match buf.get_u8() {
                    0 => Ok(WireMessage::DynResponse { segment: None }),
                    _ => {
                        if buf.remaining() < 4 {
                            return Err(CodecError::Truncated);
                        }
                        let proof_len = buf.get_u32() as usize;
                        if proof_len > MAX_FRAME {
                            return Err(CodecError::FrameTooLarge(proof_len));
                        }
                        if buf.remaining() < proof_len {
                            return Err(CodecError::Truncated);
                        }
                        let proof = MerkleProof::from_bytes(&buf[..proof_len])
                            .ok_or(CodecError::BadProof)?;
                        buf.advance(proof_len);
                        let segment = get_shared_bytes(payload, &mut buf)?;
                        Ok(WireMessage::DynResponse {
                            segment: Some((segment, proof)),
                        })
                    }
                }
            }
            TAG_UPDATE => {
                let file_id = get_str(&mut buf)?;
                if buf.remaining() < 8 + 64 {
                    return Err(CodecError::Truncated);
                }
                let index = buf.get_u64();
                let mut sig = [0u8; 64];
                sig.copy_from_slice(&buf[..64]);
                buf.advance(64);
                let tagged = get_shared_bytes(payload, &mut buf)?;
                Ok(WireMessage::Update {
                    file_id,
                    index,
                    tagged,
                    sig,
                })
            }
            TAG_APPEND => {
                let file_id = get_str(&mut buf)?;
                if buf.remaining() < 64 {
                    return Err(CodecError::Truncated);
                }
                let mut sig = [0u8; 64];
                sig.copy_from_slice(&buf[..64]);
                buf.advance(64);
                let tagged = get_shared_bytes(payload, &mut buf)?;
                Ok(WireMessage::Append {
                    file_id,
                    tagged,
                    sig,
                })
            }
            TAG_UPDATE_ACK => {
                if buf.remaining() < 1 {
                    return Err(CodecError::Truncated);
                }
                match buf.get_u8() {
                    0 => Ok(WireMessage::UpdateAck { new_digest: None }),
                    _ => {
                        if buf.remaining() < 32 + 8 {
                            return Err(CodecError::Truncated);
                        }
                        let mut root = [0u8; 32];
                        root.copy_from_slice(&buf[..32]);
                        buf.advance(32);
                        Ok(WireMessage::UpdateAck {
                            new_digest: Some(DynamicDigest {
                                root,
                                segments: buf.get_u64(),
                            }),
                        })
                    }
                }
            }
            t => Err(CodecError::BadTag(t)),
        }
    }
}

/// Reads a `u32`-prefixed byte field as a zero-copy slice of the shared
/// frame buffer (the pattern `Response` uses for its segment payload).
fn get_shared_bytes(payload: &Bytes, buf: &mut &[u8]) -> Result<Bytes, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    let len = buf.get_u32() as usize;
    if len > MAX_FRAME {
        return Err(CodecError::FrameTooLarge(len));
    }
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    let start = payload.len() - buf.remaining();
    buf.advance(len);
    Ok(payload.slice(start..start + len))
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    let len = buf.get_u32() as usize;
    if len > MAX_FRAME {
        return Err(CodecError::FrameTooLarge(len));
    }
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    let s = String::from_utf8(buf[..len].to_vec()).map_err(|_| CodecError::BadString)?;
    buf.advance(len);
    Ok(s)
}

/// Reads one complete frame from a blocking reader.
///
/// # Errors
///
/// I/O errors pass through; malformed frames become
/// `io::ErrorKind::InvalidData`.
pub fn read_frame<R: std::io::Read>(reader: &mut R) -> std::io::Result<WireMessage> {
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            CodecError::FrameTooLarge(len),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    WireMessage::decode_shared(&Bytes::from(payload))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Writes one frame to a blocking writer.
///
/// # Errors
///
/// I/O errors pass through.
pub fn write_frame<W: std::io::Write>(writer: &mut W, msg: &WireMessage) -> std::io::Result<()> {
    let (head, tail) = msg.encode_parts();
    writer.write_all(&head)?;
    if let Some(tail) = tail {
        writer.write_all(&tail)?;
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: WireMessage) {
        let frame = msg.encode();
        let payload = &frame[4..];
        assert_eq!(WireMessage::decode(payload), Ok(msg));
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(WireMessage::Challenge {
            file_id: "f".into(),
            index: 42,
        });
        roundtrip(WireMessage::Response {
            segment: Some(vec![1, 2, 3].into()),
        });
        roundtrip(WireMessage::Response { segment: None });
        roundtrip(WireMessage::StartAudit {
            file_id: "audit-file".into(),
            n_segments: 1_000_000,
            k: 1000,
            nonce: [7u8; 32],
        });
        roundtrip(WireMessage::Bye);
        roundtrip(WireMessage::DynChallenge {
            file_id: "dyn".into(),
            index: 9,
        });
        roundtrip(WireMessage::DynResponse { segment: None });
        roundtrip(WireMessage::DynResponse {
            segment: Some((vec![5u8; 40].into(), sample_proof())),
        });
        roundtrip(WireMessage::Update {
            file_id: "dyn".into(),
            index: 3,
            tagged: vec![7u8; 24].into(),
            sig: [0x17u8; 64],
        });
        roundtrip(WireMessage::Append {
            file_id: "dyn".into(),
            tagged: vec![8u8; 24].into(),
            sig: [0x18u8; 64],
        });
        roundtrip(WireMessage::UpdateAck { new_digest: None });
        roundtrip(WireMessage::UpdateAck {
            new_digest: Some(DynamicDigest {
                root: [0xabu8; 32],
                segments: 77,
            }),
        });
    }

    fn sample_proof() -> MerkleProof {
        MerkleProof {
            index: 9,
            siblings: vec![([1u8; 32], true), ([2u8; 32], false)],
        }
    }

    #[test]
    fn dyn_response_decode_is_zero_copy_and_rejects_bad_proofs() {
        let msg = WireMessage::DynResponse {
            segment: Some((vec![0x5au8; 64].into(), sample_proof())),
        };
        let frame = msg.encode();
        let payload = frame.slice(4..);
        let decoded = WireMessage::decode_shared(&payload).expect("decode");
        let WireMessage::DynResponse {
            segment: Some((segment, proof)),
        } = decoded
        else {
            panic!("wrong variant");
        };
        assert_eq!(proof, sample_proof());
        // The segment is a window into the frame buffer, not a copy.
        let off = payload.len() - 64;
        assert!(
            segment.aliases(&payload.slice(off..off + 64)),
            "decoded dyn segment must alias the frame buffer"
        );
        // A corrupted direction flag inside the proof is BadProof, not a
        // silent mis-parse.
        let mut raw = frame[4..].to_vec();
        // proof bytes start after tag(1) + present(1) + u32 len: index..
        let dir_at = 1 + 1 + 4 + 8 + 2 + 32; // first sibling's flag
        raw[dir_at] = 9;
        assert_eq!(
            WireMessage::decode(&raw),
            Err(CodecError::BadProof),
            "bad proof flag must be rejected"
        );
    }

    #[test]
    fn dyn_frames_reject_truncation_everywhere() {
        for msg in [
            WireMessage::DynChallenge {
                file_id: "f".into(),
                index: 2,
            },
            WireMessage::DynResponse {
                segment: Some((vec![1u8; 10].into(), sample_proof())),
            },
            WireMessage::Update {
                file_id: "f".into(),
                index: 1,
                tagged: vec![2u8; 10].into(),
                sig: [0x21u8; 64],
            },
            WireMessage::Append {
                file_id: "f".into(),
                tagged: vec![3u8; 10].into(),
                sig: [0x22u8; 64],
            },
            WireMessage::UpdateAck {
                new_digest: Some(DynamicDigest {
                    root: [4u8; 32],
                    segments: 5,
                }),
            },
        ] {
            let frame = msg.encode();
            let payload = &frame[4..];
            for cut in 1..payload.len() {
                let r = WireMessage::decode(&payload[..cut]);
                assert!(r.is_err(), "{msg:?} cut at {cut} decoded to {r:?}");
            }
        }
    }

    #[test]
    fn frame_length_prefix_is_exact() {
        let msg = WireMessage::Challenge {
            file_id: "abc".into(),
            index: 7,
        };
        let frame = msg.encode();
        let advertised = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(advertised, frame.len() - 4);
    }

    #[test]
    fn decode_rejects_bad_tag() {
        assert_eq!(WireMessage::decode(&[99]), Err(CodecError::BadTag(99)));
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let msg = WireMessage::StartAudit {
            file_id: "f".into(),
            n_segments: 10,
            k: 5,
            nonce: [1u8; 32],
        };
        let frame = msg.encode();
        let payload = &frame[4..];
        for cut in 1..payload.len() {
            let r = WireMessage::decode(&payload[..cut]);
            assert!(r.is_err(), "cut at {cut} decoded to {r:?}");
        }
    }

    #[test]
    fn decode_rejects_non_utf8() {
        // Challenge with an invalid UTF-8 "string".
        let mut payload = vec![TAG_CHALLENGE];
        payload.extend_from_slice(&2u32.to_be_bytes());
        payload.extend_from_slice(&[0xff, 0xfe]);
        payload.extend_from_slice(&0u64.to_be_bytes());
        assert_eq!(WireMessage::decode(&payload), Err(CodecError::BadString));
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let msgs = vec![
            WireMessage::Challenge {
                file_id: "f".into(),
                index: 1,
            },
            WireMessage::Response {
                segment: Some(vec![9; 83].into()),
            },
            WireMessage::Bye,
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for m in &msgs {
            assert_eq!(&read_frame(&mut cursor).unwrap(), m);
        }
    }

    #[test]
    fn oversized_frame_rejected_by_reader() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }
}
