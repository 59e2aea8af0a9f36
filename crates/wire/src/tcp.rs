//! Real TCP challenge–response: the timing client and the segment
//! store the prover server serves from.
//!
//! Everything else in the workspace runs on simulated time; this module
//! runs the verifier↔prover link over an actual socket with wall-clock
//! timing, demonstrating the protocol outside the simulator. The prover
//! side is [`crate::mux::MuxProverServer`]; this module holds the
//! segment store type it serves and the blocking [`TcpChallenger`] that
//! times each round.

use crate::codec::{read_frame, write_frame, WireMessage};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared segment store served by a [`crate::mux::MuxProverServer`]: per file, a list
/// of refcounted segment views (typically all slices of one storage
/// arena). Serving a challenge clones a `Bytes` — a refcount bump, not
/// a payload copy.
pub type SegmentStore = Arc<Mutex<HashMap<String, Vec<Bytes>>>>;

/// Packs owned segment vectors into store form (each `Vec` is wrapped,
/// not copied).
pub fn store_segments(segments: Vec<Vec<u8>>) -> Vec<Bytes> {
    segments.into_iter().map(Bytes::from).collect()
}

/// A timing client: sends challenges over TCP and measures wall-clock RTT.
#[derive(Debug)]
pub struct TcpChallenger {
    stream: TcpStream,
}

impl TcpChallenger {
    /// Connects to a prover server.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpChallenger> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpChallenger { stream })
    }

    /// Sends one challenge and returns `(segment, wall-clock RTT)`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a non-`Response` reply is
    /// `InvalidData`.
    pub fn challenge(
        &mut self,
        file_id: &str,
        index: u64,
    ) -> std::io::Result<(Option<Bytes>, Duration)> {
        let start = Instant::now();
        write_frame(
            &mut self.stream,
            &WireMessage::Challenge {
                file_id: file_id.to_owned(),
                index,
            },
        )?;
        let reply = read_frame(&mut self.stream)?;
        let rtt = start.elapsed();
        match reply {
            WireMessage::Response { segment } => Ok((segment, rtt)),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// Sends one dynamic challenge and returns `(proven segment,
    /// wall-clock RTT)` — the segment plus its Merkle membership proof,
    /// or `None` when the file/index is unknown.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a non-`DynResponse` reply is
    /// `InvalidData`.
    pub fn dyn_challenge(
        &mut self,
        file_id: &str,
        index: u64,
    ) -> std::io::Result<(Option<(Bytes, geoproof_por::merkle::MerkleProof)>, Duration)> {
        let start = Instant::now();
        write_frame(
            &mut self.stream,
            &WireMessage::DynChallenge {
                file_id: file_id.to_owned(),
                index,
            },
        )?;
        let reply = read_frame(&mut self.stream)?;
        let rtt = start.elapsed();
        match reply {
            WireMessage::DynResponse { segment } => Ok((segment, rtt)),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// Ships an owner-tagged replacement for segment `index`, with the
    /// owner's authorisation signature; returns the provider's
    /// post-update digest (`None`: unknown file, bad index, or a
    /// signature the server's registered owner key rejects).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a non-`UpdateAck` reply is
    /// `InvalidData`.
    pub fn update(
        &mut self,
        file_id: &str,
        index: u64,
        tagged: Bytes,
        sig: [u8; 64],
    ) -> std::io::Result<Option<geoproof_por::dynamic::DynamicDigest>> {
        write_frame(
            &mut self.stream,
            &WireMessage::Update {
                file_id: file_id.to_owned(),
                index,
                tagged,
                sig,
            },
        )?;
        self.read_ack()
    }

    /// Ships an owner-tagged appended segment with its authorisation
    /// signature; returns the provider's post-append digest (`None`:
    /// unknown file or rejected signature).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a non-`UpdateAck` reply is
    /// `InvalidData`.
    pub fn append(
        &mut self,
        file_id: &str,
        tagged: Bytes,
        sig: [u8; 64],
    ) -> std::io::Result<Option<geoproof_por::dynamic::DynamicDigest>> {
        write_frame(
            &mut self.stream,
            &WireMessage::Append {
                file_id: file_id.to_owned(),
                tagged,
                sig,
            },
        )?;
        self.read_ack()
    }

    fn read_ack(&mut self) -> std::io::Result<Option<geoproof_por::dynamic::DynamicDigest>> {
        match read_frame(&mut self.stream)? {
            WireMessage::UpdateAck { new_digest } => Ok(new_digest),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// Ends the session politely.
    pub fn bye(&mut self) -> std::io::Result<()> {
        write_frame(&mut self.stream, &WireMessage::Bye)
    }
}
