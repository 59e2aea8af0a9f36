//! Real TCP challenge–response: the timing client and the segment
//! store the prover server serves from.
//!
//! Everything else in the workspace runs on simulated time; this module
//! runs the verifier↔prover link over an actual socket with wall-clock
//! timing, demonstrating the protocol outside the simulator. The prover
//! side is [`crate::mux::MuxProverServer`]; this module holds the
//! segment store type it serves and the blocking [`TcpChallenger`] that
//! times each round.

use crate::codec::{decode_payload, read_payload, write_frame, WireMessage};
use bytes::Bytes;
use geoproof_por::dynamic::DynamicDigest;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Write};
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

/// How long a client waits for any one reply. A 2 s round is ≈ 7× the
/// round trip to the antipode at 4/9 c (≈ 300 ms), so no Δt it cuts off
/// could pass a budget that still places the prover on Earth.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// A timing client: sends challenges over TCP and measures wall-clock RTT.
#[derive(Debug)]
pub struct TcpChallenger {
    stream: TcpStream,
}

impl TcpChallenger {
    /// Connects to a prover server. Every later read gives up after 2 s
    /// without a reply, as `TimedOut`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: SocketAddr) -> io::Result<TcpChallenger> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
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
    ) -> io::Result<(Option<Bytes>, Duration)> {
        let frame = WireMessage::Challenge {
            file_id: file_id.to_owned(),
            index,
        };
        match self.timed(&frame.encode())? {
            (WireMessage::Response { segment }, rtt) => Ok((segment, rtt)),
            (other, _) => Err(unexpected(&other)),
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
    ) -> io::Result<(Option<(Bytes, geoproof_por::merkle::MerkleProof)>, Duration)> {
        let frame = WireMessage::DynChallenge {
            file_id: file_id.to_owned(),
            index,
        };
        match self.timed(&frame.encode())? {
            (WireMessage::DynResponse { segment }, rtt) => Ok((segment, rtt)),
            (other, _) => Err(unexpected(&other)),
        }
    }

    /// The one write → read sequence, timed: the clock covers only the
    /// write of the already-encoded `frame` and the read of the reply up
    /// to its last payload byte; the reply is decoded after the clock
    /// stops. A reply that outlasts the read timeout is `TimedOut`
    /// (Linux reports it as `WouldBlock`).
    fn timed(&mut self, frame: &[u8]) -> io::Result<(WireMessage, Duration)> {
        let start = Instant::now();
        self.stream.write_all(frame)?;
        let payload = read_payload(&mut self.stream).map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no reply within {} s", REPLY_TIMEOUT.as_secs()),
            ),
            _ => e,
        })?;
        let rtt = start.elapsed();
        Ok((decode_payload(&payload)?, rtt))
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
    ) -> io::Result<Option<DynamicDigest>> {
        self.ack(WireMessage::Update {
            file_id: file_id.to_owned(),
            index,
            tagged,
            sig,
        })
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
    ) -> io::Result<Option<DynamicDigest>> {
        self.ack(WireMessage::Append {
            file_id: file_id.to_owned(),
            tagged,
            sig,
        })
    }

    fn ack(&mut self, frame: WireMessage) -> io::Result<Option<DynamicDigest>> {
        match self.timed(&frame.encode())? {
            (WireMessage::UpdateAck { new_digest }, _) => Ok(new_digest),
            (other, _) => Err(unexpected(&other)),
        }
    }

    /// Ends the session politely.
    pub fn bye(&mut self) -> io::Result<()> {
        write_frame(&mut self.stream, &WireMessage::Bye)
    }
}

fn unexpected(reply: &WireMessage) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply {reply:?}"),
    )
}
