//! Real TCP challenge–response: the timing client and the frame reader
//! the prover server is built on.
//!
//! Everything else in the workspace runs on simulated time; this module
//! runs the verifier↔prover link over an actual socket with wall-clock
//! timing, demonstrating the protocol outside the simulator. The prover
//! side is [`crate::mux::MuxProverServer`]; this module holds what both
//! sides share — the segment store type, the restartable frame reader —
//! plus the blocking [`TcpChallenger`] that times each round.

use crate::codec::{read_frame, write_frame, CodecError, WireMessage, MAX_FRAME};
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Bytes appended to the frame buffer per socket read.
const READ_CHUNK: usize = 4096;

/// Result of one poll on an idle-tolerant frame reader.
#[derive(Debug)]
pub(crate) enum Polled {
    /// A complete frame arrived.
    Frame(WireMessage),
    /// No complete frame yet (the socket is drained for now, or the read
    /// timed out); buffered partial bytes are retained for the next poll.
    Idle,
    /// The peer closed the connection.
    Closed,
}

/// Reads frames from a stream with a read timeout *without losing
/// partially-read bytes across timeouts.
///
/// The previous implementation called [`read_frame`] directly on the
/// socket; `read_exact` under a read timeout can consume part of a frame
/// and then fail with `WouldBlock`/`TimedOut`, and treating that as "no
/// frame yet" silently discarded the consumed bytes — desynchronising the
/// stream for every later frame on that connection. This reader buffers
/// partial frames so an idle timeout is always restartable.
#[derive(Debug)]
pub(crate) struct IdleFrameReader {
    buf: BytesMut,
}

impl IdleFrameReader {
    pub(crate) fn new() -> Self {
        IdleFrameReader {
            buf: BytesMut::new(),
        }
    }

    /// Polls for one frame; `Idle` when no complete frame is buffered
    /// and the socket has nothing more to give right now, `Closed` on
    /// EOF.
    ///
    /// A short read (`n < READ_CHUNK`) proves the socket buffer was
    /// empty at that instant, so once the buffered bytes hold no
    /// complete frame it returns `Idle` without issuing another read —
    /// saving the `EAGAIN` syscall that drain-to-`WouldBlock` pays on
    /// every wakeup. Under edge-triggered epoll, bytes arriving after
    /// the short read raise a fresh readiness edge, so `*sock_drained`
    /// lives for one readiness edge (one pump) and starts `false`. A
    /// blocking reader with a read timeout passes a fresh `false` on
    /// every call: a short-read `Idle` is then just one more loop turn.
    ///
    /// `stop` is checked between reads so a server shutting down is never
    /// held hostage by a client dribbling bytes faster than the read
    /// timeout but slower than a frame (slow loris).
    pub(crate) fn poll_et<R: Read>(
        &mut self,
        reader: &mut R,
        stop: &AtomicBool,
        sock_drained: &mut bool,
    ) -> std::io::Result<Polled> {
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_be_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
                if len > MAX_FRAME {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        CodecError::FrameTooLarge(len),
                    ));
                }
                if self.buf.len() >= 4 + len {
                    let frame = self.buf.split_to(4 + len).freeze();
                    let msg = WireMessage::decode_shared(&frame.slice(4..))
                        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                    return Ok(Polled::Frame(msg));
                }
            }
            if *sock_drained || stop.load(Ordering::Relaxed) {
                return Ok(Polled::Idle);
            }
            let old = self.buf.len();
            self.buf.resize(old + READ_CHUNK, 0);
            let read = reader.read(&mut self.buf[old..]);
            self.buf.truncate(old + read.as_ref().map_or(0, |&n| n));
            match read {
                Ok(0) => return Ok(Polled::Closed),
                Ok(n) => {
                    if n < READ_CHUNK {
                        *sock_drained = true;
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(ref e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(Polled::Idle);
                }
                Err(e) => return Err(e),
            }
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::MuxProverServer;

    fn store_with(file: &str, n: usize) -> SegmentStore {
        let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
        store.lock().insert(
            file.to_owned(),
            (0..n).map(|i| Bytes::from(vec![i as u8; 83])).collect(),
        );
        store
    }

    #[test]
    fn serves_segments_over_tcp() {
        let server = MuxProverServer::spawn(store_with("f", 10), Duration::ZERO).expect("bind");
        let mut client = TcpChallenger::connect(server.addr()).expect("connect");
        for idx in [0u64, 5, 9] {
            let (seg, rtt) = client.challenge("f", idx).expect("challenge");
            assert_eq!(seg.unwrap(), vec![idx as u8; 83]);
            assert!(rtt < Duration::from_secs(1));
        }
        client.bye().unwrap();
    }

    #[test]
    fn service_delay_shows_up_in_rtt() {
        let fast = MuxProverServer::spawn(store_with("f", 3), Duration::ZERO).expect("bind");
        let slow =
            MuxProverServer::spawn(store_with("f", 3), Duration::from_millis(30)).expect("bind");
        let mut cf = TcpChallenger::connect(fast.addr()).unwrap();
        let mut cs = TcpChallenger::connect(slow.addr()).unwrap();
        let (_, rf) = cf.challenge("f", 0).unwrap();
        let (_, rs) = cs.challenge("f", 0).unwrap();
        assert!(
            rs >= rf + Duration::from_millis(20),
            "fast {rf:?}, slow {rs:?}"
        );
    }

    #[test]
    fn slow_dribbled_frame_does_not_desync_the_stream() {
        // Regression: a frame split across the server's read timeout used
        // to lose its already-consumed bytes, desynchronising every later
        // frame on the connection. Both execution models buffer partial
        // frames in the same reader; pin it on each.
        let threaded = MuxProverServer::spawn(store_with("f", 4), Duration::ZERO).expect("bind");
        let reactor = match MuxProverServer::spawn_reactor(store_with("f", 4), Duration::ZERO) {
            Ok(s) => Some(s),
            Err(e) if e.kind() == std::io::ErrorKind::Unsupported => None,
            Err(e) => panic!("spawn_reactor: {e}"),
        };
        for server in std::iter::once(&threaded).chain(&reactor) {
            let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
            raw.set_nodelay(true).unwrap();
            let frame = WireMessage::Challenge {
                file_id: "f".to_owned(),
                index: 2,
            }
            .encode();
            // Send the length prefix plus one payload byte, stall past the
            // threaded path's read timeout, then send the rest.
            use std::io::Write;
            raw.write_all(&frame[..5]).unwrap();
            raw.flush().unwrap();
            std::thread::sleep(Duration::from_millis(350));
            raw.write_all(&frame[5..]).unwrap();
            raw.flush().unwrap();
            let reply = read_frame(&mut raw).expect("reply after dribble");
            assert_eq!(
                reply,
                WireMessage::Response {
                    segment: Some(vec![2u8; 83].into())
                }
            );
            // The stream is still in sync: a second, normally-sent
            // challenge round-trips too.
            let frame2 = WireMessage::Challenge {
                file_id: "f".to_owned(),
                index: 0,
            }
            .encode();
            raw.write_all(&frame2).unwrap();
            let reply2 = read_frame(&mut raw).expect("second reply");
            assert_eq!(
                reply2,
                WireMessage::Response {
                    segment: Some(vec![0u8; 83].into())
                }
            );
        }
    }

    #[test]
    fn put_file_updates_store() {
        let server = MuxProverServer::spawn(store_with("f", 1), Duration::ZERO).expect("bind");
        server.put_file("g", vec![vec![0xaa; 10]]);
        let mut client = TcpChallenger::connect(server.addr()).unwrap();
        let (seg, _) = client.challenge("g", 0).unwrap();
        assert_eq!(seg.unwrap(), vec![0xaa; 10]);
    }
}
