//! The connection machine: one prover-side connection with no socket in
//! it.
//!
//! Bytes and timer fires go in; bytes to write, a park request and close
//! come out. Everything between — frame parsing, the one call into
//! [`MuxService::handle`], service-delay parking, Bye-then-flush and the
//! [`MAX_WRITE_BACKLOG`] cap — lives here. The epoll shell
//! (`reactor_serve`, every connection on one event-loop thread) owns
//! only sockets, readiness and time; the tests below drive the machine
//! with no socket and no thread at all.
//!
//! A shell loops on [`Conn::step`] and answers each [`Step`]:
//!
//! ```text
//!   Read      → read_from(socket)    (0 bytes = peer closed → drop)
//!   Write     → write_to(socket)     (may stop short; step again)
//!   Park(d)   → after d: fire()      (read nothing meanwhile)
//!   Wait      → wait for writable / the timer
//!   Close     → drop the connection
//! ```

use crate::codec::{CodecError, WireMessage, MAX_FRAME};
use crate::mux::{FrameOutcome, MuxService};
use bytes::{Bytes, BytesMut};
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// Per-connection cap on queued-but-unsent response bytes. An honest
/// auditor reads every response before sending many more challenges, so
/// its backlog stays near one frame; a peer that pipelines challenges
/// while never reading grows the queue without bound and gets cut off.
pub(crate) const MAX_WRITE_BACKLOG: usize = 1 << 20;

/// Bytes one [`Conn::read_from`] asks the socket for. A read that
/// returns fewer proves the kernel buffer was empty at that instant.
pub(crate) const READ_CHUNK: usize = 4096;

/// Queued parts one [`Conn::write_to`] hands to a single vectored write.
const WRITE_PARTS: usize = 8;

/// What the machine needs from its shell next.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// No complete frame is buffered: read more bytes.
    Read,
    /// A reply was queued: write it out, then step again.
    Write,
    /// A frame is parked for its service delay: call [`Conn::fire`] once
    /// this long has passed, and read nothing meanwhile.
    Park(Duration),
    /// Nothing to do until the parked frame's timer fires, or until the
    /// replies queued before a Bye have been written.
    Wait,
    /// Drop the connection: Bye with nothing left to write, a malformed
    /// frame, or a backlog over [`MAX_WRITE_BACKLOG`].
    Close,
}

/// One connection's whole server-side state: a frame buffer, a queue of
/// refcounted reply parts and at most one parked frame. Creating it
/// takes the next connection id from the service.
pub(crate) struct Conn {
    id: u64,
    service: Arc<MuxService>,
    inbuf: BytesMut,
    /// Reply parts from `encode_parts` (segment payloads alias the
    /// store), with the send offset into the front part.
    out: VecDeque<Bytes>,
    out_pos: usize,
    out_bytes: usize,
    /// A frame held for its service delay; every later frame waits
    /// behind it, so per-connection order is kept.
    parked: Option<WireMessage>,
    /// The parked frame's timer has not fired yet.
    timer_armed: bool,
    /// Bye seen: write what is queued, then close.
    closing: bool,
}

impl Conn {
    pub(crate) fn new(service: Arc<MuxService>) -> Conn {
        let id = service.open();
        Conn {
            id,
            service,
            inbuf: BytesMut::new(),
            out: VecDeque::new(),
            out_pos: 0,
            out_bytes: 0,
            parked: None,
            timer_armed: false,
            closing: false,
        }
    }

    /// Server-assigned connection number (accept order).
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Whether reply bytes are queued.
    pub(crate) fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    /// Runs buffered frames through the service until one needs the
    /// shell: a reply to write, a delay to park, more bytes, or close.
    pub(crate) fn step(&mut self) -> Step {
        if self.timer_armed {
            return Step::Wait;
        }
        if self.closing {
            return if self.out.is_empty() {
                Step::Close
            } else {
                Step::Wait
            };
        }
        loop {
            let msg = match self.parked.take() {
                Some(msg) => msg,
                None => match self.next_frame() {
                    Ok(Some(msg)) => {
                        let delay = self.service.delay_for(&msg);
                        if !delay.is_zero() {
                            self.parked = Some(msg);
                            self.timer_armed = true;
                            return Step::Park(delay);
                        }
                        msg
                    }
                    Ok(None) => return Step::Read,
                    Err(_) => return Step::Close,
                },
            };
            match self.service.handle(msg) {
                FrameOutcome::Reply(reply) => {
                    let (head, tail) = reply.encode_parts();
                    self.out_bytes += head.len();
                    self.out.push_back(head.freeze());
                    if let Some(tail) = tail {
                        self.out_bytes += tail.len();
                        self.out.push_back(tail);
                    }
                    if self.out_bytes > MAX_WRITE_BACKLOG {
                        if geoproof_obs::enabled() {
                            backlog_drops().inc();
                        }
                        return Step::Close;
                    }
                    return Step::Write;
                }
                FrameOutcome::Silent => {}
                FrameOutcome::Close => {
                    self.closing = true;
                    return if self.out.is_empty() {
                        Step::Close
                    } else {
                        Step::Write
                    };
                }
            }
        }
    }

    /// The parked frame's service delay has elapsed; the next
    /// [`Conn::step`] handles it.
    pub(crate) fn fire(&mut self) {
        self.timer_armed = false;
    }

    /// One read from `src` straight into the frame buffer (frames are
    /// later sliced out of it, not copied). Returns the byte count: 0 is
    /// end of stream, fewer than [`READ_CHUNK`] a drained socket.
    pub(crate) fn read_from(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        let old = self.inbuf.len();
        self.inbuf.resize(old + READ_CHUNK, 0);
        let read = src.read(&mut self.inbuf[old..]);
        self.inbuf.truncate(old + read.as_ref().map_or(0, |&n| n));
        read
    }

    /// Writes queued reply bytes to `dst`, one vectored write per call,
    /// until the queue is empty (`Ok(true)`) or `dst` would block
    /// (`Ok(false)`, the rest stays queued).
    pub(crate) fn write_to(&mut self, dst: &mut impl Write) -> std::io::Result<bool> {
        while !self.out.is_empty() {
            let mut parts = [IoSlice::new(&[]); WRITE_PARTS];
            for (slot, part) in parts.iter_mut().zip(&self.out) {
                *slot = IoSlice::new(part);
            }
            parts[0] = IoSlice::new(&self.out[0][self.out_pos..]);
            let n_parts = self.out.len().min(WRITE_PARTS);
            match dst.write_vectored(&parts[..n_parts]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.sent(n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Advances the send cursor past `n` written bytes.
    fn sent(&mut self, mut n: usize) {
        self.out_bytes -= n;
        while let Some(front) = self.out.front() {
            let left = front.len() - self.out_pos;
            if n < left {
                self.out_pos += n;
                return;
            }
            n -= left;
            self.out.pop_front();
            self.out_pos = 0;
        }
    }

    /// Cuts the next complete frame off the buffer, if there is one. A
    /// length prefix over [`MAX_FRAME`] fails before any of its body is
    /// read, so a hostile prefix never grows the buffer.
    fn next_frame(&mut self) -> Result<Option<WireMessage>, CodecError> {
        if self.inbuf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(self.inbuf[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            return Err(CodecError::FrameTooLarge(len));
        }
        if self.inbuf.len() < 4 + len {
            return Ok(None);
        }
        let frame = self.inbuf.split_to(4 + len).freeze();
        WireMessage::decode_shared(&frame.slice(4..)).map(Some)
    }
}

fn backlog_drops() -> &'static geoproof_obs::Counter {
    static DROPS: std::sync::OnceLock<Arc<geoproof_obs::Counter>> = std::sync::OnceLock::new();
    DROPS.get_or_init(|| geoproof_obs::counter("reactor_conns_dropped_total{reason=\"backlog\"}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::SegmentStore;
    use parking_lot::Mutex;
    use std::collections::HashMap;

    /// A service over static file "f" (4 segments of `seg_len` bytes)
    /// and dynamic file "d" (4 tagged segments).
    fn service(seg_len: usize, delay: Duration) -> Arc<MuxService> {
        let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
        store.lock().insert(
            "f".to_owned(),
            (0..4)
                .map(|i| Bytes::from(vec![i as u8; seg_len]))
                .collect(),
        );
        let service = Arc::new(MuxService::new(store, delay));
        let keys = geoproof_por::keys::PorKeys::derive(b"conn-machine", "d");
        let tagged = (0..4u64)
            .map(|i| geoproof_por::dynamic::tag_segment(&keys, "d", i, &[i as u8; 30]).into())
            .collect();
        service.dynamic.insert("d", tagged);
        service
    }

    fn challenge(file_id: &str, index: u64) -> WireMessage {
        WireMessage::Challenge {
            file_id: file_id.to_owned(),
            index,
        }
    }

    /// A writer taking at most `max` bytes per call; 0 blocks.
    struct Sink {
        bytes: Vec<u8>,
        max: usize,
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.max == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.max);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Steps `conn` like a shell that has only `input` to read, writing
    /// into `sink`, until the machine needs something else.
    fn run(conn: &mut Conn, input: &mut &[u8], sink: &mut Sink) -> Step {
        loop {
            match conn.step() {
                Step::Read if !input.is_empty() => {
                    conn.read_from(input).unwrap();
                }
                Step::Write => {
                    conn.write_to(sink).unwrap();
                }
                other => return other,
            }
        }
    }

    #[test]
    fn scripted_frames_give_identical_output_at_every_split_point() {
        let service = service(83, Duration::ZERO);
        let d2 = service.dynamic.challenge("d", 2).expect("dynamic segment");
        let script: Vec<(WireMessage, Option<WireMessage>)> = vec![
            // A reply frame from the client is consumed silently.
            (WireMessage::UpdateAck { new_digest: None }, None),
            (
                challenge("f", 1),
                Some(WireMessage::Response {
                    segment: Some(Bytes::from(vec![1u8; 83])),
                }),
            ),
            (
                WireMessage::DynChallenge {
                    file_id: "d".to_owned(),
                    index: 2,
                },
                Some(WireMessage::DynResponse {
                    segment: Some((d2.segment, d2.proof)),
                }),
            ),
            (
                challenge("ghost", 0),
                Some(WireMessage::Response { segment: None }),
            ),
            (
                challenge("f", 4),
                Some(WireMessage::Response { segment: None }),
            ),
            (
                challenge("f", 3),
                Some(WireMessage::Response {
                    segment: Some(Bytes::from(vec![3u8; 83])),
                }),
            ),
            (WireMessage::Bye, None),
            // After Bye nothing is read or answered.
            (challenge("f", 0), None),
        ];
        let input: Vec<u8> = script
            .iter()
            .flat_map(|(m, _)| m.encode().to_vec())
            .collect();
        let expected: Vec<u8> = script
            .iter()
            .filter_map(|(_, r)| r.as_ref())
            .flat_map(|r| r.encode().to_vec())
            .collect();
        for split in 0..=input.len() {
            // Alternate a whole-buffer writer and a 7-byte trickle so the
            // send cursor crosses every part boundary too.
            let mut sink = Sink {
                bytes: Vec::new(),
                max: if split % 2 == 0 { usize::MAX } else { 7 },
            };
            let mut conn = Conn::new(service.clone());
            let (first, second) = input.split_at(split);
            let step = run(&mut conn, &mut &first[..], &mut sink);
            if step != Step::Close {
                assert_eq!(step, Step::Read, "split {split}");
                assert_eq!(run(&mut conn, &mut &second[..], &mut sink), Step::Close);
            }
            assert_eq!(sink.bytes, expected, "split {split}");
        }
    }

    #[test]
    fn oversized_length_prefix_closes_without_growing_the_buffer() {
        let mut conn = Conn::new(service(83, Duration::ZERO));
        let mut hostile = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        hostile.extend_from_slice(&[0u8; 60]);
        conn.read_from(&mut &hostile[..]).unwrap();
        assert_eq!(conn.step(), Step::Close);
        assert_eq!(conn.inbuf.len(), 64, "the frame body was never read");
        assert!(!conn.has_output());
    }

    #[test]
    fn bye_behind_queued_replies_flushes_then_closes() {
        let mut conn = Conn::new(service(83, Duration::ZERO));
        let input: Vec<u8> = [challenge("f", 0), challenge("f", 1), WireMessage::Bye]
            .iter()
            .flat_map(|m| m.encode().to_vec())
            .collect();
        // The peer reads nothing yet: both replies and the Bye queue up.
        let mut sink = Sink {
            bytes: Vec::new(),
            max: 0,
        };
        assert_eq!(run(&mut conn, &mut &input[..], &mut sink), Step::Wait);
        assert!(conn.has_output());
        // It starts reading: everything queued goes out, then close.
        sink.max = usize::MAX;
        assert!(conn.write_to(&mut sink).unwrap());
        assert_eq!(conn.step(), Step::Close);
        let expected: Vec<u8> = [0u8, 1]
            .iter()
            .flat_map(|&i| {
                WireMessage::Response {
                    segment: Some(Bytes::from(vec![i; 83])),
                }
                .encode()
                .to_vec()
            })
            .collect();
        assert_eq!(sink.bytes, expected);
    }

    #[test]
    fn delayed_frame_parks_and_holds_every_later_frame_until_it_fires() {
        let delay = Duration::from_millis(5);
        let mut conn = Conn::new(service(83, delay));
        let update = WireMessage::Update {
            file_id: "ghost".to_owned(),
            index: 0,
            tagged: Bytes::new(),
            sig: [0u8; 64],
        };
        let input: Vec<u8> = [challenge("f", 2), update, challenge("f", 3)]
            .iter()
            .flat_map(|m| m.encode().to_vec())
            .collect();
        let mut sink = Sink {
            bytes: Vec::new(),
            max: usize::MAX,
        };
        let mut input = &input[..];
        assert_eq!(run(&mut conn, &mut input, &mut sink), Step::Park(delay));
        // Parked: the undelayed Update behind it is not answered either.
        assert_eq!(conn.step(), Step::Wait);
        assert!(sink.bytes.is_empty());
        conn.fire();
        // The parked challenge, then the Update, then the next park.
        assert_eq!(run(&mut conn, &mut input, &mut sink), Step::Park(delay));
        let mut expected = WireMessage::Response {
            segment: Some(Bytes::from(vec![2u8; 83])),
        }
        .encode()
        .to_vec();
        expected.extend_from_slice(&WireMessage::UpdateAck { new_digest: None }.encode());
        assert_eq!(sink.bytes, expected);
        conn.fire();
        assert_eq!(run(&mut conn, &mut input, &mut sink), Step::Read);
        expected.extend_from_slice(
            &WireMessage::Response {
                segment: Some(Bytes::from(vec![3u8; 83])),
            }
            .encode(),
        );
        assert_eq!(sink.bytes, expected);
    }

    #[test]
    fn backlog_over_the_cap_closes() {
        let seg_len = 64 * 1024;
        let mut conn = Conn::new(service(seg_len, Duration::ZERO));
        let input: Vec<u8> = (0..32)
            .flat_map(|i| challenge("f", i % 4).encode().to_vec())
            .collect();
        let mut input = &input[..];
        let mut sink = Sink {
            bytes: Vec::new(),
            max: 0,
        };
        let mut queued = 0;
        let step = loop {
            match conn.step() {
                Step::Read => {
                    conn.read_from(&mut input).unwrap();
                }
                Step::Write => {
                    assert!(!conn.write_to(&mut sink).unwrap());
                    queued += 1;
                }
                other => break other,
            }
        };
        let reply_len = WireMessage::Response {
            segment: Some(Bytes::from(vec![0u8; seg_len])),
        }
        .encode()
        .len();
        assert_eq!(step, Step::Close);
        assert_eq!(queued, MAX_WRITE_BACKLOG / reply_len, "cut off at the cap");
    }
}
