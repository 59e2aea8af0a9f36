//! Adversarial framing: hostile lengths at and beyond `MAX_FRAME`, and
//! the zero-copy aliasing contract of the codec and the serve path.
//!
//! A prover faces the open network, so the framing layer must treat
//! length prefixes as attacker-controlled: a frame of exactly
//! [`MAX_FRAME`] is legal, one byte more is rejected *without panic*,
//! and a rejection must never desynchronise parsing of well-formed
//! traffic (the server drops the connection; fresh connections are
//! unaffected).

use bytes::Bytes;
use geoproof_por::encode::PorEncoder;
use geoproof_por::keys::PorKeys;
use geoproof_por::params::PorParams;
use geoproof_storage::arena::SegmentArena;
use geoproof_storage::hdd::{HddModel, WD_2500JD};
use geoproof_storage::server::{FileId, StorageServer};
use geoproof_wire::codec::{read_frame, write_frame, CodecError, WireMessage, MAX_FRAME};
use geoproof_wire::tcp::{SegmentStore, TcpChallenger};
use geoproof_wire::MuxProverServer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

const TAG_RESPONSE: u8 = 2;

fn store_with(file: &str, n: usize) -> SegmentStore {
    let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
    store.lock().insert(
        file.to_owned(),
        (0..n).map(|i| Bytes::from(vec![i as u8; 83])).collect(),
    );
    store
}

/// A raw `Response` frame whose *payload* is exactly `payload_len` bytes.
fn response_frame_with_payload_len(payload_len: usize) -> Vec<u8> {
    // Payload layout: tag(1) ‖ present(1) ‖ seg_len(4) ‖ segment.
    let seg_len = payload_len - 6;
    let mut frame = Vec::with_capacity(4 + payload_len);
    frame.extend_from_slice(&(payload_len as u32).to_be_bytes());
    frame.push(TAG_RESPONSE);
    frame.push(1);
    frame.extend_from_slice(&(seg_len as u32).to_be_bytes());
    frame.extend_from_slice(&vec![0xabu8; seg_len]);
    frame
}

#[test]
fn frame_of_exactly_max_frame_is_accepted() {
    let frame = response_frame_with_payload_len(MAX_FRAME);
    let mut cursor = std::io::Cursor::new(frame);
    let msg = read_frame(&mut cursor).expect("MAX_FRAME is within the limit");
    match msg {
        WireMessage::Response { segment: Some(s) } => assert_eq!(s.len(), MAX_FRAME - 6),
        other => panic!("unexpected decode {other:?}"),
    }
}

#[test]
fn frame_of_max_frame_plus_one_is_rejected_without_panic() {
    let mut frame = response_frame_with_payload_len(MAX_FRAME + 1);
    let err = read_frame(&mut std::io::Cursor::new(&frame)).expect_err("must reject");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // A wildly hostile prefix (4 GiB-ish) is rejected before any
    // allocation is attempted.
    frame[..4].copy_from_slice(&u32::MAX.to_be_bytes());
    let err = read_frame(&mut std::io::Cursor::new(&frame)).expect_err("must reject");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn rejected_frame_does_not_desync_the_byte_stream() {
    // An oversized frame followed by a valid frame in one contiguous
    // stream: after the rejection the reader's cursor is at a defined
    // position (nothing consumed beyond the bad prefix), so the caller
    // can drop the connection without ever misparsing later bytes as a
    // frame boundary.
    let mut stream = Vec::new();
    stream.extend_from_slice(&((MAX_FRAME + 1) as u32).to_be_bytes());
    let good = WireMessage::Challenge {
        file_id: "f".into(),
        index: 3,
    }
    .encode();
    stream.extend_from_slice(&good);
    let mut cursor = std::io::Cursor::new(stream);
    assert!(read_frame(&mut cursor).is_err());
    assert_eq!(
        cursor.position(),
        4,
        "only the rejected prefix may be consumed"
    );
    // Resuming at the known position yields the following frame intact.
    assert_eq!(
        read_frame(&mut cursor).expect("subsequent frame"),
        WireMessage::Challenge {
            file_id: "f".into(),
            index: 3,
        }
    );
}

#[test]
fn inner_length_beyond_the_buffer_is_truncated_not_panic() {
    // Response advertising a 1000-byte segment with 5 bytes behind it.
    let mut payload = vec![TAG_RESPONSE, 1];
    payload.extend_from_slice(&1000u32.to_be_bytes());
    payload.extend_from_slice(&[1, 2, 3, 4, 5]);
    assert_eq!(WireMessage::decode(&payload), Err(CodecError::Truncated));

    // Inner length beyond MAX_FRAME is the size error even when the
    // buffer is also short.
    let mut payload = vec![TAG_RESPONSE, 1];
    payload.extend_from_slice(&((MAX_FRAME + 1) as u32).to_be_bytes());
    assert_eq!(
        WireMessage::decode(&payload),
        Err(CodecError::FrameTooLarge(MAX_FRAME + 1))
    );

    // A string length prefix larger than the buffer: same discipline.
    let mut payload = vec![1u8]; // TAG_CHALLENGE
    payload.extend_from_slice(&((MAX_FRAME + 1) as u32).to_be_bytes());
    assert_eq!(
        WireMessage::decode(&payload),
        Err(CodecError::FrameTooLarge(MAX_FRAME + 1))
    );
}

#[test]
fn live_server_survives_hostile_prefix_and_keeps_serving() {
    let server = MuxProverServer::spawn_reactor(store_with("f", 4), Duration::ZERO).expect("bind");

    // Hostile connection: advertise MAX_FRAME + 1 and dribble garbage.
    {
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        raw.write_all(&((MAX_FRAME + 1) as u32).to_be_bytes())
            .unwrap();
        raw.write_all(&[0u8; 64]).unwrap();
        raw.flush().unwrap();
        // The server must drop us without answering.
        raw.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let reply = read_frame(&mut raw);
        assert!(reply.is_err(), "server answered a hostile frame: {reply:?}");
    }

    // A fresh, honest connection is completely unaffected.
    let mut client = TcpChallenger::connect(server.addr()).expect("connect");
    let (seg, _) = client.challenge("f", 2).expect("post-attack challenge");
    assert_eq!(seg.unwrap(), vec![2u8; 83]);
    client.bye().unwrap();
}

#[test]
fn boundary_sized_frame_round_trips_through_a_live_server() {
    // The reader's buffered path must accept a frame whose total length
    // sits exactly at 4 + MAX_FRAME without tripping the limit check.
    let server = MuxProverServer::spawn_reactor(store_with("f", 2), Duration::ZERO).expect("bind");
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    // An unknown-tag frame of maximum size: the server errors the
    // connection (decode fails), but must not panic — and a new
    // connection still works.
    let mut frame = Vec::with_capacity(4 + MAX_FRAME);
    frame.extend_from_slice(&(MAX_FRAME as u32).to_be_bytes());
    frame.push(99); // unknown tag
    frame.extend_from_slice(&vec![0u8; MAX_FRAME - 1]);
    raw.write_all(&frame).unwrap();
    raw.flush().unwrap();
    drop(raw);

    let mut client = TcpChallenger::connect(server.addr()).expect("connect");
    let (seg, _) = client.challenge("f", 1).expect("challenge");
    assert!(seg.is_some());
}

#[test]
fn decode_shared_slices_the_frame_buffer() {
    // The zero-copy receive contract: a decoded segment is a view into
    // the frame allocation, not a copy of it.
    let segment = Bytes::from(vec![0x5au8; 83]);
    let msg = WireMessage::Response {
        segment: Some(segment.clone()),
    };
    let frame = msg.encode();
    let payload = frame.slice(4..);
    let decoded = WireMessage::decode_shared(&payload).expect("decode");
    let WireMessage::Response { segment: Some(got) } = decoded else {
        panic!("wrong variant");
    };
    assert_eq!(got, segment);
    let payload_start = payload.as_ptr() as usize;
    let got_start = got.as_ptr() as usize;
    assert!(
        got_start >= payload_start && got_start + got.len() <= payload_start + payload.len(),
        "decoded segment must alias the frame buffer"
    );
}

#[test]
fn encode_parts_does_not_copy_the_segment() {
    let segment = Bytes::from(vec![0x77u8; 83]);
    let msg = WireMessage::Response {
        segment: Some(segment.clone()),
    };
    let (head, tail) = msg.encode_parts();
    let tail = tail.expect("segment response has a tail");
    assert!(
        tail.aliases(&segment),
        "encode_parts must hand back the same allocation"
    );
    // head ‖ tail is exactly the contiguous encoding.
    let mut whole = head.to_vec();
    whole.extend_from_slice(&tail);
    assert_eq!(whole, msg.encode().to_vec());

    // The serve path end to end: a segment read out of a PoR-encoded
    // storage arena reaches the writer as the arena's own bytes.
    let keys = PorKeys::derive(b"master", "dp");
    let data: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
    let tagged = PorEncoder::new(PorParams::test_small()).encode_arena(&data, &keys, "dp");
    let mut server = StorageServer::new(HddModel::deterministic(WD_2500JD), 6);
    server.put_arena(
        FileId::from("dp"),
        SegmentArena::from_contiguous(
            tagged.bytes().clone(),
            tagged.stride(),
            tagged.segment_count() as usize,
        ),
    );
    let msg = WireMessage::Response {
        segment: server.read_segment(&FileId::from("dp"), 2).data,
    };
    let mut out = SliceRecorder::default();
    write_frame(&mut out, &msg).expect("recorder never fails");
    assert_eq!(out.bytes, msg.encode().to_vec());
    let &(payload_ptr, payload_len) = out.slices.last().expect("a payload write");
    assert_eq!(
        payload_ptr,
        tagged.segment(2).as_ptr(),
        "write_frame copied the segment instead of writing the arena's bytes"
    );
    assert_eq!(payload_len, tagged.stride());
}

/// A `Write` that records where each slice it is handed lives.
#[derive(Default)]
struct SliceRecorder {
    slices: Vec<(*const u8, usize)>,
    bytes: Vec<u8>,
}

impl Write for SliceRecorder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.slices.push((buf.as_ptr(), buf.len()));
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
