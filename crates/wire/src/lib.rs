//! # geoproof-wire
//!
//! Wire-level transport for GeoProof:
//!
//! * [`codec`] — length-prefixed frames for challenge/response and audit
//!   control messages, with strict parsing (size caps, UTF-8 checks,
//!   truncation detection);
//! * [`tcp`] — the wall-clock timing client and the restartable frame
//!   reader, so the timed challenge–response phase can run over a real
//!   socket rather than the simulator;
//! * [`mux`] — the prover server behind `geoproof serve`: many
//!   connections, sessions multiplexed per connection, a sharded session
//!   table, per-session statistics, graceful shutdown.
//!
//! The server has one protocol implementation and two execution models:
//! the **reactor** ([`MuxProverServer::spawn_reactor`] — every
//! connection a non-blocking state machine on a single
//! `geoproof_reactor` epoll thread, so concurrency is bounded by file
//! descriptors rather than stacks), used wherever epoll exists, and the
//! **threaded** model ([`MuxProverServer::spawn`] — one thread per
//! connection, blocking I/O), the fallback where the reactor is
//! unsupported and the differential suite's reference.
//! See `crates/wire/docs/serving.md` for the architecture.
//!
//! # Examples
//!
//! ```
//! use geoproof_wire::codec::WireMessage;
//!
//! let msg = WireMessage::Challenge { file_id: "f".into(), index: 7 };
//! let frame = msg.encode();
//! assert_eq!(WireMessage::decode(&frame[4..]), Ok(msg));
//! ```

pub mod codec;
pub mod mux;
mod reactor_serve;
pub mod tcp;

pub use codec::{read_frame, write_frame, CodecError, WireMessage, MAX_FRAME};
pub use geoproof_reactor::raise_nofile_limit;
pub use mux::{MuxProverServer, MuxStats, SessionKey, SessionStats, MAX_SESSIONS_PER_CONNECTION};
pub use tcp::{SegmentStore, TcpChallenger};
