//! # geoproof-wire
//!
//! Wire-level transport for GeoProof:
//!
//! * [`codec`] — length-prefixed frames for challenge/response and
//!   dynamic-file messages, with strict parsing (size caps, UTF-8 checks,
//!   truncation, trailing-byte and option-byte rejection);
//! * [`tcp`] — the wall-clock timing client and the segment store type,
//!   so the timed challenge–response phase can run over a real socket
//!   rather than the simulator;
//! * [`mux`] — the prover server behind `geoproof serve`: many
//!   connections, each answering challenges for any file with no
//!   per-connection state beyond its frame buffer, aggregate counters,
//!   graceful shutdown.
//!
//! Each server connection is one socket-free state machine (`conn`):
//! bytes and timer fires in; bytes to write, a park request and close
//! out. It parses frames, calls the protocol, parks service delays,
//! flushes before a Bye closes and caps the write backlog. The **epoll
//! shell** ([`MuxProverServer::spawn_reactor`]) drives every connection
//! on one `geoproof_reactor` thread, so concurrency is bounded by file
//! descriptors rather than stacks. It is the only server: targets
//! without the reactor (anything but Linux x86-64 and aarch64) get
//! [`std::io::ErrorKind::Unsupported`]. See
//! `crates/wire/docs/serving.md` for the architecture.
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
mod conn;
pub mod mux;
mod reactor_serve;
pub mod tcp;

pub use codec::{read_frame, write_frame, CodecError, WireMessage, MAX_FRAME};
pub use geoproof_reactor::raise_nofile_limit;
pub use mux::{MuxProverServer, MuxStats};
pub use tcp::{SegmentStore, TcpChallenger};
