//! The prover server: multi-connection, stateless per challenge.
//!
//! `MuxProverServer` is the one server behind `geoproof serve`:
//!
//! * many simultaneous connections, each free to interleave challenges
//!   for any number of files;
//! * static (`Challenge`) and dynamic (`DynChallenge`/`Update`/`Append`)
//!   files on the same socket;
//! * no per-connection or per-file bookkeeping: a challenge is a store
//!   look-up and a reply, so the server adds nothing to the timed round
//!   beyond the look-up itself (Fig. 5: V sends c_j, P returns S_cj);
//! * graceful shutdown, and aggregate counters so operators can see
//!   load.
//!
//! Every connection is one `conn::Conn` machine over the shared
//! `MuxService`, and [`MuxProverServer::spawn_reactor`] drives all of
//! them on one epoll thread (see `reactor_serve`). On a target without
//! the reactor (anything but Linux x86-64 and aarch64) it returns
//! `Unsupported`.

use crate::codec::WireMessage;
use crate::tcp::{store_segments, SegmentStore};
use bytes::Bytes;
use geoproof_por::dynamic::DynamicDigest;
use geoproof_storage::dynamic::DynamicRegistry;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cached telemetry handles (see `geoproof_obs`). The counters shadow
/// the server's own cumulative [`MuxStats`] so a scrape endpoint sees
/// the same monotone totals.
struct MuxMetrics {
    connections: Arc<geoproof_obs::Counter>,
    challenges: Arc<geoproof_obs::Counter>,
    hits: Arc<geoproof_obs::Counter>,
    frames: Arc<geoproof_obs::Counter>,
}

fn mux_metrics() -> &'static MuxMetrics {
    static METRICS: std::sync::OnceLock<MuxMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| MuxMetrics {
        connections: geoproof_obs::counter("mux_connections_total"),
        challenges: geoproof_obs::counter("mux_challenges_total"),
        hits: geoproof_obs::counter("mux_hits_total"),
        frames: geoproof_obs::counter("mux_frames_total"),
    })
}

/// Aggregate server statistics. Every field is a counter over the
/// server's lifetime, so two [`MuxProverServer::stats`] snapshots always
/// satisfy `earlier ≤ later` field-wise.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MuxStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Challenges served, static and dynamic.
    pub challenges: u64,
    /// Challenges that found their segment.
    pub hits: u64,
}

/// What one frame's handling asks of the connection.
pub(crate) enum FrameOutcome {
    /// Send this reply.
    Reply(WireMessage),
    /// Frame consumed, nothing to send (a reply frame sent by a client).
    Silent,
    /// Polite end of connection (Bye).
    Close,
}

/// The protocol semantics: every lookup, every counter, every metric and
/// every reply choice. Its one caller is the connection machine
/// (`conn::Conn`).
pub(crate) struct MuxService {
    store: SegmentStore,
    pub(crate) dynamic: DynamicRegistry,
    /// Connections accepted; each accept takes the next id.
    connections: AtomicU64,
    challenges: AtomicU64,
    hits: AtomicU64,
    /// Per-challenge service delay (the simulated storage look-up).
    delay: Duration,
}

impl MuxService {
    pub(crate) fn new(store: SegmentStore, delay: Duration) -> MuxService {
        MuxService {
            store,
            dynamic: DynamicRegistry::new(),
            connections: AtomicU64::new(0),
            challenges: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            delay,
        }
    }

    /// How long `msg` is held before it is handled: the service delay
    /// for challenges, nothing for control frames.
    pub(crate) fn delay_for(&self, msg: &WireMessage) -> Duration {
        match msg {
            WireMessage::Challenge { .. } | WireMessage::DynChallenge { .. } => self.delay,
            _ => Duration::ZERO,
        }
    }

    /// A connection was accepted: returns its id.
    pub(crate) fn open(&self) -> u64 {
        mux_metrics().connections.inc();
        self.connections.fetch_add(1, Ordering::Relaxed)
    }

    /// Counts one answered challenge.
    fn served(&self, hit: bool) {
        self.challenges.fetch_add(1, Ordering::Relaxed);
        let m = mux_metrics();
        m.challenges.inc();
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            m.hits.inc();
        }
    }

    /// Handles one inbound frame.
    pub(crate) fn handle(&self, msg: WireMessage) -> FrameOutcome {
        mux_metrics().frames.inc();
        match msg {
            WireMessage::Challenge { file_id, index } => {
                let segment = self
                    .store
                    .lock()
                    .get(&file_id)
                    .and_then(|segs| segs.get(index as usize))
                    .cloned();
                self.served(segment.is_some());
                FrameOutcome::Reply(WireMessage::Response { segment })
            }
            WireMessage::DynChallenge { file_id, index } => {
                let served = self.dynamic.challenge(&file_id, index);
                self.served(served.is_some());
                FrameOutcome::Reply(WireMessage::DynResponse {
                    segment: served.map(|p| (p.segment, p.proof)),
                })
            }
            WireMessage::Update {
                file_id,
                index,
                tagged,
                sig,
            } => {
                let new_digest = self
                    .dynamic
                    .update(&file_id, index, tagged, &sig)
                    .and_then(Result::ok);
                FrameOutcome::Reply(WireMessage::UpdateAck { new_digest })
            }
            WireMessage::Append {
                file_id,
                tagged,
                sig,
            } => {
                let new_digest = self.dynamic.append(&file_id, tagged, &sig);
                FrameOutcome::Reply(WireMessage::UpdateAck { new_digest })
            }
            WireMessage::Bye => FrameOutcome::Close,
            // Replies never originate from a client; ignore them.
            WireMessage::Response { .. }
            | WireMessage::DynResponse { .. }
            | WireMessage::UpdateAck { .. } => FrameOutcome::Silent,
        }
    }
}

/// The multi-connection prover server.
pub struct MuxProverServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    loop_handle: Option<std::thread::JoinHandle<()>>,
    service: Arc<MuxService>,
    /// Interrupts the event loop's poll at shutdown.
    waker: geoproof_reactor::Waker,
}

impl std::fmt::Debug for MuxProverServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxProverServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl MuxProverServer {
    /// Binds to an ephemeral localhost port and serves every connection
    /// from one epoll thread, so tens of thousands of concurrent audits
    /// fit in O(connections) heap. `service_delay` is added per
    /// challenge on reactor timers, emulating storage latency so
    /// wall-clock experiments can contrast disk classes.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; [`std::io::ErrorKind::Unsupported`] on
    /// targets without the epoll backend.
    pub fn spawn_reactor(
        store: SegmentStore,
        service_delay: Duration,
    ) -> std::io::Result<MuxProverServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let service = Arc::new(MuxService::new(store, service_delay));
        let (waker, handle) =
            crate::reactor_serve::spawn_reactor_loop(listener, service.clone(), stop.clone())?;
        Ok(MuxProverServer {
            addr,
            stop,
            loop_handle: Some(handle),
            service,
            waker,
        })
    }

    /// The server's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replaces a file's segments.
    pub fn put_file(&self, file_id: &str, segments: Vec<Vec<u8>>) {
        self.service
            .store
            .lock()
            .insert(file_id.to_owned(), store_segments(segments));
    }

    /// Replaces a file's segments with already-shared views (zero-copy).
    pub fn put_shared(&self, file_id: &str, segments: Vec<Bytes>) {
        self.service
            .store
            .lock()
            .insert(file_id.to_owned(), segments);
    }

    /// Registers (or replaces) a dynamic file from already-tagged
    /// segments, returning its starting digest. **Unauthenticated**:
    /// any peer may then update/append it — use
    /// [`MuxProverServer::put_dynamic_with_owner`] on a real socket.
    ///
    /// # Panics
    ///
    /// Panics on an empty segment list.
    pub fn put_dynamic(&self, file_id: &str, tagged: Vec<Bytes>) -> DynamicDigest {
        self.service.dynamic.insert(file_id, tagged)
    }

    /// Registers (or replaces) a dynamic file whose updates/appends must
    /// carry the owner's authorisation signature.
    ///
    /// # Panics
    ///
    /// Panics on an empty segment list.
    pub fn put_dynamic_with_owner(
        &self,
        file_id: &str,
        tagged: Vec<Bytes>,
        owner: geoproof_crypto::schnorr::VerifyingKey,
    ) -> DynamicDigest {
        self.service
            .dynamic
            .insert_with_owner(file_id, tagged, owner)
    }

    /// A handle on the dynamic-file registry this server serves
    /// (adversarial tests corrupt through it).
    pub fn dynamic(&self) -> DynamicRegistry {
        self.service.dynamic.clone()
    }

    /// Aggregate statistics (monotone — see [`MuxStats`]).
    pub fn stats(&self) -> MuxStats {
        let s = &self.service;
        MuxStats {
            connections: s.connections.load(Ordering::Relaxed),
            challenges: s.challenges.load(Ordering::Relaxed),
            hits: s.hits.load(Ordering::Relaxed),
        }
    }

    /// Stops serving: the waker interrupts the event loop's poll
    /// immediately, and the loop drops every connection machine before
    /// it is joined.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.waker.wake();
        if let Some(h) = self.loop_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MuxProverServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
