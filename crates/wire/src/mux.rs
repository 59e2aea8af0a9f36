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
//! `MuxService`. Two shells drive the machines:
//! [`MuxProverServer::spawn_reactor`] (all of them on one epoll thread —
//! see `reactor_serve`) wherever the reactor exists, and
//! [`MuxProverServer::spawn`] (a blocking thread per connection, in this
//! module) elsewhere.

use crate::codec::WireMessage;
use crate::conn::{Conn, Step};
use crate::tcp::{store_segments, SegmentStore};
use bytes::Bytes;
use geoproof_por::dynamic::DynamicDigest;
use geoproof_storage::dynamic::DynamicRegistry;
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpListener, TcpStream};
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
/// (`conn::Conn`), whichever shell drives it.
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

/// How long the blocking accept loop parks between accept attempts.
/// Short, because nothing signals the condvar when a connection arrives
/// — only shutdown does.
const ACCEPT_PARK: Duration = Duration::from_millis(2);

/// Shutdown-interruptible park for the blocking accept loop.
///
/// A non-blocking listener has to retry `accept`; a plain `sleep`
/// between attempts could not be interrupted by shutdown. Parking on a
/// condvar keeps the retry cadence but lets [`AcceptPark::wake`]
/// (called with the stop flag set) end the wait immediately.
struct AcceptPark {
    lock: std::sync::Mutex<()>,
    cv: std::sync::Condvar,
}

impl AcceptPark {
    fn new() -> Arc<AcceptPark> {
        Arc::new(AcceptPark {
            lock: std::sync::Mutex::new(()),
            cv: std::sync::Condvar::new(),
        })
    }

    /// Parks for [`ACCEPT_PARK`] unless `stop` is already set; a
    /// concurrent [`AcceptPark::wake`] ends the park early. Checking
    /// `stop` under the lock closes the set-flag/park race.
    fn park_unless(&self, stop: &AtomicBool) {
        let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        if stop.load(Ordering::Relaxed) {
            return;
        }
        drop(
            self.cv
                .wait_timeout(guard, ACCEPT_PARK)
                .unwrap_or_else(|e| e.into_inner()),
        );
    }

    /// Wakes a parked accept loop (the caller has set its stop flag).
    fn wake(&self) {
        drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
        self.cv.notify_all();
    }
}

/// The multi-connection prover server.
pub struct MuxProverServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    service: Arc<MuxService>,
    /// Blocking shell: wakes the parked accept loop at shutdown.
    park: Option<Arc<AcceptPark>>,
    /// Epoll shell: interrupts the event loop's poll at shutdown.
    waker: Option<geoproof_reactor::Waker>,
}

impl std::fmt::Debug for MuxProverServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxProverServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl MuxProverServer {
    /// Binds an ephemeral localhost port; the caller starts the loop.
    fn bind(
        store: SegmentStore,
        service_delay: Duration,
    ) -> std::io::Result<(TcpListener, MuxProverServer)> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let server = MuxProverServer {
            addr: listener.local_addr()?,
            stop: Arc::new(AtomicBool::new(false)),
            accept_handle: None,
            conn_handles: Arc::new(Mutex::new(Vec::new())),
            service: Arc::new(MuxService::new(store, service_delay)),
            park: None,
            waker: None,
        };
        Ok((listener, server))
    }

    /// Binds to an ephemeral localhost port and serves from the blocking
    /// shell: one thread per connection, blocking reads and writes.
    ///
    /// `service_delay` is added per challenge, emulating storage latency
    /// so wall-clock experiments can contrast disk classes.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn spawn(store: SegmentStore, service_delay: Duration) -> std::io::Result<MuxProverServer> {
        let (listener, mut server) = Self::bind(store, service_delay)?;
        listener.set_nonblocking(true)?;
        let park = AcceptPark::new();
        let accept_stop = server.stop.clone();
        let accept_park = park.clone();
        let accept_conns = server.conn_handles.clone();
        let accept_service = server.service.clone();
        server.accept_handle = Some(std::thread::spawn(move || {
            while !accept_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let conn = Conn::new(accept_service.clone());
                        let stop = accept_stop.clone();
                        let handle = std::thread::spawn(move || {
                            let _ = serve_blocking(stream, conn, &stop);
                        });
                        // Opportunistically reap finished handles (the
                        // stat-read path reaps too, so a burst followed
                        // by silence doesn't hoard handles until the
                        // next accept).
                        reap_finished(&accept_conns);
                        accept_conns.lock().push(handle);
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        accept_park.park_unless(&accept_stop);
                    }
                    Err(_) => break,
                }
            }
        }));
        server.park = Some(park);
        Ok(server)
    }

    /// Event-driven variant of [`MuxProverServer::spawn`]: the same
    /// connection machines over the same service, but all driven from
    /// one epoll thread instead of a thread each, so tens of thousands
    /// of concurrent audits fit in O(connections) heap. Service delay
    /// runs on reactor timers.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; [`std::io::ErrorKind::Unsupported`] on
    /// targets without the epoll backend (use [`MuxProverServer::spawn`]
    /// there).
    pub fn spawn_reactor(
        store: SegmentStore,
        service_delay: Duration,
    ) -> std::io::Result<MuxProverServer> {
        let (listener, mut server) = Self::bind(store, service_delay)?;
        let (waker, handle) = crate::reactor_serve::spawn_reactor_loop(
            listener,
            server.service.clone(),
            server.stop.clone(),
        )?;
        server.accept_handle = Some(handle);
        server.waker = Some(waker);
        Ok(server)
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
    ///
    /// Reading stats also reaps finished connection threads in the
    /// blocking shell: a burst of connections followed by silence used
    /// to hoard one `JoinHandle` per past connection until the *next*
    /// accept; any observer now releases them.
    pub fn stats(&self) -> MuxStats {
        reap_finished(&self.conn_handles);
        let s = &self.service;
        MuxStats {
            connections: s.connections.load(Ordering::Relaxed),
            challenges: s.challenges.load(Ordering::Relaxed),
            hits: s.hits.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, then joins the accept loop **and every
    /// connection thread** (the blocking shell's threads notice the stop
    /// flag within one socket timeout, even mid-write to a peer that
    /// never reads). In the epoll shell the waker interrupts the event
    /// loop's poll immediately, which drops every connection machine.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(park) = &self.park {
            park.wake();
        }
        if let Some(waker) = &self.waker {
            let _ = waker.wake();
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.conn_handles.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for MuxProverServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reaps (joins) connection threads that have already finished, so a
/// long-lived server holds handles only for *live* connections. Called
/// from the accept loop and from [`MuxProverServer::stats`].
fn reap_finished(handles: &Mutex<Vec<std::thread::JoinHandle<()>>>) {
    let mut handles = handles.lock();
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let _ = handles.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Longest any blocking socket call may take before the connection
/// thread looks at the stop flag again.
const BLOCKING_IO_TIMEOUT: Duration = Duration::from_millis(50);

/// The blocking shell: drives one connection's machine on its own
/// thread. Reads and writes time out after [`BLOCKING_IO_TIMEOUT`] and
/// the stop flag is checked between any two socket calls, so neither a
/// byte dribbler (slow loris) nor a peer that never reads holds up
/// shutdown. Once a write times out, further replies only queue until
/// the next read turn retries the write, so a peer that pipelines
/// without reading meets the machine's backlog cap here too. A service
/// delay is a sleep.
fn serve_blocking(mut stream: TcpStream, mut conn: Conn, stop: &AtomicBool) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(BLOCKING_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(BLOCKING_IO_TIMEOUT))?;
    let mut backed_up = false;
    while !stop.load(Ordering::Relaxed) {
        match conn.step() {
            Step::Write if backed_up => {}
            Step::Write | Step::Wait => backed_up = !conn.write_to(&mut stream)?,
            Step::Read => {
                backed_up = !conn.write_to(&mut stream)?;
                match conn.read_from(&mut stream) {
                    Ok(0) => break,
                    Ok(_) => {}
                    // Timed out or interrupted: step again.
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock
                                | std::io::ErrorKind::TimedOut
                                | std::io::ErrorKind::Interrupted
                        ) => {}
                    Err(e) => return Err(e),
                }
            }
            Step::Park(delay) => {
                std::thread::sleep(delay);
                conn.fire();
            }
            Step::Close => break,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpChallenger;
    use std::collections::HashMap;

    #[test]
    fn finished_connection_threads_are_reaped_without_a_next_accept() {
        // Regression: handles of finished connection threads were only
        // reaped inside the accept arm, so a burst of connections
        // followed by silence hoarded one JoinHandle per past
        // connection indefinitely. Reading stats must release them.
        let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
        store
            .lock()
            .insert("f".to_owned(), vec![Bytes::from(vec![0u8; 83]); 2]);
        let server = MuxProverServer::spawn(store, Duration::ZERO).unwrap();
        let addr = server.addr();
        for _ in 0..8 {
            let mut c = TcpChallenger::connect(addr).unwrap();
            let (seg, _) = c.challenge("f", 0).unwrap();
            assert!(seg.is_some());
            c.bye().unwrap();
        }
        // All eight connections have said Bye and no further accepts
        // happen. A stats read — the operator's natural touchpoint — must
        // reap the handles once their threads finish.
        for _ in 0..300 {
            let _ = server.stats();
            if server.conn_handles.lock().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            server.conn_handles.lock().is_empty(),
            "finished connection handles hoarded until the next accept"
        );
    }
}
