//! The prover server: multi-connection, session-multiplexing.
//!
//! `MuxProverServer` is the one server behind `geoproof serve`:
//!
//! * many simultaneous connections, each able to interleave challenges
//!   for several audit sessions (a session = one `(connection, file)`
//!   pair, opened implicitly or via a `StartAudit` frame);
//! * static (`Challenge`) and dynamic (`DynChallenge`/`Update`/`Append`)
//!   files on the same socket;
//! * a **sharded session table** (per-shard `parking_lot` mutexes keyed
//!   by session), so hot sessions on different shards never contend;
//! * graceful shutdown, and aggregate statistics so operators can see
//!   load.
//!
//! It runs in one of two execution models over the same `MuxService`:
//! [`MuxProverServer::spawn_reactor`] (every connection a state machine
//! on one epoll thread — see `reactor_serve`) wherever the reactor
//! exists, and [`MuxProverServer::spawn`] (a thread per connection) as
//! the fallback and the differential suite's reference.

use crate::codec::{write_frame, WireMessage};
use crate::tcp::{store_segments, IdleFrameReader, Polled, SegmentStore};
use bytes::Bytes;
use geoproof_crypto::fnv::Fnv1a;
use geoproof_por::dynamic::DynamicDigest;
use geoproof_storage::dynamic::DynamicRegistry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cached telemetry handles (see `geoproof_obs`). The counters shadow
/// the server's own cumulative [`MuxStats`] so a scrape endpoint sees
/// the same monotone totals; the latency histogram covers each
/// session's open-to-eviction lifetime.
struct MuxMetrics {
    connections: std::sync::Arc<geoproof_obs::Counter>,
    sessions: std::sync::Arc<geoproof_obs::Counter>,
    challenges: std::sync::Arc<geoproof_obs::Counter>,
    hits: std::sync::Arc<geoproof_obs::Counter>,
    frames: std::sync::Arc<geoproof_obs::Counter>,
    closed_complete: std::sync::Arc<geoproof_obs::Counter>,
    closed_incomplete: std::sync::Arc<geoproof_obs::Counter>,
    latency: std::sync::Arc<geoproof_obs::Histogram>,
}

fn mux_metrics() -> &'static MuxMetrics {
    static METRICS: std::sync::OnceLock<MuxMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| MuxMetrics {
        connections: geoproof_obs::counter("mux_connections_total"),
        sessions: geoproof_obs::counter("mux_sessions_opened_total"),
        challenges: geoproof_obs::counter("mux_challenges_total"),
        hits: geoproof_obs::counter("mux_hits_total"),
        frames: geoproof_obs::counter("mux_frames_total"),
        closed_complete: geoproof_obs::counter("mux_sessions_closed_total{outcome=\"complete\"}"),
        closed_incomplete: geoproof_obs::counter(
            "mux_sessions_closed_total{outcome=\"incomplete\"}",
        ),
        latency: geoproof_obs::histogram("mux_session_latency_us"),
    })
}

/// Number of shards in the session table. A power of two; sized so a
/// few hundred concurrent sessions rarely share a shard lock.
const SESSION_SHARDS: usize = 16;

/// Hard cap on live sessions a single connection can open. A session
/// entry costs heap per `(connection, file)` pair, so without a cap one
/// hostile connection spamming `StartAudit`/`Challenge` frames with
/// unique file ids grows the table without bound. Honest audits touch a
/// handful of files per connection; 64 is far above any legitimate use.
pub const MAX_SESSIONS_PER_CONNECTION: u64 = 64;

/// Identifies one audit session on the server: a connection and the file
/// it is challenging.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// Server-assigned connection number (accept order).
    pub connection: u64,
    /// File under audit.
    pub file_id: String,
}

/// Per-session bookkeeping.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Challenges answered for this session.
    pub challenges: u64,
    /// Challenges that found the segment.
    pub hits: u64,
    /// Announced challenge count k, when the client sent `StartAudit`.
    pub announced_k: Option<u32>,
    /// When the session opened (server clock) — drives the
    /// session-lifetime histogram at eviction.
    pub started: Option<Instant>,
}

/// Aggregate server statistics. Every field is **monotone** over the
/// server's lifetime: closing a connection folds its sessions' counts
/// into retirement totals instead of discarding them, so two
/// [`MuxProverServer::stats`] snapshots always satisfy `earlier ≤ later`
/// field-wise — reconnecting clients can never make a total go
/// backwards.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MuxStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Sessions ever opened (connection × file pairs).
    pub sessions: u64,
    /// Total challenges served.
    pub challenges: u64,
    /// Challenges that found their segment, across live **and** closed
    /// sessions.
    pub hits: u64,
    /// Closed sessions that had answered at least their announced `k`
    /// challenges with hits.
    pub sessions_complete: u64,
    /// Closed sessions that ended early, or never announced a `k`.
    pub sessions_incomplete: u64,
}

/// FNV-1a over the session key — deterministic shard choice (std's
/// `RandomState` would randomise it per process, which makes load
/// investigations unrepeatable).
fn shard_of(key: &SessionKey) -> usize {
    let mut h = Fnv1a::new();
    h.write(&key.connection.to_be_bytes())
        .write(key.file_id.as_bytes());
    (h.finish() as usize) % SESSION_SHARDS
}

/// Sharded session table shared by all connection threads.
#[derive(Debug, Default)]
struct SessionTable {
    shards: [Mutex<HashMap<SessionKey, SessionStats>>; SESSION_SHARDS],
    opened: AtomicU64,
    /// Live sessions per connection, for the per-connection cap.
    per_conn: Mutex<HashMap<u64, u64>>,
    /// Hits folded out of sessions evicted at connection close — added
    /// to the live sums so [`MuxStats::hits`] is monotone.
    retired_hits: AtomicU64,
    /// Evicted sessions that served their announced `k` in hits.
    retired_complete: AtomicU64,
    /// Evicted sessions that ended short (or unannounced).
    retired_incomplete: AtomicU64,
}

impl SessionTable {
    /// Updates an existing session's stats, or opens a new session when
    /// allowed: the file must actually exist (`known_file`) and the
    /// connection must be under [`MAX_SESSIONS_PER_CONNECTION`]. A
    /// refused session simply records nothing — the challenge itself is
    /// still answered (protocol behaviour is unchanged; only the
    /// unbounded bookkeeping is). Both refusals close resource
    /// exhaustion: a hostile connection spamming frames with unique
    /// file ids used to allocate a table entry per frame.
    fn with_session(&self, key: &SessionKey, known_file: bool, f: impl FnOnce(&mut SessionStats)) {
        let mut shard = self.shards[shard_of(key)].lock();
        match shard.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(mut e) => f(e.get_mut()),
            std::collections::hash_map::Entry::Vacant(v) => {
                if !known_file {
                    return;
                }
                {
                    let mut counts = self.per_conn.lock();
                    let count = counts.entry(key.connection).or_insert(0);
                    if *count >= MAX_SESSIONS_PER_CONNECTION {
                        return;
                    }
                    *count += 1;
                }
                self.opened.fetch_add(1, Ordering::Relaxed);
                mux_metrics().sessions.inc();
                f(v.insert(SessionStats {
                    started: Some(Instant::now()),
                    ..SessionStats::default()
                }));
            }
        }
    }

    fn snapshot(&self) -> Vec<(SessionKey, SessionStats)> {
        let mut all: Vec<(SessionKey, SessionStats)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by(|a, b| (a.0.connection, &a.0.file_id).cmp(&(b.0.connection, &b.0.file_id)));
        all
    }

    /// Drops every session belonging to a closed connection, folding
    /// each evicted session's counters into the retirement totals first
    /// — aggregate statistics stay monotone while per-session state
    /// stays bounded by current concurrency, not server lifetime. Each
    /// close is also classified (did the session serve its announced
    /// `k`?) and its lifetime recorded.
    fn evict_connection(&self, conn_id: u64) {
        let now = Instant::now();
        let m = mux_metrics();
        for shard in &self.shards {
            shard.lock().retain(|k, s| {
                if k.connection != conn_id {
                    return true;
                }
                self.retired_hits.fetch_add(s.hits, Ordering::Relaxed);
                let complete = s.announced_k.is_some_and(|k| s.hits >= u64::from(k));
                if complete {
                    self.retired_complete.fetch_add(1, Ordering::Relaxed);
                    m.closed_complete.inc();
                } else {
                    self.retired_incomplete.fetch_add(1, Ordering::Relaxed);
                    m.closed_incomplete.inc();
                }
                if let Some(started) = s.started {
                    m.latency
                        .record_duration_us(now.saturating_duration_since(started));
                }
                false
            });
        }
        self.per_conn.lock().remove(&conn_id);
    }

    /// Hits across live sessions plus everything already retired.
    fn total_hits(&self) -> u64 {
        let live: u64 = self
            .shards
            .iter()
            .map(|s| s.lock().values().map(|v| v.hits).sum::<u64>())
            .sum();
        self.retired_hits.load(Ordering::Relaxed) + live
    }
}

/// What one frame's handling asks of the connection.
pub(crate) enum FrameOutcome {
    /// Send this reply.
    Reply(WireMessage),
    /// Frame consumed, nothing to send (StartAudit, ignored replies).
    Silent,
    /// Polite end of connection (Bye).
    Close,
}

/// The protocol semantics, shared verbatim between the threaded path
/// ([`serve_mux_connection`]) and the reactor path
/// ([`MuxProverServer::spawn_reactor`]). Every lookup, every
/// session-table touch, every metric and every reply choice happens
/// here — which is what pins the two execution models to byte-identical
/// behaviour (the differential suite checks it).
pub(crate) struct MuxService {
    store: SegmentStore,
    dynamic: DynamicRegistry,
    sessions: SessionTable,
    /// Connections accepted; each accept takes the next id.
    pub(crate) connections: AtomicU64,
    challenges: AtomicU64,
}

impl MuxService {
    /// Whether `msg` incurs the per-request service delay before being
    /// handled (the simulated storage look-up: challenges do, control
    /// frames don't). The threaded path sleeps; the reactor parks the
    /// frame on a timer.
    pub(crate) fn delayed(&self, msg: &WireMessage) -> bool {
        matches!(
            msg,
            WireMessage::Challenge { .. } | WireMessage::DynChallenge { .. }
        )
    }

    /// A connection was accepted (metrics hook).
    pub(crate) fn on_open(&self) {
        mux_metrics().connections.inc();
    }

    /// Handles one inbound frame.
    pub(crate) fn handle(&self, conn_id: u64, msg: WireMessage) -> FrameOutcome {
        mux_metrics().frames.inc();
        match msg {
            WireMessage::StartAudit { file_id, k, .. } => {
                let known =
                    self.store.lock().contains_key(&file_id) || self.dynamic.contains(&file_id);
                let key = SessionKey {
                    connection: conn_id,
                    file_id,
                };
                self.sessions
                    .with_session(&key, known, |s| s.announced_k = Some(k));
                FrameOutcome::Silent
            }
            WireMessage::Challenge { file_id, index } => {
                let (known, segment) = {
                    let guard = self.store.lock();
                    let file = guard.get(&file_id);
                    (
                        file.is_some(),
                        file.and_then(|segs| segs.get(index as usize)).cloned(),
                    )
                };
                let key = SessionKey {
                    connection: conn_id,
                    file_id,
                };
                let hit = segment.is_some();
                self.sessions.with_session(&key, known, |s| {
                    s.challenges += 1;
                    if hit {
                        s.hits += 1;
                    }
                });
                self.challenges.fetch_add(1, Ordering::Relaxed);
                let m = mux_metrics();
                m.challenges.inc();
                if hit {
                    m.hits.inc();
                }
                FrameOutcome::Reply(WireMessage::Response { segment })
            }
            WireMessage::DynChallenge { file_id, index } => {
                let known = self.dynamic.contains(&file_id);
                let served = self.dynamic.challenge(&file_id, index);
                let key = SessionKey {
                    connection: conn_id,
                    file_id,
                };
                let hit = served.is_some();
                self.sessions.with_session(&key, known, |s| {
                    s.challenges += 1;
                    if hit {
                        s.hits += 1;
                    }
                });
                self.challenges.fetch_add(1, Ordering::Relaxed);
                let m = mux_metrics();
                m.challenges.inc();
                if hit {
                    m.hits.inc();
                }
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

    /// A connection ended (for whatever reason); release its state.
    pub(crate) fn on_close(&self, conn_id: u64) {
        self.sessions.evict_connection(conn_id);
    }
}

/// How long the threaded accept loop parks between accept attempts.
/// Short, because nothing signals the condvar when a connection arrives
/// — only shutdown does.
const ACCEPT_PARK: Duration = Duration::from_millis(2);

/// Shutdown-interruptible park for the threaded accept loop.
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

/// The multi-connection, session-multiplexing prover server.
pub struct MuxProverServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    service: Arc<MuxService>,
    /// Threaded path: wakes the parked accept loop at shutdown.
    park: Option<Arc<AcceptPark>>,
    /// Reactor path: interrupts the event loop's poll at shutdown.
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
    fn bind(store: SegmentStore) -> std::io::Result<(TcpListener, MuxProverServer)> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let server = MuxProverServer {
            addr: listener.local_addr()?,
            stop: Arc::new(AtomicBool::new(false)),
            accept_handle: None,
            conn_handles: Arc::new(Mutex::new(Vec::new())),
            service: Arc::new(MuxService {
                store,
                dynamic: DynamicRegistry::new(),
                sessions: SessionTable::default(),
                connections: AtomicU64::new(0),
                challenges: AtomicU64::new(0),
            }),
            park: None,
            waker: None,
        };
        Ok((listener, server))
    }

    /// Binds to an ephemeral localhost port and starts accepting on the
    /// threaded model: one thread per connection, blocking reads.
    ///
    /// `service_delay` is added per challenge, emulating storage latency
    /// so wall-clock experiments can contrast disk classes.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn spawn(store: SegmentStore, service_delay: Duration) -> std::io::Result<MuxProverServer> {
        let (listener, mut server) = Self::bind(store)?;
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
                        let conn_id = accept_service.connections.fetch_add(1, Ordering::Relaxed);
                        accept_service.on_open();
                        let stop = accept_stop.clone();
                        let service = accept_service.clone();
                        let handle = std::thread::spawn(move || {
                            let _ = serve_mux_connection(
                                stream,
                                conn_id,
                                &service,
                                service_delay,
                                stop,
                            );
                            service.on_close(conn_id);
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

    /// Event-driven variant of [`MuxProverServer::spawn`]: same
    /// protocol, same session table, same statistics — the frame
    /// handling is literally the same code (`MuxService`) — but
    /// connections are non-blocking state machines on one epoll reactor
    /// thread instead of a thread each, so tens of thousands of
    /// concurrent audits fit in O(connections) heap. Service delay runs
    /// on reactor timers.
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
        let (listener, mut server) = Self::bind(store)?;
        let (waker, handle) = crate::reactor_serve::spawn_reactor_loop(
            listener,
            server.service.clone(),
            service_delay,
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
    /// Reading stats also reaps finished connection threads on the
    /// threaded path: a burst of connections followed by silence used
    /// to hoard one `JoinHandle` per past connection until the *next*
    /// accept; any observer now releases them.
    pub fn stats(&self) -> MuxStats {
        reap_finished(&self.conn_handles);
        let s = &self.service;
        MuxStats {
            connections: s.connections.load(Ordering::Relaxed),
            sessions: s.sessions.opened.load(Ordering::Relaxed),
            challenges: s.challenges.load(Ordering::Relaxed),
            hits: s.sessions.total_hits(),
            sessions_complete: s.sessions.retired_complete.load(Ordering::Relaxed),
            sessions_incomplete: s.sessions.retired_incomplete.load(Ordering::Relaxed),
        }
    }

    /// Per-session statistics for **live** connections, sorted by
    /// `(connection, file_id)`. A connection's sessions are evicted when
    /// it closes (their totals stay in [`MuxProverServer::stats`]), so
    /// this stays bounded by current concurrency, not server lifetime.
    pub fn sessions(&self) -> Vec<(SessionKey, SessionStats)> {
        self.service.sessions.snapshot()
    }

    /// Stops accepting, then joins the accept loop **and every
    /// connection thread** (connections notice the stop flag at their
    /// next idle poll; in-flight responses complete first). On the
    /// reactor path the waker interrupts the event loop's poll
    /// immediately, which drops every connection state machine.
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

fn serve_mux_connection(
    stream: TcpStream,
    conn_id: u64,
    service: &MuxService,
    service_delay: Duration,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = stream;
    let mut frames = IdleFrameReader::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        // Blocking reads: a short read's `Idle` is just one more turn.
        let msg = match frames.poll_et(&mut reader, &stop, &mut false) {
            Ok(Polled::Frame(m)) => m,
            Ok(Polled::Idle) => continue,
            Ok(Polled::Closed) | Err(_) => return Ok(()),
        };
        if !service_delay.is_zero() && service.delayed(&msg) {
            std::thread::sleep(service_delay);
        }
        match service.handle(conn_id, msg) {
            FrameOutcome::Reply(reply) => write_frame(&mut writer, &reply)?,
            FrameOutcome::Silent => {}
            FrameOutcome::Close => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpChallenger;
    use std::collections::HashMap;

    fn store_with(files: &[(&str, usize)]) -> SegmentStore {
        let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
        for &(fid, n) in files {
            store.lock().insert(
                fid.to_owned(),
                (0..n).map(|i| Bytes::from(vec![i as u8; 83])).collect(),
            );
        }
        store
    }

    #[test]
    fn multiplexes_sessions_across_connections_and_files() {
        let server =
            MuxProverServer::spawn(store_with(&[("a", 8), ("b", 8)]), Duration::ZERO).unwrap();
        let addr = server.addr();
        // Keep all four connections open while inspecting live sessions.
        let clients: Vec<TcpChallenger> = (0..4)
            .map(|_| {
                let mut c = TcpChallenger::connect(addr).unwrap();
                // Interleave two files on one connection.
                for i in 0..8u64 {
                    let fid = if i % 2 == 0 { "a" } else { "b" };
                    let (seg, _) = c.challenge(fid, i % 8).unwrap();
                    assert!(seg.is_some());
                }
                c
            })
            .collect();
        let stats = server.stats();
        assert_eq!(stats.connections, 4);
        assert_eq!(stats.sessions, 8); // 4 connections × 2 files
        assert_eq!(stats.challenges, 32);
        let per_session = server.sessions();
        assert_eq!(per_session.len(), 8);
        assert!(per_session.iter().all(|(_, s)| s.challenges == 4));
        assert!(per_session.iter().all(|(_, s)| s.hits == 4));
        drop(clients);
        // Closed connections release their per-session state (aggregate
        // totals survive) — a long-running server stays bounded.
        for _ in 0..100 {
            if server.sessions().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(server.sessions().is_empty());
        assert_eq!(server.stats().challenges, 32);
        assert_eq!(server.stats().sessions, 8);
    }

    #[test]
    fn stats_stay_monotone_across_reconnects() {
        // Regression: evicting a closed connection's sessions used to
        // discard their SessionStats outright, so a fleet of short-lived
        // audit connections left `hits` (and any session classification)
        // permanently undercounted. Closes now fold into retirement
        // totals first.
        let server = MuxProverServer::spawn(store_with(&[("f", 4)]), Duration::ZERO).unwrap();
        let addr = server.addr();
        let mut last = MuxStats::default();
        for round in 0..3u64 {
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            write_frame(
                &mut raw,
                &WireMessage::StartAudit {
                    file_id: "f".to_owned(),
                    n_segments: 4,
                    k: 3,
                    nonce: [0u8; 32],
                },
            )
            .unwrap();
            for i in 0..3u64 {
                write_frame(
                    &mut raw,
                    &WireMessage::Challenge {
                        file_id: "f".to_owned(),
                        index: i,
                    },
                )
                .unwrap();
                let reply = crate::codec::read_frame(&mut raw).unwrap();
                assert!(matches!(reply, WireMessage::Response { segment: Some(_) }));
            }
            write_frame(&mut raw, &WireMessage::Bye).unwrap();
            drop(raw);
            // Wait for the closed connection's session to retire.
            for _ in 0..200 {
                if server.stats().sessions_complete == round + 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            let stats = server.stats();
            assert_eq!(stats.hits, (round + 1) * 3, "hits lost at connection close");
            assert_eq!(stats.sessions_complete, round + 1);
            assert_eq!(stats.sessions_incomplete, 0);
            assert!(
                stats.connections >= last.connections
                    && stats.sessions >= last.sessions
                    && stats.challenges >= last.challenges
                    && stats.hits >= last.hits
                    && stats.sessions_complete >= last.sessions_complete
                    && stats.sessions_incomplete >= last.sessions_incomplete,
                "stats went backwards across a reconnect: {last:?} -> {stats:?}"
            );
            last = stats;
        }
        // A session that ends short of its announced k retires as
        // incomplete — its hits still fold in.
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        write_frame(
            &mut raw,
            &WireMessage::StartAudit {
                file_id: "f".to_owned(),
                n_segments: 4,
                k: 4,
                nonce: [0u8; 32],
            },
        )
        .unwrap();
        write_frame(
            &mut raw,
            &WireMessage::Challenge {
                file_id: "f".to_owned(),
                index: 0,
            },
        )
        .unwrap();
        let reply = crate::codec::read_frame(&mut raw).unwrap();
        assert!(matches!(reply, WireMessage::Response { segment: Some(_) }));
        write_frame(&mut raw, &WireMessage::Bye).unwrap();
        drop(raw);
        for _ in 0..200 {
            if server.stats().sessions_incomplete == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let stats = server.stats();
        assert_eq!(stats.sessions_incomplete, 1);
        assert_eq!(stats.sessions_complete, 3);
        assert_eq!(stats.hits, 10, "incomplete session's hits still fold in");
    }

    #[test]
    fn start_audit_announces_session() {
        let server = MuxProverServer::spawn(store_with(&[("f", 4)]), Duration::ZERO).unwrap();
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        write_frame(
            &mut raw,
            &WireMessage::StartAudit {
                file_id: "f".to_owned(),
                n_segments: 4,
                k: 3,
                nonce: [1u8; 32],
            },
        )
        .unwrap();
        // Wait for the (still-open) connection's session to register.
        for _ in 0..100 {
            if server.stats().sessions == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let sessions = server.sessions();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].1.announced_k, Some(3));
        write_frame(&mut raw, &WireMessage::Bye).unwrap();
    }

    #[test]
    fn shutdown_joins_all_connection_threads() {
        let mut server = MuxProverServer::spawn(store_with(&[("f", 4)]), Duration::ZERO).unwrap();
        let addr = server.addr();
        // Leave two idle connections open — shutdown must not hang on them.
        let c1 = TcpChallenger::connect(addr).unwrap();
        let c2 = TcpChallenger::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown();
        assert!(server.conn_handles.lock().is_empty());
        drop((c1, c2));
        // After shutdown no new connections are served: a connect may
        // still land in the listen backlog, but nothing accepts it, so a
        // challenge never gets an answer (bounded by a read timeout) —
        // any valid Response here would mean the accept loop survived.
        if let Ok(raw) = std::net::TcpStream::connect(addr) {
            raw.set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            let mut raw = raw;
            use std::io::Write;
            let _ = raw.write_all(
                &WireMessage::Challenge {
                    file_id: "f".to_owned(),
                    index: 0,
                }
                .encode(),
            );
            let reply = crate::codec::read_frame(&mut raw);
            assert!(
                reply.is_err(),
                "server answered a challenge after shutdown: {reply:?}"
            );
        }
        assert_eq!(server.stats().challenges, 0);
    }

    #[test]
    fn finished_connection_threads_are_reaped_without_a_next_accept() {
        // Regression: handles of finished connection threads were only
        // reaped inside the accept arm, so a burst of connections
        // followed by silence hoarded one JoinHandle per past
        // connection indefinitely. Reading stats must release them.
        let server = MuxProverServer::spawn(store_with(&[("f", 2)]), Duration::ZERO).unwrap();
        let addr = server.addr();
        for _ in 0..8 {
            let mut c = TcpChallenger::connect(addr).unwrap();
            let (seg, _) = c.challenge("f", 0).unwrap();
            assert!(seg.is_some());
            c.bye().unwrap();
        }
        // All eight connections have said Bye; wait for their threads to
        // finish (eviction of the last session is the finish line).
        for _ in 0..300 {
            if server.stats().sessions_complete + server.stats().sessions_incomplete == 8
                && server.sessions().is_empty()
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // No further accepts happen. A stats read — the operator's
        // natural touchpoint — must reap the finished handles.
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

    #[test]
    fn shutdown_is_not_held_hostage_by_a_slow_loris_client() {
        // Regression: a client dribbling bytes faster than the read
        // timeout (but never completing a frame) used to keep the
        // connection thread inside the frame reader's fill loop, so
        // shutdown joined forever. The stop flag is now checked between
        // reads.
        let mut server = MuxProverServer::spawn(store_with(&[("f", 4)]), Duration::ZERO).unwrap();
        let addr = server.addr();
        let dribbling = Arc::new(AtomicBool::new(true));
        let keep_going = dribbling.clone();
        let loris = std::thread::spawn(move || {
            use std::io::Write;
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            // A frame header promising far more bytes than we ever send.
            let _ = raw.write_all(&1000u32.to_be_bytes());
            while keep_going.load(Ordering::Relaxed) {
                if raw.write_all(&[0u8]).is_err() {
                    break;
                }
                let _ = raw.flush();
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        std::thread::sleep(Duration::from_millis(100)); // let it dribble
        let start = std::time::Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown hung on the dribbling connection"
        );
        dribbling.store(false, Ordering::Relaxed);
        loris.join().unwrap();
    }

    #[test]
    fn missing_files_are_answered_but_never_open_sessions() {
        // Regression: an unknown file id used to allocate a session-table
        // entry per challenge — one hostile connection could grow the
        // table without bound. The challenge is still answered (None);
        // only the bookkeeping is refused.
        let server = MuxProverServer::spawn(store_with(&[("f", 2)]), Duration::ZERO).unwrap();
        let mut c = TcpChallenger::connect(server.addr()).unwrap();
        let (seg, _) = c.challenge("ghost", 0).unwrap();
        assert!(seg.is_none());
        let (seg, _) = c.challenge("f", 1).unwrap();
        assert!(seg.is_some());
        // An out-of-range index on a real file is a miss, not an error.
        let (seg, _) = c.challenge("f", 99).unwrap();
        assert!(seg.is_none());
        for _ in 0..100 {
            if server.stats().challenges == 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Inspect while the connection is still open (sessions are live
        // per-connection state): only the real file has a session.
        let sessions = server.sessions();
        assert!(sessions.iter().all(|(k, _)| k.file_id != "ghost"));
        let real = sessions.iter().find(|(k, _)| k.file_id == "f").unwrap();
        assert_eq!(real.1.challenges, 2);
        assert_eq!(real.1.hits, 1);
        assert_eq!(server.stats().sessions, 1);
        assert_eq!(server.stats().challenges, 3, "misses still count globally");
        c.bye().unwrap();
    }

    #[test]
    fn hostile_unique_file_id_spam_allocates_no_sessions() {
        // One connection, thousands of StartAudit + Challenge frames for
        // files that do not exist: the session table must stay empty.
        let server = MuxProverServer::spawn(store_with(&[("f", 2)]), Duration::ZERO).unwrap();
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        for i in 0..500u32 {
            write_frame(
                &mut raw,
                &WireMessage::StartAudit {
                    file_id: format!("ghost-{i}"),
                    n_segments: 1,
                    k: 1,
                    nonce: [0u8; 32],
                },
            )
            .unwrap();
        }
        for i in 0..100u64 {
            write_frame(
                &mut raw,
                &WireMessage::Challenge {
                    file_id: format!("phantom-{i}"),
                    index: 0,
                },
            )
            .unwrap();
            let reply = crate::codec::read_frame(&mut raw).unwrap();
            assert_eq!(reply, WireMessage::Response { segment: None });
        }
        // The challenges round-tripped, so all prior frames are processed.
        assert_eq!(server.stats().sessions, 0, "hostile spam opened sessions");
        assert!(server.sessions().is_empty());
        write_frame(&mut raw, &WireMessage::Bye).unwrap();
    }

    #[test]
    fn per_connection_session_count_is_capped() {
        // Even over *real* files, one connection cannot hold more than
        // MAX_SESSIONS_PER_CONNECTION live sessions; the overflow is
        // still served, just not tracked.
        let files: Vec<String> = (0..MAX_SESSIONS_PER_CONNECTION + 16)
            .map(|i| format!("file-{i:03}"))
            .collect();
        let named: Vec<(&str, usize)> = files.iter().map(|f| (f.as_str(), 1)).collect();
        let server = MuxProverServer::spawn(store_with(&named), Duration::ZERO).unwrap();
        let mut c = TcpChallenger::connect(server.addr()).unwrap();
        for f in &files {
            let (seg, _) = c.challenge(f, 0).unwrap();
            assert!(seg.is_some(), "{f} must still be served past the cap");
        }
        assert_eq!(server.stats().sessions, MAX_SESSIONS_PER_CONNECTION);
        assert_eq!(
            server.sessions().len() as u64,
            MAX_SESSIONS_PER_CONNECTION,
            "live sessions must be capped per connection"
        );
        // A second connection gets its own budget.
        let mut c2 = TcpChallenger::connect(server.addr()).unwrap();
        let (seg, _) = c2.challenge(&files[0], 0).unwrap();
        assert!(seg.is_some());
        for _ in 0..100 {
            if server.stats().sessions == MAX_SESSIONS_PER_CONNECTION + 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.stats().sessions, MAX_SESSIONS_PER_CONNECTION + 1);
        c.bye().unwrap();
        c2.bye().unwrap();
    }

    #[test]
    fn dynamic_flow_over_tcp_challenge_update_append() {
        use geoproof_por::dynamic::{tag_segment, verify_challenge, DynamicOwner, ProvenSegment};
        use geoproof_por::keys::PorKeys;

        let keys = PorKeys::derive(b"mux-dyn", "d");
        let tagged: Vec<Bytes> = (0..6u64)
            .map(|i| Bytes::from(tag_segment(&keys, "d", i, &[i as u8; 30])))
            .collect();
        let server = MuxProverServer::spawn(store_with(&[]), Duration::ZERO).unwrap();
        let d0 = server.put_dynamic("d", tagged.clone());
        let mut owner = DynamicOwner::from_tagged("d", &tagged);
        assert_eq!(owner.digest(), d0);

        let mut c = TcpChallenger::connect(server.addr()).unwrap();
        // Challenge with proof.
        let (served, _) = c.dyn_challenge("d", 2).unwrap();
        let (segment, proof) = served.expect("segment present");
        let proven = ProvenSegment { segment, proof };
        assert!(verify_challenge(&d0, "d", 2, &proven, &keys));
        // Unknown file/index come back clean.
        assert!(c.dyn_challenge("ghost", 0).unwrap().0.is_none());
        assert!(c.dyn_challenge("d", 6).unwrap().0.is_none());

        // Update over the wire: the server lands exactly on the owner's
        // independently derived digest.
        let (new_tagged, expected) = owner.tag_update(2, b"fresh", &keys).unwrap();
        let ack = c
            .update("d", 2, Bytes::from(new_tagged), [0u8; 64])
            .unwrap();
        assert_eq!(ack, Some(expected));
        // Append likewise.
        let (appended, expected) = owner.tag_append(b"seventh", &keys);
        let ack = c.append("d", Bytes::from(appended), [0u8; 64]).unwrap();
        assert_eq!(ack, Some(expected));
        assert_eq!(expected.segments, 7);
        // The new segment serves and verifies under the new digest.
        let (served, _) = c.dyn_challenge("d", 6).unwrap();
        let (segment, proof) = served.expect("appended segment");
        let proven = ProvenSegment { segment, proof };
        assert!(verify_challenge(&expected, "d", 6, &proven, &keys));
        // Updates against unknown files ack None.
        assert!(c
            .update("ghost", 0, Bytes::new(), [0u8; 64])
            .unwrap()
            .is_none());
        assert!(c
            .append("ghost", Bytes::new(), [0u8; 64])
            .unwrap()
            .is_none());
        c.bye().unwrap();
    }

    #[test]
    fn owner_keyed_dynamic_files_refuse_forged_mutations_over_tcp() {
        use geoproof_crypto::chacha::ChaChaRng;
        use geoproof_crypto::schnorr::SigningKey;
        use geoproof_por::dynamic::{owner_authorization, tag_segment, DynamicOwner};
        use geoproof_por::keys::PorKeys;

        let keys = PorKeys::derive(b"mux-auth", "d");
        let tagged: Vec<Bytes> = (0..4u64)
            .map(|i| Bytes::from(tag_segment(&keys, "d", i, &[i as u8; 30])))
            .collect();
        let owner_key = SigningKey::generate(&mut ChaChaRng::from_u64_seed(77));
        let server = MuxProverServer::spawn(store_with(&[]), Duration::ZERO).unwrap();
        let d0 = server.put_dynamic_with_owner("d", tagged.clone(), owner_key.verifying_key());
        let mut owner = DynamicOwner::from_tagged("d", &tagged);

        let mut c = TcpChallenger::connect(server.addr()).unwrap();
        let (new_tagged, expected) = owner.tag_update(1, b"v2", &keys).unwrap();
        let new_tagged = Bytes::from(new_tagged);
        // Unsigned and mallory-signed mutations are refused; the store
        // is untouched.
        assert!(c
            .update("d", 1, new_tagged.clone(), [0u8; 64])
            .unwrap()
            .is_none());
        let mallory = SigningKey::generate(&mut ChaChaRng::from_u64_seed(78));
        let forged = mallory
            .sign(
                &owner_authorization("d", false, 1, &new_tagged),
                &mut ChaChaRng::from_u64_seed(79),
            )
            .to_bytes();
        assert!(c
            .update("d", 1, new_tagged.clone(), forged)
            .unwrap()
            .is_none());
        assert_eq!(server.dynamic().digest("d"), Some(d0));
        // The owner's genuine signature lands on the expected digest.
        let good = owner_key
            .sign(
                &owner_authorization("d", false, 1, &new_tagged),
                &mut ChaChaRng::from_u64_seed(80),
            )
            .to_bytes();
        let ack = c.update("d", 1, new_tagged, good).unwrap();
        assert_eq!(ack, Some(expected));
        c.bye().unwrap();
    }
}
