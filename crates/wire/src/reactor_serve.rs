//! Event-driven serving core: connection state machines on the epoll
//! reactor.
//!
//! The threaded model in [`crate::mux`] spends one OS thread per
//! connection; this module serves the same protocol from **one**
//! event-loop thread, so concurrency is bounded by file descriptors and
//! heap, not stacks. Every frame goes through the same
//! [`MuxService`] methods the threaded loop calls, which is what makes
//! the differential suite's "replies byte-identical" guarantee hold by
//! construction rather than by parallel maintenance.
//!
//! ## Connection state machine
//!
//! Each accepted socket becomes a [`Conn`]:
//!
//! ```text
//!             readable (edge)               complete frame
//!   Reading ────────────────▶ pump: IdleFrameReader ──────────┐
//!      ▲                                                      ▼
//!      │   timer fires                              delayed frame?
//!   Delayed ◀──────────────────────────────────────────── yes │ no
//!      │         (service-delay timer parks the frame;        ▼
//!      │          reading pauses — ordering matches the   dispatch →
//!      │          threaded path's blocking sleep)         write queue
//!      ▼                                                      │
//!   Writing ◀─────────────────────────────────────────────────┘
//!      │  queue drained → back to read-only interest
//!      ▼
//!   Closing (Bye / EOF / error / backlog overflow) → evict sessions
//! ```
//!
//! Reads are edge-triggered: the pump drains the socket until a short
//! read proves the kernel buffer is empty (skipping the final `EAGAIN`
//! syscall a drain-to-`WouldBlock` loop would pay) or parks on a delay
//! timer, in which case the buffered bytes wait with it. Writes queue
//! refcounted frame parts ([`bytes::Bytes`] from
//! `encode_parts`, so segment payloads are never copied) and register
//! write interest only while the queue is non-empty. A connection whose
//! backlog exceeds [`MAX_WRITE_BACKLOG`] is dropped — that peer is not
//! reading its responses, which is either a stall or a hostile sink.

use crate::codec::WireMessage;
use crate::mux::{FrameOutcome, MuxService};
use crate::tcp::{IdleFrameReader, Polled};
use bytes::Bytes;
use geoproof_reactor::{Events, Interest, Reactor, Token, Waker};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-connection cap on queued-but-unsent response bytes. An honest
/// auditor reads every response before sending many more challenges, so
/// its backlog stays near one frame; a peer that pipelines challenges
/// while never reading grows the queue without bound and gets cut off.
pub(crate) const MAX_WRITE_BACKLOG: usize = 1 << 20;

/// Cached reactor telemetry (`geoproof_obs` idiom: register once, cache
/// the `Arc` handles, record lock-free).
struct ReactorMetrics {
    polls: Arc<geoproof_obs::Counter>,
    io_events: Arc<geoproof_obs::Counter>,
    timers: Arc<geoproof_obs::Counter>,
    connections: Arc<geoproof_obs::Gauge>,
    backlog_drops: Arc<geoproof_obs::Counter>,
}

fn reactor_metrics() -> &'static ReactorMetrics {
    static METRICS: std::sync::OnceLock<ReactorMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| ReactorMetrics {
        polls: geoproof_obs::counter("reactor_polls_total"),
        io_events: geoproof_obs::counter("reactor_io_events_total"),
        timers: geoproof_obs::counter("reactor_timers_fired_total"),
        connections: geoproof_obs::gauge("reactor_connections"),
        backlog_drops: geoproof_obs::counter("reactor_conns_dropped_total{reason=\"backlog\"}"),
    })
}

const LISTENER: Token = Token(0);

/// Connection ids map to tokens with a +1 offset so the listener keeps
/// token 0.
fn conn_token(conn_id: u64) -> Token {
    Token(conn_id + 1)
}

/// One connection's entire server-side state — heap-bounded and
/// threadless, which is what lets the reactor hold tens of thousands of
/// them (the threaded path pays a stack each).
struct Conn {
    stream: TcpStream,
    reader: IdleFrameReader,
    /// Queued response parts (refcounted; segment payloads alias the
    /// store) with the send offset into the front part.
    out: VecDeque<Bytes>,
    out_pos: usize,
    out_bytes: usize,
    /// A frame parked while its service-delay timer runs. Reading stays
    /// paused until it fires, so frame ordering matches the threaded
    /// path's blocking sleep exactly.
    parked: Option<WireMessage>,
    /// Write interest currently registered.
    want_write: bool,
    /// Bye seen: flush what's queued, then drop.
    closing: bool,
}

impl Conn {
    fn enqueue(&mut self, msg: &WireMessage) {
        let (head, tail) = msg.encode_parts();
        self.out_bytes += head.len();
        self.out.push_back(head.freeze());
        if let Some(tail) = tail {
            self.out_bytes += tail.len();
            self.out.push_back(tail);
        }
    }

    /// Writes as much of the queue as the socket will take.
    /// `Ok(true)` = fully drained, `Ok(false)` = blocked with leftovers.
    fn flush(&mut self) -> std::io::Result<bool> {
        while let Some(front) = self.out.front() {
            match self.stream.write(&front[self.out_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ))
                }
                Ok(n) => {
                    self.out_pos += n;
                    self.out_bytes -= n;
                    if self.out_pos == front.len() {
                        self.out.pop_front();
                        self.out_pos = 0;
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// Why a connection left the loop.
enum Fate {
    /// Still alive.
    Alive,
    /// Finished (EOF, Bye with empty queue, error, overflow) — remove.
    Gone,
}

/// Runs accept + serve for `listener` on a dedicated reactor thread.
///
/// Returns the waker (stored by the server handle: `shutdown` sets
/// `stop` then wakes, and the loop exits at its next dispatch point)
/// and the join handle. Connection ids come from the service's accept
/// counter (the one the server's stats read) and double as epoll tokens.
pub(crate) fn spawn_reactor_loop(
    listener: TcpListener,
    service: Arc<MuxService>,
    service_delay: Duration,
    stop: Arc<AtomicBool>,
) -> std::io::Result<(Waker, std::thread::JoinHandle<()>)> {
    listener.set_nonblocking(true)?;
    let mut reactor = Reactor::new()?;
    reactor.register(&listener, LISTENER, Interest::READABLE.edge_triggered())?;
    let waker = reactor.waker();

    let handle = std::thread::Builder::new()
        .name("geoproof-reactor".into())
        .spawn(move || {
            let mut conns: HashMap<u64, Conn> = HashMap::new();
            let mut events = Events::with_capacity(256);
            while !stop.load(Ordering::Relaxed) {
                // The 500 ms cap is a liveness backstop only — shutdown
                // wakes the poll immediately via the waker.
                if reactor.poll(&mut events, Some(500)).is_err() {
                    break;
                }
                if geoproof_obs::enabled() {
                    let m = reactor_metrics();
                    m.polls.inc();
                    m.io_events.add(events.io().len() as u64);
                    m.timers.add(events.timers().len() as u64);
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                for i in 0..events.io().len() {
                    let ev = events.io()[i];
                    if ev.token == LISTENER {
                        accept_all(&listener, &mut reactor, &mut conns, &service);
                        continue;
                    }
                    let id = ev.token.0 - 1;
                    let Some(conn) = conns.get_mut(&id) else {
                        continue;
                    };
                    let mut fate = Fate::Alive;
                    if ev.error {
                        fate = Fate::Gone;
                    }
                    if matches!(fate, Fate::Alive) && ev.writable {
                        fate = on_writable(conn, &mut reactor, id);
                    }
                    if matches!(fate, Fate::Alive) && ev.readable && !conn.closing {
                        fate = pump(conn, id, &mut reactor, &service, service_delay, &stop);
                    }
                    if matches!(fate, Fate::Gone) {
                        drop_conn(&mut conns, id, &mut reactor, &service);
                    }
                }
                for i in 0..events.timers().len() {
                    let token = events.timers()[i];
                    let id = token.0 - 1;
                    let Some(conn) = conns.get_mut(&id) else {
                        continue;
                    };
                    // The parked frame's service delay has elapsed:
                    // dispatch it, then resume pumping buffered frames.
                    let mut fate = Fate::Alive;
                    if let Some(msg) = conn.parked.take() {
                        fate = dispatch(conn, id, msg, &service, &mut reactor);
                    }
                    if matches!(fate, Fate::Alive) && !conn.closing {
                        fate = pump(conn, id, &mut reactor, &service, service_delay, &stop);
                    }
                    if matches!(fate, Fate::Gone) {
                        drop_conn(&mut conns, id, &mut reactor, &service);
                    }
                }
            }
            // Shutdown: every remaining connection releases its state.
            let ids: Vec<u64> = conns.keys().copied().collect();
            for id in ids {
                drop_conn(&mut conns, id, &mut reactor, &service);
            }
        })?;
    Ok((waker, handle))
}

fn accept_all(
    listener: &TcpListener,
    reactor: &mut Reactor,
    conns: &mut HashMap<u64, Conn>,
    service: &MuxService,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let conn_id = service.connections.fetch_add(1, Ordering::Relaxed);
                if reactor
                    .register(
                        &stream,
                        conn_token(conn_id),
                        Interest::READABLE.edge_triggered(),
                    )
                    .is_err()
                {
                    continue;
                }
                service.on_open();
                if geoproof_obs::enabled() {
                    reactor_metrics().connections.inc();
                }
                conns.insert(
                    conn_id,
                    Conn {
                        stream,
                        reader: IdleFrameReader::new(),
                        out: VecDeque::new(),
                        out_pos: 0,
                        out_bytes: 0,
                        parked: None,
                        want_write: false,
                        closing: false,
                    },
                );
            }
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                return
            }
            // Transient per-socket accept failures (ECONNABORTED and
            // friends) skip that socket; the listener stays armed.
            Err(_) => return,
        }
    }
}

/// Drains inbound frames until `WouldBlock`, a parked delay, or death.
fn pump(
    conn: &mut Conn,
    id: u64,
    reactor: &mut Reactor,
    service: &MuxService,
    service_delay: Duration,
    stop: &AtomicBool,
) -> Fate {
    // One readiness edge = one pump. A short socket read proves the
    // kernel buffer is drained *right now*, so the reader skips the
    // final EAGAIN read; data landing afterwards raises a fresh edge.
    let mut sock_drained = false;
    loop {
        if conn.parked.is_some() || stop.load(Ordering::Relaxed) {
            return Fate::Alive;
        }
        match conn
            .reader
            .poll_et(&mut conn.stream, stop, &mut sock_drained)
        {
            Ok(Polled::Frame(msg)) => {
                if !service_delay.is_zero() && service.delayed(&msg) {
                    // Park the frame and pause reading; the timer reuses
                    // the connection token (timers and I/O events travel
                    // in separate lanes, so there is no collision).
                    reactor.set_timer(
                        conn_token(id),
                        reactor.now_ns() + service_delay.as_nanos() as u64,
                    );
                    conn.parked = Some(msg);
                    return Fate::Alive;
                }
                match dispatch(conn, id, msg, service, reactor) {
                    Fate::Alive => {}
                    Fate::Gone => return Fate::Gone,
                }
            }
            Ok(Polled::Idle) => return Fate::Alive,
            Ok(Polled::Closed) | Err(_) => return Fate::Gone,
        }
    }
}

/// Hands one frame to the service and routes its outcome.
fn dispatch(
    conn: &mut Conn,
    id: u64,
    msg: WireMessage,
    service: &MuxService,
    reactor: &mut Reactor,
) -> Fate {
    match service.handle(id, msg) {
        FrameOutcome::Reply(reply) => {
            conn.enqueue(&reply);
            if conn.out_bytes > MAX_WRITE_BACKLOG {
                if geoproof_obs::enabled() {
                    reactor_metrics().backlog_drops.inc();
                }
                return Fate::Gone;
            }
            match conn.flush() {
                Ok(true) => {
                    set_write_interest(conn, reactor, id, false);
                    Fate::Alive
                }
                Ok(false) => {
                    set_write_interest(conn, reactor, id, true);
                    Fate::Alive
                }
                Err(_) => Fate::Gone,
            }
        }
        FrameOutcome::Silent => Fate::Alive,
        FrameOutcome::Close => {
            conn.closing = true;
            // Bye after the queue drained: drop now; otherwise linger
            // write-only until the flush completes.
            match conn.flush() {
                Ok(true) => Fate::Gone,
                Ok(false) => {
                    set_write_interest(conn, reactor, id, true);
                    Fate::Alive
                }
                Err(_) => Fate::Gone,
            }
        }
    }
}

fn on_writable(conn: &mut Conn, reactor: &mut Reactor, id: u64) -> Fate {
    match conn.flush() {
        Ok(true) => {
            if conn.closing {
                return Fate::Gone;
            }
            set_write_interest(conn, reactor, id, false);
            Fate::Alive
        }
        Ok(false) => Fate::Alive,
        Err(_) => Fate::Gone,
    }
}

fn set_write_interest(conn: &mut Conn, reactor: &mut Reactor, id: u64, on: bool) {
    if conn.want_write == on {
        return;
    }
    let interest = if on {
        Interest::BOTH.edge_triggered()
    } else {
        Interest::READABLE.edge_triggered()
    };
    if reactor
        .reregister(&conn.stream, conn_token(id), interest)
        .is_ok()
    {
        conn.want_write = on;
    }
}

fn drop_conn(conns: &mut HashMap<u64, Conn>, id: u64, reactor: &mut Reactor, service: &MuxService) {
    if let Some(conn) = conns.remove(&id) {
        reactor.cancel_timer(conn_token(id));
        let _ = reactor.deregister(&conn.stream);
        service.on_close(id);
        if geoproof_obs::enabled() {
            reactor_metrics().connections.dec();
        }
    }
}
