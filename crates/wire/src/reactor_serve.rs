//! The epoll shell: every connection's machine (`conn::Conn`) on one
//! event-loop thread, so concurrency is bounded by file descriptors and
//! heap, not stacks.
//!
//! The shell owns only what a socket needs: accept, epoll tokens,
//! edge-triggered reads, write interest and wheel timers. Frames,
//! replies, delay parking, Bye-then-flush and the write-backlog cap are
//! the machine's. One readiness edge drives the machine until it needs
//! something the socket cannot give now. A read shorter than
//! [`READ_CHUNK`] proves the kernel buffer is drained, so the shell
//! skips the trailing `EAGAIN` read a drain-to-`WouldBlock` loop would
//! pay; bytes landing later raise a fresh edge. Write interest is
//! registered only while replies are queued.

use crate::conn::{Conn, Step, READ_CHUNK};
use crate::mux::MuxService;
use geoproof_reactor::{Events, Interest, Reactor, Token, Waker};
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cached reactor telemetry (`geoproof_obs` idiom: register once, cache
/// the `Arc` handles, record lock-free).
struct ReactorMetrics {
    polls: Arc<geoproof_obs::Counter>,
    io_events: Arc<geoproof_obs::Counter>,
    timers: Arc<geoproof_obs::Counter>,
    connections: Arc<geoproof_obs::Gauge>,
}

fn reactor_metrics() -> &'static ReactorMetrics {
    static METRICS: std::sync::OnceLock<ReactorMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| ReactorMetrics {
        polls: geoproof_obs::counter("reactor_polls_total"),
        io_events: geoproof_obs::counter("reactor_io_events_total"),
        timers: geoproof_obs::counter("reactor_timers_fired_total"),
        connections: geoproof_obs::gauge("reactor_connections"),
    })
}

const LISTENER: Token = Token(0);

/// Connection ids map to tokens with a +1 offset so the listener keeps
/// token 0.
fn conn_token(conn_id: u64) -> Token {
    Token(conn_id + 1)
}

/// One accepted socket and the machine it feeds.
struct Socket {
    stream: TcpStream,
    conn: Conn,
    /// Write interest currently registered.
    want_write: bool,
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
    stop: Arc<AtomicBool>,
) -> std::io::Result<(Waker, std::thread::JoinHandle<()>)> {
    listener.set_nonblocking(true)?;
    let mut reactor = Reactor::new()?;
    reactor.register(&listener, LISTENER, Interest::READABLE.edge_triggered())?;
    let waker = reactor.waker();

    let handle = std::thread::Builder::new()
        .name("geoproof-reactor".into())
        .spawn(move || {
            let mut conns: HashMap<u64, Socket> = HashMap::new();
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
                    let Some(sock) = conns.get_mut(&id) else {
                        continue;
                    };
                    if ev.error || !drive(sock, &mut reactor, ev.readable, &stop) {
                        drop_conn(&mut conns, id, &mut reactor);
                    }
                }
                for i in 0..events.timers().len() {
                    // A parked frame's service delay has elapsed: hand
                    // it on, then read what queued behind it.
                    let id = events.timers()[i].0 - 1;
                    let Some(sock) = conns.get_mut(&id) else {
                        continue;
                    };
                    sock.conn.fire();
                    if !drive(sock, &mut reactor, true, &stop) {
                        drop_conn(&mut conns, id, &mut reactor);
                    }
                }
            }
            // Shutdown: every remaining connection releases its state.
            let ids: Vec<u64> = conns.keys().copied().collect();
            for id in ids {
                drop_conn(&mut conns, id, &mut reactor);
            }
        })?;
    Ok((waker, handle))
}

fn accept_all(
    listener: &TcpListener,
    reactor: &mut Reactor,
    conns: &mut HashMap<u64, Socket>,
    service: &Arc<MuxService>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let conn = Conn::new(service.clone());
                let id = conn.id();
                if reactor
                    .register(&stream, conn_token(id), Interest::READABLE.edge_triggered())
                    .is_err()
                {
                    continue;
                }
                if geoproof_obs::enabled() {
                    reactor_metrics().connections.inc();
                }
                conns.insert(
                    id,
                    Socket {
                        stream,
                        conn,
                        want_write: false,
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

/// Drives one connection's machine after an event: writes what is
/// queued, then steps until the machine needs a read the socket cannot
/// give now (`can_read` false: no read edge, a short read, or
/// `EAGAIN`), a timer, or writability. `false` means drop it.
fn drive(sock: &mut Socket, reactor: &mut Reactor, mut can_read: bool, stop: &AtomicBool) -> bool {
    let token = conn_token(sock.conn.id());
    if sock.conn.write_to(&mut sock.stream).is_err() {
        return false;
    }
    loop {
        match sock.conn.step() {
            Step::Read if can_read && !stop.load(Ordering::Relaxed) => {
                match sock.conn.read_from(&mut sock.stream) {
                    Ok(0) => return false,
                    Ok(n) => can_read = n == READ_CHUNK,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => can_read = false,
                    Err(_) => return false,
                }
            }
            Step::Write => {
                if sock.conn.write_to(&mut sock.stream).is_err() {
                    return false;
                }
            }
            Step::Park(delay) => {
                // The timer reuses the connection token: timers and I/O
                // events travel in separate lanes.
                reactor.set_timer(token, reactor.now_ns() + delay.as_nanos() as u64);
                break;
            }
            Step::Read | Step::Wait => break,
            Step::Close => return false,
        }
    }
    let want_write = sock.conn.has_output();
    if want_write != sock.want_write {
        let interest = if want_write {
            Interest::BOTH
        } else {
            Interest::READABLE
        };
        if reactor
            .reregister(&sock.stream, token, interest.edge_triggered())
            .is_ok()
        {
            sock.want_write = want_write;
        }
    }
    true
}

fn drop_conn(conns: &mut HashMap<u64, Socket>, id: u64, reactor: &mut Reactor) {
    if let Some(sock) = conns.remove(&id) {
        reactor.cancel_timer(conn_token(id));
        let _ = reactor.deregister(&sock.stream);
        if geoproof_obs::enabled() {
            reactor_metrics().connections.dec();
        }
    }
}
