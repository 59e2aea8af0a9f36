//! # geoproof-reactor — vendored epoll reactor
//!
//! The event-driven core under GeoProof's serving stack. crates.io is
//! unreachable in this workspace, so rather than `mio`/`tokio` this is
//! the minimal tenth the audit service actually needs, in the same
//! vendored-shim discipline as `shims/parking_lot` and `shims/bytes`:
//!
//! * **readiness polling** — one `epoll` instance; sources register
//!   with a caller-chosen [`Token`] and an [`Interest`] (readable /
//!   writable, level- or edge-triggered);
//! * **timers** — a hashed timer wheel ([`timer::TimerWheel`]) whose
//!   next deadline becomes the `epoll_wait` timeout, so one blocking
//!   call multiplexes I/O and time with no `timerfd` per timer;
//! * **cross-thread wakeup** — a cloneable [`Waker`] backed by an
//!   `eventfd`, so shutdown and external work can interrupt a blocked
//!   poll immediately (no sleep-loop latency).
//!
//! Everything reaches the kernel through direct syscalls ([`sys`]) —
//! there is no `libc` crate in the tree. On targets other than Linux
//! x86-64 and aarch64 the crate compiles but every operation returns
//! [`std::io::ErrorKind::Unsupported`]; the wire server passes that on,
//! and `geoproof serve` exits naming the requirement.
//!
//! ## Shape
//!
//! ```no_run
//! use geoproof_reactor::{Events, Interest, Reactor, Token};
//! use std::net::TcpListener;
//! # fn main() -> std::io::Result<()> {
//! let listener = TcpListener::bind("127.0.0.1:0")?;
//! listener.set_nonblocking(true)?;
//! let mut reactor = Reactor::new()?;
//! reactor.register(&listener, Token(0), Interest::READABLE)?;
//! reactor.set_timer(Token(1), reactor.now_ns() + 50_000_000); // 50 ms
//! let mut events = Events::with_capacity(64);
//! reactor.poll(&mut events, None)?;
//! for ev in events.io() { /* accept, read, write … */ }
//! for t in events.timers() { /* deadline work */ }
//! # Ok(())
//! # }
//! ```
//!
//! The reactor is single-threaded by design — one thread owns it and
//! runs the event loop; [`Waker`] handles are the only pieces that
//! cross threads.

pub mod sys;
pub mod timer;

use std::io;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Instant;

use timer::TimerWheel;

/// Re-exported so high-fan-in callers can lift their fd ceiling without
/// reaching into [`sys`].
pub use sys::raise_nofile_limit;

/// Caller-chosen identity for an event source or timer, returned
/// verbatim in every event. The serving layer uses small reserved
/// values for the listener/waker and `connection_id + offset` for
/// sockets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub u64);

/// What readiness to watch, and how.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Watch for readability (and peer hangup).
    pub readable: bool,
    /// Watch for writability.
    pub writable: bool,
    /// Edge-triggered: events fire on *transitions* only, so the owner
    /// must read/write to `WouldBlock` each time. Level-triggered (the
    /// default) re-reports while the condition holds.
    pub edge: bool,
}

impl Interest {
    /// Level-triggered readable.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
        edge: false,
    };
    /// Level-triggered writable.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
        edge: false,
    };
    /// Level-triggered readable + writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
        edge: false,
    };

    /// The same interest set, edge-triggered.
    pub fn edge_triggered(mut self) -> Interest {
        self.edge = true;
        self
    }

    fn mask(self) -> u32 {
        let mut m = sys::EPOLLRDHUP;
        if self.readable {
            m |= sys::EPOLLIN;
        }
        if self.writable {
            m |= sys::EPOLLOUT;
        }
        if self.edge {
            m |= sys::EPOLLET;
        }
        m
    }
}

/// One I/O readiness event.
#[derive(Clone, Copy, Debug)]
pub struct IoEvent {
    /// The token the source registered with.
    pub token: Token,
    /// Readable (or peer closed — reads will observe it).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup condition on the fd.
    pub error: bool,
}

/// Reusable event buffer filled by [`Reactor::poll`].
#[derive(Debug, Default)]
pub struct Events {
    io: Vec<IoEvent>,
    timers: Vec<Token>,
    raw: Vec<sys::EpollEvent>,
}

impl Events {
    /// A buffer that can carry up to `cap` I/O events per poll.
    pub fn with_capacity(cap: usize) -> Events {
        Events {
            io: Vec::with_capacity(cap),
            timers: Vec::new(),
            raw: vec![sys::EpollEvent::default(); cap.max(1)],
        }
    }

    /// I/O events from the last poll.
    pub fn io(&self) -> &[IoEvent] {
        &self.io
    }

    /// Timer tokens that came due during the last poll.
    pub fn timers(&self) -> &[Token] {
        &self.timers
    }

    /// Whether the last poll produced nothing (pure wakeup or timeout).
    pub fn is_empty(&self) -> bool {
        self.io.is_empty() && self.timers.is_empty()
    }
}

/// Wakes a blocked [`Reactor::poll`] from any thread. Cheap to clone;
/// safe to invoke after the reactor is dropped (the write just lands in
/// a closed-elsewhere eventfd clone held alive by this handle).
#[derive(Clone, Debug)]
pub struct Waker {
    fd: Arc<std::os::fd::OwnedFd>,
}

impl Waker {
    /// Interrupts the reactor's current (or next) poll. Coalesces:
    /// many wakes before a poll produce one wakeup.
    pub fn wake(&self) -> io::Result<()> {
        sys::eventfd_write(self.fd.as_raw_fd())
    }
}

/// Token reserved for the internal wakeup eventfd; never surfaced to
/// callers, so their tokens keep the full remaining range.
const WAKER_TOKEN: u64 = u64::MAX;

/// The event loop core: epoll instance + timer wheel + wakeup fd.
#[derive(Debug)]
pub struct Reactor {
    epoll: std::os::fd::OwnedFd,
    waker_fd: Arc<std::os::fd::OwnedFd>,
    wheel: TimerWheel,
    /// Monotonic origin for `now_ns`.
    origin: Instant,
    /// Set when the last poll consumed a waker event.
    woken: bool,
}

impl Reactor {
    /// Creates an epoll instance with its wakeup eventfd registered.
    /// Fails with [`io::ErrorKind::Unsupported`] off Linux.
    pub fn new() -> io::Result<Reactor> {
        let epoll = sys::epoll_create1()?;
        let waker_fd = sys::eventfd()?;
        sys::epoll_ctl(
            epoll.as_raw_fd(),
            sys::EPOLL_CTL_ADD,
            waker_fd.as_raw_fd(),
            sys::EPOLLIN,
            WAKER_TOKEN,
        )?;
        Ok(Reactor {
            epoll,
            waker_fd: Arc::new(waker_fd),
            wheel: TimerWheel::new(0),
            origin: Instant::now(),
            woken: false,
        })
    }

    /// Monotonic nanoseconds since this reactor was created — the clock
    /// its timers are armed against.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A handle other threads can use to interrupt [`Reactor::poll`].
    pub fn waker(&self) -> Waker {
        Waker {
            fd: Arc::clone(&self.waker_fd),
        }
    }

    /// Whether the last [`Reactor::poll`] was interrupted by a
    /// [`Waker::wake`]. Cleared at the start of each poll.
    pub fn woken(&self) -> bool {
        self.woken
    }

    /// Starts watching `source` under `token`.
    pub fn register<S: AsRawFd>(
        &self,
        source: &S,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        debug_assert_ne!(token.0, WAKER_TOKEN, "token u64::MAX is reserved");
        sys::epoll_ctl(
            self.epoll.as_raw_fd(),
            sys::EPOLL_CTL_ADD,
            source.as_raw_fd(),
            interest.mask(),
            token.0,
        )
    }

    /// Changes what `source` is watched for.
    pub fn reregister<S: AsRawFd>(
        &self,
        source: &S,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        sys::epoll_ctl(
            self.epoll.as_raw_fd(),
            sys::EPOLL_CTL_MOD,
            source.as_raw_fd(),
            interest.mask(),
            token.0,
        )
    }

    /// Stops watching `source`. (The kernel also auto-deregisters an fd
    /// on close, so dropping a socket without this call is safe — this
    /// exists for sources that outlive their interest.)
    pub fn deregister<S: AsRawFd>(&self, source: &S) -> io::Result<()> {
        sys::epoll_ctl(
            self.epoll.as_raw_fd(),
            sys::EPOLL_CTL_DEL,
            source.as_raw_fd(),
            0,
            0,
        )
    }

    /// Arms (or re-arms) the timer identified by `token` to fire at
    /// `deadline_ns` on this reactor's [`Reactor::now_ns`] clock.
    pub fn set_timer(&mut self, token: Token, deadline_ns: u64) {
        self.wheel.insert(token.0, deadline_ns);
    }

    /// Disarms a timer; returns whether it was pending.
    pub fn cancel_timer(&mut self, token: Token) -> bool {
        self.wheel.cancel(token.0)
    }

    /// Pending timer count (the 10k-idle test uses this to prove the
    /// reactor's state stays O(connections)).
    pub fn pending_timers(&self) -> usize {
        self.wheel.len()
    }

    /// Blocks until I/O readiness, a timer deadline, a [`Waker::wake`],
    /// or `max_wait_ms` elapses — whichever is soonest. Fills `events`
    /// with what happened; an empty fill is a plain timeout or wakeup.
    pub fn poll(&mut self, events: &mut Events, max_wait_ms: Option<u64>) -> io::Result<()> {
        events.io.clear();
        events.timers.clear();
        self.woken = false;

        let now = self.now_ns();
        // Nearest timer bounds the sleep; i32::MAX ms ≈ 24 days caps the
        // cast safely.
        let timer_ms = self.wheel.next_wakeup_ms(now);
        let wait = match (timer_ms, max_wait_ms) {
            (None, None) => -1i32,
            (Some(t), None) => t.min(i32::MAX as u64) as i32,
            (None, Some(m)) => m.min(i32::MAX as u64) as i32,
            (Some(t), Some(m)) => t.min(m).min(i32::MAX as u64) as i32,
        };

        let n = sys::epoll_wait(self.epoll.as_raw_fd(), &mut events.raw, wait)?;
        for raw in &events.raw[..n] {
            let (bits, data) = (raw.events, raw.data);
            if data == WAKER_TOKEN {
                sys::eventfd_drain(self.waker_fd.as_raw_fd())?;
                self.woken = true;
                continue;
            }
            events.io.push(IoEvent {
                token: Token(data),
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                error: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }

        for id in self.wheel.expire(self.now_ns()) {
            events.timers.push(Token(id));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interest_masks_compose() {
        assert_ne!(Interest::READABLE.mask() & sys::EPOLLIN, 0);
        assert_eq!(Interest::READABLE.mask() & sys::EPOLLOUT, 0);
        assert_ne!(Interest::WRITABLE.mask() & sys::EPOLLOUT, 0);
        let both = Interest::BOTH.edge_triggered().mask();
        assert_ne!(both & sys::EPOLLIN, 0);
        assert_ne!(both & sys::EPOLLOUT, 0);
        assert_ne!(both & sys::EPOLLET, 0);
        assert_eq!(Interest::BOTH.mask() & sys::EPOLLET, 0);
    }
}
