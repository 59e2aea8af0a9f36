//! Direct Linux syscalls for the reactor.
//!
//! The build environment has no crates.io, so there is no `libc` crate to
//! lean on; everything the reactor needs from the kernel — `epoll`,
//! `eventfd`, `prlimit64` — is invoked through the raw syscall
//! instruction, the same discipline as the workspace's other vendored
//! shims. Only the half-dozen calls the reactor actually uses are
//! wrapped, each returning `std::io::Error` on failure so callers stay in
//! ordinary `io::Result` land.
//!
//! File descriptors returned here are wrapped in [`std::os::fd::OwnedFd`]
//! immediately, so every acquisition site is leak-free by construction.
//!
//! On platforms other than Linux x86_64/aarch64 the module still
//! compiles, but every call reports [`std::io::ErrorKind::Unsupported`] —
//! the reactor is a Linux subsystem and the rest of the workspace gates
//! on these errors rather than on `cfg` soup.

use std::io;
use std::os::fd::{FromRawFd, OwnedFd, RawFd};

/// `epoll_ctl` op: register a new fd.
pub const EPOLL_CTL_ADD: i32 = 1;
/// `epoll_ctl` op: remove an fd.
pub const EPOLL_CTL_DEL: i32 = 2;
/// `epoll_ctl` op: change an fd's event mask.
pub const EPOLL_CTL_MOD: i32 = 3;

/// Readable readiness.
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, need not be requested).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported, need not be requested).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery.
pub const EPOLLET: u32 = 1 << 31;

/// One readiness event, ABI-compatible with the kernel's
/// `struct epoll_event`.
///
/// The kernel packs this struct on x86-64 (12 bytes) but pads it to 16
/// bytes on aarch64 — the `cfg_attr` mirrors `__EPOLL_PACKED` exactly.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Debug, Default)]
pub struct EpollEvent {
    /// Ready-event bitmask (`EPOLLIN` | ...).
    pub events: u32,
    /// The caller's registration token, returned verbatim.
    pub data: u64,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use std::arch::asm;

    pub const SYS_READ: usize = 0;
    pub const SYS_WRITE: usize = 1;
    pub const SYS_EPOLL_CTL: usize = 233;
    pub const SYS_EPOLL_PWAIT: usize = 281;
    pub const SYS_EVENTFD2: usize = 290;
    pub const SYS_EPOLL_CREATE1: usize = 291;
    pub const SYS_PRLIMIT64: usize = 302;

    /// Issues a raw 6-argument syscall; returns the kernel's raw result
    /// (negative errno on failure).
    ///
    /// # Safety
    ///
    /// The caller must uphold the invoked syscall's own contract (valid
    /// pointers/lengths for the given syscall number).
    pub unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
        ret
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod imp {
    use std::arch::asm;

    pub const SYS_READ: usize = 63;
    pub const SYS_WRITE: usize = 64;
    pub const SYS_EPOLL_CTL: usize = 21;
    pub const SYS_EPOLL_PWAIT: usize = 22;
    pub const SYS_EVENTFD2: usize = 19;
    pub const SYS_EPOLL_CREATE1: usize = 20;
    pub const SYS_PRLIMIT64: usize = 261;

    /// Issues a raw 6-argument syscall; returns the kernel's raw result
    /// (negative errno on failure).
    ///
    /// # Safety
    ///
    /// The caller must uphold the invoked syscall's own contract (valid
    /// pointers/lengths for the given syscall number).
    pub unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        asm!(
            "svc 0",
            inlateout("x0") a1 as isize => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            in("x8") n,
            options(nostack),
        );
        ret
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    pub const SYS_READ: usize = 0;
    pub const SYS_WRITE: usize = 0;
    pub const SYS_EPOLL_CTL: usize = 0;
    pub const SYS_EPOLL_PWAIT: usize = 0;
    pub const SYS_EVENTFD2: usize = 0;
    pub const SYS_EPOLL_CREATE1: usize = 0;
    pub const SYS_PRLIMIT64: usize = 0;

    /// Stub for unsupported targets: always `-ENOSYS`.
    ///
    /// # Safety
    ///
    /// Trivially safe — the stub touches nothing.
    pub unsafe fn syscall6(
        _n: usize,
        _a1: usize,
        _a2: usize,
        _a3: usize,
        _a4: usize,
        _a5: usize,
        _a6: usize,
    ) -> isize {
        -38 // ENOSYS
    }
}

/// Whether this target has a working syscall backend (the unit tests
/// skip themselves where it has none).
#[cfg(test)]
const fn supported() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

/// Converts a raw syscall result into `io::Result<usize>`.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        let errno = (-ret) as i32;
        if errno == 38 {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "reactor syscalls unavailable on this target",
            ));
        }
        Err(io::Error::from_raw_os_error(errno))
    } else {
        Ok(ret as usize)
    }
}

const O_CLOEXEC: usize = 0o2000000;
const O_NONBLOCK: usize = 0o4000;

/// Creates an epoll instance (`EPOLL_CLOEXEC`).
pub fn epoll_create1() -> io::Result<OwnedFd> {
    let fd = check(unsafe { imp::syscall6(imp::SYS_EPOLL_CREATE1, O_CLOEXEC, 0, 0, 0, 0, 0) })?;
    // SAFETY: the kernel just handed us ownership of this descriptor.
    Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
}

/// Registers, modifies or removes `fd` on `epfd`.
pub fn epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let ev = EpollEvent {
        events,
        data: token,
    };
    // DEL ignores the event argument but old kernels demand a non-null
    // pointer; passing `&ev` is harmless in every case.
    check(unsafe {
        imp::syscall6(
            imp::SYS_EPOLL_CTL,
            epfd as usize,
            op as usize,
            fd as usize,
            &ev as *const _ as usize,
            0,
            0,
        )
    })
    .map(|_| ())
}

/// Waits for readiness events; `timeout_ms < 0` blocks indefinitely.
/// Returns the number of events written into `events`. `EINTR` is
/// surfaced as `Ok(0)` — the reactor just re-evaluates timers and polls
/// again.
pub fn epoll_wait(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    let ret = unsafe {
        imp::syscall6(
            imp::SYS_EPOLL_PWAIT,
            epfd as usize,
            events.as_mut_ptr() as usize,
            events.len(),
            timeout_ms as usize,
            0, // no sigmask
            8, // sigsetsize (ignored when sigmask is null, but be exact)
        )
    };
    if ret == -4 {
        return Ok(0); // EINTR
    }
    check(ret)
}

/// Creates a non-blocking eventfd (the reactor's wakeup channel).
pub fn eventfd() -> io::Result<OwnedFd> {
    let fd =
        check(unsafe { imp::syscall6(imp::SYS_EVENTFD2, 0, O_CLOEXEC | O_NONBLOCK, 0, 0, 0, 0) })?;
    // SAFETY: the kernel just handed us ownership of this descriptor.
    Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
}

/// Adds 1 to an eventfd counter (wakes any poller watching it).
pub fn eventfd_write(fd: RawFd) -> io::Result<()> {
    let one: u64 = 1;
    match check(unsafe {
        imp::syscall6(
            imp::SYS_WRITE,
            fd as usize,
            &one as *const _ as usize,
            8,
            0,
            0,
            0,
        )
    }) {
        Ok(_) => Ok(()),
        // Counter saturated: a wakeup is already pending, which is all
        // the caller wanted.
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
        Err(e) => Err(e),
    }
}

/// Drains an eventfd counter (clears pending wakeups). Idempotent.
pub fn eventfd_drain(fd: RawFd) -> io::Result<()> {
    let mut buf: u64 = 0;
    match check(unsafe {
        imp::syscall6(
            imp::SYS_READ,
            fd as usize,
            &mut buf as *mut _ as usize,
            8,
            0,
            0,
            0,
        )
    }) {
        Ok(_) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
        Err(e) => Err(e),
    }
}

#[repr(C)]
#[derive(Clone, Copy, Debug, Default)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: usize = 7;

/// Raises this process's soft open-file limit to its hard limit and
/// returns the resulting soft limit. High-fan-in callers (the 10k-idle-
/// connection test, the TCP soak bench) call this before opening their
/// socket flood; everyone else never needs it.
pub fn raise_nofile_limit() -> io::Result<u64> {
    let mut current = RLimit::default();
    check(unsafe {
        imp::syscall6(
            imp::SYS_PRLIMIT64,
            0, // self
            RLIMIT_NOFILE,
            0, // no new limit yet — read first
            &mut current as *mut _ as usize,
            0,
            0,
        )
    })?;
    if current.cur >= current.max {
        return Ok(current.cur);
    }
    let want = RLimit {
        cur: current.max,
        max: current.max,
    };
    check(unsafe {
        imp::syscall6(
            imp::SYS_PRLIMIT64,
            0,
            RLIMIT_NOFILE,
            &want as *const _ as usize,
            0,
            0,
            0,
        )
    })?;
    Ok(want.cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_event_abi_layout() {
        // x86-64 packs the struct to 12 bytes; aarch64 pads it to 16.
        if cfg!(target_arch = "x86_64") {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
        } else {
            assert!(std::mem::size_of::<EpollEvent>() >= 12);
        }
    }

    #[test]
    fn eventfd_write_then_drain_roundtrip() {
        if !supported() {
            eprintln!("SKIP: reactor syscalls unsupported on this target");
            return;
        }
        let efd = eventfd().expect("eventfd");
        eventfd_write(efd.as_raw_fd()).expect("write");
        eventfd_write(efd.as_raw_fd()).expect("second write");
        eventfd_drain(efd.as_raw_fd()).expect("drain");
        // Drained: another drain is a clean no-op (EAGAIN swallowed).
        eventfd_drain(efd.as_raw_fd()).expect("drain empty");
    }

    #[test]
    fn epoll_sees_eventfd_readability() {
        if !supported() {
            eprintln!("SKIP: reactor syscalls unsupported on this target");
            return;
        }
        let ep = epoll_create1().expect("epoll_create1");
        let efd = eventfd().expect("eventfd");
        epoll_ctl(ep.as_raw_fd(), EPOLL_CTL_ADD, efd.as_raw_fd(), EPOLLIN, 42).expect("ctl add");
        let mut events = [EpollEvent::default(); 4];
        // Nothing pending yet: a zero-timeout wait returns no events.
        assert_eq!(epoll_wait(ep.as_raw_fd(), &mut events, 0).unwrap(), 0);
        eventfd_write(efd.as_raw_fd()).expect("write");
        let n = epoll_wait(ep.as_raw_fd(), &mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        let (bits, data) = (events[0].events, events[0].data);
        assert_eq!(data, 42);
        assert_ne!(bits & EPOLLIN, 0);
        // Deregistration works and is final.
        epoll_ctl(ep.as_raw_fd(), EPOLL_CTL_DEL, efd.as_raw_fd(), 0, 0).expect("ctl del");
        assert_eq!(epoll_wait(ep.as_raw_fd(), &mut events, 0).unwrap(), 0);
    }

    #[test]
    fn nofile_limit_is_raisable_to_hard_cap() {
        if !supported() {
            eprintln!("SKIP: reactor syscalls unsupported on this target");
            return;
        }
        let lim = raise_nofile_limit().expect("prlimit64");
        assert!(lim >= 1024, "limit {lim} suspiciously low");
        // Idempotent.
        assert_eq!(raise_nofile_limit().expect("again"), lim);
    }
}
