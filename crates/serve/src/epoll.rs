//! Readiness notification for the reactor: Linux `epoll(7)` and
//! `eventfd(2)`, declared against the C library std already links (the
//! build is offline and std-only, so there is no `libc` crate).
//!
//! Only what the reactor uses is wrapped: an epoll instance watching
//! sockets level-triggered, and a nonblocking eventfd another thread
//! writes to wake a worker blocked in [`Epoll::wait`].

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint};

/// Readable, or the peer closed its write half.
pub(crate) const READABLE: u32 = 0x001; // EPOLLIN
/// Writable.
pub(crate) const WRITABLE: u32 = 0x004; // EPOLLOUT

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;
const EFD_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;

/// `struct epoll_event`. The kernel packs it on x86-64 only; every
/// other architecture uses natural C alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub(crate) struct Event {
    events: u32,
    data: u64,
}

impl Event {
    const EMPTY: Self = Self { events: 0, data: 0 };

    /// The readiness bits the kernel reported (`EPOLLERR` and `EPOLLHUP`
    /// included).
    pub(crate) fn readiness(self) -> u32 {
        self.events
    }

    /// The token the watched descriptor was registered with.
    pub(crate) fn token(self) -> u64 {
        self.data
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut Event) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut Event, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

/// Turns a `-1`-on-error return into the `errno` error.
fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// A buffer of events for [`Epoll::wait`] to fill.
pub(crate) struct Events(Vec<Event>);

impl Events {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self(vec![Event::EMPTY; capacity.max(1)])
    }
}

/// One epoll instance; closed on drop.
#[derive(Debug)]
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: a plain syscall wrapper; it takes no pointers.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` was just returned by the kernel and nothing else
        // owns it.
        Ok(Self {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut event = Event {
            events: interest,
            data: token,
        };
        // SAFETY: `event` is a valid `epoll_event` for the duration of
        // the call, and the kernel copies it before returning.
        check(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) })?;
        Ok(())
    }

    /// Watches `fd` for `interest` (level-triggered), reporting it as
    /// `token`. Closing `fd` unregisters it.
    pub(crate) fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Replaces the interest of an already watched `fd`.
    pub(crate) fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Blocks until at least one watched descriptor is ready, then
    /// returns the ready events. A signal interrupting the wait returns
    /// no events.
    pub(crate) fn wait<'e>(&self, events: &'e mut Events) -> io::Result<&'e [Event]> {
        let capacity = c_int::try_from(events.0.len()).unwrap_or(c_int::MAX);
        // SAFETY: the kernel writes at most `capacity` events, all
        // within `events.0`, which outlives the call.
        let ready = match check(unsafe {
            epoll_wait(self.fd.as_raw_fd(), events.0.as_mut_ptr(), capacity, -1)
        }) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        let ready = usize::try_from(ready).expect("epoll_wait returned a non-negative count");
        Ok(&events.0[..ready])
    }
}

/// A nonblocking eventfd: any thread may [`Waker::wake`] it; the owner
/// watches it with [`Epoll`] and [`Waker::reset`]s it after each wake.
#[derive(Debug)]
pub(crate) struct Waker {
    fd: File,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: a plain syscall wrapper; it takes no pointers.
        let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: `fd` was just returned by the kernel and nothing else
        // owns it.
        Ok(Self {
            fd: File::from(unsafe { OwnedFd::from_raw_fd(fd) }),
        })
    }

    pub(crate) fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Makes the eventfd readable until the next [`Waker::reset`].
    pub(crate) fn wake(&self) {
        // Fails only when the counter would overflow, which leaves it
        // readable anyway.
        let _ = (&self.fd).write(&1u64.to_ne_bytes());
    }

    /// Clears the counter, so level-triggered epoll stops reporting it.
    pub(crate) fn reset(&self) {
        let mut counter = [0u8; 8];
        // `WouldBlock` means it was already clear.
        let _ = (&self.fd).read(&mut counter);
    }
}
