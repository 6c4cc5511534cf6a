//! Minimal Linux readiness-notification FFI — one `epoll(7)` instance —
//! plus a self-pipe waker.
//!
//! No `libc`, no `mio`, no tokio: the offline build bakes in nothing but
//! std, so the handful of syscalls the event loop needs are declared
//! here directly. Everything is wrapped immediately in safe types
//! ([`Poller`], [`WakePipe`]); no raw fd or `unsafe` leaks past this
//! module.

use std::io;
use std::os::unix::io::RawFd;

#[allow(non_camel_case_types)]
type c_int = i32;

// On x86_64 the kernel ABI packs epoll_event (no padding between the
// 32-bit mask and the 64-bit payload); other architectures use natural
// alignment. Getting this wrong corrupts every second event.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const O_NONBLOCK: c_int = 0o4000;
const O_CLOEXEC: c_int = 0o2000000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
}

/// What a registered fd is watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    fn epoll_mask(self) -> u32 {
        let mut mask = EPOLLRDHUP;
        if self.readable {
            mask |= EPOLLIN;
        }
        if self.writable {
            mask |= EPOLLOUT;
        }
        mask
    }
}

/// One readiness event, keyed by the caller's token.
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// error or hangup: the fd needs attention even if neither readable
    /// nor writable was requested (the caller's read/write will surface
    /// the actual error)
    pub closed: bool,
}

/// Most events one [`Poller::wait`] returns; more stay pending for the
/// next call (epoll is level-triggered).
const MAX_EVENTS: usize = 256;

/// Readiness poller over one `epoll(7)` instance.
pub struct Poller {
    epfd: RawFd,
    /// the kernel's output array for `epoll_wait`, allocated once instead
    /// of zero-filled on every call
    raw: Box<[EpollEvent; MAX_EVENTS]>,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            raw: Box::new([EpollEvent { events: 0, data: 0 }; MAX_EVENTS]),
        })
    }

    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        epoll_op(self.epfd, EPOLL_CTL_ADD, fd, token, interest)
    }

    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        epoll_op(self.epfd, EPOLL_CTL_MOD, fd, token, interest)
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        epoll_op(self.epfd, EPOLL_CTL_DEL, fd, 0, Interest::READ)
    }

    /// Blocks up to `timeout_ms` (-1 = forever) and fills `events` with
    /// ready fds. Spurious wakeups (empty `events`) are normal.
    pub fn wait(&mut self, events: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        events.clear();
        let raw = &mut self.raw;
        let n = loop {
            // SAFETY: `raw` outlives the call and maxevents matches its
            // length.
            let n =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as c_int, timeout_ms) };
            if n >= 0 {
                break n as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &raw[..n] {
            // Copy out of the (possibly packed) struct before use.
            let (mask, data) = (ev.events, ev.data);
            events.push(PollEvent {
                token: data,
                readable: mask & EPOLLIN != 0,
                writable: mask & EPOLLOUT != 0,
                closed: mask & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop it exactly once.
        unsafe { close(self.epfd) };
    }
}

fn epoll_op(epfd: RawFd, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
    let mut ev = EpollEvent {
        events: interest.epoll_mask(),
        data: token,
    };
    // SAFETY: `ev` lives across the call; DEL ignores the event pointer
    // (non-null for pre-2.6.9 kernel compatibility).
    let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Self-pipe waker: the engine's worker threads write one byte to wake a
/// poller blocked in `wait`. Cloneable across threads; fds close when
/// the last clone drops — so completion hooks held by in-flight jobs can
/// never write into a recycled fd.
#[derive(Clone)]
pub struct WakePipe {
    inner: std::sync::Arc<PipeFds>,
}

struct PipeFds {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Drop for PipeFds {
    fn drop(&mut self) {
        // SAFETY: we own both fds and drop them exactly once.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

impl WakePipe {
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: `fds` is a valid 2-slot out array.
        let rc = unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakePipe {
            inner: std::sync::Arc::new(PipeFds {
                read_fd: fds[0],
                write_fd: fds[1],
            }),
        })
    }

    /// The fd to register readable with a [`Poller`].
    pub fn read_fd(&self) -> RawFd {
        self.inner.read_fd
    }

    /// Wakes the poller. A full pipe (`EAGAIN`) is fine — the poller is
    /// already pending a wake; any other failure is ignored too, since a
    /// missed wake degrades to the poller's next timeout, never to
    /// corruption.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: one-byte write from a live stack buffer to an fd the
        // Arc keeps open.
        unsafe { write(self.inner.write_fd, &byte, 1) };
    }

    /// Drains every buffered wake (call once per poller wakeup).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: reads into a live stack buffer of the stated size.
            let n = unsafe { read(self.inner.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                return; // empty (EAGAIN) or closed — drained either way
            }
        }
    }
}
