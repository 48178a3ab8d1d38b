//! Thin epoll wrapper (Linux only) for the event-loop connection mode.
//!
//! Like `tmac-io`'s mmap module, this declares the handful of libc symbols
//! it needs locally instead of pulling in a bindings crate — std already
//! links libc, so the symbols resolve at link time. Everything here is
//! level-triggered: the loop re-polls until the fd would block, so missed
//! wakeups cannot wedge a connection.
//!
//! The [`Waker`] is a non-blocking self-pipe registered in the same epoll
//! set; scheduler-side threads write a byte to nudge `epoll_wait` out of
//! its sleep when tokens arrive for a connection.

#![cfg(target_os = "linux")]

use std::io;
use std::os::fd::RawFd;
use std::sync::Arc;

mod sys {
    use std::os::raw::{c_int, c_void};

    // x86-64 packs epoll_event to 12 bytes; every other Linux arch uses
    // natural (16-byte) layout.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    pub const O_NONBLOCK: c_int = 0o4000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// What a single `epoll_wait` entry reported for one registered token.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The `u64` token the fd was registered with.
    pub token: u64,
    /// Readable (or a hangup, which reads as EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hangup condition; the connection should be torn down after a
    /// final read attempt.
    pub closed: bool,
}

/// Interest set for registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake on readable.
    pub read: bool,
    /// Wake on writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Read + write interest.
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };

    fn mask(self) -> u32 {
        let mut m = sys::EPOLLRDHUP;
        if self.read {
            m |= sys::EPOLLIN;
        }
        if self.write {
            m |= sys::EPOLLOUT;
        }
        m
    }
}

/// An epoll instance plus its self-pipe waker.
pub struct Poller {
    epfd: RawFd,
    wake_rx: RawFd,
    waker: Arc<WakerInner>,
}

struct WakerInner {
    wake_tx: RawFd,
}

/// Cheap cloneable handle other threads use to interrupt
/// [`Poller::wait`].
#[derive(Clone)]
pub struct Waker(Arc<WakerInner>);

impl Waker {
    /// Nudges the poller; safe to call from any thread, coalesces when the
    /// pipe is already full.
    pub fn wake(&self) {
        let b = [1u8];
        // EAGAIN (pipe full) still means the poller has a pending wakeup.
        // SAFETY: `wake_tx` is an open pipe fd owned by `WakerInner` (closed
        // only on its drop); `b` is 1 readable byte.
        unsafe { sys::write(self.0.wake_tx, b.as_ptr().cast(), 1) };
    }
}

impl Drop for WakerInner {
    fn drop(&mut self) {
        // SAFETY: the last handle owns `wake_tx`; nothing uses it after this.
        unsafe { sys::close(self.wake_tx) };
    }
}

/// Token reserved for the internal waker pipe; user registrations must use
/// other values.
pub const WAKE_TOKEN: u64 = u64::MAX;

fn last_err(what: &str) -> io::Error {
    io::Error::new(io::Error::last_os_error().kind(), what.to_string())
}

/// Puts `fd` into non-blocking mode.
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: `fcntl` with integer arguments touches no caller memory; a
    // bad fd is reported as an error return.
    unsafe {
        let flags = sys::fcntl(fd, sys::F_GETFL, 0);
        if flags < 0 {
            return Err(last_err("fcntl(F_GETFL)"));
        }
        if sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) < 0 {
            return Err(last_err("fcntl(F_SETFL, O_NONBLOCK)"));
        }
    }
    Ok(())
}

impl Poller {
    /// Creates the epoll set and registers the waker pipe under
    /// [`WAKE_TOKEN`].
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall with no pointer arguments.
        let epfd = unsafe { sys::epoll_create1(0) };
        if epfd < 0 {
            return Err(last_err("epoll_create1"));
        }
        let mut fds = [0i32; 2];
        // SAFETY: `fds` has room for the two fds `pipe` writes.
        if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
            // SAFETY: `epfd` was just opened here and is not shared.
            unsafe { sys::close(epfd) };
            return Err(last_err("pipe"));
        }
        let (rx, tx) = (fds[0], fds[1]);
        for fd in [rx, tx] {
            if let Err(e) = set_nonblocking(fd) {
                // SAFETY: all three fds were opened above and are not shared.
                unsafe {
                    sys::close(epfd);
                    sys::close(rx);
                    sys::close(tx);
                }
                return Err(e);
            }
        }
        let poller = Poller {
            epfd,
            wake_rx: rx,
            waker: Arc::new(WakerInner { wake_tx: tx }),
        };
        poller.ctl(sys::EPOLL_CTL_ADD, rx, WAKE_TOKEN, Interest::READ.mask())?;
        Ok(poller)
    }

    /// Handle for cross-thread wakeups.
    pub fn waker(&self) -> Waker {
        Waker(Arc::clone(&self.waker))
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, mask: u32) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: mask,
            data: token,
        };
        let evp = if op == sys::EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut _
        };
        // SAFETY: `evp` is null (DEL) or points at `ev`, live for the call.
        if unsafe { sys::epoll_ctl(self.epfd, op, fd, evp) } < 0 {
            return Err(last_err("epoll_ctl"));
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest.mask())
    }

    /// Updates the interest set of an already-registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest.mask())
    }

    /// Removes `fd` from the set (best-effort; closing the fd also
    /// removes it).
    pub fn delete(&self, fd: RawFd) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits up to `timeout_ms` (−1 = forever) and appends ready events to
    /// `out`. Waker nudges are drained internally and reported as a plain
    /// wakeup (no event entry), so `out` only ever holds user tokens.
    ///
    /// Returns `true` when the waker fired.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<bool> {
        const CAP: usize = 64;
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; CAP];
        // SAFETY: `raw` has room for `CAP` events, the count passed in.
        let n = unsafe { sys::epoll_wait(self.epfd, raw.as_mut_ptr(), CAP as i32, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(false);
            }
            return Err(e);
        }
        let mut woke = false;
        for ev in raw.iter().take(n as usize) {
            let (events, data) = (ev.events, ev.data);
            if data == WAKE_TOKEN {
                woke = true;
                // Drain the pipe so the next wait can sleep.
                let mut buf = [0u8; 64];
                // SAFETY: `buf` has `buf.len()` writable bytes.
                while unsafe { sys::read(self.wake_rx, buf.as_mut_ptr().cast(), buf.len()) } > 0 {}
                continue;
            }
            out.push(Event {
                token: data,
                readable: events & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                writable: events & sys::EPOLLOUT != 0,
                closed: events & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(woke)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: the poller owns both fds; nothing uses them after drop.
        unsafe {
            sys::close(self.wake_rx);
            sys::close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn waker_interrupts_wait_and_sockets_report_readable() {
        let poller = Poller::new().unwrap();
        let waker = poller.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            waker.wake();
        });
        let mut evs = Vec::new();
        let woke = poller.wait(&mut evs, 5_000).unwrap();
        assert!(woke, "waker failed to interrupt epoll_wait");
        assert!(evs.is_empty());
        t.join().unwrap();

        // A readable socket surfaces under its token.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        set_nonblocking(server_side.as_raw_fd()).unwrap();
        poller
            .add(server_side.as_raw_fd(), 7, Interest::READ)
            .unwrap();
        client.write_all(b"ping").unwrap();
        let mut evs = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while evs.is_empty() && std::time::Instant::now() < deadline {
            poller.wait(&mut evs, 100).unwrap();
        }
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].token, 7);
        assert!(evs[0].readable);
        poller.delete(server_side.as_raw_fd());
    }
}
