//! Cross-thread reactor wakeup.
//!
//! Completions arrive from `gae-rpc` door worker threads while the
//! reactor is parked in `epoll_wait`. The waker is the bridge: a fd
//! registered in the poller that a worker can make readable from any
//! thread. On Linux it is an **eventfd** (one fd, coalescing writes);
//! elsewhere a **pipe** (pure POSIX), which Linux compiles too so one
//! `cargo test` exercises both.

use crate::sys;
use std::io;

/// A thread-safe "kick the reactor" handle.
pub struct Waker {
    /// The fd the poller watches.
    read_fd: i32,
    /// Where `wake` writes (same fd for eventfd, pipe tail otherwise).
    write_fd: i32,
    /// Whether `read_fd` and `write_fd` are distinct fds (pipe).
    twin: bool,
}

// Raw-fd writes/reads are atomic at this size on every platform we run.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// A fresh waker of the platform's kind: eventfd on Linux, pipe
    /// elsewhere.
    pub fn new() -> io::Result<Waker> {
        #[cfg(target_os = "linux")]
        return Waker::eventfd();
        #[cfg(not(target_os = "linux"))]
        return Waker::pipe();
    }

    /// An eventfd-backed waker.
    #[cfg(target_os = "linux")]
    pub fn eventfd() -> io::Result<Waker> {
        // SAFETY: no pointers involved.
        let fd = sys::cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
        Ok(Waker {
            read_fd: fd,
            write_fd: fd,
            twin: false,
        })
    }

    /// A pipe-backed waker.
    pub fn pipe() -> io::Result<Waker> {
        let mut fds = [0i32; 2];
        // SAFETY: fds is a live 2-element array.
        sys::cvt(unsafe { sys::pipe(fds.as_mut_ptr()) })?;
        // The struct owns both ends from here on, so an error below
        // closes them.
        let waker = Waker {
            read_fd: fds[0],
            write_fd: fds[1],
            twin: true,
        };
        sys::set_nonblocking(waker.read_fd)?;
        sys::set_nonblocking(waker.write_fd)?;
        Ok(waker)
    }

    /// The fd to register for read interest in the poller.
    pub fn as_raw_fd(&self) -> i32 {
        self.read_fd
    }

    /// Makes the reactor's next (or current) wait return. Coalesces:
    /// many wakes before a drain cost one wakeup.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: 8 valid bytes; EAGAIN (counter full / pipe full)
        // means a wakeup is already pending, which is all we need.
        unsafe {
            sys::write(self.write_fd, (&one as *const u64).cast(), 8);
        }
    }

    /// Consumes pending wakeups so level-triggered polling quiesces.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        // SAFETY: buf is live; loop until the counter/pipe is empty.
        unsafe { while sys::read(self.read_fd, buf.as_mut_ptr(), buf.len()) > 0 {} }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: we own the fds.
        unsafe {
            sys::close(self.read_fd);
            if self.twin {
                sys::close(self.write_fd);
            }
        }
    }
}
