//! Cross-thread reactor wakeup.
//!
//! Completions arrive from `gae-rpc` door worker threads while the
//! reactor is parked in `epoll_wait`. The waker is the bridge: an
//! **eventfd** registered in the poller, which a worker can make
//! readable from any thread (one fd, coalescing writes).

use crate::sys;
use std::io;

/// A thread-safe "kick the reactor" handle.
pub struct Waker {
    /// The eventfd: the poller watches it, `wake` writes it.
    fd: i32,
}

// Raw-fd writes/reads of an eventfd's 8-byte counter are atomic.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// A fresh eventfd-backed waker.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: no pointers involved.
        let fd = sys::cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
        Ok(Waker { fd })
    }

    /// The fd to register for read interest in the poller.
    pub fn as_raw_fd(&self) -> i32 {
        self.fd
    }

    /// Makes the reactor's next (or current) wait return. Coalesces:
    /// many wakes before a drain cost one wakeup.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: 8 valid bytes; EAGAIN (counter full) means a wakeup
        // is already pending, which is all we need.
        unsafe {
            sys::write(self.fd, (&one as *const u64).cast(), 8);
        }
    }

    /// Consumes pending wakeups so level-triggered polling quiesces.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        // SAFETY: buf is live; one read resets the counter, the next
        // returns EAGAIN.
        unsafe { while sys::read(self.fd, buf.as_mut_ptr(), buf.len()) > 0 {} }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe {
            sys::close(self.fd);
        }
    }
}
