//! Readiness multiplexing: one blocking call watching every fd.
//!
//! The platform picks the backend. On Linux [`Poller`] is **epoll**,
//! level-triggered — O(ready) per wait, which is what makes 10k
//! mostly-idle connections cheap. Elsewhere it is **poll(2)** with the
//! same interface: O(registered) per wait, but pure POSIX. The
//! poll(2) backend compiles on Linux too ([`poll::Poller`]), so one
//! `cargo test` exercises both.
//!
//! Level-triggered semantics are deliberate: an event repeats until
//! the condition is drained, so a connection state machine that
//! processes *some* of its readable bytes is re-woken rather than
//! wedged — simpler invariants than edge-triggered at C10k scale.

use crate::sys;
use std::io;
use std::time::Duration;

/// What a registration wants to hear about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes (or EOF) to read.
    pub read: bool,
    /// Wake when the fd can accept more written bytes.
    pub write: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Read + write — a connection with queued response bytes.
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness report.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The registration cookie passed to [`Poller::add`].
    pub token: u64,
    /// Bytes (or EOF) are readable.
    pub readable: bool,
    /// The socket can accept writes.
    pub writable: bool,
    /// Error/hangup condition — the owner should read to EOF and drop.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
pub use epoll::Poller;
#[cfg(not(target_os = "linux"))]
pub use poll::Poller;

/// Clamp a wait budget to poll/epoll's `i32` milliseconds (`None` →
/// block forever).
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        // Round up so a 100µs budget does not busy-spin at 0ms.
        Some(t) => t.as_millis().min(i32::MAX as u128).max(1) as i32,
    }
}

/// The epoll backend (Linux).
#[cfg(target_os = "linux")]
pub mod epoll {
    use super::*;
    use crate::sys::EpollEvent;

    /// The epoll backend.
    pub struct Poller {
        epfd: i32,
        buf: Vec<EpollEvent>,
    }

    // The epoll fd is thread-safe; `buf` is only touched by `wait`,
    // which takes `&mut self`.
    unsafe impl Send for Poller {}

    impl Poller {
        /// A fresh epoll instance.
        pub fn new() -> io::Result<Poller> {
            // SAFETY: no pointers involved.
            let epfd = sys::cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn mask(interest: Interest) -> u32 {
            let mut m = sys::EPOLLRDHUP;
            if interest.read {
                m |= sys::EPOLLIN;
            }
            if interest.write {
                m |= sys::EPOLLOUT;
            }
            m
        }

        fn ctl(&self, op: i32, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: Self::mask(interest),
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            sys::cvt(unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) })?;
            Ok(())
        }

        /// Registers `fd` under `token`.
        pub fn add(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Changes an existing registration's interest.
        pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Drops a registration (closing the fd also drops it; this
        /// is for fds that outlive their registration).
        pub fn remove(&mut self, fd: i32) -> io::Result<()> {
            // A dummy event keeps pre-2.6.9 kernels happy (they
            // reject a null pointer even though DEL ignores it).
            let mut ev = EpollEvent { events: 0, data: 0 };
            sys::cvt(unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) })?;
            Ok(())
        }

        /// Blocks until something is ready (or `timeout`), appending
        /// reports to `events`. Returns the number appended.
        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            // SAFETY: buf is a live, correctly-sized EpollEvent array.
            let n = loop {
                let r = unsafe {
                    sys::epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as i32,
                        timeout_ms(timeout),
                    )
                };
                match sys::cvt(r) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for raw in &self.buf[..n] {
                // Copy out of the (possibly packed) struct before use.
                let (bits, token) = (raw.events, raw.data);
                events.push(Event {
                    token,
                    readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                    writable: bits & sys::EPOLLOUT != 0,
                    hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: we own epfd.
            unsafe {
                sys::close(self.epfd);
            }
        }
    }
}

/// The poll(2) backend (any POSIX).
pub mod poll {
    use super::*;
    use crate::sys::PollFd;
    use std::collections::HashMap;

    /// The poll(2) backend: a registration table rebuilt into a
    /// `pollfd` array on every wait.
    pub struct Poller {
        registered: HashMap<i32, (u64, Interest)>,
        buf: Vec<PollFd>,
    }

    impl Poller {
        /// A fresh (empty) registration table.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: HashMap::new(),
                buf: Vec::new(),
            })
        }

        /// Registers `fd` under `token`. A dead fd is refused here
        /// (as epoll's `EBADF` would), not discovered by every wait.
        pub fn add(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            // SAFETY: F_GETFD takes no pointer and changes nothing.
            sys::cvt(unsafe { sys::fcntl(fd, sys::F_GETFD) })?;
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        /// Changes an existing registration's interest.
        pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        /// Drops a registration.
        pub fn remove(&mut self, fd: i32) -> io::Result<()> {
            self.registered.remove(&fd);
            Ok(())
        }

        /// Blocks until something is ready (or `timeout`), appending
        /// reports to `events`. Returns the number appended.
        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            self.buf.clear();
            let mut tokens = Vec::with_capacity(self.registered.len());
            for (&fd, &(token, interest)) in &self.registered {
                let mut ev: i16 = 0;
                if interest.read {
                    ev |= sys::POLLIN;
                }
                if interest.write {
                    ev |= sys::POLLOUT;
                }
                self.buf.push(PollFd {
                    fd,
                    events: ev,
                    revents: 0,
                });
                tokens.push(token);
            }
            loop {
                // SAFETY: buf is a live pollfd array of the stated length.
                let r = unsafe {
                    sys::poll(
                        self.buf.as_mut_ptr(),
                        self.buf.len() as sys::NfdsT,
                        timeout_ms(timeout),
                    )
                };
                match sys::cvt(r) {
                    Ok(_) => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            let before = events.len();
            for (pfd, token) in self.buf.iter().zip(tokens) {
                if pfd.revents == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: pfd.revents & (sys::POLLIN | sys::POLLHUP) != 0,
                    writable: pfd.revents & sys::POLLOUT != 0,
                    hangup: pfd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
                });
            }
            Ok(events.len() - before)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    /// Each test body runs once per backend this platform compiles.
    macro_rules! on_each_backend {
        ($name:ident, $poller:ident => $body:block) => {
            mod $name {
                use super::*;

                #[cfg(target_os = "linux")]
                #[test]
                fn epoll() {
                    let mut $poller = epoll::Poller::new().unwrap();
                    $body
                }

                #[test]
                fn poll() {
                    let mut $poller = poll::Poller::new().unwrap();
                    $body
                }
            }
        };
    }

    const QUICK: Option<Duration> = Some(Duration::from_millis(20));

    on_each_backend!(reports_readiness_by_token_and_interest, poller => {
        let (mut a, b) = UnixStream::pair().unwrap();
        poller.add(b.as_raw_fd(), 9, Interest::READ).unwrap();
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, QUICK).unwrap(), 0, "idle fd: {events:?}");
        a.write_all(b"x").unwrap();
        assert_eq!(poller.wait(&mut events, QUICK).unwrap(), 1);
        assert!(events[0].token == 9 && events[0].readable && !events[0].writable);
        // Level-triggered: unread bytes report again; write interest
        // adds writability under the new token.
        events.clear();
        poller.modify(b.as_raw_fd(), 11, Interest::READ_WRITE).unwrap();
        assert_eq!(poller.wait(&mut events, QUICK).unwrap(), 1);
        assert!(events[0].token == 11 && events[0].readable && events[0].writable);
        events.clear();
        poller.remove(b.as_raw_fd()).unwrap();
        assert_eq!(poller.wait(&mut events, QUICK).unwrap(), 0, "removed fd: {events:?}");
    });

    on_each_backend!(peer_close_is_readable, poller => {
        let (a, b) = UnixStream::pair().unwrap();
        poller.add(b.as_raw_fd(), 3, Interest::READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller.wait(&mut events, QUICK).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.readable), "EOF must wake the owner");
    });

    on_each_backend!(add_refuses_a_dead_fd, poller => {
        // -1 rather than a just-closed number: tests run on parallel
        // threads, and another one could reopen that number first.
        let err = poller.add(-1, 5, Interest::READ);
        assert!(err.is_err(), "registration of a dead fd must be an error");
    });
}
