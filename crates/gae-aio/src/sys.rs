//! Raw syscall bindings — the crate's entire FFI surface.
//!
//! The lockfile carries no `libc` (or anything else external), but
//! `std` already links the platform libc, so the handful of symbols
//! the reactor needs are declared here directly. Everything is a thin
//! `extern "C"` wrapper plus the constants those calls take; all safe
//! abstractions live in [`crate::poller`] and [`crate::wake`].
//!
//! The POSIX half (`poll`, `pipe`, `fcntl`, ...) is declared on every
//! platform; epoll and eventfd exist only under
//! `cfg(target_os = "linux")`, so a non-Linux checkout never
//! references a symbol its libc lacks. Constants whose values differ
//! off Linux carry the BSD-family values there.

#![allow(missing_docs)]

/// One `poll(2)` registration record.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    pub fd: i32,
    pub events: i16,
    pub revents: i16,
}

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs.
#[cfg(target_os = "linux")]
pub type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
pub type NfdsT = std::ffi::c_uint;

pub const POLLIN: i16 = 0x001;
pub const POLLOUT: i16 = 0x004;
pub const POLLERR: i16 = 0x008;
pub const POLLHUP: i16 = 0x010;
pub const POLLNVAL: i16 = 0x020;

pub const F_GETFD: i32 = 1;
pub const F_GETFL: i32 = 3;
pub const F_SETFL: i32 = 4;

#[cfg(target_os = "linux")]
mod os {
    /// One epoll registration/readiness record.
    ///
    /// On x86_64 the kernel ABI packs this struct (12 bytes); everywhere
    /// else it has natural alignment. Getting this wrong corrupts the
    /// `data` cookie on every second event.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const O_NONBLOCK: i32 = 0o4000;
    pub const SOL_SOCKET: i32 = 1;
    pub const SO_SNDBUF: i32 = 7;

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EFD_CLOEXEC: i32 = 0o2000000;
    pub const EFD_NONBLOCK: i32 = 0o4000;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(
            epfd: i32,
            events: *mut EpollEvent,
            maxevents: i32,
            timeout_ms: i32,
        ) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
    }
}

#[cfg(not(target_os = "linux"))]
mod os {
    pub const O_NONBLOCK: i32 = 0x0004;
    pub const SOL_SOCKET: i32 = 0xffff;
    pub const SO_SNDBUF: i32 = 0x1001;
}

pub use os::*;

extern "C" {
    pub fn poll(fds: *mut PollFd, nfds: NfdsT, timeout_ms: i32) -> i32;
    pub fn close(fd: i32) -> i32;
    pub fn fcntl(fd: i32, cmd: i32, ...) -> i32;
    pub fn pipe(fds: *mut i32) -> i32;
    pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    pub fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
    pub fn listen(fd: i32, backlog: i32) -> i32;
}

/// `-1` → the thread's errno as `io::Error`.
pub fn cvt(ret: i32) -> std::io::Result<i32> {
    if ret < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Marks `fd` nonblocking via `fcntl` (for fds `std` did not mint,
/// e.g. the wake pipe).
pub fn set_nonblocking(fd: i32) -> std::io::Result<()> {
    // SAFETY: plain fcntl on an owned fd.
    unsafe {
        let flags = cvt(fcntl(fd, F_GETFL))?;
        cvt(fcntl(fd, F_SETFL, flags | O_NONBLOCK))?;
    }
    Ok(())
}

/// Shrinks/grows the kernel send buffer — the reactor's partial-write
/// test knob (a tiny `SO_SNDBUF` forces short writes deterministically).
pub fn set_send_buffer(fd: i32, bytes: usize) -> std::io::Result<()> {
    let val: i32 = bytes as i32;
    // SAFETY: optval points at a live i32 of the advertised length.
    unsafe {
        cvt(setsockopt(
            fd,
            SOL_SOCKET,
            SO_SNDBUF,
            (&val as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        ))?;
    }
    Ok(())
}

/// Re-issues `listen(2)` on an already-listening socket to set its
/// accept-queue length (`std` offers no way to choose it at bind time;
/// the kernel clamps the value to its own maximum).
pub fn set_listen_backlog(fd: i32, backlog: i32) -> std::io::Result<()> {
    // SAFETY: plain listen on an owned, bound socket fd.
    unsafe {
        cvt(listen(fd, backlog))?;
    }
    Ok(())
}
