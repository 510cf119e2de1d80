//! Readiness polling for the server's event loop: a thin, std-only
//! wrapper over the Linux `epoll` family plus a self-pipe waker.
//!
//! `std` exposes no readiness API and the build environment has no
//! registry access (no `libc`, no `mio`), so this module follows the
//! PR 1 vendoring pattern: declare exactly the C entry points we need
//! (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `pipe2`, `read`,
//! `write`) against the libc that `std` already links, and wrap them in
//! a minimal safe API. Everything `unsafe` lives in the `sys`
//! submodule behind four shim functions; the rest of the crate stays
//! under the workspace `unsafe_code = "deny"` lint.
//!
//! The API is deliberately small — exactly what [`crate::server`]'s
//! event loop needs:
//!
//! * [`Poller`] — create/register/rearm/deregister file descriptors and
//!   wait for readiness events, each tagged with a caller-chosen `u64`
//!   token.
//! * [`Interest`] — readable and/or writable, always edge-triggered
//!   (`EPOLLET`): the event loop drains sockets to `WouldBlock` on every
//!   event, which is the discipline edge triggering requires and the
//!   reason a 10k-connection daemon does not re-scan 10k fds per wake.
//! * [`WakePipe`] — a non-blocking self-pipe whose read end is
//!   registered like any connection; writing one byte from any thread
//!   wakes `epoll_wait` immediately. This replaces the old 100 ms
//!   read-timeout shutdown polls: shutdown latency is now one pipe write,
//!   not a poll interval.
//!
//! This module is `cfg(target_os = "linux")`, and so is the server built
//! on it; the rest of the crate stays portable.

use std::io;
use std::os::fd::{AsRawFd, OwnedFd, RawFd};

/// Readiness interest for a registered descriptor. Registration is
/// always edge-triggered; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor becomes readable (`EPOLLIN`).
    pub readable: bool,
    /// Wake when the descriptor becomes writable (`EPOLLOUT`).
    pub writable: bool,
}

impl Interest {
    /// Readable only — the steady state of an idle connection.
    pub const READ: Self = Self { readable: true, writable: false };
    /// Writable only — a connection under write backpressure (reading
    /// paused until the outbound queue drains).
    pub const WRITE: Self = Self { readable: false, writable: true };
    /// Both directions — a connection with queued output that still
    /// accepts new requests.
    pub const READ_WRITE: Self = Self { readable: true, writable: true };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Readable (or: a peer hang-up that a read will observe as EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hang-up condition (`EPOLLERR`/`EPOLLHUP`); the owner
    /// should read to collect the error and close.
    pub error: bool,
}

/// Reusable event buffer for [`Poller::wait`].
#[derive(Debug)]
pub struct Events {
    buf: Vec<sys::EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer receiving at most `capacity` events per wait (clamped to
    /// at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self { buf: vec![sys::EpollEvent::default(); capacity.max(1)], len: 0 }
    }

    /// The events delivered by the last [`Poller::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|e| Event {
            token: e.data(),
            readable: e.events() & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
            writable: e.events() & sys::EPOLLOUT != 0,
            error: e.events() & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
        })
    }
}

/// An `epoll` instance. Dropping closes it (and implicitly deregisters
/// everything).
#[derive(Debug)]
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Creates the epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Self> {
        Ok(Self { epfd: sys::epoll_create1()? })
    }

    /// Registers `fd` with edge-triggered `interest`, delivering `token`
    /// on every event.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_ctl(self.epfd.as_raw_fd(), sys::EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Rearms an already registered `fd` with a new `interest` set.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_ctl(self.epfd.as_raw_fd(), sys::EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters `fd`. Harmless to call for an fd about to be closed —
    /// closing deregisters too, but an explicit delete keeps the kernel
    /// interest list exact while the `TcpStream` is still alive.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        sys::epoll_ctl(self.epfd.as_raw_fd(), sys::EPOLL_CTL_DEL, fd, Interest::READ, 0)
    }

    /// Blocks until ≥1 event or the timeout (`None` = forever), filling
    /// `events`. Returns the number delivered; `EINTR` is retried
    /// internally.
    pub fn wait(&self, events: &mut Events, timeout_ms: Option<i32>) -> io::Result<usize> {
        let n = sys::epoll_wait(self.epfd.as_raw_fd(), &mut events.buf, timeout_ms.unwrap_or(-1))?;
        events.len = n;
        Ok(n)
    }
}

/// A non-blocking self-pipe: register [`WakePipe::read_fd`] in a
/// [`Poller`], call [`WakePipe::wake`] from any thread to make the next
/// (or current) `wait` return, and [`WakePipe::drain`] on delivery so the
/// edge can fire again.
#[derive(Debug)]
pub struct WakePipe {
    read: OwnedFd,
    write: OwnedFd,
}

impl WakePipe {
    /// Creates the pipe (`O_NONBLOCK | O_CLOEXEC` on both ends).
    pub fn new() -> io::Result<Self> {
        let (read, write) = sys::pipe2()?;
        Ok(Self { read, write })
    }

    /// The fd to register for readable interest.
    pub fn read_fd(&self) -> RawFd {
        self.read.as_raw_fd()
    }

    /// Wakes the poller. A full pipe means wakes are already pending, so
    /// `EAGAIN` counts as success; any other error is reported.
    pub fn wake(&self) -> io::Result<()> {
        match sys::write_byte(self.write.as_raw_fd()) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            other => other,
        }
    }

    /// Consumes every pending wake byte (so a future `wake` produces a
    /// fresh edge).
    pub fn drain(&self) {
        sys::drain(self.read.as_raw_fd());
    }
}

/// A thread-safe handle that can wake the poller from outside the event
/// loop (e.g. [`crate::ServerHandle::shutdown`]). Cloning shares the
/// pipe's write end.
#[derive(Debug, Clone)]
pub struct Waker {
    write: std::sync::Arc<OwnedFd>,
}

impl WakePipe {
    /// A cloneable waker sharing this pipe's write end. The pipe itself
    /// stays with the event loop (which owns the read end).
    pub fn waker(&self) -> io::Result<Waker> {
        Ok(Waker { write: std::sync::Arc::new(self.write.try_clone()?) })
    }
}

impl Waker {
    /// Same contract as [`WakePipe::wake`].
    pub fn wake(&self) {
        if let Err(e) = match sys::write_byte(self.write.as_raw_fd()) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            other => other,
        } {
            // A failed wake only delays shutdown until an organic event;
            // nothing sensible to do beyond noting it.
            eprintln!("[dpsc-serve] waker write failed: {e}");
        }
    }
}

/// The one `unsafe` island of the crate: C declarations for the five
/// entry points and four thin shims translating `-1`/`errno` into
/// `io::Result`. Every pointer handed to C is derived from a live Rust
/// reference with the length passed alongside, and every fd returned by
/// C is immediately wrapped in `OwnedFd` so it cannot leak.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::{FromRawFd, OwnedFd, RawFd};

    // Event mask bits (uapi/linux/eventpoll.h).
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLET: u32 = 1 << 31;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    // open(2) flag values shared by every Linux architecture this
    // workspace builds for (x86_64, aarch64, riscv64).
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const O_NONBLOCK: i32 = 0o4000;
    const O_CLOEXEC: i32 = 0o2000000;

    /// The kernel's `struct epoll_event`: packed on x86_64 (12 bytes),
    /// naturally aligned (16 bytes) everywhere else — mirroring the
    /// `EPOLL_PACKED` dance in the kernel headers is what makes calling
    /// the glibc wrappers ABI-correct on both layouts.
    #[derive(Debug, Clone, Copy, Default)]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    pub struct EpollEvent {
        events: u32,
        data: u64,
    }

    impl EpollEvent {
        pub fn events(&self) -> u32 {
            self.events
        }

        pub fn data(&self) -> u64 {
            self.data
        }
    }

    /// Raw C declarations, resolved against the libc `std` already
    /// links. Nested so the safe shims below can reuse the C names.
    mod c {
        use super::EpollEvent;

        extern "C" {
            pub fn epoll_create1(flags: i32) -> i32;
            pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            pub fn epoll_wait(
                epfd: i32,
                events: *mut EpollEvent,
                maxevents: i32,
                timeout: i32,
            ) -> i32;
            pub fn pipe2(pipefd: *mut i32, flags: i32) -> i32;
            pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
            pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        }
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub fn epoll_create1() -> io::Result<OwnedFd> {
        // SAFETY: no pointers; a non-negative return is a fresh fd we
        // immediately take ownership of.
        let fd = check(unsafe { c::epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    pub fn epoll_ctl(
        epfd: RawFd,
        op: i32,
        fd: RawFd,
        interest: super::Interest,
        token: u64,
    ) -> io::Result<()> {
        let mut events = EPOLLET | EPOLLRDHUP;
        if interest.readable {
            events |= EPOLLIN;
        }
        if interest.writable {
            events |= EPOLLOUT;
        }
        let mut ev = EpollEvent { events, data: token };
        // SAFETY: `ev` is a live stack value for the duration of the
        // call; the kernel copies it and keeps no reference (DEL ignores
        // it entirely).
        check(unsafe { c::epoll_ctl(epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    pub fn epoll_wait(
        epfd: RawFd,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        loop {
            // SAFETY: the pointer/length pair describes `events`, a live
            // mutable slice; the kernel writes at most `len` entries.
            let ret = unsafe {
                c::epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
            };
            match check(ret) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    pub fn pipe2() -> io::Result<(OwnedFd, OwnedFd)> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a live 2-element array the kernel fills; on
        // success both fds are fresh and we take ownership of each.
        check(unsafe { c::pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
        Ok(unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) })
    }

    pub fn write_byte(fd: RawFd) -> io::Result<()> {
        let byte = 1u8;
        // SAFETY: one live byte, length 1.
        let n = unsafe { c::write(fd, &byte, 1) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    pub fn drain(fd: RawFd) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: the pointer/length pair describes `buf`, a live
            // mutable array.
            let n = unsafe { c::read(fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                // EAGAIN (empty), EOF, or a real error: in every case the
                // pipe has no more wake bytes to consume right now.
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};

    const TOKEN_PIPE: u64 = 7;
    const TOKEN_LISTENER: u64 = 11;

    #[test]
    fn wake_pipe_delivers_and_drains() {
        let poller = Poller::new().expect("epoll_create1");
        let pipe = WakePipe::new().expect("pipe2");
        poller.add(pipe.read_fd(), TOKEN_PIPE, Interest::READ).expect("register pipe");
        let mut events = Events::with_capacity(8);

        // Nothing pending: a zero timeout returns no events.
        assert_eq!(poller.wait(&mut events, Some(0)).expect("wait"), 0);

        pipe.wake().expect("wake");
        assert_eq!(poller.wait(&mut events, Some(1000)).expect("wait"), 1);
        let ev = events.iter().next().expect("one event");
        assert_eq!(ev.token, TOKEN_PIPE);
        assert!(ev.readable);

        // Edge-triggered: without draining, a *new* wake still produces a
        // fresh edge after the level was consumed.
        pipe.drain();
        assert_eq!(poller.wait(&mut events, Some(0)).expect("wait"), 0, "drained pipe is quiet");
        pipe.wake().expect("wake again");
        assert_eq!(poller.wait(&mut events, Some(1000)).expect("wait"), 1);
        pipe.drain();
    }

    #[test]
    fn waker_wakes_from_another_thread() {
        let poller = Poller::new().expect("epoll_create1");
        let pipe = WakePipe::new().expect("pipe2");
        poller.add(pipe.read_fd(), TOKEN_PIPE, Interest::READ).expect("register pipe");
        let waker = pipe.waker().expect("waker");
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            waker.wake();
        });
        let mut events = Events::with_capacity(4);
        let n = poller.wait(&mut events, Some(5_000)).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events.iter().next().unwrap().token, TOKEN_PIPE);
        t.join().unwrap();
    }

    #[test]
    fn repeated_wakes_coalesce_but_never_block() {
        let pipe = WakePipe::new().expect("pipe2");
        // Far more wakes than the pipe buffer holds: every call must
        // return Ok (EAGAIN counts as "already pending").
        for _ in 0..100_000 {
            pipe.wake().expect("wake never errors");
        }
        pipe.drain();
    }

    #[test]
    fn listener_readiness_and_rearm() {
        let poller = Poller::new().expect("epoll_create1");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().unwrap();
        use std::os::fd::AsRawFd;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ).expect("register");

        let mut events = Events::with_capacity(4);
        assert_eq!(poller.wait(&mut events, Some(0)).expect("wait"), 0);

        let mut client = TcpStream::connect(addr).expect("connect");
        assert_eq!(poller.wait(&mut events, Some(5_000)).expect("wait"), 1);
        assert_eq!(events.iter().next().unwrap().token, TOKEN_LISTENER);
        let (stream, _) = listener.accept().expect("accept");

        // Register the accepted socket for read interest and make the
        // peer's bytes wake us.
        stream.set_nonblocking(true).expect("nonblocking");
        poller.add(stream.as_raw_fd(), 42, Interest::READ).expect("register conn");
        client.write_all(b"ping").expect("write");
        let n = poller.wait(&mut events, Some(5_000)).expect("wait");
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == 42 && e.readable));

        // Rearm for write interest: an idle socket with kernel buffer
        // space reports writable immediately (edge on MOD).
        poller.modify(stream.as_raw_fd(), 42, Interest::READ_WRITE).expect("rearm");
        let n = poller.wait(&mut events, Some(5_000)).expect("wait");
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == 42 && e.writable));

        poller.delete(stream.as_raw_fd()).expect("deregister");
        drop(client);
    }
}
