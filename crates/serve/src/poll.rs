//! A zero-dependency readiness-polling shim: `epoll` + `eventfd` via raw
//! syscalls.
//!
//! `std` exposes no readiness API and the workspace bans external crates,
//! so this module talks to the kernel directly — `syscall`/`svc`
//! instructions through `std::arch::asm!`, no `libc`. Like
//! [`crate::signal`], it is a narrowly-scoped opt-out from the crate's
//! `deny(unsafe_code)`: all `unsafe` lives in the private `sys` module,
//! which wraps exactly five syscalls (`epoll_create1`, `epoll_ctl`,
//! `epoll_pwait`, `eventfd2`, `prlimit64`) plus `read`/`write`/`close`
//! on the eventfd, and every wrapper converts a negative return into a
//! typed [`io::Error`].
//!
//! The public surface is safe and minimal:
//!
//! - [`Poller`] — an epoll instance. Register file descriptors with a
//!   caller-chosen `u64` token and an [`Interest`]; [`Poller::wait`]
//!   fills a buffer of [`Event`]s (level-triggered, so a handler that
//!   reads until `WouldBlock` never loses data).
//! - [`Doorbell`] — a nonblocking `eventfd` used to wake the poll loop
//!   from another thread ([`Doorbell::ring`] is async-signal-safe and
//!   cheap; the loop registers [`Doorbell::fd`] and calls
//!   [`Doorbell::drain`] on wakeup).
//! - [`supported`] — whether this target has the shim at all. On
//!   unsupported targets every constructor returns
//!   [`io::ErrorKind::Unsupported`], which is the error
//!   [`crate::Server::bind`] reports there: the server has no other
//!   front.
//!
//! Tokens, not pointers, ride in `epoll_data`: the loop owns a map from
//! token to connection, so there is no aliasing to get wrong and a stale
//! event for a closed connection is just a failed map lookup.

use std::io;

/// True when the readiness shim works on this target (Linux on x86_64 or
/// aarch64). Everywhere else the server cannot run and [`Poller::new`]
/// returns [`io::ErrorKind::Unsupported`].
pub const fn supported() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

/// Which readiness a registration asks for. Errors and full hangups are
/// always reported; a half-close (the peer stopped sending) only with
/// read interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable.
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Neither — the fd stays registered (a full hangup or error is still
    /// reported, a half-close is not) but produces no readiness wakeups.
    /// Used while a request is dispatched and the connection has nothing
    /// to read or write.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has data to read (or a pending accept).
    pub readable: bool,
    /// The fd can take more bytes.
    pub writable: bool,
    /// The peer stopped sending, hung up, or the fd errored (`EPOLLRDHUP
    /// | EPOLLHUP | EPOLLERR`).
    pub closed: bool,
    /// The subset of `closed` that also ends the write side (`EPOLLHUP |
    /// EPOLLERR`): nothing more can reach the peer. A half-closed peer
    /// (`closed` alone) may still be waiting for its response.
    pub hung_up: bool,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
mod sys {
    //! The unsafe core: raw syscalls and the kernel ABI structs. Nothing
    //! here is public outside [`super`].

    use std::arch::asm;
    use std::io;

    #[cfg(target_arch = "x86_64")]
    pub mod nr {
        pub const READ: usize = 0;
        pub const WRITE: usize = 1;
        pub const CLOSE: usize = 3;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EVENTFD2: usize = 290;
        pub const EPOLL_CREATE1: usize = 291;
        pub const PRLIMIT64: usize = 302;
    }
    #[cfg(target_arch = "aarch64")]
    pub mod nr {
        pub const READ: usize = 63;
        pub const WRITE: usize = 64;
        pub const CLOSE: usize = 57;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const EVENTFD2: usize = 19;
        pub const EPOLL_CREATE1: usize = 20;
        pub const PRLIMIT64: usize = 261;
    }

    /// One raw syscall. The kernel never unwinds and the wrappers below
    /// only pass pointers to memory they own for the duration of the
    /// call, which is what makes the `asm!` blocks sound.
    #[cfg(target_arch = "x86_64")]
    fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
        let ret: isize;
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") n as isize => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                in("r8") e,
                in("r9") f,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// One raw syscall (aarch64 `svc 0` convention).
    #[cfg(target_arch = "aarch64")]
    fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
        let ret: isize;
        unsafe {
            asm!(
                "svc 0",
                in("x8") n,
                inlateout("x0") a as isize => ret,
                in("x1") b,
                in("x2") c,
                in("x3") d,
                in("x4") e,
                in("x5") f,
                options(nostack),
            );
        }
        ret
    }

    /// Negative returns are `-errno`; map them to `io::Error`.
    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    /// The kernel's `struct epoll_event`. Packed on x86_64 only — that is
    /// the one ABI where the struct is unaligned; everywhere else it has
    /// natural alignment.
    #[derive(Clone, Copy, Default)]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    const EPOLL_CLOEXEC: usize = 0x80000;
    const EFD_CLOEXEC: usize = 0x80000;
    const EFD_NONBLOCK: usize = 0x800;

    pub fn epoll_create1() -> io::Result<i32> {
        check(syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0)).map(|fd| fd as i32)
    }

    pub fn epoll_ctl(
        epfd: i32,
        op: i32,
        fd: i32,
        event: Option<&mut EpollEvent>,
    ) -> io::Result<()> {
        let ptr = event.map_or(0usize, |e| e as *mut EpollEvent as usize);
        check(syscall6(
            nr::EPOLL_CTL,
            epfd as usize,
            op as usize,
            fd as usize,
            ptr,
            0,
            0,
        ))
        .map(|_| ())
    }

    /// `epoll_pwait` with a null sigmask — identical to `epoll_wait`,
    /// but the syscall number exists on every architecture (aarch64
    /// never had plain `epoll_wait`).
    pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        check(syscall6(
            nr::EPOLL_PWAIT,
            epfd as usize,
            events.as_mut_ptr() as usize,
            events.len(),
            timeout_ms as usize,
            0,
            0,
        ))
    }

    pub fn eventfd() -> io::Result<i32> {
        check(syscall6(
            nr::EVENTFD2,
            0,
            EFD_CLOEXEC | EFD_NONBLOCK,
            0,
            0,
            0,
            0,
        ))
        .map(|fd| fd as i32)
    }

    pub fn write_u64(fd: i32, v: u64) -> io::Result<usize> {
        let buf = v.to_ne_bytes();
        check(syscall6(
            nr::WRITE,
            fd as usize,
            buf.as_ptr() as usize,
            buf.len(),
            0,
            0,
            0,
        ))
    }

    pub fn read_u64(fd: i32) -> io::Result<u64> {
        let mut buf = [0u8; 8];
        check(syscall6(
            nr::READ,
            fd as usize,
            buf.as_mut_ptr() as usize,
            buf.len(),
            0,
            0,
            0,
        ))?;
        Ok(u64::from_ne_bytes(buf))
    }

    pub fn close(fd: i32) {
        let _ = syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0);
    }

    #[repr(C)]
    struct RLimit64 {
        cur: u64,
        max: u64,
    }

    const RLIMIT_NOFILE: usize = 7;

    /// Reads the (soft, hard) open-file limits of this process.
    pub fn nofile_limits() -> io::Result<(u64, u64)> {
        let mut old = RLimit64 { cur: 0, max: 0 };
        check(syscall6(
            nr::PRLIMIT64,
            0,
            RLIMIT_NOFILE,
            0,
            &mut old as *mut RLimit64 as usize,
            0,
            0,
        ))?;
        Ok((old.cur, old.max))
    }

    /// Raises the soft open-file limit to `min(want, hard)`.
    pub fn raise_nofile(want: u64) -> io::Result<u64> {
        let (cur, max) = nofile_limits()?;
        let target = want.min(max);
        if target <= cur {
            return Ok(cur);
        }
        let new = RLimit64 { cur: target, max };
        check(syscall6(
            nr::PRLIMIT64,
            0,
            RLIMIT_NOFILE,
            &new as *const RLimit64 as usize,
            0,
            0,
            0,
        ))?;
        Ok(target)
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::{sys, Event, Interest};
    use std::io;

    /// `EPOLLERR | EPOLLHUP` are implicit in every registration. The
    /// half-close bit rides with read interest only: it is level-triggered,
    /// so watching it on a connection that no longer reads would wake
    /// every wait until the connection closes.
    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.readable {
            m |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.writable {
            m |= sys::EPOLLOUT;
        }
        m
    }

    /// An epoll instance plus its reusable kernel-event buffer.
    pub struct Poller {
        epfd: i32,
        buf: Vec<sys::EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                epfd: sys::epoll_create1()?,
                buf: vec![sys::EpollEvent::default(); 1024],
            })
        }

        pub fn add(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events: mask(interest),
                data: token,
            };
            sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, Some(&mut ev))
        }

        pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events: mask(interest),
                data: token,
            };
            sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, Some(&mut ev))
        }

        pub fn remove(&mut self, fd: i32) -> io::Result<()> {
            sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, None)
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            out.clear();
            let n = match sys::epoll_wait(self.epfd, &mut self.buf, timeout_ms) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for raw in &self.buf[..n] {
                // Copy packed fields out by value; references into a
                // packed struct would be unaligned.
                let events = { raw.events };
                let data = { raw.data };
                out.push(Event {
                    token: data,
                    readable: events & sys::EPOLLIN != 0,
                    writable: events & sys::EPOLLOUT != 0,
                    closed: events & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                    hung_up: events & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            sys::close(self.epfd);
        }
    }

    /// A nonblocking eventfd.
    pub struct Doorbell {
        fd: i32,
    }

    impl Doorbell {
        pub fn new() -> io::Result<Doorbell> {
            Ok(Doorbell {
                fd: sys::eventfd()?,
            })
        }

        pub fn fd(&self) -> i32 {
            self.fd
        }

        pub fn ring(&self) {
            // EAGAIN means the counter is already saturated — the loop is
            // guaranteed to wake, which is all a ring promises.
            let _ = sys::write_u64(self.fd, 1);
        }

        pub fn drain(&self) {
            while sys::read_u64(self.fd).is_ok() {}
        }
    }

    impl Drop for Doorbell {
        fn drop(&mut self) {
            sys::close(self.fd);
        }
    }

    pub fn nofile_limits() -> io::Result<(u64, u64)> {
        sys::nofile_limits()
    }

    pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
        sys::raise_nofile(want)
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use super::{Event, Interest};
    use std::io;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "readiness polling requires linux on x86_64 or aarch64",
        ))
    }

    pub struct Poller {}

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            unsupported()
        }
        pub fn add(&mut self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            unsupported()
        }
        pub fn modify(&mut self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            unsupported()
        }
        pub fn remove(&mut self, _fd: i32) -> io::Result<()> {
            unsupported()
        }
        pub fn wait(&mut self, _out: &mut Vec<Event>, _timeout_ms: i32) -> io::Result<usize> {
            unsupported()
        }
    }

    pub struct Doorbell {}

    impl Doorbell {
        pub fn new() -> io::Result<Doorbell> {
            unsupported()
        }
        pub fn fd(&self) -> i32 {
            -1
        }
        pub fn ring(&self) {}
        pub fn drain(&self) {}
    }

    pub fn nofile_limits() -> io::Result<(u64, u64)> {
        unsupported()
    }

    pub fn raise_nofile_limit(_want: u64) -> io::Result<u64> {
        unsupported()
    }
}

/// A readiness poller (one epoll instance). Level-triggered: an fd that
/// still has unread data re-reports readable on the next [`Poller::wait`].
pub struct Poller {
    inner: imp::Poller,
}

impl Poller {
    /// Creates the epoll instance ([`io::ErrorKind::Unsupported`] when
    /// [`supported`] is false).
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: imp::Poller::new()?,
        })
    }

    /// Registers `fd` under `token` with the given interest. Full hangup
    /// and error conditions are always reported.
    pub fn add(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.add(fd, token, interest)
    }

    /// Changes the interest (and token) of an already-registered fd.
    pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Deregisters `fd`. Closing the fd deregisters it implicitly; this
    /// exists for fds that outlive their registration.
    pub fn remove(&mut self, fd: i32) -> io::Result<()> {
        self.inner.remove(fd)
    }

    /// Waits up to `timeout_ms` (`-1` = forever, `0` = poll) and fills
    /// `out` with ready events. Returns the event count; `EINTR` is
    /// absorbed and reported as zero events.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        self.inner.wait(out, timeout_ms)
    }
}

/// A cross-thread wakeup for the poll loop: any thread may
/// [`Doorbell::ring`]; the loop registers [`Doorbell::fd`] readable and
/// [`Doorbell::drain`]s on wakeup. Backed by a nonblocking `eventfd`.
pub struct Doorbell {
    inner: imp::Doorbell,
}

impl Doorbell {
    /// Creates the eventfd ([`io::ErrorKind::Unsupported`] when
    /// [`supported`] is false).
    pub fn new() -> io::Result<Doorbell> {
        Ok(Doorbell {
            inner: imp::Doorbell::new()?,
        })
    }

    /// The fd to register with a [`Poller`].
    pub fn fd(&self) -> i32 {
        self.inner.fd()
    }

    /// Wakes the poll loop. Never blocks; safe from any thread.
    pub fn ring(&self) {
        self.inner.ring()
    }

    /// Consumes pending rings so the fd stops reporting readable.
    pub fn drain(&self) {
        self.inner.drain()
    }
}

/// The process's (soft, hard) open-file limits.
pub fn nofile_limits() -> io::Result<(u64, u64)> {
    imp::nofile_limits()
}

/// Raises the soft open-file limit toward `want` (clamped to the hard
/// limit) and returns the resulting soft limit. High-connection-count
/// serving and the load tests call this so a conservative inherited
/// `ulimit -n` does not masquerade as a server defect.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    imp::raise_nofile_limit(want)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[test]
    fn doorbell_wakes_and_drains() {
        if !supported() {
            return;
        }
        let mut poller = Poller::new().expect("epoll");
        let bell = Doorbell::new().expect("eventfd");
        poller.add(bell.fd(), 7, Interest::READ).expect("add bell");
        let mut events = Vec::new();
        // Nothing rung: a zero-timeout wait sees nothing.
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty());
        bell.ring();
        bell.ring();
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        bell.drain();
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "drained doorbell must go quiet");
    }

    #[test]
    fn socket_readiness_and_hangup_are_reported() {
        if !supported() {
            return;
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");

        let mut poller = Poller::new().expect("epoll");
        poller
            .add(server_side.as_raw_fd(), 42, Interest::READ)
            .expect("add");
        let mut events = Vec::new();
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "no data yet");

        client.write_all(b"ping").expect("write");
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        drop(client);
        // Give the kernel a beat to deliver the FIN, then expect closed.
        std::thread::sleep(Duration::from_millis(10));
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        assert!(events[0].closed, "peer hangup must surface as closed");
    }

    #[test]
    fn half_close_is_reported_only_to_readers_and_full_hangup_always() {
        if !supported() {
            return;
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        let fd = server_side.as_raw_fd();

        let mut poller = Poller::new().expect("epoll");
        poller.add(fd, 5, Interest::READ).expect("add");
        client.shutdown(Shutdown::Write).expect("half-close");
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        assert!(events[0].closed, "a reader sees the half-close");
        assert!(!events[0].hung_up, "the peer can still read");

        // Without read interest a half-closed socket stays quiet:
        // level-triggered, it would otherwise report on every wait.
        poller.modify(fd, 5, Interest::NONE).expect("modify");
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "half-close must not wake a non-reader");

        // Closing our side too finishes both directions: reported even
        // with no interest at all.
        server_side.shutdown(Shutdown::Write).expect("shutdown");
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        assert!(events[0].hung_up, "a full hangup is always reported");
    }

    #[test]
    fn interest_modify_gates_writable_reporting() {
        if !supported() {
            return;
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");

        let mut poller = Poller::new().expect("epoll");
        let fd = server_side.as_raw_fd();
        poller.add(fd, 1, Interest::NONE).expect("add");
        let mut events = Vec::new();
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "no interest, no events");
        poller.modify(fd, 1, Interest::WRITE).expect("modify");
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        assert!(events[0].writable, "an idle socket is writable");
        poller.remove(fd).expect("remove");
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "removed fd must not report");
    }

    #[test]
    fn nofile_limit_is_readable_and_raisable() {
        if !supported() {
            return;
        }
        let (cur, max) = nofile_limits().expect("limits");
        assert!(cur >= 1 && max >= cur);
        // Re-raising to the current soft limit is a no-op that succeeds.
        assert_eq!(raise_nofile_limit(cur).expect("raise"), cur.max(cur));
    }
}
