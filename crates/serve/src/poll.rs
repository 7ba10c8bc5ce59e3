//! Readiness polling for the event loop: libc's `epoll` and a
//! socket-pair doorbell.
//!
//! `std` exposes no readiness API and the workspace takes no external
//! crates, so, as [`crate::signal`] does for `signal`, this module
//! declares the libc functions it needs in one `extern "C"` block:
//! `epoll_create1`, `epoll_ctl`, `epoll_wait`, `getrlimit` and
//! `setrlimit` (std already links libc on every Unix target). All
//! `unsafe` lives in the private `sys` module, a narrowly-scoped opt-out
//! from the crate's `deny(unsafe_code)`: each wrapper turns libc's `-1`
//! into [`io::Error::last_os_error`], and the epoll instance is held as
//! an [`OwnedFd`](std::os::fd::OwnedFd), so it closes on drop.
//!
//! The public surface is safe and minimal:
//!
//! - [`Poller`] — an epoll instance. Register file descriptors with a
//!   caller-chosen `u64` token and an [`Interest`]; [`Poller::wait`]
//!   fills a buffer of [`Event`]s (level-triggered, so a handler that
//!   reads until `WouldBlock` never loses data).
//! - [`Doorbell`] — a nonblocking Unix socket pair that wakes the poll
//!   loop from another thread: [`Doorbell::ring`] writes a byte; the loop
//!   registers [`Doorbell::fd`] and calls [`Doorbell::drain`] on wakeup.
//! - [`supported`] — whether this target can poll at all. Elsewhere
//!   every constructor returns [`io::ErrorKind::Unsupported`], which is
//!   the error [`crate::Server::bind`] reports there: the server has no
//!   other front.
//!
//! Tokens, not pointers, ride in `epoll_data`: the loop owns a map from
//! token to connection, so there is no aliasing to get wrong and a stale
//! event for a closed connection is just a failed map lookup.

use std::io;
#[cfg(unix)]
use std::{
    io::{Read, Write},
    os::{fd::AsRawFd, unix::net::UnixStream},
};
#[cfg(not(unix))]
use sys::UnixStream;

/// True when readiness polling works on this target (Linux on x86_64 or
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

/// The kernel's `struct epoll_event`. Packed on x86_64 only — that is
/// the one ABI where the struct is unaligned; everywhere else it has
/// natural alignment.
#[derive(Clone, Copy, Default)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
mod sys {
    //! The libc calls. Nothing here is public outside [`super`].

    use super::EpollEvent;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};

    /// An epoll instance; dropping it closes the descriptor.
    pub type Epoll = OwnedFd;

    /// `struct rlimit`: `rlim_t` is 64 bits on both supported targets.
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }

    const EPOLL_CLOEXEC: i32 = 0x80000;
    const RLIMIT_NOFILE: i32 = 7;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }

    /// libc's convention: `-1` is failure, with the cause in `errno`.
    fn check(ret: i32) -> io::Result<i32> {
        if ret == -1 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub fn create() -> io::Result<Epoll> {
        // SAFETY: no pointers cross the call; it only allocates a fd.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` was just opened by the kernel and nothing else
        // owns it.
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    pub fn ctl(ep: &Epoll, op: i32, fd: i32, event: Option<&mut EpollEvent>) -> io::Result<()> {
        let ptr = event.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
        // SAFETY: `ptr` is null (which `EPOLL_CTL_DEL` allows) or points
        // at an event borrowed for the duration of the call.
        check(unsafe { epoll_ctl(ep.as_raw_fd(), op, fd, ptr) }).map(drop)
    }

    pub fn wait(ep: &Epoll, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = i32::try_from(buf.len()).unwrap_or(i32::MAX);
        // SAFETY: the kernel writes at most `max` events, and `buf` holds
        // at least that many.
        let n = check(unsafe { epoll_wait(ep.as_raw_fd(), buf.as_mut_ptr(), max, timeout_ms) })?;
        Ok(n as usize)
    }

    /// The process's (soft, hard) open-file limits.
    pub fn nofile_limits() -> io::Result<(u64, u64)> {
        let mut lim = RLimit { cur: 0, max: 0 };
        // SAFETY: `lim` is a valid `struct rlimit` the call writes into.
        check(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
        Ok((lim.cur, lim.max))
    }

    pub fn set_nofile_limits(cur: u64, max: u64) -> io::Result<()> {
        let lim = RLimit { cur, max };
        // SAFETY: `lim` is a valid `struct rlimit` the call only reads.
        check(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }).map(drop)
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    //! Unsupported targets: every entry point fails, and no epoll
    //! instance can exist.

    use super::EpollEvent;
    use std::io;

    /// Uninhabited: nothing can create one here.
    pub enum Epoll {}

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "readiness polling requires linux on x86_64 or aarch64",
        ))
    }

    pub fn create() -> io::Result<Epoll> {
        unsupported()
    }

    pub fn ctl(ep: &Epoll, _op: i32, _fd: i32, _ev: Option<&mut EpollEvent>) -> io::Result<()> {
        match *ep {}
    }

    pub fn wait(ep: &Epoll, _buf: &mut [EpollEvent], _timeout_ms: i32) -> io::Result<usize> {
        match *ep {}
    }

    /// The process's (soft, hard) open-file limits.
    pub fn nofile_limits() -> io::Result<(u64, u64)> {
        unsupported()
    }

    pub fn set_nofile_limits(_cur: u64, _max: u64) -> io::Result<()> {
        unsupported()
    }

    /// Non-Unix targets have no socket pair either; uninhabited, like
    /// [`Epoll`], with the calls [`super::Doorbell`] makes.
    #[cfg(not(unix))]
    pub enum UnixStream {}

    #[cfg(not(unix))]
    impl UnixStream {
        pub fn pair() -> io::Result<(UnixStream, UnixStream)> {
            unsupported()
        }
        pub fn set_nonblocking(&self, _on: bool) -> io::Result<()> {
            match *self {}
        }
        pub fn as_raw_fd(&self) -> i32 {
            match *self {}
        }
        pub fn read(&self, _buf: &mut [u8]) -> io::Result<usize> {
            match *self {}
        }
        pub fn write(&self, _buf: &[u8]) -> io::Result<usize> {
            match *self {}
        }
    }
}

/// The registration for `token` with `interest`. `EPOLLERR | EPOLLHUP`
/// are implicit in every registration. The half-close bit rides with
/// read interest only: it is level-triggered, so watching it on a
/// connection that no longer reads would wake every wait until the
/// connection closes.
fn registration(token: u64, interest: Interest) -> EpollEvent {
    let mut events = 0;
    if interest.readable {
        events |= EPOLLIN | EPOLLRDHUP;
    }
    if interest.writable {
        events |= EPOLLOUT;
    }
    EpollEvent {
        events,
        data: token,
    }
}

/// A readiness poller (one epoll instance). Level-triggered: an fd that
/// still has unread data re-reports readable on the next [`Poller::wait`].
pub struct Poller {
    epfd: sys::Epoll,
    buf: Vec<EpollEvent>,
}

impl Poller {
    /// Creates the epoll instance ([`io::ErrorKind::Unsupported`] when
    /// [`supported`] is false).
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys::create()?,
            buf: vec![EpollEvent::default(); 1024],
        })
    }

    /// Registers `fd` under `token` with the given interest. Full hangup
    /// and error conditions are always reported.
    pub fn add(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = registration(token, interest);
        sys::ctl(&self.epfd, EPOLL_CTL_ADD, fd, Some(&mut ev))
    }

    /// Changes the interest (and token) of an already-registered fd.
    pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = registration(token, interest);
        sys::ctl(&self.epfd, EPOLL_CTL_MOD, fd, Some(&mut ev))
    }

    /// Deregisters `fd`. Closing the fd deregisters it implicitly; this
    /// exists for fds that outlive their registration.
    pub fn remove(&mut self, fd: i32) -> io::Result<()> {
        sys::ctl(&self.epfd, EPOLL_CTL_DEL, fd, None)
    }

    /// Waits up to `timeout_ms` (`-1` = forever, `0` = poll) and fills
    /// `out` with ready events. Returns the event count; `EINTR` is
    /// absorbed and reported as zero events.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        out.clear();
        let n = match sys::wait(&self.epfd, &mut self.buf, timeout_ms) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for raw in &self.buf[..n] {
            // Copy packed fields out by value; references into a packed
            // struct would be unaligned.
            let events = { raw.events };
            out.push(Event {
                token: { raw.data },
                readable: events & EPOLLIN != 0,
                writable: events & EPOLLOUT != 0,
                closed: events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                hung_up: events & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

/// A cross-thread wakeup for the poll loop: any thread may
/// [`Doorbell::ring`]; the loop registers [`Doorbell::fd`] readable and
/// [`Doorbell::drain`]s on wakeup. Backed by a nonblocking
/// [`UnixStream::pair`].
pub struct Doorbell {
    rx: UnixStream,
    tx: UnixStream,
}

impl Doorbell {
    /// Creates the socket pair.
    pub fn new() -> io::Result<Doorbell> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Doorbell { rx, tx })
    }

    /// The fd to register with a [`Poller`].
    pub fn fd(&self) -> i32 {
        self.rx.as_raw_fd()
    }

    /// Wakes the poll loop. Never blocks; safe from any thread.
    pub fn ring(&self) {
        // `WouldBlock` means the socket is full of unread rings: the loop
        // is bound to wake, which is all a ring promises.
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes pending rings so the fd stops reporting readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

pub use sys::nofile_limits;

/// Raises the soft open-file limit toward `want` (clamped to the hard
/// limit) and returns the resulting soft limit. [`crate::Server::bind`]
/// calls this so a conservative inherited `ulimit -n` does not cap the
/// connection ceiling below what the hard limit allows.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let (cur, max) = nofile_limits()?;
    let target = want.min(max);
    if target <= cur {
        return Ok(cur);
    }
    sys::set_nofile_limits(target, max)?;
    Ok(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::time::Duration;

    #[test]
    fn doorbell_wakes_and_drains() {
        if !supported() {
            return;
        }
        let mut poller = Poller::new().expect("epoll");
        let bell = Doorbell::new().expect("socket pair");
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
        // More rings than the socket buffer holds never block, and one
        // drain still empties it.
        for _ in 0..10_000 {
            bell.ring();
        }
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1, "a full doorbell still wakes the loop");
        bell.drain();
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "drain empties a full doorbell");
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
        assert_eq!(raise_nofile_limit(cur).expect("raise"), cur);
    }

    #[test]
    fn errors_carry_errno() {
        if !supported() {
            return;
        }
        // Removing an fd that was never registered fails ENOENT, read
        // from errno.
        let mut poller = Poller::new().expect("epoll");
        let bell = Doorbell::new().expect("socket pair");
        let err = poller.remove(bell.fd()).expect_err("not registered");
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
    }
}
