//! A thin, zero-dependency readiness reactor over `poll(2)`.
//!
//! The event loop in [`crate::server`] needs exactly three primitives:
//! register a socket under a token with a read/write interest, block
//! until one of them is ready (or a timeout lapses), and be woken from
//! another thread. This module provides all three with nothing beyond
//! `std` — the `poll` syscall is declared directly (the same discipline
//! `overlapd` already uses for `signal(2)`), and the cross-thread
//! [`Waker`] is a loopback TCP socket pair, which is portable and
//! async-signal-safe to write to.
//!
//! Readiness is *level-triggered*: a socket with buffered bytes (or
//! writable space) reports ready on every poll until it is drained.
//! Consumers must therefore read/write until `WouldBlock` — exactly
//! what the incremental `FrameReader` and the buffered [`crate::server`]
//! writer do — but can never lose an edge.
//!
//! On non-Unix hosts (where there is no `poll`) the same API degrades
//! to a bounded sleep that reports every registered socket ready.
//! Spurious readiness is harmless with nonblocking I/O — each consumer
//! immediately observes `WouldBlock` and moves on — it only costs CPU,
//! and only on platforms this daemon does not target.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Identifies one registered socket across [`Poller::poll`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// What to watch a socket for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when a read would make progress (or the peer hung up).
    pub readable: bool,
    /// Wake when a write would make progress.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest (the common steady state of a connection).
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Read + write interest (a connection with buffered output).
    pub const READ_WRITE: Interest = Interest { readable: true, writable: true };
}

/// One readiness report from [`Poller::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the socket was registered under.
    pub token: Token,
    /// A read would make progress.
    pub readable: bool,
    /// A write would make progress.
    pub writable: bool,
    /// The peer closed or the socket errored (`POLLHUP`/`POLLERR`/
    /// `POLLNVAL`). Reads still drain whatever is buffered first.
    pub hangup: bool,
}

#[cfg(unix)]
mod sys {
    use std::os::unix::io::RawFd;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// Mirrors `struct pollfd`; layout fixed by POSIX.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        // POSIX `poll(2)`. `nfds_t` is `unsigned long` on every libc
        // this builds against.
        pub fn poll(
            fds: *mut PollFd,
            nfds: std::os::raw::c_ulong,
            timeout: std::os::raw::c_int,
        ) -> std::os::raw::c_int;
    }
}

/// The raw descriptor type registrations are keyed on. On non-Unix
/// hosts there are no descriptors; tokens alone identify sockets.
#[cfg(unix)]
type Fd = std::os::unix::io::RawFd;
#[cfg(not(unix))]
type Fd = usize;

/// Anything the reactor can watch.
pub trait Pollable {
    /// The raw descriptor to poll (ignored on non-Unix hosts).
    fn raw(&self) -> Fd;
}

#[cfg(unix)]
impl Pollable for TcpStream {
    fn raw(&self) -> Fd {
        std::os::unix::io::AsRawFd::as_raw_fd(self)
    }
}

#[cfg(unix)]
impl Pollable for TcpListener {
    fn raw(&self) -> Fd {
        std::os::unix::io::AsRawFd::as_raw_fd(self)
    }
}

#[cfg(not(unix))]
impl Pollable for TcpStream {
    fn raw(&self) -> Fd {
        0
    }
}

#[cfg(not(unix))]
impl Pollable for TcpListener {
    fn raw(&self) -> Fd {
        0
    }
}

/// A level-triggered readiness multiplexer. Registrations persist
/// until [`Poller::deregister`]; interests change with
/// [`Poller::set_interest`] (cheap — the poll set is rebuilt per call
/// from the registration map, which stays small: one entry per live
/// connection).
pub struct Poller {
    registered: HashMap<Token, (Fd, Interest)>,
    /// Scratch reused across polls to avoid per-tick allocation.
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
    #[cfg(unix)]
    tokens: Vec<Token>,
    events: Vec<Event>,
}

impl Default for Poller {
    fn default() -> Self {
        Self::new()
    }
}

impl Poller {
    /// An empty poller.
    #[must_use]
    pub fn new() -> Poller {
        Poller {
            registered: HashMap::new(),
            #[cfg(unix)]
            fds: Vec::new(),
            #[cfg(unix)]
            tokens: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Watches `source` under `token`. A token may only be registered
    /// once; re-registering replaces the previous entry.
    pub fn register(&mut self, source: &impl Pollable, token: Token, interest: Interest) {
        self.registered.insert(token, (source.raw(), interest));
    }

    /// Updates what `token` is watched for. No-op for unknown tokens.
    pub fn set_interest(&mut self, token: Token, interest: Interest) {
        if let Some(entry) = self.registered.get_mut(&token) {
            entry.1 = interest;
        }
    }

    /// Stops watching `token`.
    pub fn deregister(&mut self, token: Token) {
        self.registered.remove(&token);
    }

    /// Number of live registrations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.registered.len()
    }

    /// Whether nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.registered.is_empty()
    }

    /// Blocks until at least one registered socket is ready or
    /// `timeout` lapses, and returns the ready set (empty on timeout).
    ///
    /// Sockets registered with neither interest are still watched for
    /// hangup, so a half-closed idle connection is noticed.
    #[cfg(unix)]
    pub fn poll(&mut self, timeout: Duration) -> &[Event] {
        self.events.clear();
        self.fds.clear();
        self.tokens.clear();
        for (&token, &(fd, interest)) in &self.registered {
            let mut events = 0i16;
            if interest.readable {
                events |= sys::POLLIN;
            }
            if interest.writable {
                events |= sys::POLLOUT;
            }
            self.fds.push(sys::PollFd { fd, events, revents: 0 });
            self.tokens.push(token);
        }
        let millis = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        let n = unsafe {
            sys::poll(self.fds.as_mut_ptr(), self.fds.len() as std::os::raw::c_ulong, millis)
        };
        if n <= 0 {
            // Timeout, EINTR, or an empty set; the caller re-checks its
            // own flags and polls again either way.
            return &self.events;
        }
        for (fd, &token) in self.fds.iter().zip(&self.tokens) {
            let r = fd.revents;
            if r == 0 {
                continue;
            }
            self.events.push(Event {
                token,
                readable: r & sys::POLLIN != 0,
                writable: r & sys::POLLOUT != 0,
                hangup: r & (sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0,
            });
        }
        &self.events
    }

    /// Portable fallback: sleep a bounded slice of `timeout`, then
    /// report every registered socket ready for its interests. With
    /// nonblocking sockets a spurious report costs one `WouldBlock`.
    #[cfg(not(unix))]
    pub fn poll(&mut self, timeout: Duration) -> &[Event] {
        self.events.clear();
        std::thread::sleep(timeout.min(Duration::from_millis(5)));
        for (&token, &(_, interest)) in &self.registered {
            self.events.push(Event {
                token,
                readable: interest.readable,
                writable: interest.writable,
                hangup: false,
            });
        }
        &self.events
    }
}

/// Wakes a [`Poller`] blocked in [`Poller::poll`] from another thread.
///
/// Implemented as a loopback TCP socket pair: [`Waker::wake`] writes
/// one byte to the send half; the receive half is registered in the
/// poller and reports readable. Multiple wakes between polls collapse
/// into one readable event; [`Waker::drain`] clears the buffered bytes
/// so a wake is consumed exactly once.
pub struct Waker {
    tx: TcpStream,
    rx: TcpStream,
}

impl Waker {
    /// Builds the socket pair. The listener exists only for the
    /// handshake and is dropped immediately.
    ///
    /// # Errors
    ///
    /// Returns the underlying socket error (loopback must be usable).
    pub fn new() -> std::io::Result<Waker> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nodelay(true).ok();
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// The half to register in the poller (readable interest).
    #[must_use]
    pub fn reader(&self) -> &TcpStream {
        &self.rx
    }

    /// Wakes the poller. Cheap, thread-safe (`&self` writes on a
    /// shared socket are atomic for one byte), and best-effort: a full
    /// pipe means a wake is already pending, which is all we need.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Consumes every pending wake byte. Call on each readable event
    /// for the waker's token.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while let Ok(n) = (&self.rx).read(&mut sink) {
            if n == 0 {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn timeout_returns_empty() {
        let mut poller = Poller::new();
        let (a, _b) = pair();
        poller.register(&a, Token(1), Interest::READ);
        let events = poller.poll(Duration::from_millis(10));
        assert!(events.iter().all(|e| !e.readable), "nothing was written yet");
    }

    #[test]
    fn readable_when_bytes_arrive_and_writable_when_registered() {
        let mut poller = Poller::new();
        let (a, mut b) = pair();
        poller.register(&a, Token(7), Interest::READ_WRITE);
        b.write_all(b"x").unwrap();
        // Wait out scheduling: the byte must eventually surface.
        let mut saw_read = false;
        let mut saw_write = false;
        for _ in 0..200 {
            for e in poller.poll(Duration::from_millis(25)) {
                assert_eq!(e.token, Token(7));
                saw_read |= e.readable;
                saw_write |= e.writable;
            }
            if saw_read && saw_write {
                break;
            }
        }
        assert!(saw_read, "one byte was in flight");
        assert!(saw_write, "an empty socket buffer is writable");
    }

    #[test]
    fn hangup_is_reported_after_peer_close() {
        let mut poller = Poller::new();
        let (a, b) = pair();
        poller.register(&a, Token(3), Interest::READ);
        drop(b);
        let mut closed = false;
        for _ in 0..200 {
            for e in poller.poll(Duration::from_millis(25)) {
                // A close surfaces as hangup and/or a readable EOF;
                // either is enough for the loop to notice.
                closed |= e.hangup || e.readable;
            }
            if closed {
                break;
            }
        }
        assert!(closed, "peer close never surfaced");
    }

    #[test]
    fn waker_wakes_a_blocked_poll_and_drains() {
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        let mut poller = Poller::new();
        const WAKE: Token = Token(0);
        poller.register(waker.reader(), WAKE, Interest::READ);

        let remote = std::sync::Arc::clone(&waker);
        let mut helper = Some(std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
            remote.wake(); // coalesces with the first
        }));
        let mut woke = false;
        for _ in 0..200 {
            let events = poller.poll(Duration::from_millis(25));
            if events.iter().any(|e| e.token == WAKE && e.readable) {
                // The first wake can surface before the second lands;
                // join first so the drain sees both.
                helper.take().expect("joined once").join().unwrap();
                waker.drain();
                woke = true;
                break;
            }
        }
        if let Some(helper) = helper {
            helper.join().unwrap();
        }
        assert!(woke, "wake() must interrupt poll()");
        // Drained: the next poll times out quietly.
        let events = poller.poll(Duration::from_millis(10));
        assert!(events.iter().all(|e| !(e.token == WAKE && e.readable)));
    }

    #[test]
    fn deregister_and_set_interest_change_the_watch_set() {
        let mut poller = Poller::new();
        let (a, mut b) = pair();
        poller.register(&a, Token(1), Interest::READ);
        assert_eq!(poller.len(), 1);
        b.write_all(b"y").unwrap();
        poller.deregister(Token(1));
        assert!(poller.is_empty());
        let events = poller.poll(Duration::from_millis(10));
        assert!(events.is_empty(), "deregistered sockets never report");

        poller.register(&a, Token(2), Interest { readable: false, writable: false });
        // Interest off: the buffered byte must not report readable.
        let quiet = poller.poll(Duration::from_millis(10)).iter().any(|e| e.readable);
        assert!(!quiet);
        poller.set_interest(Token(2), Interest::READ);
        let mut loud = false;
        for _ in 0..200 {
            loud = poller.poll(Duration::from_millis(25)).iter().any(|e| e.readable);
            if loud {
                break;
            }
        }
        assert!(loud, "restored interest must surface the byte");
    }
}
