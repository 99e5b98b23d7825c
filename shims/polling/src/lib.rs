//! Offline stand-in for the readiness-polling API subset this workspace
//! uses: one [`Poller`] multiplexing many non-blocking sockets.
//!
//! The build environment has no crates.io access, so this crate vendors
//! the minimal surface the `bqs-net` I/O pool needs — register a raw
//! socket (a stream, a listener, or a [`wake_pair`] end) under a `usize`
//! key with a read/write interest, then block in [`Poller::wait`] until
//! any registered socket is ready (or a timeout elapses). Three
//! backends, picked at [`Poller::new`] time:
//!
//! * **epoll** (Linux) — level-triggered `epoll_create1`/`epoll_ctl`/
//!   `epoll_wait` through a minimal `extern "C"` shim. No `libc` crate:
//!   `std` already links the platform libc, so the symbols resolve.
//! * **kqueue** (macOS) — `kqueue`/`kevent` with `EVFILT_READ`/
//!   `EVFILT_WRITE`, also level-triggered.
//! * **fallback** (anywhere) — a portable round-robin scheduler that
//!   reports *every* registered source ready on each tick after a short
//!   sleep. Callers must therefore treat readiness as a hint and handle
//!   `WouldBlock` from the actual I/O call — which they must anyway,
//!   because readiness notification is allowed to be spurious on every
//!   real OS too. [`Poller::with_fallback`] forces this backend so the
//!   portable path stays testable on any host.
//!
//! Semantics shared by all backends:
//!
//! * **Level-triggered** — a source with unconsumed readable data is
//!   reported again on the next [`Poller::wait`]; nothing is lost by
//!   draining only part of a socket per tick.
//! * **One key per source** — registering the same source twice is an
//!   error on the OS backends; use [`Poller::modify`] to change
//!   interest.
//! * **Errors/hang-ups surface as readiness** — a closed or failed
//!   source reports readable (and writable when write interest is set),
//!   so the owner discovers the condition from the I/O call's result.

#![deny(missing_docs)]

use std::io;
use std::time::Duration;

/// The raw OS handle a source is registered by.
#[cfg(unix)]
pub type RawSource = std::os::unix::io::RawFd;
/// The raw OS handle a source is registered by.
#[cfg(not(unix))]
pub type RawSource = u64;

/// The raw registration handle of a socket on this platform: a stream,
/// a listener, or either end of a [`wake_pair`].
#[cfg(unix)]
pub fn source_of(socket: &impl std::os::unix::io::AsRawFd) -> RawSource {
    socket.as_raw_fd()
}

/// The raw registration handle of a socket on this platform: a stream,
/// a listener, or either end of a [`wake_pair`].
#[cfg(not(unix))]
pub fn source_of(socket: &impl std::os::windows::io::AsRawSocket) -> RawSource {
    socket.as_raw_socket()
}

/// One end of a [`wake_pair`]: a Unix socketpair end on unix, a
/// loopback TCP stream elsewhere.
#[cfg(unix)]
pub type WakeEnd = std::os::unix::net::UnixStream;
/// One end of a [`wake_pair`]: a Unix socketpair end on unix, a
/// loopback TCP stream elsewhere.
#[cfg(not(unix))]
pub type WakeEnd = std::net::TcpStream;

/// A connected pair of non-blocking stream sockets for waking a thread
/// out of [`Poller::wait`]: register the second end readable, and a
/// byte written to the first makes it ready at once. A write that finds
/// the pair full fails with `WouldBlock`, which is harmless: a wake-up
/// is already pending. On unix the pair is a socketpair; elsewhere,
/// where `std` has none, a loopback TCP connection.
pub fn wake_pair() -> io::Result<(WakeEnd, WakeEnd)> {
    #[cfg(unix)]
    let (tx, rx) = WakeEnd::pair()?;
    #[cfg(not(unix))]
    let (tx, rx) = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let tx = WakeEnd::connect(listener.local_addr()?)?;
        (tx, listener.accept()?.0)
    };
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

/// A readiness event: which registered key, and which directions are
/// ready. Also the *interest* shape passed to [`Poller::add`] /
/// [`Poller::modify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller-chosen key the source was registered under.
    pub key: usize,
    /// Readable (or closed/failed — read to find out).
    pub readable: bool,
    /// Writable (or failed — write to find out).
    pub writable: bool,
}

impl Event {
    /// Interest in readability only.
    pub fn readable(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: false,
        }
    }

    /// Interest in writability only.
    pub fn writable(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: true,
        }
    }

    /// Interest in both directions.
    pub fn all(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: true,
        }
    }
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    #[cfg(target_os = "macos")]
    Kqueue(kqueue::Kqueue),
    Fallback(fallback::Fallback),
}

/// A portable readiness poller over raw sockets. See the crate docs for
/// backend selection and semantics.
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// Opens a poller on the best backend this platform offers, falling
    /// back to the portable scheduler if the OS facility cannot be
    /// created (fd exhaustion, exotic kernels).
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            if let Ok(ep) = epoll::Epoll::new() {
                return Ok(Poller {
                    backend: Backend::Epoll(ep),
                });
            }
        }
        #[cfg(target_os = "macos")]
        {
            if let Ok(kq) = kqueue::Kqueue::new() {
                return Ok(Poller {
                    backend: Backend::Kqueue(kq),
                });
            }
        }
        Ok(Poller::with_fallback())
    }

    /// Opens a poller on the portable fallback backend, regardless of
    /// what the OS offers — the path tests force to stay portable.
    pub fn with_fallback() -> Poller {
        Poller {
            backend: Backend::Fallback(fallback::Fallback::new()),
        }
    }

    /// `true` when this poller runs the portable fallback (readiness is
    /// a round-robin hint, not an OS report).
    pub fn is_fallback(&self) -> bool {
        matches!(self.backend, Backend::Fallback(_))
    }

    /// Registers `source` under `interest.key` with the given interest.
    pub fn add(&self, source: RawSource, interest: Event) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.ctl(epoll::EPOLL_CTL_ADD, source, interest),
            #[cfg(target_os = "macos")]
            Backend::Kqueue(kq) => kq.set(source, interest),
            Backend::Fallback(fb) => fb.add(source, interest),
        }
    }

    /// Changes the interest of an already-registered `source`.
    pub fn modify(&self, source: RawSource, interest: Event) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.ctl(epoll::EPOLL_CTL_MOD, source, interest),
            #[cfg(target_os = "macos")]
            Backend::Kqueue(kq) => kq.set(source, interest),
            Backend::Fallback(fb) => fb.modify(source, interest),
        }
    }

    /// Removes `source` from the poller. Removing a source the poller
    /// no longer knows (e.g. already closed) is not an error.
    pub fn delete(&self, source: RawSource) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.delete(source),
            #[cfg(target_os = "macos")]
            Backend::Kqueue(kq) => kq.delete(source),
            Backend::Fallback(fb) => fb.delete(source),
        }
    }

    /// Blocks until at least one registered source is ready or `timeout`
    /// elapses (`None` = wait forever), clears `events` and fills it
    /// with the ready set. Returns the number of events delivered — 0
    /// means the timeout fired.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.wait(events, timeout),
            #[cfg(target_os = "macos")]
            Backend::Kqueue(kq) => kq.wait(events, timeout),
            Backend::Fallback(fb) => fb.wait(events, timeout),
        }
    }
}

/// The portable backend: a registry that reports everything ready on
/// each tick. A short sleep per [`Fallback::wait`] bounds the busy loop;
/// actual readiness is discovered by the caller's non-blocking I/O call
/// returning data or `WouldBlock`.
mod fallback {
    use super::{Event, RawSource};
    use std::collections::BTreeMap;
    use std::io;
    use std::sync::Mutex;
    use std::time::Duration;

    /// The tick the fallback sleeps before reporting everything ready —
    /// long enough not to spin a core, short enough to keep loopback
    /// latency invisible next to real work.
    const TICK: Duration = Duration::from_millis(1);

    pub(super) struct Fallback {
        sources: Mutex<BTreeMap<RawSource, Event>>,
    }

    impl Fallback {
        pub(super) fn new() -> Fallback {
            Fallback {
                sources: Mutex::new(BTreeMap::new()),
            }
        }

        fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<RawSource, Event>> {
            self.sources
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        pub(super) fn add(&self, source: RawSource, interest: Event) -> io::Result<()> {
            match self.lock().insert(source, interest) {
                None => Ok(()),
                Some(_) => Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "source already registered",
                )),
            }
        }

        pub(super) fn modify(&self, source: RawSource, interest: Event) -> io::Result<()> {
            match self.lock().get_mut(&source) {
                Some(slot) => {
                    *slot = interest;
                    Ok(())
                }
                None => Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "source not registered",
                )),
            }
        }

        pub(super) fn delete(&self, source: RawSource) -> io::Result<()> {
            self.lock().remove(&source);
            Ok(())
        }

        pub(super) fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let sleep = match timeout {
                Some(t) => t.min(TICK),
                None => TICK,
            };
            std::thread::sleep(sleep);
            for interest in self.lock().values() {
                if interest.readable || interest.writable {
                    events.push(*interest);
                }
            }
            Ok(events.len())
        }
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::{Event, RawSource};
    use std::io;
    use std::time::Duration;

    // x86_64 packs `epoll_event` to match the kernel ABI; every other
    // architecture uses natural alignment. Mirrors the declaration in
    // the platform libc.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub(super) const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    pub(super) const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Largest batch of events fetched per `epoll_wait` call.
    const MAX_EVENTS: usize = 1024;

    pub(super) struct Epoll {
        epfd: i32,
    }

    impl Epoll {
        pub(super) fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers; the returned fd is checked below and owned by Epoll (closed in Drop).
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { epfd })
        }

        pub(super) fn ctl(&self, op: i32, fd: RawSource, interest: Event) -> io::Result<()> {
            let mut flags = EPOLLRDHUP;
            if interest.readable {
                flags |= EPOLLIN;
            }
            if interest.writable {
                flags |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events: flags,
                data: interest.key as u64,
            };
            // SAFETY: `ev` is a live &mut to a properly initialised epoll_event for the duration of the call; epfd/fd are plain ints the kernel validates.
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn delete(&self, fd: RawSource) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // ENOENT/EBADF are fine: the source may already be closed,
            // which removes it from the epoll set implicitly.
            // SAFETY: as in ctl(): `ev` outlives the call (DEL ignores it on modern kernels but a valid pointer is passed anyway).
            let _ = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
            Ok(())
        }

        pub(super) fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
            };
            let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let n = loop {
                // SAFETY: `buf` is a stack array of MAX_EVENTS initialised epoll_events and we pass exactly that capacity; the kernel writes at most MAX_EVENTS entries and `n` is bounds-checked before the slice below.
                let n = unsafe {
                    epoll_wait(self.epfd, buf.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms)
                };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &buf[..n] {
                // Copy out of the (possibly packed) struct before use.
                let flags = ev.events;
                let key = ev.data;
                events.push(Event {
                    key: key as usize,
                    readable: flags & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                    writable: flags & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: close(2) on an fd this struct exclusively owns; double-close is impossible because Drop runs once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(target_os = "macos")]
mod kqueue {
    use super::{Event, RawSource};
    use std::io;
    use std::time::Duration;

    #[repr(C)]
    struct KEvent {
        ident: usize,
        filter: i16,
        flags: u16,
        fflags: u32,
        data: isize,
        udata: *mut std::ffi::c_void,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn kqueue() -> i32;
        fn kevent(
            kq: i32,
            changelist: *const KEvent,
            nchanges: i32,
            eventlist: *mut KEvent,
            nevents: i32,
            timeout: *const Timespec,
        ) -> i32;
        fn close(fd: i32) -> i32;
    }

    const EVFILT_READ: i16 = -1;
    const EVFILT_WRITE: i16 = -2;
    const EV_ADD: u16 = 0x0001;
    const EV_DELETE: u16 = 0x0002;
    const EV_DISABLE: u16 = 0x0008;
    const EV_EOF: u16 = 0x8000;
    const EV_ERROR: u16 = 0x4000;

    const MAX_EVENTS: usize = 1024;

    pub(super) struct Kqueue {
        kq: i32,
    }

    impl Kqueue {
        pub(super) fn new() -> io::Result<Kqueue> {
            // SAFETY: kqueue takes no arguments; the returned fd is checked below and owned by Kqueue (closed in Drop).
            let kq = unsafe { kqueue() };
            if kq < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Kqueue { kq })
        }

        fn change(&self, ident: RawSource, filter: i16, flags: u16, key: usize) -> io::Result<()> {
            let ev = KEvent {
                ident: ident as usize,
                filter,
                flags,
                fflags: 0,
                data: 0,
                udata: key as *mut std::ffi::c_void,
            };
            // SAFETY: `ev` is a live, fully initialised KEvent for the duration of the call; the zero-length event list makes the out-pointer (null) unused.
            if unsafe { kevent(self.kq, &ev, 1, std::ptr::null_mut(), 0, std::ptr::null()) } < 0 {
                let err = io::Error::last_os_error();
                // Disabling or deleting a filter that was never added is
                // an ENOENT this API treats as success.
                if err.raw_os_error() == Some(2) && flags & (EV_DELETE | EV_DISABLE) != 0 {
                    return Ok(());
                }
                return Err(err);
            }
            Ok(())
        }

        /// Add-or-update both filters to match `interest` (kqueue has no
        /// separate add/modify: `EV_ADD` upserts).
        pub(super) fn set(&self, fd: RawSource, interest: Event) -> io::Result<()> {
            if interest.readable {
                self.change(fd, EVFILT_READ, EV_ADD, interest.key)?;
            } else {
                self.change(fd, EVFILT_READ, EV_ADD | EV_DISABLE, interest.key)?;
            }
            if interest.writable {
                self.change(fd, EVFILT_WRITE, EV_ADD, interest.key)?;
            } else {
                self.change(fd, EVFILT_WRITE, EV_ADD | EV_DISABLE, interest.key)?;
            }
            Ok(())
        }

        pub(super) fn delete(&self, fd: RawSource) -> io::Result<()> {
            let _ = self.change(fd, EVFILT_READ, EV_DELETE, 0);
            let _ = self.change(fd, EVFILT_WRITE, EV_DELETE, 0);
            Ok(())
        }

        pub(super) fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let ts = timeout.map(|t| Timespec {
                tv_sec: t.as_secs().min(i64::MAX as u64) as i64,
                tv_nsec: i64::from(t.subsec_nanos()),
            });
            let ts_ptr = ts
                .as_ref()
                .map_or(std::ptr::null(), |t| t as *const Timespec);
            let mut buf: Vec<KEvent> = Vec::with_capacity(MAX_EVENTS);
            let n = loop {
                // SAFETY: `buf` has capacity for MAX_EVENTS KEvents and exactly that capacity is passed; the kernel writes at most that many entries and only the written prefix is exposed (set_len below).
                let n = unsafe {
                    kevent(
                        self.kq,
                        std::ptr::null(),
                        0,
                        buf.as_mut_ptr(),
                        MAX_EVENTS as i32,
                        ts_ptr,
                    )
                };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            // SAFETY: kevent returned n (≤ capacity) fully written entries just above, so the first n elements are initialised.
            unsafe { buf.set_len(n) };
            for ev in &buf {
                let eof = ev.flags & (EV_EOF | EV_ERROR) != 0;
                events.push(Event {
                    key: ev.udata as usize,
                    readable: ev.filter == EVFILT_READ || eof,
                    writable: ev.filter == EVFILT_WRITE || eof,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Kqueue {
        fn drop(&mut self) {
            // SAFETY: close(2) on an fd this struct exclusively owns; Drop runs once.
            unsafe {
                close(self.kq);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let a = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn os_backend_reports_readability_only_when_data_is_pending() {
        let poller = Poller::new().expect("poller");
        if poller.is_fallback() {
            return; // platform without an OS backend: covered below
        }
        let (mut a, b) = loopback_pair();
        b.set_nonblocking(true).unwrap();
        poller.add(source_of(&b), Event::readable(7)).unwrap();

        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "no data yet: timeout, not readiness");

        a.write_all(b"ping").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].key, 7);
        assert!(events[0].readable);

        // Level-triggered: unread data re-reports until consumed.
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let mut buf = [0u8; 8];
        let got = {
            let mut b = &b;
            b.read(&mut buf).unwrap()
        };
        assert_eq!(&buf[..got], b"ping");
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "drained: back to timeout");

        poller.delete(source_of(&b)).unwrap();
    }

    #[test]
    fn os_backend_write_interest_and_modify() {
        let poller = Poller::new().expect("poller");
        if poller.is_fallback() {
            return;
        }
        let (_a, b) = loopback_pair();
        b.set_nonblocking(true).unwrap();
        // A fresh socket with buffer space is immediately writable.
        poller.add(source_of(&b), Event::all(3)).unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.key == 3 && e.writable));
        // Dropping write interest silences it.
        poller.modify(source_of(&b), Event::readable(3)).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn fallback_reports_every_registered_source_as_a_hint() {
        let poller = Poller::with_fallback();
        assert!(poller.is_fallback());
        let (_a, b) = loopback_pair();
        let (_c, d) = loopback_pair();
        poller.add(source_of(&b), Event::readable(1)).unwrap();
        poller.add(source_of(&d), Event::all(2)).unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 2, "fallback reports everything registered");
        let mut keys: Vec<usize> = events.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2]);
        poller.delete(source_of(&b)).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].key, 2);
        // Double registration is refused, modify of a stranger too.
        assert!(poller.add(source_of(&d), Event::all(9)).is_err());
        assert!(poller.modify(source_of(&b), Event::all(9)).is_err());
    }

    #[test]
    fn os_backend_reports_a_listener_with_a_pending_connection() {
        let poller = Poller::new().expect("poller");
        if poller.is_fallback() {
            return;
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).unwrap();
        poller
            .add(source_of(&listener), Event::readable(5))
            .unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "nobody connecting: timeout");
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!((n, events[0].key), (1, 5));
        let _served = listener.accept().expect("a pending connection");
        assert_eq!(
            listener.accept().unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
    }

    #[test]
    fn a_wake_pair_byte_wakes_the_poller_and_drains() {
        let poller = Poller::new().expect("poller");
        let (tx, rx) = wake_pair().expect("wake pair");
        poller
            .add(source_of(&rx), Event::readable(usize::MAX))
            .unwrap();
        (&tx).write_all(&[1]).unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(n >= 1 && events[0].key == usize::MAX);
        let mut buf = [0u8; 8];
        assert_eq!((&rx).read(&mut buf).unwrap(), 1);
        // Both ends are non-blocking: an empty pair reads `WouldBlock`.
        let err = (&rx).read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn fallback_wait_with_nothing_registered_times_out() {
        let poller = Poller::with_fallback();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0);
    }
}
