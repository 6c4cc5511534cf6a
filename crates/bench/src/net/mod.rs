//! Nonblocking multiplexed serving — the network layer of `qross-serve
//! --listen`.
//!
//! One thread runs an event loop ([`serve_event_loop`]) multiplexing
//! every connection over the shared [`ServeEngine`] worker pool:
//!
//! * [`sys::Poller`] — epoll via a minimal FFI shim (`poll(2)` fallback),
//!   no tokio, no new dependencies;
//! * per-connection sans-IO state — a [`Session`] fed by nonblocking
//!   reads (sniffing NDJSON vs QBIN from the connection's first bytes,
//!   so both protocols share one listen port) and holding staged
//!   responses in request order, plus a write buffer flushed as the
//!   socket drains;
//! * a [`sys::WakePipe`] self-pipe: engine workers complete a prediction
//!   and wake the poller through the job's completion hook, so the loop
//!   never spins and never parks a thread per request. Answers the
//!   loop thread produces itself fire no hook: a cache hit is answered
//!   at staging, and a lone single-row predict that the engine held on
//!   an idle engine is run on the loop thread as soon as nothing more is
//!   buffered behind it, so both go out in the same pass;
//! * backpressure end to end: a connection stops being read the moment
//!   its staged-response window or write buffer fills, accepts pause at
//!   the connection cap (the `pipeline_depth`, `write_buf_bytes` and
//!   `max_conns` fields of [`EventLoopConfig`]), and persistent `accept`
//!   failures back off exponentially instead of spinning hot;
//! * observability: the loop registers its own counters on the engine's
//!   metrics registry — readiness events dispatched, backpressure read
//!   pauses, accepts and accept backoffs — all no-ops under `obs-off`;
//! * graceful drain: a shutdown flag stops accepting, finishes every
//!   in-flight response, then closes.
//!
//! Determinism contract: scheduling here chooses *when* bytes move,
//! never *what* they are — each connection's responses stay in request
//! order (the session), and prediction bytes are bit-identical to a
//! sequential stdio replay of the same per-connection log (the engine's
//! batching contract). CI enforces both.

pub mod sys;

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use qross::serve::{CompletionNotify, ServeEngine};

use crate::protocol::{Session, PIPELINE_DEPTH};
use sys::{Interest, PollEvent, Poller, WakePipe};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_CONN_BASE: u64 = 2;

/// First retry delay after a failed `accept`.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Ceiling for the accept retry delay.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Bounded exponential backoff for `accept` failures. A persistent
/// error (EMFILE being the classic) used to spin the accept loop at
/// 100% CPU printing warnings; with this, retries double from
/// [`ACCEPT_BACKOFF_MIN`] to [`ACCEPT_BACKOFF_MAX`] and reset on the
/// next successful accept. Shared by the event loop (as a poll
/// deadline) and the metrics endpoint (as a sleep).
#[derive(Debug)]
struct AcceptBackoff {
    next: Duration,
}

impl AcceptBackoff {
    fn new() -> Self {
        AcceptBackoff {
            next: ACCEPT_BACKOFF_MIN,
        }
    }

    /// Call on a successful accept: the next failure starts small again.
    fn reset(&mut self) {
        self.next = ACCEPT_BACKOFF_MIN;
    }

    /// Call on a failed accept: returns how long to wait before
    /// retrying, doubling up to the ceiling.
    fn failure(&mut self) -> Duration {
        let delay = self.next;
        self.next = (self.next * 2).min(ACCEPT_BACKOFF_MAX);
        delay
    }
}

/// Event-loop tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct EventLoopConfig {
    /// accept cap: connections beyond this wait in the kernel backlog
    /// (0 = default 1024)
    pub max_conns: usize,
    /// staged-but-unwritten responses per connection before its reads
    /// pause (0 = [`PIPELINE_DEPTH`])
    pub pipeline_depth: usize,
    /// buffered unwritten response bytes per connection before its
    /// reads pause (0 = 256 KiB)
    pub write_buf_bytes: usize,
    /// cooperative shutdown: set the flag and the loop stops accepting,
    /// drains every in-flight response, closes every connection, and
    /// returns
    pub shutdown: Option<Arc<AtomicBool>>,
}

impl EventLoopConfig {
    fn max_conns(&self) -> usize {
        if self.max_conns == 0 {
            1024
        } else {
            self.max_conns
        }
    }

    fn pipeline_depth(&self) -> usize {
        if self.pipeline_depth == 0 {
            PIPELINE_DEPTH
        } else {
            self.pipeline_depth
        }
    }

    fn write_buf_bytes(&self) -> usize {
        if self.write_buf_bytes == 0 {
            256 * 1024
        } else {
            self.write_buf_bytes
        }
    }
}

/// The event loop's own counters, registered on the engine's metrics
/// registry so one scrape covers the serving pipeline end to end.
/// Recording is a relaxed atomic add (nothing at all under `obs-off`);
/// registration happens once, at loop start.
struct NetObs {
    /// poller readiness events dispatched (listener + wake + sockets)
    readiness_events: Arc<obs::Counter>,
    /// connections whose reads were paused by backpressure (staged
    /// window or write buffer full) — transitions, not poll turns
    backpressure_pauses: Arc<obs::Counter>,
    /// connections accepted
    accepted: Arc<obs::Counter>,
    /// accept failures that parked the listener with a backoff delay
    accept_backoffs: Arc<obs::Counter>,
}

impl NetObs {
    fn new(registry: &obs::Registry) -> NetObs {
        NetObs {
            readiness_events: registry.counter(
                "qross_net_readiness_events_total",
                "poller readiness events dispatched by the serving event loop",
            ),
            backpressure_pauses: registry.counter(
                "qross_net_backpressure_pauses_total",
                "connection reads paused because the staged-response window or write buffer filled",
            ),
            accepted: registry.counter(
                "qross_net_accepted_total",
                "connections accepted by the serving event loop",
            ),
            accept_backoffs: registry.counter(
                "qross_net_accept_backoffs_total",
                "accept failures that parked the listener with an exponential backoff",
            ),
        }
    }
}

/// Minimal blocking HTTP/1.1 endpoint for `qross-serve
/// --metrics-listen`: `GET /metrics` answers the Prometheus text
/// exposition (format 0.0.4) covering the engine's registry (serve
/// pipeline, online trainer, event loop) plus the process-global one
/// (solver sweeps, per-family request counters). One connection at a
/// time — scrapes are rare and tiny, and keeping this loop trivial
/// means it cannot perturb the serving path it observes. Each scrape
/// calls [`ServeEngine::metrics`] first so sampled gauges (queue depth,
/// generation, replay depth) are fresh at render time.
pub fn serve_metrics_http(engine: &ServeEngine, listener: TcpListener) {
    let mut backoff = AcceptBackoff::new();
    loop {
        let mut stream = match listener.accept() {
            Ok((stream, _peer)) => {
                backoff.reset();
                stream
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                let delay = backoff.failure();
                eprintln!("warning: metrics accept failed: {e} (retrying in {delay:?})");
                std::thread::sleep(delay);
                continue;
            }
        };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        // Read the request head (scrapes are a handful of lines).
        let mut head = Vec::new();
        let mut buf = [0u8; 1024];
        while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => head.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        let request_line = head
            .split(|&b| b == b'\r' || b == b'\n')
            .next()
            .unwrap_or_default();
        let mut parts = request_line.split(|&b| b == b' ');
        let method = parts.next().unwrap_or_default();
        let path = parts.next().unwrap_or_default();
        let (status, body) = if method != b"GET" {
            ("405 Method Not Allowed", "method not allowed\n".to_string())
        } else if path == b"/metrics" || path == b"/" {
            // Refresh sampled gauges, then render both registries.
            let _ = engine.metrics();
            (
                "200 OK",
                obs::prom::render(&[engine.obs().registry(), obs::global()]),
            )
        } else {
            ("404 Not Found", "try /metrics\n".to_string())
        };
        let response = format!(
            "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        );
        let _ = stream.write_all(response.as_bytes());
        let _ = stream.flush();
    }
}

/// One multiplexed connection's state.
struct Conn {
    stream: TcpStream,
    session: Session,
    /// completion hook attached to this connection's staged requests
    notify: CompletionNotify,
    /// serialized response bytes not yet accepted by the socket
    out: Vec<u8>,
    /// prefix of `out` already written
    written: usize,
    /// interest currently registered with the poller
    registered: Interest,
}

impl Conn {
    fn unflushed(&self) -> usize {
        self.out.len() - self.written
    }

    /// Whether reads are paused by backpressure: the client must drain
    /// responses before we accept more of its requests.
    fn read_paused(&self, cfg: &EventLoopConfig) -> bool {
        self.session.in_flight() >= cfg.pipeline_depth()
            || self.unflushed() >= cfg.write_buf_bytes()
    }

    fn desired_interest(&self, cfg: &EventLoopConfig) -> Interest {
        Interest {
            readable: !self.session.input_closed() && !self.read_paused(cfg),
            writable: self.unflushed() > 0,
        }
    }

    fn finished(&self) -> bool {
        self.session.finished() && self.unflushed() == 0
    }
}

/// What [`EventLoop::drive`] decided about a connection.
enum Fate {
    Keep,
    Close,
}

/// Runs the nonblocking serving loop until shutdown (forever, without a
/// shutdown flag). See the module docs for the architecture.
///
/// # Errors
///
/// Fatal loop errors only: poller or wake-pipe construction/wait
/// failures. Per-connection I/O errors close that connection and keep
/// serving.
pub fn serve_event_loop(
    engine: &ServeEngine,
    listener: TcpListener,
    config: EventLoopConfig,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    let wake = WakePipe::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.register(wake.read_fd(), TOKEN_WAKE, Interest::READ)?;
    let mut el = EventLoop {
        engine,
        config,
        poller,
        wake,
        completed: Arc::new(Mutex::new(Vec::new())),
        conns: Vec::new(),
        live: 0,
        listener,
        listener_active: true,
        backoff: AcceptBackoff::new(),
        backoff_until: None,
        draining: false,
        obs: NetObs::new(engine.obs().registry()),
    };
    el.run()
}

struct EventLoop<'a> {
    engine: &'a ServeEngine,
    config: EventLoopConfig,
    poller: Poller,
    wake: WakePipe,
    /// tokens of connections whose queued engine jobs completed; pushed
    /// by worker threads through each request's completion hook, drained
    /// by the loop after a wake
    completed: Arc<Mutex<Vec<u64>>>,
    conns: Vec<Option<Conn>>,
    live: usize,
    listener: TcpListener,
    listener_active: bool,
    backoff: AcceptBackoff,
    backoff_until: Option<Instant>,
    draining: bool,
    obs: NetObs,
}

fn lock_completed(completed: &Mutex<Vec<u64>>) -> MutexGuard<'_, Vec<u64>> {
    match completed.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl EventLoop<'_> {
    fn run(&mut self) -> std::io::Result<()> {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            // Cooperative shutdown: stop accepting, force-drain every
            // connection (no new reads; in-flight responses complete).
            if !self.draining
                && self
                    .config
                    .shutdown
                    .as_ref()
                    .is_some_and(|flag| flag.load(Ordering::SeqCst))
            {
                self.draining = true;
                self.park_listener();
                for idx in 0..self.conns.len() {
                    if let Some(conn) = self.conns[idx].as_mut() {
                        conn.session.close_input();
                    }
                    self.step(idx);
                }
            }
            if self.draining && self.live == 0 {
                return Ok(());
            }

            // Re-arm the listener once an accept backoff expires or
            // capacity frees up.
            if !self.listener_active && !self.draining && self.live < self.config.max_conns() {
                let expired = self.backoff_until.is_none_or(|t| Instant::now() >= t);
                if expired {
                    self.backoff_until = None;
                    self.poller.register(
                        self.listener.as_raw_fd(),
                        TOKEN_LISTENER,
                        Interest::READ,
                    )?;
                    self.listener_active = true;
                }
            }

            let timeout_ms: i32 = if let Some(deadline) = self.backoff_until {
                deadline
                    .saturating_duration_since(Instant::now())
                    .as_millis()
                    .min(1000) as i32
                    + 1
            } else if self.config.shutdown.is_some() {
                // Bounded sleep so a shutdown request is noticed
                // promptly even with zero traffic.
                25
            } else {
                -1
            };
            self.poller.wait(&mut events, timeout_ms)?;
            self.obs.readiness_events.add(events.len() as u64);

            for ev in std::mem::take(&mut events) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => {
                        self.wake.drain();
                        let mut ready = std::mem::take(&mut *lock_completed(&self.completed));
                        ready.sort_unstable();
                        ready.dedup();
                        for token in ready {
                            self.step((token - TOKEN_CONN_BASE) as usize);
                        }
                    }
                    token => self.step((token - TOKEN_CONN_BASE) as usize),
                }
            }
        }
    }

    fn park_listener(&mut self) {
        if self.listener_active {
            let _ = self.poller.deregister(self.listener.as_raw_fd());
            self.listener_active = false;
        }
    }

    /// Accepts every pending connection up to the cap; parks the
    /// listener (with backoff) on persistent accept errors instead of
    /// spinning.
    fn accept_ready(&mut self) {
        loop {
            if self.live >= self.config.max_conns() {
                // At capacity: park the listener (level-triggered
                // polling would otherwise spin); re-armed when a
                // connection closes.
                self.park_listener();
                return;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.backoff.reset();
                    if stream.set_nonblocking(true).is_err() {
                        continue; // drop this connection, keep accepting
                    }
                    let idx = match self.conns.iter().position(Option::is_none) {
                        Some(idx) => idx,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1
                        }
                    };
                    let token = TOKEN_CONN_BASE + idx as u64;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue; // drop this connection, keep accepting
                    }
                    self.conns[idx] = Some(Conn {
                        stream,
                        session: Session::new(),
                        notify: self.conn_notify(token),
                        out: Vec::new(),
                        written: 0,
                        registered: Interest::READ,
                    });
                    self.live += 1;
                    self.obs.accepted.inc();
                    // The client may have sent requests before we
                    // registered; serving them now saves a loop turn.
                    self.step(idx);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Regression note: this arm used to loop straight
                    // back into accept — a persistent failure (EMFILE
                    // et al.) spun at 100% CPU printing warnings. Now
                    // the listener parks for a bounded, exponentially
                    // growing delay.
                    let delay = self.backoff.failure();
                    self.obs.accept_backoffs.inc();
                    eprintln!("warning: accept failed: {e} (retrying in {delay:?})");
                    self.park_listener();
                    self.backoff_until = Some(Instant::now() + delay);
                    return;
                }
            }
        }
    }

    /// The completion hook this connection's staged requests carry:
    /// records the connection as pumpable and wakes the poller.
    fn conn_notify(&self, token: u64) -> CompletionNotify {
        let completed = Arc::clone(&self.completed);
        let wake = self.wake.clone();
        Arc::new(move || {
            lock_completed(&completed).push(token);
            wake.wake();
        })
    }

    /// Runs one connection's state machine to quiescence and applies
    /// the outcome (interest update or close). Safe to call with a
    /// stale index — a recycled or empty slot is a no-op (a spurious
    /// pump on a recycled slot can only emit responses that were
    /// genuinely ready).
    fn step(&mut self, idx: usize) {
        let Some(mut conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        match self.drive(&mut conn) {
            Fate::Close => {
                let _ = self.poller.deregister(conn.stream.as_raw_fd());
                self.live -= 1;
                if self.live < self.config.max_conns()
                    && !self.listener_active
                    && !self.draining
                    && self.backoff_until.is_none()
                {
                    // Capacity freed: resume accepting.
                    if self
                        .poller
                        .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
                        .is_ok()
                    {
                        self.listener_active = true;
                    }
                }
            }
            Fate::Keep => {
                let want = conn.desired_interest(&self.config);
                if want != conn.registered {
                    if conn.registered.readable && !want.readable && !conn.session.input_closed() {
                        // Pause *transition* (not per poll turn): the
                        // staged window or write buffer just filled.
                        self.obs.backpressure_pauses.inc();
                    }
                    let fd = conn.stream.as_raw_fd();
                    if self
                        .poller
                        .modify(fd, TOKEN_CONN_BASE + idx as u64, want)
                        .is_err()
                    {
                        self.live -= 1;
                        return;
                    }
                    conn.registered = want;
                }
                self.conns[idx] = Some(conn);
            }
        }
    }

    /// The per-connection state machine: one bounded pass of read →
    /// decode → stage → pump → flush. Deliberately NOT a
    /// loop-until-quiescent: a pipelining client whose jobs complete as
    /// fast as the workers drain them would otherwise make "progress"
    /// indefinitely and pin the loop thread on one connection, starving
    /// every other socket. Whatever this pass leaves undone re-arms
    /// through level-triggered readiness or a completion wake. Work per
    /// pass is bounded by the pipelining window. `Close` means the
    /// stream should be dropped.
    fn drive(&mut self, conn: &mut Conn) -> Fate {
        let mut buf = [0u8; 16 * 1024];
        // Read while the socket has bytes and backpressure allows —
        // bounded: each staged request fills the pipelining window.
        while !conn.session.input_closed() && !conn.read_paused(&self.config) {
            match conn.stream.read(&mut buf) {
                Ok(0) => conn.session.close_input(),
                Ok(n) => {
                    conn.session.feed(&buf[..n]);
                    // Stage eagerly: staging is what advances the
                    // `read_paused` window.
                    self.stage_ready(conn);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
        self.stage_ready(conn);
        // Serialize every head-of-line-complete response in the
        // connection's sniffed wire format.
        if conn
            .session
            .pump(self.engine.obs(), &mut conn.out, false)
            .is_err()
        {
            return Fate::Close;
        }
        // Flush as much as the socket will take.
        while conn.unflushed() > 0 {
            match conn.stream.write(&conn.out[conn.written..]) {
                Ok(0) => return Fate::Close,
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
        if conn.written == conn.out.len() {
            conn.out.clear();
            conn.written = 0;
        } else if conn.written > 64 * 1024 {
            conn.out.drain(..conn.written);
            conn.written = 0;
        }
        // Flushing may have freed window space for lines still buffered
        // in the codec: stage (and serialize) them before recomputing
        // interest, so a fully-buffered session keeps moving even if
        // the socket never becomes readable again.
        self.stage_ready(conn);
        if conn
            .session
            .pump(self.engine.obs(), &mut conn.out, false)
            .is_err()
        {
            return Fate::Close;
        }
        if conn.finished() {
            Fate::Close
        } else {
            Fate::Keep
        }
    }

    /// Stages decoded items (either wire format) while the pipelining
    /// window and the write buffer have room; see [`Session::stage`].
    fn stage_ready(&self, conn: &mut Conn) {
        if !conn.read_paused(&self.config) {
            let window = self.config.pipeline_depth();
            conn.session.stage(self.engine, Some(&conn.notify), window);
        }
    }
}
