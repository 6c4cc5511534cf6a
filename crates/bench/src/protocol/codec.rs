//! Sans-IO halves of a serving session, protocol-agnostic.
//!
//! [`SessionCodec`] turns arbitrary byte chunks into framed requests —
//! the caller owns the socket/pipe/file; the codec only ever sees
//! `&[u8]`, so any chunking (1-byte reads, jumbo frames, whatever the
//! kernel hands a nonblocking read) decodes to the identical item
//! sequence. Each connection speaks **either** NDJSON or QBIN, decided
//! once by sniffing the first bytes: a stream opening with the exact
//! [`bin::QBIN_MAGIC`] is binary, anything else (JSON's `{`, leading
//! whitespace, blank lines) is NDJSON. The sniff survives pathological
//! chunking — a 1-byte first read, the magic split across two chunks, a
//! client that sends only the magic and stalls — because the decision
//! waits until the prefix either completes the magic or diverges from
//! it.
//!
//! [`Session`] is the whole per-connection core around it: the codec,
//! the staged responses in request order, and the EOF state. It submits
//! decoded requests to the engine and serializes each response as soon
//! as it — and everything before it — is complete, into a caller-owned
//! byte buffer, as NDJSON lines or QBIN frames to match the connection's
//! protocol.
//!
//! Both transports run over one `Session` per connection: the blocking
//! stdio shell ([`super::serve_connection`]) and the nonblocking event
//! loop (`bench::net`). That is what makes "byte-identical at any
//! connection count" a structural property rather than a test hope.

use std::collections::VecDeque;

use qross::serve::{CompletionNotify, ServeEngine, ServeObs};

use super::{bin, emit_line, emit_pending, emit_response, stage_item, Staged};

/// Longest accepted request line (bytes, newline excluded). A client
/// streaming one endless line used to grow the read buffer without
/// bound — a reject-never-OOM violation; past this cap the line is
/// dropped (not buffered) and answered with a typed bad-request error.
/// 1 MiB comfortably fits every legitimate op, including TSPLIB uploads
/// of the sizes this repo trains on. QBIN frames get the same cap on
/// their declared payload length ([`bin::MAX_FRAME_BYTES`]).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Which wire protocol a connection speaks, decided once per connection
/// by sniffing its first bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// one JSON request/response per line
    Ndjson,
    /// length-framed binary ([`bin`])
    Qbin,
}

/// One decoded item from an NDJSON request byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecLine {
    /// a complete request line (newline stripped, CRLF-tolerant)
    Line(String),
    /// a line longer than the codec's cap; its bytes were discarded
    Oversized {
        /// the cap that was exceeded ([`MAX_LINE_BYTES`] by default)
        limit: usize,
    },
    /// a complete line that was not valid UTF-8
    InvalidUtf8,
}

/// One decoded item from the session byte stream, either protocol.
/// Frame payloads borrow the codec's buffer (zero-copy) and stay valid
/// until the next `feed`.
#[derive(Debug)]
pub enum WireItem<'a> {
    /// an NDJSON item
    Line(CodecLine),
    /// a complete, CRC-verified QBIN frame
    Frame(bin::Frame<'a>),
    /// a QBIN framing-level reject (oversized, corrupt, truncated…)
    FrameError(bin::BinError),
}

/// Incremental NDJSON request-line decoder.
///
/// Mirrors `BufRead::lines` for well-formed input: splits on `\n`,
/// strips one trailing `\r` from terminated lines, and yields a final
/// unterminated line at EOF. Unlike `lines()`, it is bounded
/// ([`MAX_LINE_BYTES`]) and survives invalid UTF-8 by reporting it as an
/// item instead of an error.
#[derive(Debug)]
struct LineCodec {
    buf: Vec<u8>,
    /// prefix of `buf` already scanned and known newline-free — feeds
    /// resume scanning where they left off, so a line arriving in many
    /// small chunks costs O(len), not O(len²)
    scanned: usize,
    /// inside an over-limit line: drop bytes until the next newline
    discarding: bool,
    limit: usize,
}

impl LineCodec {
    fn with_limit(limit: usize) -> Self {
        LineCodec {
            buf: Vec::new(),
            scanned: 0,
            discarding: false,
            limit: limit.max(1),
        }
    }

    fn feed(&mut self, bytes: &[u8]) {
        if self.discarding {
            // Drop oversized-line bytes instead of buffering them; keep
            // only what follows the terminating newline.
            if let Some(pos) = bytes.iter().position(|&b| b == b'\n') {
                self.discarding = false;
                self.buf.extend_from_slice(&bytes[pos + 1..]);
            }
            return;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn buffered(&self) -> usize {
        self.buf.len()
    }

    fn next_line(&mut self) -> Option<CodecLine> {
        let pos = self.buf[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|p| p + self.scanned);
        match pos {
            Some(pos) => {
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                self.scanned = 0;
                line.pop(); // the '\n'
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                Some(self.classify(line))
            }
            None => {
                self.scanned = self.buf.len();
                if self.buf.len() > self.limit {
                    // The partial line is already over the cap: report it
                    // now and stop buffering its remainder.
                    self.buf.clear();
                    self.scanned = 0;
                    self.discarding = true;
                    return Some(CodecLine::Oversized { limit: self.limit });
                }
                None
            }
        }
    }

    /// EOF: yields the final unterminated line, if any. Mirrors
    /// `BufRead::lines`, which keeps a trailing `\r` when no `\n`
    /// follows it.
    fn finish(&mut self) -> Option<CodecLine> {
        if self.discarding || self.buf.is_empty() {
            self.buf.clear();
            self.scanned = 0;
            self.discarding = false;
            return None;
        }
        let line = std::mem::take(&mut self.buf);
        self.scanned = 0;
        Some(self.classify(line))
    }

    fn classify(&self, line: Vec<u8>) -> CodecLine {
        if line.len() > self.limit {
            return CodecLine::Oversized { limit: self.limit };
        }
        match String::from_utf8(line) {
            Ok(s) => CodecLine::Line(s),
            Err(_) => CodecLine::InvalidUtf8,
        }
    }
}

/// Per-protocol decoding state, entered once the sniff decides.
#[derive(Debug)]
enum ProtoState {
    /// fewer bytes than the magic so far, all matching its prefix
    Sniffing {
        pending: Vec<u8>,
    },
    Ndjson(LineCodec),
    Qbin(bin::FrameCodec),
}

/// Incremental request decoder for one connection, either protocol.
///
/// Feed arbitrary byte chunks; take decoded items with
/// [`SessionCodec::next_item`] and the EOF tail with
/// [`SessionCodec::finish`]. The protocol is sniffed from the first
/// bytes and fixed for the connection's lifetime
/// ([`SessionCodec::wire`]).
#[derive(Debug)]
pub struct SessionCodec {
    state: ProtoState,
    limit: usize,
}

impl Default for SessionCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionCodec {
    pub fn new() -> Self {
        Self::with_limit(MAX_LINE_BYTES)
    }

    /// A codec with a custom line/frame cap (tests; production uses
    /// [`MAX_LINE_BYTES`]).
    pub fn with_limit(limit: usize) -> Self {
        SessionCodec {
            state: ProtoState::Sniffing {
                pending: Vec::new(),
            },
            limit: limit.max(1),
        }
    }

    /// The sniffed protocol, `None` while fewer magic-prefix bytes than
    /// the full magic have arrived.
    pub fn wire(&self) -> Option<WireFormat> {
        match &self.state {
            ProtoState::Sniffing { .. } => None,
            ProtoState::Ndjson(_) => Some(WireFormat::Ndjson),
            ProtoState::Qbin(_) => Some(WireFormat::Qbin),
        }
    }

    /// Appends a chunk of request bytes. Any split boundary is fine —
    /// including inside the sniffed magic.
    pub fn feed(&mut self, bytes: &[u8]) {
        match &mut self.state {
            ProtoState::Sniffing { pending } => {
                pending.extend_from_slice(bytes);
                let seen = pending.len().min(bin::QBIN_MAGIC.len());
                if pending[..seen] != bin::QBIN_MAGIC[..seen] {
                    // Diverged from the magic: this is NDJSON, and the
                    // sniffed bytes are its first line's prefix.
                    let pending = std::mem::take(pending);
                    let mut codec = LineCodec::with_limit(self.limit);
                    codec.feed(&pending);
                    self.state = ProtoState::Ndjson(codec);
                } else if pending.len() >= bin::QBIN_MAGIC.len() {
                    // Full magic seen: binary. The magic bytes are part
                    // of the first frame, so the frame codec gets them
                    // too.
                    let pending = std::mem::take(pending);
                    let mut codec = bin::FrameCodec::with_limit(self.limit);
                    codec.feed(&pending);
                    self.state = ProtoState::Qbin(codec);
                }
                // else: still a strict prefix of the magic — keep
                // sniffing (a client may send one byte and stall).
            }
            ProtoState::Ndjson(codec) => codec.feed(bytes),
            ProtoState::Qbin(codec) => codec.feed(bytes),
        }
    }

    /// Bytes currently buffered (bounded by the line/frame cap plus one
    /// read chunk — the backpressure quantity an event loop may want).
    pub fn buffered(&self) -> usize {
        match &self.state {
            ProtoState::Sniffing { pending } => pending.len(),
            ProtoState::Ndjson(codec) => codec.buffered(),
            ProtoState::Qbin(codec) => codec.buffered(),
        }
    }

    /// The next complete item, or `None` when more bytes are needed.
    /// Frame payloads borrow this codec and stay valid until the next
    /// `feed`.
    pub fn next_item(&mut self) -> Option<WireItem<'_>> {
        match &mut self.state {
            ProtoState::Sniffing { .. } => None,
            ProtoState::Ndjson(codec) => codec.next_line().map(WireItem::Line),
            ProtoState::Qbin(codec) => codec.next_frame().map(|decoded| match decoded {
                Ok(frame) => WireItem::Frame(frame),
                Err(e) => WireItem::FrameError(e),
            }),
        }
    }

    /// EOF: yields the final item, if any — an unterminated NDJSON tail
    /// line, or a truncation error for a partial QBIN frame. A stream
    /// that ends mid-sniff (fewer bytes than the magic) is treated as
    /// NDJSON, mirroring `BufRead::lines` on a short trailing line.
    pub fn finish(&mut self) -> Option<WireItem<'_>> {
        if let ProtoState::Sniffing { pending } = &mut self.state {
            let pending = std::mem::take(pending);
            let mut codec = LineCodec::with_limit(self.limit);
            codec.feed(&pending);
            self.state = ProtoState::Ndjson(codec);
        }
        match &mut self.state {
            ProtoState::Sniffing { .. } => unreachable!("sniff resolved above"),
            ProtoState::Ndjson(codec) => codec.finish().map(WireItem::Line),
            ProtoState::Qbin(codec) => codec.finish().map(WireItem::FrameError),
        }
    }
}

/// One connection's sans-IO serving state: the [`SessionCodec`], the
/// staged responses in request order, and the end-of-input flags.
///
/// A transport feeds it bytes ([`Session::feed`], [`Session::close_input`]),
/// lets it submit what they decode ([`Session::stage`]), and drains the
/// answers ([`Session::pump`]) — one NDJSON line or QBIN frame each, per
/// the sniffed protocol. Responses never reorder: a slow prediction holds
/// back everything staged after it. NDJSON serialization reuses one
/// scratch `String` (bytes identical to a fresh `to_string`, no
/// per-response allocation); QBIN frames are encoded directly into the
/// output buffer.
#[derive(Debug, Default)]
pub struct Session {
    codec: SessionCodec,
    queue: VecDeque<Staged>,
    scratch: String,
    /// read side reached EOF (or a drain or fatal frame forced it)
    eof: bool,
    /// EOF fully processed: the codec's final item (if any) is staged
    input_done: bool,
}

impl Session {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a chunk of request bytes (any split boundary).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.codec.feed(bytes);
    }

    /// Marks the read side finished: the next [`Session::stage`] stages
    /// the codec's EOF tail, and nothing more is fed.
    pub fn close_input(&mut self) {
        self.eof = true;
    }

    /// Whether the read side is finished (EOF, drain, or a fatal frame).
    pub fn input_closed(&self) -> bool {
        self.eof
    }

    /// Responses staged but not yet emitted — the connection's pipelining
    /// depth, which transports bound to stop a flooding client.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Every request answered and no more input will come.
    pub fn finished(&self) -> bool {
        self.input_done && self.queue.is_empty()
    }

    /// Stages decoded requests (either wire) until `window` responses are
    /// in flight. A fatal frame error is answered and closes the input.
    /// Once nothing more is buffered behind the last staged request, a
    /// lone one the engine held runs now, on this thread (see
    /// [`qross::serve::PendingPrediction::run_if_held`]); earlier held
    /// requests need no call, since a request staged behind one sends
    /// both to a worker batch. After [`Session::close_input`] the codec's
    /// EOF tail is staged exactly once. `notify` rides on every request
    /// that goes through the engine's batch queue.
    pub fn stage(
        &mut self,
        engine: &ServeEngine,
        notify: Option<&CompletionNotify>,
        window: usize,
    ) {
        while self.queue.len() < window {
            if let Some(item) = self.codec.next_item() {
                let fatal = matches!(&item, WireItem::FrameError(e) if e.is_fatal());
                self.queue.extend(stage_item(engine, item, notify.cloned()));
                if fatal {
                    // Framing is lost (bad magic / unknown version): the
                    // reject is staged; read nothing more and close once
                    // it — and everything before it — is written.
                    self.eof = true;
                    self.input_done = true;
                    return;
                }
                continue;
            }
            if let Some(Staged::Pending { pending, .. }) = self.queue.back_mut() {
                pending.run_if_held();
            }
            if self.eof && !self.input_done {
                self.input_done = true;
                if let Some(item) = self.codec.finish() {
                    self.queue.extend(stage_item(engine, item, notify.cloned()));
                }
            }
            return;
        }
    }

    /// Appends every head-of-line-complete response to `out`. Without
    /// `block` it stops at the first unanswered request; with `block` it
    /// waits for each one in turn, which needs no completion wake (a dead
    /// worker still yields its "worker disconnected" answer).
    /// `serve_obs` is the engine's observability handle (`engine.obs()`):
    /// emitting an engine-served response records its encode stage and
    /// offers the finished span to the slowest-request trace log.
    ///
    /// # Errors
    ///
    /// Serialization failure only (cannot happen for the fixed response
    /// schema).
    pub fn pump(
        &mut self,
        serve_obs: &ServeObs,
        out: &mut Vec<u8>,
        block: bool,
    ) -> std::io::Result<()> {
        // While undecided the queue is necessarily empty, and the EOF tail
        // of an undecided stream is NDJSON by definition.
        let wire = self.codec.wire().unwrap_or(WireFormat::Ndjson);
        while let Some(front) = self.queue.front_mut() {
            let answer = match front {
                Staged::Pending { pending, .. } if !block => match pending.try_wait() {
                    None => break,
                    answer => answer,
                },
                _ => None,
            };
            let scratch = &mut self.scratch;
            match self.queue.pop_front().expect("front exists") {
                Staged::Pending {
                    head,
                    a_values,
                    pending,
                    op,
                    tenant,
                    decode_ns,
                } => {
                    let answer = answer.unwrap_or_else(|| pending.wait_spanned());
                    emit_pending(
                        serve_obs, op, &tenant, answer, decode_ns, head, a_values, wire, scratch,
                        out,
                    )?;
                }
                Staged::Ready(response) => emit_response(&response, wire, scratch, out)?,
                Staged::Metrics(payload) => match wire {
                    WireFormat::Ndjson => emit_line(&*payload, scratch, out)?,
                    WireFormat::Qbin => bin::encode_metrics_response(out, &payload),
                },
                // `trace` is an NDJSON-only op.
                Staged::Trace(payload) => emit_line(&*payload, scratch, out)?,
            }
        }
        Ok(())
    }
}
