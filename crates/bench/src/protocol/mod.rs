//! Serving protocol — the wire layer over
//! [`qross::serve::ServeEngine`], spoken in two formats on every
//! transport.
//!
//! One request, one response, **in request order** (responses never
//! reorder, whatever the engine's worker count). The same protocol runs
//! over stdin/stdout and the TCP event loop (`qross-serve`), and every
//! connection speaks either:
//!
//! * **NDJSON** — one JSON object per line (documented below); or
//! * **QBIN** ([`bin`]) — a length-framed binary protocol with raw
//!   little-endian f64 payloads and zero-copy decode, for clients that
//!   care about predict-path throughput.
//!
//! The format is sniffed from the first bytes of each connection
//! ([`codec::SessionCodec`]): a stream opening with the QBIN magic is
//! binary, anything else (JSON's `{`, whitespace) is NDJSON. Both run on
//! the same `--listen` port. Responses carry the identical f64 bit
//! patterns in either format — a QBIN predict response and the NDJSON
//! response for the same request decode to the same bits.
//!
//! # Requests
//!
//! Every request is a JSON object with an `op` and an optional client
//! `id` (echoed back verbatim):
//!
//! ```json
//! {"id": 1, "op": "predict", "features": [...], "a": 1.0}
//! {"id": 2, "op": "predict", "features": [...], "a_values": [0.5, 1.0, 2.0]}
//! {"id": 3, "op": "tsp", "tsplib": "NAME: up...EOF\n", "a_values": [1.0]}
//! {"id": 4, "op": "instance", "family": "maxcut",
//!  "instance": {"name": "g1", "dims": [4], "scalars": [], "vecs": [],
//!               "edges": [[0, 1, 1.0], [2, 3, 1.0]]}, "a_values": [1.0]}
//! {"id": 4, "op": "info"}
//! {"id": 5, "op": "feedback", "features": [...], "a": 1.0, "pf": 0.5,
//!  "e_avg": 3.25, "e_std": 0.5, "tag": "inst-7", "seed": 3}
//! {"id": 6, "op": "refresh"}
//! {"id": 7, "op": "model-info"}
//! {"id": 8, "op": "metrics"}
//! {"id": 9, "op": "predict", "tenant": "team-a", "features": [...], "a": 1.0}
//! ```
//!
//! * `predict` — evaluate the surrogate at `features` for one `a` or a
//!   grid of `a_values`. Served through the engine (micro-batched with
//!   concurrent requests, cached, backpressured).
//! * `tsp` — upload a TSPLIB95 instance. The bundle's own featurizer
//!   extracts the feature vector, the composed QROSS strategy plans its
//!   offline proposals (MFS, PBS₈₀, PBS₂₀), and any requested
//!   `a`/`a_values` are answered like `predict`. Requires a full bundle
//!   (`ServeModel::Bundle`); bare surrogate models reject this op.
//! * `instance` (alias `solve`) — upload a compact instance of **any
//!   registered problem family**: `family` names the family, `instance`
//!   carries the [`problems::InstanceData`] payload the family's own
//!   codec decodes, and the family's featurizer produces the feature
//!   vector served like `predict`. An unknown or misspelled `family` is
//!   a typed bad-request naming every registered family; a malformed
//!   payload is rejected by the family codec, never a panic. For
//!   `family: "tsp"` a `tsplib` text upload is also accepted and
//!   behaves exactly like the `tsp` op (which remains the alias for
//!   that path).
//! * `info` / `model-info` — model metadata, including the current swap
//!   generation and (online engines) the live feedback counters.
//! * `feedback` — report an observed solver outcome (`pf`, `e_avg`,
//!   `e_std` measured at `a`). Online engines only. When the record is
//!   the `--refresh-after`-th, the response is written only after the
//!   retrain/hot-swap it triggered completes — so, within a connection,
//!   every later request deterministically sees the new generation.
//! * `refresh` — force a retrain/hot-swap now (the operator's refresh
//!   button); same completion ordering as a triggering `feedback`.
//! * `metrics` — a point-in-time engine metrics snapshot (qps, p50/p99
//!   latency, batch occupancy, cache hit rate, per-tenant rejects split
//!   by reason, generation). Unlike every other response it is *not*
//!   deterministic across replays (it reports wall-clock rates), so it
//!   has its own response schema ([`MetricsResponse`]) and never appears
//!   in the CI byte-diff fixtures. Served on both wires: NDJSON op
//!   `metrics` and QBIN op `0x06` ([`bin::OP_METRICS`]).
//! * `trace` — the engine's bounded slowest-request log
//!   ([`TraceResponse`]): per-request trace IDs with the
//!   decode/queue/batch/forward/cache/encode latency breakdown. Like
//!   `metrics` it is wall-clock-dependent and excluded from byte-diffs;
//!   NDJSON-only.
//!
//! Any request may carry an optional `tenant` string: the engine's
//! admission control (per-tenant quotas, weighted fair queueing) accounts
//! the work to that tenant. Untagged requests ride the default tenant.
//!
//! # Sans-IO core
//!
//! The protocol itself never does I/O. [`codec::SessionCodec`] sniffs
//! the format and turns arbitrary byte chunks into framed requests (any
//! split boundary, bounded line/frame length). One decoder per wire turns
//! each item — NDJSON line or QBIN frame — into the same owned request,
//! and one dispatcher is the only place a request meets the engine; the
//! per-wire facts (op aliases, TSPLIB text, the NDJSON-only `trace`) stay
//! in their decoder. [`codec::Session`] holds one connection's codec and
//! staged requests and serializes completed responses in request order,
//! as lines or frames to match. [`serve_connection`] runs a `Session`
//! over a blocking reader and writer (stdio); `bench::net` runs one per
//! connection in a nonblocking event loop.
//!
//! # Responses
//!
//! `{"id": ..., "ok": true, ...}` or `{"id": ..., "ok": false, "error":
//! "..."}`. Predictions carry both decimal f64s and their exact IEEE-754
//! bit patterns (`*_bits`), so `diff` on two response streams proves
//! bit-identity — the CI smoke step diffs a batched 4-worker run against
//! a sequential unbatched one.
//!
//! Malformed input (unparseable JSON, unknown op, wrong feature width,
//! non-finite values, truncated TSPLIB uploads) yields an `ok: false`
//! response on the offending line; the connection — and the process —
//! keep serving. A serving process must survive hostile uploads.

pub mod bin;
pub mod codec;

use std::io::{BufRead, Write};

use problems::tsplib::parse_tsplib;
use problems::{InstanceData, TspEncoding};
use qross::online::FeedbackRecord;
use qross::serve::{CompletionNotify, EngineMetrics, PendingPrediction, ServeEngine, ServeObs};
use qross::surrogate::SurrogatePrediction;
use serde::{Deserialize, Serialize};

pub use codec::{CodecLine, Session, SessionCodec, WireFormat, WireItem, MAX_LINE_BYTES};

/// How many staged (submitted but unwritten) responses a connection may
/// hold. Bounds per-connection memory against a client that floods
/// requests without reading responses; also the pipelining window that
/// gives the engine concurrent jobs to micro-batch.
pub const PIPELINE_DEPTH: usize = 256;

/// One parsed request line. Unknown ops and missing fields are rejected
/// at dispatch with an `ok: false` response, not a parse failure.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Request {
    /// client-chosen correlation id, echoed into the response
    pub id: Option<u64>,
    /// `predict` | `tsp` | `instance`/`solve` | `info` | `model-info` |
    /// `feedback` | `refresh` | `metrics` | `trace`
    pub op: Option<String>,
    /// problem-family registry name (`instance`/`solve`)
    pub family: Option<String>,
    /// compact instance payload, decoded by the family's own codec
    /// (`instance`/`solve`)
    pub instance: Option<InstanceData>,
    /// feature vector (`predict`/`feedback`)
    pub features: Option<Vec<f64>>,
    /// single relaxation parameter (`predict`/`tsp`/`feedback`)
    pub a: Option<f64>,
    /// relaxation-parameter grid (`predict`/`tsp`); takes precedence
    /// over `a` when both are present
    pub a_values: Option<Vec<f64>>,
    /// TSPLIB95 file content (`tsp`)
    pub tsplib: Option<String>,
    /// observed probability of feasibility (`feedback`)
    pub pf: Option<f64>,
    /// observed batch mean energy (`feedback`)
    pub e_avg: Option<f64>,
    /// observed batch energy standard deviation (`feedback`)
    pub e_std: Option<f64>,
    /// instance label, lineage only (`feedback`, optional)
    pub tag: Option<String>,
    /// solver-run seed, lineage only (`feedback`, optional)
    pub seed: Option<u64>,
    /// tenant this request's work is accounted to (any op, optional);
    /// absent/empty = the default tenant
    pub tenant: Option<String>,
}

/// One prediction in a response: decimal values for humans, exact bit
/// patterns for diffs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionOut {
    /// the relaxation parameter evaluated
    pub a: f64,
    /// predicted probability of feasibility
    pub pf: f64,
    /// predicted mean energy
    pub e_avg: f64,
    /// predicted energy standard deviation
    pub e_std: f64,
    /// `pf` as `f64::to_bits`
    pub pf_bits: u64,
    /// `e_avg` as bits
    pub e_avg_bits: u64,
    /// `e_std` as bits
    pub e_std_bits: u64,
}

impl PredictionOut {
    fn new(a: f64, p: SurrogatePrediction) -> Self {
        PredictionOut {
            a,
            pf: p.pf,
            e_avg: p.e_avg,
            e_std: p.e_std,
            pf_bits: p.pf.to_bits(),
            e_avg_bits: p.e_avg.to_bits(),
            e_std_bits: p.e_std.to_bits(),
        }
    }
}

/// Model metadata (`info` / `model-info` ops).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// `bundle` (full pipeline) or `surrogate` (bare snapshot)
    pub kind: String,
    /// feature width every request must supply
    pub feature_dim: usize,
    /// dataset rows the model was trained on (bundles only)
    pub dataset_len: Option<u64>,
    /// training instances (bundles only)
    pub train_instances: Option<u64>,
    /// model generation currently serving new requests (0 = as loaded)
    pub generation: u64,
    /// whether the engine ingests feedback and hot-swaps
    pub online: bool,
    /// feedback records accepted so far (online engines only)
    pub feedback_count: Option<u64>,
    /// current replay-buffer occupancy (online engines only)
    pub buffer_len: Option<u64>,
    /// automatic retrain period in feedback records; 0 = manual
    /// refreshes only (online engines only)
    pub refresh_after: Option<u64>,
}

/// One response line.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Response {
    /// the request's `id`, echoed
    pub id: Option<u64>,
    /// whether the request was served
    pub ok: bool,
    /// error description when `ok` is false
    pub error: Option<String>,
    /// parsed instance name (`tsp`)
    pub instance: Option<String>,
    /// predictions, in `a_values` order
    pub predictions: Option<Vec<PredictionOut>>,
    /// planned offline proposals — MFS, PBS₈₀, PBS₂₀ (`tsp`)
    pub proposals: Option<Vec<f64>>,
    /// proposals as exact bit patterns
    pub proposal_bits: Option<Vec<u64>>,
    /// model metadata (`info` / `model-info`)
    pub info: Option<ModelInfo>,
    /// generation serving new requests after this op (`feedback` /
    /// `refresh`)
    pub generation: Option<u64>,
    /// feedback records accepted so far (`feedback`)
    pub feedback_count: Option<u64>,
    /// replay-buffer occupancy after the push (`feedback`)
    pub buffer_len: Option<u64>,
    /// whether this op completed a retrain/hot-swap (`feedback` /
    /// `refresh`)
    pub refreshed: Option<bool>,
}

impl Response {
    fn err(id: Option<u64>, message: impl std::fmt::Display) -> Response {
        Response {
            id,
            ok: false,
            error: Some(message.to_string()),
            ..Default::default()
        }
    }
}

/// The `metrics` op's response line. Deliberately **not** a [`Response`]:
/// the `Response` schema is byte-frozen (the vendored serde subset
/// serializes every field, so adding one would change every response
/// line and break the replay fixtures' byte-identity contract), and
/// metrics are wall-clock-dependent anyway — they never take part in
/// byte-diff replays. Its `metrics` is the engine's own snapshot struct,
/// whose field order is the frozen schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsResponse {
    /// the request's `id`, echoed
    pub id: Option<u64>,
    pub ok: bool,
    pub metrics: EngineMetrics,
}

/// One entry of a [`TraceResponse`]: a slow request's identity and its
/// per-stage latency breakdown, nanoseconds per pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntryOut {
    /// the request's trace ID, minted when the engine admits the request
    pub trace_id: u64,
    /// request op (`predict` | `tsp` | `instance`)
    pub op: String,
    /// tenant the request was admitted under (empty = default)
    pub tenant: String,
    /// sum of the stage durations below
    pub total_ns: u64,
    pub decode_ns: u64,
    pub queue_ns: u64,
    pub batch_ns: u64,
    pub forward_ns: u64,
    pub cache_ns: u64,
    pub encode_ns: u64,
}

/// The `trace` op's response line: the engine's bounded
/// keep-the-N-slowest request log, slowest first. Wall-clock-dependent
/// like [`MetricsResponse`], so it shares that schema's exclusion from
/// every byte-diff fixture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceResponse {
    /// the request's `id`, echoed
    pub id: Option<u64>,
    pub ok: bool,
    /// the N in keep-the-N-slowest
    pub capacity: u64,
    /// retained entries, slowest first
    pub entries: Vec<TraceEntryOut>,
}

/// A request that has been validated and (when it needs the engine)
/// submitted, but whose response may not be computed yet. Staging is
/// cheap; the expensive part rides on the engine's worker pool, so a
/// connection can keep many requests in flight — which is exactly what
/// gives the workers batches to stack.
#[derive(Debug)]
enum Staged {
    /// response already complete (errors, `info`, `feedback`, `refresh`)
    Ready(Box<Response>),
    /// a `metrics` request (its id): the engine is snapshotted when the
    /// answer is emitted, after every request staged before it, and
    /// serialized in the connection's wire format — an NDJSON
    /// [`MetricsResponse`] line or a QBIN metrics frame
    /// ([`bin::OP_RESP_METRICS`])
    Metrics(Option<u64>),
    /// a `trace` request (its id; the op is NDJSON-only): the trace log
    /// is dumped when the answer is emitted, so it holds the spans of
    /// every request answered before it
    Trace(Option<u64>),
    /// engine-served predictions still in flight
    Pending {
        /// response skeleton: everything but `predictions`
        head: Box<Response>,
        /// the `a` value of each submitted row, for `PredictionOut`
        a_values: Vec<f64>,
        /// the engine's response handle
        pending: PendingPrediction,
        /// op name, trace-log attribution only
        op: &'static str,
        /// tenant label, trace-log attribution only
        tenant: String,
        /// the request's decode time, added to the engine's span at emit
        decode_ns: u64,
    },
}

/// One request, decoded from either wire into owned values. Each decoder
/// keeps its wire's own facts ([`json_op`]: op aliases, `trace`, TSPLIB
/// text, the `a`/`a_values` rule; [`frame_op`]: an empty predict grid is
/// a reject); [`dispatch`] is the one place an op meets the engine.
#[derive(Debug)]
enum Op {
    Info,
    Metrics,
    Trace,
    Refresh,
    Feedback(FeedbackRecord),
    Predict {
        features: Vec<f64>,
        a_values: Vec<f64>,
    },
    /// `tsplib` stays optional so a bare surrogate is reported before a
    /// missing upload
    Tsp {
        tsplib: Option<String>,
        a_values: Vec<f64>,
    },
    /// `tsplib` is the TSPLIB text path of `family: "tsp"`
    Instance {
        family: String,
        data: Option<InstanceData>,
        tsplib: Option<String>,
        a_values: Vec<f64>,
    },
}

/// Maps one decoded [`WireItem`] — an NDJSON line or a QBIN frame — to a
/// staged response: decode it into an [`Op`], time that as the request's
/// decode stage, and [`dispatch`] it. Returns `None` for blank lines.
/// `notify` is handed to the engine for requests that go through the
/// batch queue — the event loop uses it to wake its poller when a
/// pending prediction becomes resolvable.
///
/// Framing-level rejects (a line over [`MAX_LINE_BYTES`], invalid UTF-8,
/// a bad QBIN frame or payload) become typed bad-request responses on the
/// spot. Whether the session can continue after a frame error is the
/// error's [`bin::BinError::is_fatal`]: [`Session::stage`] checks it
/// before consuming the item and closes after answering a fatal one
/// (framing is lost, resync is impossible).
fn stage_item(
    engine: &ServeEngine,
    item: WireItem<'_>,
    notify: Option<CompletionNotify>,
) -> Option<Staged> {
    let sw = obs::Stopwatch::start();
    let (id, tenant, op) = match item {
        WireItem::Line(CodecLine::Line(line)) => {
            let line = line.trim();
            if line.is_empty() {
                return None;
            }
            let mut request: Request = match serde_json::from_str(line) {
                Ok(request) => request,
                Err(e) => return Some(reject(None, format!("unparseable request: {e}"))),
            };
            let op = json_op(&mut request);
            (request.id, request.tenant.unwrap_or_default(), op)
        }
        WireItem::Line(CodecLine::Oversized { limit }) => {
            let message = format!("request line exceeds the {limit}-byte limit");
            return Some(reject(None, bad_request(message)));
        }
        WireItem::Line(CodecLine::InvalidUtf8) => {
            return Some(reject(None, bad_request("request line is not valid UTF-8")))
        }
        WireItem::Frame(frame) => match bin::decode_request(&frame) {
            Ok(request) => frame_op(request),
            Err(e) => return Some(reject(None, bad_request(format!("bad QBIN request: {e}")))),
        },
        WireItem::FrameError(e) => {
            return Some(reject(None, bad_request(format!("bad QBIN frame: {e}"))))
        }
    };
    let decode_ns = sw.elapsed_ns();
    Some(match op {
        Ok(op) => dispatch(engine, id, tenant, op, notify, decode_ns),
        Err(message) => reject(id, message),
    })
}

/// Takes one NDJSON request's op and fields out of `request`, leaving
/// its `id` and `tenant`.
fn json_op(request: &mut Request) -> Result<Op, String> {
    let grid = match (request.a_values.take(), request.a) {
        (Some(grid), _) => Some(grid),
        (None, Some(a)) => Some(vec![a]),
        (None, None) => None,
    };
    Ok(match request.op.take().as_deref() {
        Some("info" | "model-info") => Op::Info,
        Some("metrics") => Op::Metrics,
        Some("trace") => Op::Trace,
        Some("refresh") => Op::Refresh,
        Some("feedback") => {
            let (Some(features), Some(a), Some(pf), Some(e_avg), Some(e_std)) = (
                request.features.take(),
                request.a,
                request.pf,
                request.e_avg,
                request.e_std,
            ) else {
                return Err("feedback needs `features`, `a`, `pf`, `e_avg` and `e_std`".into());
            };
            Op::Feedback(FeedbackRecord {
                features,
                a,
                observed_pf: pf,
                observed_e_avg: e_avg,
                observed_e_std: e_std,
                instance_tag: request.tag.take().unwrap_or_default(),
                seed: request.seed.unwrap_or(0),
            })
        }
        Some("predict") => Op::Predict {
            features: request.features.take().ok_or("predict needs `features`")?,
            a_values: grid.ok_or("predict needs `a` or `a_values`")?,
        },
        Some("tsp") => Op::Tsp {
            tsplib: request.tsplib.take(),
            a_values: grid.unwrap_or_default(),
        },
        Some("instance" | "solve") => Op::Instance {
            family: request.family.take().ok_or("instance needs `family`")?,
            data: request.instance.take(),
            tsplib: request.tsplib.take(),
            a_values: grid.unwrap_or_default(),
        },
        // The op list in this message is frozen: the committed
        // error-replay fixtures byte-diff against it, so later ops
        // (`metrics`, `trace`) are documented in README/ARTIFACTS
        // instead.
        Some(other) => {
            return Err(format!(
                "unknown op `{other}` (expected predict | tsp | info | model-info | feedback | \
                 refresh)"
            ))
        }
        None => return Err("missing `op`".into()),
    })
}

/// The `trace` op's answer (NDJSON-only): the engine's keep-the-N-slowest
/// request log with per-stage latency breakdowns ([`TraceResponse`]),
/// built by [`Session::pump`] when the answer's turn comes.
fn trace_response(engine: &ServeEngine, id: Option<u64>) -> TraceResponse {
    let log = engine.obs().trace_log();
    TraceResponse {
        id,
        ok: true,
        capacity: log.capacity() as u64,
        entries: log
            .snapshot()
            .into_iter()
            .map(|e| TraceEntryOut {
                trace_id: e.trace_id,
                op: e.op.to_string(),
                tenant: e.tenant,
                total_ns: e.total_ns,
                decode_ns: e.stage_ns[obs::Stage::Decode as usize],
                queue_ns: e.stage_ns[obs::Stage::Queue as usize],
                batch_ns: e.stage_ns[obs::Stage::Batch as usize],
                forward_ns: e.stage_ns[obs::Stage::Forward as usize],
                cache_ns: e.stage_ns[obs::Stage::Cache as usize],
                encode_ns: e.stage_ns[obs::Stage::Encode as usize],
            })
            .collect(),
    }
}

/// Copies one CRC-verified QBIN request out of the connection's read
/// buffer — the single copy into owned memory, as on the NDJSON path,
/// minus the JSON parse and f64 text round-trip. Returns the request's
/// `id` and tenant (empty = default) beside its op.
fn frame_op(request: bin::BinRequest<'_>) -> (Option<u64>, String, Result<Op, String>) {
    match request {
        bin::BinRequest::Predict {
            id,
            tenant,
            a_values,
            features,
        } => {
            let op = if a_values.is_empty() {
                Err("predict needs `a` or `a_values`".into())
            } else {
                Ok(Op::Predict {
                    features: features.to_vec(),
                    a_values: a_values.to_vec(),
                })
            };
            (id, tenant.to_string(), op)
        }
        bin::BinRequest::Info { id } => (id, String::new(), Ok(Op::Info)),
        bin::BinRequest::Metrics { id } => (id, String::new(), Ok(Op::Metrics)),
        bin::BinRequest::Refresh { id } => (id, String::new(), Ok(Op::Refresh)),
        bin::BinRequest::Feedback {
            id,
            a,
            pf,
            e_avg,
            e_std,
            seed,
            tag,
            features,
        } => {
            let record = FeedbackRecord {
                features: features.to_vec(),
                a,
                observed_pf: pf,
                observed_e_avg: e_avg,
                observed_e_std: e_std,
                instance_tag: tag.to_string(),
                seed,
            };
            (id, String::new(), Ok(Op::Feedback(record)))
        }
        bin::BinRequest::Instance {
            id,
            tenant,
            family,
            data,
            a_values,
        } => {
            let op = Op::Instance {
                family: family.to_string(),
                data: Some(data),
                tsplib: None,
                a_values: a_values.to_vec(),
            };
            (id, tenant.to_string(), Ok(op))
        }
    }
}

/// Serializes `payload` as one NDJSON line onto `out`, through the
/// reusable `scratch` buffer (bytes identical to a fresh `to_string`).
///
/// # Errors
///
/// Serialization failure only (cannot happen for the fixed response
/// schemas; kept fallible to avoid a panic path on the wire).
fn emit_line(
    payload: &impl Serialize,
    scratch: &mut String,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    scratch.clear();
    serde_json::to_string_into(payload, scratch)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    out.extend_from_slice(scratch.as_bytes());
    out.push(b'\n');
    Ok(())
}

/// Serializes one completed [`Response`] onto `out` in the connection's
/// wire format — one NDJSON line or one QBIN frame (encoded directly
/// into `out`).
///
/// # Errors
///
/// As [`emit_line`].
fn emit_response(
    response: &Response,
    wire: WireFormat,
    scratch: &mut String,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    match wire {
        WireFormat::Ndjson => emit_line(response, scratch, out),
        WireFormat::Qbin => {
            bin::encode_response(out, response);
            Ok(())
        }
    }
}

/// Completes and serializes one engine-served response. The
/// serialization is timed as the span's encode stage; the span, with the
/// request's decode time added, then lands in the encode histogram and
/// is offered to the engine's slowest-request trace log. All of it
/// compiles away under `obs-off`; the emitted bytes are the same either
/// way.
///
/// # Errors
///
/// As [`emit_line`].
#[allow(clippy::too_many_arguments)]
fn emit_pending(
    serve_obs: &ServeObs,
    op: &'static str,
    tenant: &str,
    (mut span, outcome): (
        obs::Span,
        Result<Vec<SurrogatePrediction>, qross::QrossError>,
    ),
    decode_ns: u64,
    head: Box<Response>,
    a_values: Vec<f64>,
    wire: WireFormat,
    scratch: &mut String,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    let sw = obs::Stopwatch::start();
    let response = complete(head, a_values, outcome);
    emit_response(&response, wire, scratch, out)?;
    if obs::ENABLED {
        let encode_ns = sw.elapsed_ns();
        span.record(obs::Stage::Decode, decode_ns);
        span.record(obs::Stage::Encode, encode_ns);
        serve_obs.record_stage(obs::Stage::Encode, encode_ns);
        serve_obs.trace_log().observe(&span, op, tenant);
    }
    Ok(())
}

/// Builds the `info` / `model-info` payload from the engine's current
/// state. Every field is a pure function of the request stream within a
/// connection, so info responses diff cleanly across worker counts.
fn model_info(engine: &ServeEngine) -> ModelInfo {
    let snapshot = engine.model();
    let trained = snapshot.model.trained();
    let status = engine.online_status();
    ModelInfo {
        kind: if trained.is_some() {
            "bundle"
        } else {
            "surrogate"
        }
        .to_string(),
        feature_dim: snapshot.model.feature_dim(),
        dataset_len: trained.map(|t| t.dataset_len as u64),
        train_instances: trained.map(|t| t.train_encodings.len() as u64),
        generation: snapshot.generation,
        online: status.is_some(),
        feedback_count: status.map(|s| s.feedback_count),
        buffer_len: status.map(|s| s.buffer_len as u64),
        refresh_after: status.map(|s| s.refresh_after as u64),
    }
}

/// The `feedback` op: push the record, and — when it triggers a retrain —
/// block until the hot-swap lands, so every later request on this
/// connection deterministically sees the new generation.
fn ingest_feedback(engine: &ServeEngine, id: Option<u64>, record: FeedbackRecord) -> Staged {
    let ack = match engine.submit_feedback(record) {
        Ok(ack) => ack,
        Err(e) => return reject(id, e),
    };
    // When this record triggered a retrain, report the generation *its*
    // swap installed (the wait() result) — another connection may have
    // swapped again before this response is built, and engine.generation()
    // would misattribute that later swap to this record.
    let (refreshed, generation) = match ack.refresh {
        None => (false, engine.generation()),
        Some(pending) => match pending.wait() {
            Ok(generation) => (true, generation),
            Err(e) => {
                return reject(
                    id,
                    format!("feedback accepted but the triggered retrain failed: {e}"),
                )
            }
        },
    };
    ready(Response {
        id,
        ok: true,
        generation: Some(generation),
        feedback_count: Some(ack.feedback_count),
        buffer_len: Some(ack.buffer_len as u64),
        refreshed: Some(refreshed),
        ..Default::default()
    })
}

/// The `tsp` upload: parse the TSPLIB text, featurise it with the
/// bundle's featurizer, and plan the offline proposals into the response
/// head. Bare surrogate models reject it.
fn tsp_upload(
    engine: &ServeEngine,
    tsplib: Option<String>,
) -> Result<(Response, Vec<f64>), String> {
    record_family_request("tsp");
    let snapshot = engine.model();
    let Some(trained) = snapshot.model.trained() else {
        return Err(
            "this model is a bare surrogate: `tsp` needs a full bundle (train with --problem tsp)"
                .into(),
        );
    };
    let text = tsplib.ok_or("tsp needs `tsplib`")?;
    let instance = parse_tsplib(&text).map_err(|e| e.to_string())?;
    let encoding = TspEncoding::preprocessed(instance);
    let features = trained.features_for(&encoding);
    // Offline plan only: MFS + PBS come straight from the surrogate, no
    // solver in the loop — the serve-side half of the paper's strategies.
    let strategy = trained.strategy_for(
        &encoding,
        trained.config.collect.batch,
        mathkit::rng::derive_seed(trained.config.seed, 777),
    );
    let proposals = strategy.planned_offline().to_vec();
    let head = Response {
        instance: Some(encoding.fitness_instance().name().to_string()),
        proposal_bits: Some(proposals.iter().map(|p| p.to_bits()).collect()),
        proposals: Some(proposals),
        ..Default::default()
    };
    Ok((head, features))
}

/// Bumps `qross_family_requests_total{family=...}` on the process-wide
/// registry. The counter handles are resolved once per process (one
/// `OnceLock` map over the static family registry), so the per-request
/// cost is a `HashMap` probe and a relaxed atomic add — and nothing at
/// all under `obs-off`.
fn record_family_request(family: &str) {
    if !obs::ENABLED {
        return;
    }
    static FAMILY_REQUESTS: std::sync::OnceLock<
        std::collections::HashMap<&'static str, std::sync::Arc<obs::Counter>>,
    > = std::sync::OnceLock::new();
    let counters = FAMILY_REQUESTS.get_or_init(|| {
        problems::registry()
            .iter()
            .map(|f| {
                let counter = obs::global().counter(
                    obs::labeled("qross_family_requests_total", &[("family", f.name())]),
                    "instance uploads staged, by problem family",
                );
                (f.name(), counter)
            })
            .collect()
    });
    if let Some(counter) = counters.get(family) {
        counter.inc();
    }
}

/// Forces registration of the protocol layer's lazily-created global
/// metrics (the per-family request counters) so a pre-traffic scrape
/// already lists every series at zero. No-op under `obs-off`.
pub fn register_protocol_metrics() {
    record_family_request("");
}

/// A complete response, staged.
fn ready(response: Response) -> Staged {
    Staged::Ready(Box::new(response))
}

/// An `ok: false` response with `message` as its error.
fn reject(id: Option<u64>, message: impl std::fmt::Display) -> Staged {
    ready(Response::err(id, message))
}

/// A framing- or family-layer rejection (oversized line, bad frame,
/// unknown family, malformed payload) as a typed bad-request message.
fn bad_request(e: impl std::fmt::Display) -> String {
    qross::QrossError::BadRequest {
        message: e.to_string(),
    }
    .to_string()
}

/// The `instance` upload: decode the compact payload with the family's
/// own codec (a payload it rejects is a typed bad-request) and featurise
/// it with the family's recipe.
fn instance_upload(
    family: &dyn problems::ProblemFamily,
    data: &InstanceData,
) -> Result<(Response, Vec<f64>), String> {
    record_family_request(family.name());
    let problem = family.decode(data).map_err(bad_request)?;
    let head = Response {
        instance: Some(problems::RelaxableProblem::name(&problem).to_string()),
        ..Default::default()
    };
    Ok((head, problem.features()))
}

/// Serves one decoded op, either wire: answers the engine-free ops on
/// the spot, turns an upload into its features, and submits the rows.
/// Engine-side rejections (width/finiteness checks, quotas,
/// backpressure) become `ok: false` responses that keep any instance
/// name already computed. `tenant` is empty for the default tenant.
fn dispatch(
    engine: &ServeEngine,
    id: Option<u64>,
    tenant: String,
    op: Op,
    notify: Option<CompletionNotify>,
    decode_ns: u64,
) -> Staged {
    let (upload, a_values, op) = match op {
        Op::Info => {
            return ready(Response {
                id,
                ok: true,
                info: Some(model_info(engine)),
                ..Default::default()
            })
        }
        Op::Metrics => return Staged::Metrics(id),
        Op::Trace => return Staged::Trace(id),
        Op::Refresh => {
            return match engine.refresh().and_then(|pending| pending.wait()) {
                Ok(generation) => ready(Response {
                    id,
                    ok: true,
                    generation: Some(generation),
                    refreshed: Some(true),
                    ..Default::default()
                }),
                Err(e) => reject(id, e),
            }
        }
        Op::Feedback(record) => return ingest_feedback(engine, id, record),
        Op::Predict { features, a_values } => {
            (Ok((Response::default(), features)), a_values, "predict")
        }
        Op::Tsp { tsplib, a_values } => (tsp_upload(engine, tsplib), a_values, "tsp"),
        Op::Instance {
            family,
            data,
            tsplib,
            a_values,
        } => {
            let family = match problems::lookup_family(&family) {
                Ok(family) => family,
                Err(e) => return reject(id, bad_request(e)),
            };
            match data {
                // The TSPLIB text path stays available through the
                // generic op.
                None if family.name() == "tsp" && tsplib.is_some() => {
                    (tsp_upload(engine, tsplib), a_values, "tsp")
                }
                None => return reject(id, "instance needs `instance`"),
                Some(data) => (instance_upload(family, &data), a_values, "instance"),
            }
        }
    };
    let (mut head, features) = match upload {
        Ok(upload) => upload,
        Err(message) => return reject(id, message),
    };
    if obs::ENABLED {
        engine.obs().record_stage(obs::Stage::Decode, decode_ns);
    }
    head.id = id;
    match engine.submit_opts(Some(&tenant), features, a_values.clone(), notify) {
        Ok(pending) => Staged::Pending {
            head: Box::new(head),
            a_values,
            pending,
            op,
            tenant,
            decode_ns,
        },
        Err(e) => {
            let mut response = Response::err(id, e);
            response.instance = head.instance;
            ready(response)
        }
    }
}

/// Completes a pending response skeleton with the engine's verdict.
fn complete(
    head: Box<Response>,
    a_values: Vec<f64>,
    outcome: Result<Vec<SurrogatePrediction>, qross::QrossError>,
) -> Response {
    let mut response = *head;
    match outcome {
        Ok(predictions) => {
            response.ok = true;
            response.predictions = Some(
                a_values
                    .into_iter()
                    .zip(predictions)
                    .map(|(a, p)| PredictionOut::new(a, p))
                    .collect(),
            );
        }
        Err(e) => {
            response.ok = false;
            response.error = Some(e.to_string());
        }
    }
    response
}

/// Serializes a [`Response`] to its NDJSON line (no trailing newline).
///
/// # Errors
///
/// `InvalidData` when serialization fails (it cannot for the fixed
/// response schema; kept fallible to avoid a panic path on the wire).
pub fn render_response(response: &Response) -> std::io::Result<String> {
    serde_json::to_string(response)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Serves one connection to completion, either wire format: reads
/// requests from `reader` (NDJSON lines or QBIN frames, sniffed from the
/// first bytes), writes one response per request to `writer`, in order.
/// Returns when the reader reaches EOF, after a fatal QBIN framing error,
/// or when either side fails.
///
/// One thread runs a [`Session`]: read a chunk, then stage up to
/// [`PIPELINE_DEPTH`] of its requests (the concurrency the engine's
/// micro-batching feeds on), wait for their answers, write and flush
/// them, and repeat until nothing is in flight — only then read again.
/// A blocking read cannot be woken by a completion, and an interactive
/// client sends its next request only after it reads the last answer,
/// so each read's requests are answered before the next read.
///
/// # Errors
///
/// Propagates I/O errors from either side of the connection.
pub fn serve_connection<R, W>(
    engine: &ServeEngine,
    mut reader: R,
    mut writer: W,
) -> std::io::Result<()>
where
    R: BufRead,
    W: Write,
{
    let mut session = Session::new();
    let mut out = Vec::new();
    while !session.finished() {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            session.close_input();
        } else {
            session.feed(chunk);
            let n = chunk.len();
            reader.consume(n);
        }
        loop {
            session.stage(engine, None, PIPELINE_DEPTH);
            if session.in_flight() == 0 {
                break;
            }
            session.pump(engine, &mut out, true)?;
            writer.write_all(&out)?;
            writer.flush()?;
            out.clear();
        }
    }
    Ok(())
}
