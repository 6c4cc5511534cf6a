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
//! split boundary, bounded line/frame length); each decoded item — NDJSON
//! line or QBIN frame — becomes a [`Staged`] request; and
//! [`codec::Session`] holds one connection's codec and staged queue and
//! serializes completed responses in request order, as lines or frames
//! to match. [`serve_connection`] runs a `Session` over a blocking reader
//! and writer (stdio); `bench::net` runs one per connection in a
//! nonblocking event loop.
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
use qross::serve::{CompletionNotify, PendingPrediction, ServeEngine, ServeObs};
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
    /// `feedback` | `refresh`
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

/// One tenant's row in a [`MetricsResponse`]. Counters are cumulative
/// since engine start; `pending_rows` is the instantaneous backlog that
/// `quota_rows` (0 = unlimited) bounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantMetricsOut {
    pub tenant: String,
    pub weight: u64,
    pub quota_rows: u64,
    pub requests: u64,
    pub rows: u64,
    pub rejected: u64,
    /// rejections because this tenant's own row quota was full
    pub rejected_quota: u64,
    /// rejections because the global queue capacity was full
    pub rejected_capacity: u64,
    pub pending_rows: u64,
}

/// Engine metrics payload (`metrics` op). Latency quantiles come from a
/// log₂-bucketed histogram (exact to within √2); `null` until the first
/// request completes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsOut {
    pub uptime_secs: f64,
    /// accepted requests per second, averaged over the uptime
    pub qps: f64,
    pub latency_p50_us: Option<f64>,
    pub latency_p99_us: Option<f64>,
    /// mean rows per forward pass (cache hits excluded)
    pub batch_occupancy: f64,
    /// cache hits / accepted rows
    pub cache_hit_rate: f64,
    /// model generation currently serving new requests
    pub generation: u64,
    /// queued (unanswered) rows across all tenants right now
    pub queue_depth: u64,
    /// total rejected requests (tenant quotas + global capacity)
    pub rejected: u64,
    /// rejections because a tenant's own row quota was full
    pub rejected_quota: u64,
    /// rejections because the global queue capacity was full
    pub rejected_capacity: u64,
    pub tenants: Vec<TenantMetricsOut>,
}

/// The `metrics` op's response line. Deliberately **not** a [`Response`]:
/// the `Response` schema is byte-frozen (the vendored serde subset
/// serializes every field, so adding one would change every response
/// line and break the replay fixtures' byte-identity contract), and
/// metrics are wall-clock-dependent anyway — they never take part in
/// byte-diff replays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsResponse {
    /// the request's `id`, echoed
    pub id: Option<u64>,
    pub ok: bool,
    pub metrics: MetricsOut,
}

/// One entry of a [`TraceResponse`]: a slow request's identity and its
/// per-stage latency breakdown, nanoseconds per pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntryOut {
    /// the request's trace ID, minted at decode
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
pub enum Staged {
    /// response already complete (errors, `info`)
    Ready(Box<Response>),
    /// a pre-serialized response line (`trace` — its schema is not
    /// [`Response`], and the op is NDJSON-only)
    Raw(String),
    /// a metrics snapshot, serialized at emit in the connection's wire
    /// format — an NDJSON [`MetricsResponse`] line or a QBIN metrics
    /// frame ([`bin::OP_RESP_METRICS`])
    Metrics(Box<MetricsResponse>),
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
    },
}

/// Parses, validates and dispatches one NDJSON request line. Returns
/// `None` for blank lines. `notify` is handed to the engine for requests
/// that go through the batch queue — the event loop uses it to wake its
/// poller when a pending prediction becomes resolvable.
fn stage_json(
    engine: &ServeEngine,
    line: &str,
    notify: Option<CompletionNotify>,
) -> Option<Staged> {
    let sw = obs::Stopwatch::start();
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let request: Request = match serde_json::from_str(line) {
        Ok(request) => request,
        Err(e) => {
            return Some(Staged::Ready(Box::new(Response::err(
                None,
                format!("unparseable request: {e}"),
            ))))
        }
    };
    let id = request.id;
    let tenant = request.tenant.clone();
    // The span is minted at decode: the JSON parse above is the
    // request's decode stage. Ops that never reach the engine simply
    // drop it — a span is `Copy` and records nothing on its own.
    let mut span = obs::Span::begin();
    span.record(obs::Stage::Decode, sw.elapsed_ns());
    let staged = match request.op.as_deref() {
        Some("info") | Some("model-info") => Staged::Ready(Box::new(Response {
            id,
            ok: true,
            info: Some(model_info(engine)),
            ..Default::default()
        })),
        Some("metrics") => stage_metrics(engine, id),
        Some("trace") => stage_trace(engine, id),
        Some("feedback") => stage_feedback(engine, id, &request),
        Some("refresh") => stage_refresh(engine, id),
        Some("predict") => {
            let Some(features) = request.features else {
                return Some(Staged::Ready(Box::new(Response::err(
                    id,
                    "predict needs `features`",
                ))));
            };
            let a_values = match (request.a_values, request.a) {
                (Some(grid), _) => grid,
                (None, Some(a)) => vec![a],
                (None, None) => {
                    return Some(Staged::Ready(Box::new(Response::err(
                        id,
                        "predict needs `a` or `a_values`",
                    ))))
                }
            };
            submit(
                engine,
                id,
                tenant.as_deref(),
                Response::default(),
                features,
                a_values,
                notify,
                "predict",
                span,
            )
        }
        Some("tsp") => stage_tsp(
            engine,
            id,
            tenant.as_deref(),
            request.tsplib,
            request.a,
            request.a_values,
            notify,
            span,
        ),
        Some("instance") | Some("solve") => stage_instance(
            engine,
            id,
            tenant.as_deref(),
            request.family,
            request.instance,
            request.tsplib,
            request.a,
            request.a_values,
            notify,
            span,
        ),
        // The op list in this message is frozen: the committed
        // error-replay fixtures byte-diff against it, so later ops
        // (`metrics`, `trace`) are documented in README/ARTIFACTS
        // instead.
        Some(other) => Staged::Ready(Box::new(Response::err(
            id,
            format!(
                "unknown op `{other}` (expected predict | tsp | info | model-info | feedback | \
                 refresh)"
            ),
        ))),
        None => Staged::Ready(Box::new(Response::err(id, "missing `op`"))),
    };
    Some(staged)
}

/// The `metrics` op, either wire: snapshot the engine into the
/// [`MetricsResponse`] schema; serialization happens at emit, per the
/// connection's wire format.
fn stage_metrics(engine: &ServeEngine, id: Option<u64>) -> Staged {
    let m = engine.metrics();
    Staged::Metrics(Box::new(MetricsResponse {
        id,
        ok: true,
        metrics: MetricsOut {
            uptime_secs: m.uptime_secs,
            qps: m.qps,
            latency_p50_us: m.latency_p50_us,
            latency_p99_us: m.latency_p99_us,
            batch_occupancy: m.batch_occupancy,
            cache_hit_rate: m.cache_hit_rate,
            generation: m.generation,
            queue_depth: m.queue_depth as u64,
            rejected: m.rejected,
            rejected_quota: m.rejected_quota,
            rejected_capacity: m.rejected_capacity,
            tenants: m
                .tenants
                .into_iter()
                .map(|t| TenantMetricsOut {
                    tenant: t.tenant,
                    weight: u64::from(t.weight),
                    quota_rows: t.quota_rows as u64,
                    requests: t.requests,
                    rows: t.rows,
                    rejected: t.rejected,
                    rejected_quota: t.rejected_quota,
                    rejected_capacity: t.rejected_capacity,
                    pending_rows: t.pending_rows as u64,
                })
                .collect(),
        },
    }))
}

/// The `trace` op (NDJSON-only): dump the engine's keep-the-N-slowest
/// request log with per-stage latency breakdowns, pre-serialized (its
/// schema is [`TraceResponse`], not [`Response`]).
fn stage_trace(engine: &ServeEngine, id: Option<u64>) -> Staged {
    let log = engine.obs().trace_log();
    let payload = TraceResponse {
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
    };
    match serde_json::to_string(&payload) {
        Ok(line) => Staged::Raw(line),
        Err(e) => Staged::Ready(Box::new(Response::err(
            id,
            format!("trace serialization failed: {e}"),
        ))),
    }
}

/// Maps one decoded [`CodecLine`] to a staged response: well-formed
/// lines go through [`stage_json`]; protocol-level rejects (a line over
/// [`MAX_LINE_BYTES`], invalid UTF-8) become typed bad-request error
/// responses on the spot — the session keeps serving.
fn stage_line(
    engine: &ServeEngine,
    item: CodecLine,
    notify: Option<CompletionNotify>,
) -> Option<Staged> {
    match item {
        CodecLine::Line(line) => stage_json(engine, &line, notify),
        CodecLine::Oversized { limit } => Some(Staged::Ready(Box::new(Response::err(
            None,
            qross::QrossError::BadRequest {
                message: format!("request line exceeds the {limit}-byte limit"),
            },
        )))),
        CodecLine::InvalidUtf8 => Some(Staged::Ready(Box::new(Response::err(
            None,
            qross::QrossError::BadRequest {
                message: "request line is not valid UTF-8".to_string(),
            },
        )))),
    }
}

/// Dispatches one CRC-verified QBIN frame. The borrowed
/// [`bin::BinRequest`] view is decoded in place over the connection's
/// read buffer; the single copy into owned memory happens here, at
/// engine submit — the same ownership point as the NDJSON path, minus
/// the JSON parse and f64 text round-trip.
///
/// Payload-level rejects (unknown op, grammar violations) become
/// `ok: false` responses, mirroring how NDJSON treats an unknown `op` —
/// the session keeps serving. `tsp` TSPLIB uploads and `trace` are
/// NDJSON-only ops by design (one is a text format, the other a
/// diagnostic dump); instance uploads travel over QBIN through the
/// compact `instance` op instead, and `metrics` has its own frame pair
/// ([`bin::OP_METRICS`] / [`bin::OP_RESP_METRICS`]).
fn stage_frame(
    engine: &ServeEngine,
    frame: &bin::Frame<'_>,
    notify: Option<CompletionNotify>,
) -> Staged {
    let sw = obs::Stopwatch::start();
    let request = match bin::decode_request(frame) {
        Ok(request) => request,
        Err(e) => {
            return Staged::Ready(Box::new(Response::err(
                None,
                qross::QrossError::BadRequest {
                    message: format!("bad QBIN request: {e}"),
                },
            )))
        }
    };
    // Decode stage = the zero-copy payload parse above (the owning
    // copies below are charged to decode too, via the submit wrappers'
    // recorded span).
    let mut span = obs::Span::begin();
    match request {
        bin::BinRequest::Predict {
            id,
            tenant,
            a_values,
            features,
        } => {
            if a_values.is_empty() {
                return Staged::Ready(Box::new(Response::err(
                    id,
                    "predict needs `a` or `a_values`",
                )));
            }
            let tenant = (!tenant.is_empty()).then_some(tenant);
            let (features, a_values) = (features.to_vec(), a_values.to_vec());
            span.record(obs::Stage::Decode, sw.elapsed_ns());
            submit(
                engine,
                id,
                tenant,
                Response::default(),
                features,
                a_values,
                notify,
                "predict",
                span,
            )
        }
        bin::BinRequest::Info { id } => Staged::Ready(Box::new(Response {
            id,
            ok: true,
            info: Some(model_info(engine)),
            ..Default::default()
        })),
        bin::BinRequest::Metrics { id } => stage_metrics(engine, id),
        bin::BinRequest::Feedback {
            id,
            a,
            pf,
            e_avg,
            e_std,
            seed,
            tag,
            features,
        } => ingest_feedback(
            engine,
            id,
            FeedbackRecord {
                features: features.to_vec(),
                a,
                observed_pf: pf,
                observed_e_avg: e_avg,
                observed_e_std: e_std,
                instance_tag: tag.to_string(),
                seed,
            },
        ),
        bin::BinRequest::Refresh { id } => stage_refresh(engine, id),
        bin::BinRequest::Instance {
            id,
            tenant,
            family,
            data,
            a_values,
        } => {
            let family = match problems::lookup_family(family) {
                Ok(family) => family,
                Err(e) => return bad_request(id, e),
            };
            let tenant = (!tenant.is_empty()).then_some(tenant);
            let a_values = a_values.to_vec();
            span.record(obs::Stage::Decode, sw.elapsed_ns());
            stage_instance_data(engine, id, tenant, family, &data, a_values, notify, span)
        }
    }
}

/// Maps one decoded [`WireItem`] — either protocol — to a staged
/// response. Framing-level QBIN rejects (oversized, CRC mismatch,
/// truncation) become typed `ok: false` responses, like the NDJSON
/// line-cap path; whether the session can continue afterwards is the
/// error's [`bin::BinError::is_fatal`] — [`Session::stage`] checks it
/// before consuming the item and closes after answering a fatal one
/// (framing is lost, resync is impossible).
fn stage_item(
    engine: &ServeEngine,
    item: WireItem<'_>,
    notify: Option<CompletionNotify>,
) -> Option<Staged> {
    match item {
        WireItem::Line(line) => stage_line(engine, line, notify),
        WireItem::Frame(frame) => Some(stage_frame(engine, &frame, notify)),
        WireItem::FrameError(e) => Some(Staged::Ready(Box::new(Response::err(
            None,
            qross::QrossError::BadRequest {
                message: format!("bad QBIN frame: {e}"),
            },
        )))),
    }
}

/// Serializes one completed [`Response`] onto `out` in the connection's
/// wire format — one NDJSON line (through the reusable `scratch`
/// buffer; bytes identical to a fresh `to_string`) or one QBIN frame
/// (encoded directly into `out`).
///
/// # Errors
///
/// NDJSON serialization failure only (cannot happen for the fixed
/// response schema; kept fallible to avoid a panic path on the wire).
fn emit_response(
    response: &Response,
    wire: WireFormat,
    scratch: &mut String,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    match wire {
        WireFormat::Ndjson => {
            scratch.clear();
            serde_json::to_string_into(response, scratch)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            out.extend_from_slice(scratch.as_bytes());
            out.push(b'\n');
        }
        WireFormat::Qbin => bin::encode_response(out, response),
    }
    Ok(())
}

/// Serializes one [`MetricsResponse`] onto `out` in the connection's
/// wire format — the NDJSON `metrics` line (byte-identical to a fresh
/// `to_string`) or one QBIN metrics frame.
///
/// # Errors
///
/// As [`emit_response`].
fn emit_metrics(
    payload: &MetricsResponse,
    wire: WireFormat,
    scratch: &mut String,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    match wire {
        WireFormat::Ndjson => {
            scratch.clear();
            serde_json::to_string_into(payload, scratch)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            out.extend_from_slice(scratch.as_bytes());
            out.push(b'\n');
        }
        WireFormat::Qbin => bin::encode_metrics_response(out, payload),
    }
    Ok(())
}

/// Completes and serializes one engine-served response. The
/// serialization is timed as the span's encode stage; the finished span
/// then lands in the encode histogram and is offered to the engine's
/// slowest-request trace log. All of it compiles away under `obs-off`;
/// the emitted bytes are the same either way.
///
/// # Errors
///
/// As [`emit_response`].
#[allow(clippy::too_many_arguments)]
fn emit_pending(
    serve_obs: &ServeObs,
    op: &'static str,
    tenant: &str,
    mut span: obs::Span,
    head: Box<Response>,
    a_values: Vec<f64>,
    outcome: Result<Vec<SurrogatePrediction>, qross::QrossError>,
    wire: WireFormat,
    scratch: &mut String,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    let sw = obs::Stopwatch::start();
    let response = complete(head, a_values, outcome);
    emit_response(&response, wire, scratch, out)?;
    if obs::ENABLED {
        let encode_ns = sw.elapsed_ns();
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
        online: engine.is_online(),
        feedback_count: status.map(|s| s.feedback_count),
        buffer_len: status.map(|s| s.buffer_len as u64),
        refresh_after: status.map(|s| s.refresh_after as u64),
    }
}

/// The `feedback` op: validate, ingest, and — when this record triggers a
/// retrain — block until the hot-swap completes, so every later request
/// on this connection deterministically sees the new generation.
fn stage_feedback(engine: &ServeEngine, id: Option<u64>, request: &Request) -> Staged {
    let (Some(features), Some(a), Some(pf), Some(e_avg), Some(e_std)) = (
        request.features.clone(),
        request.a,
        request.pf,
        request.e_avg,
        request.e_std,
    ) else {
        return Staged::Ready(Box::new(Response::err(
            id,
            "feedback needs `features`, `a`, `pf`, `e_avg` and `e_std`",
        )));
    };
    ingest_feedback(
        engine,
        id,
        FeedbackRecord {
            features,
            a,
            observed_pf: pf,
            observed_e_avg: e_avg,
            observed_e_std: e_std,
            instance_tag: request.tag.clone().unwrap_or_default(),
            seed: request.seed.unwrap_or(0),
        },
    )
}

/// Feedback ingestion shared by both wire formats: push the record,
/// and — when it triggers a retrain — block until the hot-swap lands.
fn ingest_feedback(engine: &ServeEngine, id: Option<u64>, record: FeedbackRecord) -> Staged {
    let ack = match engine.submit_feedback(record) {
        Ok(ack) => ack,
        Err(e) => return Staged::Ready(Box::new(Response::err(id, e))),
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
                return Staged::Ready(Box::new(Response::err(
                    id,
                    format!("feedback accepted but the triggered retrain failed: {e}"),
                )))
            }
        },
    };
    Staged::Ready(Box::new(Response {
        id,
        ok: true,
        generation: Some(generation),
        feedback_count: Some(ack.feedback_count),
        buffer_len: Some(ack.buffer_len as u64),
        refreshed: Some(refreshed),
        ..Default::default()
    }))
}

/// The `refresh` op: force a retrain/hot-swap and block until it lands.
fn stage_refresh(engine: &ServeEngine, id: Option<u64>) -> Staged {
    let outcome = engine.refresh().and_then(|pending| pending.wait());
    match outcome {
        Ok(generation) => Staged::Ready(Box::new(Response {
            id,
            ok: true,
            generation: Some(generation),
            refreshed: Some(true),
            ..Default::default()
        })),
        Err(e) => Staged::Ready(Box::new(Response::err(id, e))),
    }
}

/// The `tsp` op: parse the upload, featurise with the bundle's featurizer,
/// plan the offline proposals, and submit any requested grid.
#[allow(clippy::too_many_arguments)]
fn stage_tsp(
    engine: &ServeEngine,
    id: Option<u64>,
    tenant: Option<&str>,
    tsplib: Option<String>,
    a: Option<f64>,
    a_values: Option<Vec<f64>>,
    notify: Option<CompletionNotify>,
    span: obs::Span,
) -> Staged {
    record_family_request("tsp");
    let snapshot = engine.model();
    let Some(trained) = snapshot.model.trained() else {
        return Staged::Ready(Box::new(Response::err(
            id,
            "this model is a bare surrogate: `tsp` needs a full bundle (train with --problem tsp)",
        )));
    };
    let Some(text) = tsplib else {
        return Staged::Ready(Box::new(Response::err(id, "tsp needs `tsplib`")));
    };
    let instance = match parse_tsplib(&text) {
        Ok(instance) => instance,
        Err(e) => return Staged::Ready(Box::new(Response::err(id, e))),
    };
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
    let a_values = match (a_values, a) {
        (Some(grid), _) => grid,
        (None, Some(a)) => vec![a],
        (None, None) => Vec::new(),
    };
    submit(
        engine, id, tenant, head, features, a_values, notify, "tsp", span,
    )
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
                    obs::labeled("qross_family_requests_total", "family", f.name()),
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

/// A family-layer rejection (unknown family, malformed payload) as a
/// typed bad-request response — the session keeps serving.
fn bad_request(id: Option<u64>, e: impl std::fmt::Display) -> Staged {
    Staged::Ready(Box::new(Response::err(
        id,
        qross::QrossError::BadRequest {
            message: e.to_string(),
        },
    )))
}

/// The `instance` / `solve` op: resolve the family in the registry,
/// decode the compact payload with the family's own codec, featurise
/// with the family's recipe, and submit any requested grid.
///
/// An unknown `family` is a typed bad-request naming every registered
/// family; a payload the codec rejects is a bad-request with the codec's
/// explanation. For `family: "tsp"` a `tsplib` text upload is accepted
/// too and takes the exact `tsp`-op path (bundle featurizer, strategy
/// proposals).
#[allow(clippy::too_many_arguments)]
fn stage_instance(
    engine: &ServeEngine,
    id: Option<u64>,
    tenant: Option<&str>,
    family: Option<String>,
    instance: Option<InstanceData>,
    tsplib: Option<String>,
    a: Option<f64>,
    a_values: Option<Vec<f64>>,
    notify: Option<CompletionNotify>,
    span: obs::Span,
) -> Staged {
    let Some(family_name) = family else {
        return Staged::Ready(Box::new(Response::err(id, "instance needs `family`")));
    };
    let family = match problems::lookup_family(&family_name) {
        Ok(family) => family,
        Err(e) => return bad_request(id, e),
    };
    // The TSPLIB text path stays available through the generic op.
    if family.name() == "tsp" && instance.is_none() && tsplib.is_some() {
        return stage_tsp(engine, id, tenant, tsplib, a, a_values, notify, span);
    }
    let Some(data) = instance else {
        return Staged::Ready(Box::new(Response::err(id, "instance needs `instance`")));
    };
    let a_values = match (a_values, a) {
        (Some(grid), _) => grid,
        (None, Some(a)) => vec![a],
        (None, None) => Vec::new(),
    };
    stage_instance_data(engine, id, tenant, family, &data, a_values, notify, span)
}

/// The format-independent core of the `instance` op, shared with the
/// QBIN frame path: decode through the family codec, featurise, submit.
#[allow(clippy::too_many_arguments)]
fn stage_instance_data(
    engine: &ServeEngine,
    id: Option<u64>,
    tenant: Option<&str>,
    family: &dyn problems::ProblemFamily,
    data: &InstanceData,
    a_values: Vec<f64>,
    notify: Option<CompletionNotify>,
    span: obs::Span,
) -> Staged {
    record_family_request(family.name());
    let problem = match family.decode(data) {
        Ok(problem) => problem,
        Err(e) => return bad_request(id, e),
    };
    let features = problem.features();
    let head = Response {
        instance: Some(problems::RelaxableProblem::name(&problem).to_string()),
        ..Default::default()
    };
    submit(
        engine, id, tenant, head, features, a_values, notify, "instance", span,
    )
}

/// Pushes validated work into the engine; engine-side rejections
/// (width/finiteness checks, quotas, backpressure) become `ok: false`
/// responses. The request's span (decode already recorded) rides into
/// the engine, which fills in queue/batch/forward/cache and hands it
/// back with the completion.
#[allow(clippy::too_many_arguments)]
fn submit(
    engine: &ServeEngine,
    id: Option<u64>,
    tenant: Option<&str>,
    mut head: Response,
    features: Vec<f64>,
    a_values: Vec<f64>,
    notify: Option<CompletionNotify>,
    op: &'static str,
    span: obs::Span,
) -> Staged {
    if obs::ENABLED {
        engine
            .obs()
            .record_stage(obs::Stage::Decode, span.stage_ns(obs::Stage::Decode));
    }
    match engine.submit_spanned(tenant, features, a_values.clone(), notify, span) {
        Ok(pending) => {
            head.id = id;
            Staged::Pending {
                head: Box::new(head),
                a_values,
                pending,
                op,
                tenant: tenant.unwrap_or("").to_string(),
            }
        }
        Err(e) => {
            let mut response = Response::err(id, e);
            // Keep whatever instance context was already computed.
            response.instance = head.instance;
            Staged::Ready(Box::new(response))
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
            session.pump(engine.obs(), &mut out, true)?;
            writer.write_all(&out)?;
            writer.flush()?;
            out.clear();
        }
    }
    Ok(())
}
