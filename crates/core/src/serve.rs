//! Concurrent batched serving engine — the serve-many half of the
//! train-once / serve-many split, as an embeddable subsystem.
//!
//! QROSS's value proposition is amortising one trained surrogate over many
//! unseen instances (paper §4: the offline strategies propose penalty
//! parameters from a single cross-instance model). [`ServeEngine`] turns a
//! trained model into a long-lived service component:
//!
//! * **Lock-free hot path** — the immutable model ([`ServeModel`], usually
//!   an `Arc<TrainedQross>`) is shared across worker threads; inference
//!   runs [`neural::network::Mlp::infer`], which takes `&self` and writes
//!   no caches, so prediction itself acquires no lock. The only locks are
//!   around the *queue* and the *cache*, both held for pointer shuffling,
//!   never across a forward pass.
//! * **Micro-batching** — concurrent requests queue as jobs; a worker
//!   drains several jobs at once, stacks their feature rows into one
//!   matrix and answers them with a **single forward pass per head**
//!   ([`crate::Surrogate::predict_many_with`]). A lone single-row request on
//!   an idle engine (nothing queued, a worker parked) is held: queued
//!   without waking a worker. Its handle's first poll, which the
//!   front-end makes once nothing more is staged behind it, runs it
//!   through the same batch path on the calling thread, unless another
//!   request arrived first and woke a worker, which then batches the two.
//!   Because every matrix row is accumulated independently in the same
//!   operation order as a 1-row forward, batching is **bit-invisible**:
//!   responses are exactly the f64s a sequential per-request `predict`
//!   would produce, whatever the batch boundaries happen to be.
//! * **Bounded everything** — the job queue rejects with
//!   [`QrossError::Overloaded`] once `queue_capacity` prediction rows are
//!   pending (never unbounded growth, never OOM), and the prediction
//!   cache is a fixed-capacity LRU keyed on the exact *bit patterns* of
//!   `(features, A)` (two queries hit the same entry iff they are
//!   bit-identical, so a cache hit can never change an answer).
//!
//! * **Continual learning with zero-downtime hot-swap** — an engine
//!   started through [`ServeEngine::with_online`] accepts observed solver
//!   outcomes ([`ServeEngine::submit_feedback`]), accumulates them in a
//!   deterministic replay buffer ([`crate::online::ReplayBuffer`]), and
//!   periodically fine-tunes the surrogate heads on a buffer snapshot
//!   merged with the original corpus. The engine holds the model in an
//!   **epoch-counted slot** (`Arc` + generation counter): every request
//!   captures the current `Arc<VersionedModel>` at submit time, so
//!   in-flight batches always finish on the model they were admitted
//!   under while new requests see the swapped generation — no request is
//!   ever dropped or blocked by a swap. The prediction-cache key includes
//!   the generation, so a hit can never serve a stale generation's value.
//!   Each swap checkpoints the new model (with lineage) through
//!   `qross-store` *before* installing it, making every served generation
//!   reloadable and the whole loop bit-reproducible from
//!   `(seed, feedback log)`.
//!
//! The wire protocols — NDJSON and the binary QBIN, over stdin/stdout and
//! TCP — live in the `bench` crate (`bench::protocol`, the `qross-serve`
//! binary); this module is the transport-agnostic core.
//!
//! # Examples
//!
//! ```no_run
//! use std::sync::Arc;
//! use qross::pipeline::TrainedQross;
//! use qross::serve::{ServeConfig, ServeEngine, ServeModel};
//!
//! let trained = TrainedQross::load("results/model-tsp.qross")?;
//! let engine = ServeEngine::new(
//!     ServeModel::Bundle(Arc::new(trained)),
//!     ServeConfig::default(),
//! );
//! let features = vec![0.0; engine.feature_dim()];
//! let p = engine.predict(&features, 1.0)?;
//! println!("Pf = {}", p.pf);
//! # Ok::<(), qross::QrossError>(())
//! ```

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use qross_store::Artifact;

use crate::dataset::SurrogateDataset;
use crate::online::{
    merge_for_finetune, FeedbackRecord, LineageHeader, OnlineConfig, ReplayBuffer,
    SurrogateCheckpoint,
};
use crate::pipeline::TrainedQross;
use crate::surrogate::{FineTuneConfig, PredictScratch, Surrogate, SurrogatePrediction};
use crate::QrossError;
use serde::{Deserialize, Serialize};

/// The immutable model a [`ServeEngine`] serves.
///
/// Both variants are shared via `Arc`: the engine's worker threads and any
/// number of protocol front-ends read the same allocation, and nothing in
/// the serving path ever needs `&mut` access to it.
#[derive(Debug, Clone)]
pub enum ServeModel {
    /// A full `.qross` bundle — surrogate plus featurizer plus pipeline
    /// config. Required for instance-level requests (featurise a TSP
    /// upload, build proposal strategies).
    Bundle(Arc<TrainedQross>),
    /// A bare surrogate (e.g. an MVC/QAP snapshot). Serves raw
    /// feature-vector queries only.
    Surrogate(Arc<Surrogate>),
}

impl ServeModel {
    /// The surrogate predictions are served from.
    pub fn surrogate(&self) -> &Surrogate {
        match self {
            ServeModel::Bundle(t) => &t.surrogate,
            ServeModel::Surrogate(s) => s,
        }
    }

    /// The full bundle, when this model has one.
    pub fn trained(&self) -> Option<&Arc<TrainedQross>> {
        match self {
            ServeModel::Bundle(t) => Some(t),
            ServeModel::Surrogate(_) => None,
        }
    }

    /// Feature width every request must supply (the surrogate's input
    /// width minus the relaxation-parameter column).
    ///
    /// Invariant across hot-swaps: fine-tuning freezes the scalers
    /// ([`Surrogate::fine_tune`]), so every generation of a served model
    /// consumes the same feature width.
    pub fn feature_dim(&self) -> usize {
        self.surrogate().scalers().input_dim() - 1
    }
}

/// One epoch of the served model: the model plus the generation counter
/// identifying it. The engine swaps whole `Arc<VersionedModel>`s — a
/// request captures the current one at submit time and is answered by it
/// even if a swap lands while the request is queued.
///
/// Generation `0` is the model the engine was constructed with; each
/// successful retrain/swap increments it by one.
#[derive(Debug, Clone)]
pub struct VersionedModel {
    /// monotonically increasing swap epoch (0 = the initial model)
    pub generation: u64,
    /// the model itself
    pub model: ServeModel,
}

/// Serving-engine tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// worker threads: `0` = one per core, `n` = exactly `n`
    pub workers: usize,
    /// soft cap on prediction rows stacked into one forward pass — a
    /// worker stops draining the queue once a batch reaches this many
    /// rows (a single over-large job still runs whole)
    pub max_batch_rows: usize,
    /// bound on *pending* prediction rows across all queued jobs; beyond
    /// it, [`ServeEngine::submit_opts`] rejects with
    /// [`QrossError::Overloaded`]
    pub queue_capacity: usize,
    /// LRU prediction-cache capacity in entries; `0` disables caching
    pub cache_capacity: usize,
    /// per-tenant admission: row quotas and deficit-weighted round-robin
    /// draining into the micro-batcher
    pub tenants: TenantPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            max_batch_rows: 64,
            queue_capacity: 4096,
            cache_capacity: 4096,
            tenants: TenantPolicy::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-tenant admission control
// ---------------------------------------------------------------------------

/// The tenant every untagged request is accounted to.
pub const DEFAULT_TENANT: &str = "default";

/// Hard cap on distinct tenants the engine will track. Tenant names come
/// off the wire, so an unbounded registry would be a memory DoS vector;
/// once the cap is reached, requests for *new* tenant names are accounted
/// to [`DEFAULT_TENANT`] instead (served, but without a private quota).
pub const MAX_TENANTS: usize = 1024;

/// Service class of one tenant: its fair-queueing weight and its
/// admission quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantClass {
    /// deficit-weighted round-robin share (relative to other tenants'
    /// weights); clamped to ≥ 1
    pub weight: u32,
    /// token quota: the most *pending* (queued, un-answered) prediction
    /// rows this tenant may hold at once. `0` means "no private bound" —
    /// only the global `queue_capacity` applies
    pub quota_rows: usize,
}

impl Default for TenantClass {
    fn default() -> Self {
        TenantClass {
            weight: 1,
            quota_rows: 0,
        }
    }
}

/// Per-tenant admission policy for a serving engine.
///
/// Tenancy is cooperative labelling, not authentication: a request's
/// optional `tenant` tag selects which queue, quota and weight it is
/// accounted to, so one hot integration cannot starve the rest of a
/// shared engine. Unknown tenants are registered on first use with
/// `default_class`; tenants named in `classes` get their configured
/// weight/quota from the start.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantPolicy {
    /// class applied to tenants not listed in `classes`
    pub default_class: TenantClass,
    /// explicitly provisioned tenants (name → class)
    pub classes: Vec<(String, TenantClass)>,
}

impl TenantPolicy {
    /// The class for `name` — its explicit entry, or the default.
    fn class_for(&self, name: &str) -> TenantClass {
        self.classes
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, class)| class)
            .unwrap_or(self.default_class)
    }
}

/// Completion hook a nonblocking front-end passes to
/// [`ServeEngine::submit_opts`]: invoked from a worker thread after the
/// request's result is delivered, e.g. to write a wake byte to an event
/// loop's self-pipe. Must be cheap and must not block.
///
/// It fires only for jobs a worker completes. A full cache hit or an
/// empty `a_values` returns a handle whose [`PendingPrediction::poll`]
/// is already `true`, and a held lone job that its handle's first
/// [`PendingPrediction::poll`] runs on the calling thread is answered
/// there; neither calls the hook.
pub type CompletionNotify = Arc<dyn Fn() + Send + Sync>;

/// The engine-wide serving counters, read from the engine's registry
/// in one pass ([`ServeEngine::stats`]; [`ServeEngine::metrics`] derives
/// its rates from the same snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// requests accepted (including fully-cached fast-path responses)
    pub requests: usize,
    /// prediction rows answered
    pub rows: usize,
    /// rows answered from the cache
    pub cache_hits: usize,
    /// forward-pass batches executed (by workers, or by the thread whose
    /// handle runs a lone job held on an idle engine)
    pub batches: usize,
    /// rows answered by a forward pass (cache hits excluded)
    pub batched_rows: usize,
    /// requests rejected with [`QrossError::Overloaded`]
    /// (`rejected_quota + rejected_capacity`)
    pub rejected: usize,
    /// requests rejected because the tenant's own row quota was full
    pub rejected_quota: usize,
    /// requests rejected because the global queue capacity was full
    pub rejected_capacity: usize,
    /// feedback records accepted ([`ServeEngine::submit_feedback`])
    pub feedback: usize,
    /// successful retrain/hot-swap cycles
    pub refreshes: usize,
}

/// How many slow requests the engine's trace ring retains for the
/// `trace` protocol op (the N slowest since start, by total span time).
const TRACE_CAPACITY: usize = 64;

/// The engine's observability bundle: a per-engine [`obs::Registry`]
/// (engine-owned so parallel engines and tests never share counters),
/// the registered handles the hot paths record through, and the
/// keep-the-slowest trace log behind the `trace` op.
///
/// Recording is lock-free (sharded relaxed atomics); under the `obs-off`
/// feature every recording call compiles to a no-op and
/// [`ServeEngine::metrics`] degrades to zeros. Response *bytes* are
/// identical either way — CI replays the committed request mixes against
/// both builds and diffs them.
pub struct ServeObs {
    registry: Arc<obs::Registry>,
    trace_log: Arc<obs::TraceLog>,
    requests: Arc<obs::Counter>,
    rows: Arc<obs::Counter>,
    cache_hits: Arc<obs::Counter>,
    batches: Arc<obs::Counter>,
    /// rows answered by a forward pass (excludes cache hits) —
    /// `batched_rows / batches` is the mean batch occupancy
    batched_rows: Arc<obs::Counter>,
    rejected_quota: Arc<obs::Counter>,
    rejected_capacity: Arc<obs::Counter>,
    /// drained batches whose computation panicked (each job answered
    /// with an error; the thread lives on)
    worker_panics: Arc<obs::Counter>,
    feedback: Arc<obs::Counter>,
    refreshes: Arc<obs::Counter>,
    /// submit→answer latency of every accepted request
    latency: Arc<obs::Histogram>,
    /// per-[`obs::Stage`] latency breakdown, [`obs::Stage::ALL`] order
    stage: [Arc<obs::Histogram>; obs::STAGES],
    queue_depth: Arc<obs::Gauge>,
    generation: Arc<obs::Gauge>,
    retrain_ns: Arc<obs::Histogram>,
    swap_ns: Arc<obs::Histogram>,
    replay_depth: Arc<obs::Gauge>,
}

impl ServeObs {
    /// Registers the engine's full metric set on a fresh registry, so the
    /// exposition schema is stable from the first scrape (metrics appear
    /// at zero, not on first use).
    pub fn new() -> Self {
        let registry = Arc::new(obs::Registry::new());
        let r = &registry;
        let stage = obs::Stage::ALL.map(|s| {
            r.histogram(
                obs::labeled("qross_serve_stage_ns", &[("stage", s.name())]),
                "per-stage request latency breakdown (ns)",
            )
        });
        ServeObs {
            requests: r.counter("qross_serve_requests_total", "requests accepted"),
            rows: r.counter("qross_serve_rows_total", "prediction rows answered"),
            cache_hits: r.counter(
                "qross_serve_cache_hits_total",
                "rows answered from the prediction cache",
            ),
            batches: r.counter("qross_serve_batches_total", "forward-pass batches executed"),
            batched_rows: r.counter(
                "qross_serve_batched_rows_total",
                "rows answered by forward passes (cache hits excluded)",
            ),
            rejected_quota: r.counter(
                obs::labeled("qross_serve_rejected_total", &[("reason", "quota")]),
                "requests rejected, by reason (tenant quota vs global capacity)",
            ),
            rejected_capacity: r.counter(
                obs::labeled("qross_serve_rejected_total", &[("reason", "capacity")]),
                "requests rejected, by reason (tenant quota vs global capacity)",
            ),
            worker_panics: r.counter(
                "qross_serve_worker_panics_total",
                "drained batches whose computation panicked (their jobs answered with an error)",
            ),
            feedback: r.counter(
                "qross_online_feedback_total",
                "feedback records accepted by the online loop",
            ),
            refreshes: r.counter(
                "qross_online_refreshes_total",
                "successful retrain/hot-swap cycles (generation installs)",
            ),
            latency: r.histogram(
                "qross_serve_latency_ns",
                "submit-to-answer latency of accepted requests (ns)",
            ),
            stage,
            queue_depth: r.gauge(
                "qross_serve_queue_depth_rows",
                "rows currently queued across all tenants",
            ),
            generation: r.gauge(
                "qross_serve_model_generation",
                "model generation currently serving new requests",
            ),
            retrain_ns: r.histogram(
                "qross_online_retrain_ns",
                "online retrain duration, merge through checkpoint and swap (ns)",
            ),
            swap_ns: r.histogram(
                "qross_online_swap_ns",
                "model hot-swap critical section (ns)",
            ),
            replay_depth: r.gauge(
                "qross_online_replay_depth_rows",
                "replay-buffer records retained",
            ),
            trace_log: Arc::new(obs::TraceLog::new(TRACE_CAPACITY)),
            registry,
        }
    }

    /// The engine's metric registry — exposition renders it alongside
    /// [`obs::global()`] (which holds the solver-kernel metrics).
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// The keep-the-slowest request log the `trace` op dumps.
    pub fn trace_log(&self) -> &Arc<obs::TraceLog> {
        &self.trace_log
    }

    /// Records `ns` into the per-stage histogram for `stage`. The wire
    /// layer calls this for decode/encode (it owns those stages' clocks);
    /// the engine records the interior stages itself.
    pub fn record_stage(&self, stage: obs::Stage, ns: u64) {
        self.stage[stage as usize].record(ns);
    }

    /// Folds a finished request's span into the engine-interior stage
    /// histograms (queue/batch/forward/cache — decode/encode belong to
    /// the wire layer).
    fn record_engine_stages(&self, span: &obs::Span) {
        if !obs::ENABLED {
            return;
        }
        for stage in [
            obs::Stage::Queue,
            obs::Stage::Batch,
            obs::Stage::Forward,
            obs::Stage::Cache,
        ] {
            self.stage[stage as usize].record(span.stage_ns(stage));
        }
    }

    /// Records a finished request's engine latency and stages and
    /// assembles its answer from the filled result slots.
    fn answer(
        &self,
        submitted: Instant,
        span: obs::Span,
        results: Vec<Option<SurrogatePrediction>>,
    ) -> Answer {
        let out: Vec<SurrogatePrediction> = results
            .into_iter()
            .map(|r| r.expect("all slots computed"))
            .collect();
        if obs::ENABLED {
            self.latency.record(submitted.elapsed().as_nanos() as u64);
            self.record_engine_stages(&span);
        }
        (span, Ok(out))
    }

    fn snapshot(&self) -> ServeStats {
        let quota = self.rejected_quota.get() as usize;
        let capacity = self.rejected_capacity.get() as usize;
        ServeStats {
            requests: self.requests.get() as usize,
            rows: self.rows.get() as usize,
            cache_hits: self.cache_hits.get() as usize,
            batches: self.batches.get() as usize,
            batched_rows: self.batched_rows.get() as usize,
            rejected: quota + capacity,
            rejected_quota: quota,
            rejected_capacity: capacity,
            feedback: self.feedback.get() as usize,
            refreshes: self.refreshes.get() as usize,
        }
    }
}

impl Default for ServeObs {
    fn default() -> Self {
        ServeObs::new()
    }
}

// ---------------------------------------------------------------------------
// LRU prediction cache
// ---------------------------------------------------------------------------

/// Cache key: the model generation, then the exact IEEE-754 bit patterns
/// of the feature vector, then the relaxation parameter. Bit-pattern
/// keying makes the cache safe for a bit-exactness contract — `0.1 + 0.2`
/// and `0.3` are *different* keys, and NaN payloads (which compare unequal
/// as f64) still key consistently. The generation prefix makes stale hits
/// across hot-swaps impossible: a value computed on generation `g` can
/// only ever answer a request admitted under generation `g`.
type CacheKey = Box<[u64]>;

fn cache_key(generation: u64, features: &[f64], a: f64) -> CacheKey {
    std::iter::once(generation)
        .chain(features.iter().map(|v| v.to_bits()))
        .chain(std::iter::once(a.to_bits()))
        .collect()
}

const NIL: usize = usize::MAX;

struct CacheEntry {
    key: CacheKey,
    value: SurrogatePrediction,
    prev: usize,
    next: usize,
}

/// Fixed-capacity LRU map: O(1) get/insert via a slab-backed doubly linked
/// recency list. Capacity 0 disables it (get misses, insert drops).
struct LruCache {
    capacity: usize,
    map: HashMap<CacheKey, usize>,
    slab: Vec<CacheEntry>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl LruCache {
    fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            slab: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }

    /// Drops every entry (used after a hot-swap: superseded generations'
    /// entries can never hit again, so free their capacity immediately).
    fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Unlinks `idx` from the recency list (leaves slab slot intact).
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    /// Links `idx` at the most-recently-used end.
    fn link_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slab[h].prev = idx,
        }
        self.head = idx;
    }

    fn get(&mut self, key: &[u64]) -> Option<SurrogatePrediction> {
        let idx = *self.map.get(key)?;
        if idx != self.head {
            self.unlink(idx);
            self.link_front(idx);
        }
        Some(self.slab[idx].value)
    }

    fn insert(&mut self, key: CacheKey, value: SurrogatePrediction) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            // Concurrent workers may compute the same key; the values are
            // bit-identical by the batching contract, so just refresh.
            self.slab[idx].value = value;
            if idx != self.head {
                self.unlink(idx);
                self.link_front(idx);
            }
            return;
        }
        if self.map.len() == self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let old_key = std::mem::take(&mut self.slab[victim].key);
            self.map.remove(&old_key);
            self.free.push(victim);
        }
        let idx = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = CacheEntry {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.slab.push(CacheEntry {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.link_front(idx);
    }
}

// ---------------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------------

/// A finished request: its trace span and its predictions (or error).
type Answer = (obs::Span, Result<Vec<SurrogatePrediction>, QrossError>);

/// How a worker hands a queued job's answer back: the submitter's
/// channel, then its optional wake hook.
type Reply = (mpsc::Sender<Answer>, Option<CompletionNotify>);

/// One queued request: a feature vector evaluated at one or more `A`
/// values. `results[k]` is pre-filled for cache hits;
/// [`Shared::process_batch`] computes the `None` slots. `model` is the
/// versioned model captured at submit time — the generation this job is
/// answered by, whatever swaps land while it waits.
struct Job {
    features: Arc<Vec<f64>>,
    a_values: Vec<f64>,
    results: Vec<Option<SurrogatePrediction>>,
    model: Arc<VersionedModel>,
    submitted: Instant,
    /// the request's trace span, accumulated through the pipeline and
    /// returned to the submitter alongside the result
    span: obs::Span,
    reply: Reply,
}

impl Job {
    fn pending_rows(&self) -> usize {
        self.results.iter().filter(|r| r.is_none()).count()
    }

    /// Records the computed job's latency and engine stages and returns
    /// its answer.
    fn finish(&mut self, serve_obs: &ServeObs) -> Answer {
        serve_obs.answer(self.submitted, self.span, std::mem::take(&mut self.results))
    }
}

/// Sends a worker-computed answer down its reply route.
fn deliver(answer: Answer, (tx, notify): Reply) {
    // A dropped receiver just means the client went away; ignore.
    let _ = tx.send(answer);
    // Wake the submitter's event loop (if any) only after the answer is
    // deliverable: a woken poller must find the response ready.
    if let Some(notify) = notify {
        notify();
    }
}

/// One tenant's admission state: its FIFO of queued jobs, its quota
/// accounting, and its deficit-round-robin scheduling state. Its counts
/// live in the registry ([`TenantSeries`]).
struct TenantQueue {
    name: String,
    class: TenantClass,
    jobs: VecDeque<Job>,
    /// pending (queued, unanswered) rows — the quantity `quota_rows`
    /// bounds
    pending_rows: usize,
    /// deficit counter: rows of service this tenant is owed. Topped up by
    /// `weight`·quantum on each scheduler visit, spent as jobs drain,
    /// reset when the tenant goes idle (classic DWRR).
    deficit: u64,
    /// whether this tenant is in the active ring
    queued: bool,
}

/// One tenant's labelled series in the engine's registry
/// (`qross_serve_tenant_*_total{tenant="…"}`), registered with the
/// tenant, so there are at most [`MAX_TENANTS`] of each.
struct TenantSeries {
    requests: Arc<obs::Counter>,
    rows: Arc<obs::Counter>,
    /// rows dispatched while another tenant had queued jobs: the service
    /// this tenant won against live demand, which the deficit-weighted
    /// round-robin shares by weight
    contended_rows: Arc<obs::Counter>,
    rejected_quota: Arc<obs::Counter>,
    rejected_capacity: Arc<obs::Counter>,
}

impl TenantSeries {
    fn register(registry: &obs::Registry, tenant: &str) -> TenantSeries {
        let counter =
            |base: &str, help| registry.counter(obs::labeled(base, &[("tenant", tenant)]), help);
        let rejected = |reason| {
            registry.counter(
                obs::labeled(
                    "qross_serve_tenant_rejected_total",
                    &[("tenant", tenant), ("reason", reason)],
                ),
                "requests rejected per tenant, by reason (tenant quota vs global capacity)",
            )
        };
        TenantSeries {
            requests: counter(
                "qross_serve_tenant_requests_total",
                "requests accepted per tenant",
            ),
            rows: counter(
                "qross_serve_tenant_rows_total",
                "prediction rows answered per tenant",
            ),
            contended_rows: counter(
                "qross_serve_tenant_contended_rows_total",
                "rows dispatched per tenant while another tenant had queued jobs",
            ),
            rejected_quota: rejected("quota"),
            rejected_capacity: rejected("capacity"),
        }
    }
}

/// The tenant-aware job queue. A tenant with queued jobs sits in the
/// `active` ring; workers drain the ring deficit-weighted round-robin, so
/// a flooding tenant's backlog cannot delay other tenants by more than
/// one batch. Tenancy is invisible when every request is untagged: one
/// default tenant means one FIFO, exactly the pre-tenant behaviour.
struct Queue {
    tenants: Vec<TenantQueue>,
    /// each tenant's registry series, parallel to `tenants`
    series: Vec<TenantSeries>,
    /// the engine's registry, where `register` adds a tenant's series
    registry: Arc<obs::Registry>,
    by_name: HashMap<String, usize>,
    /// round-robin ring of tenant indices with queued jobs
    active: VecDeque<usize>,
    /// pending rows across all tenants (the global `queue_capacity`
    /// bound)
    pending_rows: usize,
    /// workers waiting on `work_ready`
    parked: usize,
    /// ticket of the one job queued without waking a worker, while it is
    /// still the only job queued; only then may its handle take the job
    /// back (see [`Shared::claim`]). Any later push or drain clears it:
    /// the woken worker answers the job (an unpolled one too)
    held: Option<u64>,
    /// tickets handed out so far
    tickets: u64,
    shutdown: bool,
}

/// Rows of service granted per unit of tenant weight each time the
/// scheduler visits a tenant. Must be small relative to `max_batch_rows`:
/// weighted sharing is arbitrated *within* a drained batch, so a quantum
/// near the batch size would let whichever tenant is at the ring front
/// fill whole batches and degrade the share to round-robin.
const DWRR_QUANTUM_ROWS: u64 = 2;

impl Queue {
    fn new(policy: &TenantPolicy, registry: Arc<obs::Registry>) -> Queue {
        let mut queue = Queue {
            tenants: Vec::new(),
            series: Vec::new(),
            registry,
            by_name: HashMap::new(),
            active: VecDeque::new(),
            pending_rows: 0,
            parked: 0,
            held: None,
            tickets: 0,
            shutdown: false,
        };
        // The default tenant is index 0, always present.
        queue.register(DEFAULT_TENANT, policy.class_for(DEFAULT_TENANT));
        for (name, class) in &policy.classes {
            if !queue.by_name.contains_key(name) {
                queue.register(name, *class);
            }
        }
        queue
    }

    fn register(&mut self, name: &str, class: TenantClass) -> usize {
        let idx = self.tenants.len();
        self.tenants.push(TenantQueue {
            name: name.to_string(),
            class: TenantClass {
                weight: class.weight.max(1),
                quota_rows: class.quota_rows,
            },
            jobs: VecDeque::new(),
            pending_rows: 0,
            deficit: 0,
            queued: false,
        });
        self.series
            .push(TenantSeries::register(&self.registry, name));
        self.by_name.insert(name.to_string(), idx);
        idx
    }

    /// Index of `tenant`, registering it with the default class on first
    /// use. Past [`MAX_TENANTS`] distinct names, unknown tenants fold
    /// into the default tenant (reject-never-OOM applies to the tenant
    /// registry too).
    fn tenant_index(&mut self, tenant: Option<&str>, policy: &TenantPolicy) -> usize {
        let Some(name) = tenant.filter(|n| !n.is_empty() && *n != DEFAULT_TENANT) else {
            return 0;
        };
        if let Some(&idx) = self.by_name.get(name) {
            return idx;
        }
        if self.tenants.len() >= MAX_TENANTS {
            return 0;
        }
        self.register(name, policy.class_for(name))
    }

    /// Whether any tenant has queued jobs.
    fn is_idle(&self) -> bool {
        self.active.is_empty()
    }

    /// Enqueues `job` on tenant `idx` and links the tenant into the
    /// active ring. Caller has already done quota accounting and wakes a
    /// worker; a held job stops being claimable.
    fn push(&mut self, idx: usize, job: Job) {
        self.held = None;
        let rows = job.pending_rows();
        let tenant = &mut self.tenants[idx];
        tenant.pending_rows += rows;
        tenant.jobs.push_back(job);
        self.pending_rows += rows;
        if !tenant.queued {
            tenant.queued = true;
            self.active.push_back(idx);
        }
    }

    /// Deficit-weighted round-robin drain: collects up to
    /// `max_batch_rows` pending rows of jobs for one worker batch,
    /// cycling tenants in the active ring. Each visit tops a tenant's
    /// deficit up by `weight`·quantum and serves whole jobs while the
    /// deficit covers them, so service converges on the weight ratio
    /// whatever each tenant's backlog looks like. A worker never leaves
    /// empty-handed while jobs are queued: with an empty batch the front
    /// job is served regardless of deficit (work conservation — fairness
    /// only arbitrates *contended* batches).
    fn drain_batch(&mut self, max_batch_rows: usize) -> Vec<Job> {
        self.held = None;
        let mut batch = Vec::new();
        let mut rows = 0usize;
        // Every ring visit either serves ≥1 job or retires the tenant
        // from the ring, except deficit top-ups that still don't cover
        // the front job — bounded by job size / quantum, so this loop
        // terminates. `visits` is a belt-and-braces backstop.
        let mut visits = 0usize;
        let max_visits = self
            .active
            .len()
            .saturating_mul(2)
            .saturating_add(max_batch_rows / DWRR_QUANTUM_ROWS as usize)
            .saturating_add(16);
        while rows < max_batch_rows && visits < max_visits {
            visits += 1;
            let Some(&idx) = self.active.front() else {
                break;
            };
            let tenant = &mut self.tenants[idx];
            if tenant.jobs.is_empty() {
                tenant.queued = false;
                tenant.deficit = 0;
                self.active.pop_front();
                continue;
            }
            let top_up = DWRR_QUANTUM_ROWS * u64::from(tenant.class.weight);
            // Clamp accumulated credit: a backlogged tenant whose visits
            // keep getting cut short by batch boundaries must not bank
            // unbounded deficit it could later burst with.
            let deficit_cap = top_up.saturating_add(max_batch_rows as u64);
            tenant.deficit = tenant.deficit.saturating_add(top_up).min(deficit_cap);
            // A tenant leaves the ring as soon as its queue empties, so
            // every other ring member has queued jobs.
            let contended = self.active.len() > 1;
            while let Some(job) = tenant.jobs.front() {
                let job_rows = job.pending_rows();
                if rows + job_rows > max_batch_rows && !batch.is_empty() {
                    // Batch is full; later rows wait for the next worker.
                    rows = max_batch_rows;
                    break;
                }
                if u64::try_from(job_rows).unwrap_or(u64::MAX) > tenant.deficit && !batch.is_empty()
                {
                    break; // out of credit this round; rotate
                }
                tenant.deficit = tenant.deficit.saturating_sub(job_rows as u64);
                if contended {
                    self.series[idx].contended_rows.add(job_rows as u64);
                }
                tenant.pending_rows -= job_rows;
                self.pending_rows -= job_rows;
                rows += job_rows;
                batch.push(tenant.jobs.pop_front().expect("front checked"));
                if rows >= max_batch_rows {
                    break;
                }
            }
            // Rotate a still-backlogged tenant to the back of the ring;
            // retire an idle one (its deficit does not accrue while
            // idle — classic DWRR keeps long-idle tenants from bursting).
            self.active.pop_front();
            let tenant = &mut self.tenants[idx];
            if tenant.jobs.is_empty() {
                tenant.queued = false;
                tenant.deficit = 0;
            } else {
                self.active.push_back(idx);
            }
        }
        batch
    }
}

/// Mutable online-learning state, guarded by one lock so a feedback push
/// and its (possible) retrain snapshot are atomic — the snapshot of
/// retrain `k` is exactly the buffer contents after the record that
/// triggered it.
struct OnlineState {
    buffer: ReplayBuffer,
    feedback_count: u64,
    retrain_count: u64,
}

/// One queued retrain: the training snapshot (captured at trigger time),
/// its lineage counters, and the channel the resulting generation (or
/// error) is reported on.
struct RetrainJob {
    snapshot: Vec<FeedbackRecord>,
    retrain_index: u64,
    feedback_count: u64,
    reply: mpsc::Sender<Result<u64, QrossError>>,
}

/// Online-learning half of the shared engine state. Present only for
/// engines built with [`ServeEngine::with_online`].
struct OnlineShared {
    config: OnlineConfig,
    /// original training corpus merged under every fine-tune (`None`:
    /// fine-tune on the replay buffer alone)
    base: Option<SurrogateDataset>,
    state: Mutex<OnlineState>,
    /// retrains handed to the trainer and not yet completed — bounded by
    /// `config.max_pending_retrains` so a feedback flood cannot queue
    /// unbounded buffer snapshots behind a slow fine-tune
    pending_retrains: AtomicU64,
    /// trainer-thread inbox; taken (and dropped) on engine shutdown so
    /// the trainer drains queued retrains and exits
    trainer_tx: Mutex<Option<mpsc::Sender<RetrainJob>>>,
    /// makes the next retrain panic, to test trainer supervision
    #[cfg(test)]
    panic_next_retrain: std::sync::atomic::AtomicBool,
}

struct Shared {
    /// the current model epoch — swapped whole, read with one short lock
    /// (pointer shuffle only, never held across a forward pass)
    slot: Mutex<Arc<VersionedModel>>,
    /// mirror of the slot's generation for lock-free reads
    generation: AtomicU64,
    /// feature width, invariant across swaps (scalers are frozen)
    feature_dim: usize,
    config: ServeConfig,
    /// engine start time, the denominator of the qps metric
    started: Instant,
    queue: Mutex<Queue>,
    work_ready: Condvar,
    cache: Mutex<LruCache>,
    obs: ServeObs,
    online: Option<OnlineShared>,
    /// makes the next drained batch panic, to test worker supervision
    #[cfg(test)]
    panic_next_batch: std::sync::atomic::AtomicBool,
}

/// Locks a mutex, recovering from poisoning: a panicking thread must not
/// take the whole serving engine down with it (the protected state is
/// only ever mutated in small, invariant-preserving steps).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The message a panic was raised with.
fn panic_reason(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown cause".to_string())
}

impl Shared {
    /// The current model epoch (cheap: one short lock, one `Arc` clone).
    fn current_model(&self) -> Arc<VersionedModel> {
        Arc::clone(&lock(&self.slot))
    }

    /// Validates and admits one request; returns its response handle.
    ///
    /// Who computes the answer:
    /// * nobody, for a fully-cached request or an empty `a_values` — the
    ///   answer is assembled here (the fast path a warm serving process
    ///   mostly runs);
    /// * the handle's thread, for a lone single-row job on an idle
    ///   engine (nothing queued, a worker parked): the job is held —
    ///   queued without waking the worker, since a wake would only add a
    ///   context switch to a one-row batch — and the handle's first
    ///   [`PendingPrediction::poll`] takes it back if it is still the
    ///   only job queued;
    /// * a worker otherwise, or when any request arrives behind a held
    ///   job: jobs are micro-batched and scheduled deficit-weighted
    ///   round-robin across tenants.
    ///
    /// Every computed row goes through [`Shared::process_batch`], so the
    /// answer bits do not depend on the path. Only a worker fires
    /// `notify`. The request's trace span (and its trace ID) is minted
    /// here, once the request has passed validation.
    fn submit_opts(
        self: &Arc<Self>,
        tenant: Option<&str>,
        features: Vec<f64>,
        a_values: Vec<f64>,
        notify: Option<CompletionNotify>,
    ) -> Result<PendingPrediction, QrossError> {
        let expect = self.feature_dim;
        if features.len() != expect {
            return Err(QrossError::BadRequest {
                message: format!("expected {expect} features, got {}", features.len()),
            });
        }
        if let Some(bad) = features.iter().find(|v| !v.is_finite()) {
            return Err(QrossError::BadRequest {
                message: format!("non-finite feature value {bad}"),
            });
        }
        if let Some(&bad) = a_values.iter().find(|a| !a.is_finite() || **a <= 0.0) {
            return Err(QrossError::BadRequest {
                message: format!("relaxation parameter must be finite and positive, got {bad}"),
            });
        }
        let mut span = obs::Span::begin();
        let submitted = Instant::now();
        // Accepted-work counters are bumped only once a request is
        // actually admitted (inline or enqueued): a rejected request must
        // show up in `rejected`, never in `requests`/`rows`. Per-tenant
        // series are reached under the queue lock, which also owns the
        // tenant table.
        let total_rows = a_values.len() as u64;
        let accept = |hits: u64| {
            self.obs.requests.inc();
            self.obs.rows.add(total_rows);
            if hits > 0 {
                self.obs.cache_hits.add(hits);
            }
        };
        let accept_tenant = |q: &Queue, idx: usize| {
            q.series[idx].requests.inc();
            q.series[idx].rows.add(total_rows);
        };
        if a_values.is_empty() {
            accept(0);
            let mut q = lock(&self.queue);
            let idx = q.tenant_index(tenant, &self.config.tenants);
            accept_tenant(&q, idx);
            drop(q);
            self.obs.latency.record(0);
            self.obs.record_engine_stages(&span);
            return Ok(PendingPrediction::ready((span, Ok(Vec::new()))));
        }

        // Capture the model epoch this request is answered by. Everything
        // from here on — cache probe, forward pass, cache fill — runs
        // against this generation, even if a hot-swap lands concurrently.
        let model = self.current_model();

        // Cache probe under one short lock.
        let mut results: Vec<Option<SurrogatePrediction>> = vec![None; a_values.len()];
        let mut hits = 0u64;
        if self.config.cache_capacity > 0 {
            let sw = obs::Stopwatch::start();
            let mut cache = lock(&self.cache);
            for (slot, &a) in a_values.iter().enumerate() {
                if let Some(hit) = cache.get(&cache_key(model.generation, &features, a)) {
                    results[slot] = Some(hit);
                    hits += 1;
                }
            }
            drop(cache);
            span.record(obs::Stage::Cache, sw.elapsed_ns());
        }

        let pending = results.iter().filter(|r| r.is_none()).count();
        if pending == 0 {
            accept(hits);
            let mut q = lock(&self.queue);
            let idx = q.tenant_index(tenant, &self.config.tenants);
            accept_tenant(&q, idx);
            drop(q);
            return Ok(PendingPrediction::ready(
                self.obs.answer(submitted, span, results),
            ));
        }
        if pending > self.config.queue_capacity {
            // Could never fit even in an empty queue: this is a malformed
            // request (grid larger than the engine's bound), not transient
            // load — retrying would loop forever on Overloaded.
            return Err(QrossError::BadRequest {
                message: format!(
                    "{pending} uncached rows exceed the queue capacity {} — split the grid",
                    self.config.queue_capacity
                ),
            });
        }
        let mut q = lock(&self.queue);
        let idx = q.tenant_index(tenant, &self.config.tenants);
        // Admission control: the tenant's private token quota first,
        // then the global bound. Both reject immediately (typed
        // backpressure, never unbounded buffering).
        let quota = q.tenants[idx].class.quota_rows;
        if quota > 0 && q.tenants[idx].pending_rows + pending > quota {
            q.series[idx].rejected_quota.inc();
            self.obs.rejected_quota.inc();
            return Err(QrossError::Overloaded { capacity: quota });
        }
        if q.pending_rows + pending > self.config.queue_capacity {
            q.series[idx].rejected_capacity.inc();
            self.obs.rejected_capacity.inc();
            return Err(QrossError::Overloaded {
                capacity: self.config.queue_capacity,
            });
        }
        accept_tenant(&q, idx);
        let hold = pending == 1 && q.is_idle() && q.parked > 0;
        let (tx, rx) = mpsc::channel();
        q.push(
            idx,
            Job {
                features: Arc::new(features),
                a_values,
                results,
                model,
                submitted,
                span,
                reply: (tx, notify),
            },
        );
        let held = hold.then(|| {
            q.tickets += 1;
            q.held = Some(q.tickets);
            Held {
                shared: Arc::clone(self),
                ticket: q.tickets,
            }
        });
        drop(q);
        accept(hits);
        if held.is_none() {
            self.work_ready.notify_one();
        }
        Ok(PendingPrediction::queued(rx, held))
    }

    /// Takes the held job `ticket` back from the queue and runs it on the
    /// calling thread (with that thread's own [`PredictScratch`]), unless
    /// another push or a drain came first: a worker then answers it
    /// through the job's channel, and this returns `None`.
    fn claim(&self, ticket: u64) -> Option<Answer> {
        thread_local! {
            static SCRATCH: RefCell<PredictScratch> = RefCell::new(PredictScratch::new());
        }
        let mut batch = {
            let mut q = lock(&self.queue);
            if q.held != Some(ticket) {
                return None;
            }
            // A held job is the only one queued, so this drains it alone.
            q.drain_batch(1)
        };
        let mut answer = None;
        SCRATCH.with(|scratch| {
            self.run_batch(&mut scratch.borrow_mut(), &mut batch, |_, a| {
                answer = Some(a);
            });
        });
        Some(answer.expect("the held job was queued"))
    }

    /// Point-in-time metrics snapshot. Counters are relaxed atomics and
    /// the per-tenant table is read under the queue lock, so the snapshot
    /// is cheap but only approximately consistent across fields — fine
    /// for observability, not for accounting.
    fn metrics(&self) -> EngineMetrics {
        let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
        let stats = self.obs.snapshot();
        let (queue_depth, tenants) = {
            let q = lock(&self.queue);
            let tenants = q
                .tenants
                .iter()
                .zip(&q.series)
                .filter(|(t, s)| {
                    s.requests.get() + s.rejected_quota.get() + s.rejected_capacity.get() > 0
                        || t.class != TenantClass::default()
                })
                .map(|(t, s)| {
                    let (quota, capacity) = (s.rejected_quota.get(), s.rejected_capacity.get());
                    TenantMetrics {
                        tenant: t.name.clone(),
                        weight: t.class.weight,
                        quota_rows: t.class.quota_rows,
                        requests: s.requests.get(),
                        rows: s.rows.get(),
                        rejected: quota + capacity,
                        rejected_quota: quota,
                        rejected_capacity: capacity,
                        pending_rows: t.pending_rows,
                    }
                })
                .collect();
            (q.pending_rows, tenants)
        };
        let generation = self.generation.load(Ordering::SeqCst);
        // Instantaneous values are mirrored into gauges here, on the
        // metrics/scrape path, so exposition stays current without the
        // hot path maintaining them.
        self.obs.queue_depth.set(queue_depth as i64);
        self.obs.generation.set(generation as i64);
        let latency = self.obs.latency.snapshot();
        let ratio = |num: usize, den: usize| {
            if den > 0 {
                num as f64 / den as f64
            } else {
                0.0
            }
        };
        EngineMetrics {
            uptime_secs: uptime,
            qps: stats.requests as f64 / uptime,
            latency_p50_us: latency.quantile(0.50).map(|ns| ns / 1_000.0),
            latency_p99_us: latency.quantile(0.99).map(|ns| ns / 1_000.0),
            batch_occupancy: ratio(stats.batched_rows, stats.batches),
            cache_hit_rate: ratio(stats.cache_hits, stats.rows),
            generation,
            queue_depth,
            rejected: stats.rejected as u64,
            rejected_quota: stats.rejected_quota as u64,
            rejected_capacity: stats.rejected_capacity as u64,
            tenants,
        }
    }

    /// Worker body: drain a batch of jobs, answer them with one forward
    /// pass per head, repeat until shutdown *and* the queue is empty
    /// (queued work is always drained, never dropped).
    fn worker_loop(self: &Arc<Self>) {
        // Per-worker input-staging scratch: batched predicts reuse one
        // buffer across this worker's lifetime instead of allocating per
        // drained batch (bit-invisible — see `PredictScratch`).
        let mut scratch = PredictScratch::new();
        loop {
            let mut batch: Vec<Job> = {
                let mut q = lock(&self.queue);
                loop {
                    if !q.is_idle() {
                        break;
                    }
                    if q.shutdown {
                        return;
                    }
                    q.parked += 1;
                    q = match self.work_ready.wait(q) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    q.parked -= 1;
                }
                q.drain_batch(self.config.max_batch_rows)
            };
            self.run_batch(&mut scratch, &mut batch, |job, answer| {
                deliver(answer, job.reply)
            });
        }
    }

    /// Computes `batch` ([`Shared::process_batch`]), finishes each job
    /// and hands it with its answer to `answered`, in order, under one
    /// `catch_unwind`; `batch` is empty afterwards. A panic is caught on
    /// whichever thread runs the batch (a worker, or the thread claiming a
    /// held job): every job not yet answered gets a [`QrossError::Serve`]
    /// naming the panic, the panic is counted
    /// (`qross_serve_worker_panics_total`), and the thread carries on.
    /// The jobs' rows left the queue's accounting when it drained them.
    fn run_batch(
        &self,
        scratch: &mut PredictScratch,
        batch: &mut Vec<Job>,
        mut answered: impl FnMut(Job, Answer),
    ) {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(test)]
            if self.panic_next_batch.swap(false, Ordering::SeqCst) {
                panic!("injected worker panic");
            }
            self.process_batch(scratch, batch);
            // Answered jobs leave `batch` one at a time (from the back of
            // the reversed batch), so each is freed as soon as it is
            // answered, and a panic leaves exactly the unanswered ones.
            batch.reverse();
            while let Some(job) = batch.last_mut() {
                let answer = job.finish(&self.obs);
                let job = batch.pop().expect("last job exists");
                answered(job, answer);
            }
        }));
        if let Err(panic) = outcome {
            self.obs.worker_panics.inc();
            let message = format!("serving worker panicked: {}", panic_reason(&*panic));
            // The unanswered jobs (reversed if the panic came while
            // answering; error answers need no order).
            for job in std::mem::take(batch) {
                let error = QrossError::Serve {
                    message: message.clone(),
                };
                let span = job.span;
                answered(job, (span, Err(error)));
            }
        }
    }

    /// One stacked forward pass per model generation over every un-cached
    /// row of `batch`, then scatter into the jobs' result slots and fill
    /// the cache. The caller finishes the jobs.
    ///
    /// Jobs straddling a hot-swap may carry different generations in one
    /// drained batch; rows are grouped by the generation captured at
    /// submit time, so every job is answered by exactly the model it was
    /// admitted under (per-row bit-exactness is unaffected — matrix rows
    /// are accumulated independently).
    fn process_batch(&self, scratch: &mut PredictScratch, batch: &mut [Job]) {
        // Queue-wait stage: submit → drain. Measured before grouping so
        // assembly time lands in the batch stage, not here.
        if obs::ENABLED {
            for job in batch.iter_mut() {
                let waited = job.submitted.elapsed().as_nanos() as u64;
                job.span.record(obs::Stage::Queue, waited);
            }
        }
        let mut assembly = obs::Stopwatch::start();
        // (job index, slot index) per generation group, in deterministic
        // job/slot order within each group.
        type GenGroup = (Arc<VersionedModel>, Vec<(usize, usize)>);
        let mut groups: Vec<GenGroup> = Vec::new();
        for (j, job) in batch.iter().enumerate() {
            for (slot, r) in job.results.iter().enumerate() {
                if r.is_none() {
                    match groups
                        .iter_mut()
                        .find(|(m, _)| m.generation == job.model.generation)
                    {
                        Some((_, index)) => index.push((j, slot)),
                        None => groups.push((Arc::clone(&job.model), vec![(j, slot)])),
                    }
                }
            }
        }
        if obs::ENABLED {
            let assembly_ns = assembly.lap();
            for job in batch.iter_mut() {
                job.span.record(obs::Stage::Batch, assembly_ns);
            }
        }
        for (model, index) in &groups {
            let queries: Vec<(&[f64], f64)> = index
                .iter()
                .map(|&(j, slot)| (batch[j].features.as_slice(), batch[j].a_values[slot]))
                .collect();
            let sw = obs::Stopwatch::start();
            let predictions = model.model.surrogate().predict_many_with(scratch, &queries);
            let forward_ns = sw.elapsed_ns();
            self.obs.batches.inc();
            self.obs.batched_rows.add(queries.len() as u64);
            let mut cache_ns = 0u64;
            if self.config.cache_capacity > 0 {
                let sw = obs::Stopwatch::start();
                let mut cache = lock(&self.cache);
                for (&(j, slot), &p) in index.iter().zip(&predictions) {
                    cache.insert(
                        cache_key(
                            model.generation,
                            &batch[j].features,
                            batch[j].a_values[slot],
                        ),
                        p,
                    );
                }
                drop(cache);
                cache_ns = sw.elapsed_ns();
            }
            for (&(j, slot), &p) in index.iter().zip(&predictions) {
                batch[j].results[slot] = Some(p);
            }
            if obs::ENABLED {
                // Attribute this group's forward/cache time to each job
                // that contributed rows, once per job (the index is in
                // non-decreasing job order by construction).
                let mut last_j = usize::MAX;
                for &(j, _) in index {
                    if j != last_j {
                        batch[j].span.record(obs::Stage::Forward, forward_ns);
                        batch[j].span.record(obs::Stage::Cache, cache_ns);
                        last_j = j;
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Online learning: feedback ingestion, retraining, hot-swap
    // -----------------------------------------------------------------

    /// Shorthand for the "engine was not started online" rejection.
    fn online_or_reject(&self) -> Result<&OnlineShared, QrossError> {
        self.online.as_ref().ok_or_else(|| QrossError::BadRequest {
            message: "engine is not running in online mode (start it with --online / \
                      ServeEngine::with_online)"
                .to_string(),
        })
    }

    /// Hands a retrain job to the trainer thread. Callers hold the online
    /// state lock, which orders jobs by their `retrain_index`.
    fn send_retrain(&self, online: &OnlineShared, job: RetrainJob) -> Result<(), QrossError> {
        // Count the job *before* handing it over: the trainer decrements
        // on completion, and incrementing after a successful send could
        // race a fast completion into an underflow.
        online.pending_retrains.fetch_add(1, Ordering::SeqCst);
        let tx = lock(&online.trainer_tx);
        match tx.as_ref() {
            Some(tx) if tx.send(job).is_ok() => Ok(()),
            _ => {
                online.pending_retrains.fetch_sub(1, Ordering::SeqCst);
                Err(QrossError::Serve {
                    message: "online trainer is not running".to_string(),
                })
            }
        }
    }

    /// Whether another retrain may be queued right now.
    fn retrain_capacity_left(&self, online: &OnlineShared) -> bool {
        let cap = online.config.max_pending_retrains.max(1) as u64;
        online.pending_retrains.load(Ordering::SeqCst) < cap
    }

    /// Validates and ingests one feedback record; triggers a retrain when
    /// the record is the `refresh_after`-th since the last trigger.
    fn submit_feedback(&self, record: FeedbackRecord) -> Result<FeedbackAck, QrossError> {
        let online = self.online_or_reject()?;
        record.validate(self.feature_dim)?;
        let ack = {
            let mut st = lock(&online.state);
            st.buffer.push(record);
            st.feedback_count += 1;
            // Triggers landing while the trainer is already saturated are
            // coalesced: the record stays in the buffer (nothing is
            // dropped) and a later retrain trains on it. This bounds
            // queued snapshots at `max_pending_retrains`.
            let trigger = online.config.refresh_after > 0
                && st.feedback_count % online.config.refresh_after as u64 == 0
                && self.retrain_capacity_left(online);
            let pending = if trigger {
                let (reply, rx) = mpsc::channel();
                // Snapshot *now*, under the same lock as the push: the
                // training set of retrain k is a pure function of the
                // feedback prefix that triggered it. The retrain index is
                // committed only once the trainer has the job — a send
                // failure (engine shutting down) must not burn an index a
                // clean replay of the same log would not burn, and the
                // record itself IS ingested either way, so the push is
                // never rolled back and this call still succeeds.
                let sent = self.send_retrain(
                    online,
                    RetrainJob {
                        snapshot: st.buffer.snapshot(),
                        retrain_index: st.retrain_count + 1,
                        feedback_count: st.feedback_count,
                        reply,
                    },
                );
                match sent {
                    Ok(()) => {
                        st.retrain_count += 1;
                        Some(PendingRefresh { rx })
                    }
                    Err(_) => None,
                }
            } else {
                None
            };
            self.obs.replay_depth.set(st.buffer.len() as i64);
            FeedbackAck {
                feedback_count: st.feedback_count,
                buffer_len: st.buffer.len(),
                refresh: pending,
            }
        };
        self.obs.feedback.inc();
        Ok(ack)
    }

    /// Forces a retrain/swap cycle regardless of the trigger counter.
    fn refresh(&self) -> Result<PendingRefresh, QrossError> {
        let online = self.online_or_reject()?;
        let mut st = lock(&online.state);
        if !self.retrain_capacity_left(online) {
            // Backpressure, same rule as the request queue: reject
            // instead of queueing snapshots without bound.
            return Err(QrossError::Overloaded {
                capacity: online.config.max_pending_retrains.max(1),
            });
        }
        let (reply, rx) = mpsc::channel();
        // Index committed only after the trainer has the job (a failed
        // send must not desynchronise retrain_count from the seeds a
        // clean replay would derive).
        self.send_retrain(
            online,
            RetrainJob {
                snapshot: st.buffer.snapshot(),
                retrain_index: st.retrain_count + 1,
                feedback_count: st.feedback_count,
                reply,
            },
        )?;
        st.retrain_count += 1;
        Ok(PendingRefresh { rx })
    }

    /// Trainer-thread body: fine-tune → checkpoint → swap, one queued
    /// retrain at a time, until the engine drops its sender.
    ///
    /// A panicking retrain is caught and reported as
    /// [`QrossError::Serve`]: its pending count is released and the
    /// thread lives on, so one bad fine-tune cannot leave every later
    /// `refresh` bouncing `Overloaded`. The slot is swapped only after a
    /// retrain succeeds, so the old generation keeps serving.
    fn trainer_loop(self: &Arc<Self>, rx: mpsc::Receiver<RetrainJob>) {
        while let Ok(job) = rx.recv() {
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_retrain(&job)))
                    .unwrap_or_else(|panic| {
                        Err(QrossError::Serve {
                            message: format!("online retrain panicked: {}", panic_reason(&*panic)),
                        })
                    });
            if let Some(online) = &self.online {
                online.pending_retrains.fetch_sub(1, Ordering::SeqCst);
            }
            // A dropped receiver just means nobody waited; ignore.
            let _ = job.reply.send(result);
        }
    }

    /// One retrain cycle. The swap is installed only after the checkpoint
    /// is durably written, so every generation the engine ever serves is
    /// reloadable from disk.
    fn run_retrain(&self, job: &RetrainJob) -> Result<u64, QrossError> {
        let online = self.online.as_ref().expect("trainer only runs online");
        #[cfg(test)]
        if online.panic_next_retrain.swap(false, Ordering::SeqCst) {
            panic!("injected retrain panic");
        }
        let retrain_sw = obs::Stopwatch::start();
        let current = self.current_model();
        let dataset = merge_for_finetune(
            online.base.as_ref(),
            &job.snapshot,
            online.config.feedback_weight,
            self.feature_dim,
        )?;
        let ft = FineTuneConfig {
            epochs: online.config.epochs,
            learning_rate: online.config.learning_rate,
            batch_size: online.config.batch_size,
            // Every retrain seed derives from (online seed, retrain
            // index): retrain k is bit-identical wherever it runs.
            seed: mathkit::rng::derive_seed(online.config.seed, 0x0F17_0000 + job.retrain_index),
        };
        let (tuned, _report) = current.model.surrogate().fine_tune(&dataset, &ft)?;
        let generation = current.generation + 1;
        if let Some(dir) = &online.config.checkpoint_dir {
            let checkpoint = SurrogateCheckpoint {
                lineage: Some(LineageHeader {
                    generation,
                    parent_generation: current.generation,
                    seed: online.config.seed,
                    retrain_index: job.retrain_index,
                    feedback_count: job.feedback_count,
                    replay_len: job.snapshot.len() as u64,
                }),
                state: tuned.to_state(),
            };
            checkpoint
                .save(dir.join(format!("ckpt-g{generation:06}.qross")))
                .map_err(QrossError::from)?;
        }
        let model = swap_surrogate(&current.model, tuned)?;
        {
            // Swap latency = the slot-lock critical section readers can
            // actually contend on (the pointer exchange, not the
            // fine-tune).
            let sw = obs::Stopwatch::start();
            let mut slot = lock(&self.slot);
            *slot = Arc::new(VersionedModel { generation, model });
            drop(slot);
            self.obs.swap_ns.record(sw.elapsed_ns());
        }
        self.generation.store(generation, Ordering::SeqCst);
        // Entries keyed to superseded generations can never hit again
        // (submit probes only the generation it captured), so clearing is
        // bit-exactness-neutral and releases the whole cache capacity to
        // the new generation at once instead of one LRU eviction at a
        // time. In-flight old-generation jobs may still insert a few
        // entries afterwards; they age out normally.
        if self.config.cache_capacity > 0 {
            lock(&self.cache).clear();
        }
        self.obs.refreshes.inc();
        self.obs.generation.set(generation as i64);
        self.obs.retrain_ns.record(retrain_sw.elapsed_ns());
        Ok(generation)
    }
}

/// Rebuilds a [`ServeModel`] of the same kind around a fine-tuned
/// surrogate. For bundles the featurizer is rebuilt from its recipe
/// (checked serialisable at [`ServeEngine::with_online`] time, so this
/// cannot fail after construction) and the instance encodings are shared.
fn swap_surrogate(model: &ServeModel, surrogate: Surrogate) -> Result<ServeModel, QrossError> {
    match model {
        ServeModel::Surrogate(_) => Ok(ServeModel::Surrogate(Arc::new(surrogate))),
        ServeModel::Bundle(t) => {
            let spec = t.featurizer.spec().ok_or_else(|| QrossError::Persistence {
                message: format!(
                    "featurizer `{}` has no serialisable recipe: cannot rebuild it for a swap",
                    t.featurizer.name()
                ),
            })?;
            Ok(ServeModel::Bundle(Arc::new(TrainedQross {
                surrogate,
                featurizer: spec.build(),
                train_encodings: t.train_encodings.clone(),
                test_encodings: t.test_encodings.clone(),
                dataset_len: t.dataset_len,
                report: t.report.clone(),
                config: t.config,
            })))
        }
    }
}

/// One tenant's row in [`EngineMetrics`], read from the tenant's
/// registry series. Counters are cumulative since engine start;
/// `pending_rows` is the instantaneous queued backlog the tenant's
/// `quota_rows` bounds. Field order is the frozen wire order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantMetrics {
    pub tenant: String,
    pub weight: u32,
    /// 0 = unlimited (only the global queue bound applies)
    pub quota_rows: usize,
    pub requests: u64,
    pub rows: u64,
    /// total rejections (`rejected_quota + rejected_capacity`)
    pub rejected: u64,
    /// rejections because this tenant's own row quota was full
    pub rejected_quota: u64,
    /// rejections because the global queue capacity was full
    pub rejected_capacity: u64,
    pub pending_rows: usize,
}

/// Point-in-time engine metrics ([`ServeEngine::metrics`]) — also the
/// frozen schema of the `metrics` protocol op, which serializes this
/// struct field for field on both wires. Latency quantiles come from a
/// log₂-bucketed histogram, so they are exact to within a factor of √2;
/// `None` until the first request completes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineMetrics {
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
    /// instantaneous queued (unanswered) rows across all tenants
    pub queue_depth: usize,
    /// total rejected requests (quota + global capacity)
    pub rejected: u64,
    /// rejections because a tenant's own row quota was full
    pub rejected_quota: u64,
    /// rejections because the global queue capacity was full
    pub rejected_capacity: u64,
    /// tenants that have seen traffic or carry a non-default class
    pub tenants: Vec<TenantMetrics>,
}

/// A response handle returned by [`ServeEngine::submit_opts`].
#[derive(Debug)]
pub struct PendingPrediction {
    state: Pending,
}

#[derive(Debug)]
enum Pending {
    /// answered, the answer in hand
    Ready(Answer),
    /// queued; a worker sends the answer unless `held` (a lone job queued
    /// without a wake, not yet polled) lets the first poll run it here
    Queued {
        rx: mpsc::Receiver<Answer>,
        held: Option<Held>,
    },
}

/// The claim a held job's handle has on it (see [`Shared::claim`]).
struct Held {
    shared: Arc<Shared>,
    ticket: u64,
}

impl std::fmt::Debug for Held {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Held")
            .field("ticket", &self.ticket)
            .finish_non_exhaustive()
    }
}

/// What a handle yields when no answer will ever come.
fn disconnected() -> Answer {
    (
        obs::Span::default(),
        Err(QrossError::Serve {
            message: "worker disconnected before answering".to_string(),
        }),
    )
}

impl PendingPrediction {
    fn ready(answer: Answer) -> Self {
        PendingPrediction {
            state: Pending::Ready(answer),
        }
    }

    fn queued(rx: mpsc::Receiver<Answer>, held: Option<Held>) -> Self {
        PendingPrediction {
            state: Pending::Queued { rx, held },
        }
    }

    /// Non-blocking: whether the answer is in hand, for
    /// [`PendingPrediction::wait_spanned`] to take without blocking.
    ///
    /// The first call runs the request on the calling thread if the
    /// engine held it (a lone single-row job on an idle engine) and it is
    /// still the only job queued. Otherwise, and on later calls, it moves
    /// an answer a worker delivered into the handle; a dead worker counts
    /// as answered, with the error [`PendingPrediction::wait`] reports.
    /// Front-ends call it once nothing more is staged behind the request,
    /// so a request with more input behind it stays queued for a worker
    /// batch, and again after their completion wake fires.
    pub fn poll(&mut self) -> bool {
        let Pending::Queued { rx, held } = &mut self.state else {
            return true;
        };
        let claimed = held
            .take()
            .and_then(|Held { shared, ticket }| shared.claim(ticket));
        let answer = claimed.or_else(|| match rx.try_recv() {
            Ok(answer) => Some(answer),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(disconnected()),
        });
        match answer {
            Some(answer) => {
                self.state = Pending::Ready(answer);
                true
            }
            None => false,
        }
    }

    /// Takes the answer with the request's trace span, blocking only if
    /// [`PendingPrediction::poll`] finds none in hand. The span is the
    /// request's trace as the engine finished it (queue/batch/forward/
    /// cache stages filled in); the wire layer adds its encode time and
    /// offers it to the engine's [`obs::TraceLog`].
    pub fn wait_spanned(mut self) -> (obs::Span, Result<Vec<SurrogatePrediction>, QrossError>) {
        self.poll();
        match self.state {
            Pending::Ready(answer) => answer,
            Pending::Queued { rx, .. } => rx.recv().unwrap_or_else(|_| disconnected()),
        }
    }

    /// [`PendingPrediction::wait_spanned`] without the span.
    ///
    /// # Errors
    ///
    /// Propagates the engine's error for this request, or
    /// [`QrossError::Serve`] if the worker holding it died.
    pub fn wait(self) -> Result<Vec<SurrogatePrediction>, QrossError> {
        self.wait_spanned().1
    }
}

/// A handle on an in-flight retrain/hot-swap cycle.
#[derive(Debug)]
pub struct PendingRefresh {
    rx: mpsc::Receiver<Result<u64, QrossError>>,
}

impl PendingRefresh {
    /// Blocks until the retrain completes, returning the generation it
    /// installed.
    ///
    /// # Errors
    ///
    /// The retrain's own error (empty training merge, diverged
    /// fine-tune, checkpoint I/O failure — in every case the old
    /// generation keeps serving), or [`QrossError::Serve`] if the trainer
    /// thread is gone.
    pub fn wait(self) -> Result<u64, QrossError> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(QrossError::Serve {
                message: "online trainer exited before answering".to_string(),
            })
        })
    }
}

/// Receipt for one accepted feedback record.
#[derive(Debug)]
pub struct FeedbackAck {
    /// total feedback records accepted so far (this one included)
    pub feedback_count: u64,
    /// replay-buffer occupancy after the push
    pub buffer_len: usize,
    /// handle on the retrain this record triggered, when it was the
    /// `refresh_after`-th; `None` otherwise. Dropping the handle lets the
    /// retrain proceed fire-and-forget.
    pub refresh: Option<PendingRefresh>,
}

/// Live online-loop counters ([`ServeEngine::online_status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlineStatus {
    /// feedback records accepted since start
    pub feedback_count: u64,
    /// current replay-buffer occupancy
    pub buffer_len: usize,
    /// retrains triggered (automatic + forced) since start
    pub retrain_count: u64,
    /// the configured automatic trigger period (0 = manual only)
    pub refresh_after: usize,
}

/// The concurrent batched serving engine. See the module docs.
///
/// Dropping the engine shuts it down gracefully: queued jobs are drained
/// and answered, queued retrains complete, then the workers and the
/// trainer join.
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    trainer: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ServeEngine({} workers, feature_dim {})",
            self.workers.len(),
            self.feature_dim()
        )
    }
}

impl ServeEngine {
    /// Starts the engine: spawns the worker pool and begins serving.
    /// The model is frozen (generation 0 forever); see
    /// [`ServeEngine::with_online`] for the continual-learning variant.
    pub fn new(model: ServeModel, config: ServeConfig) -> Self {
        Self::build(model, config, None, None).expect("offline construction cannot fail")
    }

    /// Starts the engine in **online mode**: in addition to serving, it
    /// ingests feedback ([`ServeEngine::submit_feedback`]), fine-tunes on
    /// the replay buffer merged with `base` (the original training
    /// corpus, when available), and hot-swaps the refreshed model without
    /// dropping a request.
    ///
    /// # Errors
    ///
    /// * [`QrossError::BadDataset`] — `base`'s feature width differs from
    ///   the model's.
    /// * [`QrossError::Persistence`] — a bundle model whose featurizer
    ///   has no serialisable recipe (it could not be rebuilt for a swap),
    ///   or an uncreatable checkpoint directory.
    pub fn with_online(
        model: ServeModel,
        config: ServeConfig,
        online: OnlineConfig,
        base: Option<SurrogateDataset>,
    ) -> Result<Self, QrossError> {
        Self::build(model, config, Some(online), base)
    }

    fn build(
        model: ServeModel,
        config: ServeConfig,
        online: Option<OnlineConfig>,
        base: Option<SurrogateDataset>,
    ) -> Result<Self, QrossError> {
        let feature_dim = model.feature_dim();
        let online_shared = match online {
            None => None,
            Some(online_config) => {
                if let Some(base) = &base {
                    if base.feat_dim() != feature_dim {
                        return Err(QrossError::BadDataset {
                            message: format!(
                                "base corpus is {}-wide but the model expects {feature_dim}",
                                base.feat_dim()
                            ),
                        });
                    }
                }
                // Fail swap-blocking problems at construction, not at the
                // first retrain: the featurizer must be rebuildable…
                if let ServeModel::Bundle(t) = &model {
                    if t.featurizer.spec().is_none() {
                        return Err(QrossError::Persistence {
                            message: format!(
                                "featurizer `{}` has no serialisable recipe: bundles served \
                                 online must be rebuildable for hot-swaps",
                                t.featurizer.name()
                            ),
                        });
                    }
                }
                // …and the checkpoint directory writable.
                if let Some(dir) = &online_config.checkpoint_dir {
                    std::fs::create_dir_all(dir).map_err(|e| QrossError::Persistence {
                        message: format!("create checkpoint dir {}: {e}", dir.display()),
                    })?;
                }
                let buffer = ReplayBuffer::new(
                    online_config.buffer_capacity.max(1),
                    online_config.recent_capacity,
                    online_config.seed,
                );
                Some(OnlineShared {
                    config: online_config,
                    base,
                    state: Mutex::new(OnlineState {
                        buffer,
                        feedback_count: 0,
                        retrain_count: 0,
                    }),
                    pending_retrains: AtomicU64::new(0),
                    trainer_tx: Mutex::new(None),
                    #[cfg(test)]
                    panic_next_retrain: std::sync::atomic::AtomicBool::new(false),
                })
            }
        };
        let obs = ServeObs::new();
        let shared = Arc::new(Shared {
            slot: Mutex::new(Arc::new(VersionedModel {
                generation: 0,
                model,
            })),
            generation: AtomicU64::new(0),
            feature_dim,
            queue: Mutex::new(Queue::new(&config.tenants, Arc::clone(obs.registry()))),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            config,
            started: Instant::now(),
            work_ready: Condvar::new(),
            obs,
            online: online_shared,
            #[cfg(test)]
            panic_next_batch: std::sync::atomic::AtomicBool::new(false),
        });
        let trainer = shared.online.as_ref().map(|online| {
            let (tx, rx) = mpsc::channel();
            *lock(&online.trainer_tx) = Some(tx);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.trainer_loop(rx))
        });
        let workers = (0..resolve_workers(shared.config.workers))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.worker_loop())
            })
            .collect();
        Ok(ServeEngine {
            shared,
            workers,
            trainer,
        })
    }

    /// The model epoch currently serving new requests. Requests already
    /// admitted may still be answered by an earlier generation (the one
    /// they captured at submit time).
    pub fn model(&self) -> Arc<VersionedModel> {
        self.shared.current_model()
    }

    /// The generation currently serving new requests.
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::SeqCst)
    }

    /// Whether the engine ingests feedback and hot-swaps.
    pub fn is_online(&self) -> bool {
        self.shared.online.is_some()
    }

    /// Live online-loop counters; `None` for offline engines.
    pub fn online_status(&self) -> Option<OnlineStatus> {
        let online = self.shared.online.as_ref()?;
        let st = lock(&online.state);
        Some(OnlineStatus {
            feedback_count: st.feedback_count,
            buffer_len: st.buffer.len(),
            retrain_count: st.retrain_count,
            refresh_after: online.config.refresh_after,
        })
    }

    /// Feature width every request must supply (invariant across swaps).
    pub fn feature_dim(&self) -> usize {
        self.shared.feature_dim
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.obs.snapshot()
    }

    /// The engine's observability bundle: its metric registry (for
    /// Prometheus exposition), per-stage histograms (the wire layer
    /// records decode/encode through it) and the slow-request trace log.
    pub fn obs(&self) -> &ServeObs {
        &self.shared.obs
    }

    /// Ingests one observed solver outcome. When the record is the
    /// `refresh_after`-th since the last automatic trigger, the returned
    /// ack carries a [`PendingRefresh`] for the retrain it started.
    ///
    /// Never blocks on training: the fine-tune runs on the trainer
    /// thread, predictions keep flowing on the current generation, and
    /// the swap is a pointer exchange.
    ///
    /// # Errors
    ///
    /// * [`QrossError::BadRequest`] — offline engine, wrong feature
    ///   width, or invalid observation values.
    /// * [`QrossError::Serve`] — the trainer thread is gone.
    pub fn submit_feedback(&self, record: FeedbackRecord) -> Result<FeedbackAck, QrossError> {
        self.shared.submit_feedback(record)
    }

    /// Forces a retrain/hot-swap cycle now, regardless of the feedback
    /// counter — the operator's "refresh" button.
    ///
    /// # Errors
    ///
    /// * [`QrossError::BadRequest`] — the engine is not online.
    /// * [`QrossError::Serve`] — the trainer thread is gone.
    pub fn refresh(&self) -> Result<PendingRefresh, QrossError> {
        self.shared.refresh()
    }

    /// Admits one request (a feature vector at one or more `A` values)
    /// for `tenant` (`None` = default tenant) and returns a handle to
    /// wait on. This is the non-blocking entry point protocol front-ends
    /// use to keep many requests in flight — which is what gives workers
    /// batches to stack. A lone single-row request on an idle engine
    /// (nothing queued, a worker parked) wakes no worker: its handle's
    /// first [`PendingPrediction::poll`] computes it, unless a later
    /// submit woke a worker first.
    ///
    /// `notify` is an optional completion hook, invoked after a worker
    /// makes the result receivable — event-loop front-ends use it to wake
    /// their poller instead of parking a thread per request. A request a
    /// worker does not answer never fires the hook (see
    /// [`CompletionNotify`]).
    ///
    /// # Errors
    ///
    /// * [`QrossError::BadRequest`] — wrong feature width, non-finite
    ///   features, or a non-finite/non-positive `A`.
    /// * [`QrossError::Overloaded`] — the queue is at capacity, or the
    ///   tenant's own row quota is exhausted; the request is rejected
    ///   immediately (backpressure, not buffering).
    pub fn submit_opts(
        &self,
        tenant: Option<&str>,
        features: Vec<f64>,
        a_values: Vec<f64>,
        notify: Option<CompletionNotify>,
    ) -> Result<PendingPrediction, QrossError> {
        self.shared.submit_opts(tenant, features, a_values, notify)
    }

    /// A point-in-time metrics snapshot (the `metrics` protocol op).
    pub fn metrics(&self) -> EngineMetrics {
        self.shared.metrics()
    }

    /// Blocking single prediction for the default tenant —
    /// [`ServeEngine::submit_opts`] + [`PendingPrediction::wait`].
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::submit_opts`].
    pub fn predict(&self, features: &[f64], a: f64) -> Result<SurrogatePrediction, QrossError> {
        let mut out = self
            .submit_opts(None, features.to_vec(), vec![a], None)?
            .wait()?;
        Ok(out.remove(0))
    }

    /// Blocking grid prediction for the default tenant —
    /// [`ServeEngine::submit_opts`] + [`PendingPrediction::wait`].
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::submit_opts`].
    pub fn predict_grid(
        &self,
        features: &[f64],
        a_values: &[f64],
    ) -> Result<Vec<SurrogatePrediction>, QrossError> {
        self.submit_opts(None, features.to_vec(), a_values.to_vec(), None)?
            .wait()
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        {
            let mut q = lock(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Dropping the trainer's sender lets it drain queued retrains
        // (completing any outstanding PendingRefresh waits) and exit.
        if let Some(online) = &self.shared.online {
            lock(&online.trainer_tx).take();
        }
        if let Some(handle) = self.trainer.take() {
            let _ = handle.join();
        }
    }
}

fn resolve_workers(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Scalers;
    use crate::surrogate::SurrogateState;
    use mathkit::stats::ZScore;
    use neural::layers::LayerSpec;
    use neural::network::MlpState;

    /// Deterministic rational-weight surrogate (no training, no libm in
    /// the weights): 2 features + ln A -> 3 inputs.
    fn tiny_surrogate() -> Surrogate {
        let val = |k: usize| (((k * 29 + 7) % 32) as f64 - 16.0) / 8.0;
        let dense = |input: usize, output: usize, salt: usize| LayerSpec::Dense {
            input,
            output,
            weights: (0..input * output).map(|k| val(k + salt)).collect(),
            bias: (0..output).map(|k| val(k + salt + 61)).collect(),
        };
        let net = |salt: usize, out: usize| MlpState {
            input_dim: 3,
            layers: vec![dense(3, 6, salt), LayerSpec::Relu, dense(6, out, salt + 17)],
        };
        let z = |m: f64, s: f64| ZScore { mean: m, std: s };
        Surrogate::from_state(SurrogateState {
            pf_net: net(0, 1),
            e_net: net(131, 2),
            scalers: Scalers {
                features: vec![z(0.0, 1.0), z(0.5, 2.0)],
                log_a: z(0.0, 1.0),
                e_avg: z(4.0, 2.0),
                e_std: z(1.0, 0.5),
            },
        })
        .expect("consistent state")
    }

    fn engine(config: ServeConfig) -> ServeEngine {
        ServeEngine::new(ServeModel::Surrogate(Arc::new(tiny_surrogate())), config)
    }

    #[test]
    fn serves_bit_identical_to_direct_predict() {
        let sur = tiny_surrogate();
        let eng = engine(ServeConfig {
            workers: 2,
            ..Default::default()
        });
        for k in 0..20 {
            let f = [k as f64 / 10.0, -(k as f64) / 7.0];
            let a = 0.25 + k as f64 * 0.3;
            let served = eng.predict(&f, a).expect("serve");
            let direct = sur.predict(&f, a);
            assert_eq!(served.pf.to_bits(), direct.pf.to_bits());
            assert_eq!(served.e_avg.to_bits(), direct.e_avg.to_bits());
            assert_eq!(served.e_std.to_bits(), direct.e_std.to_bits());
        }
    }

    #[test]
    fn grid_requests_match_predict_grid() {
        let sur = tiny_surrogate();
        let eng = engine(ServeConfig::default());
        let f = [0.3, 1.1];
        let grid = [0.1, 0.5, 1.0, 2.0, 8.0];
        let served = eng.predict_grid(&f, &grid).expect("serve");
        let direct = sur.predict_grid(&f, &grid);
        assert_eq!(served, direct);
        assert!(eng.predict_grid(&f, &[]).expect("empty").is_empty());
    }

    #[test]
    fn rejects_malformed_requests() {
        let eng = engine(ServeConfig::default());
        // wrong width
        assert!(matches!(
            eng.predict(&[1.0], 1.0),
            Err(QrossError::BadRequest { .. })
        ));
        // non-finite feature
        assert!(matches!(
            eng.predict(&[f64::NAN, 0.0], 1.0),
            Err(QrossError::BadRequest { .. })
        ));
        // non-positive A
        assert!(matches!(
            eng.predict(&[0.0, 0.0], 0.0),
            Err(QrossError::BadRequest { .. })
        ));
        // non-finite A
        assert!(matches!(
            eng.predict(&[0.0, 0.0], f64::INFINITY),
            Err(QrossError::BadRequest { .. })
        ));
        // sane requests still served afterwards
        assert!(eng.predict(&[0.0, 0.0], 1.0).is_ok());
    }

    #[test]
    fn cache_hits_are_bit_identical_and_counted() {
        let eng = engine(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        let f = [0.7, -0.2];
        let first = eng.predict(&f, 1.5).expect("first");
        let before = eng.stats();
        let second = eng.predict(&f, 1.5).expect("second");
        let after = eng.stats();
        assert_eq!(first, second);
        assert!(
            after.cache_hits > before.cache_hits,
            "repeat query did not hit the cache: {after:?}"
        );
    }

    #[test]
    fn cache_disabled_still_serves() {
        let eng = engine(ServeConfig {
            cache_capacity: 0,
            ..Default::default()
        });
        let f = [0.1, 0.2];
        let a = eng.predict(&f, 1.0).expect("one");
        let b = eng.predict(&f, 1.0).expect("two");
        assert_eq!(a, b);
        assert_eq!(eng.stats().cache_hits, 0);
    }

    #[test]
    fn backpressure_rejects_when_queue_full() {
        // No workers running, so the queue can only fill.
        let shared = workerless(TenantPolicy::default(), 3);
        let submit = |a_values: Vec<f64>| shared.submit_opts(None, vec![0.0, 0.0], a_values, None);
        assert!(submit(vec![1.0, 2.0]).is_ok());
        assert!(submit(vec![1.0]).is_ok());
        // 3 rows pending == capacity: the next row must bounce.
        let err = submit(vec![1.0]).unwrap_err();
        assert!(matches!(err, QrossError::Overloaded { capacity: 3 }));
        // A single request larger than the queue could never be admitted:
        // that is a client error, not transient load (retrying an
        // Overloaded would loop forever).
        let err = submit(vec![1.0, 2.0, 3.0, 4.0]).unwrap_err();
        assert!(matches!(err, QrossError::BadRequest { .. }));
        // Rejections never count as accepted work.
        let stats = shared.obs.snapshot();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.rejected_capacity, 1);
        assert_eq!(stats.rejected_quota, 0);
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.rows, 3);
        // Rejection is not sticky: drain one batch and submit again.
        {
            let mut q = lock(&shared.queue);
            let drained = q.drain_batch(2);
            assert_eq!(drained.len(), 1);
            assert_eq!(drained[0].pending_rows(), 2);
        }
        assert!(submit(vec![1.0]).is_ok());
    }

    #[test]
    fn concurrent_hammering_is_bit_identical() {
        let sur = tiny_surrogate();
        let eng = engine(ServeConfig {
            workers: 4,
            max_batch_rows: 16,
            ..Default::default()
        });
        let eng = &eng;
        let sur = &sur;
        std::thread::scope(|scope| {
            for t in 0..8usize {
                scope.spawn(move || {
                    for k in 0..120usize {
                        // Overlapping key space across threads exercises
                        // both fresh computes and cache hits.
                        let i = (t * 31 + k) % 40;
                        let f = [i as f64 / 13.0, (i as f64) / 5.0 - 1.0];
                        let a = 0.2 + (i % 7) as f64;
                        let served = eng.predict(&f, a).expect("serve");
                        let direct = sur.predict(&f, a);
                        assert_eq!(served.pf.to_bits(), direct.pf.to_bits());
                        assert_eq!(served.e_avg.to_bits(), direct.e_avg.to_bits());
                        assert_eq!(served.e_std.to_bits(), direct.e_std.to_bits());
                    }
                });
            }
        });
        let stats = eng.stats();
        assert_eq!(stats.requests, 8 * 120);
        assert!(stats.cache_hits > 0, "no cache hits under repetition");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        let p = |x: f64| SurrogatePrediction {
            pf: x,
            e_avg: x,
            e_std: x,
        };
        cache.insert(cache_key(0, &[1.0], 1.0), p(1.0));
        cache.insert(cache_key(0, &[2.0], 1.0), p(2.0));
        // Touch key 1 so key 2 is the LRU victim.
        assert_eq!(cache.get(&cache_key(0, &[1.0], 1.0)), Some(p(1.0)));
        cache.insert(cache_key(0, &[3.0], 1.0), p(3.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&cache_key(0, &[2.0], 1.0)), None);
        assert_eq!(cache.get(&cache_key(0, &[1.0], 1.0)), Some(p(1.0)));
        assert_eq!(cache.get(&cache_key(0, &[3.0], 1.0)), Some(p(3.0)));
        // Re-inserting an existing key refreshes, never grows.
        cache.insert(cache_key(0, &[3.0], 1.0), p(3.5));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&cache_key(0, &[3.0], 1.0)), Some(p(3.5)));
    }

    #[test]
    fn lru_clear_empties_and_stays_usable() {
        let mut cache = LruCache::new(2);
        let p = |x: f64| SurrogatePrediction {
            pf: x,
            e_avg: x,
            e_std: x,
        };
        cache.insert(cache_key(0, &[1.0], 1.0), p(1.0));
        cache.insert(cache_key(0, &[2.0], 1.0), p(2.0));
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get(&cache_key(0, &[1.0], 1.0)), None);
        // Insertion after a clear works and evicts normally.
        cache.insert(cache_key(1, &[1.0], 1.0), p(3.0));
        cache.insert(cache_key(1, &[2.0], 1.0), p(4.0));
        cache.insert(cache_key(1, &[3.0], 1.0), p(5.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&cache_key(1, &[3.0], 1.0)), Some(p(5.0)));
    }

    #[test]
    fn retrain_backpressure_is_bounded_and_recoverable() {
        // A refresh storm without waits must never queue snapshots
        // beyond `max_pending_retrains`: excess forced refreshes bounce
        // with typed backpressure, nothing deadlocks, and once the
        // trainer drains, refreshes work again.
        let dir = temp_dir("retrain_bp");
        let eng = ServeEngine::with_online(
            ServeModel::Surrogate(Arc::new(tiny_surrogate())),
            ServeConfig::default(),
            OnlineConfig {
                refresh_after: 0,
                max_pending_retrains: 1,
                epochs: 40, // slow enough for the storm to pile up
                ..online_config(&dir)
            },
            None,
        )
        .expect("online engine");
        for k in 0..6 {
            eng.submit_feedback(feedback(k)).expect("feedback");
        }
        let mut handles = Vec::new();
        let mut bounced = 0usize;
        for _ in 0..12 {
            match eng.refresh() {
                Ok(pending) => handles.push(pending),
                Err(QrossError::Overloaded { capacity }) => {
                    assert_eq!(capacity, 1);
                    bounced += 1;
                }
                Err(e) => panic!("unexpected refresh error: {e}"),
            }
        }
        for pending in handles {
            pending.wait().expect("queued refresh completes");
        }
        // The storm outran a 1-deep trainer queue at least once (each
        // accepted refresh fine-tunes for 40 epochs before the next can
        // start), and the engine recovered: a fresh awaited refresh
        // lands the next generation.
        assert!(bounced > 0, "12 instant refreshes never hit the bound");
        let before = eng.generation();
        let gen = eng
            .refresh()
            .expect("post-storm refresh")
            .wait()
            .expect("swap");
        assert_eq!(gen, before + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn saturated_trigger_coalesces_without_losing_feedback() {
        // refresh_after = 1 with a 1-deep trainer queue: most triggers
        // coalesce, but every record still lands in the buffer and the
        // loop keeps making progress (some swaps, no deadlock, no error).
        let dir = temp_dir("coalesce");
        let eng = ServeEngine::with_online(
            ServeModel::Surrogate(Arc::new(tiny_surrogate())),
            ServeConfig::default(),
            OnlineConfig {
                refresh_after: 1,
                max_pending_retrains: 1,
                epochs: 10,
                ..online_config(&dir)
            },
            None,
        )
        .expect("online engine");
        let mut last = None;
        for k in 0..24 {
            // Drop the refresh handles: fire-and-forget feedback, the
            // mode that used to queue snapshots without bound.
            let ack = eng.submit_feedback(feedback(k)).expect("feedback");
            last = ack.refresh.or(last);
        }
        let status = eng.online_status().expect("online");
        assert_eq!(status.feedback_count, 24);
        assert!(status.buffer_len > 0);
        if let Some(pending) = last {
            let _ = pending.wait();
        }
        drop(eng); // drains the (bounded) queue and joins cleanly
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_keys_separate_generations() {
        // The same (features, A) under a different generation is a
        // different key — the property that makes stale hits across
        // hot-swaps impossible.
        assert_ne!(
            cache_key(0, &[1.0, 2.0], 0.5),
            cache_key(1, &[1.0, 2.0], 0.5)
        );
        let mut cache = LruCache::new(4);
        let p = |x: f64| SurrogatePrediction {
            pf: x,
            e_avg: x,
            e_std: x,
        };
        cache.insert(cache_key(0, &[1.0], 1.0), p(0.25));
        assert_eq!(cache.get(&cache_key(1, &[1.0], 1.0)), None);
    }

    fn feedback(k: usize) -> FeedbackRecord {
        FeedbackRecord {
            features: vec![k as f64 / 5.0, 0.25 - k as f64 / 9.0],
            a: 0.5 + k as f64 * 0.75,
            observed_pf: ((k * 7) % 11) as f64 / 10.0,
            observed_e_avg: 3.0 + (k % 5) as f64,
            observed_e_std: 0.5 + (k % 3) as f64 * 0.25,
            instance_tag: format!("fb{k}"),
            seed: k as u64,
        }
    }

    fn online_config(dir: &std::path::Path) -> OnlineConfig {
        OnlineConfig {
            refresh_after: 4,
            buffer_capacity: 16,
            recent_capacity: 8,
            feedback_weight: 2,
            epochs: 3,
            learning_rate: 1e-3,
            batch_size: 8,
            max_pending_retrains: 2,
            seed: 13,
            checkpoint_dir: Some(dir.to_path_buf()),
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qross_serve_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn offline_engine_rejects_feedback_and_refresh() {
        let eng = engine(ServeConfig::default());
        assert!(!eng.is_online());
        assert!(eng.online_status().is_none());
        assert!(matches!(
            eng.submit_feedback(feedback(0)),
            Err(QrossError::BadRequest { .. })
        ));
        assert!(matches!(eng.refresh(), Err(QrossError::BadRequest { .. })));
        assert_eq!(eng.generation(), 0);
    }

    #[test]
    fn feedback_triggers_deterministic_swap() {
        let dir = temp_dir("swap");
        let run = |sub: &str| -> (Vec<u64>, SurrogatePrediction) {
            let eng = ServeEngine::with_online(
                ServeModel::Surrogate(Arc::new(tiny_surrogate())),
                ServeConfig {
                    workers: 2,
                    ..Default::default()
                },
                online_config(&dir.join(sub)),
                None,
            )
            .expect("online engine");
            let mut generations = Vec::new();
            for k in 0..8 {
                let ack = eng.submit_feedback(feedback(k)).expect("feedback");
                assert_eq!(ack.feedback_count, k as u64 + 1);
                if let Some(pending) = ack.refresh {
                    generations.push(pending.wait().expect("swap"));
                }
            }
            let post = eng.predict(&[0.3, -0.1], 1.25).expect("predict");
            (generations, post)
        };
        let (gens_a, post_a) = run("a");
        let (gens_b, post_b) = run("b");
        // refresh_after = 4 over 8 records: exactly two swaps, at gens 1
        // and 2 — and the whole loop is bit-reproducible.
        assert_eq!(gens_a, vec![1, 2]);
        assert_eq!(gens_a, gens_b);
        assert_eq!(post_a.pf.to_bits(), post_b.pf.to_bits());
        assert_eq!(post_a.e_avg.to_bits(), post_b.e_avg.to_bits());
        assert_eq!(post_a.e_std.to_bits(), post_b.e_std.to_bits());
        // Both runs wrote bit-identical checkpoints.
        for g in 1..=2 {
            let name = format!("ckpt-g{g:06}.qross");
            let a = std::fs::read(dir.join("a").join(&name)).expect("checkpoint a");
            let b = std::fs::read(dir.join("b").join(&name)).expect("checkpoint b");
            assert_eq!(a, b, "checkpoint {name} differs between runs");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn swap_changes_answers_and_cache_does_not_bleed() {
        let dir = temp_dir("bleed");
        let eng = ServeEngine::with_online(
            ServeModel::Surrogate(Arc::new(tiny_surrogate())),
            ServeConfig {
                workers: 1,
                ..Default::default()
            },
            OnlineConfig {
                refresh_after: 0, // manual refreshes only
                ..online_config(&dir)
            },
            None,
        )
        .expect("online engine");
        let f = [0.4, 0.9];
        // Warm the cache on generation 0, twice (second hit is cached).
        let before = eng.predict(&f, 2.0).expect("gen0");
        assert_eq!(eng.predict(&f, 2.0).expect("gen0 again"), before);
        for k in 0..4 {
            eng.submit_feedback(feedback(k)).expect("feedback");
        }
        let gen = eng.refresh().expect("refresh").wait().expect("swap");
        assert_eq!(gen, 1);
        assert_eq!(eng.generation(), 1);
        // Post-swap answers come from the new generation, not the warm
        // cache entry, and match the checkpoint exactly.
        let after = eng.predict(&f, 2.0).expect("gen1");
        // pf can saturate at the clamp; the linear energy head always
        // moves when the fine-tune moved weights.
        assert_ne!(
            before.e_avg.to_bits(),
            after.e_avg.to_bits(),
            "fine-tune moved no weights — the bleed check is vacuous"
        );
        let ckpt = SurrogateCheckpoint::load(dir.join("ckpt-g000001.qross")).expect("checkpoint");
        let lineage = ckpt.lineage.expect("lineage written");
        assert_eq!(lineage.generation, 1);
        assert_eq!(lineage.parent_generation, 0);
        assert_eq!(lineage.feedback_count, 4);
        let reloaded = Surrogate::from_state(ckpt.state).expect("state");
        let direct = reloaded.predict(&f, 2.0);
        assert_eq!(after.pf.to_bits(), direct.pf.to_bits());
        assert_eq!(after.e_avg.to_bits(), direct.e_avg.to_bits());
        assert_eq!(after.e_std.to_bits(), direct.e_std.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_with_nothing_to_train_on_keeps_old_generation() {
        let dir = temp_dir("empty");
        let eng = ServeEngine::with_online(
            ServeModel::Surrogate(Arc::new(tiny_surrogate())),
            ServeConfig::default(),
            OnlineConfig {
                refresh_after: 0,
                ..online_config(&dir)
            },
            None,
        )
        .expect("online engine");
        let err = eng.refresh().expect("queued").wait().unwrap_err();
        assert!(matches!(err, QrossError::BadDataset { .. }), "{err}");
        assert_eq!(eng.generation(), 0);
        // …and the engine still serves.
        assert!(eng.predict(&[0.0, 0.0], 1.0).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_feedback_is_rejected_with_typed_errors() {
        let dir = temp_dir("invalid");
        let eng = ServeEngine::with_online(
            ServeModel::Surrogate(Arc::new(tiny_surrogate())),
            ServeConfig::default(),
            online_config(&dir),
            None,
        )
        .expect("online engine");
        let mut wrong_width = feedback(0);
        wrong_width.features.push(0.0);
        let mut bad_pf = feedback(0);
        bad_pf.observed_pf = 2.0;
        for bad in [wrong_width, bad_pf] {
            assert!(matches!(
                eng.submit_feedback(bad),
                Err(QrossError::BadRequest { .. })
            ));
        }
        // Rejected feedback never counts.
        assert_eq!(eng.stats().feedback, 0);
        assert_eq!(eng.online_status().expect("online").feedback_count, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A workerless engine whose queue can only fill — lets tests drive
    /// `drain_batch` by hand and observe scheduling order deterministically.
    fn workerless(tenants: TenantPolicy, queue_capacity: usize) -> Arc<Shared> {
        let model = ServeModel::Surrogate(Arc::new(tiny_surrogate()));
        let obs = ServeObs::new();
        Arc::new(Shared {
            feature_dim: model.feature_dim(),
            slot: Mutex::new(Arc::new(VersionedModel {
                generation: 0,
                model,
            })),
            generation: AtomicU64::new(0),
            queue: Mutex::new(Queue::new(&tenants, Arc::clone(obs.registry()))),
            config: ServeConfig {
                workers: 1,
                max_batch_rows: 8,
                queue_capacity,
                cache_capacity: 0,
                tenants,
            },
            started: Instant::now(),
            work_ready: Condvar::new(),
            cache: Mutex::new(LruCache::new(0)),
            obs,
            online: None,
            panic_next_batch: std::sync::atomic::AtomicBool::new(false),
        })
    }

    #[test]
    fn tenant_quota_rejects_only_the_offender() {
        let policy = TenantPolicy {
            default_class: TenantClass::default(),
            classes: vec![(
                "capped".to_string(),
                TenantClass {
                    weight: 1,
                    quota_rows: 2,
                },
            )],
        };
        let shared = workerless(policy, 1024);
        let submit = |tenant: Option<&str>, rows: usize| {
            shared.submit_opts(tenant, vec![0.0, 0.0], vec![1.0; rows], None)
        };
        assert!(submit(Some("capped"), 2).is_ok());
        // The capped tenant's quota is exhausted; its next row bounces…
        let err = submit(Some("capped"), 1).unwrap_err();
        assert!(matches!(err, QrossError::Overloaded { capacity: 2 }));
        // …while other tenants (and the default) are untouched.
        assert!(submit(Some("other"), 4).is_ok());
        assert!(submit(None, 4).is_ok());
        let metrics = shared.metrics();
        let capped = metrics
            .tenants
            .iter()
            .find(|t| t.tenant == "capped")
            .expect("capped tenant visible");
        assert_eq!(capped.rejected, 1);
        assert_eq!(capped.rejected_quota, 1);
        assert_eq!(capped.rejected_capacity, 0);
        assert_eq!(capped.requests, 1);
        assert_eq!(capped.pending_rows, 2);
        assert_eq!(metrics.rejected, 1);
        assert_eq!(metrics.rejected_quota, 1);
        assert_eq!(metrics.rejected_capacity, 0);
        assert_eq!(metrics.queue_depth, 10);
    }

    #[test]
    fn unknown_tenants_fold_into_default_past_the_registry_cap() {
        let shared = workerless(TenantPolicy::default(), usize::MAX);
        {
            let mut q = lock(&shared.queue);
            for k in 0..MAX_TENANTS + 10 {
                let _ = q.tenant_index(Some(&format!("t{k}")), &shared.config.tenants);
            }
            assert_eq!(q.tenants.len(), MAX_TENANTS);
            // Registry is full: a fresh name lands on the default tenant.
            assert_eq!(q.tenant_index(Some("fresh"), &shared.config.tenants), 0);
            // Known names still resolve to their own slot.
            assert_ne!(q.tenant_index(Some("t5"), &shared.config.tenants), 0);
        }
    }

    #[test]
    fn dwrr_serves_tenants_proportionally_to_weight() {
        let policy = TenantPolicy {
            default_class: TenantClass::default(),
            classes: vec![
                (
                    "heavy".to_string(),
                    TenantClass {
                        weight: 3,
                        quota_rows: 0,
                    },
                ),
                (
                    "light".to_string(),
                    TenantClass {
                        weight: 1,
                        quota_rows: 0,
                    },
                ),
            ],
        };
        let shared = workerless(policy, usize::MAX);
        // Both tenants backlogged with single-row jobs.
        for _ in 0..200 {
            shared
                .submit_opts(Some("heavy"), vec![0.0, 0.0], vec![1.0], None)
                .expect("heavy submit");
            shared
                .submit_opts(Some("light"), vec![0.0, 0.0], vec![1.0], None)
                .expect("light submit");
        }
        // Drain a contended stretch; service per tenant is measured as
        // the drop in its pending_rows (both stay backlogged throughout).
        let (heavy_before, light_before) = {
            let q = lock(&shared.queue);
            let by = |name: &str| {
                q.tenants
                    .iter()
                    .find(|t| t.name == name)
                    .expect("registered")
                    .pending_rows
            };
            (by("heavy"), by("light"))
        };
        let mut drained = 0usize;
        while drained < 120 {
            let batch = {
                let mut q = lock(&shared.queue);
                q.drain_batch(shared.config.max_batch_rows)
            };
            assert!(!batch.is_empty(), "backlogged queue yielded nothing");
            drained += batch.iter().map(Job::pending_rows).sum::<usize>();
        }
        let (heavy_served, light_served) = {
            let q = lock(&shared.queue);
            let by = |name: &str| {
                q.tenants
                    .iter()
                    .find(|t| t.name == name)
                    .expect("registered")
                    .pending_rows
            };
            (heavy_before - by("heavy"), light_before - by("light"))
        };
        // Weight 3 vs 1 should converge near a 3:1 service split while
        // both stay backlogged; allow slack for batch-boundary rounding.
        assert!(
            light_served > 0,
            "light tenant starved: heavy={heavy_served} light={light_served}"
        );
        let ratio = heavy_served as f64 / light_served as f64;
        assert!(
            (2.0..=4.5).contains(&ratio),
            "service ratio {ratio:.2} (heavy={heavy_served}, light={light_served}) \
             not near the 3:1 weights"
        );
    }

    #[test]
    fn dwrr_is_plain_fifo_for_a_single_tenant() {
        let shared = workerless(TenantPolicy::default(), usize::MAX);
        for k in 0..5 {
            shared
                .submit_opts(None, vec![k as f64, 0.0], vec![1.0], None)
                .expect("submit");
        }
        let batch = {
            let mut q = lock(&shared.queue);
            q.drain_batch(3)
        };
        // FIFO order, batch bounded at max rows.
        let firsts: Vec<f64> = batch.iter().map(|j| j.features[0]).collect();
        assert_eq!(firsts, vec![0.0, 1.0, 2.0]);
        let batch = {
            let mut q = lock(&shared.queue);
            q.drain_batch(3)
        };
        let firsts: Vec<f64> = batch.iter().map(|j| j.features[0]).collect();
        assert_eq!(firsts, vec![3.0, 4.0]);
        assert!(lock(&shared.queue).is_idle());
    }

    #[test]
    fn dwrr_work_conservation_serves_oversized_front_job() {
        // A job bigger than any deficit top-up must still be served when
        // the batch is otherwise empty — fairness never deadlocks work.
        let shared = workerless(TenantPolicy::default(), usize::MAX);
        shared
            .submit_opts(None, vec![0.0, 0.0], vec![1.0; 64], None)
            .expect("submit");
        let batch = {
            let mut q = lock(&shared.queue);
            q.drain_batch(8)
        };
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].pending_rows(), 64);
    }

    #[test]
    fn latency_histogram_quantiles_are_log_bucket_exact() {
        // The engine's latency quantiles are served by `obs::Histogram`
        // with the engine's historical rank rule; pin the bucket math in
        // the µs units `EngineMetrics` reports.
        let h = obs::Histogram::new();
        assert_eq!(h.snapshot().quantile(0.5), None);
        if !obs::ENABLED {
            return;
        }
        // 100 samples at ~1µs, 1 sample at ~1ms: p50 lands in the 1µs
        // bucket, p999 in the 1ms bucket. Buckets are powers of two, so
        // use exact powers to pin bucket indices.
        for _ in 0..100 {
            h.record(1 << 10); // bucket 10: [1024, 2048) ns
        }
        h.record(1 << 20); // bucket 20: [1.05, 2.10) ms
        let us = |q: f64| h.snapshot().quantile(q).expect("recorded") / 1_000.0;
        let p50 = us(0.50);
        assert!((1.0..=2.1).contains(&p50), "p50 {p50}µs outside bucket 10");
        let p999 = us(0.999);
        assert!(
            (1000.0..=2200.0).contains(&p999),
            "p999 {p999}µs outside bucket 20"
        );
        // Zero nanoseconds must not panic (bucket 0 via the |1 guard).
        h.record(0);
    }

    #[test]
    fn metrics_reports_live_engine_counters() {
        let eng = engine(ServeConfig {
            workers: 2,
            max_batch_rows: 8,
            ..Default::default()
        });
        for k in 0..10 {
            let f = [k as f64 / 7.0, 0.25];
            eng.predict(&f, 1.5).expect("predict");
            eng.predict(&f, 1.5).expect("cached predict");
        }
        let m = eng.metrics();
        assert_eq!(m.generation, 0);
        assert!(m.qps > 0.0);
        assert!(m.uptime_secs > 0.0);
        assert_eq!(m.queue_depth, 0);
        assert_eq!(m.rejected, 0);
        // Second predict of each pair is a cache hit: rate is 1/2.
        assert!(
            (m.cache_hit_rate - 0.5).abs() < 1e-9,
            "{}",
            m.cache_hit_rate
        );
        assert!(m.batch_occupancy >= 1.0);
        let p50 = m.latency_p50_us.expect("latencies recorded");
        let p99 = m.latency_p99_us.expect("latencies recorded");
        assert!(p50 > 0.0 && p99 >= p50);
        // All traffic untagged: exactly the default tenant, all rows.
        assert_eq!(m.tenants.len(), 1);
        assert_eq!(m.tenants[0].tenant, DEFAULT_TENANT);
        assert_eq!(m.tenants[0].requests, 20);
        assert_eq!(m.tenants[0].rows, 20);
    }

    /// Blocks until one of the engine's workers waits on `work_ready`.
    fn wait_until_parked(shared: &Shared) {
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while lock(&shared.queue).parked == 0 {
            assert!(Instant::now() < deadline, "no worker parked within 10 s");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// A completion hook that counts its calls.
    fn counting_notify() -> (CompletionNotify, Arc<AtomicU64>) {
        let fired = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&fired);
        let notify: CompletionNotify = Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        (notify, fired)
    }

    /// Blocks until `fired` reaches `n`: a worker calls the hook just
    /// after sending the answer, so `wait` can return first.
    fn wait_for_notifies(fired: &AtomicU64, n: u64) {
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while fired.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "no notify within 10 s");
            std::thread::yield_now();
        }
    }

    /// Plays the worker by hand on a workerless engine: drains one batch,
    /// computes it and delivers every answer; returns the batch's size.
    fn run_queued_by_hand(shared: &Shared) -> usize {
        let mut batch = lock(&shared.queue).drain_batch(shared.config.max_batch_rows);
        assert!(!batch.is_empty(), "nothing was queued");
        let jobs = batch.len();
        shared.run_batch(&mut PredictScratch::new(), &mut batch, |job, answer| {
            deliver(answer, job.reply)
        });
        jobs
    }

    fn assert_bits(served: &SurrogatePrediction, direct: &SurrogatePrediction) {
        assert_eq!(served.pf.to_bits(), direct.pf.to_bits());
        assert_eq!(served.e_avg.to_bits(), direct.e_avg.to_bits());
        assert_eq!(served.e_std.to_bits(), direct.e_std.to_bits());
    }

    /// `(requests, rows, pending_rows, rejected)` of one tenant.
    fn tenant_counts(metrics: &EngineMetrics, name: &str) -> (u64, u64, usize, u64) {
        let t = metrics
            .tenants
            .iter()
            .find(|t| t.tenant == name)
            .expect("tenant visible");
        (t.requests, t.rows, t.pending_rows, t.rejected)
    }

    #[test]
    fn lone_submit_on_an_idle_engine_is_answered_by_its_first_poll() {
        let sur = tiny_surrogate();
        let (f, a) = ([0.6, -0.4], 1.75);
        let direct = sur.predict(&f, a);
        let eng = engine(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        wait_until_parked(&eng.shared);
        let (notify, fired) = counting_notify();
        let mut pending = eng
            .submit_opts(Some("solo"), f.to_vec(), vec![a], Some(Arc::clone(&notify)))
            .expect("admitted");
        assert!(pending.poll(), "answered by the first poll");
        let served = pending.wait().expect("prediction");
        assert_eq!(served.len(), 1);
        assert_bits(&served[0], &direct);
        // A repeat is a full cache hit: answered at submit.
        let mut repeat = eng
            .submit_opts(Some("solo"), f.to_vec(), vec![a], Some(notify))
            .expect("admitted");
        assert!(repeat.poll(), "cache hit in hand");
        let cached = repeat.wait().expect("ok");
        assert_bits(&cached[0], &direct);
        assert_eq!(
            fired.load(Ordering::SeqCst),
            0,
            "answers computed by the poller woke nobody"
        );

        // The same two requests through the queue count the same.
        let queued = workerless(TenantPolicy::default(), 1024);
        for _ in 0..2 {
            let mut pending = queued
                .submit_opts(Some("solo"), f.to_vec(), vec![a], None)
                .expect("admitted");
            assert!(!pending.poll(), "workerless engine answered");
            run_queued_by_hand(&queued);
            assert_bits(&pending.wait().expect("answered")[0], &direct);
        }
        let (polled, by_worker) = (eng.stats(), queued.obs.snapshot());
        assert_eq!(polled.requests, by_worker.requests);
        assert_eq!(polled.rows, by_worker.rows);
        assert_eq!(polled.rejected, by_worker.rejected);
        // The workerless engine has no cache, so it ran the repeat too.
        assert_eq!((polled.cache_hits, polled.batches), (1, 1));
        assert_eq!((by_worker.cache_hits, by_worker.batches), (0, 2));
        assert_eq!(
            tenant_counts(&eng.metrics(), "solo"),
            tenant_counts(&queued.metrics(), "solo")
        );
        assert_eq!(tenant_counts(&eng.metrics(), "solo"), (2, 2, 0, 0));
    }

    #[test]
    fn a_submit_behind_a_held_job_wakes_a_worker_that_batches_both() {
        let sur = tiny_surrogate();
        let eng = engine(ServeConfig {
            workers: 1,
            cache_capacity: 0,
            ..Default::default()
        });
        wait_until_parked(&eng.shared);
        let (notify, fired) = counting_notify();
        let queries = [([0.6, -0.4], 1.75), ([-0.2, 0.9], 0.5)];
        // Submitted back to back, as a pipelining client's requests are:
        // the first is held, the second wakes the worker.
        let mut pending: Vec<PendingPrediction> = queries
            .iter()
            .map(|(f, a)| {
                eng.submit_opts(None, f.to_vec(), vec![*a], Some(Arc::clone(&notify)))
                    .expect("admitted")
            })
            .collect();
        // Neither is held any more, so the front-end's poll runs nothing.
        for pending in &mut pending {
            pending.poll();
        }
        for (pending, (f, a)) in pending.into_iter().zip(&queries) {
            assert_bits(&pending.wait().expect("answered")[0], &sur.predict(f, *a));
        }
        assert_eq!(eng.stats().batches, 1, "one stacked forward");
        assert_eq!(eng.metrics().batch_occupancy, 2.0);
        wait_for_notifies(&fired, 2);
    }

    #[test]
    fn only_a_lone_single_row_job_is_held() {
        let sur = tiny_surrogate();
        let f = [0.6, -0.4];
        let grid = [0.5, 1.75, 3.0];
        let eng = engine(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        wait_until_parked(&eng.shared);
        let (notify, fired) = counting_notify();
        // A grid is queued and woken for at once, so the event loop keeps
        // decoding while a worker computes it.
        let pending = eng
            .submit_opts(None, f.to_vec(), grid.to_vec(), Some(notify))
            .expect("admitted");
        assert!(lock(&eng.shared.queue).held.is_none());
        let served = pending.wait().expect("answered");
        for (served, &a) in served.iter().zip(&grid) {
            assert_bits(served, &sur.predict(&f, a));
        }
        wait_for_notifies(&fired, 1);
    }

    #[test]
    fn workerless_engine_queues_the_lone_submit_and_notifies_once() {
        let sur = tiny_surrogate();
        let (f, a) = ([0.6, -0.4], 1.75);
        let shared = workerless(TenantPolicy::default(), 1024);
        let (notify, fired) = counting_notify();
        let mut pending = shared
            .submit_opts(None, f.to_vec(), vec![a], Some(Arc::clone(&notify)))
            .expect("admitted");
        assert!(!pending.poll());
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert_eq!(shared.metrics().queue_depth, 1);
        run_queued_by_hand(&shared);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert!(pending.poll(), "answered");
        assert_bits(&pending.wait().expect("ok")[0], &sur.predict(&f, a));
        // Answers already in hand never need a worker or a wake.
        let mut empty = shared
            .submit_opts(None, f.to_vec(), Vec::new(), Some(notify))
            .expect("admitted");
        assert!(empty.poll(), "in hand");
        assert!(empty.wait().expect("ok").is_empty());
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn polling_an_answered_handle_twice_keeps_its_answer() {
        let sur = tiny_surrogate();
        let (f, a) = ([0.6, -0.4], 1.75);
        let eng = engine(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        eng.predict(&f, a).expect("warms the cache");
        let mut hit = eng
            .submit_opts(None, f.to_vec(), vec![a], None)
            .expect("admitted");
        assert!(hit.poll(), "a cache hit is answered at submit");
        assert!(hit.poll(), "a second poll lost the answer");
        let (_, served) = hit.wait_spanned();
        let served = served.expect("the cached answer, not a dead worker");
        assert_bits(&served[0], &sur.predict(&f, a));
    }

    #[test]
    fn multi_job_batch_is_bit_identical_to_predict() {
        // Several queued jobs (mixed grid sizes and tenants) drained into
        // one stacked forward answer exactly what per-row predict does.
        let sur = tiny_surrogate();
        let shared = workerless(TenantPolicy::default(), 1024);
        let requests: Vec<(Option<&str>, [f64; 2], Vec<f64>)> = vec![
            (None, [0.6, -0.4], vec![1.75]),
            (Some("b"), [-0.2, 0.9], vec![0.5, 2.0]),
            (None, [0.0, 0.0], vec![1.0, 1.5, 4.0]),
            (Some("b"), [1.3, -0.7], vec![0.25, 8.0]),
        ];
        let pending: Vec<PendingPrediction> = requests
            .iter()
            .map(|(tenant, f, grid)| {
                shared
                    .submit_opts(*tenant, f.to_vec(), grid.clone(), None)
                    .expect("admitted")
            })
            .collect();
        assert_eq!(run_queued_by_hand(&shared), requests.len(), "one batch");
        assert_eq!(shared.obs.snapshot().batches, 1);
        for (pending, (_, f, grid)) in pending.into_iter().zip(&requests) {
            let served = pending.wait().expect("answered");
            assert_eq!(served.len(), grid.len());
            for (served, &a) in served.iter().zip(grid) {
                assert_bits(served, &sur.predict(f, a));
            }
        }
    }

    #[test]
    fn panicking_retrain_is_reported_and_the_trainer_survives() {
        let dir = temp_dir("panic");
        let eng = ServeEngine::with_online(
            ServeModel::Surrogate(Arc::new(tiny_surrogate())),
            ServeConfig::default(),
            OnlineConfig {
                refresh_after: 0,
                max_pending_retrains: 1,
                ..online_config(&dir)
            },
            None,
        )
        .expect("online engine");
        for k in 0..4 {
            eng.submit_feedback(feedback(k)).expect("feedback");
        }
        let online = eng.shared.online.as_ref().expect("online");
        online.panic_next_retrain.store(true, Ordering::SeqCst);
        let err = eng.refresh().expect("queued").wait().unwrap_err();
        assert!(
            matches!(&err, QrossError::Serve { message } if message.contains("panicked")),
            "{err}"
        );
        assert_eq!(eng.generation(), 0);
        assert!(eng.predict(&[0.0, 0.0], 1.0).is_ok());
        // The one retrain slot was released and the trainer still runs:
        // the next refresh is admitted and installs a generation.
        let gen = eng
            .refresh()
            .expect("refresh admitted after a panic")
            .wait()
            .expect("swap");
        assert_eq!(gen, 1);
        assert_eq!(eng.generation(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_batch_is_answered_and_the_worker_survives() {
        let sur = tiny_surrogate();
        let eng = engine(ServeConfig {
            workers: 1,
            cache_capacity: 0,
            ..Default::default()
        });
        eng.shared.panic_next_batch.store(true, Ordering::SeqCst);
        let grid = [0.5, 1.0, 2.0];
        let first = eng
            .submit_opts(None, vec![0.3, 0.1], grid.to_vec(), None)
            .expect("submit");
        let err = first.wait().unwrap_err();
        assert!(
            matches!(&err, QrossError::Serve { message } if message.contains("injected worker panic")),
            "{err}"
        );
        assert_eq!(eng.shared.obs.worker_panics.get(), 1);
        assert_eq!(lock(&eng.shared.queue).pending_rows, 0);
        // The worker lives on: a second grid is answered, within a bound
        // so that a dead worker fails the test instead of hanging it.
        let (tx, rx) = mpsc::channel();
        let second = eng
            .submit_opts(
                None,
                vec![0.3, 0.1],
                grid.to_vec(),
                Some(Arc::new(move || {
                    let _ = tx.send(());
                })),
            )
            .expect("submit");
        rx.recv_timeout(std::time::Duration::from_secs(1))
            .expect("second grid answered within 1 s");
        let served = second.wait().expect("answered");
        for (served, &a) in served.iter().zip(&grid) {
            assert_bits(served, &sur.predict(&[0.3, 0.1], a));
        }
    }

    #[test]
    fn panicking_held_job_is_answered_on_the_claiming_thread() {
        let (f, a) = ([0.6, -0.4], 1.75);
        let eng = engine(ServeConfig {
            workers: 1,
            cache_capacity: 0,
            ..Default::default()
        });
        wait_until_parked(&eng.shared);
        eng.shared.panic_next_batch.store(true, Ordering::SeqCst);
        let mut pending = eng
            .submit_opts(None, f.to_vec(), vec![a], None)
            .expect("admitted");
        assert!(pending.poll(), "claimed and answered by the first poll");
        let err = pending.wait().unwrap_err();
        assert!(matches!(&err, QrossError::Serve { .. }), "{err}");
        assert_eq!(eng.shared.obs.worker_panics.get(), 1);
        let served = eng.predict(&f, a).expect("the engine still serves");
        assert_bits(&served, &tiny_surrogate().predict(&f, a));
    }

    #[test]
    fn queued_work_is_drained_on_drop() {
        // Submit a burst, drop the engine immediately: every pending
        // response must still arrive (graceful shutdown, no lost jobs).
        let eng = engine(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        let pending: Vec<PendingPrediction> = (0..32)
            .map(|k| {
                eng.submit_opts(None, vec![k as f64, 0.0], vec![1.0, 2.0], None)
                    .expect("submit")
            })
            .collect();
        drop(eng);
        for p in pending {
            let out = p.wait().expect("answered during shutdown");
            assert_eq!(out.len(), 2);
        }
    }
}
