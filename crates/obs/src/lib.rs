//! # obs — deterministic observability for the QROSS serving stack
//!
//! The serving stack's load-bearing invariant is bit-exactness: every
//! response byte-identical across worker counts, batching, caching and
//! wire formats. Off-the-shelf observability layers cannot promise that
//! (they allocate, lock, and interleave), so this crate provides exactly
//! the primitives the stack needs, built to be **provably
//! perturbation-free**:
//!
//! * [`Registry`] — a sharded metrics registry of atomic
//!   [`Counter`]s, [`Gauge`]s and log₂-bucketed [`Histogram`]s. Handles
//!   are registered once (the only allocation) and recording is a single
//!   relaxed atomic RMW on a per-thread shard — no locks, no allocation,
//!   no syscalls on the hot path.
//! * [`Span`] — a `Copy` per-request trace: an ID minted at admission
//!   plus a fixed array of per-[`Stage`] durations
//!   (decode/queue/batch/forward/cache/encode). Spans ride the existing
//!   request plumbing by value; they never synchronise.
//! * [`TraceLog`] — a bounded keep-the-slowest event log; admission is
//!   guarded by a lock-free floor so the fast path (a request faster
//!   than the current N-th slowest) never takes the lock.
//! * [`prom`] — Prometheus text exposition (format 0.0.4) over any set
//!   of registries.
//!
//! The whole crate is feature-gated: building with `obs-off` compiles
//! every recording call to a no-op (the [`ENABLED`] const folds the
//! bodies away), which is how CI proves bit-neutrality — the committed
//! request mixes are replayed against an instrumented and an
//! uninstrumented build and every response byte is diffed.
//!
//! # Examples
//!
//! ```
//! use obs::{Registry, Stage, Span, Stopwatch};
//!
//! let reg = Registry::new();
//! let requests = reg.counter("demo_requests_total", "requests served");
//! let latency = reg.histogram("demo_latency_ns", "request latency");
//!
//! let mut span = Span::begin();
//! let sw = Stopwatch::start();
//! // ... handle the request ...
//! span.record(Stage::Decode, sw.elapsed_ns());
//! requests.inc();
//! latency.record(span.total_ns());
//! assert_eq!(requests.get(), if obs::ENABLED { 1 } else { 0 });
//! let text = obs::prom::render(&[&reg]);
//! assert!(text.contains("demo_requests_total"));
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod clock;
pub mod prom;
pub mod registry;
pub mod span;
pub mod trace;

pub use registry::{Counter, Gauge, HistSnapshot, Histogram, Registry};
pub use span::{Span, Stage, Stopwatch, STAGES};
pub use trace::{TraceEntry, TraceLog};

/// Compile-time switch: `false` when built with the `obs-off` feature,
/// in which case every recording call in this crate folds to a no-op.
pub const ENABLED: bool = cfg!(not(feature = "obs-off"));

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry used by call sites that cannot thread an
/// explicit registry (solver kernels deep in the compute stack). Serving
/// engines own their own [`Registry`] so tests and multi-engine
/// processes stay isolated; exposition renders both.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Formats `base{label="value"}` — the canonical labeled-metric name
/// accepted by [`Registry`] registration and understood by the
/// exposition renderer.
pub fn labeled(base: &str, label: &str, value: &str) -> String {
    format!("{base}{{{label}=\"{value}\"}}")
}
