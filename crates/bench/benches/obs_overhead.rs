//! Prices the observability layer against its budget: marginal
//! per-request instrumentation (span mint, decode/encode stopwatches,
//! six histogram records, trace-log offer, counter bump, plus the
//! worker's per-*batch* stopwatches amortized over the serving
//! regime's micro-batch width) must cost **≤ 3% of the p50 serve
//! round-trip** — the regression budget ARTIFACTS.md documents.
//! The setup measures both sides and asserts the ratio before any
//! Criterion timing runs, so an instrumentation regression fails the
//! bench smoke step (`cargo bench -p bench --benches -- --test`)
//! instead of silently taxing every request.
//!
//! The Criterion groups exist to be *diffed across builds*: run once
//! normally and once with `--features obs-off` — `serve_roundtrip`
//! prices the whole stack's instrumentation (decode/queue/batch/
//! forward/cache/encode stopwatches included), `obs_primitives` prices
//! each primitive in isolation (compiled to no-ops under `obs-off`).

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use neural::network::MlpBuilder;
use qross::dataset::Scalers;
use qross::serve::{ServeConfig, ServeEngine, ServeModel};
use qross::surrogate::{Surrogate, SurrogateState};

/// The documented budget: instrumentation may cost at most this
/// fraction of the p50 engine round-trip.
const P50_BUDGET: f64 = 0.03;

/// Paper-architecture surrogate (24 features + ln A, 64-wide heads),
/// seed-built — the round-trip denominator is real inference work.
fn sample_surrogate() -> Surrogate {
    let feat_dim = 24;
    let zscore = |m: f64, s: f64| mathkit::stats::ZScore { mean: m, std: s };
    let state = SurrogateState {
        pf_net: MlpBuilder::new(feat_dim + 1)
            .dense(64)
            .relu()
            .dense(64)
            .relu()
            .dense(1)
            .sigmoid()
            .build(7)
            .to_state(),
        e_net: MlpBuilder::new(feat_dim + 1)
            .dense(64)
            .relu()
            .dense(64)
            .relu()
            .dense(2)
            .build(8)
            .to_state(),
        scalers: Scalers {
            features: (0..feat_dim).map(|c| zscore(c as f64 * 0.1, 1.5)).collect(),
            log_a: zscore(0.0, 1.0),
            e_avg: zscore(10.0, 4.0),
            e_std: zscore(1.0, 0.3),
        },
    };
    Surrogate::from_state(state).expect("consistent state")
}

fn sample_query() -> (Vec<f64>, f64) {
    let features: Vec<f64> = (0..24).map(|c| (c * 17 % 97) as f64 / 97.0 - 0.5).collect();
    (features, 0.85)
}

/// The same query as an NDJSON request line — the denominator round
/// trip goes through the full protocol path (parse → engine → render),
/// because that is the request the instrumentation taxes.
fn sample_line() -> String {
    let (features, a) = sample_query();
    let features: Vec<String> = features.iter().map(|f| format!("{f:.6}")).collect();
    format!(
        "{{\"id\": 1, \"op\": \"predict\", \"features\": [{}], \"a\": {a}}}",
        features.join(", ")
    )
}

/// One full request round trip: a one-line stdio session that decodes
/// the line, runs it through the engine and serializes the response.
/// Returns the response length so the optimizer can't elide the work.
fn roundtrip(engine: &ServeEngine, line: &str) -> usize {
    let mut out = Vec::new();
    bench::protocol::serve_connection(engine, line.as_bytes(), &mut out)
        .expect("session completes");
    out.len()
}

/// Median of a timed closure over `n` iterations, in nanoseconds.
fn median_ns(n: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[n / 2]
}

/// The micro-batch width the budget is priced at: concurrent serving is
/// the system's operating regime (the whole point of the micro-batcher),
/// and the worker's batch-stage stopwatches (assembly lap, forward,
/// cache) are read once per *batch*, so their clock reads amortize
/// across this many requests.
const BATCH_AMORTIZATION: usize = 16;

/// One request's worth of instrumentation, as the serve path actually
/// performs it per request: mint a span, stopwatch the decode and
/// encode boundaries (2 clock reads each — the queue/latency stages
/// reuse the pre-existing `submitted` timestamp, costing only records),
/// feed every stage histogram, offer the span to the trace log, bump a
/// counter. Under `obs-off` this whole body folds to (almost) nothing.
fn instrument_request(
    hists: &[Arc<obs::Histogram>],
    trace: &obs::TraceLog,
    requests: &obs::Counter,
) {
    let mut span = obs::Span::begin();
    let sw = obs::Stopwatch::start();
    span.record(obs::Stage::Decode, sw.elapsed_ns());
    let sw = obs::Stopwatch::start();
    span.record(obs::Stage::Encode, sw.elapsed_ns());
    span.record(obs::Stage::Queue, 1);
    span.record(obs::Stage::Batch, 1);
    span.record(obs::Stage::Forward, 1);
    span.record(obs::Stage::Cache, 1);
    for (stage, hist) in obs::Stage::ALL.into_iter().zip(hists) {
        hist.record(span.stage_ns(stage));
    }
    trace.observe(&span, "bench", "tenant");
    requests.inc();
}

/// One batch's worth of instrumentation: the worker's assembly lap plus
/// the forward and cache stopwatches — five clock reads shared by every
/// request in the batch.
fn instrument_batch() -> u64 {
    let mut assembly = obs::Stopwatch::start();
    let assembly_ns = assembly.lap();
    let fwd = obs::Stopwatch::start();
    let forward_ns = fwd.elapsed_ns();
    let cache = obs::Stopwatch::start();
    let cache_ns = cache.elapsed_ns();
    assembly_ns + forward_ns + cache_ns
}

fn bench_obs_overhead(c: &mut Criterion) {
    let engine = ServeEngine::new(
        ServeModel::Surrogate(Arc::new(sample_surrogate())),
        ServeConfig {
            workers: 1,
            cache_capacity: 0, // measure compute, not cache hits
            ..Default::default()
        },
    );
    let line = sample_line();

    let registry = obs::Registry::new();
    let hists: Vec<Arc<obs::Histogram>> =
        ["decode", "queue", "batch", "forward", "cache", "encode"]
            .iter()
            .map(|s| {
                registry.histogram(
                    obs::labeled("bench_stage_ns", &[("stage", s)]),
                    "per-stage latency (bench copy)",
                )
            })
            .collect();
    let trace = obs::TraceLog::new(64);
    let requests = registry.counter("bench_requests_total", "requests (bench copy)");

    // Budget gate: marginal per-request instrumentation vs p50
    // round-trip, asserted before any timing runs. The numerator is the
    // per-request work plus the per-batch work amortized over the
    // serving regime's micro-batch width. Warm both paths first.
    for _ in 0..64 {
        black_box(roundtrip(&engine, &line));
        instrument_request(&hists, &trace, &requests);
        black_box(instrument_batch());
    }
    let p50_roundtrip = median_ns(301, || {
        black_box(roundtrip(&engine, &line));
    });
    // Batch the numerator: one instrumentation pass is near the clock's
    // resolution, so time 64 per sample and divide.
    let per_request = median_ns(301, || {
        for _ in 0..64 {
            instrument_request(&hists, &trace, &requests);
        }
    }) / 64;
    let per_batch = median_ns(301, || {
        for _ in 0..64 {
            black_box(instrument_batch());
        }
    }) / 64;
    let p50_instrument = per_request + per_batch / BATCH_AMORTIZATION as u64;
    let ratio = p50_instrument as f64 / p50_roundtrip as f64;
    eprintln!(
        "obs_overhead budget: {p50_instrument} ns instrumentation \
         ({per_request} ns/request + {per_batch} ns/batch ÷ {BATCH_AMORTIZATION}) \
         vs {p50_roundtrip} ns p50 round-trip — ratio {ratio:.4}"
    );
    assert!(
        ratio <= P50_BUDGET,
        "per-request instrumentation ({p50_instrument} ns) exceeds {:.0}% of the \
         p50 serve round-trip ({p50_roundtrip} ns): ratio {ratio:.4}",
        P50_BUDGET * 100.0,
    );

    // Diff this group across obs-on / obs-off builds: the delta is the
    // whole stack's instrumentation cost in situ.
    let mut group = c.benchmark_group("obs_overhead");
    group.bench_function("serve_roundtrip", |b| {
        b.iter(|| black_box(roundtrip(&engine, &line)))
    });
    group.bench_function("per_request_instrumentation", |b| {
        b.iter(|| instrument_request(&hists, &trace, &requests))
    });
    group.bench_function("per_batch_instrumentation", |b| {
        b.iter(|| black_box(instrument_batch()))
    });
    group.bench_function("histogram_record", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(2654435761);
            hists[0].record(black_box(v));
        })
    });
    group.bench_function("counter_inc", |b| b.iter(|| requests.inc()));
    group.bench_function("prom_render", |b| {
        b.iter(|| obs::prom::render(&[&registry]).len())
    });
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
