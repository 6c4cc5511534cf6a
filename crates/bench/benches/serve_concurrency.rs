//! Criterion bench for the serving event loop
//! (`bench::net::serve_event_loop`), replaying pipelined NDJSON predict
//! traffic over real TCP sockets at a matrix of connection counts ×
//! pipeline depths.
//!
//! What this prices is multiplexing overhead, not inference: every
//! request is answered by the same seed-built surrogate, and a
//! correctness gate asserts the loop returns exactly one response line
//! per request before any timing runs.
//!
//! Representative medians from a 1-CPU host (release build,
//! `cargo bench -p bench --bench serve_concurrency`), recorded when the
//! event loop landed:
//!
//! | scenario                | event loop |
//! |-------------------------|------------|
//! | 1 conn  × 16 pipelined  |    ~232 µs |
//! | 8 conns × 16 pipelined  |    ~1.7 ms |
//! | 32 conns × 8 pipelined  |    ~4.3 ms |
//!
//! (Absolute numbers vary by host. Re-run after transport changes and
//! update.)

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use bench::net::{serve_event_loop, EventLoopConfig};
use mathkit::stats::ZScore;
use neural::network::MlpBuilder;
use qross::dataset::Scalers;
use qross::pipeline::{PipelineConfig, TrainedQross};
use qross::serve::{ServeConfig, ServeEngine, ServeModel};
use qross::surrogate::{Surrogate, SurrogateState, TrainReport};
use qross::StatisticalFeaturizer;

/// Feature width of [`StatisticalFeaturizer`].
const FEAT_DIM: usize = 24;

/// Seed-derived bundle over the statistical featurizer (same shape as
/// the serving integration suites: real code paths, no training time).
fn test_engine() -> Arc<ServeEngine> {
    let zscore = |m: f64, s: f64| ZScore { mean: m, std: s };
    let state = SurrogateState {
        pf_net: MlpBuilder::new(FEAT_DIM + 1)
            .dense(24)
            .relu()
            .dense(1)
            .sigmoid()
            .build(41)
            .to_state(),
        e_net: MlpBuilder::new(FEAT_DIM + 1)
            .dense(24)
            .relu()
            .dense(2)
            .build(42)
            .to_state(),
        scalers: Scalers {
            features: (0..FEAT_DIM)
                .map(|c| zscore(0.2 * c as f64, 1.0 + 0.05 * c as f64))
                .collect(),
            log_a: zscore(0.0, 1.0),
            e_avg: zscore(8.0, 3.0),
            e_std: zscore(1.0, 0.4),
        },
    };
    let surrogate = Surrogate::from_state(state).expect("consistent state");
    let bundle = Arc::new(TrainedQross {
        surrogate,
        featurizer: Box::new(StatisticalFeaturizer::new()),
        train_encodings: Vec::new(),
        test_encodings: Vec::new(),
        dataset_len: 0,
        report: TrainReport::default(),
        config: PipelineConfig::micro(),
    });
    Arc::new(ServeEngine::new(
        ServeModel::Bundle(bundle),
        ServeConfig {
            workers: 2,
            max_batch_rows: 16,
            ..Default::default()
        },
    ))
}

/// One pipelined NDJSON predict request, deterministic per `k`.
fn predict_line(id: u64, k: usize) -> String {
    let features: Vec<String> = (0..FEAT_DIM)
        .map(|c| format!("{:.6}", ((k * 13 + c * 7) % 29) as f64 / 7.0 - 2.0))
        .collect();
    let a = 0.1 + (k % 11) as f64 * 0.45;
    format!(
        "{{\"id\": {id}, \"op\": \"predict\", \"features\": [{}], \"a\": {a}}}\n",
        features.join(", ")
    )
}

/// Starts the nonblocking event loop on an ephemeral port. The returned
/// flag shuts the loop down (it polls it every 25 ms when set).
fn spawn_event_loop(engine: Arc<ServeEngine>) -> (SocketAddr, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    std::thread::spawn(move || {
        serve_event_loop(
            &engine,
            listener,
            EventLoopConfig {
                shutdown: Some(flag),
                ..Default::default()
            },
        )
        .expect("event loop");
    });
    (addr, shutdown)
}

/// Opens `conns` connections, pipelines `depth` requests down each,
/// half-closes, and drains every response. Returns total response lines.
fn replay(addr: SocketAddr, conns: usize, depth: usize) -> usize {
    let mut streams: Vec<TcpStream> = (0..conns)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    for (c, stream) in streams.iter_mut().enumerate() {
        let burst: String = (0..depth)
            .map(|r| predict_line(r as u64, c * depth + r))
            .collect();
        stream.write_all(burst.as_bytes()).expect("send");
        stream.shutdown(Shutdown::Write).expect("half-close");
    }
    let mut lines = 0;
    for stream in &mut streams {
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("drain");
        lines += out.lines().count();
    }
    lines
}

fn bench_serve_concurrency(c: &mut Criterion) {
    let (loop_addr, loop_shutdown) = spawn_event_loop(test_engine());

    // Correctness gate before any timing: every request is answered
    // exactly once.
    assert_eq!(replay(loop_addr, 4, 4), 16, "event loop dropped responses");

    let mut group = c.benchmark_group("serve_concurrency");
    group.sample_size(10);
    for &(conns, depth) in &[(1usize, 16usize), (8, 16), (32, 8)] {
        let requests = conns * depth;
        group.bench_function(&format!("event_loop_{conns}x{depth}"), |b| {
            b.iter(|| assert_eq!(replay(loop_addr, conns, depth), requests))
        });
    }
    group.finish();

    loop_shutdown.store(true, Ordering::SeqCst);
}

criterion_group!(benches, bench_serve_concurrency);
criterion_main!(benches);
