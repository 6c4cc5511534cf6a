//! The traced run (`--trace 1`): per-layer numbers from the benchmark's
//! own timed calls into each layer's public functions.
//!
//! Every workload's traced run measures the same layer table; the rows
//! tied to one stream (wait, unattributed, batch occupancy, cache hits)
//! come from the QBIN stream, and the record carries the NDJSON stream's:
//!
//! 1. the pipeline at the workload's scale (micro for the serve
//!    workloads, quick for `tune-tsp`), plus a traced pass over its
//!    layers: one `collect_profile` per training instance for a few
//!    instances, strategy planning, per-trial propose/observe in the
//!    benchmark's own copy of the `run_strategy` loop, the matmul kernel;
//! 2. short live sessions of both serve streams against `qross-serve`,
//!    for the client-side p50 the layer rows must add up to;
//! 3. single-threaded in-process replays of both streams through the
//!    public calls the server makes per request, one span per call.
//!
//! Spans go to `.bench_runs/spans-<workload>-<seed>.json`.

use std::sync::Arc;
use std::time::Instant;

use bench::protocol::bin::{
    decode_request, encode_predict, encode_response, BinRequest, FrameCodec,
};
use bench::protocol::{render_response, PredictionOut, Request, Response};
use bench::Scale;
use qross::online::{FeedbackRecord, OnlineConfig};
use qross::pipeline::TrainedQross;
use qross::serve::{ServeConfig, ServeEngine, ServeModel};
use qross::surrogate::SurrogatePrediction;

use crate::stats::median;
use crate::trace::Tracer;
use crate::{affinity, bits, ndjson, pipeline, qbin, runs_dir, server, Args, Checks, Report};

/// QBIN requests replayed in process.
const QBIN_REPLAY: usize = 20_000;
/// Instance rounds replayed in process.
const NDJSON_REPLAY: usize = 200;
/// Length of each live session, seconds.
const LIVE_S: f64 = 3.0;

fn engine_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

fn prediction_out(a: f64, p: &SurrogatePrediction) -> PredictionOut {
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

/// Runs the traced run for `args.workload`.
pub fn traced(args: &Args, checks: &mut Checks) -> Result<Report, String> {
    let scale = if args.workload == "tune-tsp" {
        Scale::Quick
    } else {
        Scale::Micro
    };
    let tracer = Tracer::new();
    let bundle = runs_dir().join(format!("{}-{}-traced.qross", args.workload, args.seed));
    let p = pipeline::run(scale, args.seed, bundle, checks)?;
    let kernel = pipeline::trace_layers(scale, &p, &tracer, checks);
    let mut loads = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        TrainedQross::load(&p.bundle_path).map_err(|e| format!("load failed: {e}"))?;
        loads.push(start.elapsed().as_secs_f64() * 1e3);
    }

    // Live sessions: the client-side numbers the layer rows add up to.
    let rounds = ndjson::rounds(&p.trained, args.seed, ndjson::round_count(LIVE_S))?;
    let mut stream = qbin::PredictStream::new(&p.trained, args.seed);
    let mut nothing_qbin = |_: usize, _: &mut Checks| Ok(());
    let qbin_server = server::Server::start(&args.server, &p.bundle_path, qbin::SERVER_ARGS)?;
    let layout = affinity::Layout::enter(qbin_server.pid())?;
    let fixed = qbin::fixed_rate(
        &qbin_server,
        &mut stream,
        &p.trained,
        1.0,
        LIVE_S,
        1,
        &mut || layout.server_cpu_slowness(),
        &mut nothing_qbin,
        checks,
    )?;
    let qbin_metrics = qbin_server.metrics()?.metrics;
    drop(qbin_server);
    layout.leave()?;
    let ndjson_server = server::Server::start(&args.server, &p.bundle_path, ndjson::SERVER_ARGS)?;
    let layout = affinity::Layout::enter(ndjson_server.pid())?;
    let live = ndjson::live(&ndjson_server, &rounds, LIVE_S, checks)?;
    drop(ndjson_server);
    layout.leave()?;

    let requests: Vec<(Vec<f64>, f64)> = stream
        .requests()
        .take(QBIN_REPLAY)
        .map(|(f, a)| (f.to_vec(), a))
        .collect();
    let overhead = replay_qbin(&p.trained, &p.bundle_path, &requests, &tracer, checks)?;
    replay_ndjson(
        &p.trained,
        &p.bundle_path,
        &rounds[..NDJSON_REPLAY.min(rounds.len())],
        &tracer,
        checks,
    )?;
    tracer
        .write_json(&runs_dir().join(format!("spans-{}-{}.json", args.workload, args.seed)))
        .map_err(|e| format!("write spans: {e}"))?;

    let self_us = |name: &str| median(&tracer.self_times_ns(name)) / 1e3;
    let qbin_rows = [
        ("protocol.qbin_decode", self_us("protocol.qbin_decode")),
        ("serve.submit", self_us("serve.submit")),
        ("serve.wait", self_us("serve.wait")),
        ("protocol.qbin_encode", self_us("protocol.qbin_encode")),
    ];
    let ndjson_rows = [
        ("protocol.ndjson_decode", self_us("protocol.ndjson_decode")),
        ("problems.decode", self_us("problems.decode")),
        ("problems.features", self_us("problems.features")),
        ("serve.grid_submit", self_us("serve.grid_submit")),
        ("serve.grid_wait", self_us("serve.grid_wait")),
        ("protocol.ndjson_encode", self_us("protocol.ndjson_encode")),
    ];
    let qbin_unattributed = layer_table("predict-qbin", fixed.p50_wall_us, &qbin_rows);
    let ndjson_unattributed = layer_table("instance-ndjson", live.p50_us, &ndjson_rows);

    let trials_per_pass = p.trials_per_pass();
    let collect_calls = p.sample_ns.len() - trials_per_pass;
    let sample_ms = median(&p.sample_ns) / 1e6;
    println!(
        "pipeline (wall time): collect {:.3}s vs solvers.sample_ms {sample_ms:.3} x {collect_calls} calls = {:.3}s; \
         tune {:.3}s vs solvers.sample_ms {sample_ms:.3} x {trials_per_pass} calls = {:.3}s",
        p.collect.wall_s,
        sample_ms * collect_calls as f64 / 1e3,
        p.tune().wall_s,
        sample_ms * trials_per_pass as f64 / 1e3,
    );
    println!(
        "tracing overhead: in-process QBIN replay {:.0}ns per request untraced, {:.0}ns traced",
        overhead.0, overhead.1
    );
    println!(
        "traced run end to end: predict-qbin p50 {:.1}us p99 {:.1}us at {:.0}/s; \
         instance-ndjson p50 {:.1}us p99 {:.1}us {:.1} rounds/s; collect_s {:.3} train_s {:.3} tune_s {:.3}",
        fixed.p50_us,
        fixed.p99_us,
        fixed.achieved_rps,
        live.p50_us,
        live.p99_us,
        live.throughput_rps,
        p.collect.scaled_s,
        p.train().scaled_s,
        p.tune().scaled_s
    );

    let propose: Vec<f64> = {
        let proposes = tracer.durations_ns("strategy.propose");
        let observes = tracer.durations_ns("strategy.observe");
        proposes.iter().zip(&observes).map(|(a, b)| a + b).collect()
    };
    let mut r = Report::new();
    r.setting("scale", p.scale_name);
    r.setting("qbin_client_p50_us", fixed.p50_wall_us);
    r.setting("ndjson_client_p50_us", live.p50_us);
    r.setting("ndjson_unattributed_us", ndjson_unattributed);
    r.setting("ndjson_rounds", live.rounds);
    r.setting("ndjson_rows_per_batch", live.rows_per_batch);
    r.setting("ndjson_cache_hit_ratio", live.cache_hit_ratio);
    r.metric("protocol.qbin_decode_ns", qbin_rows[0].1 * 1e3, "ns");
    r.metric("protocol.qbin_encode_ns", qbin_rows[3].1 * 1e3, "ns");
    r.metric("protocol.ndjson_decode_us", ndjson_rows[0].1, "us");
    r.metric("protocol.ndjson_encode_us", ndjson_rows[5].1, "us");
    r.metric("problems.decode_us", ndjson_rows[1].1, "us");
    r.metric("problems.features_us", ndjson_rows[2].1, "us");
    r.metric("serve.submit_ns", qbin_rows[1].1 * 1e3, "ns");
    r.metric("serve.wait_us", qbin_rows[2].1, "us");
    r.metric("serve.rows_per_batch", qbin_metrics.batch_occupancy, "rows");
    r.metric(
        "serve.cache_hit_ratio",
        qbin_metrics.cache_hit_rate,
        "ratio",
    );
    r.metric("online.feedback_ns", self_us("online.feedback") * 1e3, "ns");
    r.metric(
        "surrogate.predict_row_ns",
        self_us("surrogate.predict_row") * 1e3,
        "ns",
    );
    r.metric(
        "surrogate.predict_grid64_us",
        self_us("surrogate.predict_grid64"),
        "us",
    );
    r.metric("kernel.matmul_ns", kernel[0].1, "ns");
    r.metric("kernel.matmul_gflops", kernel[1].1, "GFLOP/s");
    r.metric("net.unattributed_us", qbin_unattributed, "us");
    r.metric("loadgen.lag_p99_us", fixed.lag_p99_us, "us");
    r.metric("store.load_ms", median(&loads), "ms");
    r.metric("store.save_ms", p.save_ms, "ms");
    r.metric("store.bundle_bytes", p.bundle_bytes as f64, "bytes");
    r.metric(
        "collect.profile_ms",
        median(&tracer.durations_ns("collect.profile")) / 1e6,
        "ms",
    );
    r.metric("solvers.sample_ms", sample_ms, "ms");
    r.metric("solvers.calls", p.sample_ns.len() as f64, "count");
    r.metric(
        "surrogate.train_epoch_ms",
        p.train().scaled_s * 1e3 / p.epochs as f64,
        "ms",
    );
    r.metric(
        "strategy.plan_us",
        median(&tracer.durations_ns("strategy.plan")) / 1e3,
        "us",
    );
    r.metric("strategy.propose_us", median(&propose) / 1e3, "us");
    r.metric("strategy.feasible_share", p.feasible_share, "ratio");
    r.metric("strategy.gap3", p.gap3, "ratio");
    r.metric("strategy.gap20", p.gap20, "ratio");
    Ok(r)
}

/// Prints one stream's layer table: the client p50 next to the
/// in-process per-request p50 of each layer; returns the unattributed
/// remainder (socket, event loop, channel hops, queueing).
fn layer_table(stream: &str, client_p50_us: f64, rows: &[(&str, f64)]) -> f64 {
    let attributed: f64 = rows.iter().map(|(_, us)| us).sum();
    let unattributed = client_p50_us - attributed;
    let cells: Vec<String> = rows.iter().map(|(n, us)| format!("{n} {us:.2}")).collect();
    println!(
        "layers {stream}: client p50 {client_p50_us:.2}us = {} + net.unattributed {unattributed:.2} (us, per-request p50s)",
        cells.join(" + ")
    );
    unattributed
}

/// Replays QBIN predicts through decode → submit → wait → encode on one
/// thread, once untraced and once traced. Returns the untraced and traced
/// wall time per request (ns): their difference is the tracing overhead.
fn replay_qbin(
    trained: &TrainedQross,
    bundle: &std::path::Path,
    requests: &[(Vec<f64>, f64)],
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<(f64, f64), String> {
    let model = TrainedQross::load(bundle).map_err(|e| format!("load failed: {e}"))?;
    let engine = ServeEngine::new(ServeModel::Bundle(Arc::new(model)), engine_config());
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .enumerate()
        .map(|(i, (f, a))| {
            let mut out = Vec::new();
            encode_predict(&mut out, Some(i as u64), "", &[*a], f);
            out
        })
        .collect();
    let mut per_request = Vec::new();
    for traced in [false, true] {
        let start = Instant::now();
        for (i, frame) in frames.iter().enumerate() {
            let t0 = Instant::now();
            let root = traced.then(|| tracer.open("request.qbin", t0, i as u64));
            let mut codec = FrameCodec::new();
            codec.feed(frame);
            let (id, a_values, features) = match codec.next_frame() {
                Some(Ok(f)) => match decode_request(&f) {
                    Ok(BinRequest::Predict {
                        id,
                        a_values,
                        features,
                        ..
                    }) => (id, a_values.to_vec(), features.to_vec()),
                    _ => return Err("replay frame did not decode as a predict".to_string()),
                },
                _ => return Err("replay frame did not decode".to_string()),
            };
            let t1 = Instant::now();
            let pending = engine
                .submit_opts(None, features, a_values.clone(), None)
                .map_err(|e| format!("replay submit: {e}"))?;
            let t2 = Instant::now();
            let outcome = pending.wait();
            let t3 = Instant::now();
            let ok = outcome.is_ok();
            let predictions = outcome.unwrap_or_default();
            let response = Response {
                id,
                ok,
                predictions: Some(
                    a_values
                        .iter()
                        .zip(&predictions)
                        .map(|(&a, p)| prediction_out(a, p))
                        .collect(),
                ),
                ..Response::default()
            };
            let mut out = Vec::new();
            encode_response(&mut out, &response);
            let t4 = Instant::now();
            if let Some(root) = root {
                tracer.record("protocol.qbin_decode", t0, t1, Some(root), i as u64);
                tracer.record("serve.submit", t1, t2, Some(root), i as u64);
                tracer.record("serve.wait", t2, t3, Some(root), i as u64);
                tracer.record("protocol.qbin_encode", t3, t4, Some(root), i as u64);
                tracer.close(root, t4);
                let (f, a) = &requests[i];
                let p0 = Instant::now();
                let oracle = trained.surrogate.predict(f, *a);
                tracer.record("surrogate.predict_row", p0, Instant::now(), None, i as u64);
                checks
                    .check(ok && predictions.len() == 1 && bits(&predictions[0]) == bits(&oracle));
            }
            std::hint::black_box(&out);
        }
        per_request.push(start.elapsed().as_nanos() as f64 / frames.len().max(1) as f64);
    }
    Ok((per_request[0], per_request[1]))
}

/// Replays instance rounds through NDJSON decode → family decode →
/// features → submit → wait → render, then the feedback ingest, on one
/// thread against an online engine that never retrains.
fn replay_ndjson(
    trained: &TrainedQross,
    bundle: &std::path::Path,
    rounds: &[ndjson::Round],
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<(), String> {
    let model = TrainedQross::load(bundle).map_err(|e| format!("load failed: {e}"))?;
    let online = OnlineConfig {
        refresh_after: 0,
        ..OnlineConfig::default()
    };
    let engine = ServeEngine::with_online(
        ServeModel::Bundle(Arc::new(model)),
        engine_config(),
        online,
        None,
    )
    .map_err(|e| format!("online engine: {e}"))?;
    let family = problems::lookup_family("tsp").map_err(|e| e.to_string())?;
    let grid = pipeline::a_grid(ndjson::GRID);
    for (i, round) in rounds.iter().enumerate() {
        let id = i as u64;
        let line = std::str::from_utf8(&round.line)
            .map_err(|e| format!("replay line: {e}"))?
            .trim_end();
        let t0 = Instant::now();
        let root = tracer.open("request.ndjson", t0, id);
        let request: Request =
            serde_json::from_str(line).map_err(|e| format!("replay decode: {e}"))?;
        let t1 = Instant::now();
        let data = request.instance.ok_or("replay request has no instance")?;
        let problem = family
            .decode(&data)
            .map_err(|e| format!("replay family decode: {e}"))?;
        let t2 = Instant::now();
        let features = problem.features();
        let t3 = Instant::now();
        let a_values = request.a_values.unwrap_or_default();
        let pending = engine
            .submit_opts(None, features.clone(), a_values.clone(), None)
            .map_err(|e| format!("replay submit: {e}"))?;
        let t4 = Instant::now();
        let outcome = pending.wait();
        let t5 = Instant::now();
        let ok = outcome.is_ok();
        let predictions = outcome.unwrap_or_default();
        let response = Response {
            id: Some(id),
            ok,
            instance: Some(data.name.clone()),
            predictions: Some(
                a_values
                    .iter()
                    .zip(&predictions)
                    .map(|(&a, p)| prediction_out(a, p))
                    .collect(),
            ),
            ..Response::default()
        };
        let line = render_response(&response).map_err(|e| format!("replay render: {e}"))?;
        let t6 = Instant::now();
        for (name, a, b) in [
            ("protocol.ndjson_decode", t0, t1),
            ("problems.decode", t1, t2),
            ("problems.features", t2, t3),
            ("serve.grid_submit", t3, t4),
            ("serve.grid_wait", t4, t5),
            ("protocol.ndjson_encode", t5, t6),
        ] {
            tracer.record(name, a, b, Some(root), id);
        }
        tracer.close(root, t6);
        std::hint::black_box(&line);

        let at = round.feedback_at;
        let [pf, e_avg, e_std] = round.oracle[at].map(f64::from_bits);
        let record = FeedbackRecord {
            features: round.features.clone(),
            a: grid[at],
            observed_pf: pf,
            observed_e_avg: e_avg,
            observed_e_std: e_std,
            instance_tag: data.name.clone(),
            seed: id,
        };
        let f0 = Instant::now();
        let ack = engine.submit_feedback(record);
        tracer.record("online.feedback", f0, Instant::now(), None, id);

        let g0 = Instant::now();
        let oracle: Vec<[u64; 3]> = trained
            .surrogate
            .predict_grid(&features, &grid)
            .iter()
            .map(bits)
            .collect();
        tracer.record("surrogate.predict_grid64", g0, Instant::now(), None, id);
        checks.check(
            ok && ack.is_ok()
                && features == round.features
                && predictions
                    .iter()
                    .map(bits)
                    .eq(round.oracle.iter().copied())
                && oracle == round.oracle,
        );
    }
    Ok(())
}
