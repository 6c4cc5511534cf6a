//! Integration tests for the observability layer: a mid-run Prometheus
//! scrape over the `--metrics-listen` HTTP endpoint must return a valid
//! text exposition carrying the per-stage latency histograms,
//! per-solver sweep counters, and online-trainer metrics; the `metrics`
//! op must answer equivalently on both wires (QBIN op 0x06); the
//! `trace` op must dump the slowest-request ring with a per-stage
//! breakdown; and per-tenant rejections must split into typed
//! quota/capacity counters without disturbing the legacy total.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bench::net::{serve_event_loop, serve_metrics_http, EventLoopConfig};
use bench::protocol::{bin, MetricsResponse, Response, TraceResponse};
use qross_repro::mathkit::stats::ZScore;
use qross_repro::neural::network::MlpBuilder;
use qross_repro::qross::dataset::Scalers;
use qross_repro::qross::serve::{ServeConfig, ServeEngine, ServeModel, TenantClass, TenantPolicy};
use qross_repro::qross::surrogate::{Surrogate, SurrogateState};
use qross_repro::qubo::QuboBuilder;
use qross_repro::solvers::{self, Solver};

const FEAT_DIM: usize = 24;

/// Seed-built surrogate model (no training time, real serve paths).
fn test_model() -> ServeModel {
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
    ServeModel::Surrogate(Arc::new(surrogate))
}

fn predict_line(id: u64, k: usize, tenant: Option<&str>) -> String {
    let features: Vec<String> = (0..FEAT_DIM)
        .map(|c| format!("{:.6}", ((k * 13 + c * 7) % 29) as f64 / 7.0 - 2.0))
        .collect();
    let features = format!("[{}]", features.join(", "));
    let a = 0.1 + (k % 11) as f64 * 0.45;
    match tenant {
        Some(t) => format!(
            "{{\"id\": {id}, \"op\": \"predict\", \"tenant\": \"{t}\", \
             \"features\": {features}, \"a\": {a}}}\n"
        ),
        None => {
            format!("{{\"id\": {id}, \"op\": \"predict\", \"features\": {features}, \"a\": {a}}}\n")
        }
    }
}

/// Event loop + metrics endpoint on ephemeral ports; the loop joins on
/// drop (the metrics thread parks in `accept` and dies with the test
/// process — `serve_metrics_http` deliberately has no shutdown path).
struct ObsHarness {
    addr: std::net::SocketAddr,
    metrics_addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ObsHarness {
    fn start(engine: ServeEngine) -> ObsHarness {
        let engine = Arc::new(engine);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let config = EventLoopConfig {
            shutdown: Some(Arc::clone(&shutdown)),
            ..Default::default()
        };
        let thread = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || serve_event_loop(&engine, listener, config))
        };
        let metrics_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("metrics bind");
        let metrics_addr = metrics_listener.local_addr().expect("metrics addr");
        {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || serve_metrics_http(&engine, metrics_listener));
        }
        ObsHarness {
            addr,
            metrics_addr,
            shutdown,
            thread: Some(thread),
        }
    }

    /// One NDJSON session over TCP: write, half-close, read all lines.
    fn session(&self, requests: &str) -> Vec<String> {
        let mut stream = TcpStream::connect(self.addr).expect("connect");
        stream.write_all(requests.as_bytes()).expect("send");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        out.lines().map(str::to_string).collect()
    }

    /// One `GET /metrics` scrape; returns the exposition body.
    fn scrape(&self) -> String {
        let mut stream = TcpStream::connect(self.metrics_addr).expect("metrics connect");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
            .expect("send scrape");
        let mut reader = BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).expect("status line");
        assert!(
            status.starts_with("HTTP/1.1 200 OK"),
            "scrape status: {status}"
        );
        let mut content_type = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header line");
            if line.trim().is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-type:") {
                content_type = v.trim().to_string();
            }
        }
        assert_eq!(
            content_type, "text/plain; version=0.0.4",
            "exposition content type"
        );
        let mut body = String::new();
        reader.read_to_string(&mut body).expect("body");
        body
    }
}

impl Drop for ObsHarness {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("loop thread").expect("loop result");
        }
    }
}

/// Structural exposition check plus a sample extractor: every line must
/// be a comment (`# HELP` / `# TYPE`) or `name[{labels}] value`, HELP
/// and TYPE must precede each family's samples, and values must parse.
fn parse_exposition(body: &str) -> std::collections::HashMap<String, f64> {
    let mut samples = std::collections::HashMap::new();
    let mut described: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or_default();
            let family = parts.next().unwrap_or_default();
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "unknown comment keyword: {line}"
            );
            assert!(!family.is_empty(), "comment without a family: {line}");
            described.insert(family);
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without a value: {line}");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable sample value: {line}"));
        let family = series.split(['{', ' ']).next().expect("series name");
        let family = family
            .strip_suffix("_bucket")
            .or_else(|| family.strip_suffix("_sum"))
            .or_else(|| family.strip_suffix("_count"))
            .unwrap_or(family);
        assert!(
            described.contains(family),
            "sample before its HELP/TYPE: {line}"
        );
        samples.insert(series.to_string(), value);
    }
    samples
}

#[test]
fn mid_run_scrape_is_valid_exposition_with_stage_solver_and_online_series() {
    let harness = ObsHarness::start(ServeEngine::new(test_model(), ServeConfig::default()));
    // Eager registration, as qross-serve performs at startup.
    bench::protocol::register_protocol_metrics();
    solvers::metrics::register_metrics();

    // Mid-run: traffic on the wire, a solver sweep in progress-ish.
    let requests: String = (0..8u64)
        .map(|id| predict_line(id, id as usize, None))
        .collect();
    let lines = harness.session(&requests);
    assert_eq!(lines.len(), 8, "every predict answered");
    let mut b = QuboBuilder::new(6);
    for i in 0..6 {
        b.add_linear(i, if i % 2 == 0 { -1.0 } else { 0.5 });
    }
    let model = b.build();
    let sa_set = solvers::SimulatedAnnealer::default().sample(&model, 4, 7);
    let tabu_set = solvers::TabuSearch::default().sample(&model, 2, 9);

    let body = harness.scrape();
    let samples = parse_exposition(&body);

    // Per-stage latency histograms from the serve pipeline.
    for stage in ["decode", "queue", "batch", "forward", "cache", "encode"] {
        let count = format!("qross_serve_stage_ns_count{{stage=\"{stage}\"}}");
        assert!(
            samples.contains_key(&count),
            "missing stage histogram {stage} in:\n{body}"
        );
    }
    assert!(samples[&"qross_serve_stage_ns_count{stage=\"forward\"}".to_string()] >= 8.0);
    assert_eq!(samples["qross_serve_requests_total"], 8.0);

    // Per-solver sweep counters (global registry, merged into the same
    // scrape). SA ran 4 replicas of `sweeps` sweeps; tabu's adaptive
    // count is at least one sweep per replica.
    assert!(samples["qross_solver_sweeps_total{solver=\"sa\"}"] > 0.0);
    assert!(samples["qross_solver_sweeps_total{solver=\"tabu\"}"] > 0.0);
    assert!(samples["qross_solver_energy_evals_total{solver=\"sa\"}"] > 0.0);
    assert!(samples["qross_solver_sample_ns_count{solver=\"sa\"}"] >= 1.0);
    // Eagerly registered but untouched solvers still expose series.
    assert_eq!(samples["qross_solver_sweeps_total{solver=\"da\"}"], 0.0);
    drop((sa_set, tabu_set));

    // Online-trainer metrics: present at zero on a non-online engine —
    // the series registers with the engine, not with first use.
    assert_eq!(samples["qross_online_feedback_total"], 0.0);
    assert!(samples.contains_key("qross_online_retrain_ns_count"));
    assert!(samples.contains_key("qross_online_swap_ns_count"));
    assert!(samples.contains_key("qross_serve_model_generation"));

    // Event-loop counters: one connection accepted, readiness events
    // flowed.
    assert!(samples["qross_net_accepted_total"] >= 1.0);
    assert!(samples["qross_net_readiness_events_total"] > 0.0);

    // Counters are monotone across scrapes under more traffic.
    let more: String = (0..5u64).map(|id| predict_line(id, 3, None)).collect();
    harness.session(&more);
    let second = parse_exposition(&harness.scrape());
    for (series, &value) in &samples {
        if series.contains("_total") || series.contains("_count") {
            let after = second.get(series).copied().unwrap_or_else(|| {
                panic!("series {series} vanished between scrapes");
            });
            assert!(
                after >= value,
                "counter {series} went backwards: {value} -> {after}"
            );
        }
    }
    assert_eq!(second["qross_serve_requests_total"], 13.0);
}

#[test]
fn metrics_op_answers_identically_on_both_wires() {
    let harness = ObsHarness::start(ServeEngine::new(test_model(), ServeConfig::default()));
    let requests: String = (0..4u64)
        .map(|id| predict_line(id, id as usize, None))
        .collect();
    harness.session(&requests);

    // NDJSON metrics op.
    let lines = harness.session("{\"id\": 9, \"op\": \"metrics\"}\n");
    let ndjson: MetricsResponse = serde_json::from_str(&lines[0]).expect("metrics schema");
    assert!(ndjson.ok);
    assert_eq!(ndjson.id, Some(9));
    let ndjson_default = ndjson
        .metrics
        .tenants
        .iter()
        .find(|t| t.tenant == "default")
        .expect("default tenant row");
    assert_eq!(ndjson_default.requests, 4);
    assert_eq!(ndjson.metrics.rejected_quota, 0);
    assert_eq!(ndjson.metrics.rejected_capacity, 0);

    // QBIN metrics op (0x06) over the same port.
    let mut frame = Vec::new();
    bin::encode_metrics_request(&mut frame, Some(9));
    let mut stream = TcpStream::connect(harness.addr).expect("connect");
    stream.write_all(&frame).expect("send frame");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read frames");
    let mut codec = bin::FrameCodec::new();
    codec.feed(&out);
    let response_frame = codec.next_frame().expect("one frame").expect("clean frame");
    let qbin = bin::decode_metrics_response(&response_frame).expect("metrics frame");
    assert!(qbin.ok);
    assert_eq!(qbin.id, Some(9));
    // Counter-valued fields agree across wires (latency/uptime/qps are
    // wall-clock-dependent and legitimately differ between the calls).
    assert_eq!(qbin.metrics.generation, ndjson.metrics.generation);
    assert_eq!(qbin.metrics.rejected, ndjson.metrics.rejected);
    assert_eq!(qbin.metrics.rejected_quota, ndjson.metrics.rejected_quota);
    assert_eq!(
        qbin.metrics.rejected_capacity,
        ndjson.metrics.rejected_capacity
    );
    assert_eq!(qbin.metrics.tenants.len(), ndjson.metrics.tenants.len());
    let qbin_default = qbin
        .metrics
        .tenants
        .iter()
        .find(|t| t.tenant == "default")
        .expect("default tenant row over qbin");
    assert_eq!(qbin_default.requests, ndjson_default.requests);
    assert_eq!(qbin_default.rows, ndjson_default.rows);
}

/// Every object key of a JSON line, in wire order (keys and string
/// values of the `metrics` line hold no `"` or `:`).
fn json_keys(line: &str) -> Vec<&str> {
    line.match_indices("\":")
        .map(|(end, _)| &line[line[..end].rfind('"').expect("key opens") + 1..end])
        .collect()
}

/// The `metrics` schema is frozen (ARTIFACTS.md): the NDJSON line's keys
/// in wire order — top level, `metrics` and each tenant row — and the
/// QBIN `0x84` payload length its grammar implies for *k* tenants. Both renditions
/// are excluded from byte-diff replays, so only this test pins them.
#[test]
fn metrics_schema_is_frozen_on_both_wires() {
    let engine = ServeEngine::new(test_model(), ServeConfig::default());
    let mut requests: String = (0..3u64)
        .map(|id| predict_line(id, id as usize, Some("team-a")))
        .collect();
    requests.push_str(&predict_line(3, 3, None));
    requests.push_str("{\"id\": 9, \"op\": \"metrics\"}\n");
    let mut out = Vec::new();
    bench::protocol::serve_connection(&engine, requests.as_bytes(), &mut out)
        .expect("ndjson replay");
    let text = std::str::from_utf8(&out).expect("utf-8");
    let line = text.lines().last().expect("metrics line");

    let metrics_keys = [
        "uptime_secs",
        "qps",
        "latency_p50_us",
        "latency_p99_us",
        "batch_occupancy",
        "cache_hit_rate",
        "generation",
        "queue_depth",
        "rejected",
        "rejected_quota",
        "rejected_capacity",
        "tenants",
    ];
    let tenant_keys = [
        "tenant",
        "weight",
        "quota_rows",
        "requests",
        "rows",
        "rejected",
        "rejected_quota",
        "rejected_capacity",
        "pending_rows",
    ];
    let mut want = vec!["id", "ok", "metrics"];
    want.extend(metrics_keys);
    want.extend(tenant_keys);
    want.extend(tenant_keys);
    assert_eq!(json_keys(line), want, "two tenant rows: default and team-a");

    let mut frame = Vec::new();
    bin::encode_metrics_request(&mut frame, Some(9));
    let mut out = Vec::new();
    bench::protocol::serve_connection(&engine, frame.as_slice(), &mut out).expect("qbin replay");
    let mut codec = bin::FrameCodec::new();
    codec.feed(&out);
    let frame = codec.next_frame().expect("one frame").expect("clean frame");
    assert_eq!(frame.op, bin::OP_RESP_METRICS);
    let decoded = bin::decode_metrics_response(&frame).expect("metrics frame");
    let m = &decoded.metrics;
    assert_eq!(m.tenants.len(), 2, "default and team-a");
    let opt_f64 = |v: Option<f64>| 1 + 8 * usize::from(v.is_some());
    // id: opt_u64, ok: u8, uptime_secs qps: f64×2, the two latency
    // opt_f64s, batch_occupancy cache_hit_rate: f64×2, five u64
    // counters, tenant_count: u32, then per tenant a str and eight u64s.
    let want = (1 + 8)
        + 1
        + 16
        + opt_f64(m.latency_p50_us)
        + opt_f64(m.latency_p99_us)
        + 16
        + 5 * 8
        + 4
        + m.tenants
            .iter()
            .map(|t| 4 + t.tenant.len() + 8 * 8)
            .sum::<usize>();
    assert_eq!(frame.payload.len(), want);
}

#[test]
fn trace_op_dumps_slowest_requests_with_stage_breakdown() {
    let harness = ObsHarness::start(ServeEngine::new(test_model(), ServeConfig::default()));
    let requests: String = (0..6u64)
        .map(|id| predict_line(id, id as usize, Some("team-a")))
        .collect();
    harness.session(&requests);
    let lines = harness.session("{\"id\": 42, \"op\": \"trace\"}\n");
    let trace: TraceResponse = serde_json::from_str(&lines[0]).expect("trace schema");
    assert!(trace.ok);
    assert_eq!(trace.id, Some(42));
    assert!(trace.capacity >= trace.entries.len() as u64);
    assert!(!trace.entries.is_empty(), "six predicts left no traces");
    let mut last_total = u64::MAX;
    let mut trace_ids = std::collections::HashSet::new();
    for entry in &trace.entries {
        assert_eq!(entry.op, "predict");
        assert_eq!(entry.tenant, "team-a");
        assert!(entry.total_ns > 0, "zero-duration trace entry");
        assert!(
            entry.total_ns <= last_total,
            "trace not sorted slowest-first"
        );
        last_total = entry.total_ns;
        let stage_sum = entry.decode_ns
            + entry.queue_ns
            + entry.batch_ns
            + entry.forward_ns
            + entry.cache_ns
            + entry.encode_ns;
        assert_eq!(
            stage_sum, entry.total_ns,
            "stage breakdown must sum to total"
        );
        assert!(entry.forward_ns > 0, "predict without forward time");
        assert!(
            trace_ids.insert(entry.trace_id),
            "duplicate trace id {}",
            entry.trace_id
        );
    }
}

/// A `trace` that arrives in the same read as the predicts before it
/// must still see them: the log is dumped when the trace's answer is
/// emitted, after theirs, not when the line is decoded.
#[test]
fn trace_in_one_stdio_buffer_sees_the_predicts_before_it() {
    let engine = ServeEngine::new(test_model(), ServeConfig::default());
    let mut requests: String = (0..4u64)
        .map(|id| predict_line(id, id as usize, None))
        .collect();
    requests.push_str("{\"id\": 9, \"op\": \"trace\"}\n");
    let mut out = Vec::new();
    bench::protocol::serve_connection(&engine, requests.as_bytes(), &mut out)
        .expect("stdio replay");
    let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf-8").lines().collect();
    assert_eq!(lines.len(), 5);
    let trace: TraceResponse = serde_json::from_str(lines[4]).expect("trace schema");
    assert_eq!(trace.id, Some(9));
    assert_eq!(trace.entries.len(), 4, "trace answered before the predicts");
}

#[test]
fn tenant_rejections_split_into_quota_and_capacity_counters() {
    let harness = ObsHarness::start(ServeEngine::new(
        test_model(),
        ServeConfig {
            tenants: TenantPolicy {
                classes: vec![(
                    "capped".to_string(),
                    TenantClass {
                        weight: 1,
                        quota_rows: 1,
                    },
                )],
                ..Default::default()
            },
            ..ServeConfig::default()
        },
    ));
    // A 3-row grid against a 1-row quota: one quota rejection.
    let features: Vec<String> = (0..FEAT_DIM).map(|c| format!("{c}.0")).collect();
    let grid = format!(
        "{{\"id\": 1, \"op\": \"predict\", \"tenant\": \"capped\", \
         \"features\": [{}], \"a_values\": [0.5, 1.0, 2.0]}}\n",
        features.join(", ")
    );
    let lines = harness.session(&format!("{grid}{}", "{\"id\": 2, \"op\": \"metrics\"}\n"));
    let rejected: Response = serde_json::from_str(&lines[0]).expect("rejection");
    assert!(!rejected.ok);
    let metrics: MetricsResponse = serde_json::from_str(&lines[1]).expect("metrics schema");
    let m = &metrics.metrics;
    assert_eq!(m.rejected, 1, "legacy total must keep counting");
    assert_eq!(m.rejected_quota, 1, "quota rejection not typed");
    assert_eq!(m.rejected_capacity, 0);
    let capped = m
        .tenants
        .iter()
        .find(|t| t.tenant == "capped")
        .expect("capped tenant row");
    assert_eq!(capped.rejected, 1);
    assert_eq!(capped.rejected_quota, 1);
    assert_eq!(capped.rejected_capacity, 0);
    // The reason split also lands on the scrape as labeled counters.
    let samples = parse_exposition(&harness.scrape());
    assert_eq!(samples["qross_serve_rejected_total{reason=\"quota\"}"], 1.0);
    assert_eq!(
        samples["qross_serve_rejected_total{reason=\"capacity\"}"],
        0.0
    );
}

/// The scrape and the `metrics` op are two views of one set of counters:
/// each tenant's `qross_serve_tenant_*` series equals its row in the
/// NDJSON `metrics` line and in the decoded QBIN `0x84` frame.
#[test]
fn tenant_series_match_the_metrics_op_on_both_wires() {
    let engine = ServeEngine::new(
        test_model(),
        ServeConfig {
            tenants: TenantPolicy {
                classes: vec![(
                    "capped".to_string(),
                    TenantClass {
                        weight: 2,
                        quota_rows: 1,
                    },
                )],
                ..Default::default()
            },
            ..ServeConfig::default()
        },
    );
    let mut requests: String = (0..3u64)
        .map(|id| predict_line(id, id as usize, Some("team-a")))
        .collect();
    requests.push_str(&predict_line(3, 3, Some("capped")));
    // A 3-row grid can never fit a 1-row quota: one quota rejection.
    let features: Vec<String> = (0..FEAT_DIM).map(|c| format!("{c}.5")).collect();
    requests.push_str(&format!(
        "{{\"id\": 4, \"op\": \"predict\", \"tenant\": \"capped\", \
         \"features\": [{}], \"a_values\": [0.5, 1.0, 2.0]}}\n",
        features.join(", ")
    ));
    requests.push_str("{\"id\": 9, \"op\": \"metrics\"}\n");
    let mut out = Vec::new();
    bench::protocol::serve_connection(&engine, requests.as_bytes(), &mut out)
        .expect("ndjson replay");
    let text = std::str::from_utf8(&out).expect("utf-8");
    let ndjson: MetricsResponse =
        serde_json::from_str(text.lines().last().expect("metrics line")).expect("metrics schema");

    let mut frame = Vec::new();
    bin::encode_metrics_request(&mut frame, Some(9));
    let mut out = Vec::new();
    bench::protocol::serve_connection(&engine, frame.as_slice(), &mut out).expect("qbin replay");
    let mut codec = bin::FrameCodec::new();
    codec.feed(&out);
    let frame = codec.next_frame().expect("one frame").expect("clean frame");
    let qbin = bin::decode_metrics_response(&frame).expect("metrics frame");

    let samples = parse_exposition(&obs::prom::render(&[engine.obs().registry()]));
    let series = |base: &str, labels: &[(&str, &str)]| -> u64 {
        let name = obs::labeled(base, labels);
        samples[&name] as u64
    };
    let names: Vec<&str> = ndjson
        .metrics
        .tenants
        .iter()
        .map(|t| t.tenant.as_str())
        .collect();
    assert_eq!(names, ["capped", "team-a"], "rows in registration order");
    assert_eq!(qbin.metrics.tenants, ndjson.metrics.tenants);
    for row in &ndjson.metrics.tenants {
        let tenant = [("tenant", row.tenant.as_str())];
        let rejected = |reason| {
            series(
                "qross_serve_tenant_rejected_total",
                &[("tenant", row.tenant.as_str()), ("reason", reason)],
            )
        };
        assert_eq!(
            series("qross_serve_tenant_requests_total", &tenant),
            row.requests
        );
        assert_eq!(series("qross_serve_tenant_rows_total", &tenant), row.rows);
        assert_eq!(rejected("quota"), row.rejected_quota);
        assert_eq!(rejected("capacity"), row.rejected_capacity);
        assert_eq!(row.rejected, row.rejected_quota + row.rejected_capacity);
        assert!(samples.contains_key(&obs::labeled(
            "qross_serve_tenant_contended_rows_total",
            &tenant
        )));
    }
    let capped = &ndjson.metrics.tenants[0];
    assert_eq!(
        (capped.requests, capped.rows, capped.rejected_quota),
        (1, 1, 1)
    );
    let team_a = &ndjson.metrics.tenants[1];
    assert_eq!((team_a.requests, team_a.rows, team_a.rejected), (3, 3, 0));
}
