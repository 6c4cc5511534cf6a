//! Integration tests for the nonblocking event-loop transport
//! (`bench::net`): many simultaneous multiplexed connections over one
//! shared engine must be byte-identical, per connection, to a
//! sequential stdio replay of the same request log — and weighted fair
//! queueing must keep a polite tenant served while a flooder saturates.

use std::io::{Cursor, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bench::net::{serve_event_loop, EventLoopConfig};
use bench::protocol::{bin, serve_connection, MetricsResponse, Response, MAX_LINE_BYTES};
use qross_repro::mathkit::stats::ZScore;
use qross_repro::neural::network::MlpBuilder;
use qross_repro::qross::dataset::Scalers;
use qross_repro::qross::pipeline::{PipelineConfig, TrainedQross};
use qross_repro::qross::serve::{ServeConfig, ServeEngine, ServeModel, TenantClass, TenantPolicy};
use qross_repro::qross::surrogate::{Surrogate, SurrogateState, TrainReport};
use qross_repro::qross::StatisticalFeaturizer;

/// Feature width of [`StatisticalFeaturizer`].
const FEAT_DIM: usize = 24;

/// Seed-derived serve-ready bundle (same shape as the serving
/// integration suite: real code paths, no training time).
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
    ServeModel::Bundle(Arc::new(TrainedQross {
        surrogate,
        featurizer: Box::new(StatisticalFeaturizer::new()),
        train_encodings: Vec::new(),
        test_encodings: Vec::new(),
        dataset_len: 0,
        report: TrainReport::default(),
        config: PipelineConfig::micro(),
    }))
}

/// Deterministic query `k`: 24 features plus a positive `A`.
fn query(k: usize) -> (String, f64) {
    let features: Vec<String> = (0..FEAT_DIM)
        .map(|c| format!("{:.6}", ((k * 13 + c * 7) % 29) as f64 / 7.0 - 2.0))
        .collect();
    let a = 0.1 + (k % 11) as f64 * 0.45;
    (format!("[{}]", features.join(", ")), a)
}

fn predict_line(id: u64, k: usize, tenant: Option<&str>) -> String {
    let (features, a) = query(k);
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

/// A running event loop on an ephemeral port; shuts down and joins on
/// drop so failed tests don't leak the loop thread.
struct LoopHarness {
    engine: Arc<ServeEngine>,
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl LoopHarness {
    fn start(engine: ServeEngine, mut config: EventLoopConfig) -> LoopHarness {
        let engine = Arc::new(engine);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        config.shutdown = Some(Arc::clone(&shutdown));
        let thread = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || serve_event_loop(&engine, listener, config))
        };
        LoopHarness {
            engine,
            addr,
            shutdown,
            thread: Some(thread),
        }
    }

    fn connect(&self) -> TcpStream {
        TcpStream::connect(self.addr).expect("connect")
    }
}

impl Drop for LoopHarness {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("loop thread").expect("loop result");
        }
    }
}

/// A tenant's registry series, read from the engine's exposition.
fn tenant_series(engine: &ServeEngine, base: &str, tenant: &str) -> u64 {
    counter(engine, &obs::labeled(base, &[("tenant", tenant)]))
}

/// A series of the engine's registry (which the event loop registers
/// its own counters on), read from its exposition.
fn counter(engine: &ServeEngine, name: &str) -> u64 {
    obs::prom::render(&[engine.obs().registry()])
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .expect("the counter is registered")
        .parse()
        .expect("counter value")
}

/// Writes `requests`, half-closes, and reads the whole response stream.
fn replay_over_tcp(mut stream: TcpStream, requests: &[u8]) -> Vec<u8> {
    stream.write_all(requests).expect("send requests");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read responses");
    out
}

/// The sequential oracle: the same request log through the blocking
/// stdio driver on a fresh engine with batching and caching off.
fn stdio_oracle(requests: &[u8]) -> Vec<u8> {
    let engine = ServeEngine::new(
        test_model(),
        ServeConfig {
            workers: 1,
            max_batch_rows: 1,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let mut out = Vec::new();
    serve_connection(&engine, Cursor::new(requests.to_vec()), &mut out).expect("oracle session");
    out
}

#[test]
fn concurrent_fixture_replays_match_stdio_oracle_bytewise() {
    let fixture =
        std::fs::read("tests/fixtures/serve_smoke_requests.ndjson").expect("committed fixture");
    let expected = stdio_oracle(&fixture);
    let harness = LoopHarness::start(
        ServeEngine::new(
            test_model(),
            ServeConfig {
                workers: 2,
                max_batch_rows: 16,
                ..Default::default()
            },
        ),
        EventLoopConfig::default(),
    );
    std::thread::scope(|scope| {
        for client in 0..32usize {
            let stream = harness.connect();
            let (fixture, expected) = (&fixture, &expected);
            scope.spawn(move || {
                let got = replay_over_tcp(stream, fixture);
                assert_eq!(
                    got, *expected,
                    "client {client}: event-loop bytes diverged from stdio oracle"
                );
            });
        }
    });
    let stats = harness.engine.stats();
    assert_eq!(stats.rejected, 0, "spurious backpressure: {stats:?}");
}

#[test]
fn five_hundred_twelve_simultaneous_connections_stay_ordered_and_exact() {
    const CONNS: usize = 512;
    const REQS_PER_CONN: u64 = 3;
    let harness = LoopHarness::start(
        ServeEngine::new(
            test_model(),
            ServeConfig {
                workers: 2,
                max_batch_rows: 32,
                // Room for every connection's rows at once: admission
                // control must not depend on client count here, or the
                // sequential oracle would diverge.
                queue_capacity: 65_536,
                ..Default::default()
            },
        ),
        EventLoopConfig {
            max_conns: CONNS + 8,
            ..Default::default()
        },
    );

    // Connect everyone before anyone sends: all 512 sessions are live in
    // the loop simultaneously.
    let mut streams: Vec<TcpStream> = (0..CONNS).map(|_| harness.connect()).collect();
    let requests: Vec<Vec<u8>> = (0..CONNS)
        .map(|c| {
            (0..REQS_PER_CONN)
                .map(|r| predict_line(r, c * 7 + r as usize, None))
                .collect::<String>()
                .into_bytes()
        })
        .collect();
    for (stream, reqs) in streams.iter_mut().zip(&requests) {
        stream.write_all(reqs).expect("send");
        stream.shutdown(Shutdown::Write).expect("half-close");
    }
    for (c, (mut stream, reqs)) in streams.into_iter().zip(&requests).enumerate() {
        let mut got = Vec::new();
        stream.read_to_end(&mut got).expect("read responses");
        let expected = stdio_oracle(reqs);
        assert_eq!(got, expected, "connection {c} diverged from stdio oracle");
        let ids: Vec<Option<u64>> = String::from_utf8(got)
            .expect("utf-8")
            .lines()
            .map(|l| serde_json::from_str::<Response>(l).expect("response").id)
            .collect();
        let wanted: Vec<Option<u64>> = (0..REQS_PER_CONN).map(Some).collect();
        assert_eq!(ids, wanted, "connection {c} dropped or reordered responses");
    }
    let stats = harness.engine.stats();
    assert_eq!(stats.requests, CONNS * REQS_PER_CONN as usize);
    assert_eq!(stats.rejected, 0, "spurious backpressure: {stats:?}");
}

#[test]
fn flooding_tenant_cannot_starve_a_polite_tenant() {
    // 800 five-row grids: a 4000-row backlog against the polite
    // tenant's 200 single rows — the 10x flooder of the acceptance bar.
    const FLOOD_REQS: u64 = 800;
    const FLOOD_ROWS_PER_REQ: u64 = 5;
    const POLITE_REQS: u64 = 200;
    let tenants = TenantPolicy {
        classes: vec![
            ("flood".to_string(), TenantClass::default()),
            ("polite".to_string(), TenantClass::default()),
        ],
        ..Default::default()
    };
    let harness = LoopHarness::start(
        ServeEngine::new(
            test_model(),
            ServeConfig {
                workers: 1,
                max_batch_rows: 8,
                queue_capacity: 65_536,
                cache_capacity: 0, // every row must be served, not memoised
                tenants,
            },
        ),
        EventLoopConfig::default(),
    );

    let engine = Arc::clone(&harness.engine);
    let flood_metrics = || {
        engine
            .metrics()
            .tenants
            .into_iter()
            .find(|t| t.tenant == "flood")
    };
    let flood_stream = harness.connect();
    let polite_stream = harness.connect();
    let flood: Vec<u8> = (0..FLOOD_REQS)
        .map(|r| {
            let (features, _) = query((r as usize) % 97);
            format!(
                "{{\"id\": {r}, \"op\": \"predict\", \"tenant\": \"flood\", \
                 \"features\": {features}, \"a_values\": [0.5, 1.0, 1.5, 2.0, 2.5]}}\n"
            )
        })
        .collect::<String>()
        .into_bytes();
    let polite: Vec<u8> = (0..POLITE_REQS)
        .map(|r| predict_line(r, (r as usize) % 89, Some("polite")))
        .collect::<String>()
        .into_bytes();
    std::thread::scope(|scope| {
        let flood_client = scope.spawn(move || replay_over_tcp(flood_stream, &flood));
        // Start the polite session behind a standing flood backlog, so the
        // two tenants contend for the worker.
        while flood_metrics()
            .is_none_or(|t| t.pending_rows < 250 && t.rows < FLOOD_REQS * FLOOD_ROWS_PER_REQ)
        {
            std::thread::yield_now();
        }
        let polite_out = replay_over_tcp(polite_stream, &polite);
        let polite_lines = polite_out.iter().filter(|&&b| b == b'\n').count() as u64;
        assert_eq!(polite_lines, POLITE_REQS, "polite tenant lost responses");
        // Contested rows are counted by the scheduler as it dispatches
        // them: every flood row handed out while a polite job sat in the
        // queue, and no other. A client-side window cannot bracket that:
        // flood rows are admitted a whole pipelining window at a time, and
        // a descheduled client sees the polite session end late.
        let contested_flood_rows =
            tenant_series(&engine, "qross_serve_tenant_contended_rows_total", "flood");
        // Equal weights mean the polite tenant's fair share of the
        // contested window is half the rows; the acceptance floor is a
        // quarter of that share, i.e. the flooder may win at most 7x
        // the polite tenant's rows while both are active. (DWRR's
        // actual split here is ~1:1.)
        assert!(
            contested_flood_rows <= POLITE_REQS * 7,
            "polite tenant starved: flood won {contested_flood_rows} rows \
             during the polite tenant's {POLITE_REQS}-row session"
        );
        let flood_out = flood_client.join().expect("flood client");
        let flood_lines = flood_out.iter().filter(|&&b| b == b'\n').count() as u64;
        assert_eq!(flood_lines, FLOOD_REQS, "flooder lost responses");
        assert_eq!(
            flood_metrics().map_or(0, |t| t.rows),
            FLOOD_REQS * FLOOD_ROWS_PER_REQ,
            "flooder rows went unserved"
        );
    });
}

#[test]
fn oversized_request_line_gets_typed_rejection_and_session_survives() {
    let harness = LoopHarness::start(
        ServeEngine::new(test_model(), ServeConfig::default()),
        EventLoopConfig::default(),
    );
    let mut stream = harness.connect();
    let mut giant = vec![b'z'; MAX_LINE_BYTES + 2];
    giant.push(b'\n');
    stream.write_all(&giant).expect("send giant line");
    stream
        .write_all(predict_line(7, 3, None).as_bytes())
        .expect("send valid request");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read responses");
    let responses: Vec<Response> = out
        .lines()
        .map(|l| serde_json::from_str(l).expect("response"))
        .collect();
    assert_eq!(responses.len(), 2, "expected rejection + answer: {out}");
    assert!(!responses[0].ok);
    let error = responses[0].error.as_ref().expect("error message");
    assert!(
        error.contains(&format!("{MAX_LINE_BYTES}-byte limit")),
        "untyped oversized-line error: {error}"
    );
    assert_eq!(responses[1].id, Some(7));
    assert!(responses[1].ok, "session died after oversized line: {out}");
}

#[test]
fn max_conns_cap_defers_extra_connections_until_capacity_frees() {
    let harness = LoopHarness::start(
        ServeEngine::new(test_model(), ServeConfig::default()),
        EventLoopConfig {
            max_conns: 2,
            ..Default::default()
        },
    );
    // Two occupants hold the only slots (sessions stay open: no EOF).
    let mut first = harness.connect();
    let mut second = harness.connect();
    for (id, occupant) in [(1u64, &mut first), (2, &mut second)] {
        occupant
            .write_all(predict_line(id, id as usize, None).as_bytes())
            .expect("occupant request");
        let mut buf = vec![0u8; 4096];
        let n = occupant.read(&mut buf).expect("occupant response");
        assert!(n > 0);
    }
    // The third connection sits in the backlog: its request gets no
    // answer while the cap is reached.
    let mut third = harness.connect();
    third
        .write_all(predict_line(3, 3, None).as_bytes())
        .expect("queued request");
    third
        .set_read_timeout(Some(Duration::from_millis(300)))
        .expect("timeout");
    let mut buf = vec![0u8; 4096];
    match third.read(&mut buf) {
        Ok(n) => panic!("over-cap connection was served {n} bytes while both slots were held"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected read error: {e}"
        ),
    }
    // Freeing one slot lets the loop accept and serve the queued session.
    first.shutdown(Shutdown::Both).expect("free a slot");
    third
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let n = third.read(&mut buf).expect("deferred response");
    let line = std::str::from_utf8(&buf[..n]).expect("utf-8");
    let response: Response =
        serde_json::from_str(line.lines().next().expect("line")).expect("parseable response");
    assert_eq!(response.id, Some(3));
    assert!(response.ok);
    drop(second);
}

#[test]
fn metrics_op_reports_engine_counters_over_tcp() {
    let harness = LoopHarness::start(
        ServeEngine::new(
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
        ),
        EventLoopConfig::default(),
    );
    let mut stream = harness.connect();
    // One full round trip first: the repeats below are then guaranteed
    // cache hits rather than in-flight duplicates.
    stream
        .write_all(predict_line(0, 2, None).as_bytes())
        .expect("warm-up request");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut first = String::new();
    std::io::BufRead::read_line(&mut reader, &mut first).expect("warm-up response");
    let mut requests = String::new();
    for id in 1..6u64 {
        requests.push_str(&predict_line(id, 2, None)); // same key: cache hits
    }
    // A 3-row grid against a 1-row quota: a per-tenant rejection.
    let (features, _) = query(2);
    requests.push_str(&format!(
        "{{\"id\": 6, \"op\": \"predict\", \"tenant\": \"capped\", \
         \"features\": {features}, \"a_values\": [0.5, 1.0, 2.0]}}\n"
    ));
    requests.push_str("{\"id\": 7, \"op\": \"metrics\"}\n");
    stream.write_all(requests.as_bytes()).expect("send batch");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read responses");
    let text = format!("{first}{rest}");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 8, "unexpected session: {text}");
    let rejected: Response = serde_json::from_str(lines[6]).expect("rejection");
    assert!(!rejected.ok, "quota should reject the capped tenant");
    let metrics: MetricsResponse = serde_json::from_str(lines[7]).expect("metrics schema");
    assert!(metrics.ok);
    assert_eq!(metrics.id, Some(7));
    let m = &metrics.metrics;
    assert!(m.uptime_secs > 0.0);
    assert!(m.qps > 0.0);
    assert!(m.latency_p50_us.expect("p50 after traffic") > 0.0);
    assert!(m.latency_p99_us.expect("p99 after traffic") > 0.0);
    assert!(m.batch_occupancy >= 1.0);
    assert!(
        m.cache_hit_rate > 0.0 && m.cache_hit_rate < 1.0,
        "six identical predicts must mix hits and misses: {}",
        m.cache_hit_rate
    );
    assert_eq!(m.generation, harness.engine.generation());
    assert_eq!(m.rejected, 1);
    let capped = m
        .tenants
        .iter()
        .find(|t| t.tenant == "capped")
        .expect("capped tenant row");
    assert_eq!(capped.rejected, 1);
    assert_eq!(capped.weight, 2);
    assert_eq!(capped.quota_rows, 1);
    let default = m
        .tenants
        .iter()
        .find(|t| t.tenant == "default")
        .expect("default tenant row");
    assert_eq!(default.requests, 6);
}

#[test]
fn a_lone_predict_costs_one_socket_read_and_one_write() {
    const N: u64 = 50;
    let harness = LoopHarness::start(
        ServeEngine::new(test_model(), ServeConfig::default()),
        EventLoopConfig::default(),
    );
    let mut stream = harness.connect();
    let mut frame = Vec::new();
    for id in 0..N {
        // Closed loop: each predict is alone on the wire until answered.
        let (_, a) = query(id as usize);
        let features: Vec<f64> = (0..FEAT_DIM)
            .map(|c| (id as usize + c) as f64 / 9.0)
            .collect();
        frame.clear();
        bin::encode_predict(&mut frame, Some(id), "", &[a], &features);
        stream.write_all(&frame).expect("send predict");
        let mut response = vec![0u8; bin::HEADER_LEN];
        stream.read_exact(&mut response).expect("response header");
        let len = u32::from_le_bytes(response[6..10].try_into().expect("4 bytes")) as usize;
        response.resize(bin::HEADER_LEN + len + bin::CRC_LEN, 0);
        stream
            .read_exact(&mut response[bin::HEADER_LEN..])
            .expect("response payload");
        let answer = &bin::decode_response_stream(&response).expect("one clean frame")[0];
        assert!(answer.ok && answer.id == Some(id), "{answer:?}");
    }
    // Each request is one short read; the one spare read is the probe
    // made when the connection is accepted. A read loop that confirms
    // every short read with an EAGAIN `read` makes 2N.
    let reads = counter(&harness.engine, "qross_net_socket_reads_total");
    assert!(
        (N..=N + 1).contains(&reads),
        "{reads} reads for {N} predicts"
    );
    let writes = counter(&harness.engine, "qross_net_socket_writes_total");
    assert_eq!(writes, N, "{writes} writes for {N} predicts");
}
