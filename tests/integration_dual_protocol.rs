//! Dual-protocol serving contract: the committed serve-smoke request
//! mix, replayed over QBIN and over NDJSON against identically
//! configured engines, must decode to **f64-bit-identical** responses —
//! across worker counts (4 vs 1) and with the prediction cache on and
//! off. Also exercises both protocols side by side on one event-loop
//! TCP port (the sniffing contract) and QBIN's hostile-input behavior
//! through the full blocking driver.

use std::io::{Cursor, Read, Write};
use std::net::Shutdown;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bench::net::{serve_event_loop, EventLoopConfig};
use bench::protocol::{bin, serve_connection, Request, Response};
use problems::InstanceData;
use qross_repro::mathkit::stats::ZScore;
use qross_repro::neural::network::MlpBuilder;
use qross_repro::qross::dataset::Scalers;
use qross_repro::qross::pipeline::{PipelineConfig, TrainedQross};
use qross_repro::qross::serve::{ServeConfig, ServeEngine, ServeModel};
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

/// The engine configurations the CI smoke step contrasts: batched and
/// cached vs fully sequential with the cache off.
fn contrast_configs() -> [ServeConfig; 2] {
    [
        ServeConfig {
            workers: 4,
            max_batch_rows: 32,
            ..Default::default()
        },
        ServeConfig {
            workers: 1,
            max_batch_rows: 1,
            cache_capacity: 0,
            ..Default::default()
        },
    ]
}

/// The QBIN-expressible slice of the committed serve-smoke mix: every
/// `predict` (including the width/finiteness rejects), plus `info`,
/// kept in fixture order. `tsp` uploads are NDJSON-only by design.
fn expressible_requests() -> Vec<Request> {
    let fixture = std::fs::read_to_string("tests/fixtures/serve_smoke_requests.ndjson")
        .expect("committed fixture");
    // Non-finite values (the fixture's `1e999` hostile predict) are
    // excluded: they are not round-trippable through JSON
    // re-serialization, so the two renditions would no longer encode
    // the same request.
    let finite = |xs: &Option<Vec<f64>>| xs.iter().flatten().all(|x| x.is_finite());
    let mut requests: Vec<Request> = fixture
        .lines()
        .filter_map(|line| serde_json::from_str::<Request>(line).ok())
        .filter(|r| {
            (matches!(r.op.as_deref(), Some("predict"))
                && r.features.is_some()
                && finite(&r.features)
                && finite(&r.a_values)
                && r.a.is_none_or(f64::is_finite))
                || matches!(r.op.as_deref(), Some("info") | Some("model-info"))
        })
        .collect();
    assert!(
        requests.iter().filter(|r| r.features.is_some()).count() >= 8,
        "the fixture lost its predict mix"
    );
    requests.push(Request {
        id: Some(90),
        op: Some("info".to_string()),
        ..Default::default()
    });
    requests
}

/// Renders the mix as NDJSON request bytes.
fn ndjson_stream(requests: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    for request in requests {
        let line = serde_json::to_string(request).expect("serializable request");
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    out
}

/// Renders the same mix as QBIN frames.
fn qbin_stream(requests: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    for request in requests {
        match request.op.as_deref() {
            Some("predict") => {
                let a_values = match (&request.a_values, request.a) {
                    (Some(grid), _) => grid.clone(),
                    (None, Some(a)) => vec![a],
                    (None, None) => Vec::new(),
                };
                bin::encode_predict(
                    &mut out,
                    request.id,
                    request.tenant.as_deref().unwrap_or(""),
                    &a_values,
                    request.features.as_deref().unwrap_or(&[]),
                );
            }
            Some("info") | Some("model-info") => bin::encode_info(&mut out, request.id),
            other => panic!("not QBIN-expressible: {other:?}"),
        }
    }
    out
}

/// Everything a response asserts bit-for-bit: ids, verdicts, error
/// strings, and every f64 as its exact bit pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ResponseBits {
    id: Option<u64>,
    ok: bool,
    error: Option<String>,
    predictions: Option<Vec<(u64, u64, u64, u64)>>,
    info_generation: Option<u64>,
}

impl ResponseBits {
    fn of(response: &Response) -> ResponseBits {
        ResponseBits {
            id: response.id,
            ok: response.ok,
            error: response.error.clone(),
            predictions: response.predictions.as_ref().map(|rows| {
                rows.iter()
                    .map(|row| {
                        assert_eq!(row.pf.to_bits(), row.pf_bits, "decimal/bits mirror drift");
                        assert_eq!(row.e_avg.to_bits(), row.e_avg_bits);
                        assert_eq!(row.e_std.to_bits(), row.e_std_bits);
                        (row.a.to_bits(), row.pf_bits, row.e_avg_bits, row.e_std_bits)
                    })
                    .collect()
            }),
            info_generation: response.info.as_ref().map(|info| info.generation),
        }
    }
}

/// Replays the NDJSON rendition through the blocking driver and parses
/// every response line.
fn replay_ndjson(engine: &ServeEngine, requests: &[u8]) -> Vec<ResponseBits> {
    let mut out = Vec::new();
    serve_connection(engine, Cursor::new(requests.to_vec()), &mut out).expect("ndjson session");
    String::from_utf8(out)
        .expect("utf-8 responses")
        .lines()
        .map(|line| ResponseBits::of(&serde_json::from_str(line).expect("response line")))
        .collect()
}

/// Replays the QBIN rendition through the same blocking driver and
/// decodes every response frame.
fn replay_qbin(engine: &ServeEngine, requests: &[u8]) -> Vec<ResponseBits> {
    let mut out = Vec::new();
    serve_connection(engine, Cursor::new(requests.to_vec()), &mut out).expect("qbin session");
    bin::decode_response_stream(&out)
        .expect("clean response frames")
        .iter()
        .map(ResponseBits::of)
        .collect()
}

/// The tentpole's correctness contract, end to end: same requests, same
/// engine configuration → the QBIN and NDJSON responses carry identical
/// f64 bit patterns, at 4 workers with the cache on AND at 1 worker with
/// it off — and the two configurations agree with each other.
#[test]
fn qbin_and_ndjson_responses_are_bit_identical() {
    let requests = expressible_requests();
    let ndjson = ndjson_stream(&requests);
    let qbin = qbin_stream(&requests);
    let mut per_config = Vec::new();
    for config in contrast_configs() {
        let engine = ServeEngine::new(test_model(), config.clone());
        let from_ndjson = replay_ndjson(&engine, &ndjson);
        // Fresh engine for the binary replay so cache warm-up cannot
        // mask a divergence (both formats start cold).
        let engine = ServeEngine::new(test_model(), config);
        let from_qbin = replay_qbin(&engine, &qbin);
        assert_eq!(from_ndjson.len(), requests.len());
        assert_eq!(
            from_ndjson, from_qbin,
            "QBIN and NDJSON disagree under the same engine config"
        );
        per_config.push(from_ndjson);
    }
    assert_eq!(
        per_config[0], per_config[1],
        "worker count / cache setting changed response bits"
    );
}

/// Both protocols on one event-loop port at once: an NDJSON client and a
/// QBIN client replay the same predict mix concurrently; each gets
/// responses bit-identical to its own sequential stdio replay.
#[test]
fn mixed_protocol_clients_share_one_event_loop_port() {
    let requests = expressible_requests();
    let ndjson = ndjson_stream(&requests);
    let qbin = qbin_stream(&requests);

    let oracle_engine = ServeEngine::new(
        test_model(),
        ServeConfig {
            workers: 1,
            max_batch_rows: 1,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let expected_ndjson = replay_ndjson(&oracle_engine, &ndjson);
    let expected_qbin = replay_qbin(&oracle_engine, &qbin);
    assert_eq!(expected_ndjson, expected_qbin);

    let engine = Arc::new(ServeEngine::new(
        test_model(),
        ServeConfig {
            workers: 2,
            max_batch_rows: 16,
            ..Default::default()
        },
    ));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let loop_thread = {
        let engine = Arc::clone(&engine);
        let config = EventLoopConfig {
            shutdown: Some(Arc::clone(&shutdown)),
            ..Default::default()
        };
        std::thread::spawn(move || serve_event_loop(&engine, listener, config))
    };

    let fetch = |payload: &[u8]| -> Vec<u8> {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.write_all(payload).expect("send requests");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read responses");
        response
    };
    std::thread::scope(|scope| {
        let ndjson_client = scope.spawn(|| fetch(&ndjson));
        let qbin_client = scope.spawn(|| fetch(&qbin));
        let got_ndjson: Vec<ResponseBits> =
            String::from_utf8(ndjson_client.join().expect("client"))
                .expect("utf-8 responses")
                .lines()
                .map(|line| ResponseBits::of(&serde_json::from_str(line).expect("response line")))
                .collect();
        let got_qbin: Vec<ResponseBits> =
            bin::decode_response_stream(&qbin_client.join().expect("client"))
                .expect("clean response frames")
                .iter()
                .map(ResponseBits::of)
                .collect();
        assert_eq!(got_ndjson, expected_ndjson, "NDJSON client diverged");
        assert_eq!(got_qbin, expected_qbin, "QBIN client diverged");
    });

    shutdown.store(true, Ordering::SeqCst);
    loop_thread
        .join()
        .expect("loop thread")
        .expect("clean exit");
}

/// A corrupt frame mid-stream gets a typed `ok: false` response and the
/// session keeps serving — through the real blocking driver, exactly
/// like the NDJSON malformed-line contract.
#[test]
fn corrupt_qbin_frame_is_answered_and_survived() {
    let engine = ServeEngine::new(test_model(), ServeConfig::default());
    let mut stream = Vec::new();
    bin::encode_info(&mut stream, Some(1));
    let mut corrupt = Vec::new();
    bin::encode_info(&mut corrupt, Some(2));
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x40; // break the CRC
    stream.extend_from_slice(&corrupt);
    bin::encode_info(&mut stream, Some(3));

    let responses = replay_qbin(&engine, &stream);
    assert_eq!(responses.len(), 3, "one response per frame: {responses:?}");
    assert_eq!(responses[0].id, Some(1));
    assert!(responses[0].ok);
    assert!(!responses[1].ok, "the corrupt frame must be rejected");
    let error = responses[1].error.as_deref().unwrap_or_default();
    assert!(
        error.contains("checksum"),
        "expected a checksum reject, got {error:?}"
    );
    assert_eq!(
        (responses[2].id, responses[2].ok),
        (Some(3), true),
        "the session must survive a recoverable frame error"
    );
}

/// A stream opening with the wrong magic-adjacent bytes (a version this
/// endpoint does not speak) is answered with one typed error and the
/// connection closes — framing is unrecoverable, so no guessing.
#[test]
fn unsupported_qbin_version_is_answered_then_closed() {
    let engine = ServeEngine::new(test_model(), ServeConfig::default());
    let mut stream = Vec::new();
    bin::encode_info(&mut stream, Some(1));
    stream[4] = 99; // future protocol version
    let mut good = Vec::new();
    bin::encode_info(&mut good, Some(2));
    stream.extend_from_slice(&good); // never reached: framing is lost

    let mut out = Vec::new();
    serve_connection(&engine, Cursor::new(stream), &mut out).expect("session completes");
    let responses = bin::decode_response_stream(&out).expect("clean response frames");
    assert_eq!(responses.len(), 1, "exactly one reject: {responses:?}");
    assert!(!responses[0].ok);
    let error = responses[0].error.as_deref().unwrap_or_default();
    assert!(
        error.contains("version"),
        "expected a version reject, got {error:?}"
    );
}

/// Every QBIN payload-level rejection, replayed as one frame stream
/// through `serve_connection`: each frame gets exactly one answer, in
/// order, carrying the exact error text, and the session keeps serving
/// (a later `info` frame is still answered).
#[test]
fn qbin_rejections_are_answered_in_order_and_survived() {
    let engine = ServeEngine::new(test_model(), ServeConfig::default());
    let features = vec![0.5; FEAT_DIM];
    let bad_edge = InstanceData {
        name: "bad-edge".to_string(),
        dims: vec![4],
        edges: vec![(0, 200, 1.0)],
        ..Default::default()
    };
    let mut stream = Vec::new();
    bin::encode_predict(&mut stream, Some(1), "", &[], &features);
    bin::encode_predict(&mut stream, Some(2), "", &[1.0], &[1.0]);
    // A CRC-valid frame whose predict payload stops after one byte.
    bin::write_frame(&mut stream, bin::OP_PREDICT, |p| p.push(1));
    bin::write_frame(&mut stream, 0x09, |p| p.push(0));
    bin::encode_instance(&mut stream, Some(5), "", "nosuch", &bad_edge, &[1.0]);
    bin::encode_instance(&mut stream, Some(6), "", "maxcut", &bad_edge, &[1.0]);
    bin::encode_feedback(&mut stream, Some(7), 1.0, 0.5, 3.0, 0.5, 3, "t", &features);
    bin::encode_refresh(&mut stream, Some(8));
    bin::encode_info(&mut stream, Some(9));

    let offline = "bad request: engine is not running in online mode (start it with --online / \
                   ServeEngine::with_online)";
    let expected: [(Option<u64>, &str); 8] = [
        (Some(1), "predict needs `a` or `a_values`"),
        (Some(2), "bad request: expected 24 features, got 1"),
        (
            None,
            "bad request: bad QBIN request: qbin: truncated frame (8 bytes needed, 0 available)",
        ),
        (
            None,
            "bad request: bad QBIN request: qbin: unknown op 0x09 (expected predict 0x01 | info \
             0x02 | feedback 0x03 | refresh 0x04 | instance 0x05 | metrics 0x06)",
        ),
        (
            Some(5),
            "bad request: unknown problem family `nosuch` (known: tsp | mvc | qap | maxcut | \
             knapsack)",
        ),
        (
            Some(6),
            "bad request: invalid instance: edge (0,200) out of range for 4 vertices",
        ),
        (Some(7), offline),
        (Some(8), offline),
    ];
    let responses = replay_qbin(&engine, &stream);
    assert_eq!(responses.len(), expected.len() + 1, "one answer per frame");
    for (response, (id, error)) in responses.iter().zip(expected) {
        assert_eq!(response.id, id);
        assert!(!response.ok, "frame {id:?} must be rejected");
        assert_eq!(response.error.as_deref(), Some(error), "frame {id:?}");
    }
    let info = &responses[expected.len()];
    assert_eq!((info.id, info.ok), (Some(9), true));
    assert_eq!(info.info_generation, Some(0));
}
