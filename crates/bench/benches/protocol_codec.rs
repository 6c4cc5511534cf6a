//! Criterion bench for the serving wire layer: the same predict-heavy
//! request mix pushed through the NDJSON codec and through QBIN, in
//! both directions — request decode (the server's hot path), response
//! encode, and a full engine round-trip through the blocking driver.
//!
//! The setup is a correctness gate before any timing: the QBIN and
//! NDJSON renditions of the mix are replayed against identically
//! configured engines and every response must carry **identical f64 bit
//! patterns** — if the binary path changes so much as one mantissa bit,
//! the bench fails rather than timing a wrong answer.
//!
//! The `crc32` group pairs the slicing-by-8 CRC every QBIN frame carries
//! with its bitwise oracle in one binary, over the bytes a one-row
//! predict request and response frame sum and over a bundle-sized
//! section. Read it as the per-row ratio within one run: absolute times
//! of this harness move between runs.

use std::io::Cursor;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bench::protocol::{bin, serve_connection, Request, Response};
use neural::network::MlpBuilder;
use qross::dataset::Scalers;
use qross::pipeline::{PipelineConfig, TrainedQross};
use qross::serve::{ServeConfig, ServeEngine, ServeModel};
use qross::surrogate::{Surrogate, SurrogateState, TrainReport};
use qross::StatisticalFeaturizer;
use qross_store::codec::{crc32, crc32_bitwise};

/// Feature width of [`StatisticalFeaturizer`].
const FEAT_DIM: usize = 24;

/// Requests in the benched mix.
const MIX: usize = 64;

/// Seed-derived serve-ready bundle (identical shape to the serving
/// integration suites: real code paths, no training time).
fn test_model() -> ServeModel {
    let zscore = |m: f64, s: f64| mathkit::stats::ZScore { mean: m, std: s };
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

/// A predict-heavy mix: single-`a` requests interleaved with small
/// grids, deterministic features, one tenant tag in three.
fn request_mix() -> Vec<Request> {
    (0..MIX)
        .map(|k| {
            let features: Vec<f64> = (0..FEAT_DIM)
                .map(|c| ((k * 13 + c * 7) % 29) as f64 / 7.0 - 2.0)
                .collect();
            let tenant = (k % 3 == 0).then(|| format!("team-{}", k % 2));
            let (a, a_values) = if k % 4 == 0 {
                (None, Some(vec![0.25, 1.0, 4.0]))
            } else {
                (Some(0.1 + (k % 11) as f64 * 0.45), None)
            };
            Request {
                id: Some(k as u64),
                op: Some("predict".to_string()),
                features: Some(features),
                a,
                a_values,
                tenant,
                ..Default::default()
            }
        })
        .collect()
}

fn ndjson_request_lines(requests: &[Request]) -> Vec<String> {
    requests
        .iter()
        .map(|r| serde_json::to_string(r).expect("serializable request"))
        .collect()
}

fn qbin_request_stream(requests: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in requests {
        let a_values = match (&r.a_values, r.a) {
            (Some(grid), _) => grid.clone(),
            (None, Some(a)) => vec![a],
            (None, None) => Vec::new(),
        };
        bin::encode_predict(
            &mut out,
            r.id,
            r.tenant.as_deref().unwrap_or(""),
            &a_values,
            r.features.as_deref().unwrap_or(&[]),
        );
    }
    out
}

/// Sequential replay through the blocking driver (1 worker, no cache —
/// deterministic, so response bytes are comparable across formats).
fn replay(input: &[u8]) -> Vec<u8> {
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
    serve_connection(&engine, Cursor::new(input.to_vec()), &mut out).expect("replay session");
    out
}

/// Bit-level summary of one response's payload.
type ResponseBits = (Option<u64>, bool, Vec<(u64, u64, u64, u64)>);

fn bits_of(response: &Response) -> ResponseBits {
    (
        response.id,
        response.ok,
        response
            .predictions
            .iter()
            .flatten()
            .map(|p| (p.a.to_bits(), p.pf_bits, p.e_avg_bits, p.e_std_bits))
            .collect(),
    )
}

fn bench_protocol_codec(c: &mut Criterion) {
    let requests = request_mix();
    let json_lines = ndjson_request_lines(&requests);
    let ndjson_stream: Vec<u8> = json_lines
        .iter()
        .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
        .collect();
    let qbin_stream = qbin_request_stream(&requests);

    // --- correctness gate: identical f64 bits over both wires --------
    let ndjson_replay = replay(&ndjson_stream);
    let qbin_replay = replay(&qbin_stream);
    let from_ndjson: Vec<_> = String::from_utf8(ndjson_replay.clone())
        .expect("utf-8 responses")
        .lines()
        .map(|l| bits_of(&serde_json::from_str(l).expect("response line")))
        .collect();
    let from_qbin: Vec<_> = bin::decode_response_stream(&qbin_replay)
        .expect("clean response frames")
        .iter()
        .map(bits_of)
        .collect();
    assert_eq!(from_ndjson.len(), MIX);
    assert_eq!(
        from_ndjson, from_qbin,
        "QBIN and NDJSON responses disagree bit-for-bit"
    );
    let responses: Vec<Response> = String::from_utf8(ndjson_replay)
        .expect("utf-8 responses")
        .lines()
        .map(|l| serde_json::from_str(l).expect("response line"))
        .collect();
    println!(
        "request mix: {} requests, ndjson {} bytes, qbin {} bytes",
        MIX,
        ndjson_stream.len(),
        qbin_stream.len()
    );

    // --- frame checksum: table vs bitwise oracle, same bytes ----------
    // The summed span of a frame is everything after the magic and
    // before the trailing CRC, as in `bin::write_frame`.
    let frame_span = |frame: &[u8]| frame[4..frame.len() - bin::CRC_LEN].to_vec();
    let mut response_frame = Vec::new();
    bin::encode_response(&mut response_frame, &responses[1]);
    let section: Vec<u8> = (0..76_600u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let inputs = [
        ("response", frame_span(&response_frame)),
        ("request", frame_span(&qbin_request_stream(&requests[1..2]))),
        ("section", section),
    ];
    let mut group = c.benchmark_group("crc32");
    for (what, bytes) in &inputs {
        assert_eq!(
            crc32(bytes),
            crc32_bitwise(bytes),
            "CRC-32 table and oracle disagree"
        );
        let size = bytes.len();
        group.bench_function(&format!("table/{what}_{size}B"), |b| {
            b.iter(|| crc32(black_box(bytes)))
        });
        group.bench_function(&format!("bitwise/{what}_{size}B"), |b| {
            b.iter(|| crc32_bitwise(black_box(bytes)))
        });
    }
    group.finish();

    // --- request decode: the server's per-request hot path -----------
    let mut group = c.benchmark_group("protocol_codec_decode_requests");
    group.bench_function("ndjson", |b| {
        b.iter(|| {
            let mut rows = 0usize;
            for line in &json_lines {
                let request: Request = serde_json::from_str(line).expect("request line");
                rows += request.features.as_deref().map_or(0, <[f64]>::len);
            }
            rows
        })
    });
    group.bench_function("qbin", |b| {
        b.iter(|| {
            let mut rows = 0usize;
            let mut codec = bin::FrameCodec::new();
            codec.feed(&qbin_stream);
            while let Some(frame) = codec.next_frame() {
                let frame = frame.expect("clean frame");
                match bin::decode_request(&frame).expect("well-formed request") {
                    bin::BinRequest::Predict { features, .. } => rows += features.len(),
                    _ => unreachable!("predict-only mix"),
                }
            }
            rows
        })
    });
    group.finish();

    // --- response encode: the server's per-response hot path ---------
    let mut group = c.benchmark_group("protocol_codec_encode_responses");
    group.bench_function("ndjson", |b| {
        let mut scratch = String::new();
        let mut out: Vec<u8> = Vec::new();
        b.iter(|| {
            out.clear();
            for response in &responses {
                scratch.clear();
                serde_json::to_string_into(response, &mut scratch).expect("serializable");
                out.extend_from_slice(scratch.as_bytes());
                out.push(b'\n');
            }
            out.len()
        })
    });
    group.bench_function("qbin", |b| {
        let mut out: Vec<u8> = Vec::new();
        b.iter(|| {
            out.clear();
            for response in &responses {
                bin::encode_response(&mut out, response);
            }
            out.len()
        })
    });
    group.finish();

    // --- decode + encode combined: the acceptance comparison ---------
    let mut group = c.benchmark_group("protocol_codec_decode_encode");
    group.bench_function("ndjson", |b| {
        let mut scratch = String::new();
        let mut out: Vec<u8> = Vec::new();
        b.iter(|| {
            out.clear();
            for line in &json_lines {
                let _request: Request = serde_json::from_str(line).expect("request line");
            }
            for response in &responses {
                scratch.clear();
                serde_json::to_string_into(response, &mut scratch).expect("serializable");
                out.extend_from_slice(scratch.as_bytes());
                out.push(b'\n');
            }
            out.len()
        })
    });
    group.bench_function("qbin", |b| {
        let mut out: Vec<u8> = Vec::new();
        b.iter(|| {
            out.clear();
            let mut codec = bin::FrameCodec::new();
            codec.feed(&qbin_stream);
            while let Some(frame) = codec.next_frame() {
                let frame = frame.expect("clean frame");
                bin::decode_request(&frame).expect("well-formed request");
            }
            for response in &responses {
                bin::encode_response(&mut out, response);
            }
            out.len()
        })
    });
    group.finish();

    // --- end-to-end: full engine round-trip over each wire -----------
    let mut group = c.benchmark_group("protocol_codec_roundtrip");
    group.sample_size(10);
    group.bench_function("ndjson", |b| b.iter(|| replay(&ndjson_stream).len()));
    group.bench_function("qbin", |b| b.iter(|| replay(&qbin_stream).len()));
    group.finish();
}

criterion_group!(benches, bench_protocol_codec);
criterion_main!(benches);
