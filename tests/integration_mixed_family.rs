//! Mixed-family serving stress: one committed request mix covering every
//! registered problem family (`tsp`, `mvc`, `qap`, `maxcut`, `knapsack`)
//! at roughly **10× the micro-corpus instance sizes**, replayed over
//! NDJSON and over QBIN against identically configured engines, at
//! 4 workers with the cache on AND at 1 worker with it off. Every
//! decoded `f64` must carry identical bit patterns across all four
//! replays — the registry's featurization is part of the bit-identity
//! contract, not just the surrogate forward pass.
//!
//! The fixture also carries the error-path parity cases: an unknown
//! family (typed bad-request naming every registered family) and a
//! payload the family codec rejects, both expressed identically on both
//! wires.
//!
//! Regenerate the fixture after an intentional request-schema change:
//!
//! ```text
//! QROSS_WRITE_MIXED_FIXTURE=1 cargo test --test integration_mixed_family
//! ```

use std::io::Cursor;
use std::sync::Arc;

use bench::protocol::{bin, serve_connection, Request, Response};
use problems::{lookup_family, InstanceData};
use qross_repro::mathkit::stats::ZScore;
use qross_repro::neural::network::MlpBuilder;
use qross_repro::qross::dataset::Scalers;
use qross_repro::qross::serve::{ServeConfig, ServeEngine, ServeModel};
use qross_repro::qross::surrogate::{Surrogate, SurrogateState};

/// Feature width shared by every registered family.
const FEAT_DIM: usize = 24;

/// The committed request mix this suite replays and CI diffs.
const FIXTURE_PATH: &str = "tests/fixtures/mixed_family_requests.ndjson";

/// Seed-derived bare surrogate over the family-owned 24-feature recipe.
/// A bare surrogate (no TSP bundle) is deliberate: the `instance` op
/// featurises through the registry, so it must serve *every* family
/// even where the bundle-only `tsp` text upload cannot.
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
    ServeModel::Surrogate(Arc::new(
        Surrogate::from_state(state).expect("consistent state"),
    ))
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

/// Tiny deterministic generator (splitmix-style) so the fixture content
/// is reproducible from this file alone, with no RNG crate in the loop.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// 100-city coordinate TSP (micro corpus trains on 9–10 cities).
/// Quarter-unit coordinates keep the committed JSON compact and every
/// value exactly representable.
fn tsp_instance() -> InstanceData {
    let n = 100;
    let mut s = 0x51ED_1E57u64;
    let (mut xs, mut ys) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        xs.push((next(&mut s) % 4000) as f64 * 0.25);
        ys.push((next(&mut s) % 4000) as f64 * 0.25);
    }
    InstanceData {
        name: "mix-tsp100".to_string(),
        dims: vec![n as u64],
        vecs: vec![xs, ys],
        ..Default::default()
    }
}

/// 120-vertex weighted MVC at ~40% density (micro corpus: n = 12).
fn mvc_instance() -> InstanceData {
    let n: u32 = 120;
    let mut s = 0x3BAD_C0DEu64;
    let weights: Vec<f64> = (0..n)
        .map(|_| (next(&mut s) % 32 + 4) as f64 * 0.25)
        .collect();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if next(&mut s) % 5 < 2 {
                edges.push((u, v, 1.0));
            }
        }
    }
    InstanceData {
        name: "mix-mvc120".to_string(),
        dims: vec![n as u64],
        vecs: vec![weights],
        edges,
        ..Default::default()
    }
}

/// 16-facility QAP — 10× the micro corpus's 25-variable QUBO (n = 5).
/// Integer flows/distances, symmetric with zero diagonal, matching the
/// family generator's QAPLIB-style magnitudes.
fn qap_instance() -> InstanceData {
    let n = 16usize;
    let mut s = 0x9A9_F00Du64;
    let (mut flow, mut dist) = (vec![0.0; n * n], vec![0.0; n * n]);
    for i in 0..n {
        for j in (i + 1)..n {
            let f = (next(&mut s) % 10) as f64;
            let d = (next(&mut s) % 9 + 1) as f64;
            flow[i * n + j] = f;
            flow[j * n + i] = f;
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }
    InstanceData {
        name: "mix-qap16".to_string(),
        dims: vec![n as u64],
        vecs: vec![flow, dist],
        ..Default::default()
    }
}

/// 120-vertex weighted Max-Cut at ~40% density (micro corpus: n = 12).
fn maxcut_instance() -> InstanceData {
    let n: u32 = 120;
    let mut s = 0x6CA7_CAFEu64;
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if next(&mut s) % 5 < 2 {
                edges.push((u, v, (next(&mut s) % 12 + 2) as f64 * 0.25));
            }
        }
    }
    InstanceData {
        name: "mix-maxcut120".to_string(),
        dims: vec![n as u64],
        edges,
        ..Default::default()
    }
}

/// 120-item knapsack (micro corpus: n = 12). Integer weights and
/// capacity — the family's integrality requirement for exact slack bits.
fn knapsack_instance() -> InstanceData {
    let n = 120usize;
    let mut s = 0x4BA6_BEEFu64;
    let values: Vec<f64> = (0..n).map(|_| (next(&mut s) % 80) as f64 * 0.25).collect();
    let weights: Vec<f64> = (0..n).map(|_| (next(&mut s) % 9 + 1) as f64).collect();
    let capacity = (weights.iter().sum::<f64>() / 2.0).floor();
    InstanceData {
        name: "mix-knap120".to_string(),
        dims: vec![n as u64],
        scalars: vec![capacity],
        vecs: vec![values, weights],
        ..Default::default()
    }
}

/// A payload the Max-Cut codec must reject: endpoint out of range.
fn malformed_maxcut_instance() -> InstanceData {
    InstanceData {
        name: "mix-bad-edge".to_string(),
        dims: vec![4],
        edges: vec![(0, 200, 1.0)],
        ..Default::default()
    }
}

fn instance_request(
    id: u64,
    op: &str,
    family: &str,
    data: InstanceData,
    a: Option<f64>,
    a_values: Option<Vec<f64>>,
) -> Request {
    Request {
        id: Some(id),
        op: Some(op.to_string()),
        family: Some(family.to_string()),
        instance: Some(data),
        a,
        a_values,
        ..Default::default()
    }
}

/// The canonical mix: all five families (one through the `solve` alias),
/// an unknown family, a codec reject, and a trailing `info`.
fn mixed_requests() -> Vec<Request> {
    vec![
        instance_request(
            1,
            "instance",
            "tsp",
            tsp_instance(),
            None,
            Some(vec![0.5, 2.0]),
        ),
        instance_request(
            2,
            "instance",
            "mvc",
            mvc_instance(),
            None,
            Some(vec![1.0, 4.0]),
        ),
        instance_request(3, "instance", "qap", qap_instance(), Some(1.5), None),
        instance_request(
            4,
            "solve",
            "maxcut",
            maxcut_instance(),
            None,
            Some(vec![0.25, 1.0, 8.0]),
        ),
        instance_request(
            5,
            "instance",
            "knapsack",
            knapsack_instance(),
            None,
            Some(vec![0.5, 1.0]),
        ),
        instance_request(
            6,
            "instance",
            "sat",
            InstanceData {
                name: "mix-unknown".to_string(),
                dims: vec![2],
                edges: vec![(0, 1, 1.0)],
                ..Default::default()
            },
            None,
            Some(vec![1.0]),
        ),
        instance_request(
            7,
            "instance",
            "maxcut",
            malformed_maxcut_instance(),
            None,
            Some(vec![1.0]),
        ),
        Request {
            id: Some(8),
            op: Some("info".to_string()),
            ..Default::default()
        },
    ]
}

/// Renders the mix as the committed NDJSON fixture bytes.
fn ndjson_stream(requests: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    for request in requests {
        let line = serde_json::to_string(request).expect("serializable request");
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    out
}

/// Renders the same mix as QBIN frames. `instance` and its `solve`
/// alias both travel as the one `0x05` op — alias equality on the text
/// wire is part of what the cross-wire diff proves.
fn qbin_stream(requests: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    for request in requests {
        match request.op.as_deref() {
            Some("instance") | Some("solve") => {
                let a_values = match (&request.a_values, request.a) {
                    (Some(grid), _) => grid.clone(),
                    (None, Some(a)) => vec![a],
                    (None, None) => Vec::new(),
                };
                bin::encode_instance(
                    &mut out,
                    request.id,
                    request.tenant.as_deref().unwrap_or(""),
                    request.family.as_deref().expect("fixture carries a family"),
                    request
                        .instance
                        .as_ref()
                        .expect("fixture carries instance data"),
                    &a_values,
                );
            }
            Some("info") => bin::encode_info(&mut out, request.id),
            other => panic!("not QBIN-expressible: {other:?}"),
        }
    }
    out
}

/// Everything both wires can express, bit-for-bit. The NDJSON-only
/// instance-name echo is asserted separately.
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

/// Replays NDJSON bytes through the blocking driver; returns full
/// responses so family-specific fields can be asserted too.
fn replay_ndjson(engine: &ServeEngine, requests: &[u8]) -> Vec<Response> {
    let mut out = Vec::new();
    serve_connection(engine, Cursor::new(requests.to_vec()), &mut out).expect("ndjson session");
    String::from_utf8(out)
        .expect("utf-8 responses")
        .lines()
        .map(|line| serde_json::from_str(line).expect("response line"))
        .collect()
}

/// Replays QBIN bytes through the same blocking driver.
fn replay_qbin(engine: &ServeEngine, requests: &[u8]) -> Vec<Response> {
    let mut out = Vec::new();
    serve_connection(engine, Cursor::new(requests.to_vec()), &mut out).expect("qbin session");
    bin::decode_response_stream(&out).expect("clean response frames")
}

/// Loads the committed fixture, regenerating it first when
/// `QROSS_WRITE_MIXED_FIXTURE` is set, and pins it to the canonical
/// in-memory mix so the committed bytes cannot rot silently.
fn fixture_bytes() -> Vec<u8> {
    let canonical = ndjson_stream(&mixed_requests());
    if std::env::var("QROSS_WRITE_MIXED_FIXTURE").is_ok() {
        std::fs::write(FIXTURE_PATH, &canonical).expect("write fixture");
    }
    let committed = std::fs::read(FIXTURE_PATH).unwrap_or_else(|e| {
        panic!("missing {FIXTURE_PATH} ({e}); regenerate with QROSS_WRITE_MIXED_FIXTURE=1")
    });
    assert_eq!(
        committed, canonical,
        "{FIXTURE_PATH} drifted from the canonical mix; \
         regenerate with QROSS_WRITE_MIXED_FIXTURE=1 if the change is intentional"
    );
    committed
}

/// Every instance payload in the fixture must decode through its
/// family's codec (except the two deliberate error lines), and the
/// sizes must hold the 10×-micro stress contract.
#[test]
fn fixture_payloads_decode_at_10x_micro_sizes() {
    for (family, data, min_n) in [
        ("tsp", tsp_instance(), 100),
        ("mvc", mvc_instance(), 120),
        ("qap", qap_instance(), 16),
        ("maxcut", maxcut_instance(), 120),
        ("knapsack", knapsack_instance(), 120),
    ] {
        assert!(
            data.dims[0] >= min_n,
            "{family} fixture shrank below 10× micro"
        );
        let codec = lookup_family(family).expect("registered");
        let problem = codec.decode(&data).expect("fixture payload must decode");
        let features = problem.features();
        assert_eq!(features.len(), FEAT_DIM, "{family} feature width");
        assert!(features.iter().all(|f| f.is_finite()), "{family} features");
    }
    assert!(lookup_family("sat").is_err());
    assert!(lookup_family("maxcut")
        .expect("registered")
        .decode(&malformed_maxcut_instance())
        .is_err());
}

/// The tentpole's serving contract: same mixed-family requests, same
/// engine configuration → QBIN and NDJSON responses carry identical f64
/// bit patterns, at 4 workers with the cache on AND at 1 worker with it
/// off — and the two configurations agree with each other.
#[test]
fn mixed_family_replay_is_bit_identical_across_wires_and_workers() {
    let ndjson = fixture_bytes();
    let requests: Vec<Request> = String::from_utf8(ndjson.clone())
        .expect("utf-8 fixture")
        .lines()
        .map(|line| serde_json::from_str(line).expect("fixture request line"))
        .collect();
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
        let ndjson_bits: Vec<ResponseBits> = from_ndjson.iter().map(ResponseBits::of).collect();
        let qbin_bits: Vec<ResponseBits> = from_qbin.iter().map(ResponseBits::of).collect();
        assert_eq!(
            ndjson_bits, qbin_bits,
            "QBIN and NDJSON disagree under the same engine config"
        );
        per_config.push((from_ndjson, ndjson_bits));
    }
    assert_eq!(
        per_config[0].1, per_config[1].1,
        "worker count / cache setting changed response bits"
    );

    // Family-level shape of the NDJSON replay (either config; they are
    // bit-equal by now).
    let responses = &per_config[0].0;
    let served = [
        (0, "mix-tsp100", 2),
        (1, "mix-mvc120", 2),
        (2, "mix-qap16", 1),
        (3, "mix-maxcut120", 3),
        (4, "mix-knap120", 2),
    ];
    for (idx, name, grid_len) in served {
        let r = &responses[idx];
        assert!(r.ok, "line {idx} failed: {:?}", r.error);
        assert_eq!(r.instance.as_deref(), Some(name));
        assert_eq!(r.predictions.as_ref().expect("grid").len(), grid_len);
    }

    let unknown = &responses[5];
    assert!(!unknown.ok);
    let error = unknown.error.as_deref().expect("typed error");
    assert!(
        error.contains("unknown problem family `sat`"),
        "unexpected error: {error}"
    );
    for family in ["tsp", "mvc", "qap", "maxcut", "knapsack"] {
        assert!(
            error.contains(family),
            "error must name `{family}`: {error}"
        );
    }

    let rejected = &responses[6];
    assert!(!rejected.ok);
    assert!(
        rejected
            .error
            .as_deref()
            .expect("codec error")
            .contains("out of range"),
        "unexpected codec error: {:?}",
        rejected.error
    );

    let info = responses[7].info.as_ref().expect("info payload");
    assert_eq!(info.kind, "surrogate");
    assert_eq!(info.feature_dim, FEAT_DIM);
}
