//! Integration tests for the serving subsystem: the [`ServeEngine`]
//! under concurrent load, and the NDJSON protocol end to end (valid
//! traffic, hostile traffic, response ordering).
//!
//! The model is a hand-built bundle (seed-derived surrogate weights, the
//! real 24-feature statistical featurizer, no training) so the suite runs
//! in milliseconds while exercising exactly the code paths `qross-serve`
//! runs in production: engine micro-batching + caching, TSPLIB ingest,
//! featurisation, offline strategy planning.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::{BufRead, Cursor, ErrorKind, Read, Write};
use std::rc::Rc;
use std::sync::Arc;

use bench::protocol::{serve_connection, Response};
use qross_repro::mathkit::stats::ZScore;
use qross_repro::neural::network::MlpBuilder;
use qross_repro::qross::dataset::Scalers;
use qross_repro::qross::pipeline::{PipelineConfig, TrainedQross};
use qross_repro::qross::serve::{ServeConfig, ServeEngine, ServeModel};
use qross_repro::qross::surrogate::{Surrogate, SurrogateState, TrainReport};
use qross_repro::qross::StatisticalFeaturizer;

/// Feature width of [`StatisticalFeaturizer`].
const FEAT_DIM: usize = 24;

/// Seed-derived surrogate over the statistical featurizer's 24 features.
fn test_surrogate() -> Surrogate {
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
    Surrogate::from_state(state).expect("consistent state")
}

/// A serve-ready bundle around [`test_surrogate`] — every public field of
/// [`TrainedQross`], no pipeline run required.
fn test_bundle() -> Arc<TrainedQross> {
    Arc::new(TrainedQross {
        surrogate: test_surrogate(),
        featurizer: Box::new(StatisticalFeaturizer::new()),
        train_encodings: Vec::new(),
        test_encodings: Vec::new(),
        dataset_len: 0,
        report: TrainReport::default(),
        config: PipelineConfig::micro(),
    })
}

fn engine(config: ServeConfig) -> ServeEngine {
    ServeEngine::new(ServeModel::Bundle(test_bundle()), config)
}

/// Deterministic query `k`: 24 features plus a positive `A`.
fn query(k: usize) -> (Vec<f64>, f64) {
    let features: Vec<f64> = (0..FEAT_DIM)
        .map(|c| ((k * 13 + c * 7) % 29) as f64 / 7.0 - 2.0)
        .collect();
    let a = 0.1 + (k % 11) as f64 * 0.45;
    (features, a)
}

#[test]
fn hammered_engine_is_bit_identical_to_direct_predict() {
    let reference = test_surrogate();
    let eng = engine(ServeConfig {
        workers: 4,
        max_batch_rows: 16,
        ..Default::default()
    });
    let (eng, reference) = (&eng, &reference);
    std::thread::scope(|scope| {
        for t in 0..8usize {
            scope.spawn(move || {
                for i in 0..150usize {
                    // Overlapping key space across threads: fresh
                    // computes, cache hits and in-flight duplicates all
                    // occur; every answer must still be exact.
                    let (f, a) = query((t * 37 + i) % 60);
                    let served = eng.predict(&f, a).expect("serve");
                    let direct = reference.predict(&f, a);
                    assert_eq!(served.pf.to_bits(), direct.pf.to_bits());
                    assert_eq!(served.e_avg.to_bits(), direct.e_avg.to_bits());
                    assert_eq!(served.e_std.to_bits(), direct.e_std.to_bits());
                }
            });
        }
    });
    let stats = eng.stats();
    assert_eq!(stats.requests, 8 * 150);
    assert!(stats.cache_hits > 0, "no cache hits: {stats:?}");
    assert!(stats.rejected == 0, "spurious backpressure: {stats:?}");
}

/// Runs a full NDJSON session in memory and parses the response lines.
fn roundtrip(eng: &ServeEngine, requests: &str) -> Vec<Response> {
    let mut out: Vec<u8> = Vec::new();
    serve_connection(eng, Cursor::new(requests.to_string()), &mut out).expect("session");
    let text = String::from_utf8(out).expect("utf-8 responses");
    text.lines()
        .map(|line| serde_json::from_str::<Response>(line).expect("parseable response"))
        .collect()
}

#[test]
fn ndjson_roundtrip_serves_and_rejects() {
    let reference = test_surrogate();
    let eng = engine(ServeConfig::default());
    let (features, a) = query(3);
    let feat_json = serde_json::to_string(&features).expect("json");
    let tsplib = "NAME: up\\nTYPE: TSP\\nDIMENSION: 4\\nEDGE_WEIGHT_TYPE: EXPLICIT\\n\
                  EDGE_WEIGHT_FORMAT: UPPER_ROW\\nEDGE_WEIGHT_SECTION\\n1 2 3\\n4 5\\n6\\nEOF\\n";
    let truncated = "NAME: bad\\nTYPE: TSP\\nDIMENSION: 4\\nEDGE_WEIGHT_TYPE: EXPLICIT\\n\
                     EDGE_WEIGHT_FORMAT: UPPER_ROW\\nEDGE_WEIGHT_SECTION\\n1 2\\nEOF\\n";
    let requests = format!(
        concat!(
            "{{\"id\": 1, \"op\": \"info\"}}\n",
            "{{\"id\": 2, \"op\": \"predict\", \"features\": {feat}, \"a\": {a}}}\n",
            "{{\"id\": 3, \"op\": \"predict\", \"features\": {feat}, \"a_values\": [0.5, 1.0, 2.0]}}\n",
            "this is not json\n",
            "{{\"id\": 4, \"op\": \"warp\"}}\n",
            "{{\"id\": 5, \"op\": \"predict\", \"features\": [1.0], \"a\": 1.0}}\n",
            "{{\"id\": 6, \"op\": \"predict\", \"features\": {feat}, \"a\": -2.0}}\n",
            "{{\"id\": 7, \"op\": \"predict\", \"features\": {feat}}}\n",
            "\n",
            "{{\"id\": 8, \"op\": \"tsp\", \"tsplib\": \"{tsplib}\", \"a\": 1.0}}\n",
            "{{\"id\": 9, \"op\": \"tsp\", \"tsplib\": \"{truncated}\"}}\n",
            "{{\"id\": 10, \"op\": \"instance\", \"a\": 1.0}}\n",
            "{{\"id\": 11, \"op\": \"instance\", \"family\": \"nosuch\", \"a\": 1.0}}\n",
            "{{\"id\": 12, \"op\": \"solve\", \"family\": \"TSP\", \"tsplib\": \"{tsplib}\", \"a\": 1.0}}\n",
            "{{\"id\": 13, \"op\": \"instance\", \"family\": \"maxcut\", \"a\": 1.0}}\n",
            "{{\"id\": 14, \"op\": \"feedback\", \"features\": {feat}, \"a\": 1.0}}\n",
            "{{\"id\": 15, \"op\": \"model-info\"}}\n",
            "{{\"id\": 16, \"op\": \"predict\", \"features\": {feat}, \"a_values\": []}}\n",
        ),
        feat = feat_json,
        a = a,
        tsplib = tsplib,
        truncated = truncated,
    );
    let responses = roundtrip(&eng, &requests);
    // One response per non-blank request line, in request order.
    assert_eq!(responses.len(), 17);
    let ids: Vec<Option<u64>> = responses.iter().map(|r| r.id).collect();
    assert_eq!(
        ids,
        vec![
            Some(1),
            Some(2),
            Some(3),
            None, // unparseable line cannot echo an id
            Some(4),
            Some(5),
            Some(6),
            Some(7),
            Some(8),
            Some(9),
            Some(10),
            Some(11),
            Some(12),
            Some(13),
            Some(14),
            Some(15),
            Some(16),
        ]
    );

    // info
    let info = responses[0].info.as_ref().expect("info payload");
    assert!(responses[0].ok);
    assert_eq!(info.kind, "bundle");
    assert_eq!(info.feature_dim, FEAT_DIM);

    // single predict: exact bits of a direct prediction
    let direct = reference.predict(&features, a);
    let preds = responses[1].predictions.as_ref().expect("predictions");
    assert!(responses[1].ok);
    assert_eq!(preds.len(), 1);
    assert_eq!(preds[0].pf_bits, direct.pf.to_bits());
    assert_eq!(preds[0].e_avg_bits, direct.e_avg.to_bits());
    assert_eq!(preds[0].e_std_bits, direct.e_std.to_bits());
    assert_eq!(preds[0].pf, direct.pf);

    // grid predict
    let grid = reference.predict_grid(&features, &[0.5, 1.0, 2.0]);
    let preds = responses[2].predictions.as_ref().expect("grid");
    assert_eq!(preds.len(), 3);
    for (p, d) in preds.iter().zip(&grid) {
        assert_eq!(p.pf_bits, d.pf.to_bits());
    }

    // hostile lines: rejected with errors, session kept serving
    for (idx, needle) in [
        (3, "unparseable request"),
        (4, "unknown op"),
        (5, "expected 24 features"),
        (6, "finite and positive"),
        (7, "needs `a` or `a_values`"),
    ] {
        let r = &responses[idx];
        assert!(!r.ok, "line {idx} should be rejected");
        let error = r.error.as_ref().expect("error message");
        assert!(
            error.contains(needle),
            "line {idx}: `{error}` missing `{needle}`"
        );
    }

    // tsp upload: parsed, featurised, proposals planned, grid answered
    let tsp = &responses[8];
    assert!(tsp.ok, "tsp upload failed: {:?}", tsp.error);
    assert_eq!(tsp.instance.as_deref(), Some("up"));
    let proposals = tsp.proposals.as_ref().expect("proposals");
    assert!(!proposals.is_empty());
    assert!(proposals.iter().all(|p| p.is_finite() && *p > 0.0));
    assert_eq!(
        tsp.proposal_bits.as_ref().expect("bits").len(),
        proposals.len()
    );
    assert_eq!(tsp.predictions.as_ref().expect("tsp grid").len(), 1);

    // truncated tsp upload: clean rejection
    let bad = &responses[9];
    assert!(!bad.ok);
    assert!(
        bad.error.as_ref().expect("error").contains("edge weight"),
        "unexpected error: {:?}",
        bad.error
    );

    // instance/solve: the family is checked before the payload, and a
    // TSPLIB upload under `family: "TSP"` takes the tsp op's path
    for (idx, error) in [
        (10, "instance needs `family`"),
        (
            11,
            "bad request: unknown problem family `nosuch` (known: tsp | mvc | qap | maxcut | \
             knapsack)",
        ),
        (13, "instance needs `instance`"),
        (
            14,
            "feedback needs `features`, `a`, `pf`, `e_avg` and `e_std`",
        ),
    ] {
        let r = &responses[idx];
        assert!(!r.ok, "line {idx} should be rejected");
        assert_eq!(r.error.as_deref(), Some(error), "line {idx}");
    }
    let solve = &responses[12];
    assert!(solve.ok, "solve upload failed: {:?}", solve.error);
    assert_eq!(solve.instance.as_deref(), Some("up"));
    assert_eq!(solve.proposal_bits, tsp.proposal_bits);
    assert_eq!(solve.predictions, tsp.predictions);

    // the model-info alias, and an empty grid: ok with no predictions
    assert!(responses[15].ok);
    assert_eq!(responses[15].info, responses[0].info);
    assert!(responses[16].ok, "empty grid: {:?}", responses[16].error);
    assert_eq!(responses[16].predictions.as_deref(), Some(&[][..]));
}

#[test]
fn responses_stay_in_request_order_under_batching() {
    let eng = engine(ServeConfig {
        workers: 4,
        max_batch_rows: 8,
        ..Default::default()
    });
    let mut requests = String::new();
    for id in 0..200u64 {
        let (features, a) = query(id as usize % 17);
        requests.push_str(&format!(
            "{{\"id\": {id}, \"op\": \"predict\", \"features\": {}, \"a\": {a}}}\n",
            serde_json::to_string(&features).expect("json"),
        ));
    }
    let responses = roundtrip(&eng, &requests);
    assert_eq!(responses.len(), 200);
    for (k, r) in responses.iter().enumerate() {
        assert_eq!(r.id, Some(k as u64), "response order broke at {k}");
        assert!(r.ok);
    }
    let stats = eng.stats();
    assert_eq!(stats.requests, 200);
    assert_eq!(stats.rows, 200);
    // Whether a repeat hits the cache or rides an in-flight batch is a
    // timing accident (staging can outpace the workers); deterministic
    // cache-hit coverage lives in the hammer test, where each client
    // blocks on its own earlier query before repeating it.
}

/// One NDJSON predict request line for query `id`.
fn predict_line(id: u64) -> Vec<u8> {
    let (features, a) = query(id as usize);
    format!(
        "{{\"id\": {id}, \"op\": \"predict\", \"features\": {}, \"a\": {a}}}\n",
        serde_json::to_string(&features).expect("json"),
    )
    .into_bytes()
}

/// A writer whose bytes the test can read while the session runs.
#[derive(Clone, Default)]
struct SharedWriter(Rc<RefCell<Vec<u8>>>);

impl SharedWriter {
    fn lines(&self) -> usize {
        self.0.borrow().iter().filter(|&&b| b == b'\n').count()
    }
}

impl Write for SharedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Hands out one scripted chunk per `fill_buf`, then EOF. Before handing
/// out each chunk it records how many answer lines the writer holds.
struct ScriptedReader {
    chunks: VecDeque<Vec<u8>>,
    current: Vec<u8>,
    writer: SharedWriter,
    answered_before_read: Vec<usize>,
}

impl Read for ScriptedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.fill_buf()?.read(buf)?;
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ScriptedReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.current.is_empty() {
            if let Some(chunk) = self.chunks.pop_front() {
                self.answered_before_read.push(self.writer.lines());
                self.current = chunk;
            }
        }
        Ok(&self.current)
    }

    fn consume(&mut self, n: usize) {
        self.current.drain(..n);
    }
}

#[test]
fn stdio_session_answers_each_read_before_the_next() {
    let eng = engine(ServeConfig::default());
    let writer = SharedWriter::default();
    let mut reader = ScriptedReader {
        chunks: (0..40).map(predict_line).collect(),
        current: Vec::new(),
        writer: writer.clone(),
        answered_before_read: Vec::new(),
    };
    serve_connection(&eng, &mut reader, writer.clone()).expect("session");
    // An interactive client sends its next request only after it reads
    // the previous answer: a session that reads ahead would wait forever.
    let expected: Vec<usize> = (0..40).collect();
    assert_eq!(reader.answered_before_read, expected);
    assert_eq!(writer.lines(), 40);
}

/// Hands out the same request line on every `fill_buf`, forever,
/// counting the reads.
struct EndlessReader {
    line: Vec<u8>,
    reads: Rc<Cell<usize>>,
}

impl Read for EndlessReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.fill_buf()?.read(buf)?;
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for EndlessReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.reads.set(self.reads.get() + 1);
        Ok(&self.line)
    }

    fn consume(&mut self, _n: usize) {}
}

/// A client that hung up: every write fails.
struct BrokenPipeWriter;

impl Write for BrokenPipeWriter {
    fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
        Err(ErrorKind::BrokenPipe.into())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn stdio_session_ends_when_its_writer_dies() {
    let eng = engine(ServeConfig::default());
    let reads = Rc::new(Cell::new(0));
    let reader = EndlessReader {
        line: predict_line(1),
        reads: Rc::clone(&reads),
    };
    let err = serve_connection(&eng, reader, BrokenPipeWriter).expect_err("dead writer");
    assert_eq!(err.kind(), ErrorKind::BrokenPipe);
    assert_eq!(reads.get(), 1, "the session read on after its writer died");
}

#[test]
fn bare_surrogate_rejects_tsp_op_but_serves_predict() {
    let eng = ServeEngine::new(
        ServeModel::Surrogate(Arc::new(test_surrogate())),
        ServeConfig::default(),
    );
    let (features, a) = query(5);
    let requests = format!(
        "{{\"id\": 1, \"op\": \"tsp\", \"tsplib\": \"NAME: x\"}}\n\
         {{\"id\": 2, \"op\": \"predict\", \"features\": {}, \"a\": {a}}}\n\
         {{\"id\": 3, \"op\": \"info\"}}\n\
         {{\"id\": 4, \"op\": \"tsp\"}}\n",
        serde_json::to_string(&features).expect("json"),
    );
    let responses = roundtrip(&eng, &requests);
    assert_eq!(responses.len(), 4);
    // A bare surrogate is reported before a missing upload.
    for idx in [0, 3] {
        assert!(!responses[idx].ok);
        assert!(responses[idx]
            .error
            .as_ref()
            .expect("error")
            .contains("bare surrogate"));
    }
    assert!(responses[1].ok);
    assert_eq!(responses[2].info.as_ref().expect("info").kind, "surrogate");
}
