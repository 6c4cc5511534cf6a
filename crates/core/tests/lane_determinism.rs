//! Replica-lane batching must be invisible in collected datasets.
//!
//! `solvers::set_replica_lanes` is a pure performance knob: SA and DA
//! advance `lanes` replicas in lockstep over one shared CSR traversal,
//! but every lane owns its RNG stream, so per-replica trajectories — and
//! therefore every dataset byte downstream — are bit-identical at any
//! lane width. CI replays a small collection at width 1 vs the batched
//! default and diffs the serialised bytes.
//!
//! The lane width is a thread-local read once on the collecting thread,
//! so the replay runs with `workers = 1` (inline execution); solver-
//! internal fan-out inherits the width read before the spawn.

use problems::MvcInstance;
use qross::collect::CollectConfig;
use qross::pipeline::collect_dataset;
use solvers::da::DaConfig;
use solvers::sa::SaConfig;
use solvers::{DigitalAnnealer, SimulatedAnnealer, Solver};

fn collect_bytes<S: Solver>(solver: &S, lanes: usize) -> String {
    let problems: Vec<MvcInstance> = (0..3)
        .map(|i| MvcInstance::random_gnp(&format!("g{i}"), 14, 0.4, 90 + i))
        .collect();
    let config = CollectConfig {
        sweep_points: 4,
        batch: 5,
        ..Default::default()
    };
    solvers::set_replica_lanes(lanes);
    let dataset = collect_dataset(
        &problems,
        |p| vec![p.num_vertices() as f64, p.edges().len() as f64],
        2,
        &config,
        solver,
        7,
        1, // workers = 1: keep collection on this thread (see module docs)
    );
    solvers::set_replica_lanes(0); // restore the default width
    serde_json::to_string(dataset.rows()).expect("dataset rows serialise")
}

#[test]
fn sa_collection_bytes_invariant_to_lane_width() {
    let solver = SimulatedAnnealer::new(SaConfig {
        sweeps: 24,
        ..Default::default()
    });
    let sequential = collect_bytes(&solver, 1);
    for lanes in [3, solvers::DEFAULT_REPLICA_LANES] {
        assert_eq!(
            sequential,
            collect_bytes(&solver, lanes),
            "SA dataset bytes changed at lane width {lanes}"
        );
    }
}

#[test]
fn da_collection_bytes_invariant_to_lane_width() {
    let solver = DigitalAnnealer::new(DaConfig {
        steps: 60,
        ..Default::default()
    });
    let sequential = collect_bytes(&solver, 1);
    // 11 and 16 pad the replica batch to two 8-lane kernel blocks; with
    // 5 replicas per call the first is partial (idle lanes masked) and
    // the second unused.
    for lanes in [3, solvers::DEFAULT_REPLICA_LANES, 11, 16] {
        assert_eq!(
            sequential,
            collect_bytes(&solver, lanes),
            "DA dataset bytes changed at lane width {lanes}"
        );
    }
}
