//! Sweep instrumentation for the solver substrates.
//!
//! Each solver's `sample()` records its wall-clock duration into a
//! per-solver histogram and bumps sweep / energy-evaluation counters on
//! the process-global [`obs::global`] registry — the "dark path" a
//! serving process otherwise can't see (solver work happens inside
//! `tsp`/`instance` uploads and offline sweeps, not per `predict`).
//!
//! Everything here is observation-only: no solver trajectory, RNG
//! stream, or sample byte depends on it, and under `obs-off` every call
//! in this module compiles to a no-op. Handles are resolved once
//! through a [`OnceLock`] table keyed by solver name, so the per-call
//! cost is a map probe plus relaxed atomic adds.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Metric handles for one solver substrate.
struct SweepObs {
    /// `qross_solver_sample_ns{solver=...}` — duration of one `sample()`
    sample_ns: Arc<obs::Histogram>,
    /// `qross_solver_sweeps_total{solver=...}` — sweeps executed (one
    /// sweep = one pass of candidate flips at fixed temperature /
    /// one tabu iteration)
    sweeps: Arc<obs::Counter>,
    /// `qross_solver_energy_evals_total{solver=...}` — candidate-move
    /// energy deltas evaluated
    energy_evals: Arc<obs::Counter>,
}

/// The solver names with registered series. `qbsolv` records durations
/// only: its sweep work runs through the embedded tabu refiner, which
/// attributes those sweeps to `tabu` itself.
const SOLVERS: [&str; 4] = ["sa", "da", "tabu", "qbsolv"];

fn table() -> &'static HashMap<&'static str, SweepObs> {
    static TABLE: OnceLock<HashMap<&'static str, SweepObs>> = OnceLock::new();
    TABLE.get_or_init(|| {
        SOLVERS
            .iter()
            .map(|&name| {
                let handles = SweepObs {
                    sample_ns: obs::global().histogram(
                        obs::labeled("qross_solver_sample_ns", &[("solver", name)]),
                        "wall-clock duration of one solver sample() call",
                    ),
                    sweeps: obs::global().counter(
                        obs::labeled("qross_solver_sweeps_total", &[("solver", name)]),
                        "solver sweeps executed (one pass of candidate flips)",
                    ),
                    energy_evals: obs::global().counter(
                        obs::labeled("qross_solver_energy_evals_total", &[("solver", name)]),
                        "candidate-move energy deltas evaluated",
                    ),
                };
                (name, handles)
            })
            .collect()
    })
}

/// Records one completed `sample()` call: duration plus the sweep and
/// energy-evaluation work it performed. No-op under `obs-off`.
pub(crate) fn record_sample(solver: &str, elapsed_ns: u64, sweeps: u64, energy_evals: u64) {
    if !obs::ENABLED {
        return;
    }
    if let Some(h) = table().get(solver) {
        h.sample_ns.record(elapsed_ns);
        h.sweeps.add(sweeps);
        h.energy_evals.add(energy_evals);
    }
}

/// Adds sweep work without a duration sample — used by inner loops
/// whose iteration count is adaptive (tabu's stall cutoff), where the
/// caller times the whole `sample()` separately. No-op under `obs-off`.
pub(crate) fn record_sweeps(solver: &str, sweeps: u64, energy_evals: u64) {
    if !obs::ENABLED {
        return;
    }
    if let Some(h) = table().get(solver) {
        h.sweeps.add(sweeps);
        h.energy_evals.add(energy_evals);
    }
}

/// Forces registration of every per-solver series so a pre-traffic
/// scrape already lists them at zero. No-op under `obs-off`.
pub fn register_metrics() {
    if obs::ENABLED {
        let _ = table();
    }
}
