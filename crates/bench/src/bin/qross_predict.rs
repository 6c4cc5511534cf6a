//! `qross-predict` — the serve half of the train-once / serve-many loop.
//!
//! Reloads a `.qross` model written by `qross-train` (a `--format json`
//! dump does not load) in a *fresh process* and regenerates the
//! predictions manifest. Because the manifest stores exact `f64` bit
//! patterns, a plain `diff` against the training process's manifest
//! proves the reloaded model is bit-identical to the trained one — the
//! whole point of the artifact store.
//!
//! TSP bundles are self-contained: the manifest's batch size, strategy
//! seed and evaluation instances all come from the bundle itself, so
//! `--model` is the only flag the TSP serve side needs. Other families'
//! models are bare surrogate snapshots; their corpus is regenerated from
//! `--problem`/`--scale`/`--seed`, which must match the training run.
//!
//! The whole CLI and reload/manifest flow lives in
//! [`bench::serve::run_predict`], shared with `qross-train`'s parser —
//! this binary is only the entry point.

fn main() {
    bench::serve::run_predict();
}
