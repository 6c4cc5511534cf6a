//! `qross-train` — the offline half of the train-once / serve-many loop.
//!
//! Generates a problem corpus (TSP through the staged pipeline; every
//! other registered family through the problem-generic trainer), collects
//! solver data, trains the surrogate, and writes two artifacts:
//!
//! * the **model** — a `.qross` bundle (TSP) or surrogate snapshot
//!   (other families); `--format json` writes a JSON dump instead, for
//!   reading only — nothing loads it;
//! * the **predictions manifest** — every grid prediction (and, for TSP,
//!   every planned strategy proposal) as exact `f64` bit patterns.
//!
//! `qross-predict` reloads the model in a fresh process and regenerates
//! the manifest; a byte-for-byte diff of the two files proves the
//! serve-side model is bit-identical to the trained one.
//!
//! The whole CLI and train/persist flow lives in
//! [`bench::serve::run_train`], shared with `qross-predict`'s parser —
//! this binary is only the entry point.

fn main() {
    bench::serve::run_train();
}
