//! Host speed reference for the in-process stage times.
//!
//! On a shared VM the same single-threaded work runs at very different
//! speeds from one moment to the next: identical micro-scale training
//! calls spread by ~40% (interquartile range over median) across five
//! minutes, with no steal time to account for it (other tenants on the
//! same physical cores). A fixed reference kernel, owned by this
//! benchmark and so identical on every commit, slows down with them
//! (correlation 0.8 with training time). Each in-process stage is timed
//! between two samples of that kernel and reported both as measured and
//! at reference speed: measured time × `NOMINAL_MS` / kernel time. A
//! change to the repository's code moves the scaled time exactly as much
//! as the measured one; the host's mood moves it far less.

use std::time::Instant;

/// The reference kernel's time on a quiet 2-vCPU Xeon VM, milliseconds.
const NOMINAL_MS: f64 = 2.0;
/// Kernel runs per sample; the sample is their median.
const RUNS: usize = 9;

/// ~2 ms of dependent integer and floating-point work over a 128 KiB
/// array: the mix of the solver sweeps and the small matmuls.
fn kernel() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    let mut v = vec![0.0f64; 1 << 14];
    for r in 0..40 {
        for i in 0..v.len() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v[i] = v[i] * 0.5 + (x >> 11) as f64 * 1e-16 + f64::from(r);
            acc += v[(i * 7919) & 0x3fff];
        }
    }
    std::hint::black_box(acc)
}

/// How much slower than reference the calling thread runs right now.
pub fn slowness() -> f64 {
    let mut ms: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            kernel();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[RUNS / 2] / NOMINAL_MS
}

/// A stage time as measured and at reference speed, seconds.
#[derive(Debug, Clone, Copy)]
pub struct StageTime {
    pub wall_s: f64,
    pub scaled_s: f64,
}

/// Runs `f` between two [`slowness`] samples.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, StageTime) {
    let before = slowness();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let after = slowness();
    (
        out,
        StageTime {
            wall_s,
            scaled_s: wall_s / ((before + after) / 2.0),
        },
    )
}
