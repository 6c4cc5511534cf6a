//! Replica- and task-level parallelism for batch sampling and pipeline
//! fan-out.
//!
//! All solvers produce a batch of `B` independent replicas (the paper uses
//! `B = 128` solutions per call). Replicas share nothing but the read-only
//! CSR model, so they parallelise embarrassingly across threads with
//! `std::thread::scope`. The same machinery also fans out coarser units of
//! work — one training instance's whole A-profile, one `(strategy,
//! instance)` evaluation cell — via [`parallel_map_with_workers`], which
//! accepts an explicit worker count.
//!
//! # Determinism contract
//!
//! Every entry point guarantees **bit-identical output regardless of
//! worker count** (including the sequential fallback): the closure must
//! derive all randomness from the task *index* (seed-derived RNG streams),
//! never from shared mutable state, and results are written into their
//! index slot. [`parallel_map_with`] additionally hands each worker thread
//! a long-lived scratch value so per-task allocations (solver states,
//! RNGs, buffers) are paid once per *worker*, not once per *task* — the
//! closure must therefore fully reset the scratch from the index before
//! use.
//!
//! # Nesting
//!
//! Coarse fan-out encloses fine fan-out: a pipeline worker collecting one
//! instance's profile calls solvers whose batches would themselves fan
//! out. To avoid multiplicative thread explosion, worker threads mark
//! themselves as a *sequential region* — any nested `parallel_map_*` call
//! made from inside a worker runs inline on that worker. An explicit
//! `workers == 1` likewise marks the calling thread sequential for the
//! duration of the map, so a one-worker run really is single-threaded end
//! to end (the baseline the `pipeline_scaling` bench measures against).
//! Because of the determinism contract this only changes scheduling,
//! never results.

use std::cell::Cell;

thread_local! {
    static SEQUENTIAL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is inside a sequential region (a worker of
/// an enclosing parallel map, or an explicit one-worker map).
pub fn in_sequential_region() -> bool {
    SEQUENTIAL_REGION.with(|s| s.get())
}

/// Runs `f` with the current thread marked as a sequential region, so any
/// nested `parallel_map_*` call runs inline. Restores the previous state
/// afterwards.
fn run_in_sequential_region<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            SEQUENTIAL_REGION.with(|s| s.set(prev));
        }
    }
    let _guard = Restore(SEQUENTIAL_REGION.with(|s| s.replace(true)));
    f()
}

/// Worker-count value meaning "one worker per available core".
pub const AUTO_WORKERS: usize = 0;

/// Runs `f(&mut scratch, replica_index)` for `count` replicas across the
/// available cores and returns the results in replica order.
///
/// Falls back to a sequential loop when `count <= 1` or only one core is
/// available. `f` must be deterministic per index (seed-derived RNG) so the
/// parallel and sequential paths produce identical output.
///
/// Each worker thread calls `init()` once, then runs `f(&mut scratch, i)`
/// for every replica index in its contiguous chunk. The scratch lets
/// solvers keep one state/buffer set alive across a whole chunk instead of
/// reallocating per replica. `f` must reset the scratch from the index —
/// outputs stay bit-identical to the sequential path only if no state
/// leaks between indices.
///
/// # Examples
///
/// ```
/// use solvers::parallel::parallel_map_with;
/// // Reuse one scratch buffer per worker.
/// let xs = parallel_map_with(
///     4,
///     || Vec::with_capacity(16),
///     |buf, i| {
///         buf.clear();
///         buf.extend(0..=i);
///         buf.iter().sum::<usize>()
///     },
/// );
/// assert_eq!(xs, vec![0, 1, 3, 6]);
/// ```
pub fn parallel_map_with<T, S, I, F>(count: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Send + Sync,
    F: Fn(&mut S, usize) -> T + Send + Sync,
{
    parallel_map_with_workers(count, AUTO_WORKERS, init, f)
}

/// [`parallel_map_with`] with an explicit worker count.
///
/// `workers == 0` ([`AUTO_WORKERS`]) uses one worker per available core;
/// any other value spawns exactly `min(workers, count)` workers, even on a
/// machine with fewer cores (oversubscription is the caller's choice — the
/// chunk assignment depends only on `(count, workers)`, so results and
/// their order are identical on any machine). Nested calls made from
/// worker threads run inline (see the module docs), and `workers == 1`
/// runs the whole map — including nested fan-out — on the calling thread.
pub fn parallel_map_with_workers<T, S, I, F>(count: usize, workers: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Send + Sync,
    F: Fn(&mut S, usize) -> T + Send + Sync,
{
    let nested = in_sequential_region();
    let threads = if nested {
        1
    } else if workers == AUTO_WORKERS {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
    .min(count.max(1));

    if threads <= 1 || count <= 1 {
        let run = || {
            let mut scratch = init();
            (0..count).map(|i| f(&mut scratch, i)).collect()
        };
        // An explicit worker bound (or an enclosing worker) serialises
        // nested fan-out too; the auto path leaves nested calls free to
        // use the cores this level did not.
        return if nested || workers == 1 {
            run_in_sequential_region(run)
        } else {
            run()
        };
    }

    let mut out: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let chunk = count.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, slot_chunk) in out.chunks_mut(chunk).enumerate() {
            let (init, f) = (&init, &f);
            scope.spawn(move || {
                // Worker threads are sequential regions: nested parallel
                // maps (e.g. replica fan-out inside a solver call) run
                // inline instead of multiplying threads.
                SEQUENTIAL_REGION.with(|s| s.set(true));
                let base = t * chunk;
                let mut scratch = init();
                for (off, slot) in slot_chunk.iter_mut().enumerate() {
                    *slot = Some(f(&mut scratch, base + off));
                }
            });
        }
    });
    out.into_iter()
        .map(|x| x.expect("replica result missing"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let xs = parallel_map_with(100, || (), |(), i| i as u64 * 3);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(x, i as u64 * 3);
        }
    }

    #[test]
    fn runs_every_index_exactly_once() {
        let counter = AtomicUsize::new(0);
        let xs = parallel_map_with(
            64,
            || (),
            |(), i| {
                counter.fetch_add(1, Ordering::SeqCst);
                i
            },
        );
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        assert_eq!(xs.len(), 64);
    }

    #[test]
    fn zero_and_one_replicas() {
        let none: Vec<usize> = parallel_map_with(0, || (), |(), i| i);
        assert!(none.is_empty());
        let one = parallel_map_with(1, || (), |(), i| i + 10);
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn matches_sequential_reference() {
        let par = parallel_map_with(37, || (), |(), i| (i as f64).sin());
        let seq: Vec<f64> = (0..37).map(|i| (i as f64).sin()).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn scratch_initialised_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let xs = parallel_map_with(
            128,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |scratch, i| {
                *scratch += 1;
                i
            },
        );
        assert_eq!(xs, (0..128).collect::<Vec<_>>());
        // One scratch per worker, workers capped by cores and replica count.
        assert!(inits.load(Ordering::SeqCst) <= threads.min(128));
    }

    #[test]
    fn explicit_workers_match_auto_and_sequential() {
        let reference: Vec<u64> = (0..53).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = parallel_map_with_workers(
                53,
                workers,
                || (),
                |(), i| (i as u64).wrapping_mul(0x9E37),
            );
            assert_eq!(got, reference, "workers = {workers}");
        }
        let auto = parallel_map_with(53, || (), |(), i| (i as u64).wrapping_mul(0x9E37));
        assert_eq!(auto, reference);
    }

    #[test]
    fn explicit_workers_spawn_even_on_one_core() {
        // With an explicit worker count > 1 the chunked path must engage
        // regardless of available cores: 8 workers over 64 tasks means at
        // most 8 scratch initialisations and full coverage.
        let inits = AtomicUsize::new(0);
        let xs = parallel_map_with_workers(
            64,
            8,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |scratch, i| {
                *scratch += 1;
                i
            },
        );
        assert_eq!(xs, (0..64).collect::<Vec<_>>());
        assert_eq!(inits.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn nested_maps_run_inline_inside_workers() {
        // Each outer worker marks itself sequential, so the nested map
        // must not spawn: its scratch is initialised exactly once per
        // outer task.
        let nested_inits = AtomicUsize::new(0);
        let xs = parallel_map_with_workers(
            4,
            2,
            || (),
            |(), i| {
                assert!(in_sequential_region());
                let inner = parallel_map_with_workers(
                    16,
                    8,
                    || {
                        nested_inits.fetch_add(1, Ordering::SeqCst);
                    },
                    |(), j| i * 100 + j,
                );
                inner.iter().sum::<usize>()
            },
        );
        let want: Vec<usize> = (0..4)
            .map(|i| 16 * i * 100 + (0..16).sum::<usize>())
            .collect();
        assert_eq!(xs, want);
        // One nested init per outer task (inline), not 8 per task.
        assert_eq!(nested_inits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn one_worker_marks_sequential_region() {
        assert!(!in_sequential_region());
        parallel_map_with_workers(3, 1, || (), |(), _| assert!(in_sequential_region()));
        // Restored afterwards.
        assert!(!in_sequential_region());
    }

    #[test]
    fn scratch_reuse_matches_fresh_state_when_reset() {
        // A closure that resets its scratch per index must match the
        // stateless path bit-for-bit.
        let with_scratch = parallel_map_with(50, Vec::new, |buf: &mut Vec<u64>, i| {
            buf.clear();
            buf.extend((0..i as u64).map(|k| k * k));
            buf.iter().sum::<u64>()
        });
        let stateless: Vec<u64> = (0..50)
            .map(|i| (0..i as u64).map(|k| k * k).sum())
            .collect();
        assert_eq!(with_scratch, stateless);
    }
}
