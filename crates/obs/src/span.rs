//! Per-request spans: a trace ID minted at admission plus a fixed array
//! of per-stage durations, carried *by value* through the request
//! plumbing (admission → batch → infer → encode; the wire layer adds the
//! decode time it measured before admission). No allocation, no
//! shared state, `Copy` — a span can ride any channel the request
//! already rides.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{clock, ENABLED};

/// Number of pipeline stages a span records.
pub const STAGES: usize = 6;

/// The serving pipeline stages, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// wire bytes → validated request (NDJSON parse or QBIN decode)
    Decode = 0,
    /// admission → batch drain (time spent queued)
    Queue = 1,
    /// batch drain → forward start (grouping, staging scratch)
    Batch = 2,
    /// surrogate forward pass
    Forward = 3,
    /// prediction-cache probe + insert
    Cache = 4,
    /// response → wire bytes (serialize or QBIN encode + frame write)
    Encode = 5,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGES] = [
        Stage::Decode,
        Stage::Queue,
        Stage::Batch,
        Stage::Forward,
        Stage::Cache,
        Stage::Encode,
    ];

    /// Stable lowercase name (used as a metric label and in `trace`
    /// dumps).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Queue => "queue",
            Stage::Batch => "batch",
            Stage::Forward => "forward",
            Stage::Cache => "cache",
            Stage::Encode => "encode",
        }
    }
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// One request's trace: an ID plus nanoseconds spent in each [`Stage`].
///
/// Under `obs-off` spans still exist (the plumbing is identical) but the
/// ID is always 0 and recording is a no-op the optimizer removes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    id: u64,
    stage_ns: [u64; STAGES],
}

impl Span {
    /// Mints a span with a fresh process-unique trace ID.
    #[inline]
    pub fn begin() -> Span {
        Span {
            id: if ENABLED {
                NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
            } else {
                0
            },
            stage_ns: [0; STAGES],
        }
    }

    /// The trace ID (0 under `obs-off` or for a default span).
    #[inline]
    pub fn trace_id(&self) -> u64 {
        self.id
    }

    /// Adds `ns` to the time attributed to `stage` (stages touched more
    /// than once accumulate).
    #[inline]
    pub fn record(&mut self, stage: Stage, ns: u64) {
        if ENABLED {
            self.stage_ns[stage as usize] = self.stage_ns[stage as usize].saturating_add(ns);
        }
    }

    /// Nanoseconds attributed to `stage`.
    #[inline]
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stage_ns[stage as usize]
    }

    /// The raw per-stage array, pipeline order.
    #[inline]
    pub fn stages(&self) -> [u64; STAGES] {
        self.stage_ns
    }

    /// Sum of all recorded stage durations.
    #[inline]
    pub fn total_ns(&self) -> u64 {
        self.stage_ns
            .iter()
            .fold(0u64, |acc, &v| acc.saturating_add(v))
    }
}

/// A start-time capture that compiles away under `obs-off`: no clock
/// read is made when observability is disabled, so the uninstrumented
/// build pays literally nothing. When enabled, reads go through
/// [`clock::now_ns`] — the calibrated TSC fast path where available —
/// instead of a `clock_gettime` call per read.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start_ns: u64,
}

impl Stopwatch {
    /// Captures the current time (or nothing, under `obs-off`).
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch {
            start_ns: if ENABLED { clock::now_ns() } else { 0 },
        }
    }

    /// Nanoseconds since start; 0 under `obs-off`.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        if ENABLED {
            clock::now_ns().saturating_sub(self.start_ns)
        } else {
            0
        }
    }

    /// Returns the elapsed nanoseconds and restarts the watch — for
    /// chaining consecutive stage measurements off one timeline.
    #[inline]
    pub fn lap(&mut self) -> u64 {
        if ENABLED {
            let now = clock::now_ns();
            let ns = now.saturating_sub(self.start_ns);
            self.start_ns = now;
            ns
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_when_enabled() {
        let a = Span::begin();
        let b = Span::begin();
        if ENABLED {
            assert_ne!(a.trace_id(), b.trace_id());
            assert_ne!(a.trace_id(), 0);
        } else {
            assert_eq!(a.trace_id(), 0);
        }
    }

    #[test]
    fn stages_accumulate_and_total() {
        let mut s = Span::begin();
        s.record(Stage::Decode, 10);
        s.record(Stage::Decode, 5);
        s.record(Stage::Forward, 100);
        if ENABLED {
            assert_eq!(s.stage_ns(Stage::Decode), 15);
            assert_eq!(s.total_ns(), 115);
        } else {
            assert_eq!(s.total_ns(), 0);
        }
    }

    #[test]
    fn total_saturates() {
        let mut s = Span::begin();
        s.record(Stage::Queue, u64::MAX);
        s.record(Stage::Forward, u64::MAX);
        if ENABLED {
            assert_eq!(s.total_ns(), u64::MAX);
        }
    }

    #[test]
    fn stopwatch_monotone() {
        let mut sw = Stopwatch::start();
        let a = sw.lap();
        let b = sw.elapsed_ns();
        if ENABLED {
            // laps restart the timeline; both reads are well-defined
            let _ = (a, b);
        } else {
            assert_eq!(a, 0);
            assert_eq!(b, 0);
        }
    }

    #[test]
    fn stage_names_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["decode", "queue", "batch", "forward", "cache", "encode"]
        );
    }
}
