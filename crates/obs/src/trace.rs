//! Bounded keep-the-slowest event log: the serving engine records every
//! completed request's span here, and the log retains the N with the
//! largest total duration. The `trace` op dumps it.
//!
//! Admission is guarded by a lock-free floor (the smallest total
//! currently retained once the log is full): the common case — a request
//! faster than everything already logged — is one relaxed load and no
//! lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::span::{Span, STAGES};
use crate::ENABLED;

/// One retained slow request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// the request's trace ID (minted at admission)
    pub trace_id: u64,
    /// request op (`"predict"`, `"instance"`, …)
    pub op: &'static str,
    /// tenant the request was admitted under (empty = default tenant)
    pub tenant: String,
    /// sum of the per-stage durations below
    pub total_ns: u64,
    /// nanoseconds per stage, [`crate::Stage::ALL`] order
    pub stage_ns: [u64; STAGES],
}

/// Bounded log of the slowest requests seen so far.
pub struct TraceLog {
    cap: usize,
    /// smallest retained total once full; 0 while the log has room
    floor: AtomicU64,
    entries: Mutex<Vec<TraceEntry>>,
}

impl TraceLog {
    /// A log retaining the `cap` slowest requests (`cap` 0 disables it).
    pub fn new(cap: usize) -> Self {
        TraceLog {
            cap,
            floor: AtomicU64::new(0),
            entries: Mutex::new(Vec::with_capacity(cap.min(256))),
        }
    }

    /// Retention capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Offers a completed span; it is retained iff it is among the `cap`
    /// slowest observed. `op` names the request kind, `tenant` the
    /// admitting tenant.
    pub fn observe(&self, span: &Span, op: &'static str, tenant: &str) {
        if !ENABLED || self.cap == 0 {
            return;
        }
        let total = span.total_ns();
        // Fast path: full log and this request is faster than the
        // slowest retained set — no lock, no allocation.
        if total < self.floor.load(Ordering::Relaxed) {
            return;
        }
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        if entries.len() == self.cap {
            // Evict the current minimum if this one is slower.
            let (min_idx, min_total) = entries
                .iter()
                .enumerate()
                .map(|(i, e)| (i, e.total_ns))
                .min_by_key(|&(_, t)| t)
                .expect("cap > 0 and full");
            if total <= min_total {
                self.floor
                    .store(min_total.saturating_add(1), Ordering::Relaxed);
                return;
            }
            entries.swap_remove(min_idx);
        }
        entries.push(TraceEntry {
            trace_id: span.trace_id(),
            op,
            tenant: tenant.to_string(),
            total_ns: total,
            stage_ns: span.stages(),
        });
        if entries.len() == self.cap {
            let new_floor = entries.iter().map(|e| e.total_ns).min().unwrap_or(0);
            self.floor
                .store(new_floor.saturating_add(1), Ordering::Relaxed);
        }
    }

    /// The retained entries, slowest first (ties broken by trace ID so
    /// dumps are stable).
    pub fn snapshot(&self) -> Vec<TraceEntry> {
        let entries = self
            .entries
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        let mut out = entries.clone();
        out.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then(a.trace_id.cmp(&b.trace_id))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Stage;

    fn span_with_total(ns: u64) -> Span {
        let mut s = Span::begin();
        s.record(Stage::Forward, ns);
        s
    }

    #[test]
    fn keeps_the_n_slowest() {
        if !ENABLED {
            return;
        }
        let log = TraceLog::new(3);
        for ns in [10, 50, 30, 90, 20, 70, 40] {
            log.observe(&span_with_total(ns), "predict", "");
        }
        let totals: Vec<u64> = log.snapshot().iter().map(|e| e.total_ns).collect();
        assert_eq!(totals, vec![90, 70, 50]);
    }

    #[test]
    fn zero_capacity_disables() {
        let log = TraceLog::new(0);
        log.observe(&span_with_total(100), "predict", "");
        assert!(log.snapshot().is_empty());
    }

    #[test]
    fn snapshot_is_sorted_and_carries_stages() {
        if !ENABLED {
            return;
        }
        let log = TraceLog::new(8);
        let mut s = Span::begin();
        s.record(Stage::Decode, 1);
        s.record(Stage::Encode, 2);
        log.observe(&s, "metrics", "acme");
        let snap = log.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].op, "metrics");
        assert_eq!(snap[0].tenant, "acme");
        assert_eq!(snap[0].stage_ns[Stage::Decode as usize], 1);
        assert_eq!(snap[0].stage_ns[Stage::Encode as usize], 2);
        assert_eq!(snap[0].total_ns, 3);
    }

    #[test]
    fn floor_rejects_fast_requests_once_full() {
        if !ENABLED {
            return;
        }
        let log = TraceLog::new(2);
        log.observe(&span_with_total(100), "predict", "");
        log.observe(&span_with_total(200), "predict", "");
        log.observe(&span_with_total(5), "predict", "");
        let totals: Vec<u64> = log.snapshot().iter().map(|e| e.total_ns).collect();
        assert_eq!(totals, vec![200, 100]);
    }
}
