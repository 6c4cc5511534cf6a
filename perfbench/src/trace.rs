//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public API: name, start, end, parent span and request id. Spans stay
//! in memory until the run ends, then [`Tracer::write_json`] writes them
//! out. A span's *self time* is its duration minus the part of it that
//! its children cover.

use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Collects spans from any thread (the collect stage calls the solver
/// from a worker pool).
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished call and returns its span index.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Opens a span whose end is filled in by [`Tracer::close`]; children
    /// recorded meanwhile name it as their parent.
    pub fn open(&self, name: &'static str, start: Instant, request: u64) -> usize {
        self.record(name, start, start, None, request)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, index: usize, end: Instant) {
        let end_ns = self.ns(end);
        self.spans.lock().expect("tracer lock poisoned")[index].end_ns = end_ns;
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self times in nanoseconds of every span called `name`: duration
    /// minus the union of its children's intervals, clipped to it.
    pub fn self_times_ns(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let kids = &mut children[i];
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64
            })
            .collect()
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_once() {
        let t = Tracer::new();
        let t0 = t.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = t.open("request", at(0), 7);
        t.record("decode", at(10), at(30), Some(root), 7);
        // overlapping child: only the uncovered 10us counts again
        t.record("submit", at(20), at(40), Some(root), 7);
        t.close(root, at(100));
        assert_eq!(t.durations_ns("request"), vec![100_000.0]);
        assert_eq!(t.self_times_ns("request"), vec![70_000.0]);
        assert_eq!(t.self_times_ns("decode"), vec![20_000.0]);
    }
}
