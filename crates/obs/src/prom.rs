//! Prometheus text exposition (format 0.0.4) over one or more
//! [`Registry`] instances.
//!
//! Histograms render cumulatively with log₂ upper bounds: bucket `b`
//! holds values in `[2^b, 2^(b+1))`, so its inclusive `le` is
//! `2^(b+1) - 1` (raw units — this crate's histograms are nanoseconds by
//! convention, and metric names carry a `_ns` suffix to say so). Buckets
//! past the highest non-empty one collapse into the mandatory `+Inf`.

use std::fmt::Write as _;

use crate::registry::{HistSnapshot, MetricView, Registry, HIST_BUCKETS};

/// Splits `base{labels}` into `(base, labels)`; labels is empty for a
/// plain name. A base name holds no `{`, so the first one opens the
/// label set whatever the escaped label values contain.
fn split_name(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}').unwrap_or(rest)),
        None => (name, ""),
    }
}

/// Joins an entry's inline labels with one extra `le` label.
fn labels_with_le(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        format!("{{{labels},le=\"{le}\"}}")
    }
}

fn wrap_labels(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

fn render_histogram(out: &mut String, base: &str, labels: &str, snap: &HistSnapshot) {
    let last = (0..HIST_BUCKETS)
        .rev()
        .find(|&b| snap.buckets[b] != 0)
        .map(|b| b.min(HIST_BUCKETS - 2)); // bucket 63's bound is +Inf itself
    let mut cumulative = 0u64;
    if let Some(last) = last {
        for (b, &c) in snap.buckets.iter().enumerate().take(last + 1) {
            cumulative = cumulative.wrapping_add(c);
            let le = ((1u128 << (b + 1)) - 1).to_string();
            let _ = writeln!(
                out,
                "{base}_bucket{} {cumulative}",
                labels_with_le(labels, &le)
            );
        }
    }
    let _ = writeln!(
        out,
        "{base}_bucket{} {}",
        labels_with_le(labels, "+Inf"),
        snap.count
    );
    let _ = writeln!(out, "{base}_sum{} {}", wrap_labels(labels), snap.sum);
    let _ = writeln!(out, "{base}_count{} {}", wrap_labels(labels), snap.count);
}

/// Renders every metric of every registry as Prometheus text exposition.
/// Entries sharing a base name (labeled variants) are grouped under one
/// `# HELP`/`# TYPE` header; duplicate full names across registries keep
/// the first occurrence.
pub fn render(registries: &[&Registry]) -> String {
    let mut entries: Vec<(String, &'static str, MetricView)> = Vec::new();
    for reg in registries {
        entries.extend(reg.collect());
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries.dedup_by(|a, b| a.0 == b.0);

    let mut out = String::new();
    let mut current_base = String::new();
    for (name, help, view) in &entries {
        let (base, labels) = split_name(name);
        if base != current_base {
            let kind = match view {
                MetricView::Counter(_) => "counter",
                MetricView::Gauge(_) => "gauge",
                MetricView::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP {base} {help}");
            let _ = writeln!(out, "# TYPE {base} {kind}");
            current_base = base.to_string();
        }
        match view {
            MetricView::Counter(v) => {
                let _ = writeln!(out, "{base}{} {v}", wrap_labels(labels));
            }
            MetricView::Gauge(v) => {
                let _ = writeln!(out, "{base}{} {v}", wrap_labels(labels));
            }
            MetricView::Histogram(snap) => render_histogram(&mut out, base, labels, snap),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ENABLED;

    #[test]
    fn renders_counters_gauges_histograms() {
        let reg = Registry::new();
        reg.counter("x_total", "things").add(7);
        reg.gauge("x_depth", "queue depth").set(-2);
        reg.histogram("x_ns", "latency").record(1000);
        let text = render(&[&reg]);
        assert!(text.contains("# TYPE x_total counter"));
        assert!(text.contains("# TYPE x_depth gauge"));
        assert!(text.contains("# TYPE x_ns histogram"));
        if ENABLED {
            assert!(text.contains("x_total 7"));
            assert!(text.contains("x_depth -2"));
            // 1000 lands in bucket 9 → le = 2^10 - 1 = 1023.
            assert!(text.contains("x_ns_bucket{le=\"1023\"} 1"));
            assert!(text.contains("x_ns_sum 1000"));
            assert!(text.contains("x_ns_count 1"));
        }
        assert!(text.contains("x_ns_bucket{le=\"+Inf\"}"));
    }

    #[test]
    fn labeled_variants_share_one_header() {
        let reg = Registry::new();
        reg.counter(crate::labeled("s_total", &[("solver", "sa")]), "per-solver")
            .add(1);
        reg.counter(crate::labeled("s_total", &[("solver", "da")]), "per-solver")
            .add(2);
        let text = render(&[&reg]);
        assert_eq!(text.matches("# TYPE s_total counter").count(), 1);
        if ENABLED {
            assert!(text.contains("s_total{solver=\"da\"} 2"));
            assert!(text.contains("s_total{solver=\"sa\"} 1"));
        }
    }

    #[test]
    fn histogram_labels_merge_with_le() {
        let reg = Registry::new();
        let h = reg.histogram(crate::labeled("st_ns", &[("stage", "decode")]), "per-stage");
        h.record(2);
        let text = render(&[&reg]);
        if ENABLED {
            assert!(text.contains("st_ns_bucket{stage=\"decode\",le=\"3\"} 1"));
        }
        assert!(text.contains("st_ns_bucket{stage=\"decode\",le=\"+Inf\"}"));
        assert!(text.contains("st_ns_sum{stage=\"decode\"}"));
    }

    #[test]
    fn buckets_are_cumulative() {
        if !ENABLED {
            return;
        }
        let reg = Registry::new();
        let h = reg.histogram("c_ns", "h");
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(2); // bucket 1
        let text = render(&[&reg]);
        assert!(text.contains("c_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("c_ns_bucket{le=\"3\"} 3"));
        assert!(text.contains("c_ns_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn duplicate_names_across_registries_dedupe() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("dup_total", "h").add(1);
        b.counter("dup_total", "h").add(9);
        let text = render(&[&a, &b]);
        assert_eq!(text.matches("\ndup_total ").count(), 1);
    }
}
