//! Property-based tests for the observability histograms: quantile
//! estimates over the log₂-bucketed [`obs::Histogram`] must be
//! monotone in the quantile (`q1 <= q2` implies `quantile(q1) <=
//! quantile(q2)`), bounded by the recorded extremes' bucket spans, and
//! stable under recording order and shard interleaving — arbitrary
//! value mixes, including the degenerate single-value and
//! all-identical cases. Label values, which may come off the wire,
//! render escaped: one sample line per series, whatever they contain.

use proptest::prelude::*;

/// Label-value characters: the three the exposition format escapes, the
/// label-set delimiters, the sample separator, plain and non-ASCII text.
const LABEL_CHARS: [char; 12] = ['\\', '"', '\n', '{', '}', ',', '=', ' ', 'a', 'Z', '7', 'é'];

/// Reads one `base{tenant="…"} value` sample line back into its
/// unescaped label value and its value.
fn parse_sample(line: &str, base: &str) -> Option<(String, u64)> {
    let mut rest = line.strip_prefix(base)?.strip_prefix("{tenant=\"")?.chars();
    let mut value = String::new();
    loop {
        match rest.next()? {
            '"' => break,
            '\\' => match rest.next()? {
                'n' => value.push('\n'),
                c @ ('\\' | '"') => value.push(c),
                _ => return None,
            },
            c => value.push(c),
        }
    }
    let sample = rest.as_str().strip_prefix("} ")?.parse().ok()?;
    Some((value, sample))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Monotonicity: walking q from 0 to 1 never walks the estimate
    /// backwards, for arbitrary recorded values and arbitrary q grids.
    #[test]
    fn quantile_is_monotone_in_q(
        values in proptest::collection::vec(0u64..=u64::MAX, 1..200),
        qs in proptest::collection::vec(0.0f64..=1.0, 2..20),
    ) {
        let reg = obs::Registry::new();
        let hist = reg.histogram("prop_ns", "property histogram");
        for &v in &values {
            hist.record(v);
        }
        let snap = hist.snapshot();
        let mut qs = qs;
        qs.sort_by(f64::total_cmp);
        let estimates: Vec<f64> = qs
            .iter()
            .map(|&q| snap.quantile(q).expect("non-empty histogram"))
            .collect();
        for pair in estimates.windows(2) {
            prop_assert!(
                pair[0] <= pair[1],
                "quantile went backwards: {} -> {} over qs {:?}",
                pair[0],
                pair[1],
                qs,
            );
        }
    }

    /// Every estimate stays inside the bucket span of the recorded
    /// extremes: at least the minimum's bucket lower bound, at most
    /// the maximum's bucket upper bound.
    #[test]
    fn quantile_respects_recorded_extremes(
        values in proptest::collection::vec(0u64..=u64::MAX, 1..200),
        q in 0.0f64..=1.0,
    ) {
        let reg = obs::Registry::new();
        let hist = reg.histogram("prop_ns", "property histogram");
        for &v in &values {
            hist.record(v);
        }
        let estimate = hist.snapshot().quantile(q).expect("non-empty histogram");
        let min_bucket = obs::Histogram::bucket_of(*values.iter().min().expect("non-empty"));
        let max_bucket = obs::Histogram::bucket_of(*values.iter().max().expect("non-empty"));
        let lower = if min_bucket == 0 { 0.0 } else { (min_bucket as f64).exp2() };
        let upper = ((max_bucket + 1) as f64).exp2();
        prop_assert!(
            estimate >= lower && estimate <= upper,
            "quantile({q}) = {estimate} escaped bucket span [{lower}, {upper}]"
        );
    }

    /// Recording order is irrelevant: a histogram is a pure multiset
    /// reduction, so any permutation (here: reversal, plus a
    /// two-handle interleave simulating shards) snapshots identically.
    #[test]
    fn order_and_interleaving_invariance(
        values in proptest::collection::vec(0u64..=u64::MAX, 1..100),
    ) {
        let forward = obs::Registry::new();
        let hist_f = forward.histogram("prop_ns", "property histogram");
        for &v in &values {
            hist_f.record(v);
        }
        let backward = obs::Registry::new();
        let hist_b = backward.histogram("prop_ns", "property histogram");
        // Same name → same metric: two handles feed one histogram's
        // shards, alternating, in reverse order.
        let hist_b2 = backward.histogram("prop_ns", "property histogram");
        for (k, &v) in values.iter().rev().enumerate() {
            if k % 2 == 0 { hist_b.record(v) } else { hist_b2.record(v) }
        }
        let (a, b) = (hist_f.snapshot(), hist_b.snapshot());
        prop_assert_eq!(a.count, b.count);
        prop_assert_eq!(a.sum, b.sum);
        prop_assert_eq!(a.buckets, b.buckets);
    }

    /// Any label value renders as exactly one sample line per series,
    /// whose label unescapes back to the value and whose sample parses
    /// back to what was counted.
    #[test]
    fn any_label_value_renders_one_parseable_sample_line(
        series in proptest::collection::vec(
            (proptest::collection::vec(0usize..LABEL_CHARS.len(), 0..12), 0u64..1_000_000),
            1..8,
        ),
    ) {
        let reg = obs::Registry::new();
        let mut want = std::collections::BTreeMap::new();
        for (chars, n) in &series {
            let value: String = chars.iter().map(|&k| LABEL_CHARS[k]).collect();
            reg.counter(obs::labeled("prop_total", &[("tenant", &value)]), "per-tenant")
                .add(*n);
            *want.entry(value).or_insert(0) += if obs::ENABLED { *n } else { 0 };
        }
        let text = obs::prom::render(&[&reg]);
        let samples: Vec<&str> = text
            .split('\n')
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .collect();
        prop_assert_eq!(samples.len(), want.len(), "exposition:\n{}", text);
        let mut got = std::collections::BTreeMap::new();
        for line in samples {
            let parsed = parse_sample(line, "prop_total");
            prop_assert!(parsed.is_some(), "unparseable sample line: {:?}", line);
            let (value, n) = parsed.expect("checked");
            got.insert(value, n);
        }
        prop_assert_eq!(got, want);
    }
}
