//! Property-based tests for the serving path's core contract:
//! `Surrogate::predict_many_with` (the micro-batcher's primitive) is
//! **bit-identical** — exact `f64` equality, not epsilon-close — to
//! per-row `Surrogate::predict`, for arbitrary surrogates, arbitrary
//! query mixes and arbitrary batch shapes. This is what makes batching
//! invisible to clients: whatever requests happen to share a forward
//! pass, every response is exactly what a sequential server would send.

use proptest::prelude::*;

use qross_repro::mathkit::stats::ZScore;
use qross_repro::neural::network::MlpBuilder;
use qross_repro::qross::dataset::Scalers;
use qross_repro::qross::surrogate::{PredictScratch, Surrogate, SurrogateState};

/// A surrogate with seed-derived weights and property-drawn scalers —
/// covers wildly different network weights and normalisations without
/// shipping megabytes of drawn parameters per case.
fn surrogate_strategy() -> impl Strategy<Value = Surrogate> {
    (
        1usize..6,      // feature width
        4usize..24,     // hidden width
        0u64..u64::MAX, // weight seed
        -3.0..3.0f64,   // scaler mean magnitude
        0.05..4.0f64,   // scaler std
    )
        .prop_map(|(feat_dim, hidden, seed, mean, std)| {
            let input = feat_dim + 1;
            let state = SurrogateState {
                pf_net: MlpBuilder::new(input)
                    .dense(hidden)
                    .relu()
                    .dense(1)
                    .sigmoid()
                    .build(seed)
                    .to_state(),
                e_net: MlpBuilder::new(input)
                    .dense(hidden)
                    .tanh()
                    .dense(2)
                    .build(seed ^ 0xABCD)
                    .to_state(),
                scalers: Scalers {
                    features: (0..feat_dim)
                        .map(|c| ZScore {
                            mean: mean * (c as f64 + 1.0),
                            std,
                        })
                        .collect(),
                    log_a: ZScore { mean: 0.0, std },
                    e_avg: ZScore { mean, std },
                    e_std: ZScore {
                        mean: mean.abs(),
                        std,
                    },
                },
            };
            Surrogate::from_state(state).expect("consistent state")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// predict_many_with == map(predict), bit for bit, for any surrogate and
    /// any query batch.
    #[test]
    fn predict_many_is_bit_identical_to_predict(
        sur in surrogate_strategy(),
        raw_queries in proptest::collection::vec(
            (proptest::collection::vec(-50.0..50.0f64, 6), 1e-3..1e3f64),
            1..40,
        ),
    ) {
        let feat_dim = sur.scalers().input_dim() - 1;
        let queries: Vec<(Vec<f64>, f64)> = raw_queries
            .into_iter()
            .map(|(mut f, a)| {
                f.truncate(feat_dim);
                (f, a)
            })
            .collect();
        let refs: Vec<(&[f64], f64)> =
            queries.iter().map(|(f, a)| (f.as_slice(), *a)).collect();
        let batched = sur.predict_many_with(&mut PredictScratch::new(), &refs);
        prop_assert_eq!(batched.len(), refs.len());
        for (k, &(f, a)) in refs.iter().enumerate() {
            let single = sur.predict(f, a);
            prop_assert_eq!(
                batched[k].pf.to_bits(), single.pf.to_bits(),
                "Pf changed bits at row {} of {}", k, refs.len()
            );
            prop_assert_eq!(batched[k].e_avg.to_bits(), single.e_avg.to_bits());
            prop_assert_eq!(batched[k].e_std.to_bits(), single.e_std.to_bits());
        }
    }

    /// Splitting one batch at any point and concatenating the halves
    /// yields the same bits — the engine may cut batches anywhere.
    #[test]
    fn batch_boundaries_are_invisible(
        sur in surrogate_strategy(),
        a_grid in proptest::collection::vec(1e-2..1e2f64, 2..24),
        split in 0usize..24,
        feature_scale in -10.0..10.0f64,
    ) {
        let feat_dim = sur.scalers().input_dim() - 1;
        let features: Vec<f64> =
            (0..feat_dim).map(|c| feature_scale * (c as f64 - 1.0)).collect();
        let refs: Vec<(&[f64], f64)> =
            a_grid.iter().map(|&a| (features.as_slice(), a)).collect();
        // One scratch across the three calls, as an engine worker reuses it.
        let mut scratch = PredictScratch::new();
        let whole = sur.predict_many_with(&mut scratch, &refs);
        let cut = split.min(refs.len());
        let mut parts = sur.predict_many_with(&mut scratch, &refs[..cut]);
        parts.extend(sur.predict_many_with(&mut scratch, &refs[cut..]));
        prop_assert_eq!(&whole, &parts);
        // And predict_grid (one instance, many A) agrees with both.
        let grid = sur.predict_grid(&features, &a_grid);
        prop_assert_eq!(&whole, &grid);
    }
}
