//! The solver surrogate (paper §3.2, appendix G).
//!
//! Two fully-connected heads over the shared input `[features ‖ z(ln A)]`:
//!
//! * the **Pf net** ends in a sigmoid and is trained with binary
//!   cross-entropy against the (soft) feasibility fractions;
//! * the **energy net** has two linear outputs — normalised `Eavg` and
//!   `Estd` — trained with Huber loss ("we are expecting many outliers...
//!   due to the stochastic nature of a QUBO solver").
//!
//! The paper trains the heads separately (appendix G: "Since the nature of
//! Pf is different from that of Eavg and Estd, we train these targets
//! separately"); so does [`Surrogate::train`].

use serde::{Deserialize, Serialize};

use mathkit::Matrix;
use neural::loss::Loss;
use neural::network::{Mlp, MlpBuilder, MlpState};
use neural::trainer::{train, TrainConfig, TrainHistory};

use crate::dataset::{to_matrices, Scalers, SurrogateDataset};
use crate::QrossError;

/// Surrogate architecture and training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurrogateConfig {
    /// hidden width of both heads
    pub hidden: usize,
    /// training epochs per head
    pub epochs: usize,
    /// Adam learning rate
    pub learning_rate: f64,
    /// mini-batch size
    pub batch_size: usize,
    /// fraction of rows held out for validation tracking
    pub val_fraction: f64,
    /// weight-init / shuffling seed
    pub seed: u64,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            hidden: 64,
            epochs: 300,
            learning_rate: 3e-3,
            batch_size: 64,
            val_fraction: 0.1,
            seed: 0,
        }
    }
}

/// Hyper-parameters for [`Surrogate::fine_tune`] — one continual-learning
/// refresh, as opposed to the from-scratch [`SurrogateConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FineTuneConfig {
    /// gradient epochs over the merged dataset
    pub epochs: usize,
    /// Adam learning rate (typically well below the offline rate — the
    /// heads start from trained weights)
    pub learning_rate: f64,
    /// mini-batch size
    pub batch_size: usize,
    /// shuffling seed — fine-tuning is bit-reproducible given it
    pub seed: u64,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        FineTuneConfig {
            epochs: 60,
            learning_rate: 5e-4,
            batch_size: 32,
            seed: 0,
        }
    }
}

/// Prediction triple for one `(instance, A)` query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurrogatePrediction {
    /// predicted probability of feasibility, in `[0, 1]`
    pub pf: f64,
    /// predicted batch mean energy (original energy units)
    pub e_avg: f64,
    /// predicted batch energy standard deviation (original units, ≥ 0)
    pub e_std: f64,
}

/// Reusable input-staging buffer for the batched predict path
/// ([`Surrogate::predict_many_with`]; [`Surrogate::predict_grid`] uses a
/// fresh one).
///
/// The batched path stages query rows into an input matrix before the
/// forward pass; holding one scratch per worker keeps that staging
/// allocation out of the serve hot loop (the same pattern as solver
/// replica scratch reuse). Using a scratch never changes any output bit.
#[derive(Debug)]
pub struct PredictScratch {
    x: Matrix,
}

impl PredictScratch {
    /// Creates an empty scratch; buffers grow on first use and are
    /// reused afterwards.
    pub fn new() -> Self {
        PredictScratch {
            x: Matrix::zeros(0, 0),
        }
    }
}

impl Default for PredictScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Training diagnostics returned alongside the surrogate.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Pf-head loss history
    pub pf: TrainHistory,
    /// energy-head loss history
    pub energy: TrainHistory,
    /// rows used for training
    pub train_rows: usize,
    /// rows used for validation
    pub val_rows: usize,
}

/// The trained solver surrogate.
///
/// Thread-safe *without locks*: prediction runs the networks' immutable
/// inference path ([`neural::network::Mlp::infer`], which writes no
/// activation caches), so `&Surrogate` is `Sync` and any number of
/// strategy workers can query one surrogate concurrently — the predict
/// hot path acquires no mutex.
#[derive(Debug)]
pub struct Surrogate {
    pf_net: Mlp,
    e_net: Mlp,
    scalers: Scalers,
}

/// Serialisable snapshot of a [`Surrogate`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SurrogateState {
    /// Pf-head network
    pub pf_net: MlpState,
    /// energy-head network
    pub e_net: MlpState,
    /// input/target normalisation
    pub scalers: Scalers,
}

/// Output width of a network snapshot: the last dense layer's width
/// (activations preserve width), or `None` for a dense-free stack.
fn state_output_dim(state: &MlpState) -> Option<usize> {
    state.layers.iter().rev().find_map(|l| match l {
        neural::layers::LayerSpec::Dense { output, .. } => Some(*output),
        _ => None,
    })
}

impl SurrogateState {
    /// Checks the *cross-component* invariants [`Surrogate::predict`]
    /// relies on: both heads consume exactly the scalers' input width,
    /// the Pf head emits 1 output and the energy head 2. (Per-network
    /// internal consistency is checked by [`Mlp::from_state`].)
    ///
    /// Decoders run this so a crafted snapshot with mismatched sections
    /// surfaces as a typed error instead of a panic at predict time.
    ///
    /// # Errors
    ///
    /// Returns [`QrossError::Persistence`] describing the mismatch.
    pub fn validate(&self) -> Result<(), QrossError> {
        let expect = self.scalers.input_dim();
        let err = |message: String| Err(QrossError::Persistence { message });
        if self.pf_net.input_dim != expect {
            return err(format!(
                "pf net consumes {} inputs but the scalers produce {expect}",
                self.pf_net.input_dim
            ));
        }
        if self.e_net.input_dim != expect {
            return err(format!(
                "energy net consumes {} inputs but the scalers produce {expect}",
                self.e_net.input_dim
            ));
        }
        if state_output_dim(&self.pf_net) != Some(1) {
            return err(format!(
                "pf net emits {:?} outputs, expected 1",
                state_output_dim(&self.pf_net)
            ));
        }
        if state_output_dim(&self.e_net) != Some(2) {
            return err(format!(
                "energy net emits {:?} outputs, expected 2 (Eavg, Estd)",
                state_output_dim(&self.e_net)
            ));
        }
        Ok(())
    }
}

impl Surrogate {
    /// Trains a surrogate on `dataset`.
    ///
    /// # Errors
    ///
    /// * [`QrossError::BadDataset`] when the dataset is empty.
    /// * [`QrossError::TrainingDiverged`] when either head's loss becomes
    ///   non-finite.
    pub fn train(
        dataset: &SurrogateDataset,
        config: &SurrogateConfig,
    ) -> Result<(Self, TrainReport), QrossError> {
        let (train_set, val_set) = dataset.split(config.val_fraction, config.seed);
        if train_set.is_empty() {
            return Err(QrossError::BadDataset {
                message: "empty training split".to_string(),
            });
        }
        let scalers = Scalers::fit(&train_set)?;
        let tm = to_matrices(&train_set, &scalers)?;
        let vm = if val_set.is_empty() {
            None
        } else {
            Some(to_matrices(&val_set, &scalers)?)
        };
        let input_dim = scalers.input_dim();

        let mut pf_net = MlpBuilder::new(input_dim)
            .dense(config.hidden)
            .relu()
            .dense(config.hidden)
            .relu()
            .dense(1)
            .sigmoid()
            .build(mathkit::rng::derive_seed(config.seed, 1));
        let mut e_net = MlpBuilder::new(input_dim)
            .dense(config.hidden)
            .relu()
            .dense(config.hidden)
            .relu()
            .dense(2)
            .build(mathkit::rng::derive_seed(config.seed, 2));

        let tc = TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            learning_rate: config.learning_rate,
            seed: config.seed,
        };
        let pf_hist = train(
            &mut pf_net,
            &tm.x,
            &tm.y_pf,
            vm.as_ref().map(|v| (&v.x, &v.y_pf)),
            &Loss::Bce,
            &tc,
        );
        if pf_hist.diverged {
            return Err(QrossError::TrainingDiverged);
        }
        let e_hist = train(
            &mut e_net,
            &tm.x,
            &tm.y_energy,
            vm.as_ref().map(|v| (&v.x, &v.y_energy)),
            &Loss::Huber { delta: 1.0 },
            &tc,
        );
        if e_hist.diverged {
            return Err(QrossError::TrainingDiverged);
        }
        let report = TrainReport {
            pf: pf_hist,
            energy: e_hist,
            train_rows: train_set.len(),
            val_rows: val_set.len(),
        };
        Ok((
            Surrogate {
                pf_net,
                e_net,
                scalers,
            },
            report,
        ))
    }

    /// Fine-tunes a copy of this surrogate on `dataset`, resuming from
    /// the current weights — the continual-learning counterpart of
    /// [`Surrogate::train`], used by the serving engine's retrain/swap
    /// loop.
    ///
    /// Two deliberate differences from a fresh train:
    ///
    /// * **weights resume** ([`neural::trainer::fine_tune`]): both heads
    ///   continue gradient descent from their trained state instead of
    ///   re-initialising, so a handful of epochs on a small feedback
    ///   merge adjusts the model rather than rebuilding it;
    /// * **scalers are frozen**: the input/target normalisation fitted at
    ///   offline training time is reused verbatim. Feature geometry must
    ///   stay fixed across generations for hot-swap to be transparent
    ///   (same `feature_dim`, same input transform), and refitting
    ///   scalers on a replay mix would silently re-scale the energy
    ///   heads' output units between generations.
    ///
    /// `self` is untouched — serving continues on it while the returned
    /// copy trains. Bit-reproducible given `(self, dataset, config)`.
    ///
    /// # Errors
    ///
    /// * [`QrossError::BadDataset`] — empty dataset or a feature width
    ///   differing from the trained one.
    /// * [`QrossError::TrainingDiverged`] — a head's loss became
    ///   non-finite during fine-tuning.
    /// * [`QrossError::Persistence`] — a head's snapshot failed to
    ///   rebuild for the resumed copy (unreachable for surrogates built
    ///   through the public API, which only hold valid networks).
    pub fn fine_tune(
        &self,
        dataset: &SurrogateDataset,
        config: &FineTuneConfig,
    ) -> Result<(Self, TrainReport), QrossError> {
        if dataset.feat_dim() + 1 != self.scalers.input_dim() {
            return Err(QrossError::BadDataset {
                message: format!(
                    "fine-tune dataset is {}-wide but the surrogate was trained on {} features",
                    dataset.feat_dim(),
                    self.scalers.input_dim() - 1
                ),
            });
        }
        let tm = to_matrices(dataset, &self.scalers)?;
        let tc = TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            learning_rate: config.learning_rate,
            seed: config.seed,
        };
        let tune =
            |net: &Mlp, y: &Matrix, loss: &Loss| -> Result<(Mlp, TrainHistory), QrossError> {
                let (tuned, hist) = neural::trainer::fine_tune(net, &tm.x, y, None, loss, &tc)
                    .map_err(|e| QrossError::Persistence {
                        message: format!("resuming from trained weights: {e}"),
                    })?;
                if hist.diverged {
                    return Err(QrossError::TrainingDiverged);
                }
                Ok((tuned, hist))
            };
        let (pf_net, pf_hist) = tune(&self.pf_net, &tm.y_pf, &Loss::Bce)?;
        let (e_net, e_hist) = tune(&self.e_net, &tm.y_energy, &Loss::Huber { delta: 1.0 })?;
        let report = TrainReport {
            pf: pf_hist,
            energy: e_hist,
            train_rows: dataset.len(),
            val_rows: 0,
        };
        Ok((
            Surrogate {
                pf_net,
                e_net,
                scalers: self.scalers.clone(),
            },
            report,
        ))
    }

    /// Predicts `(Pf, Eavg, Estd)` for one query.
    ///
    /// Lock-free: runs the immutable inference path, so concurrent calls
    /// from many threads never contend.
    ///
    /// # Panics
    ///
    /// Panics if the feature width differs from training or `a <= 0`.
    pub fn predict(&self, features: &[f64], a: f64) -> SurrogatePrediction {
        let input = Matrix::row(&self.scalers.input_row(features, a));
        let pf = self.pf_net.infer(&input)[(0, 0)];
        let e_out = self.e_net.infer(&input);
        SurrogatePrediction {
            pf: pf.clamp(0.0, 1.0),
            e_avg: self.scalers.e_avg.inverse(e_out[(0, 0)]),
            e_std: self.scalers.e_std.inverse(e_out[(0, 1)]).max(1e-9),
        }
    }

    /// Predicts a whole candidate-`A` grid for one instance in a single
    /// batched matrix forward per head — the vectorised form of
    /// [`Surrogate::predict`] used by the MFS/PBS grid scans, where it
    /// replaces `a_values.len()` scalar forwards with one.
    ///
    /// Row `r` of the result equals `predict(features, a_values[r])`
    /// exactly (each matrix row is accumulated independently in the same
    /// order as a 1-row forward).
    ///
    /// # Panics
    ///
    /// Panics on feature-width mismatch or a non-positive `a`.
    pub fn predict_grid(&self, features: &[f64], a_values: &[f64]) -> Vec<SurrogatePrediction> {
        let rows = a_values.iter().map(|&a| (features, a));
        self.predict_rows(&mut PredictScratch::new(), rows)
    }

    /// Predicts many independent `(features, A)` queries in a single
    /// batched matrix forward per head — the serving engine's micro-batch
    /// primitive. Where [`Surrogate::predict_grid`] batches one instance
    /// over many `A` values, this batches arbitrary queries from
    /// *different* instances (and different `A`s) into one forward pass.
    /// The input rows are staged in `scratch`, which the engine holds one
    /// of per worker thread; a fresh [`PredictScratch::new`] gives the
    /// same bits.
    ///
    /// **Bit-exactness contract**: entry `k` of the result equals
    /// `predict(queries[k].0, queries[k].1)` with exact `f64` equality.
    /// Every row of a matrix forward is accumulated independently, in the
    /// same operation order as a 1-row forward ([`mathkit::Matrix::matmul`]
    /// streams each output row on its own), so stacking rows cannot change
    /// any bit of any row — the property that lets the serving engine
    /// batch concurrent requests without changing their answers. The
    /// `proptest_serve` suite asserts this with exact equality.
    ///
    /// # Panics
    ///
    /// Panics on feature-width mismatch or a non-positive `a` (callers
    /// that face untrusted input — the serving engine — validate first).
    pub fn predict_many_with(
        &self,
        scratch: &mut PredictScratch,
        queries: &[(&[f64], f64)],
    ) -> Vec<SurrogatePrediction> {
        self.predict_rows(scratch, queries.iter().copied())
    }

    /// The one batched body behind [`Surrogate::predict_grid`] and
    /// [`Surrogate::predict_many_with`]: stages the `(features, A)` rows
    /// into `scratch`, runs one forward per head and unscales each
    /// output row.
    fn predict_rows<'q>(
        &self,
        scratch: &mut PredictScratch,
        rows: impl ExactSizeIterator<Item = (&'q [f64], f64)>,
    ) -> Vec<SurrogatePrediction> {
        let n = rows.len();
        if n == 0 {
            return Vec::new();
        }
        let x = &mut scratch.x;
        x.reset_zeroed(n, self.scalers.input_dim());
        for (r, (features, a)) in rows.enumerate() {
            x.row_slice_mut(r)
                .copy_from_slice(&self.scalers.input_row(features, a));
        }
        let pf_out = self.pf_net.infer(x);
        let e_out = self.e_net.infer(x);
        (0..n)
            .map(|r| SurrogatePrediction {
                pf: pf_out[(r, 0)].clamp(0.0, 1.0),
                e_avg: self.scalers.e_avg.inverse(e_out[(r, 0)]),
                e_std: self.scalers.e_std.inverse(e_out[(r, 1)]).max(1e-9),
            })
            .collect()
    }

    /// The fitted normalisation parameters.
    pub fn scalers(&self) -> &Scalers {
        &self.scalers
    }

    /// The relaxation-parameter range covered by the training data:
    /// `exp(mean ± sigmas·std)` of the trained `ln A` distribution.
    ///
    /// Offline strategies clamp their search to this range — outside it
    /// the surrogate extrapolates, and extrapolated energy heads produce
    /// spurious minima at the domain edges (the classic surrogate-
    /// optimisation failure mode).
    pub fn trained_a_range(&self, sigmas: f64) -> (f64, f64) {
        let z = &self.scalers.log_a;
        (
            (z.mean - sigmas * z.std).exp(),
            (z.mean + sigmas * z.std).exp(),
        )
    }

    /// Serialisable snapshot.
    pub fn to_state(&self) -> SurrogateState {
        SurrogateState {
            pf_net: self.pf_net.to_state(),
            e_net: self.e_net.to_state(),
            scalers: self.scalers.clone(),
        }
    }

    /// Restores a surrogate from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`QrossError::Persistence`] for inconsistent network
    /// shapes, within a head ([`Mlp::from_state`]) or across the
    /// snapshot's components ([`SurrogateState::validate`]).
    pub fn from_state(state: SurrogateState) -> Result<Self, QrossError> {
        state.validate()?;
        let pf_net = Mlp::from_state(&state.pf_net).map_err(|e| QrossError::Persistence {
            message: format!("pf net: {e}"),
        })?;
        let e_net = Mlp::from_state(&state.e_net).map_err(|e| QrossError::Persistence {
            message: format!("energy net: {e}"),
        })?;
        Ok(Surrogate {
            pf_net,
            e_net,
            scalers: state.scalers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetRow;
    use mathkit::special::sigmoid;

    /// Synthetic "solver" ground truth: Pf follows a sigmoid in ln A whose
    /// midpoint shifts with the (single) feature; energies dip near the
    /// midpoint.
    fn synthetic_dataset(instances: usize, points: usize) -> SurrogateDataset {
        let mut ds = SurrogateDataset::new(1);
        for g in 0..instances {
            let feature = g as f64 / instances as f64; // in [0, 1)
            let midpoint = -0.5 + feature; // ln-A midpoint rises with feature
            for k in 0..points {
                let ln_a = -3.0 + 6.0 * k as f64 / (points - 1) as f64;
                let pf = sigmoid(4.0 * (ln_a - midpoint));
                let e_avg = 10.0 + 5.0 * (ln_a - midpoint).tanh() + feature;
                let e_std = 1.0 + 0.5 * (1.0 - pf);
                ds.push(DatasetRow {
                    features: vec![feature],
                    a: ln_a.exp(),
                    pf,
                    e_avg,
                    e_std,
                });
            }
        }
        ds
    }

    fn quick_config() -> SurrogateConfig {
        SurrogateConfig {
            hidden: 24,
            epochs: 250,
            learning_rate: 5e-3,
            batch_size: 32,
            val_fraction: 0.1,
            seed: 3,
        }
    }

    #[test]
    fn learns_sigmoid_structure() {
        let ds = synthetic_dataset(12, 15);
        let (sur, report) = Surrogate::train(&ds, &quick_config()).unwrap();
        assert!(report.train_rows > 0 && report.val_rows > 0);
        // Pf must be low below the midpoint and high above, for a feature
        // in the training range.
        let f = [0.5];
        let low = sur.predict(&f, (-3.0f64).exp());
        let high = sur.predict(&f, (3.0f64).exp());
        assert!(low.pf < 0.25, "low-A Pf = {}", low.pf);
        assert!(high.pf > 0.75, "high-A Pf = {}", high.pf);
    }

    #[test]
    fn energy_predictions_in_plausible_range() {
        let ds = synthetic_dataset(10, 12);
        let (sur, _) = Surrogate::train(&ds, &quick_config()).unwrap();
        let p = sur.predict(&[0.4], 1.0);
        assert!((4.0..=18.0).contains(&p.e_avg), "e_avg {}", p.e_avg);
        assert!(p.e_std > 0.0 && p.e_std < 4.0, "e_std {}", p.e_std);
    }

    #[test]
    fn feature_shifts_the_midpoint() {
        // The surrogate must use the *feature*, not just A: different
        // features → different Pf at the same A.
        let ds = synthetic_dataset(12, 15);
        let (sur, _) = Surrogate::train(&ds, &quick_config()).unwrap();
        let a = 1.0; // ln A = 0: above the midpoint for small features,
                     // below for large ones
        let small = sur.predict(&[0.05], a);
        let large = sur.predict(&[0.95], a);
        assert!(
            small.pf > large.pf + 0.2,
            "feature ignored: {} vs {}",
            small.pf,
            large.pf
        );
    }

    #[test]
    fn grid_matches_pointwise() {
        let ds = synthetic_dataset(8, 10);
        let (sur, _) = Surrogate::train(&ds, &quick_config()).unwrap();
        let f = [0.3];
        let a_values = [0.1, 0.5, 1.0, 5.0];
        let grid = sur.predict_grid(&f, &a_values);
        for (k, &a) in a_values.iter().enumerate() {
            let single = sur.predict(&f, a);
            assert!((grid[k].pf - single.pf).abs() < 1e-12);
            assert!((grid[k].e_avg - single.e_avg).abs() < 1e-12);
            assert!((grid[k].e_std - single.e_std).abs() < 1e-12);
        }
        assert!(sur.predict_grid(&f, &[]).is_empty());
    }

    #[test]
    fn predict_many_is_bit_identical_to_per_row_predict() {
        let ds = synthetic_dataset(8, 10);
        let (sur, _) = Surrogate::train(&ds, &quick_config()).unwrap();
        let feats: Vec<Vec<f64>> = (0..7).map(|k| vec![k as f64 / 7.0]).collect();
        let queries: Vec<(&[f64], f64)> = feats
            .iter()
            .enumerate()
            .map(|(k, f)| (f.as_slice(), 0.1 + 0.7 * k as f64))
            .collect();
        let batched = sur.predict_many_with(&mut PredictScratch::new(), &queries);
        assert_eq!(batched.len(), queries.len());
        for (k, &(f, a)) in queries.iter().enumerate() {
            let single = sur.predict(f, a);
            assert_eq!(batched[k].pf.to_bits(), single.pf.to_bits());
            assert_eq!(batched[k].e_avg.to_bits(), single.e_avg.to_bits());
            assert_eq!(batched[k].e_std.to_bits(), single.e_std.to_bits());
        }
        assert!(sur
            .predict_many_with(&mut PredictScratch::new(), &[])
            .is_empty());
    }

    #[test]
    fn concurrent_prediction_is_consistent() {
        let ds = synthetic_dataset(8, 10);
        let (sur, _) = Surrogate::train(&ds, &quick_config()).unwrap();
        let f = [0.4];
        let want = sur.predict(&f, 1.3);
        let sur = &sur;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(sur.predict(&f, 1.3), want);
                    }
                });
            }
        });
    }

    #[test]
    fn zero_epochs_trains_without_panic() {
        // epochs == 0 must produce an (untrained) surrogate and an empty
        // loss history, never a panic on first()/last() accesses.
        let ds = synthetic_dataset(6, 8);
        let cfg = SurrogateConfig {
            epochs: 0,
            ..quick_config()
        };
        let (sur, report) = Surrogate::train(&ds, &cfg).unwrap();
        assert!(report.pf.train_loss.is_empty());
        assert_eq!(report.pf.initial_train_loss(), None);
        assert_eq!(report.pf.final_train_loss(), None);
        let p = sur.predict(&[0.5], 1.0);
        assert!(p.pf.is_finite() && p.e_avg.is_finite() && p.e_std.is_finite());
    }

    #[test]
    fn fine_tune_is_deterministic_and_freezes_scalers() {
        let ds = synthetic_dataset(8, 10);
        let (sur, _) = Surrogate::train(&ds, &quick_config()).unwrap();
        let cfg = FineTuneConfig {
            epochs: 20,
            seed: 11,
            ..Default::default()
        };
        let (a, report) = sur.fine_tune(&ds, &cfg).unwrap();
        let (b, _) = sur.fine_tune(&ds, &cfg).unwrap();
        // Bit-reproducible given (base, dataset, config).
        let p = |s: &Surrogate| s.predict(&[0.4], 1.2);
        assert_eq!(p(&a), p(&b));
        assert_eq!(report.val_rows, 0);
        assert_eq!(report.train_rows, ds.len());
        // Scalers are frozen: input/target normalisation is unchanged.
        assert_eq!(a.scalers(), sur.scalers());
        // The base surrogate is untouched by the tuning.
        let before = p(&sur);
        let _ = sur.fine_tune(&ds, &cfg).unwrap();
        assert_eq!(p(&sur), before);
    }

    #[test]
    fn fine_tune_improves_on_shifted_data() {
        // Train on one regime, fine-tune on a shifted one: the tuned
        // model must fit the new data better than the frozen base.
        let ds = synthetic_dataset(10, 12);
        let (sur, _) = Surrogate::train(&ds, &quick_config()).unwrap();
        let mut shifted = SurrogateDataset::new(1);
        for row in ds.rows() {
            shifted.push(DatasetRow {
                e_avg: row.e_avg + 3.0,
                ..row.clone()
            });
        }
        let cfg = FineTuneConfig {
            epochs: 120,
            learning_rate: 2e-3,
            ..Default::default()
        };
        let (tuned, _) = sur.fine_tune(&shifted, &cfg).unwrap();
        let sse = |s: &Surrogate| -> f64 {
            shifted
                .rows()
                .iter()
                .map(|r| (s.predict(&r.features, r.a).e_avg - r.e_avg).powi(2))
                .sum()
        };
        assert!(
            sse(&tuned) < sse(&sur) * 0.6,
            "fine-tune did not adapt: {} vs base {}",
            sse(&tuned),
            sse(&sur)
        );
    }

    #[test]
    fn fine_tune_rejects_bad_datasets() {
        let ds = synthetic_dataset(6, 8);
        let (sur, _) = Surrogate::train(&ds, &quick_config()).unwrap();
        let cfg = FineTuneConfig::default();
        assert!(matches!(
            sur.fine_tune(&SurrogateDataset::new(1), &cfg),
            Err(QrossError::BadDataset { .. })
        ));
        assert!(matches!(
            sur.fine_tune(&SurrogateDataset::new(3), &cfg),
            Err(QrossError::BadDataset { .. })
        ));
    }

    #[test]
    fn empty_dataset_rejected() {
        let ds = SurrogateDataset::new(2);
        assert!(matches!(
            Surrogate::train(&ds, &quick_config()),
            Err(QrossError::BadDataset { .. })
        ));
    }

    /// Reusing a scratch is an allocation optimisation only: it must
    /// return exactly the f64 bits of a fresh scratch, including when the
    /// same scratch is reused across calls of different batch sizes (the
    /// serving worker's access pattern).
    #[test]
    fn scratch_variants_are_bit_identical() {
        let ds = synthetic_dataset(10, 12);
        let (sur, _) = Surrogate::train(&ds, &quick_config()).unwrap();
        let assert_same = |a: &[SurrogatePrediction], b: &[SurrogatePrediction]| {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.pf.to_bits(), y.pf.to_bits());
                assert_eq!(x.e_avg.to_bits(), y.e_avg.to_bits());
                assert_eq!(x.e_std.to_bits(), y.e_std.to_bits());
            }
        };

        let mut scratch = PredictScratch::new();
        // Shrinking, growing, and single-row batches through one scratch.
        for &rows in &[7usize, 2, 13, 1, 64] {
            let a_values: Vec<f64> = (0..rows).map(|k| 0.2 + 0.37 * k as f64).collect();
            let grid = sur.predict_grid(&[0.4], &a_values);
            let grid_queries: Vec<(&[f64], f64)> =
                a_values.iter().map(|&a| (&[0.4][..], a)).collect();
            let grid_scratch = sur.predict_many_with(&mut scratch, &grid_queries);
            assert_same(&grid, &grid_scratch);

            let feats: Vec<[f64; 1]> = (0..rows).map(|k| [k as f64 / rows as f64]).collect();
            let queries: Vec<(&[f64], f64)> = feats
                .iter()
                .zip(&a_values)
                .map(|(f, &a)| (f.as_slice(), a))
                .collect();
            let many = sur.predict_many_with(&mut PredictScratch::new(), &queries);
            let many_scratch = sur.predict_many_with(&mut scratch, &queries);
            assert_same(&many, &many_scratch);
        }
    }
}
