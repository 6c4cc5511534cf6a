//! End-to-end training pipeline (paper Fig. 2, upper half).
//!
//! Generates the synthetic dataset (appendix D), collects solver profiles
//! over the A-schedule (§3.3), featurises instances, and trains the
//! surrogate (§3.2). Every stage is seeded from one root seed.
//!
//! # Train once, serve many
//!
//! The pipeline is split into three explicit stages that communicate
//! through persistable artifacts (`qross-store`):
//!
//! 1. **collect** — [`Pipeline::collect_corpus`] runs generation +
//!    solver-data collection and returns a [`CollectedCorpus`] (the
//!    dataset plus everything needed to retrain: config, featurizer
//!    recipe, instances). Collection dominates the pipeline's cost, so
//!    persisting the corpus lets training hyper-parameters be iterated
//!    without re-running a single solver batch.
//! 2. **train** — [`TrainedQross::train_on_corpus`] fits the surrogate on
//!    a corpus (freshly collected or reloaded from disk).
//! 3. **serve** — [`TrainedQross::save`] writes a [`QrossBundle`]
//!    (`.qross` container) that [`TrainedQross::load`] restores in any
//!    later process; the reloaded surrogate's predictions and the
//!    strategies built from it ([`TrainedQross::strategy_for`]) are
//!    *bit-identical* to the training process's.
//!
//! [`Pipeline::try_run`] still executes collect + train in one call for
//! callers that do not need the split.
//!
//! Two built-in scales:
//!
//! * [`PipelineConfig::quick`] — laptop scale: smaller instances, fewer
//!   of them, smaller batches. Preserves every qualitative property the
//!   experiments check (sigmoid Pf, energy dip on the slope, QROSS-beats-
//!   baselines ordering) at a fraction of the compute.
//! * [`PipelineConfig::paper`] — the paper's settings: 300 instances of
//!   20–30 cities (270/30 split), B = 128.
//!
//! # Parallel collection
//!
//! Solver-data collection dominates the pipeline's cost: every training
//! instance needs a full A-profile, i.e. dozens of solver batches. The
//! instances are independent, so [`collect_dataset`] fans
//! [`collect_profile`] out across a chunked worker pool
//! ([`solvers::parallel::parallel_map_with_workers`]) and assembles the
//! profiles into the [`SurrogateDataset`] *in instance order* afterwards.
//!
//! **Seed-derivation contract**: instance `idx` is always collected with
//! `derive_seed(seed, 100 + idx)` — never with anything derived from the
//! worker or chunk that happened to run it.
//!
//! **Thread-count invariance**: together with the order-preserving
//! assembly, that contract makes the dataset (and hence the trained
//! surrogate) **bit-identical for any worker count**, including fully
//! sequential. [`PipelineConfig::workers`] is therefore purely a
//! throughput knob: `0` (the default) uses one worker per core, `1` runs
//! the whole collection — including the solvers' own replica fan-out — on
//! the calling thread, and any other value pins the exact pool size.

use problems::tsp::generator::{GeneratorConfig, SyntheticDataset};
use problems::{TspEncoding, TspInstance};
use qross_store::Artifact;
use serde::{Deserialize, Serialize};
use solvers::parallel::parallel_map_with_workers;
use solvers::Solver;

use crate::collect::{collect_profile, CollectConfig};
use crate::dataset::SurrogateDataset;
use crate::features::{FeatureExtractor, FeaturizerSpec, StatisticalFeaturizer};
use crate::strategy::ComposedStrategy;
use crate::surrogate::{Surrogate, SurrogateConfig, SurrogateState, TrainReport};
use crate::QrossError;

/// Full pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// synthetic-instance generator settings
    pub generator: GeneratorConfig,
    /// number of training instances
    pub train_instances: usize,
    /// number of held-out test instances
    pub test_instances: usize,
    /// solver-data collection settings
    pub collect: CollectConfig,
    /// surrogate architecture/training settings
    pub surrogate: SurrogateConfig,
    /// root seed
    pub seed: u64,
    /// collection worker-pool size: `0` = one worker per core, `1` =
    /// fully sequential (nested solver fan-out included), `n` = exactly
    /// `n` workers. Output is bit-identical for every value (see the
    /// module docs).
    pub workers: usize,
}

impl PipelineConfig {
    /// Laptop-scale configuration (seconds to a couple of minutes).
    pub fn quick() -> Self {
        PipelineConfig {
            generator: GeneratorConfig {
                min_cities: 8,
                max_cities: 12,
                ..Default::default()
            },
            train_instances: 36,
            test_instances: 10,
            collect: CollectConfig {
                batch: 24,
                sweep_points: 10,
                ..Default::default()
            },
            surrogate: SurrogateConfig {
                hidden: 48,
                epochs: 250,
                ..Default::default()
            },
            seed: 2021,
            workers: 0,
        }
    }

    /// The paper's experiment scale (§5): 300 instances of 20–30 cities,
    /// 270 train / 30 test, B = 128 solutions per call.
    pub fn paper() -> Self {
        PipelineConfig {
            generator: GeneratorConfig::default(), // 20–30 cities
            train_instances: 270,
            test_instances: 30,
            collect: CollectConfig {
                batch: 128,
                sweep_points: 14,
                ..Default::default()
            },
            surrogate: SurrogateConfig {
                hidden: 64,
                epochs: 400,
                ..Default::default()
            },
            seed: 2021,
            workers: 0,
        }
    }

    /// Even smaller than [`PipelineConfig::quick`] — used by unit and
    /// integration tests (well under a minute). Instances stay at 9–10
    /// cities: below ~8 cities the solvers find optimal tours at *any*
    /// feasible `A` and the parameter-tuning problem degenerates.
    pub fn micro() -> Self {
        PipelineConfig {
            generator: GeneratorConfig {
                min_cities: 9,
                max_cities: 10,
                ..Default::default()
            },
            train_instances: 20,
            test_instances: 4,
            collect: CollectConfig {
                batch: 24,
                sweep_points: 10,
                ..Default::default()
            },
            surrogate: SurrogateConfig {
                hidden: 32,
                epochs: 250,
                ..Default::default()
            },
            seed: 7,
            workers: 0,
        }
    }
}

/// Output of a pipeline run: a trained surrogate plus everything needed to
/// evaluate it.
pub struct TrainedQross {
    /// the trained solver surrogate
    pub surrogate: Surrogate,
    /// the featurizer used (must be reused at inference)
    pub featurizer: Box<dyn FeatureExtractor>,
    /// preprocessed encodings of the training instances
    pub train_encodings: Vec<TspEncoding>,
    /// preprocessed encodings of the held-out test instances
    pub test_encodings: Vec<TspEncoding>,
    /// number of dataset rows the surrogate was trained on
    pub dataset_len: usize,
    /// training diagnostics
    pub report: TrainReport,
    /// the configuration used
    pub config: PipelineConfig,
}

impl std::fmt::Debug for TrainedQross {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TrainedQross({} rows, {} train / {} test instances)",
            self.dataset_len,
            self.train_encodings.len(),
            self.test_encodings.len()
        )
    }
}

impl TrainedQross {
    /// The **train** stage: fits a surrogate on a collected corpus.
    ///
    /// Bit-identical to [`Pipeline::try_run`] under the corpus's
    /// configuration — the corpus already contains the collected dataset,
    /// so no solver is needed here (that is the point of the split).
    ///
    /// # Errors
    ///
    /// Propagates [`QrossError`] from surrogate training.
    pub fn train_on_corpus(corpus: &CollectedCorpus) -> Result<TrainedQross, QrossError> {
        let (surrogate, report) = Surrogate::train(&corpus.dataset, &corpus.config.surrogate)?;
        Ok(TrainedQross {
            surrogate,
            featurizer: corpus.featurizer.build(),
            train_encodings: corpus.train_encodings(),
            test_encodings: corpus.test_encodings(),
            dataset_len: corpus.dataset.len(),
            report,
            config: corpus.config,
        })
    }

    /// Snapshots the model as a serialisable [`QrossBundle`].
    ///
    /// # Errors
    ///
    /// Returns [`QrossError::Persistence`] when the featurizer has no
    /// serialisable recipe ([`FeatureExtractor::spec`] returned `None`).
    pub fn to_bundle(&self) -> Result<QrossBundle, QrossError> {
        let featurizer = self
            .featurizer
            .spec()
            .ok_or_else(|| QrossError::Persistence {
                message: format!(
                    "featurizer `{}` has no serialisable spec",
                    self.featurizer.name()
                ),
            })?;
        Ok(QrossBundle {
            config: self.config,
            featurizer,
            surrogate: self.surrogate.to_state(),
            train_instances: self
                .train_encodings
                .iter()
                .map(|e| e.fitness_instance().clone())
                .collect(),
            test_instances: self
                .test_encodings
                .iter()
                .map(|e| e.fitness_instance().clone())
                .collect(),
            dataset_len: self.dataset_len,
            report: self.report.clone(),
        })
    }

    /// Writes the model as a binary `.qross` bundle at `path`.
    ///
    /// # Errors
    ///
    /// [`QrossError::Persistence`] for an unserialisable featurizer or a
    /// filesystem failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), QrossError> {
        self.to_bundle()?.save(path).map_err(QrossError::from)
    }

    /// Restores a model saved by [`TrainedQross::save`] — the **serve**
    /// stage's entry point. Only the binary `.qross` bundle loads; a JSON
    /// dump fails as a bad magic.
    ///
    /// # Errors
    ///
    /// [`QrossError::Persistence`] for unreadable, corrupt or
    /// incompatible bundles.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<TrainedQross, QrossError> {
        QrossBundle::load(path)?.into_trained()
    }

    /// Extracts the feature vector the surrogate expects for `encoding`.
    pub fn features_for(&self, encoding: &TspEncoding) -> Vec<f64> {
        self.featurizer.extract(encoding.qubo_instance())
    }

    /// Builds the composed QROSS proposal strategy (MFS → PBS → OFS) for
    /// one instance — the serve-stage counterpart of the benchmark
    /// harness's strategy construction. `batch` is the solver batch size
    /// entering the MFS integral; `seed` drives the OFS refinement.
    pub fn strategy_for(
        &self,
        encoding: &TspEncoding,
        batch: usize,
        seed: u64,
    ) -> ComposedStrategy<'_> {
        ComposedStrategy::new(
            &self.surrogate,
            self.features_for(encoding),
            A_DOMAIN,
            batch,
            seed,
        )
    }
}

/// The training pipeline.
pub struct Pipeline {
    config: PipelineConfig,
    featurizer: Box<dyn FeatureExtractor>,
}

impl Pipeline {
    /// Creates a pipeline with the default (statistical) featurizer.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline {
            config,
            featurizer: Box::new(StatisticalFeaturizer::new()),
        }
    }

    /// Replaces the featurizer (e.g. with
    /// [`crate::features::RandomGcnFeaturizer`] for the ablation).
    pub fn with_featurizer(mut self, featurizer: Box<dyn FeatureExtractor>) -> Self {
        self.featurizer = featurizer;
        self
    }

    /// Runs generation → collection → training against `solver`.
    ///
    /// (This used to have a panicking `run` twin that converted every
    /// recoverable [`QrossError`] into an abort; it is gone — callers
    /// decide how to surface the error.)
    ///
    /// # Errors
    ///
    /// Propagates [`QrossError`] from dataset assembly or training.
    pub fn try_run<S: Solver + ?Sized>(self, solver: &S) -> Result<TrainedQross, QrossError> {
        let (train_encodings, test_encodings, dataset) = self.collect_encoded(solver);
        let cfg = &self.config;
        let (surrogate, report) = Surrogate::train(&dataset, &cfg.surrogate)?;
        Ok(TrainedQross {
            surrogate,
            featurizer: self.featurizer,
            train_encodings,
            test_encodings,
            dataset_len: dataset.len(),
            report,
            config: self.config,
        })
    }

    /// The **collect** stage: generation + solver-data collection,
    /// packaged as a persistable [`CollectedCorpus`].
    ///
    /// The corpus carries the original (un-preprocessed) instances, the
    /// featurizer recipe and the collected dataset — everything the
    /// **train** stage needs, in any process, at any later time. Running
    /// [`TrainedQross::train_on_corpus`] on the result is bit-identical
    /// to [`Pipeline::try_run`] with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QrossError::Persistence`] when the pipeline's featurizer
    /// has no serialisable recipe ([`FeatureExtractor::spec`] returned
    /// `None`) — such pipelines can still train in-process via
    /// [`Pipeline::try_run`], they just cannot produce portable corpora.
    pub fn collect_corpus<S: Solver + ?Sized>(
        &self,
        solver: &S,
    ) -> Result<CollectedCorpus, QrossError> {
        let featurizer = self
            .featurizer
            .spec()
            .ok_or_else(|| QrossError::Persistence {
                message: format!(
                    "featurizer `{}` has no serialisable spec",
                    self.featurizer.name()
                ),
            })?;
        let (train_encodings, test_encodings, dataset) = self.collect_encoded(solver);
        Ok(CollectedCorpus {
            config: self.config,
            featurizer,
            train_instances: train_encodings
                .iter()
                .map(|e| e.fitness_instance().clone())
                .collect(),
            test_instances: test_encodings
                .iter()
                .map(|e| e.fitness_instance().clone())
                .collect(),
            dataset,
        })
    }

    /// Shared generation + collection body of [`Pipeline::try_run`] and
    /// [`Pipeline::collect_corpus`].
    fn collect_encoded<S: Solver + ?Sized>(
        &self,
        solver: &S,
    ) -> (Vec<TspEncoding>, Vec<TspEncoding>, SurrogateDataset) {
        let cfg = &self.config;
        let data = SyntheticDataset::generate(
            &cfg.generator,
            cfg.train_instances,
            cfg.test_instances,
            cfg.seed,
        );
        let encode = |inst: &TspInstance| TspEncoding::preprocessed(inst.clone());
        let train_encodings: Vec<TspEncoding> = data.train().iter().map(encode).collect();
        let test_encodings: Vec<TspEncoding> = data.test().iter().map(encode).collect();
        let featurizer = &self.featurizer;
        let dataset = collect_dataset(
            &train_encodings,
            |enc| featurizer.extract(enc.qubo_instance()),
            featurizer.dim(),
            &cfg.collect,
            solver,
            cfg.seed,
            cfg.workers,
        );
        (train_encodings, test_encodings, dataset)
    }
}

/// Output of the **collect** stage: the training dataset plus everything
/// the **train** stage needs to run in another process.
///
/// Persistable through `qross_store::Artifact` (kind tag `CORP`) in both
/// the binary `.qross` format and JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectedCorpus {
    /// the full pipeline configuration the corpus was collected under
    pub config: PipelineConfig,
    /// recipe rebuilding the featurizer that produced the feature columns
    pub featurizer: FeaturizerSpec,
    /// original (un-preprocessed) training instances
    pub train_instances: Vec<TspInstance>,
    /// original held-out test instances
    pub test_instances: Vec<TspInstance>,
    /// the collected `(features, A) → (Pf, Eavg, Estd)` dataset
    pub dataset: SurrogateDataset,
}

impl CollectedCorpus {
    /// Preprocessed encodings of the training instances (deterministic,
    /// so rebuilding them here is bit-identical to the collect process).
    pub fn train_encodings(&self) -> Vec<TspEncoding> {
        self.train_instances
            .iter()
            .map(|i| TspEncoding::preprocessed(i.clone()))
            .collect()
    }

    /// Preprocessed encodings of the held-out test instances.
    pub fn test_encodings(&self) -> Vec<TspEncoding> {
        self.test_instances
            .iter()
            .map(|i| TspEncoding::preprocessed(i.clone()))
            .collect()
    }
}

/// Serialisable snapshot of a full [`TrainedQross`] — the `.qross`
/// bundle exchanged between the train and serve stages (artifact kind
/// `BNDL`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QrossBundle {
    /// configuration the model was trained under
    pub config: PipelineConfig,
    /// recipe rebuilding the featurizer (must be reused at inference)
    pub featurizer: FeaturizerSpec,
    /// trained surrogate snapshot
    pub surrogate: SurrogateState,
    /// original training instances
    pub train_instances: Vec<TspInstance>,
    /// original held-out test instances
    pub test_instances: Vec<TspInstance>,
    /// dataset rows the surrogate was trained on
    pub dataset_len: usize,
    /// training diagnostics
    pub report: TrainReport,
}

impl QrossBundle {
    /// Rebuilds the in-memory [`TrainedQross`] this bundle snapshots.
    ///
    /// The restored model is functionally *bit-identical* to the one that
    /// was saved: surrogate weights are restored from exact bit patterns,
    /// the featurizer is rebuilt from its deterministic recipe, and the
    /// preprocessed encodings are recomputed by the same deterministic
    /// preprocessing.
    ///
    /// # Errors
    ///
    /// Returns [`QrossError::Persistence`] for inconsistent network
    /// shapes in the surrogate snapshot.
    pub fn into_trained(self) -> Result<TrainedQross, QrossError> {
        let surrogate = Surrogate::from_state(self.surrogate)?;
        let featurizer = self.featurizer.build();
        let encode = |insts: Vec<TspInstance>| -> Vec<TspEncoding> {
            insts.into_iter().map(TspEncoding::preprocessed).collect()
        };
        Ok(TrainedQross {
            surrogate,
            featurizer,
            train_encodings: encode(self.train_instances),
            test_encodings: encode(self.test_instances),
            dataset_len: self.dataset_len,
            report: self.report,
            config: self.config,
        })
    }
}

/// Trains a surrogate on an arbitrary family of relaxable problems —
/// the problem-generic core of the pipeline ([`Pipeline`] wraps it with
/// TSP-specific generation, preprocessing and featurisation).
///
/// `featurize` must produce `feat_dim`-wide vectors; the same function
/// must be used at inference time. Collection fans out across one worker
/// per core via [`collect_dataset`] (bit-identical to a sequential run);
/// pass an explicit worker count through [`collect_dataset`] directly if
/// you need to pin it.
///
/// # Errors
///
/// Propagates [`QrossError`] from dataset assembly or surrogate training.
///
/// # Examples
///
/// Train on a family of MVC instances:
///
/// ```no_run
/// use problems::{MvcInstance, RelaxableProblem};
/// use qross::collect::CollectConfig;
/// use qross::pipeline::train_on_problems;
/// use qross::surrogate::SurrogateConfig;
/// use solvers::SimulatedAnnealer;
///
/// let graphs: Vec<MvcInstance> = (0..20)
///     .map(|s| MvcInstance::random_gnp(&format!("g{s}"), 30, 0.4, s))
///     .collect();
/// let featurize = |g: &MvcInstance| {
///     vec![g.num_vertices() as f64, g.edges().len() as f64]
/// };
/// let (surrogate, _report) = train_on_problems(
///     &graphs,
///     featurize,
///     2,
///     &CollectConfig::default(),
///     &SurrogateConfig::default(),
///     &SimulatedAnnealer::default(),
///     7,
/// )?;
/// # Ok::<(), qross::QrossError>(())
/// ```
#[allow(clippy::too_many_arguments)] // a staged builder would obscure the one-shot call
pub fn train_on_problems<P, S, F>(
    problems: &[P],
    featurize: F,
    feat_dim: usize,
    collect: &CollectConfig,
    surrogate_config: &SurrogateConfig,
    solver: &S,
    seed: u64,
) -> Result<(Surrogate, TrainReport), QrossError>
where
    P: problems::RelaxableProblem + Sync,
    S: Solver + ?Sized,
    F: Fn(&P) -> Vec<f64>,
{
    if problems.is_empty() {
        return Err(QrossError::BadDataset {
            message: "no problems to train on".to_string(),
        });
    }
    let dataset = collect_dataset(problems, featurize, feat_dim, collect, solver, seed, 0);
    Surrogate::train(&dataset, surrogate_config)
}

/// The pipeline's collection stage: fans [`collect_profile`] out across
/// `workers` threads (one task per problem instance) and assembles the
/// profiles into a [`SurrogateDataset`] in instance order.
///
/// Instance `idx` is collected with seed `derive_seed(seed, 100 + idx)`,
/// so the result is **bit-identical for every worker count** (`0` = one
/// worker per core, `1` = fully sequential including nested solver
/// fan-out, `n` = exactly `n` workers) — the property the
/// `integration_parallel_determinism` suite asserts at 1/2/8 workers.
///
/// Featurisation runs sequentially during assembly: it is orders of
/// magnitude cheaper than the solver batches, and keeping it on one
/// thread spares `featurize` a `Sync` bound.
pub fn collect_dataset<P, S, F>(
    problems: &[P],
    featurize: F,
    feat_dim: usize,
    collect: &CollectConfig,
    solver: &S,
    seed: u64,
    workers: usize,
) -> SurrogateDataset
where
    P: problems::RelaxableProblem + Sync,
    S: Solver + ?Sized,
    F: Fn(&P) -> Vec<f64>,
{
    let profiles = parallel_map_with_workers(
        problems.len(),
        workers,
        || (),
        |(), idx| {
            collect_profile(
                &problems[idx],
                solver,
                collect,
                mathkit::rng::derive_seed(seed, 100 + idx as u64),
            )
        },
    );
    let mut dataset = SurrogateDataset::new(feat_dim);
    for (problem, profile) in problems.iter().zip(&profiles) {
        let features = featurize(problem);
        dataset.push_profile(&features, profile);
    }
    dataset
}

/// The relaxation-parameter search domain used across the experiments.
///
/// The paper restricts baselines to `A ∈ [1, 100]` on raw instances; this
/// workspace normalises every instance to mean distance 1 before encoding
/// (paper §3.3 pre-processing), which maps that range to roughly
/// `[0.02, 20]` — wide enough to contain every observed optimum with the
/// same two-orders-of-magnitude span.
pub const A_DOMAIN: (f64, f64) = (0.02, 20.0);

#[cfg(test)]
mod tests {
    use super::*;
    use solvers::sa::{SaConfig, SimulatedAnnealer};

    fn micro_solver() -> SimulatedAnnealer {
        SimulatedAnnealer::new(SaConfig {
            sweeps: 48,
            ..Default::default()
        })
    }

    #[test]
    fn micro_pipeline_trains() {
        let trained = Pipeline::new(PipelineConfig::micro())
            .try_run(&micro_solver())
            .expect("micro pipeline trains");
        assert_eq!(trained.train_encodings.len(), 20);
        assert_eq!(trained.test_encodings.len(), 4);
        assert!(trained.dataset_len >= 20 * 10);
        assert!(!trained.report.pf.train_loss.is_empty());
        // Pf loss should have decreased during training. The Option
        // accessors stay safe even for epochs == 0 histories.
        let first = trained.report.pf.initial_train_loss().expect("epochs > 0");
        let last = trained.report.pf.final_train_loss().expect("epochs > 0");
        assert!(last < first, "Pf loss did not improve: {first} -> {last}");
    }

    #[test]
    fn trained_surrogate_shows_sigmoid_trend() {
        let trained = Pipeline::new(PipelineConfig::micro())
            .try_run(&micro_solver())
            .expect("micro pipeline trains");
        let enc = &trained.test_encodings[0];
        let features = trained.featurizer.extract(enc.qubo_instance());
        let low = trained.surrogate.predict(&features, A_DOMAIN.0);
        let high = trained.surrogate.predict(&features, A_DOMAIN.1);
        assert!(
            high.pf > low.pf + 0.3,
            "no sigmoid trend: Pf({}) = {} vs Pf({}) = {}",
            A_DOMAIN.0,
            low.pf,
            A_DOMAIN.1,
            high.pf
        );
    }

    #[test]
    fn pipeline_is_deterministic() {
        let a = Pipeline::new(PipelineConfig::micro())
            .try_run(&micro_solver())
            .expect("micro pipeline trains");
        let b = Pipeline::new(PipelineConfig::micro())
            .try_run(&micro_solver())
            .expect("micro pipeline trains");
        let enc = &a.test_encodings[1];
        let features = a.featurizer.extract(enc.qubo_instance());
        let pa = a.surrogate.predict(&features, 1.0);
        let pb = b.surrogate.predict(&features, 1.0);
        assert_eq!(pa, pb);
    }
}
