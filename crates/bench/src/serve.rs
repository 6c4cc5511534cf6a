//! Shared machinery of the `qross-train` / `qross-predict` binaries —
//! the train-once / serve-many loop over registry-generated problem
//! corpora.
//!
//! Family dispatch goes through [`problems::registry`]: the CLI resolves
//! `--problem` with [`problems::lookup_family`] (case-insensitive, and a
//! typo gets an error naming every registered family), corpora come from
//! [`problems::ProblemFamily::corpus`], and features from
//! [`problems::FamilyProblem::features`]. Adding a family to the
//! registry makes it trainable and servable here with no further edits.
//! TSP remains the one special case: it trains through the staged
//! [`qross::pipeline::Pipeline`] and persists a self-contained bundle,
//! because the paper's primary workload carries per-instance strategy
//! state the generic path does not.
//!
//! The contract the pair demonstrates (and CI enforces byte-for-byte):
//! a model trained and saved by `qross-train` in one process, reloaded by
//! `qross-predict` in a *fresh* process, reproduces the training
//! process's surrogate predictions and offline strategy proposals
//! **bit-identically**. To make that diffable, the [`PredictionManifest`]
//! stores every `f64` as its exact IEEE-754 bit pattern (`u64`): two
//! manifests are equal iff every prediction matches to the last bit.

use serde::{Deserialize, Serialize};

use problems::{known_families, lookup_family, CorpusTier, ProblemFamily};
use qross::pipeline::{train_on_problems, Pipeline, TrainedQross, A_DOMAIN};
use qross::strategy::ProposalStrategy;
use qross::surrogate::{Surrogate, SurrogateState, TrainReport};
use qross_store::Artifact;
use solvers::Solver;

use crate::experiments::{pipeline_config, Solvers};
use crate::Scale;

/// Maps the experiment scale onto the registry's corpus tier.
pub fn corpus_tier(scale: Scale) -> CorpusTier {
    match scale {
        Scale::Micro => CorpusTier::Micro,
        Scale::Quick => CorpusTier::Quick,
        Scale::Paper => CorpusTier::Paper,
    }
}

/// Trains the generic (non-TSP) surrogate for a registered family on its
/// penalty-sweep corpus.
///
/// # Errors
///
/// Propagates [`qross::QrossError`] from collection or training.
///
/// # Panics
///
/// Panics if called with the `tsp` family — the TSP path goes through
/// the staged [`qross::pipeline::Pipeline`].
pub fn train_generic<S: Solver + ?Sized>(
    family: &dyn ProblemFamily,
    scale: Scale,
    seed: u64,
    solver: &S,
) -> Result<(Surrogate, TrainReport), qross::QrossError> {
    assert!(
        family.name() != "tsp",
        "TSP trains through the staged pipeline"
    );
    let cfg = pipeline_config(scale, seed);
    let corpus = family.corpus(corpus_tier(scale), seed);
    train_on_problems(
        &corpus,
        |p| p.features(),
        family.feature_dim(),
        &cfg.collect,
        &cfg.surrogate,
        solver,
        seed,
    )
}

/// The log-spaced relaxation-parameter grid every manifest evaluates.
pub fn manifest_a_grid() -> Vec<f64> {
    let points = 9;
    let (lo, hi) = A_DOMAIN;
    (0..points)
        .map(|k| (lo.ln() + (hi.ln() - lo.ln()) * k as f64 / (points - 1) as f64).exp())
        .collect()
}

/// One instance's predictions, bit-patterned for exact diffs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstancePredictions {
    /// instance identifier
    pub instance: String,
    /// `Pf` over the manifest grid, as `f64::to_bits`
    pub pf_bits: Vec<u64>,
    /// `Eavg` over the grid, as bits
    pub e_avg_bits: Vec<u64>,
    /// `Estd` over the grid, as bits
    pub e_std_bits: Vec<u64>,
    /// planned offline strategy proposals (MFS, PBS₈₀, PBS₂₀) as bits —
    /// empty for problem families served without the composed strategy
    pub proposal_bits: Vec<u64>,
}

/// The diffable serve-side output: every prediction the model makes on
/// its evaluation set, as exact bit patterns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionManifest {
    /// problem family (a registry name)
    pub problem: String,
    /// root seed the corpus and model derive from
    pub seed: u64,
    /// relaxation-parameter grid, as bits
    pub a_grid_bits: Vec<u64>,
    /// per-instance predictions
    pub entries: Vec<InstancePredictions>,
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Builds the manifest for a TSP bundle: surrogate grid predictions plus
/// the composed strategy's planned offline proposals on every held-out
/// test instance.
///
/// The strategy seed and batch size come from the bundle's own stored
/// [`qross::pipeline::PipelineConfig`], so the serve side needs *only*
/// the bundle — no command-line flags have to match the training run
/// for the manifests to agree.
pub fn tsp_manifest(trained: &TrainedQross) -> PredictionManifest {
    let seed = trained.config.seed;
    let batch = trained.config.collect.batch;
    let grid = manifest_a_grid();
    let entries = trained
        .test_encodings
        .iter()
        .map(|enc| {
            let features = trained.features_for(enc);
            let preds = trained.surrogate.predict_grid(&features, &grid);
            let strategy = trained.strategy_for(enc, batch, mathkit::rng::derive_seed(seed, 777));
            InstancePredictions {
                instance: enc.fitness_instance().name().to_string(),
                pf_bits: bits(&preds.iter().map(|p| p.pf).collect::<Vec<_>>()),
                e_avg_bits: bits(&preds.iter().map(|p| p.e_avg).collect::<Vec<_>>()),
                e_std_bits: bits(&preds.iter().map(|p| p.e_std).collect::<Vec<_>>()),
                proposal_bits: bits(strategy.planned_offline()),
            }
        })
        .collect();
    PredictionManifest {
        problem: "tsp".to_string(),
        seed,
        a_grid_bits: bits(&grid),
        entries,
    }
}

/// Builds the manifest for a generic (non-TSP) surrogate: grid
/// predictions over the family's regenerated corpus.
pub fn generic_manifest(
    family: &dyn ProblemFamily,
    surrogate: &Surrogate,
    scale: Scale,
    seed: u64,
) -> PredictionManifest {
    let grid = manifest_a_grid();
    let entries = family
        .corpus(corpus_tier(scale), seed)
        .iter()
        .map(|p| {
            let preds = surrogate.predict_grid(&p.features(), &grid);
            InstancePredictions {
                instance: p.name().to_string(),
                pf_bits: bits(&preds.iter().map(|p| p.pf).collect::<Vec<_>>()),
                e_avg_bits: bits(&preds.iter().map(|p| p.e_avg).collect::<Vec<_>>()),
                e_std_bits: bits(&preds.iter().map(|p| p.e_std).collect::<Vec<_>>()),
                proposal_bits: Vec::new(),
            }
        })
        .collect();
    PredictionManifest {
        problem: family.name().to_string(),
        seed,
        a_grid_bits: bits(&grid),
        entries,
    }
}

/// Parsed command line shared by `qross-train` and `qross-predict`.
#[derive(Debug, Clone)]
pub struct ServeCli {
    /// problem family to train/serve (resolved through the registry)
    pub problem: &'static dyn ProblemFamily,
    /// corpus scale (the generic serve side regenerates the corpus from it)
    pub scale: Scale,
    /// root seed
    pub seed: u64,
    /// model path (empty = binary-specific default)
    pub model: String,
    /// manifest path (empty = binary-specific default)
    pub manifest: String,
    /// write the model as a write-only JSON dump instead of the binary
    /// container (`--format json`, `qross-train` only); nothing loads it
    pub json_model: bool,
}

/// Prints `usage` (prefixed by `message` when non-empty) and exits —
/// code 0 for an explicit `--help`, 2 for a malformed command line.
pub fn usage_exit(usage: &str, message: &str) -> ! {
    if !message.is_empty() {
        eprintln!("error: {message}");
    }
    eprintln!("usage: {usage}");
    std::process::exit(if message.is_empty() { 0 } else { 2 });
}

/// Parses the serve-side flags shared by both binaries. Every flag
/// requires a value — a trailing `--model` with nothing after it is an
/// error, not a silent fall-through to the default path. `with_format`
/// additionally accepts `--format binary|json` (the train side).
pub fn parse_serve_cli(usage: &str, with_format: bool) -> ServeCli {
    let mut cli = ServeCli {
        problem: lookup_family("tsp").expect("tsp is registered"),
        scale: Scale::Quick,
        seed: 2021,
        model: String::new(),
        manifest: String::new(),
        json_model: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        match flag.as_str() {
            "--help" | "-h" => usage_exit(usage, ""),
            "--problem" | "--scale" | "--seed" | "--model" | "--manifest" => {}
            "--format" if with_format => {}
            other => usage_exit(usage, &format!("unknown argument `{other}`")),
        }
        i += 1;
        // A following `--flag` token is not a value — reject it so
        // `--model --seed` errors instead of writing a file named
        // `./--seed`.
        let Some(value) = argv
            .get(i)
            .filter(|v| !v.is_empty() && !v.starts_with("--"))
        else {
            usage_exit(usage, &format!("flag `{flag}` needs a value"));
        };
        match flag.as_str() {
            "--problem" => match lookup_family(value) {
                Ok(f) => cli.problem = f,
                // The registry error already names every known family.
                Err(e) => usage_exit(usage, &e.to_string()),
            },
            "--scale" => match Scale::parse(value) {
                Some(s) => cli.scale = s,
                None => usage_exit(usage, &format!("bad --scale value `{value}`")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => cli.seed = s,
                Err(_) => usage_exit(usage, &format!("bad --seed value `{value}`")),
            },
            "--model" => cli.model = value.clone(),
            "--manifest" => cli.manifest = value.clone(),
            "--format" => match value.as_str() {
                "binary" => cli.json_model = false,
                "json" => cli.json_model = true,
                other => usage_exit(usage, &format!("bad --format value `{other}`")),
            },
            _ => unreachable!("flag already screened"),
        }
        i += 1;
    }
    cli
}

/// `qross-train`'s usage string, with the family list pulled from the
/// registry so adding a family never edits the binaries.
pub fn train_usage() -> String {
    format!(
        "qross-train [--problem {}] [--scale micro|quick|paper] \
         [--seed N] [--model PATH] [--manifest PATH] [--format binary|json]",
        known_families()
    )
}

/// `qross-predict`'s usage string (family list from the registry).
pub fn predict_usage() -> String {
    format!(
        "qross-predict --model PATH [--problem {}] \
         [--scale micro|quick|paper] [--seed N] [--manifest PATH]",
        known_families()
    )
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

fn write_manifest(path: &str, manifest: &PredictionManifest) {
    qross_store::json::write_json_file(path, manifest)
        .unwrap_or_else(|e| fail(&format!("writing manifest failed: {e}")));
    println!(
        "wrote manifest  {} ({} instances x {} grid points)",
        path,
        manifest.entries.len(),
        manifest.a_grid_bits.len()
    );
}

/// The whole of `qross-train`: parse the shared CLI, train the family's
/// model (TSP through the staged pipeline, everything else through
/// [`train_generic`]), persist it, and write the predictions manifest.
pub fn run_train() {
    let usage = train_usage();
    let mut args = parse_serve_cli(&usage, true);
    let name = args.problem.name();
    if args.model.is_empty() {
        let ext = if args.json_model { "json" } else { "qross" };
        args.model = format!("results/model-{name}.{ext}");
    }
    if args.manifest.is_empty() {
        args.manifest = format!("results/predictions-{name}-train.json");
    }

    let solvers = Solvers::at(args.scale);
    let manifest = if name == "tsp" {
        // Stage 1 — collect: generation + solver-data collection,
        // packaged as a persistable corpus.
        let cfg = pipeline_config(args.scale, args.seed);
        let corpus = Pipeline::new(cfg)
            .collect_corpus(&solvers.da)
            .unwrap_or_else(|e| fail(&format!("collect stage failed: {e}")));
        println!(
            "collected {} rows from {} train instances",
            corpus.dataset.len(),
            corpus.train_instances.len()
        );
        // Stage 2 — train: fit the surrogate on the corpus.
        let trained = TrainedQross::train_on_corpus(&corpus)
            .unwrap_or_else(|e| fail(&format!("train stage failed: {e}")));
        let last = trained.report.pf.final_train_loss().unwrap_or(f64::NAN);
        println!(
            "trained surrogate on {} rows (final Pf loss {last:.4})",
            trained.dataset_len
        );
        // Stage 3 — persist the bundle for the serve process.
        let save_result = if args.json_model {
            trained
                .to_bundle()
                .and_then(|b| b.save_json(&args.model).map_err(Into::into))
        } else {
            trained.save(&args.model)
        };
        save_result.unwrap_or_else(|e| fail(&format!("saving model failed: {e}")));
        tsp_manifest(&trained)
    } else {
        let (surrogate, report) = train_generic(args.problem, args.scale, args.seed, &solvers.da)
            .unwrap_or_else(|e| fail(&format!("training failed: {e}")));
        let last = report.pf.final_train_loss().unwrap_or(f64::NAN);
        println!(
            "trained {name} surrogate on {} rows (final Pf loss {last:.4})",
            report.train_rows
        );
        let state = surrogate.to_state();
        let save_result = if args.json_model {
            state.save_json(&args.model)
        } else {
            state.save(&args.model)
        };
        save_result.unwrap_or_else(|e| fail(&format!("saving model failed: {e}")));
        generic_manifest(args.problem, &surrogate, args.scale, args.seed)
    };
    println!("wrote model     {}", args.model);
    write_manifest(&args.manifest, &manifest);
}

/// The whole of `qross-predict`: reload a model written by `qross-train`
/// in a fresh process and regenerate the predictions manifest for a
/// byte-exact diff against the training side's.
pub fn run_predict() {
    let usage = predict_usage();
    let mut args = parse_serve_cli(&usage, false);
    if args.model.is_empty() {
        usage_exit(&usage, "--model is required");
    }
    let name = args.problem.name();
    if args.manifest.is_empty() {
        args.manifest = format!("results/predictions-{name}-serve.json");
    }

    let manifest = if name == "tsp" {
        let trained = TrainedQross::load(&args.model)
            .unwrap_or_else(|e| fail(&format!("loading bundle failed: {e}")));
        println!(
            "loaded {:?} from {} ({} test instances)",
            trained,
            args.model,
            trained.test_encodings.len()
        );
        tsp_manifest(&trained)
    } else {
        let state = SurrogateState::load(&args.model)
            .unwrap_or_else(|e| fail(&format!("loading surrogate failed: {e}")));
        let surrogate = Surrogate::from_state(state)
            .unwrap_or_else(|e| fail(&format!("restoring surrogate failed: {e}")));
        println!("loaded {name} surrogate from {}", args.model);
        generic_manifest(args.problem, &surrogate, args.scale, args.seed)
    };
    write_manifest(&args.manifest, &manifest);
}

/// Drives a freshly built strategy through `trials` proposals against a
/// synthetic observation loop (no solver), recording each proposal's bit
/// pattern — used by tests to check a reloaded bundle reproduces the
/// in-memory strategy's *full* proposal sequence, OFS refinement
/// included.
pub fn proposal_trace(strategy: &mut dyn ProposalStrategy, trials: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(trials);
    for t in 0..trials {
        let a = strategy.propose(t);
        out.push(a.to_bits());
        // Deterministic synthetic feedback: a sigmoid world in ln A.
        let pf = mathkit::special::sigmoid(2.0 * a.ln());
        strategy.observe(
            a,
            &qross::collect::SolverObservation {
                a,
                pf,
                e_avg: 1.0 + a.ln().abs(),
                e_std: 0.25,
                best_fitness: if pf > 0.5 { Some(1.0 + a) } else { None },
                min_energy: 0.5,
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use problems::registry;

    #[test]
    fn registry_corpora_are_deterministic() {
        for family in registry() {
            let a = family.corpus(corpus_tier(Scale::Micro), 7);
            let b = family.corpus(corpus_tier(Scale::Micro), 7);
            assert_eq!(a.len(), b.len(), "{}", family.name());
            assert!(!a.is_empty(), "{}", family.name());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.name(), y.name());
                assert_eq!(bits(&x.features()), bits(&y.features()));
            }
        }
    }

    #[test]
    fn registry_features_have_declared_width() {
        for family in registry() {
            let corpus = family.corpus(corpus_tier(Scale::Micro), 3);
            for p in &corpus {
                let f = p.features();
                assert_eq!(f.len(), family.feature_dim(), "{}", family.name());
                assert!(f.iter().all(|v| v.is_finite()), "{}", family.name());
            }
        }
    }

    #[test]
    fn usage_strings_name_every_family() {
        for family in registry() {
            assert!(train_usage().contains(family.name()));
            assert!(predict_usage().contains(family.name()));
        }
    }

    #[test]
    fn unknown_family_error_names_known_ones() {
        let err = lookup_family("sat").expect_err("sat is not registered");
        let msg = err.to_string();
        assert!(msg.contains("unknown problem family `sat`"));
        assert!(msg.contains("maxcut") && msg.contains("knapsack"));
    }
}
