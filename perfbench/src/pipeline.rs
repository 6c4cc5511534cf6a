//! The collect → train → save/load → tune pipeline, timed from outside
//! through the library's public API.
//!
//! Every workload runs it: `tune-tsp` at quick scale is the workload
//! itself, and the serve workloads build the micro bundle they serve
//! with it before their clock starts. Tuning runs one held-out instance
//! after another through `eval::run_strategy`, so no worker pool packs
//! unequal cells differently from run to run.

use std::sync::Mutex;
use std::time::Instant;

use bench::experiments::{pipeline_config, Solvers, TRIALS};
use bench::Scale;
use mathkit::rng::derive_seed;
use problems::tsp::generator::SyntheticDataset;
use problems::tsp::heuristics;
use problems::TspEncoding;
use qross::collect::{collect_profile, observe, SolverObservation};
use qross::eval::{gap_curve, run_strategy};
use qross::pipeline::{CollectedCorpus, Pipeline, PipelineConfig, TrainedQross, A_DOMAIN};
use qross::strategy::{ComposedStrategy, ProposalStrategy};
use qubo::QuboModel;
use solvers::da::DigitalAnnealer;
use solvers::parallel::parallel_map_with_workers;
use solvers::{SampleSet, Solver};

use crate::speed::{self, StageTime};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Checks;

/// The benchmark's own timing wrapper around a solver: it logs the
/// start and end of every `sample` call and, while probing, the host's
/// speed at most every [`PROBE_EVERY_S`] (see `speed`).
pub struct TimedSolver<S> {
    inner: S,
    log: Mutex<SolverLog>,
}

/// Seconds between host-speed probes inside a probed stage.
const PROBE_EVERY_S: f64 = 0.25;

/// One logged `sample` call and the host slowness last probed before it.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub start: Instant,
    pub end: Instant,
    pub slowness: f64,
}

#[derive(Default)]
struct SolverLog {
    calls: Vec<Call>,
    probing: bool,
    last_probe: Option<Instant>,
    slowness: f64,
    /// time spent probing, to leave out of the stage
    probe_s: f64,
}

impl<S: Solver> TimedSolver<S> {
    pub fn new(inner: S) -> Self {
        TimedSolver {
            inner,
            log: Mutex::new(SolverLog {
                slowness: 1.0,
                ..SolverLog::default()
            }),
        }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, SolverLog> {
        self.log.lock().expect("solver log poisoned")
    }

    /// The calls logged since the last `take`, in completion order.
    pub fn take(&self) -> Vec<Call> {
        std::mem::take(&mut self.log().calls)
    }

    /// Runs `stage` with host-speed probes between its solver calls and
    /// returns its time as measured (probes left out) and at reference
    /// speed: each call scaled by the slowness probed just before it, the
    /// rest of the stage by the mean slowness.
    pub fn probed<R>(&self, stage: impl FnOnce() -> R) -> (R, StageTime) {
        {
            let mut log = self.log();
            log.probing = true;
            log.last_probe = None;
            log.probe_s = 0.0;
        }
        let start = Instant::now();
        let out = stage();
        let elapsed = start.elapsed().as_secs_f64();
        let mut log = self.log();
        log.probing = false;
        let wall_s = elapsed - log.probe_s;
        let mut solver_s = 0.0;
        let mut scaled_s = 0.0;
        let mut slowness_sum = 0.0;
        for c in &log.calls {
            let d = (c.end - c.start).as_secs_f64();
            solver_s += d;
            scaled_s += d / c.slowness;
            slowness_sum += c.slowness;
        }
        let mean = slowness_sum / log.calls.len().max(1) as f64;
        scaled_s += (wall_s - solver_s).max(0.0) / mean.max(f64::MIN_POSITIVE);
        drop(log);
        (out, StageTime { wall_s, scaled_s })
    }
}

impl<S: Solver> Solver for TimedSolver<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn sample(&self, model: &QuboModel, batch: usize, seed: u64) -> SampleSet {
        let slowness = {
            let mut log = self.log();
            let due = log
                .last_probe
                .is_none_or(|t| t.elapsed().as_secs_f64() >= PROBE_EVERY_S);
            if log.probing && due {
                let t = Instant::now();
                log.slowness = speed::slowness();
                log.probe_s += t.elapsed().as_secs_f64();
                log.last_probe = Some(Instant::now());
            }
            log.slowness
        };
        let start = Instant::now();
        let out = self.inner.sample(model, batch, seed);
        let end = Instant::now();
        self.log().calls.push(Call {
            start,
            end,
            slowness,
        });
        out
    }
}

/// The held-out instances and their gap references, built before the
/// first collect call.
pub struct TuneSet {
    pub encodings: Vec<TspEncoding>,
    references: Vec<f64>,
    fallbacks: Vec<f64>,
}

impl TuneSet {
    /// Same instances the pipeline holds out, and the same reference and
    /// fallback fitness as the experiment harness's strategy comparison.
    pub fn build(config: &PipelineConfig) -> TuneSet {
        let data = SyntheticDataset::generate(
            &config.generator,
            config.train_instances,
            config.test_instances,
            config.seed,
        );
        let encodings: Vec<TspEncoding> = data
            .test()
            .iter()
            .map(|i| TspEncoding::preprocessed(i.clone()))
            .collect();
        let references: Vec<f64> = encodings
            .iter()
            .map(|e| heuristics::reference_tour(e.fitness_instance(), 8).1)
            .collect();
        let fallbacks = encodings
            .iter()
            .zip(&references)
            .map(|(e, &reference)| {
                let inst = e.fitness_instance();
                inst.tour_length(&heuristics::nearest_neighbor(inst, 0))
                    .max(reference)
                    * 1.5
            })
            .collect();
        TuneSet {
            encodings,
            references,
            fallbacks,
        }
    }
}

/// Everything a pipeline run measured, plus what it needs to measure
/// training and tuning again later in the run.
pub struct PipelineRun {
    pub scale_name: &'static str,
    /// median time of building the tune set (tune-tsp's set-up), at
    /// reference speed
    pub setup_s: f64,
    pub collect: StageTime,
    /// solver-call latency while tuning, at reference speed: each call of
    /// a pass the fastest of its repeats over the passes (tuning is
    /// deterministic, so call `k` of every pass does the same work, and a
    /// host stall must catch the same call in every pass to show)
    pub call_ns: Vec<f64>,
    /// solver `sample` durations during collect and the first tune pass
    pub sample_ns: Vec<f64>,
    pub save_ms: f64,
    pub bundle_bytes: u64,
    pub gap3: f64,
    pub gap20: f64,
    pub feasible_share: f64,
    pub epochs: usize,
    /// the bundle as reloaded from disk
    pub trained: TrainedQross,
    pub bundle_path: std::path::PathBuf,
    train: Vec<StageTime>,
    /// tuning time per held-out instance, one entry per pass
    per_instance: Vec<Vec<StageTime>>,
    corpus: CollectedCorpus,
    solver: TimedSolver<DigitalAnnealer>,
    tune_set: TuneSet,
    runs: Vec<Vec<SolverObservation>>,
    batch: usize,
    seed: u64,
}

/// Builds of the tune set per run; `setup_s` is their median.
const SETUPS: usize = 31;
/// Cities in every generated instance, at every scale and seed: the
/// middle of quick's 8–12 and the top of micro's 9–10. A solver call
/// costs about the fourth power of the city count, so with the scales'
/// own ranges the seed alone moved quick-scale tuning time by ~15%.
pub const CITIES: usize = 10;

/// The workload's pipeline configuration: the scale's, with the seed, one
/// collect worker and every instance [`CITIES`] cities.
pub fn config(scale: Scale, seed: u64) -> PipelineConfig {
    let mut config = pipeline_config(scale, seed);
    config.workers = 1;
    config.generator.min_cities = CITIES;
    config.generator.max_cities = CITIES;
    config
}

/// Runs collect → train → save → load → one tuning pass at `scale`.
/// Collect runs on one worker and tuning on the calling thread alone, so
/// no pool packs unequal work differently from run to run.
pub fn run(
    scale: Scale,
    seed: u64,
    bundle_path: std::path::PathBuf,
    checks: &mut Checks,
) -> Result<PipelineRun, String> {
    let config = config(scale, seed);
    let mut setups = Vec::new();
    let mut tune_set = None;
    let slowness_before = speed::slowness();
    for _ in 0..SETUPS {
        let start = Instant::now();
        let set = TuneSet::build(&config);
        setups.push(start.elapsed().as_secs_f64());
        tune_set = Some(set);
    }
    let slowness = (slowness_before + speed::slowness()) / 2.0;
    let tune_set = tune_set.expect("set up at least once");
    let solver = TimedSolver::new(Solvers::at(scale).da);

    let (corpus, collect) = solver.probed(|| Pipeline::new(config).collect_corpus(&solver));
    let corpus = corpus.map_err(|e| format!("collect failed: {e}"))?;
    let sample_ns: Vec<f64> = solver
        .take()
        .iter()
        .map(|c| (c.end - c.start).as_nanos() as f64)
        .collect();

    let (trained, train) = speed::timed(|| TrainedQross::train_on_corpus(&corpus));
    let trained = trained.map_err(|e| format!("train failed: {e}"))?;

    let start = Instant::now();
    trained
        .save(&bundle_path)
        .map_err(|e| format!("save failed: {e}"))?;
    let save_ms = start.elapsed().as_secs_f64() * 1e3;
    let bundle_bytes = std::fs::metadata(&bundle_path)
        .map_err(|e| format!("stat bundle: {e}"))?
        .len();
    let loaded = TrainedQross::load(&bundle_path).map_err(|e| format!("load failed: {e}"))?;
    // The reloaded bundle must predict the same bits as the trained one.
    checks.check(same_predictions(&trained, &loaded, &tune_set.encodings));
    drop(trained);

    let mut p = PipelineRun {
        scale_name: match scale {
            Scale::Micro => "micro",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        },
        setup_s: median(&setups) / slowness,
        collect,
        call_ns: Vec::new(),
        sample_ns,
        save_ms,
        bundle_bytes,
        gap3: 0.0,
        gap20: 0.0,
        feasible_share: 0.0,
        epochs: config.surrogate.epochs,
        trained: loaded,
        bundle_path,
        train: vec![train],
        per_instance: vec![Vec::new(); tune_set.encodings.len()],
        corpus,
        solver,
        tune_set,
        runs: Vec::new(),
        batch: config.collect.batch,
        seed,
    };
    p.runs = p.tune_pass();

    let mut g3 = Vec::new();
    let mut g20 = Vec::new();
    let (mut feasible, mut trials) = (0usize, 0usize);
    for (i, trials_i) in p.runs.iter().enumerate() {
        let run = qross::eval::StrategyRun {
            strategy: "qross".to_string(),
            instance: String::new(),
            trials: trials_i.clone(),
        };
        let curve = gap_curve(&run, p.tune_set.references[i], p.tune_set.fallbacks[i]);
        g3.push(curve[2]);
        g20.push(curve[TRIALS - 1]);
        feasible += trials_i.iter().filter(|o| o.best_fitness.is_some()).count();
        trials += trials_i.len();
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (p.gap3, p.gap20) = (mean(&g3), mean(&g20));
    p.feasible_share = feasible as f64 / trials.max(1) as f64;
    // Best-so-far gaps never rise with more trials.
    checks.check(p.gap3.is_finite() && p.gap20 >= 0.0 && p.gap20 <= p.gap3);
    Ok(p)
}

impl PipelineRun {
    /// The median training at reference speed. Training is
    /// deterministic; the median over repeats spread through the run
    /// rides out both a disturbed repeat and a misjudged speed probe,
    /// which the fastest repeat would pick out.
    pub fn train(&self) -> StageTime {
        let mut times = self.train.clone();
        times.sort_by(|a, b| a.scaled_s.total_cmp(&b.scaled_s));
        times[(times.len() - 1) / 2]
    }

    /// Every training's time, in the order run.
    pub fn train_times(&self) -> &[StageTime] {
        &self.train
    }

    /// Tuning every held-out instance in turn: the sum over instances of
    /// each instance's fastest pass.
    pub fn tune(&self) -> StageTime {
        let each: Vec<StageTime> = self.per_instance.iter().map(|t| fastest(t)).collect();
        StageTime {
            wall_s: each.iter().map(|t| t.wall_s).sum(),
            scaled_s: each.iter().map(|t| t.scaled_s).sum(),
        }
    }

    /// Tuning passes run so far.
    pub fn passes(&self) -> usize {
        self.per_instance[0].len()
    }

    /// Tuning trials in one pass over the held-out set.
    pub fn trials_per_pass(&self) -> usize {
        TRIALS * self.tune_set.encodings.len()
    }

    /// Trains once more. Training is deterministic: the model must
    /// predict the served bundle's bits. Callers spread repeats through a
    /// run, so the fastest one samples the host's quiet periods too.
    pub fn retrain(&mut self, checks: &mut Checks) -> Result<(), String> {
        let (t, train) = speed::timed(|| TrainedQross::train_on_corpus(&self.corpus));
        let t = t.map_err(|e| format!("train failed: {e}"))?;
        self.train.push(train);
        checks.check(same_predictions(
            &self.trained,
            &t,
            &self.tune_set.encodings,
        ));
        Ok(())
    }

    /// Tunes the held-out set once more; every trial must equal the first
    /// pass's.
    pub fn retune(&mut self, checks: &mut Checks) {
        let runs = self.tune_pass();
        checks.check(runs == self.runs);
    }

    /// One pass tuning each held-out instance in turn, with every nested
    /// solver fan-out inline.
    fn tune_pass(&mut self) -> Vec<Vec<SolverObservation>> {
        let first = self.runs.is_empty();
        let (trained, solver, tune_set) = (&self.trained, &self.solver, &self.tune_set);
        let (per_instance, call_ns, sample_ns) = (
            &mut self.per_instance,
            &mut self.call_ns,
            &mut self.sample_ns,
        );
        let (seed, batch) = (self.seed, self.batch);
        sequential(move || {
            let mut runs = Vec::new();
            let mut call = 0;
            let mut slowness = speed::slowness();
            for (i, enc) in tune_set.encodings.iter().enumerate() {
                let cell_seed = derive_seed(seed, 9000 + i as u64);
                let start = Instant::now();
                let mut strategy = ComposedStrategy::new(
                    &trained.surrogate,
                    trained.features_for(enc),
                    A_DOMAIN,
                    batch,
                    cell_seed,
                );
                let run = run_strategy(enc, solver, &mut strategy, TRIALS, batch, cell_seed);
                let wall_s = start.elapsed().as_secs_f64();
                let before = std::mem::replace(&mut slowness, speed::slowness());
                let factor = (before + slowness) / 2.0;
                per_instance[i].push(StageTime {
                    wall_s,
                    scaled_s: wall_s / factor,
                });
                for c in solver.take() {
                    let ns = (c.end - c.start).as_nanos() as f64;
                    if first {
                        call_ns.push(ns / factor);
                        sample_ns.push(ns);
                    } else if let Some(fastest) = call_ns.get_mut(call) {
                        *fastest = fastest.min(ns / factor);
                    }
                    call += 1;
                }
                runs.push(run.trials);
            }
            runs
        })
    }
}

/// Whether two models featurize `encodings` identically and predict the
/// same bits over a 64-point `A` grid for each.
fn same_predictions(a: &TrainedQross, b: &TrainedQross, encodings: &[TspEncoding]) -> bool {
    let grid = a_grid(64);
    encodings.iter().all(|enc| {
        let features = a.features_for(enc);
        let bits = |t: &TrainedQross| -> Vec<[u64; 3]> {
            t.surrogate
                .predict_grid(&features, &grid)
                .iter()
                .map(crate::bits)
                .collect()
        };
        features == b.features_for(enc) && bits(a) == bits(b)
    })
}

/// The repeat with the smallest time at reference speed (`times` is
/// never empty here).
fn fastest(times: &[StageTime]) -> StageTime {
    *times
        .iter()
        .min_by(|a, b| a.scaled_s.total_cmp(&b.scaled_s))
        .expect("timed at least once")
}

/// Runs `f` on the calling thread with every nested solver fan-out
/// inline: an explicit one-worker map marks its thread a sequential
/// region for the duration.
pub fn sequential<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    let f = Mutex::new(Some(f));
    let run = |(): &mut (), _| (f.lock().expect("lock poisoned").take().expect("runs once"))();
    parallel_map_with_workers(1, 1, || (), run)
        .pop()
        .expect("one result")
}

/// `n` log-spaced relaxation parameters spanning the A domain.
pub fn a_grid(n: usize) -> Vec<f64> {
    let (lo, hi) = (A_DOMAIN.0.ln(), A_DOMAIN.1.ln());
    (0..n)
        .map(|k| (lo + (hi - lo) * k as f64 / (n - 1) as f64).exp())
        .collect()
}

/// Traced pass over the pipeline's layers, after [`run`]: per-profile
/// collect time, strategy planning and per-trial propose/observe time in
/// the benchmark's own copy of the `run_strategy` loop (whose trials
/// must equal the library loop's), and the matmul kernel at the
/// surrogate's layer shapes.
pub fn trace_layers(
    scale: Scale,
    p: &PipelineRun,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let config = config(scale, p.seed);
    let solver = TimedSolver::new(Solvers::at(scale).da);

    let train: Vec<&TspEncoding> = p.trained.train_encodings.iter().take(6).collect();
    for (idx, enc) in train.iter().enumerate() {
        let start = Instant::now();
        collect_profile(
            *enc,
            &solver,
            &config.collect,
            derive_seed(config.seed, 100 + idx as u64),
        );
        let span = tracer.record("collect.profile", start, Instant::now(), None, idx as u64);
        for c in solver.take() {
            tracer.record("solvers.sample", c.start, c.end, Some(span), idx as u64);
        }
    }

    for (i, enc) in p.tune_set.encodings.iter().enumerate() {
        let cell_seed = derive_seed(p.seed, 9000 + i as u64);
        let start = Instant::now();
        let mut strategy = ComposedStrategy::new(
            &p.trained.surrogate,
            p.trained.features_for(enc),
            A_DOMAIN,
            p.batch,
            cell_seed,
        );
        tracer.record("strategy.plan", start, Instant::now(), None, i as u64);
        let mut trials = Vec::with_capacity(TRIALS);
        for t in 0..TRIALS {
            let t0 = Instant::now();
            let trial = tracer.open("tune.trial", t0, i as u64);
            let a = strategy.propose(t);
            let t1 = Instant::now();
            let outcome = observe(
                enc,
                &solver,
                a,
                p.batch,
                derive_seed(cell_seed, 7000 + t as u64),
            );
            let t2 = Instant::now();
            strategy.observe(a, &outcome);
            let t3 = Instant::now();
            tracer.record("strategy.propose", t0, t1, Some(trial), i as u64);
            for c in solver.take() {
                tracer.record("solvers.sample", c.start, c.end, Some(trial), i as u64);
            }
            tracer.record("strategy.observe", t2, t3, Some(trial), i as u64);
            tracer.close(trial, t3);
            trials.push(outcome);
        }
        checks.check(trials == p.runs[i]);
    }

    let h = config.surrogate.hidden;
    let (ns, gflops) = matmul_probe(64, &[(25, h), (h, h), (h, 2)]);
    vec![("kernel.matmul_ns", ns), ("kernel.matmul_gflops", gflops)]
}

/// Median time of one forward's worth of `matmul_serve` calls over
/// `m` rows at the given `(k, n)` layer shapes, and its rate in GFLOP/s
/// counting 2·m·k·n per call.
fn matmul_probe(m: usize, shapes: &[(usize, usize)]) -> (f64, f64) {
    // Nonzero operands: the serve kernel skips zero entries of `a`.
    let fill = |len: usize, salt: usize| -> Vec<f64> {
        (0..len)
            .map(|i| ((i * 2_654_435_761 + salt) % 1000) as f64 / 1000.0 + 0.0005)
            .collect()
    };
    let a: Vec<Vec<f64>> = shapes.iter().map(|&(k, _)| fill(m * k, 1)).collect();
    let b: Vec<Vec<f64>> = shapes.iter().map(|&(k, n)| fill(k * n, 2)).collect();
    let mut out: Vec<Vec<f64>> = shapes.iter().map(|&(_, n)| vec![0.0; m * n]).collect();
    let flops: f64 = shapes.iter().map(|&(k, n)| 2.0 * (m * k * n) as f64).sum();
    let mut samples = Vec::new();
    for _ in 0..400 {
        let start = Instant::now();
        for (i, &(k, n)) in shapes.iter().enumerate() {
            mathkit::kernel::matmul_serve(
                m,
                k,
                n,
                std::hint::black_box(&a[i]),
                std::hint::black_box(&b[i]),
                &mut out[i],
            );
            std::hint::black_box(&out[i]);
        }
        samples.push(start.elapsed().as_nanos() as f64);
    }
    let ns = median(&samples);
    (ns, flops / ns)
}
