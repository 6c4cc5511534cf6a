//! `perfbench` — end-to-end and per-layer benchmark of QROSS.
//!
//! ```text
//! perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists):
//!
//! * `predict-qbin` — open-loop single-row QBIN predicts against
//!   `qross-serve --listen --workers 1`;
//! * `tune-tsp` — the paper's collect → train → tune loop in-process.
//!
//! Every run checks every output against an in-process oracle and prints,
//! as its last stdout line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

mod affinity;
mod loadgen;
mod ndjson;
mod pipeline;
mod qbin;
mod replay;
mod server;
mod speed;
mod stats;
mod trace;

use std::path::PathBuf;

use bench::Scale;
use qross::pipeline::TrainedQross;
use qross::surrogate::SurrogatePrediction;

/// Server starts per serve run; `setup_s` is their median.
const SERVER_STARTS: usize = 31;
/// Timed fixed-rate phases per `predict-qbin` run, spread through it;
/// the bundle's training is measured again after every one and its
/// tuning after every third one. Odd, so the median over phases is one
/// phase's figure.
const PHASES: usize = 11;
/// Rate searches per `predict-qbin` run; `sustained_rps` is the median
/// of their results.
const SEARCHES: usize = 3;

/// Pass/fail tally of every output check a run makes.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server: String,
}

const USAGE: &str =
    "perfbench --server PATH --workload predict-qbin|tune-tsp --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server: String::new(),
    };
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag `{}` needs a value", pair[0]));
        };
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("--seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("--seconds"))?;
                if args.seconds.is_nan() || args.seconds < 1.0 {
                    return Err(bad("--seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                }
            }
            "--server" => args.server = value.clone(),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !matches!(args.workload.as_str(), "predict-qbin" | "tune-tsp") {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if args.server.is_empty() {
        return Err("--server is required".to_string());
    }
    Ok(args)
}

/// What a run reports: its metrics and the settings that produced them.
pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub settings: Vec<(&'static str, String)>,
}

impl Report {
    fn new() -> Report {
        Report {
            metrics: Vec::new(),
            settings: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn setting(&mut self, name: &'static str, value: impl ToString) {
        self.settings.push((name, value.to_string()));
    }
}

/// Where runs leave bundles, spans and result records (inside the
/// checkout, ignored by git).
pub fn runs_dir() -> PathBuf {
    PathBuf::from(".bench_runs")
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).unwrap_or_else(|_| "\"?\"".to_string())
}

/// nproc, CPU model, rustc version and git revision (when run from the
/// root of a git checkout).
fn host_fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", run("rustc", &["--version"])),
        (
            "git_rev",
            if std::path::Path::new(".git").exists() {
                run("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".to_string()
            },
        ),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\nusage: {USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(runs_dir()) {
        eprintln!("error: create {}: {e}", runs_dir().display());
        std::process::exit(1);
    }
    let mut checks = Checks::default();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("tune-tsp", false) => tune_tsp(&args, &mut checks),
        ("predict-qbin", false) => qbin_workload(&args, &mut checks),
        (_, true) => replay::traced(&args, &mut checks),
        _ => unreachable!("workload screened by parse_args"),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if let Some((name, value, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("error: metric {name} is not finite ({value})");
        std::process::exit(1);
    }

    let mut record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace
    );
    for (k, v) in &report.settings {
        record.push_str(&format!(",{}:{}", json_str(k), json_str(v)));
    }
    record.push_str("},\"host\":{");
    let host: Vec<String> = host_fingerprint()
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    record.push_str(&host.join(","));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{value},\"unit\":{}}}",
                json_str(unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics.join(",")
    );
    let full = format!("{{\"record\":{record}}},\"result\":{result}}}");
    let path = runs_dir().join(format!(
        "result-{}-{}-t{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, format!("{full}\n")) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    println!("{full}");
    println!("{result}");
}

/// Peak resident set of this process, MiB.
pub fn self_peak_rss_mb() -> Result<f64, String> {
    server::peak_rss_mb("/proc/self/status")
}

/// A prediction's `(Pf, Eavg, Estd)` bit patterns.
pub fn bits(p: &SurrogatePrediction) -> [u64; 3] {
    [p.pf.to_bits(), p.e_avg.to_bits(), p.e_std.to_bits()]
}

/// The metrics every workload takes from its pipeline run, and the
/// quality it reached.
fn report_pipeline(r: &mut Report, p: &pipeline::PipelineRun) {
    let (train, tune) = (p.train(), p.tune());
    r.metric("collect_s", p.collect.scaled_s, "s");
    r.metric("train_s", train.scaled_s, "s");
    r.metric("tune_s", tune.scaled_s, "s");
    r.setting("collect_wall_s", p.collect.wall_s);
    r.setting("train_wall_s", train.wall_s);
    r.setting("tune_wall_s", tune.wall_s);
    r.setting("scale", p.scale_name);
    let trains: Vec<String> = p
        .train_times()
        .iter()
        .map(|t| format!("{:.4}", t.scaled_s))
        .collect();
    r.setting("train_scaled_s", trains.join(" "));
    r.setting("tune_passes", p.passes());
    r.setting("gap3", p.gap3);
    r.setting("gap20", p.gap20);
}

/// `tune-tsp`: the pipeline at quick scale, trained seven times and tuned
/// twice. Latency is per solver call while tuning, rates are tuning
/// trials per second.
fn tune_tsp(args: &Args, checks: &mut Checks) -> Result<Report, String> {
    let bundle = runs_dir().join(format!("tune-tsp-{}.qross", args.seed));
    let mut p = pipeline::run(Scale::Quick, args.seed, bundle, checks)?;
    for _ in 0..3 {
        p.retrain(checks)?;
    }
    p.retune(checks);
    for _ in 0..3 {
        p.retrain(checks)?;
    }
    let trials_per_s = p.trials_per_pass() as f64 / p.tune().scaled_s;
    let mut r = Report::new();
    r.setting(
        "threads",
        "1 (collect on one worker, tuning one instance at a time)",
    );
    r.metric("setup_s", p.setup_s, "s");
    r.metric("p50_us", stats::median(&p.call_ns) / 1e3, "us");
    r.metric("p99_us", stats::quantile(&p.call_ns, 0.99) / 1e3, "us");
    r.metric("sustained_rps", trials_per_s, "1/s");
    r.metric("throughput_rps", trials_per_s, "1/s");
    r.metric("peak_rss_mb", self_peak_rss_mb()?, "MiB");
    report_pipeline(&mut r, &p);
    Ok(r)
}

/// `predict-qbin`: build the micro bundle, start the server, run the
/// fixed-rate phases (training again after each, tuning again after
/// every third) and then the rate searches.
fn qbin_workload(args: &Args, checks: &mut Checks) -> Result<Report, String> {
    let bundle = runs_dir().join(format!("predict-qbin-{}.qross", args.seed));
    let mut p = pipeline::run(Scale::Micro, args.seed, bundle, checks)?;
    let trained = TrainedQross::load(&p.bundle_path).map_err(|e| format!("load failed: {e}"))?;
    let mut stream = qbin::PredictStream::new(&trained, args.seed);
    let (server, setup_s) = server::start_repeatedly(
        &args.server,
        &p.bundle_path,
        qbin::SERVER_ARGS,
        SERVER_STARTS,
    )?;
    let layout = affinity::Layout::enter(server.pid())?;
    let fixed = qbin::fixed_rate(
        &server,
        &mut stream,
        &trained,
        1.0,
        0.4 * args.seconds / PHASES as f64,
        PHASES,
        &mut || layout.server_cpu_slowness(),
        &mut |phase, checks| {
            p.retrain(checks)?;
            if phase % 3 == 2 {
                p.retune(checks);
            }
            Ok(())
        },
        checks,
    )?;
    // Each search's rate as measured and at reference speed: scaled by
    // the server CPU's slowness probed just before and after it.
    let (mut sustained, mut sustained_wall) = (Vec::new(), Vec::new());
    for _ in 0..SEARCHES {
        let before = layout.server_cpu_slowness()?;
        let (best, steps) = qbin::search(&server.addr, &mut stream, &trained, checks);
        let factor = (before + layout.server_cpu_slowness()?) / 2.0;
        for s in &steps {
            eprintln!(
                "search: offered {:.0}/s achieved {:.0}/s p50 {:.0}us p99 {:.0}us {}",
                s.offered_rps,
                s.achieved_rps,
                s.p50_us,
                s.p99_us,
                if s.pass { "pass" } else { "miss" }
            );
        }
        let Some(best) = best else {
            return Err("no offered rate met the latency limit".to_string());
        };
        if steps.iter().all(|s| s.pass) {
            return Err("the rate search never found the knee".to_string());
        }
        sustained.push(best.achieved_rps * factor);
        sustained_wall.push(best.achieved_rps);
    }
    let m = server.metrics()?.metrics;
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(server);
    layout.leave()?;
    let mut r = Report::new();
    r.setting("offered_rps", qbin::FIXED_RPS);
    r.setting("p99_limit_us", qbin::P99_LIMIT_US);
    r.setting("loadgen_threads", 2);
    r.setting("connections", 1);
    r.setting("server", qbin::SERVER_ARGS.join(" "));
    r.setting("lag_p99_us", fixed.lag_p99_us);
    r.setting("rows_per_batch", m.batch_occupancy);
    r.setting("cache_hit_ratio", m.cache_hit_rate);
    r.setting("p50_wall_us", fixed.p50_wall_us);
    r.setting("sustained_wall_rps", stats::median(&sustained_wall));
    r.setting(
        "searches_wall_rps",
        sustained_wall
            .iter()
            .map(|s| format!("{s:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    r.metric("setup_s", setup_s, "s");
    r.metric("p50_us", fixed.p50_us, "us");
    r.metric("p99_us", fixed.p99_us, "us");
    r.metric("sustained_rps", stats::median(&sustained), "1/s");
    r.metric("throughput_rps", fixed.achieved_rps, "1/s");
    r.metric("peak_rss_mb", peak_rss_mb, "MiB");
    report_pipeline(&mut r, &p);
    Ok(r)
}
