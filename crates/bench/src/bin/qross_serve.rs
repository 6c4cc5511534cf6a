//! `qross-serve` — the serving daemon of the train-once / serve-many
//! loop: load a model once, answer prediction requests forever.
//!
//! Two transports, two wire formats, one protocol (`bench::protocol`):
//! both transports sniff each connection's first bytes and speak either
//! NDJSON (lines starting with `{` or whitespace) or QBIN, the
//! length-framed binary format (`QBIN` magic, raw little-endian f64
//! rows, CRC-32 trailer — see ARTIFACTS.md). Both formats share one
//! port and one engine; responses carry identical f64 bit patterns.
//!
//! * **stdio** (default): requests on stdin, responses on stdout, exit at
//!   EOF. Composable — `qross-serve --model m.qross < requests.ndjson`.
//! * **TCP event loop** (`--listen ADDR`): one nonblocking thread
//!   multiplexes every connection (`bench::net`) over the shared
//!   engine — concurrent clients' requests micro-batch together,
//!   NDJSON and QBIN clients side by side. `--max-conns` caps
//!   simultaneous connections.
//!
//! Both run the same sans-IO session core, so a connection's response
//! bytes do not depend on the transport.
//!
//! Multi-tenancy: repeatable `--tenant NAME=WEIGHT[:QUOTA]` assigns
//! weighted-fair shares (and optional pending-row quotas) to requests
//! tagged with a `tenant` field; `--tenant default=...` reconfigures the
//! untagged class.
//!
//! The model may be a full `.qross` bundle (TSP: enables the `tsp`
//! upload op), a bare surrogate snapshot (MVC/QAP: `predict` only) or an
//! online checkpoint; a JSON dump is rejected.
//!
//! All diagnostics go to stderr; stdout carries protocol bytes only.

use std::sync::Arc;

use bench::net::{serve_event_loop, EventLoopConfig};
use bench::protocol::serve_connection;
use bench::serve::{usage_exit, walk_args};
use qross::dataset::SurrogateDataset;
use qross::online::{OnlineConfig, SurrogateCheckpoint};
use qross::pipeline::{CollectedCorpus, TrainedQross};
use qross::serve::{ServeConfig, ServeEngine, ServeModel, TenantClass, TenantPolicy};
use qross::surrogate::{Surrogate, SurrogateState};
use qross_store::Artifact;

const USAGE: &str = "qross-serve --model PATH [--listen ADDR] \
                     [--metrics-listen ADDR] \
                     [--max-conns N] [--tenant NAME=WEIGHT[:QUOTA]]... [--workers N] \
                     [--batch ROWS] [--queue ROWS] [--cache ENTRIES] \
                     [--online] [--refresh-after N] [--checkpoint-dir DIR] \
                     [--corpus PATH] [--online-seed N] [--online-epochs N]";

enum Listen {
    Stdio,
    EventLoop(String),
}

struct ServeCli {
    model: String,
    listen: Listen,
    /// Prometheus exposition endpoint (`GET /metrics`), on its own port
    /// so scrapes never share a socket with protocol bytes.
    metrics_listen: Option<String>,
    max_conns: usize,
    config: ServeConfig,
    online: bool,
    online_config: OnlineConfig,
    corpus: Option<String>,
}

/// Parses one `--tenant NAME=WEIGHT[:QUOTA]` spec into the policy.
/// `NAME=default` reconfigures the untagged class.
fn parse_tenant_spec(policy: &mut TenantPolicy, spec: &str) {
    let bad = |why: &str| -> ! {
        usage_exit(
            USAGE,
            &format!("bad --tenant value `{spec}` ({why}); expected NAME=WEIGHT[:QUOTA]"),
        )
    };
    let Some((name, rest)) = spec.split_once('=') else {
        bad("missing `=`");
    };
    if name.is_empty() {
        bad("empty tenant name");
    }
    let (weight_str, quota_str) = match rest.split_once(':') {
        Some((w, q)) => (w, Some(q)),
        None => (rest, None),
    };
    let Ok(weight) = weight_str.parse::<u32>() else {
        bad("weight is not a number");
    };
    if weight == 0 {
        bad("weight must be at least 1");
    }
    let quota_rows = match quota_str {
        Some(q) => match q.parse::<usize>() {
            Ok(q) => q,
            Err(_) => bad("quota is not a number"),
        },
        None => 0,
    };
    let class = TenantClass { weight, quota_rows };
    if name == "default" {
        policy.default_class = class;
    } else if let Some(slot) = policy.classes.iter_mut().find(|(n, _)| n == name) {
        slot.1 = class;
    } else {
        policy.classes.push((name.to_string(), class));
    }
}

fn parse_cli() -> ServeCli {
    let mut cli = ServeCli {
        model: String::new(),
        listen: Listen::Stdio,
        metrics_listen: None,
        max_conns: 0,
        config: ServeConfig::default(),
        online: false,
        online_config: OnlineConfig::default(),
        corpus: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let valued = [
        "--model",
        "--listen",
        "--metrics-listen",
        "--max-conns",
        "--tenant",
        "--workers",
        "--batch",
        "--queue",
        "--cache",
        "--refresh-after",
        "--checkpoint-dir",
        "--corpus",
        "--online-seed",
        "--online-epochs",
    ];
    walk_args(&argv, &valued, &["--online"], |flag, value| {
        let count = || {
            value
                .parse::<usize>()
                .map_err(|_| format!("bad {flag} value `{value}`"))
        };
        match flag {
            "--online" => cli.online = true,
            "--model" => cli.model = value.to_string(),
            "--listen" => cli.listen = Listen::EventLoop(value.to_string()),
            "--metrics-listen" => cli.metrics_listen = Some(value.to_string()),
            "--max-conns" => cli.max_conns = count()?.max(1),
            "--tenant" => parse_tenant_spec(&mut cli.config.tenants, value),
            "--workers" => cli.config.workers = count()?,
            "--batch" => cli.config.max_batch_rows = count()?.max(1),
            "--queue" => cli.config.queue_capacity = count()?.max(1),
            "--cache" => cli.config.cache_capacity = count()?,
            "--refresh-after" => cli.online_config.refresh_after = count()?,
            "--checkpoint-dir" => {
                cli.online_config.checkpoint_dir = Some(std::path::PathBuf::from(value));
            }
            "--corpus" => cli.corpus = Some(value.to_string()),
            "--online-seed" => {
                cli.online_config.seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("bad --online-seed value `{value}`"))?;
            }
            "--online-epochs" => cli.online_config.epochs = count()?,
            _ => unreachable!("flag already screened"),
        }
        Ok(())
    })
    .unwrap_or_else(|message| usage_exit(USAGE, &message));
    if cli.model.is_empty() {
        usage_exit(USAGE, "--model is required");
    }
    cli
}

/// Loads a `.qross` bundle if the artifact is one, otherwise a surrogate
/// checkpoint: a bare v1 snapshot or an online checkpoint (`SURR` v2 with
/// lineage), so a serving process can resume from its own checkpoints.
/// Nothing else loads; a JSON dump fails both attempts as a bad magic.
fn load_model(path: &str) -> Result<ServeModel, String> {
    let bundle_err = match TrainedQross::load(path) {
        Ok(trained) => return Ok(ServeModel::Bundle(Arc::new(trained))),
        Err(e) => e,
    };
    match SurrogateCheckpoint::load(path) {
        Ok(checkpoint) => {
            if let Some(l) = &checkpoint.lineage {
                eprintln!(
                    "qross-serve: checkpoint lineage: generation {} (parent {}, \
                     retrain {}, {} feedback records)",
                    l.generation, l.parent_generation, l.retrain_index, l.feedback_count
                );
            }
            surrogate_model(checkpoint.state)
        }
        // Both attempts failed: report each decoder's own diagnosis —
        // a corrupt checkpoint must surface its precise error, not the
        // unrelated kind-mismatch from the bundle attempt.
        Err(checkpoint_err) => Err(format!(
            "loading model failed — as bundle: {bundle_err}; as checkpoint: {checkpoint_err}"
        )),
    }
}

fn surrogate_model(state: SurrogateState) -> Result<ServeModel, String> {
    Surrogate::from_state(state)
        .map(|surrogate| ServeModel::Surrogate(Arc::new(surrogate)))
        .map_err(|e| format!("restoring surrogate failed: {e}"))
}

/// Loads the original training corpus merged under every online
/// fine-tune: a bare `DSET` dataset or a full `CORP` collect-stage
/// corpus (its dataset is used).
fn load_corpus(path: &str) -> Result<SurrogateDataset, String> {
    let dataset_err = match SurrogateDataset::load(path) {
        Ok(ds) => return Ok(ds),
        Err(e) => e,
    };
    // As in `load_model`: a corrupt dataset must surface its own
    // diagnosis, not only the corpus decoder's kind mismatch.
    CollectedCorpus::load(path)
        .map(|corpus| corpus.dataset)
        .map_err(|corpus_err| {
            format!("loading corpus failed — as dataset: {dataset_err}; as corpus: {corpus_err}")
        })
}

fn main() {
    let cli = parse_cli();
    let model = load_model(&cli.model).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let kind = if model.trained().is_some() {
        "bundle"
    } else {
        "surrogate"
    };
    let feature_dim = model.feature_dim();
    let base = cli.corpus.as_deref().map(|path| {
        load_corpus(path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
    });
    for (name, class) in &cli.config.tenants.classes {
        eprintln!(
            "qross-serve: tenant {name}: weight {}, quota {}",
            class.weight,
            if class.quota_rows == 0 {
                "unlimited".to_string()
            } else {
                class.quota_rows.to_string()
            }
        );
    }
    let engine = if cli.online {
        ServeEngine::with_online(model, cli.config, cli.online_config.clone(), base).unwrap_or_else(
            |e| {
                eprintln!("error: starting online engine failed: {e}");
                std::process::exit(1);
            },
        )
    } else {
        if base.is_some() {
            eprintln!("warning: --corpus is only used with --online; ignoring it");
        }
        ServeEngine::new(model, cli.config)
    };
    eprintln!(
        "qross-serve: loaded {kind} from {} ({feature_dim} features); {engine:?}{}",
        cli.model,
        if cli.online {
            format!(
                "; online (refresh-after {}, checkpoints {})",
                cli.online_config.refresh_after,
                cli.online_config
                    .checkpoint_dir
                    .as_ref()
                    .map(|d| d.display().to_string())
                    .unwrap_or_else(|| "disabled".to_string())
            )
        } else {
            String::new()
        }
    );

    // The metrics endpoint thread outlives every listen mode, so the
    // engine moves behind an Arc; protocol paths keep borrowing it.
    let engine = Arc::new(engine);
    if let Some(addr) = &cli.metrics_listen {
        let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
            eprintln!("error: cannot listen on {addr} for metrics: {e}");
            std::process::exit(1);
        });
        // Force lazily-created series to register now, so the first
        // scrape lists every metric even before traffic touches it.
        bench::protocol::register_protocol_metrics();
        solvers::metrics::register_metrics();
        eprintln!("qross-serve: metrics on http://{addr}/metrics");
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || bench::net::serve_metrics_http(&engine, listener));
    }

    match cli.listen {
        Listen::Stdio => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            if let Err(e) = serve_connection(&engine, stdin.lock(), stdout.lock()) {
                eprintln!("error: stdio session failed: {e}");
                std::process::exit(1);
            }
        }
        Listen::EventLoop(addr) => {
            let listener = std::net::TcpListener::bind(&addr).unwrap_or_else(|e| {
                eprintln!("error: cannot listen on {addr}: {e}");
                std::process::exit(1);
            });
            eprintln!("qross-serve: listening on {addr} (event loop)");
            let config = EventLoopConfig {
                max_conns: cli.max_conns,
                ..EventLoopConfig::default()
            };
            if let Err(e) = serve_event_loop(&engine, listener, config) {
                eprintln!("error: event loop failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let stats = engine.stats();
    eprintln!(
        "qross-serve: {} requests ({} rows, {} cache hits, {} batches, {} rejected, \
         {} feedback, {} refreshes, final generation {})",
        stats.requests,
        stats.rows,
        stats.cache_hits,
        stats.batches,
        stats.rejected,
        stats.feedback,
        stats.refreshes,
        engine.generation()
    );
}
