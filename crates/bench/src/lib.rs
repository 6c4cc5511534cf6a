//! # bench — the experiment harness regenerating every table and figure
//!
//! One binary per paper artefact (see DESIGN.md §4 for the index):
//!
//! | binary   | paper artefact | content |
//! |----------|----------------|---------|
//! | `fig1`   | Fig. 1         | Pf and min-energy vs `A` for DA and SA |
//! | `fig3`   | Fig. 3         | gap vs trials, 4 methods, synthetic test set |
//! | `fig4`   | Fig. 4         | gap vs trials, 4 methods, out-of-distribution set |
//! | `fig5`   | Fig. 5         | cross-solver ablation (train DA, test Qbsolv) |
//! | `fig6`   | Fig. 6         | MVC penalty sweep, analog-noise QA-sim vs SA |
//! | `table1` | Table 1        | gap at trials #3/#20, 2 solvers × 2 datasets × 4 methods |
//!
//! Every experiment binary accepts `--scale micro|quick|paper` (default
//! `quick`) and `--seed N`, prints a text rendition of the artefact
//! through [`run_experiment`], and writes JSON to `results/` via the
//! artifact store's JSON writer.
//!
//! Two further binaries exercise the **train-once / serve-many** split
//! end to end (see `ARTIFACTS.md`):
//!
//! | binary          | content |
//! |-----------------|---------|
//! | `qross-train`   | collect + train on a generated corpus of any registered problem family, write a `.qross` model and a predictions manifest |
//! | `qross-predict` | reload the model in a fresh process, recompute the manifest for a byte-exact diff |
//! | `qross-serve`   | load a model once, serve NDJSON prediction/upload requests over stdio or TCP ([`protocol`]) |

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod experiments;
pub mod net;
pub mod protocol;
pub mod serve;

use experiments::ComparisonResult;
use serde::Serialize;

/// Experiment scale: `quick` preserves the paper's qualitative shape at
/// laptop cost; `paper` uses the publication settings; `micro` is the
/// CI/test scale (seconds end to end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// seconds-scale configuration used by tests and CI smoke steps
    Micro,
    /// minutes-scale reproduction (default)
    Quick,
    /// the paper's full settings
    Paper,
}

impl Scale {
    /// Parses `micro` / `quick` / `paper` (case-insensitive).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "micro" => Some(Scale::Micro),
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// experiment scale
    pub scale: Scale,
    /// root seed
    pub seed: u64,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: Scale::Quick,
            seed: 2021,
        }
    }
}

impl Cli {
    /// Parses `--scale` and `--seed` from `argv` (without the program
    /// name) through [`serve::walk_args`].
    ///
    /// # Errors
    ///
    /// The message [`serve::usage_exit`] prints: empty for `--help`.
    pub fn parse(argv: &[String]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        serve::walk_args(argv, &["--scale", "--seed"], &[], |flag, value| {
            if flag == "--scale" {
                cli.scale = serve::parse_scale(value)?;
            } else {
                cli.seed = serve::parse_seed(value)?;
            }
            Ok(())
        })?;
        Ok(cli)
    }

    /// Parses `std::env::args`, exiting with a usage message on
    /// malformed input.
    pub fn from_args() -> Cli {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Cli::parse(&argv).unwrap_or_else(|message| {
            serve::usage_exit(
                "<experiment> [--scale micro|quick|paper] [--seed N]",
                &message,
            )
        })
    }
}

/// The shared experiment-runner skeleton every figure binary follows:
/// parse the common CLI, compute the result, render it as text, persist
/// it as JSON under `results/` through the artifact store's JSON writer,
/// and report the path written.
///
/// `compute` is fallible: a pipeline error (e.g. surrogate training
/// diverged) exits with a message instead of aborting through a panic.
/// Exits with a non-zero status when the result cannot be computed or
/// written.
pub fn run_experiment<T: Serialize>(
    name: &str,
    compute: impl FnOnce(Scale, u64) -> Result<T, qross::QrossError>,
    render: impl FnOnce(&T),
) {
    let cli = Cli::from_args();
    let result = match compute(cli.scale, cli.seed) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {name} failed: {e}");
            std::process::exit(1);
        }
    };
    render(&result);
    match write_json(name, &result) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: failed to write results: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes a JSON artefact under `results/` through the artifact store's
/// JSON writer, creating the directory on demand. Returns the path
/// written.
///
/// # Errors
///
/// Propagates [`qross_store::StoreError`] for filesystem or
/// serialisation failures.
pub fn write_json<T: Serialize>(
    name: &str,
    value: &T,
) -> Result<std::path::PathBuf, qross_store::StoreError> {
    let path = std::path::Path::new("results").join(format!("{name}.json"));
    qross_store::json::write_json_file(&path, value)?;
    Ok(path)
}

/// Renders a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths.iter())
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Renders the shared Fig. 3/4 text artefact: the per-trial gap table for
/// every method plus best/worst extremes at trials #1, #3 and #20.
pub fn render_comparison(result: &ComparisonResult) {
    let widths = [6, 18, 18, 18, 18];
    let header: Vec<String> = std::iter::once("trial".to_string())
        .chain(result.curves.iter().map(|c| c.method.clone()))
        .collect();
    println!("{}", row(&header, &widths));
    // Curves can legitimately differ in length (an all-empty strategy run
    // aggregates to an *empty* curve), so index defensively.
    let trials = result
        .curves
        .iter()
        .map(|c| c.mean.len())
        .max()
        .unwrap_or(0);
    for t in 0..trials {
        let cells: Vec<String> = std::iter::once(format!("{}", t + 1))
            .chain(
                result
                    .curves
                    .iter()
                    .map(|c| match (c.mean.get(t), c.ci95.get(t)) {
                        (Some(m), Some(h)) => format!("{m:.4} ±{h:.4}"),
                        _ => "—".to_string(),
                    }),
            )
            .collect();
        println!("{}", row(&cells, &widths));
    }
    for trial in [1, 3, 20] {
        let mut at: Vec<(String, f64)> = result
            .curves
            .iter()
            .map(|c| (c.method.clone(), c.gap_at_trial(trial)))
            .collect();
        at.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let (Some(best), Some(worst)) = (at.first(), at.last()) else {
            continue;
        };
        println!(
            "trial #{trial}: best = {} ({:.4}); worst = {} ({:.4})",
            best.0, best.1, worst.0, worst.1
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("Micro"), Some(Scale::Micro));
        assert_eq!(Scale::parse("huge"), None);
    }

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn cli_parses_scale_and_seed() {
        let cli = Cli::parse(&argv(&["--seed", "5", "--scale", "micro"])).unwrap();
        assert_eq!((cli.scale, cli.seed), (Scale::Micro, 5));
        let cli = Cli::parse(&[]).unwrap();
        assert_eq!((cli.scale, cli.seed), (Scale::Quick, 2021));
        assert_eq!(Cli::parse(&argv(&["--help"])).unwrap_err(), "");
    }

    #[test]
    fn a_flag_followed_by_a_flag_has_no_value() {
        let err = Cli::parse(&argv(&["--scale", "--seed", "5"])).unwrap_err();
        assert_eq!(err, "flag `--scale` needs a value");
        let err = Cli::parse(&argv(&["--seed"])).unwrap_err();
        assert_eq!(err, "flag `--seed` needs a value");
        let err = Cli::parse(&argv(&["--scale", "huge"])).unwrap_err();
        assert_eq!(err, "bad --scale value `huge`");
        let err = Cli::parse(&argv(&["--bogus"])).unwrap_err();
        assert_eq!(err, "unknown argument `--bogus`");
    }

    #[test]
    fn row_renders_fixed_width() {
        let r = row(&["a".to_string(), "bb".to_string()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
