//! `predict-qbin`: open-loop single-row QBIN predicts.
//!
//! One stream, one op type, one size class: every request is a 24-feature
//! predict at one `A`. A seeded quarter repeat a request sent within the
//! last ~1,000 (inside the engine's 4,096-entry LRU); the rest are fresh.
//! Fixed-rate phases give the latency percentiles; the rate search that
//! follows finds the highest rate whose p99 stays within
//! [`P99_LIMIT_US`] with no growing backlog.

use std::time::Duration;

use bench::protocol::bin::encode_predict;
use bench::protocol::Response;
use mathkit::rng::{derive_rng, derive_seed};
use qross::pipeline::{TrainedQross, A_DOMAIN};
use rand::Rng;

use crate::loadgen::{
    lag_is_valid, open_loop, poisson_schedule, windowed_p99, OpenLoopOutcome, Phase,
};
use crate::server::Server;
use crate::Checks;

/// `qross-serve` flags beyond the model and address.
pub const SERVER_ARGS: &[&str] = &["--workers", "1"];
/// Length of one rate-search step, seconds.
const SEARCH_STEP_S: f64 = 0.5;
/// Bisections between the last passing and the first missing rate.
const BISECTIONS: usize = 3;
/// Offered rate of the fixed-rate phases, requests per second: about a
/// quarter of what the server sustains today. At half of it, queueing
/// made p50 swing with the host's speed from run to run.
pub const FIXED_RPS: f64 = 25_000.0;
/// p99 latency limit of the rate search, microseconds.
pub const P99_LIMIT_US: f64 = 5_000.0;
/// Highest rate the search may offer; it must stop below this.
pub const TOP_RPS: f64 = 400_000.0;
/// First rate the search offers.
const SEARCH_START_RPS: f64 = 64_000.0;
/// Lowest rate the search may offer.
pub const FLOOR_RPS: f64 = 5_000.0;
/// Generator lag (windowed p99, as for latency) beyond which a run is
/// invalid, microseconds.
pub const LAG_LIMIT_US: f64 = 200.0;
/// Distinct feature vectors requests draw from.
const POOL: usize = 4096;
/// Repeats copy a request from this many most recent ones.
const REPEAT_WINDOW: usize = 1000;

/// The seeded request stream: every request is `(pool index, A)`.
pub struct PredictStream {
    pool: Vec<Vec<f64>>,
    history: Vec<(usize, f64)>,
    seed: u64,
    phases: u64,
}

impl PredictStream {
    /// Feature vectors are the bundle's training-instance features, each
    /// component jittered by up to ±1%, so every row is in-distribution
    /// for the surrogate but distinct.
    pub fn new(trained: &TrainedQross, seed: u64) -> PredictStream {
        let base: Vec<Vec<f64>> = trained
            .train_encodings
            .iter()
            .map(|e| trained.features_for(e))
            .collect();
        let mut rng = derive_rng(seed, 1);
        let pool = (0..POOL)
            .map(|k| {
                base[k % base.len()]
                    .iter()
                    .map(|&v| v * (1.0 + 0.02 * (rng.gen::<f64>() - 0.5)))
                    .collect()
            })
            .collect();
        PredictStream {
            pool,
            history: Vec::new(),
            seed,
            phases: 0,
        }
    }

    /// The next phase at `rate` for `seconds`: its schedule, its encoded
    /// frames (request `i` carries id `i`) and the oracle's answer for
    /// each request, all computed before the phase's clock starts.
    pub fn phase(
        &mut self,
        trained: &TrainedQross,
        rate: f64,
        seconds: f64,
    ) -> (Phase, Vec<[u64; 3]>) {
        self.phases += 1;
        let due_ns = poisson_schedule(derive_seed(self.seed, 100 + self.phases), rate, seconds);
        let mut rng = derive_rng(self.seed, 200 + self.phases);
        let mut frames = Vec::new();
        let mut ends = Vec::with_capacity(due_ns.len());
        let mut oracle = Vec::with_capacity(due_ns.len());
        let (lo, hi) = (A_DOMAIN.0.ln(), A_DOMAIN.1.ln());
        for i in 0..due_ns.len() {
            let h = self.history.len();
            let (idx, a) = if h > 0 && rng.gen::<f64>() < 0.25 {
                self.history[h - 1 - rng.gen_range(0..h.min(REPEAT_WINDOW))]
            } else {
                (
                    rng.gen_range(0..self.pool.len()),
                    (lo + (hi - lo) * rng.gen::<f64>()).exp(),
                )
            };
            self.history.push((idx, a));
            encode_predict(&mut frames, Some(i as u64), "", &[a], &self.pool[idx]);
            ends.push(frames.len());
            oracle.push(crate::bits(&trained.surrogate.predict(&self.pool[idx], a)));
        }
        (
            Phase {
                frames,
                ends,
                due_ns,
            },
            oracle,
        )
    }

    /// The recorded requests, for the in-process replay.
    pub fn requests(&self) -> impl Iterator<Item = (&[f64], f64)> + '_ {
        self.history
            .iter()
            .map(|&(i, a)| (self.pool[i].as_slice(), a))
    }
}

/// Whether a reply is the right, bit-exact answer to request `i`.
pub fn reply_matches(reply: &Response, i: usize, oracle: &[u64; 3]) -> bool {
    reply.ok
        && reply.id == Some(i as u64)
        && matches!(&reply.predictions, Some(p) if p.len() == 1
            && [p[0].pf_bits, p[0].e_avg_bits, p[0].e_std_bits] == *oracle)
}

/// Checks every sent request's reply against the oracle; undecodable
/// replies fail every request.
pub fn verify(out: &OpenLoopOutcome, oracle: &[[u64; 3]], checks: &mut Checks) {
    let replies = out.replies().unwrap_or_default();
    for (i, (latency, want)) in out.latency_ns.iter().zip(oracle).enumerate() {
        let ok = latency.is_some() && replies.get(i).is_some_and(|r| reply_matches(r, i, want));
        checks.check(ok);
    }
}

/// The median latency (ns), an unanswered request counting as
/// infinitely late.
pub fn median_latency(latency_ns: &[Option<u64>]) -> f64 {
    let all: Vec<f64> = latency_ns
        .iter()
        .map(|l| l.map_or(f64::INFINITY, |l| l as f64))
        .collect();
    crate::stats::median(&all)
}

/// One measured open-loop step of the rate search.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub offered_rps: f64,
    pub achieved_rps: f64,
    /// scheduled time the step covered, seconds
    pub span_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub pass: bool,
}

/// Runs one phase at `rate` and verifies it.
pub fn step(
    addr: &str,
    stream: &mut PredictStream,
    trained: &TrainedQross,
    rate: f64,
    seconds: f64,
    checks: &mut Checks,
) -> (Step, OpenLoopOutcome) {
    let (phase, oracle) = stream.phase(trained, rate, seconds);
    // A quarter second of backlog at the offered rate is far past the
    // knee, yet rides out a host stall of tens of milliseconds. The
    // server stages at most its pipeline depth per connection and leaves
    // the rest in the socket, so its queue never overflows.
    let max_in_flight = (rate * 0.25) as usize;
    let out = open_loop(addr, &phase, max_in_flight, Duration::from_secs(5));
    let before = checks.failed;
    verify(&out, &oracle, checks);
    let p50_us = median_latency(&out.latency_ns) / 1e3;
    let p99_us = windowed_p99(&out.latency_ns) / 1e3;
    let answered = out.latency_ns.iter().flatten().count();
    let span_s = phase.due_ns.last().map_or(seconds, |&d| d as f64 / 1e9);
    let pass = out.error.is_none()
        && !out.cut_short
        && checks.failed == before
        && answered == phase.due_ns.len()
        && p99_us <= P99_LIMIT_US;
    (
        Step {
            offered_rps: rate,
            achieved_rps: answered as f64 / span_s,
            span_s,
            p50_us,
            p99_us,
            pass,
        },
        out,
    )
}

/// The rate search: bracket the knee in 25% steps, then bisect between
/// the highest passing and the lowest missing rate. Returns the highest
/// passing step and every step taken.
pub fn search(
    addr: &str,
    stream: &mut PredictStream,
    trained: &TrainedQross,
    checks: &mut Checks,
) -> (Option<Step>, Vec<Step>) {
    let mut steps: Vec<Step> = Vec::new();
    let mut best: Option<usize> = None;
    let mut miss: Option<f64> = None;
    let mut rate = SEARCH_START_RPS;
    // A miss must repeat before it counts: one host stall can sink a
    // single step well below the knee.
    let mut confirmed = |rate: f64, steps: &mut Vec<Step>| {
        let (s, _) = step(addr, stream, trained, rate, SEARCH_STEP_S, checks);
        if s.pass {
            return s;
        }
        steps.push(s);
        step(addr, stream, trained, rate, SEARCH_STEP_S, checks).0
    };
    // Bracket the knee: up by 25% a step while steps pass, down while
    // they miss, until one passing and one missing rate are known.
    while (best.is_none() || miss.is_none()) && (FLOOR_RPS..=TOP_RPS).contains(&rate) {
        let s = confirmed(rate, &mut steps);
        if s.pass {
            best = Some(steps.len());
            rate *= 1.25;
        } else {
            miss = Some(rate);
            rate /= 1.25;
        }
        steps.push(s);
    }
    for _ in 0..BISECTIONS {
        let (Some(b), Some(m)) = (best, miss) else {
            break;
        };
        let rate = (steps[b].offered_rps * m).sqrt();
        let s = confirmed(rate, &mut steps);
        if s.pass {
            best = Some(steps.len());
        } else {
            miss = Some(rate);
        }
        steps.push(s);
    }
    (best.map(|b| steps[b]), steps)
}

/// What the fixed-rate phases measured.
pub struct Fixed {
    /// the median over phases of each phase's median latency at
    /// reference speed: divided by the server CPU's slowness probed just
    /// before and after the phase (see `speed`)
    pub p50_us: f64,
    /// the same as measured
    pub p50_wall_us: f64,
    /// the lowest of the phases' windowed p99s (see [`windowed_p99`])
    pub p99_us: f64,
    /// windowed p99 of the generator's lag over every phase
    pub lag_p99_us: f64,
    /// verified replies per second of scheduled time, every phase
    pub achieved_rps: f64,
}

/// A verified but untimed warm-up at the fixed rate, then `phases` timed
/// phases of `phase_s` each, with `between(phase index)` run after each
/// one and `slowness()` probed (while the server is idle) around each.
///
/// Host disturbances come and go over seconds, and a phase caught in a
/// burst of them reads several times slower at p99. The phases are
/// spread through the run. The p99 reported is the quietest phase's: a
/// burst only ever raises a phase's p99, and a slower server raises it in
/// every phase. Phase by phase the median latency moves with the
/// server CPU's speed, in both directions, so the p50 reported is the
/// median over phases of each phase's p50 at reference speed. A run
/// whose generator lag exceeds [`LAG_LIMIT_US`] is invalid.
#[allow(clippy::too_many_arguments)]
pub fn fixed_rate(
    server: &Server,
    stream: &mut PredictStream,
    trained: &TrainedQross,
    warm_s: f64,
    phase_s: f64,
    phases: usize,
    slowness: &mut dyn FnMut() -> Result<f64, String>,
    between: &mut dyn FnMut(usize, &mut Checks) -> Result<(), String>,
    checks: &mut Checks,
) -> Result<Fixed, String> {
    let (warm, _) = step(&server.addr, stream, trained, FIXED_RPS, warm_s, checks);
    eprintln!("warm-up: p50 {:.0}us p99 {:.0}us", warm.p50_us, warm.p99_us);
    let (mut p50_us, mut p50_scaled) = (Vec::new(), Vec::new());
    let mut p99_us = f64::INFINITY;
    let mut lag_ns = Vec::new();
    let (mut answered, mut span_s) = (0usize, 0.0);
    for phase in 0..phases {
        let before = slowness()?;
        let (s, out) = step(&server.addr, stream, trained, FIXED_RPS, phase_s, checks);
        if let Some(e) = &out.error {
            return Err(format!("fixed-rate phase: {e}"));
        }
        let factor = (before + slowness()?) / 2.0;
        eprintln!(
            "fixed: p50 {:.0}us p99 {:.0}us slowness {factor:.3}",
            s.p50_us, s.p99_us
        );
        p50_scaled.push(s.p50_us / factor);
        p50_us.push(s.p50_us);
        p99_us = p99_us.min(s.p99_us);
        lag_ns.extend_from_slice(&out.lag_ns);
        answered += out.latency_ns.iter().flatten().count();
        span_s += s.span_s;
        between(phase, checks)?;
    }
    let lag: Vec<Option<u64>> = lag_ns.iter().map(|&l| Some(l)).collect();
    let lag_p99_us = windowed_p99(&lag) / 1e3;
    if !lag_is_valid(&lag_ns, LAG_LIMIT_US * 1e3) {
        return Err(format!(
            "invalid run, not recorded: generator lag p99 {lag_p99_us:.0}us exceeds {LAG_LIMIT_US}us"
        ));
    }
    Ok(Fixed {
        p50_us: crate::stats::median(&p50_scaled),
        p50_wall_us: crate::stats::median(&p50_us),
        p99_us,
        lag_p99_us,
        achieved_rps: answered as f64 / span_s,
    })
}
