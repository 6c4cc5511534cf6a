//! Digital Annealer simulator.
//!
//! Implements the algorithm of Aramon et al., *Physics-inspired optimization
//! for QUBO problems using a digital annealer* (Frontiers in Physics 2019) —
//! the published algorithm behind the Fujitsu Digital Annealer the paper
//! uses as its primary solver. Two features distinguish it from plain SA:
//!
//! 1. **Parallel trial.** At every Monte-Carlo step *all* `n` single-bit
//!    flips are evaluated concurrently; one of the accepted flips is applied
//!    uniformly at random. Because the acceptance test runs on every
//!    neighbour, the effective acceptance probability per step is much
//!    higher than SA's single-candidate test.
//! 2. **Dynamic offset.** When no flip is accepted, an escape offset
//!    `E_off` is increased by `offset_step` and is subtracted from the
//!    energy deltas of the next step, letting the chain climb out of deep
//!    local minima; any accepted move resets `E_off` to zero.
//!
//! The hardware runs each replica on dedicated silicon; here replicas map
//! onto CPU threads, and within a thread onto SIMD lanes.
//!
//! # The lane kernel and why it is exact
//!
//! `DigitalAnnealer::run_replica` is the reference: per step it tests
//! every candidate `i` in ascending order, drawing `u = rng.gen::<f64>()`
//! only when `δ > 0` and `δβ < 40`, accepts when `δ ≤ 0` or
//! `u < (-δβ).exp()`, picks `accepted[rng.gen_range(0..count)]`, and keeps
//! a copy of every improving state. The batched path runs replicas as
//! lanes of a [`ReplicaBatch`] and scans each variable's lane row 8 lanes
//! at a time with a branch-free body. Every sample stays bit-identical to
//! `run_replica`:
//!
//! * **Same arithmetic.** `δ = row[l] − E_off[l]` and `x = δβ` are the
//!   reference's two IEEE operations per lane; Rust never contracts them
//!   into an FMA, whichever instruction set a copy is compiled for.
//! * **Same draws.** Each lane's xoshiro256++ state is stored
//!   structure-of-arrays and advanced under a mask only where the
//!   reference would draw, so a lane consumes exactly its own stream in
//!   the reference order. The uniform is the same 53-bit value: the top 52
//!   bits of the draw fill a float in `[1, 2)`, `− 1` is exact, and adding
//!   bit 11 as 2⁻⁵³ is exact. The pick uses the same `gen_range` through a
//!   one-lane view of the generator.
//! * **Same decisions.** A polynomial `exp(−x)` (one `k·ln2` reduction,
//!   degree-6 Taylor) is within 2⁻²² relative error of libm's value for
//!   `x ∈ [0, 40)`; both are at most 1, so they differ by less than 2⁻²².
//!   When `u` is at least 2⁻²⁰ away from the polynomial, `u < poly` and
//!   `u < (-x).exp()` therefore agree. Otherwise (probability ≈ 2⁻¹⁹ per
//!   draw), or for an `x` outside that domain, the block recomputes its
//!   decisions with `(-x).exp()` itself: the kernel's one branch.
//! * **Same pick.** Accepted candidates are kept as per-lane bit words in
//!   ascending `i`, so the k-th set bit is `accepted[k]`.
//! * **Same incumbent.** Instead of copying each improving state, a lane
//!   logs the variables it flips after its last improvement and clears the
//!   log on the next one. Its final assignment with the logged bits flipped
//!   back is exactly the state the reference copied last, and the best
//!   energy is tracked with the same `<` test.
//!
//! One step (scan, pick, flip, log) is one `#[inline(always)]` safe
//! function compiled three times: plain, with AVX2 and POPCNT, and with
//! AVX-512F and POPCNT enabled. The copy is chosen once per
//! [`Solver::sample`] call by runtime feature detection
//! ([`mathkit::kernel::Isa`], shared with the matmul kernels); targets
//! other than x86_64 always run the plain copy. Lane rows are walked in
//! whole blocks (the batch is padded to a multiple of 8 lanes). Idle lanes
//! of a partial block are scanned on the padding lanes' valid caches and
//! draw from their own generators, but never pick or flip, so the lane
//! width stays a pure performance setting.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mathkit::kernel::Isa;
use mathkit::rng::{derive_rng, derive_seed};
use qubo::{QuboModel, QuboState, ReplicaBatch};

use crate::parallel::parallel_map_with;
use crate::sample::{Sample, SampleSet};
use crate::schedule::BetaSchedule;
use crate::Solver;
use kernel::{Lanes, RngBlock, BLOCK};

/// Per-worker scratch for the lane-batched replica loop.
struct DaScratch<'m> {
    /// replica lanes, padded to whole blocks
    replicas: ReplicaBatch<'m>,
    /// per block: the lanes' generator states
    rngs: Vec<RngBlock>,
    /// per block: the lanes' escape offsets
    e_off: Vec<Lanes<f64>>,
    /// one block's accepted-candidate bit words, `words[i / 64]`
    words: Vec<Lanes<u64>>,
    /// per lane: the energy of its best state so far
    best_e: Vec<f64>,
    /// per lane: the variables flipped since its best state (at most one
    /// per step), whose flipping back turns the lane's assignment into
    /// that state
    undo: Vec<Vec<u32>>,
}

/// Configuration for [`DigitalAnnealer`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DaConfig {
    /// number of Monte-Carlo steps per replica (each step evaluates all
    /// `n` candidate flips); `0` runs one step
    pub steps: usize,
    /// optional explicit β range; `None` auto-scales from the model
    pub beta_range: Option<(f64, f64)>,
    /// escape-offset increment applied when a step accepts no flip, as a
    /// fraction of the model's maximum absolute coefficient
    pub offset_step_fraction: f64,
}

impl Default for DaConfig {
    fn default() -> Self {
        DaConfig {
            steps: 2000,
            beta_range: None,
            offset_step_fraction: 0.1,
        }
    }
}

/// CPU simulator of the Fujitsu Digital Annealer algorithm.
///
/// # Examples
///
/// ```
/// use qubo::QuboBuilder;
/// use solvers::{da::DigitalAnnealer, Solver};
/// let mut b = QuboBuilder::new(3);
/// b.add_linear(0, -2.0);
/// b.add_quadratic(0, 1, 1.0);
/// let model = b.build();
/// let set = DigitalAnnealer::default().sample(&model, 4, 7);
/// assert_eq!(set.best().unwrap().energy, -2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DigitalAnnealer {
    config: DaConfig,
}

impl DigitalAnnealer {
    /// Creates a solver with the given configuration.
    pub fn new(config: DaConfig) -> Self {
        DigitalAnnealer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &DaConfig {
        &self.config
    }

    /// Runs one replica in a reused scratch. The parallel-trial loop reads
    /// the maintained flip-delta vector (O(1) per candidate); the one
    /// committed flip is O(degree); incumbent tracking uses the cached
    /// energy — no full `model.energy()` call inside the step loop.
    ///
    /// This is the reference trajectory [`DigitalAnnealer::run_chunk`]
    /// reproduces bit-for-bit, lane by lane.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn run_replica(
        &self,
        state: &mut QuboState<'_>,
        best_x: &mut Vec<u8>,
        accepted: &mut Vec<usize>,
        schedule: &BetaSchedule,
        seed: u64,
    ) -> Sample {
        let mut rng = derive_rng(seed, 0xDA);
        let model = state.model();
        let n = model.num_vars();
        state.randomize(&mut rng);
        best_x.clear();
        best_x.extend_from_slice(state.assignment());
        let mut best_e = state.energy();
        let offset_step = self.config.offset_step_fraction * model.max_abs_coefficient().max(1e-12);
        let mut e_off = 0.0_f64;
        for beta in schedule.iter() {
            accepted.clear();
            // Parallel trial: every candidate flip is tested against the
            // offset-shifted Metropolis criterion.
            for i in 0..n {
                let delta = state.flip_delta(i) - e_off;
                let ok = if delta <= 0.0 {
                    true
                } else {
                    let exponent = delta * beta;
                    exponent < 40.0 && rng.gen::<f64>() < (-exponent).exp()
                };
                if ok {
                    accepted.push(i);
                }
            }
            if accepted.is_empty() {
                // Dynamic offset: lower the barrier for the next step.
                e_off += offset_step;
                continue;
            }
            e_off = 0.0;
            let pick = accepted[rng.gen_range(0..accepted.len())];
            state.flip(pick);
            if state.energy() < best_e {
                best_e = state.energy();
                best_x.copy_from_slice(state.assignment());
            }
        }
        Sample {
            assignment: best_x.clone(),
            energy: best_e,
        }
    }

    /// Runs replicas `first .. first + count` as lanes of one
    /// [`ReplicaBatch`], returning their samples in replica order.
    ///
    /// Each step runs `isa`'s copy of the step body: every block of 8 lanes
    /// is scanned, then each live lane picks and commits its flip. A lane's
    /// best state is its final assignment with its undo log flipped back.
    /// Per lane, draws, decisions and picks equal
    /// [`DigitalAnnealer::run_replica`]'s (see the module docs), so every
    /// sample is bit-identical to the sequential path at any lane width.
    fn run_chunk(
        &self,
        isa: Isa,
        scratch: &mut DaScratch<'_>,
        first: usize,
        count: usize,
        schedule: &BetaSchedule,
        seed: u64,
    ) -> Vec<Sample> {
        let rb = &mut scratch.replicas;
        let model = rb.model();
        for r in 0..count {
            let block = &mut scratch.rngs[r / BLOCK];
            block.seed(
                r % BLOCK,
                derive_seed(derive_seed(seed, (first + r) as u64), 0xDA),
            );
            rb.randomize_lane(r, &mut block.lane(r % BLOCK));
        }
        // One shared CSR traversal rebuilds all lanes' caches.
        rb.rebuild_all();
        debug_assert!(count <= scratch.undo.len());
        scratch.best_e.clear();
        for r in 0..count {
            scratch.best_e.push(rb.energy(r));
            scratch.undo[r].clear();
        }
        let offset_step = self.config.offset_step_fraction * model.max_abs_coefficient().max(1e-12);
        scratch.e_off.fill([0.0; BLOCK]);
        for beta in schedule.iter() {
            kernel::step(isa, scratch, count, beta, offset_step);
        }
        let rb = &scratch.replicas;
        (0..count)
            .map(|r| {
                let mut assignment = Vec::new();
                rb.copy_assignment(r, &mut assignment);
                for &i in &scratch.undo[r] {
                    assignment[i as usize] ^= 1;
                }
                Sample {
                    assignment,
                    energy: scratch.best_e[r],
                }
            })
            .collect()
    }

    /// [`Solver::sample`] on a given copy of the lane kernel.
    fn sample_on(&self, isa: Isa, model: &QuboModel, batch: usize, seed: u64) -> SampleSet {
        let sw = obs::Stopwatch::start();
        if model.num_vars() == 0 {
            return SampleSet::from_samples(
                (0..batch)
                    .map(|_| Sample {
                        assignment: Vec::new(),
                        energy: model.offset(),
                    })
                    .collect(),
            );
        }
        let schedule = match self.config.beta_range {
            Some((hot, cold)) => BetaSchedule::geometric(hot, cold, self.config.steps.max(1)),
            None => BetaSchedule::auto(model, self.config.steps.max(1)),
        };
        // Replicas run as lanes (bit-identical to sequential replicas at
        // any width — see `run_chunk`); chunks of `lanes` replicas fan out
        // across workers.
        let lanes = crate::replica_lanes();
        let blocks = lanes.div_ceil(BLOCK);
        let chunks = batch.div_ceil(lanes.max(1));
        let nested = parallel_map_with(
            chunks,
            || DaScratch {
                replicas: ReplicaBatch::new(model, blocks * BLOCK),
                rngs: vec![RngBlock::default(); blocks],
                e_off: vec![[0.0; BLOCK]; blocks],
                words: vec![[0; BLOCK]; model.num_vars().div_ceil(64)],
                best_e: Vec::with_capacity(lanes),
                undo: vec![Vec::new(); lanes],
            },
            |scratch, chunk| {
                let first = chunk * lanes;
                let count = lanes.min(batch - first);
                self.run_chunk(isa, scratch, first, count, &schedule, seed)
            },
        );
        let set = SampleSet::from_samples(nested.into_iter().flatten().collect());
        // Parallel trial: every Monte-Carlo step evaluates all `n`
        // candidate flips, so one step is one full sweep of deltas.
        let steps = schedule.steps() as u64;
        crate::metrics::record_sample(
            "da",
            sw.elapsed_ns(),
            steps * batch as u64,
            steps * model.num_vars() as u64 * batch as u64,
        );
        set
    }
}

impl Solver for DigitalAnnealer {
    fn name(&self) -> &str {
        "da"
    }

    fn sample(&self, model: &QuboModel, batch: usize, seed: u64) -> SampleSet {
        self.sample_on(Isa::detect(), model, batch, seed)
    }
}

/// The lane kernel: lane generators, the bracketed Metropolis test and
/// the step with its compiled copies.
mod kernel {
    use mathkit::kernel::{Isa, Level};
    use qubo::ReplicaBatch;
    use rand::{Rng, RngCore};

    use super::DaScratch;

    /// Replica lanes one kernel iteration evaluates together.
    pub(super) const BLOCK: usize = 8;

    /// One value per lane of a block.
    pub(super) type Lanes<T> = [T; BLOCK];

    /// One xoshiro256++ step, the core of [`rand::rngs::StdRng`].
    #[inline(always)]
    fn xoshiro_next(s: &mut [u64; 4]) -> u64 {
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// `Rng::gen::<f64>()` of a raw draw: its top 53 bits scaled by 2⁻⁵³.
    /// The top 52 bits fill a float in `[1, 2)`, whose `− 1` is exact, and
    /// bit 11 adds the last 2⁻⁵³, also exactly; no 64-bit integer → float
    /// conversion, so it vectorises.
    #[inline(always)]
    fn unit_f64(draw: u64) -> f64 {
        const HALF_ULP: u64 = (1.0 / (1u64 << 53) as f64).to_bits();
        let hi = f64::from_bits((draw >> 12) | 1.0f64.to_bits()) - 1.0;
        hi + f64::from_bits(HALF_ULP & ((draw >> 11) & 1).wrapping_neg())
    }

    /// The xoshiro256++ states of a block of lanes, structure-of-arrays:
    /// `s[w][l]` is state word `w` of lane `l`, so the kernel advances all
    /// lanes with one vector operation per word.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct RngBlock {
        s: [Lanes<u64>; 4],
    }

    impl RngBlock {
        /// Puts lane `l` in the state of `StdRng::seed_from_u64(seed)`
        /// (four SplitMix64 outputs).
        pub(super) fn seed(&mut self, l: usize, seed: u64) {
            let mut sm = seed;
            for word in &mut self.s {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                word[l] = z ^ (z >> 31);
            }
        }

        /// One masked vector step: every lane set in `draw` advances and
        /// returns its `Rng::gen::<f64>()`; the other lanes keep their state
        /// (their returned value is meaningless).
        #[inline(always)]
        fn uniforms(&mut self, draw: &Lanes<u64>) -> Lanes<f64> {
            let s = &mut self.s;
            let mut u = [0.0; BLOCK];
            for l in 0..BLOCK {
                let old = [s[0][l], s[1][l], s[2][l], s[3][l]];
                let mut new = old;
                u[l] = unit_f64(xoshiro_next(&mut new));
                for w in 0..4 {
                    s[w][l] = (new[w] & draw[l]) | (old[w] & !draw[l]);
                }
            }
            u
        }

        /// Lane `l` as a scalar generator.
        pub(super) fn lane(&mut self, l: usize) -> LaneRng<'_> {
            LaneRng { block: self, l }
        }
    }

    /// One lane of an [`RngBlock`], drawing the same stream as a
    /// [`rand::rngs::StdRng`] in that state.
    pub(super) struct LaneRng<'a> {
        block: &'a mut RngBlock,
        l: usize,
    }

    impl RngCore for LaneRng<'_> {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.block.s;
            let l = self.l;
            let mut lane = [s[0][l], s[1][l], s[2][l], s[3][l]];
            let out = xoshiro_next(&mut lane);
            for (word, v) in s.iter_mut().zip(lane) {
                word[l] = v;
            }
            out
        }
    }

    /// All-ones when `b`, else zero: a lane mask.
    #[inline(always)]
    fn mask(b: bool) -> u64 {
        (b as u64).wrapping_neg()
    }

    /// Below this distance between `u` and the polynomial, the decision is
    /// recomputed with libm; well above the polynomial's error (< 2⁻²²).
    const BRACKET: f64 = 1.0 / (1u64 << 20) as f64;

    /// `exp(-x)` for `x ∈ [0, 40)` within 2⁻²² relative error, branch-free:
    /// `x = k·ln2 + r` with round-to-nearest `k`, then `2⁻ᵏ · e⁻ʳ` with
    /// `|r| ≤ ln2/2` and a degree-6 Taylor polynomial (evaluated by Estrin's
    /// scheme). Its truncation error is below `(ln2/2)⁷/7! · √2 < 2⁻²²`;
    /// the single-constant reduction adds only about 2⁻⁴⁶.
    /// Outside that domain the value is meaningless but computed without
    /// trapping.
    #[inline(always)]
    fn exp_neg(x: f64) -> f64 {
        const SHIFT: f64 = 6_755_399_441_055_744.0; // 1.5 · 2⁵²: rounds to an integer
        let t = x * std::f64::consts::LOG2_E + SHIFT;
        let k = t - SHIFT;
        let z = k * std::f64::consts::LN_2 - x;
        // Estrin's scheme: three short chains instead of 6 Horner steps.
        let z2 = z * z;
        let z4 = z2 * z2;
        let p = ((1.0 + z) + (1.0 / 2.0 + z * (1.0 / 6.0)) * z2)
            + ((1.0 / 24.0 + z * (1.0 / 120.0)) + z2 * (1.0 / 720.0)) * z4;
        let k_bits = t.to_bits().wrapping_sub(SHIFT.to_bits());
        p * f64::from_bits(1023u64.wrapping_sub(k_bits) << 52)
    }

    /// The Metropolis decision `u < (-x).exp()` for every lane set in `draw`
    /// (a zero mask elsewhere), exactly as libm decides it: the polynomial
    /// decides every lane it brackets, and a block with any lane it does not
    /// bracket (or with `x` outside `[0, 40)`) is redecided with libm.
    #[inline(always)]
    fn metropolis(u: &Lanes<f64>, x: &Lanes<f64>, draw: &Lanes<u64>) -> Lanes<u64> {
        let mut hit = [0; BLOCK];
        let mut unsure = 0;
        for l in 0..BLOCK {
            let p = exp_neg(x[l]);
            hit[l] = draw[l] & mask(u[l] < p);
            unsure |= draw[l] & !(mask((u[l] - p).abs() >= BRACKET) & mask(x[l] >= 0.0));
        }
        if unsure != 0 {
            for l in 0..BLOCK {
                hit[l] = draw[l] & mask(u[l] < (-x[l]).exp());
            }
        }
        hit
    }

    /// One Monte-Carlo step of lanes `0 .. count`, block by block: the
    /// parallel-trial scan, then each live lane raises its escape offset or
    /// picks, flips and logs its move.
    #[inline(always)]
    fn step_body(scratch: &mut DaScratch<'_>, count: usize, beta: f64, offset_step: f64) {
        let rb = &mut scratch.replicas;
        let words = &mut scratch.words[..];
        for (b, (rng, e_off)) in scratch.rngs.iter_mut().zip(&mut scratch.e_off).enumerate() {
            let base = b * BLOCK;
            if base >= count {
                break;
            }
            let live = (count - base).min(BLOCK);
            scan(rb, base, e_off, beta, rng, words);
            for l in 0..live {
                let total: u32 = words.iter().map(|w| w[l].count_ones()).sum();
                if total == 0 {
                    // Dynamic offset: lower the barrier for the next step.
                    e_off[l] += offset_step;
                    continue;
                }
                e_off[l] = 0.0;
                let k = rng.lane(l).gen_range(0..total as usize);
                let pick = nth_set_bit(words, l, k);
                let r = base + l;
                rb.flip(r, pick);
                if rb.energy(r) < scratch.best_e[r] {
                    scratch.best_e[r] = rb.energy(r);
                    scratch.undo[r].clear();
                } else {
                    // CSR column indices are `u32`, so every variable is.
                    scratch.undo[r].push(pick as u32);
                }
            }
        }
    }

    /// One parallel-trial scan of the block of lanes `base .. base + 8`:
    /// fills `words` with each lane's accepted candidates (bit `i % 64` of
    /// `words[i / 64]`) and advances each lane's generator by exactly the
    /// draws `run_replica` makes. Idle lanes of a partial block are scanned
    /// too, on the padding lanes' valid caches; their draws touch only
    /// their own generators, and their words are never read.
    #[inline(always)]
    fn scan(
        rb: &ReplicaBatch<'_>,
        base: usize,
        e_off: &Lanes<f64>,
        beta: f64,
        rng: &mut RngBlock,
        words: &mut [Lanes<u64>],
    ) {
        let n = rb.num_vars();
        let mut streams = *rng;
        for (w, out) in words.iter_mut().enumerate() {
            let mut acc = [0; BLOCK];
            for i in w * 64..n.min(w * 64 + 64) {
                let row: &Lanes<f64> = rb.flip_deltas_at(i)[base..base + BLOCK]
                    .try_into()
                    .expect("lane rows hold whole blocks");
                let bit = 1u64 << (i % 64);
                let mut x = [0.0; BLOCK];
                let mut downhill = [0; BLOCK];
                let mut draw = [0; BLOCK];
                for l in 0..BLOCK {
                    let delta = row[l] - e_off[l];
                    x[l] = delta * beta;
                    downhill[l] = mask(delta <= 0.0);
                    draw[l] = !downhill[l] & mask(x[l] < 40.0);
                }
                let u = streams.uniforms(&draw);
                let hit = metropolis(&u, &x, &draw);
                for l in 0..BLOCK {
                    acc[l] |= (downhill[l] | hit[l]) & bit;
                }
            }
            *out = acc;
        }
        *rng = streams;
    }

    /// Index of lane `l`'s `k`-th set bit (0-based) across `words`, i.e.
    /// `accepted[k]` in `run_replica`'s ascending candidate list.
    #[inline(always)]
    fn nth_set_bit(words: &[Lanes<u64>], l: usize, mut k: usize) -> usize {
        for (w, word) in words.iter().enumerate() {
            let mut bits = word[l];
            let ones = bits.count_ones() as usize;
            if k < ones {
                for _ in 0..k {
                    bits &= bits - 1;
                }
                return w * 64 + bits.trailing_zeros() as usize;
            }
            k -= ones;
        }
        unreachable!("pick index beyond the accepted count")
    }

    /// The AVX2 copy.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,popcnt")]
    fn step_avx2(scratch: &mut DaScratch<'_>, count: usize, beta: f64, offset_step: f64) {
        step_body(scratch, count, beta, offset_step)
    }

    /// The AVX-512 copy.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,popcnt")]
    fn step_avx512(scratch: &mut DaScratch<'_>, count: usize, beta: f64, offset_step: f64) {
        step_body(scratch, count, beta, offset_step)
    }

    /// Runs `isa`'s copy of [`step_body`] on lanes `0 .. count`.
    pub(super) fn step(
        isa: Isa,
        scratch: &mut DaScratch<'_>,
        count: usize,
        beta: f64,
        offset_step: f64,
    ) {
        match isa.level() {
            Level::Plain => step_body(scratch, count, beta, offset_step),
            // SAFETY: an `Isa` at `Level::Avx2` exists only after the host
            // reported POPCNT and AVX2 (`mathkit::kernel::Isa` is the one
            // detector, and only its `detect` and `supported` make one), so
            // the host executes POPCNT and AVX2 instructions.
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => unsafe { step_avx2(scratch, count, beta, offset_step) },
            // SAFETY: an `Isa` at `Level::Avx512` exists only after the host
            // reported POPCNT and AVX-512F (`mathkit::kernel::Isa` is the one
            // detector, and only its `detect` and `supported` make one), so
            // the host executes POPCNT and AVX-512F instructions.
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => unsafe { step_avx512(scratch, count, beta, offset_step) },
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use mathkit::rng::{derive_rng, derive_seed};
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Each lane of the structure-of-arrays generator draws
        /// `derive_rng`'s stream, through masked vector steps (`gen::<f64>`)
        /// and the scalar lane view (`next_u64`, `gen_range`) alike.
        #[test]
        fn lane_generators_match_derive_rng() {
            let mut block = RngBlock::default();
            let mut want: Vec<StdRng> = (0..BLOCK).map(|l| derive_rng(77, l as u64)).collect();
            for l in 0..BLOCK {
                block.seed(l, derive_seed(77, l as u64));
            }
            let mut pattern = mathkit::rng::seeded_rng(5);
            for step in 0..10_000 {
                let mut draw = [0; BLOCK];
                for d in &mut draw {
                    *d = mask(pattern.gen_bool(0.6));
                }
                let u = block.uniforms(&draw);
                for l in 0..BLOCK {
                    if draw[l] != 0 {
                        assert_eq!(
                            u[l].to_bits(),
                            want[l].gen::<f64>().to_bits(),
                            "step {step} lane {l}"
                        );
                    }
                }
                let l = step % BLOCK;
                match step % 3 {
                    0 => assert_eq!(block.lane(l).next_u64(), want[l].gen::<u64>()),
                    1 => {
                        let span = 1 + step % 130;
                        assert_eq!(block.lane(l).gen_range(0..span), want[l].gen_range(0..span));
                    }
                    _ => {}
                }
            }
        }

        /// `nth_set_bit` equals a naive select over the concatenated words
        /// for every `k`: random word pairs (so `k` lands in either word),
        /// a full first word, an empty first word and single bits.
        #[test]
        fn nth_set_bit_matches_naive_select() {
            let mut rng = mathkit::rng::seeded_rng(9);
            let mut pairs: Vec<[u64; 2]> = (0..200).map(|_| [rng.gen(), rng.gen()]).collect();
            pairs.extend([[u64::MAX, 0], [u64::MAX, u64::MAX], [0, 1 << 63], [1, 0]]);
            for (t, pair) in pairs.iter().enumerate() {
                let l = t % BLOCK;
                let mut words = [[0; BLOCK]; 2];
                words[0][l] = pair[0];
                words[1][l] = pair[1];
                let naive: Vec<usize> = (0..128)
                    .filter(|&i| pair[i / 64] >> (i % 64) & 1 == 1)
                    .collect();
                for (k, &want) in naive.iter().enumerate() {
                    assert_eq!(nth_set_bit(&words, l, k), want, "{pair:x?} k={k}");
                }
            }
        }

        /// Points of `[0, 40)` on which the polynomial is checked: a dense
        /// grid, the ends, tiny values and the rounding ties of `k`.
        fn exponent_grid() -> Vec<f64> {
            let mut xs: Vec<f64> = (0..400_000).map(|i| i as f64 * 1e-4).collect();
            xs.extend([
                0.0,
                f64::MIN_POSITIVE,
                1e-300,
                1e-17,
                1e-9,
                40.0f64.next_down(),
            ]);
            xs.extend((1..58).map(|k| (k as f64 + 0.5) * std::f64::consts::LN_2));
            xs.extend((0..1000).map(|i| 40.0 - i as f64 * 1e-12));
            xs
        }

        #[test]
        fn polynomial_exp_is_within_2_pow_minus_22_of_libm() {
            let tol = 1.0 / (1u64 << 22) as f64;
            for x in exponent_grid() {
                let (got, want) = (exp_neg(x), (-x).exp());
                assert!(
                    ((got - want) / want).abs() < tol,
                    "exp(-{x:e}): {got:e} vs libm {want:e}"
                );
            }
        }

        /// At and next to libm's own value the polynomial cannot decide, so
        /// this forces the fallback; everywhere the decision is libm's.
        #[test]
        fn metropolis_decides_exactly_as_libm() {
            let xs = exponent_grid();
            for chunk in xs.chunks(BLOCK).step_by(7) {
                for shift in -2i32..=2 {
                    let mut x = [0.0; BLOCK];
                    let mut u = [0.0; BLOCK];
                    for (l, &e) in chunk.iter().enumerate() {
                        x[l] = e;
                        u[l] = (-e).exp();
                        for _ in 0..shift.unsigned_abs() {
                            u[l] = if shift > 0 {
                                u[l].next_up()
                            } else {
                                u[l].next_down()
                            };
                        }
                    }
                    let hit = metropolis(&u, &x, &[u64::MAX; BLOCK]);
                    for l in 0..chunk.len() {
                        assert_eq!(
                            hit[l] != 0,
                            u[l] < (-x[l]).exp(),
                            "x={:e} shift={shift}",
                            x[l]
                        );
                    }
                }
            }
            // Far from the boundary the polynomial decides alone.
            let hit = metropolis(&[0.25; BLOCK], &[0.5; BLOCK], &[u64::MAX; BLOCK]);
            assert_eq!(hit, [u64::MAX; BLOCK]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubo::QuboBuilder;

    fn frustrated8() -> QuboModel {
        // Ring of 8 with alternating couplings plus fields: multiple local
        // minima, good escape-offset exercise.
        let mut b = QuboBuilder::new(8);
        for i in 0..8 {
            b.add_linear(i, if i % 2 == 0 { 0.5 } else { -0.5 });
            let j = (i + 1) % 8;
            b.add_quadratic(i, j, if i % 2 == 0 { 1.0 } else { -1.2 });
        }
        b.build()
    }

    fn exact_minimum(model: &QuboModel) -> f64 {
        let n = model.num_vars();
        let mut best = f64::INFINITY;
        for bits in 0..(1u32 << n) {
            let x: Vec<u8> = (0..n).map(|k| ((bits >> k) & 1) as u8).collect();
            best = best.min(model.energy(&x));
        }
        best
    }

    #[test]
    fn finds_ground_state() {
        let m = frustrated8();
        let truth = exact_minimum(&m);
        let set = DigitalAnnealer::default().sample(&m, 8, 11);
        assert!((set.best().unwrap().energy - truth).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = frustrated8();
        let solver = DigitalAnnealer::default();
        assert_eq!(solver.sample(&m, 4, 9), solver.sample(&m, 4, 9));
    }

    #[test]
    fn energies_consistent() {
        let m = frustrated8();
        for s in DigitalAnnealer::default().sample(&m, 6, 2).iter() {
            assert!((m.energy(&s.assignment) - s.energy).abs() < 1e-9);
        }
    }

    #[test]
    fn escape_offset_escapes_local_minimum() {
        // Deep double well: x=[0,0] is local (energy 0 barriers around),
        // global is x=[1,1] at -1 but the path through [1,0]/[0,1] costs +5.
        let mut b = QuboBuilder::new(2);
        b.add_linear(0, 5.0);
        b.add_linear(1, 5.0);
        b.add_quadratic(0, 1, -11.0);
        let m = b.build();
        // Cold start config: very few steps at high β would trap plain SA
        // starting at [0,0]; the dynamic offset must still escape.
        let solver = DigitalAnnealer::new(DaConfig {
            steps: 400,
            beta_range: Some((5.0, 50.0)),
            offset_step_fraction: 0.2,
        });
        let set = solver.sample(&m, 8, 3);
        assert_eq!(set.best().unwrap().energy, -1.0);
    }

    /// Lane width is a pure performance knob: any width produces the
    /// sample set bit-identically, and each sample equals a sequential
    /// `run_replica` with the same per-replica seed.
    #[test]
    fn lane_width_invariant_and_matches_run_replica() {
        let m = frustrated8();
        let solver = DigitalAnnealer::new(DaConfig {
            steps: 200,
            ..Default::default()
        });
        let baseline = solver.sample(&m, 11, 42);
        for width in [1usize, 3, 8, 16] {
            crate::set_replica_lanes(width);
            let got = solver.sample(&m, 11, 42);
            crate::set_replica_lanes(0);
            assert_eq!(got, baseline, "width {width} diverged");
        }
        let schedule = BetaSchedule::auto(&m, 200);
        for (replica, sample) in baseline.iter().enumerate() {
            let mut state = QuboState::new(&m, vec![0; 8]);
            let mut best_x = Vec::new();
            let mut accepted = Vec::new();
            let want = solver.run_replica(
                &mut state,
                &mut best_x,
                &mut accepted,
                &schedule,
                mathkit::rng::derive_seed(42, replica as u64),
            );
            assert_eq!(sample.assignment, want.assignment, "replica {replica}");
            assert_eq!(
                sample.energy.to_bits(),
                want.energy.to_bits(),
                "replica {replica}"
            );
        }
    }

    #[test]
    fn zero_steps_returns_initial_states() {
        let m = frustrated8();
        let solver = DigitalAnnealer::new(DaConfig {
            steps: 0,
            ..Default::default()
        });
        let set = solver.sample(&m, 4, 1);
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn empty_model() {
        let m = QuboBuilder::new(0).build();
        let set = DigitalAnnealer::default().sample(&m, 2, 1);
        assert_eq!(set.len(), 2);
    }

    fn random_model(n: usize, density: f64, seed: u64) -> QuboModel {
        let mut rng = mathkit::rng::seeded_rng(seed);
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            b.add_linear(i, rng.gen_range(-2.0..2.0));
            for j in (i + 1)..n {
                if rng.gen::<f64>() < density {
                    b.add_quadratic(i, j, rng.gen_range(-1.5..1.5));
                }
            }
        }
        b.build()
    }

    /// Every kernel copy the host runs reproduces `run_replica` bit for
    /// bit, across word-boundary sizes, partial and whole lane blocks,
    /// ragged last chunks and the zero-, one- and many-step schedules.
    #[test]
    fn every_kernel_copy_matches_run_replica() {
        let copies = Isa::supported();
        println!(
            "DA lane kernel: host runs {copies:?}; sample() dispatches {:?}",
            Isa::detect()
        );
        for (k, n) in [1usize, 63, 64, 65, 130].into_iter().enumerate() {
            let m = random_model(n, 8.0 / n as f64, 31 + k as u64);
            for steps in [0usize, 1, 200] {
                let solver = DigitalAnnealer::new(DaConfig {
                    steps,
                    ..Default::default()
                });
                let schedule = BetaSchedule::auto(&m, steps.max(1));
                for batch in [1usize, 5, 17, 24] {
                    let seed = 1000 + batch as u64;
                    let mut state = QuboState::new(&m, vec![0; n]);
                    let (mut best_x, mut accepted) = (Vec::new(), Vec::new());
                    // `SampleSet` orders samples by energy (stably).
                    let want = SampleSet::from_samples(
                        (0..batch)
                            .map(|r| {
                                let rs = derive_seed(seed, r as u64);
                                solver.run_replica(
                                    &mut state,
                                    &mut best_x,
                                    &mut accepted,
                                    &schedule,
                                    rs,
                                )
                            })
                            .collect(),
                    );
                    for lanes in [1usize, 3, 8, 11, 16] {
                        crate::set_replica_lanes(lanes);
                        for &isa in &copies {
                            let got = solver.sample_on(isa, &m, batch, seed);
                            let ctx =
                                format!("{isa:?} n={n} steps={steps} batch={batch} lanes={lanes}");
                            assert_eq!(got.len(), batch, "{ctx}");
                            for (r, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                                assert_eq!(g.assignment, w.assignment, "{ctx} replica {r}");
                                assert_eq!(
                                    g.energy.to_bits(),
                                    w.energy.to_bits(),
                                    "{ctx} replica {r}"
                                );
                            }
                        }
                        crate::set_replica_lanes(0);
                    }
                }
            }
        }
    }
}
