//! Continual learning: feedback ingestion and the deterministic replay
//! buffer behind the serving engine's retrain/hot-swap loop.
//!
//! QROSS's OFS (paper §4.2, Algorithm 1) already refines predictions
//! per-instance from observed solver calls; this module generalises that
//! idea to the *serving* tier. Every solved instance's true outcome —
//! the measured `(Pf, Eavg, Estd)` at the relaxation parameter actually
//! used — can be fed back as a [`FeedbackRecord`]; records accumulate in
//! a bounded [`ReplayBuffer`]; and the engine's online trainer
//! periodically fine-tunes the surrogate heads on a buffer snapshot
//! merged with the original training corpus, hot-swapping the result in
//! without dropping a request ([`crate::serve::ServeEngine`]).
//!
//! # Determinism contract
//!
//! The whole loop is a **pure function of the online seed and the
//! ordered feedback records**: the same records, fed in the same order
//! under the same seed, give bit-identical buffers, retrains and
//! checkpoints:
//!
//! * buffer eviction is driven by per-record RNGs derived with
//!   [`mathkit::rng::derive_seed`] from the buffer seed and the record's
//!   stream position — never from wall-clock time or thread identity —
//!   so the buffer contents after `n` pushes are a pure function of the
//!   first `n` records;
//! * retrain snapshots are taken synchronously at the trigger point (the
//!   `refresh_after`-th feedback record, or an explicit refresh), so the
//!   training set of retrain `k` is a pure function of the feedback
//!   prefix that triggered it;
//! * every training seed derives from the online seed and the retrain
//!   index, so retrain `k` produces bit-identical weights wherever and
//!   whenever it runs.
//!
//! The server does not journal those records yet (ROADMAP item 10(c)),
//! so a restarted process cannot replay them.
//!
//! The serving integration (model slots, generation-keyed caching, the
//! background trainer) lives in [`crate::serve`]; checkpoint persistence
//! (the `SURR` v2 payload with its `LINE` lineage section) in
//! [`crate::store`].

use serde::{Deserialize, Serialize};

use mathkit::rng::derive_rng;
use rand::Rng;

use crate::dataset::{DatasetRow, SurrogateDataset};
use crate::QrossError;

/// One observed solver outcome fed back into the serving engine: the
/// ground truth the surrogate predicted blind at request time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedbackRecord {
    /// instance feature vector (same featurizer as the served model)
    pub features: Vec<f64>,
    /// relaxation parameter the solver actually ran with
    pub a: f64,
    /// measured probability of feasibility over the solver batch
    pub observed_pf: f64,
    /// measured batch mean energy
    pub observed_e_avg: f64,
    /// measured batch energy standard deviation
    pub observed_e_std: f64,
    /// client-chosen instance label (lineage/debugging only — never
    /// enters training)
    pub instance_tag: String,
    /// seed of the solver run that produced the observation (lineage
    /// only)
    pub seed: u64,
}

impl FeedbackRecord {
    /// Validates the record against the served model's feature width.
    ///
    /// # Errors
    ///
    /// Returns [`QrossError::BadRequest`] for a width mismatch, a
    /// non-finite value, a non-positive `a`, a `Pf` outside `[0, 1]` or a
    /// negative `Estd`.
    pub fn validate(&self, feature_dim: usize) -> Result<(), QrossError> {
        let bad = |message: String| Err(QrossError::BadRequest { message });
        if self.features.len() != feature_dim {
            return bad(format!(
                "feedback carries {} features, model expects {feature_dim}",
                self.features.len()
            ));
        }
        if let Some(v) = self.features.iter().find(|v| !v.is_finite()) {
            return bad(format!("non-finite feedback feature {v}"));
        }
        if !self.a.is_finite() || self.a <= 0.0 {
            return bad(format!(
                "feedback relaxation parameter must be finite and positive, got {}",
                self.a
            ));
        }
        if !self.observed_pf.is_finite() || !(0.0..=1.0).contains(&self.observed_pf) {
            return bad(format!(
                "observed Pf must lie in [0, 1], got {}",
                self.observed_pf
            ));
        }
        if !self.observed_e_avg.is_finite() {
            return bad(format!(
                "observed mean energy must be finite, got {}",
                self.observed_e_avg
            ));
        }
        if !self.observed_e_std.is_finite() || self.observed_e_std < 0.0 {
            return bad(format!(
                "observed energy std must be finite and non-negative, got {}",
                self.observed_e_std
            ));
        }
        Ok(())
    }

    /// The training row this record contributes to a fine-tune dataset.
    pub fn to_row(&self) -> DatasetRow {
        DatasetRow {
            features: self.features.clone(),
            a: self.a,
            pf: self.observed_pf,
            e_avg: self.observed_e_avg,
            e_std: self.observed_e_std,
        }
    }
}

/// Online-learning knobs for a serving engine.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineConfig {
    /// automatic retrain trigger: fine-tune + swap after every
    /// `refresh_after` accepted feedback records (`0` = manual
    /// [`crate::serve::ServeEngine::refresh`] only)
    pub refresh_after: usize,
    /// total replay-buffer capacity (recency window + reservoir)
    pub buffer_capacity: usize,
    /// slots of the capacity reserved for the most recent records; the
    /// remainder is a seeded reservoir sample of everything older
    /// (clamped to `[1, buffer_capacity]`)
    pub recent_capacity: usize,
    /// how many times each replayed feedback row is repeated relative to
    /// one corpus row when the fine-tune dataset is assembled (the
    /// reweighting of the corpus/feedback merge; min 1)
    pub feedback_weight: usize,
    /// fine-tune epochs per retrain
    pub epochs: usize,
    /// fine-tune Adam learning rate (typically well below the offline
    /// training rate: the heads start from trained weights)
    pub learning_rate: f64,
    /// fine-tune mini-batch size
    pub batch_size: usize,
    /// root seed of the online loop — buffer eviction and every retrain
    /// derive from it (see the module docs)
    pub seed: u64,
    /// directory checkpoints are written to before each swap; `None`
    /// disables checkpointing (swaps still happen, lineage is lost)
    pub checkpoint_dir: Option<std::path::PathBuf>,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            refresh_after: 64,
            buffer_capacity: 1024,
            recent_capacity: 256,
            feedback_weight: 4,
            epochs: 60,
            learning_rate: 5e-4,
            batch_size: 32,
            seed: 0,
            checkpoint_dir: None,
        }
    }
}

/// Provenance of one checkpointed model generation — the `LINE` section
/// of a `SURR` v2 artifact (see `ARTIFACTS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineageHeader {
    /// generation this checkpoint installed
    pub generation: u64,
    /// generation the fine-tune started from
    pub parent_generation: u64,
    /// the online loop's root seed
    pub seed: u64,
    /// 1-based index of the retrain that produced this generation
    pub retrain_index: u64,
    /// total feedback records accepted when the retrain triggered
    pub feedback_count: u64,
    /// replay-buffer rows in the training snapshot
    pub replay_len: u64,
}

/// A surrogate snapshot with optional lineage — the checkpoint artifact
/// the hot-swap path writes (kind `SURR`, payload v2; a plain v1
/// [`crate::surrogate::SurrogateState`] file loads as lineage `None`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SurrogateCheckpoint {
    /// swap provenance; `None` for legacy v1 snapshots
    pub lineage: Option<LineageHeader>,
    /// the model weights + scalers
    pub state: crate::surrogate::SurrogateState,
}

/// Bounded deterministic replay buffer: a recency window plus a seeded
/// reservoir sample of everything that has aged out of it.
///
/// The hybrid keeps both distribution tails the online loop cares about:
/// the *recent* segment guarantees the newest traffic is always
/// represented (drift tracking), while the *reservoir* segment keeps an
/// unbiased uniform sample of the whole history (no catastrophic
/// forgetting of early feedback). Eviction decisions for the `t`-th aged
/// record are drawn from `derive_rng(seed, t)`, so the buffer contents
/// after any push sequence are a pure function of `(seed, sequence)` —
/// reproducible wherever the pushes happen.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    seed: u64,
    recent_cap: usize,
    reservoir_cap: usize,
    recent: std::collections::VecDeque<FeedbackRecord>,
    reservoir: Vec<FeedbackRecord>,
    /// records that have entered the reservoir stream (aged out of the
    /// recency window), 1-based stream position of the last one
    aged: u64,
}

impl ReplayBuffer {
    /// Creates an empty buffer.
    ///
    /// `recent_capacity` is clamped to `[1, capacity]`; the remaining
    /// slots form the reservoir.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, recent_capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "replay buffer needs capacity");
        let recent_cap = recent_capacity.clamp(1, capacity);
        ReplayBuffer {
            seed,
            recent_cap,
            reservoir_cap: capacity - recent_cap,
            recent: std::collections::VecDeque::with_capacity(recent_cap + 1),
            reservoir: Vec::with_capacity(capacity - recent_cap),
            aged: 0,
        }
    }

    /// Records currently held (recency window + reservoir).
    pub fn len(&self) -> usize {
        self.recent.len() + self.reservoir.len()
    }

    /// Whether the buffer holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits one record, evicting deterministically once full.
    pub fn push(&mut self, record: FeedbackRecord) {
        self.recent.push_back(record);
        if self.recent.len() <= self.recent_cap {
            return;
        }
        let aged = self.recent.pop_front().expect("len checked");
        if self.reservoir_cap == 0 {
            return; // recency-only buffer: aged-out records drop
        }
        self.aged += 1;
        if self.reservoir.len() < self.reservoir_cap {
            self.reservoir.push(aged);
            return;
        }
        // Reservoir sampling (Algorithm R): the t-th streamed record
        // replaces a uniform slot with probability k/t. The RNG is
        // derived from the stream position, so this decision is the same
        // whenever the same records arrive in the same order.
        let slot = derive_rng(self.seed, self.aged).gen_range(0..self.aged) as usize;
        if slot < self.reservoir_cap {
            self.reservoir[slot] = aged;
        }
    }

    /// Deterministic snapshot of the current contents: reservoir slots in
    /// slot order, then the recency window oldest-first.
    pub fn snapshot(&self) -> Vec<FeedbackRecord> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.reservoir.iter().cloned());
        out.extend(self.recent.iter().cloned());
        out
    }
}

/// Assembles the fine-tune dataset for one retrain: the base corpus (when
/// given) followed by `feedback_weight` repetitions of the snapshot rows.
///
/// Row order is fully deterministic — corpus rows first in corpus order,
/// then the snapshot repeated block-wise — so the downstream seeded
/// shuffle sees the same dataset on every replay.
///
/// # Errors
///
/// Returns [`QrossError::BadDataset`] when the merge is empty or a
/// feedback row's width disagrees with `feat_dim` (records are validated
/// at ingestion, so the latter indicates caller misuse).
pub fn merge_for_finetune(
    base: Option<&SurrogateDataset>,
    snapshot: &[FeedbackRecord],
    feedback_weight: usize,
    feat_dim: usize,
) -> Result<SurrogateDataset, QrossError> {
    let weight = feedback_weight.max(1);
    let mut rows: Vec<DatasetRow> = Vec::new();
    if let Some(base) = base {
        if base.feat_dim() != feat_dim {
            return Err(QrossError::BadDataset {
                message: format!(
                    "base corpus is {}-wide but the model expects {feat_dim}",
                    base.feat_dim()
                ),
            });
        }
        rows.extend(base.rows().iter().cloned());
    }
    for _ in 0..weight {
        rows.extend(snapshot.iter().map(FeedbackRecord::to_row));
    }
    if rows.is_empty() {
        return Err(QrossError::BadDataset {
            message: "nothing to fine-tune on: empty replay buffer and no base corpus".to_string(),
        });
    }
    SurrogateDataset::try_from_rows(feat_dim, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(k: usize) -> FeedbackRecord {
        FeedbackRecord {
            features: vec![k as f64, -(k as f64) / 3.0],
            a: 0.5 + k as f64,
            observed_pf: (k % 10) as f64 / 10.0,
            observed_e_avg: 4.0 - k as f64 / 7.0,
            observed_e_std: 0.25 + (k % 3) as f64,
            instance_tag: format!("i{k}"),
            seed: k as u64,
        }
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        assert!(record(3).validate(2).is_ok());
        let wrong_width = record(1);
        assert!(matches!(
            wrong_width.validate(5),
            Err(QrossError::BadRequest { .. })
        ));
        let mut nan_feat = record(1);
        nan_feat.features[0] = f64::NAN;
        assert!(nan_feat.validate(2).is_err());
        let mut bad_a = record(1);
        bad_a.a = 0.0;
        assert!(bad_a.validate(2).is_err());
        let mut bad_pf = record(1);
        bad_pf.observed_pf = 1.5;
        assert!(bad_pf.validate(2).is_err());
        let mut bad_std = record(1);
        bad_std.observed_e_std = -1.0;
        assert!(bad_std.validate(2).is_err());
    }

    #[test]
    fn buffer_is_bounded_and_keeps_recent() {
        let mut buf = ReplayBuffer::new(8, 4, 7);
        for k in 0..100 {
            buf.push(record(k));
            assert!(buf.len() <= 8, "buffer overflowed at push {k}");
        }
        let snap = buf.snapshot();
        assert_eq!(snap.len(), 8);
        // The recency window holds exactly the last 4 records, in order.
        let tags: Vec<&str> = snap[4..].iter().map(|r| r.instance_tag.as_str()).collect();
        assert_eq!(tags, vec!["i96", "i97", "i98", "i99"]);
        // The reservoir holds a sample of the aged-out prefix.
        for r in &snap[..4] {
            let k: usize = r.instance_tag[1..].parse().unwrap();
            assert!(k < 96, "reservoir leaked a recent record: {k}");
        }
    }

    #[test]
    fn buffer_contents_are_reproducible() {
        let run = |seed: u64| {
            let mut buf = ReplayBuffer::new(10, 3, seed);
            for k in 0..250 {
                buf.push(record(k));
            }
            buf.snapshot()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "seed does not influence eviction");
    }

    #[test]
    fn buffer_eviction_order_is_stream_position_not_call_site() {
        // Pushing the same sequence through two buffers in two chunks of
        // different sizes must give identical contents: eviction RNGs key
        // on the record's stream position only.
        let mut a = ReplayBuffer::new(6, 2, 3);
        let mut b = ReplayBuffer::new(6, 2, 3);
        for k in 0..40 {
            a.push(record(k));
        }
        for k in 0..25 {
            b.push(record(k));
        }
        for k in 25..40 {
            b.push(record(k));
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn recency_only_buffer_drops_aged_records() {
        let mut buf = ReplayBuffer::new(3, 3, 0);
        for k in 0..10 {
            buf.push(record(k));
        }
        assert_eq!(buf.len(), 3);
        let snap = buf.snapshot();
        let tags: Vec<&str> = snap.iter().map(|r| r.instance_tag.as_str()).collect();
        assert_eq!(tags, vec!["i7", "i8", "i9"]);
    }

    #[test]
    fn merge_reweights_feedback() {
        let mut base = SurrogateDataset::new(2);
        base.push(record(0).to_row());
        let snap = vec![record(1), record(2)];
        let merged = merge_for_finetune(Some(&base), &snap, 3, 2).unwrap();
        assert_eq!(merged.len(), 1 + 3 * 2);
        // Corpus rows lead, then three repetitions of the snapshot.
        assert_eq!(merged.rows()[0], record(0).to_row());
        assert_eq!(merged.rows()[1], record(1).to_row());
        assert_eq!(merged.rows()[2], record(2).to_row());
        assert_eq!(merged.rows()[3], record(1).to_row());
    }

    #[test]
    fn merge_rejects_empty_and_width_mismatch() {
        assert!(matches!(
            merge_for_finetune(None, &[], 4, 2),
            Err(QrossError::BadDataset { .. })
        ));
        let base = SurrogateDataset::new(3);
        assert!(matches!(
            merge_for_finetune(Some(&base), &[record(1)], 1, 2),
            Err(QrossError::BadDataset { .. })
        ));
    }
}
