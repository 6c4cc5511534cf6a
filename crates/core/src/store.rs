//! Artifact-store bindings: binary `.qross` encodings for every pipeline
//! artifact.
//!
//! The wire format (container header, section table, CRC per section) is
//! owned by the `qross-store` crate and specified in `ARTIFACTS.md`; this
//! module supplies the per-type payload layouts — how a
//! [`SurrogateDataset`], a [`SurrogateState`], a [`PipelineConfig`] and
//! a trained [`QrossBundle`] map onto sections of codec primitives. Every `f64` travels as its raw bit pattern, so a decode is
//! bit-identical to what was encoded; decoders validate shapes and
//! finiteness where the in-memory invariants demand it and return typed
//! [`StoreError`]s — never panics — on malformed input.
//!
//! Artifact kind tags:
//!
//! | type                 | kind tag | sections |
//! |----------------------|----------|----------|
//! | [`SurrogateDataset`] | `DSET`   | `DATA` |
//! | [`SurrogateState`]   | `SURR`   | `SURR` |
//! | [`SurrogateCheckpoint`] | `SURR` (payload v2) | `SURR`, `LINE` (optional) |
//! | [`CollectedCorpus`]  | `CORP` (payload v2) | `PCFG`, `FEAT`, `INST`, `DSET` |
//! | [`QrossBundle`]      | `BNDL` (payload v2) | `PCFG`, `FEAT`, `SURR`, `INST`, `RPRT` |
//!
//! The `SURR` payload was bumped 1 → 2 **compatibly** for the online
//! hot-swap loop: v2 adds an optional `LINE` section carrying the swap
//! lineage ([`LineageHeader`]), and the v2 reader
//! ([`SurrogateCheckpoint`]) still decodes plain v1 snapshots (lineage
//! `None`). v1 readers ([`SurrogateState`]) reject v2 files with a typed
//! `UnsupportedVersion` rather than misreading them.
//!
//! The `CORP`/`BNDL` payloads were bumped 1 → 2 for the problem-family
//! layer: the v2 `INST` section is **family-tagged and sparse** — it
//! opens with the family name (`"tsp"`), and each instance persists its
//! generating coordinates (2n floats) when it has them, or the
//! upper-triangle distances (n(n−1)/2 floats) otherwise, instead of the
//! dense n×n matrix v1 wrote. Re-deriving distances from coordinates is
//! bit-identical (IEEE 754 ops are deterministic), so reloaded bundles
//! predict bit-identically. The v2 readers still decode v1 payloads;
//! [`CollectedCorpus::to_v1_bytes`] / [`QrossBundle::to_v1_bytes`] emit
//! the legacy dense layout for compatibility gates and size baselines.

use mathkit::stats::ZScore;
use mathkit::Matrix;
use neural::trainer::TrainHistory;
use problems::TspInstance;
use qross_store::codec::{ByteReader, ByteWriter};
use qross_store::{get_mlp_state, put_mlp_state, Artifact, SectionReader, SectionWriter};
use qross_store::{StoreError, FORMAT_VERSION};

use crate::collect::CollectConfig;
use crate::dataset::{DatasetRow, Scalers, SurrogateDataset};
use crate::features::FeaturizerSpec;
use crate::online::{LineageHeader, SurrogateCheckpoint};
use crate::pipeline::{CollectedCorpus, PipelineConfig, QrossBundle};
use crate::surrogate::{SurrogateConfig, SurrogateState, TrainReport};
use crate::QrossError;

impl From<StoreError> for QrossError {
    fn from(e: StoreError) -> Self {
        QrossError::Persistence {
            message: e.to_string(),
        }
    }
}

fn corrupt(message: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// field-level helpers (shared by several artifacts)
// ---------------------------------------------------------------------------

fn put_zscore(w: &mut ByteWriter, z: &ZScore) {
    w.put_f64(z.mean);
    w.put_f64(z.std);
}

fn get_zscore(r: &mut ByteReader<'_>) -> Result<ZScore, StoreError> {
    Ok(ZScore {
        mean: r.get_f64()?,
        std: r.get_f64()?,
    })
}

pub(crate) fn put_scalers(w: &mut ByteWriter, s: &Scalers) {
    w.put_usize(s.features.len());
    for z in &s.features {
        put_zscore(w, z);
    }
    put_zscore(w, &s.log_a);
    put_zscore(w, &s.e_avg);
    put_zscore(w, &s.e_std);
}

pub(crate) fn get_scalers(r: &mut ByteReader<'_>) -> Result<Scalers, StoreError> {
    let n = r.get_len(16)?;
    let mut features = Vec::with_capacity(n);
    for _ in 0..n {
        features.push(get_zscore(r)?);
    }
    Ok(Scalers {
        features,
        log_a: get_zscore(r)?,
        e_avg: get_zscore(r)?,
        e_std: get_zscore(r)?,
    })
}

/// Flat surrogate-snapshot payload (both heads + scalers) — the single
/// layout shared by the standalone `SURR` artifact and the bundle's
/// `SURR` section, so the two can never drift apart.
fn put_surrogate_state(w: &mut ByteWriter, s: &SurrogateState) {
    put_mlp_state(w, &s.pf_net);
    put_mlp_state(w, &s.e_net);
    put_scalers(w, &s.scalers);
}

/// Decodes [`put_surrogate_state`] output, enforcing the cross-component
/// invariants (head input widths vs scalers, head output widths) that
/// prediction relies on — a snapshot whose sections are individually
/// well-formed but mutually inconsistent is rejected here, not at
/// predict time.
fn get_surrogate_state(r: &mut ByteReader<'_>) -> Result<SurrogateState, StoreError> {
    let state = SurrogateState {
        pf_net: get_mlp_state(r)?,
        e_net: get_mlp_state(r)?,
        scalers: get_scalers(r)?,
    };
    state.validate().map_err(|e| corrupt(e.to_string()))?;
    Ok(state)
}

fn put_instance(w: &mut ByteWriter, inst: &TspInstance) {
    let n = inst.num_cities();
    w.put_str(inst.name());
    w.put_usize(n);
    // Full row-major distance matrix: simple, and `from_matrix` re-checks
    // symmetry and the zero diagonal on decode.
    for i in 0..n {
        for j in 0..n {
            w.put_f64(inst.distance(i, j));
        }
    }
}

fn get_instance(r: &mut ByteReader<'_>) -> Result<TspInstance, StoreError> {
    let name = r.get_str()?;
    let n = r.get_usize()?;
    let cells = n
        .checked_mul(n)
        .ok_or_else(|| corrupt("city count overflows"))?;
    // Bounds-check the declared matrix against the remaining bytes before
    // allocating (8 bytes per f64 cell).
    if cells
        .checked_mul(8)
        .map(|bytes| bytes > r.remaining())
        .unwrap_or(true)
    {
        return Err(corrupt(format!(
            "instance `{name}`: {n}x{n} distance matrix outruns the input"
        )));
    }
    let mut data = Vec::with_capacity(cells);
    for _ in 0..cells {
        data.push(r.get_f64()?);
    }
    TspInstance::from_matrix(&name, Matrix::from_vec(n, n, data))
        .map_err(|e| corrupt(format!("instance `{name}`: {e}")))
}

fn put_instances(w: &mut ByteWriter, instances: &[TspInstance]) {
    w.put_usize(instances.len());
    for inst in instances {
        put_instance(w, inst);
    }
}

fn get_instances(r: &mut ByteReader<'_>) -> Result<Vec<TspInstance>, StoreError> {
    // Each instance costs ≥ 16 bytes (name length + city count) even when
    // empty, which bounds the count before allocation.
    let n = r.get_len(16)?;
    (0..n).map(|_| get_instance(r)).collect()
}

// v2 instance encoding (family-tagged, sparse). Instances built from
// coordinates persist those (2n floats); explicit-matrix instances
// persist the upper triangle (n(n−1)/2 floats). Both decode paths
// rebuild the dense matrix bit-identically: coordinates re-derive
// distances through the same deterministic IEEE 754 ops, and the upper
// triangle mirrors exactly.

const INST_COORDS: u8 = 0;
const INST_UPPER_TRI: u8 = 1;

/// Family tag opening every v2 `INST` section. The pipeline's corpus
/// and bundle artifacts are TSP-typed today; the tag makes the section
/// self-describing so future family-typed artifacts can share the
/// layout without a further payload bump.
const INST_FAMILY: &str = "tsp";

fn put_instance_v2(w: &mut ByteWriter, inst: &TspInstance) {
    w.put_str(inst.name());
    match inst.coords() {
        Some(coords) => {
            w.put_u8(INST_COORDS);
            w.put_usize(coords.len());
            for &(x, y) in coords {
                w.put_f64(x);
                w.put_f64(y);
            }
        }
        None => {
            let n = inst.num_cities();
            w.put_u8(INST_UPPER_TRI);
            w.put_usize(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    w.put_f64(inst.distance(i, j));
                }
            }
        }
    }
}

fn get_instance_v2(r: &mut ByteReader<'_>) -> Result<TspInstance, StoreError> {
    let name = r.get_str()?;
    let kind = r.get_u8()?;
    let n = r.get_usize()?;
    match kind {
        INST_COORDS => {
            if n.checked_mul(16)
                .map(|bytes| bytes > r.remaining())
                .unwrap_or(true)
            {
                return Err(corrupt(format!(
                    "instance `{name}`: {n} coordinate pairs outrun the input"
                )));
            }
            let mut coords = Vec::with_capacity(n);
            for _ in 0..n {
                coords.push((r.get_f64()?, r.get_f64()?));
            }
            for (i, &(x, y)) in coords.iter().enumerate() {
                if !x.is_finite() || !y.is_finite() {
                    return Err(corrupt(format!(
                        "instance `{name}`: non-finite coordinate at city {i}"
                    )));
                }
            }
            Ok(TspInstance::from_coords(&name, &coords))
        }
        INST_UPPER_TRI => {
            let cells = n
                .checked_mul(n.saturating_sub(1))
                .map(|c| c / 2)
                .ok_or_else(|| corrupt("city count overflows"))?;
            if cells
                .checked_mul(8)
                .map(|bytes| bytes > r.remaining())
                .unwrap_or(true)
            {
                return Err(corrupt(format!(
                    "instance `{name}`: {n}-city upper triangle outruns the input"
                )));
            }
            let mut dist = Matrix::zeros(n, n);
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = r.get_f64()?;
                    dist[(i, j)] = d;
                    dist[(j, i)] = d;
                }
            }
            TspInstance::from_matrix(&name, dist)
                .map_err(|e| corrupt(format!("instance `{name}`: {e}")))
        }
        other => Err(corrupt(format!(
            "instance `{name}`: unknown storage kind {other:#04x}"
        ))),
    }
}

fn put_instances_v2(w: &mut ByteWriter, instances: &[TspInstance]) {
    w.put_usize(instances.len());
    for inst in instances {
        put_instance_v2(w, inst);
    }
}

fn get_instances_v2(r: &mut ByteReader<'_>) -> Result<Vec<TspInstance>, StoreError> {
    // Each instance costs ≥ 17 bytes (name length + kind byte + count).
    let n = r.get_len(17)?;
    (0..n).map(|_| get_instance_v2(r)).collect()
}

/// Writes the v2 `INST` section body (family tag + train + test).
fn put_instance_section_v2(w: &mut ByteWriter, train: &[TspInstance], test: &[TspInstance]) {
    w.put_str(INST_FAMILY);
    put_instances_v2(w, train);
    put_instances_v2(w, test);
}

/// Reads an `INST` section at either payload version.
fn get_instance_section(
    r: &mut ByteReader<'_>,
    payload_version: u32,
) -> Result<(Vec<TspInstance>, Vec<TspInstance>), StoreError> {
    if payload_version >= 2 {
        let family = r.get_str()?;
        if family != INST_FAMILY {
            return Err(corrupt(format!(
                "instance section is `{family}`-typed, expected `{INST_FAMILY}`"
            )));
        }
        Ok((get_instances_v2(r)?, get_instances_v2(r)?))
    } else {
        Ok((get_instances(r)?, get_instances(r)?))
    }
}

fn put_dataset(w: &mut ByteWriter, ds: &SurrogateDataset) {
    w.put_usize(ds.feat_dim());
    w.put_usize(ds.len());
    for row in ds.rows() {
        w.put_f64_slice(&row.features);
        w.put_f64(row.a);
        w.put_f64(row.pf);
        w.put_f64(row.e_avg);
        w.put_f64(row.e_std);
    }
}

fn get_dataset(r: &mut ByteReader<'_>) -> Result<SurrogateDataset, StoreError> {
    let feat_dim = r.get_usize()?;
    // A row is at least 40 bytes (feature length prefix + 4 scalars).
    let n = r.get_len(40)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(DatasetRow {
            features: r.get_f64_vec()?,
            a: r.get_f64()?,
            pf: r.get_f64()?,
            e_avg: r.get_f64()?,
            e_std: r.get_f64()?,
        });
    }
    SurrogateDataset::try_from_rows(feat_dim, rows).map_err(|e| corrupt(e.to_string()))
}

fn put_history(w: &mut ByteWriter, h: &TrainHistory) {
    w.put_f64_slice(&h.train_loss);
    w.put_f64_slice(&h.val_loss);
    w.put_bool(h.diverged);
}

fn get_history(r: &mut ByteReader<'_>) -> Result<TrainHistory, StoreError> {
    Ok(TrainHistory {
        train_loss: r.get_f64_vec()?,
        val_loss: r.get_f64_vec()?,
        diverged: r.get_bool()?,
    })
}

fn put_report(w: &mut ByteWriter, report: &TrainReport) {
    put_history(w, &report.pf);
    put_history(w, &report.energy);
    w.put_usize(report.train_rows);
    w.put_usize(report.val_rows);
}

fn get_report(r: &mut ByteReader<'_>) -> Result<TrainReport, StoreError> {
    Ok(TrainReport {
        pf: get_history(r)?,
        energy: get_history(r)?,
        train_rows: r.get_usize()?,
        val_rows: r.get_usize()?,
    })
}

const FEAT_STATISTICAL: u8 = 0;
const FEAT_RANDOM_GCN: u8 = 1;

fn put_featurizer_spec(w: &mut ByteWriter, spec: &FeaturizerSpec) {
    match *spec {
        FeaturizerSpec::Statistical => w.put_u8(FEAT_STATISTICAL),
        FeaturizerSpec::RandomGcn { hidden, seed } => {
            w.put_u8(FEAT_RANDOM_GCN);
            w.put_usize(hidden);
            w.put_u64(seed);
        }
    }
}

fn get_featurizer_spec(r: &mut ByteReader<'_>) -> Result<FeaturizerSpec, StoreError> {
    match r.get_u8()? {
        FEAT_STATISTICAL => Ok(FeaturizerSpec::Statistical),
        FEAT_RANDOM_GCN => Ok(FeaturizerSpec::RandomGcn {
            hidden: r.get_usize()?,
            seed: r.get_u64()?,
        }),
        other => Err(corrupt(format!("unknown featurizer tag {other:#04x}"))),
    }
}

fn put_pipeline_config(w: &mut ByteWriter, cfg: &PipelineConfig) {
    w.put_usize(cfg.generator.min_cities);
    w.put_usize(cfg.generator.max_cities);
    w.put_f64(cfg.generator.uniform_side);
    w.put_f64(cfg.generator.exp_rate_range.0);
    w.put_f64(cfg.generator.exp_rate_range.1);
    w.put_usize(cfg.train_instances);
    w.put_usize(cfg.test_instances);
    w.put_f64(cfg.collect.a_init);
    w.put_f64(cfg.collect.probe_factor);
    w.put_f64(cfg.collect.a_bounds.0);
    w.put_f64(cfg.collect.a_bounds.1);
    w.put_usize(cfg.collect.sweep_points);
    w.put_f64(cfg.collect.plateau_margin);
    w.put_usize(cfg.collect.batch);
    w.put_usize(cfg.surrogate.hidden);
    w.put_usize(cfg.surrogate.epochs);
    w.put_f64(cfg.surrogate.learning_rate);
    w.put_usize(cfg.surrogate.batch_size);
    w.put_f64(cfg.surrogate.val_fraction);
    w.put_u64(cfg.surrogate.seed);
    w.put_u64(cfg.seed);
    w.put_usize(cfg.workers);
}

fn get_pipeline_config(r: &mut ByteReader<'_>) -> Result<PipelineConfig, StoreError> {
    Ok(PipelineConfig {
        generator: problems::tsp::generator::GeneratorConfig {
            min_cities: r.get_usize()?,
            max_cities: r.get_usize()?,
            uniform_side: r.get_f64()?,
            exp_rate_range: (r.get_f64()?, r.get_f64()?),
        },
        train_instances: r.get_usize()?,
        test_instances: r.get_usize()?,
        collect: CollectConfig {
            a_init: r.get_f64()?,
            probe_factor: r.get_f64()?,
            a_bounds: (r.get_f64()?, r.get_f64()?),
            sweep_points: r.get_usize()?,
            plateau_margin: r.get_f64()?,
            batch: r.get_usize()?,
        },
        surrogate: SurrogateConfig {
            hidden: r.get_usize()?,
            epochs: r.get_usize()?,
            learning_rate: r.get_f64()?,
            batch_size: r.get_usize()?,
            val_fraction: r.get_f64()?,
            seed: r.get_u64()?,
        },
        seed: r.get_u64()?,
        workers: r.get_usize()?,
    })
}

// ---------------------------------------------------------------------------
// Artifact implementations
// ---------------------------------------------------------------------------

impl Artifact for SurrogateDataset {
    const KIND: [u8; 4] = *b"DSET";

    fn write_sections(&self, out: &mut SectionWriter) {
        out.section(*b"DATA", |w| put_dataset(w, self));
    }

    fn read_sections(reader: &SectionReader<'_>) -> Result<Self, StoreError> {
        let mut r = reader.section(*b"DATA")?;
        let ds = get_dataset(&mut r)?;
        r.finish()?;
        Ok(ds)
    }
}

impl Artifact for SurrogateState {
    const KIND: [u8; 4] = *b"SURR";

    fn write_sections(&self, out: &mut SectionWriter) {
        out.section(*b"SURR", |w| put_surrogate_state(w, self));
    }

    fn read_sections(reader: &SectionReader<'_>) -> Result<Self, StoreError> {
        let mut r = reader.section(*b"SURR")?;
        let state = get_surrogate_state(&mut r)?;
        r.finish()?;
        Ok(state)
    }
}

fn put_lineage(w: &mut ByteWriter, l: &LineageHeader) {
    w.put_u64(l.generation);
    w.put_u64(l.parent_generation);
    w.put_u64(l.seed);
    w.put_u64(l.retrain_index);
    w.put_u64(l.feedback_count);
    w.put_u64(l.replay_len);
}

fn get_lineage(r: &mut ByteReader<'_>) -> Result<LineageHeader, StoreError> {
    Ok(LineageHeader {
        generation: r.get_u64()?,
        parent_generation: r.get_u64()?,
        seed: r.get_u64()?,
        retrain_index: r.get_u64()?,
        feedback_count: r.get_u64()?,
        replay_len: r.get_u64()?,
    })
}

/// The online checkpoint: `SURR` payload **v2** — the v1 surrogate
/// snapshot plus an optional `LINE` lineage section. Reads v1 files too
/// (lineage decodes to `None`), so a checkpoint-aware loader subsumes
/// plain snapshots; a v1 reader ([`SurrogateState`]) encountering a v2
/// checkpoint gets a typed `UnsupportedVersion`, never a misparse.
impl Artifact for SurrogateCheckpoint {
    const KIND: [u8; 4] = *b"SURR";
    const VERSION: u32 = 2;

    fn write_sections(&self, out: &mut SectionWriter) {
        out.section(*b"SURR", |w| put_surrogate_state(w, &self.state));
        if let Some(lineage) = &self.lineage {
            out.section(*b"LINE", |w| put_lineage(w, lineage));
        }
    }

    fn read_sections(reader: &SectionReader<'_>) -> Result<Self, StoreError> {
        let mut sur = reader.section(*b"SURR")?;
        let state = get_surrogate_state(&mut sur)?;
        sur.finish()?;
        let lineage = if reader.tags().contains(b"LINE") {
            let mut line = reader.section(*b"LINE")?;
            let lineage = get_lineage(&mut line)?;
            line.finish()?;
            if lineage.generation <= lineage.parent_generation {
                return Err(corrupt(format!(
                    "lineage runs backwards: generation {} from parent {}",
                    lineage.generation, lineage.parent_generation
                )));
            }
            Some(lineage)
        } else {
            None
        };
        Ok(SurrogateCheckpoint { lineage, state })
    }
}

/// Corpus payload **v2**: the `INST` section is family-tagged and
/// sparse (see the module docs). The reader still decodes v1 payloads
/// with their dense matrices.
impl Artifact for CollectedCorpus {
    const KIND: [u8; 4] = *b"CORP";
    const VERSION: u32 = 2;

    fn write_sections(&self, out: &mut SectionWriter) {
        out.section(*b"PCFG", |w| put_pipeline_config(w, &self.config));
        out.section(*b"FEAT", |w| put_featurizer_spec(w, &self.featurizer));
        out.section(*b"INST", |w| {
            put_instance_section_v2(w, &self.train_instances, &self.test_instances);
        });
        out.section(*b"DSET", |w| put_dataset(w, &self.dataset));
    }

    fn read_sections(reader: &SectionReader<'_>) -> Result<Self, StoreError> {
        let mut cfg = reader.section(*b"PCFG")?;
        let config = get_pipeline_config(&mut cfg)?;
        cfg.finish()?;
        let mut feat = reader.section(*b"FEAT")?;
        let featurizer = get_featurizer_spec(&mut feat)?;
        feat.finish()?;
        let mut inst = reader.section(*b"INST")?;
        let (train_instances, test_instances) =
            get_instance_section(&mut inst, reader.payload_version)?;
        inst.finish()?;
        let mut ds = reader.section(*b"DSET")?;
        let dataset = get_dataset(&mut ds)?;
        ds.finish()?;
        // Cross-section invariant: the featurizer recipe must produce
        // the dataset's feature width, or the serve stage would panic on
        // width mismatch after an expensive training run.
        if featurizer.dim() != dataset.feat_dim() {
            return Err(corrupt(format!(
                "featurizer produces {} features but the dataset holds {}",
                featurizer.dim(),
                dataset.feat_dim()
            )));
        }
        Ok(CollectedCorpus {
            config,
            featurizer,
            train_instances,
            test_instances,
            dataset,
        })
    }
}

/// Bundle payload **v2**: same family-tagged sparse `INST` section as
/// [`CollectedCorpus`]; the reader still decodes v1 payloads.
impl Artifact for QrossBundle {
    const KIND: [u8; 4] = *b"BNDL";
    const VERSION: u32 = 2;

    fn write_sections(&self, out: &mut SectionWriter) {
        out.section(*b"PCFG", |w| put_pipeline_config(w, &self.config));
        out.section(*b"FEAT", |w| put_featurizer_spec(w, &self.featurizer));
        out.section(*b"SURR", |w| put_surrogate_state(w, &self.surrogate));
        out.section(*b"INST", |w| {
            put_instance_section_v2(w, &self.train_instances, &self.test_instances);
        });
        out.section(*b"RPRT", |w| {
            w.put_usize(self.dataset_len);
            put_report(w, &self.report);
        });
    }

    fn read_sections(reader: &SectionReader<'_>) -> Result<Self, StoreError> {
        let mut cfg = reader.section(*b"PCFG")?;
        let config = get_pipeline_config(&mut cfg)?;
        cfg.finish()?;
        let mut feat = reader.section(*b"FEAT")?;
        let featurizer = get_featurizer_spec(&mut feat)?;
        feat.finish()?;
        let mut sur = reader.section(*b"SURR")?;
        let surrogate = get_surrogate_state(&mut sur)?;
        sur.finish()?;
        let mut inst = reader.section(*b"INST")?;
        let (train_instances, test_instances) =
            get_instance_section(&mut inst, reader.payload_version)?;
        inst.finish()?;
        let mut rp = reader.section(*b"RPRT")?;
        let dataset_len = rp.get_usize()?;
        let report = get_report(&mut rp)?;
        rp.finish()?;
        // Cross-section invariant beyond the snapshot's own checks: the
        // featurizer's output width (plus the ln-A column) must match
        // what the surrogate was trained on.
        if featurizer.dim() + 1 != surrogate.scalers.input_dim() {
            return Err(corrupt(format!(
                "featurizer produces {} features but the surrogate expects {}",
                featurizer.dim(),
                surrogate.scalers.input_dim() - 1
            )));
        }
        Ok(QrossBundle {
            config,
            featurizer,
            surrogate,
            train_instances,
            test_instances,
            dataset_len,
            report,
        })
    }
}

impl CollectedCorpus {
    /// Encodes this corpus as a **payload v1** container (dense n×n
    /// instance matrices), exactly as pre-v2 writers produced. Kept for
    /// the v1-reader compatibility gate and as the size baseline the
    /// sparse layout is measured against; new code should use
    /// [`Artifact::to_store_bytes`].
    pub fn to_v1_bytes(&self) -> Vec<u8> {
        let mut out = SectionWriter::new();
        out.section(*b"PCFG", |w| put_pipeline_config(w, &self.config));
        out.section(*b"FEAT", |w| put_featurizer_spec(w, &self.featurizer));
        out.section(*b"INST", |w| {
            put_instances(w, &self.train_instances);
            put_instances(w, &self.test_instances);
        });
        out.section(*b"DSET", |w| put_dataset(w, &self.dataset));
        out.encode(Self::KIND, 1)
    }
}

impl QrossBundle {
    /// Encodes this bundle as a **payload v1** container (dense n×n
    /// instance matrices); see [`CollectedCorpus::to_v1_bytes`].
    pub fn to_v1_bytes(&self) -> Vec<u8> {
        let mut out = SectionWriter::new();
        out.section(*b"PCFG", |w| put_pipeline_config(w, &self.config));
        out.section(*b"FEAT", |w| put_featurizer_spec(w, &self.featurizer));
        out.section(*b"SURR", |w| put_surrogate_state(w, &self.surrogate));
        out.section(*b"INST", |w| {
            put_instances(w, &self.train_instances);
            put_instances(w, &self.test_instances);
        });
        out.section(*b"RPRT", |w| {
            w.put_usize(self.dataset_len);
            put_report(w, &self.report);
        });
        out.encode(Self::KIND, 1)
    }
}

/// Compile-time guard: the module is written against container format 1;
/// bumping `qross-store`'s `FORMAT_VERSION` must be a conscious decision
/// revisiting every payload layout here.
const _: () = assert!(FORMAT_VERSION == 1);

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scalers() -> Scalers {
        Scalers {
            features: vec![
                ZScore {
                    mean: 0.5,
                    std: 2.0,
                },
                ZScore {
                    mean: -3.25,
                    std: 0.125,
                },
            ],
            log_a: ZScore {
                mean: 0.0,
                std: 1.5,
            },
            e_avg: ZScore {
                mean: 100.0,
                std: 12.5,
            },
            e_std: ZScore {
                mean: 4.0,
                std: 0.5,
            },
        }
    }

    fn sample_dataset() -> SurrogateDataset {
        let mut ds = SurrogateDataset::new(2);
        for i in 0..7 {
            ds.push(DatasetRow {
                features: vec![i as f64, -0.5 * i as f64],
                a: 0.25 + i as f64,
                pf: i as f64 / 7.0,
                e_avg: 10.0 - i as f64,
                e_std: 1.0 + 0.1 * i as f64,
            });
        }
        ds
    }

    #[test]
    fn dataset_roundtrips_bit_exact() {
        let ds = sample_dataset();
        let back = SurrogateDataset::from_store_bytes(&ds.to_store_bytes()).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn scalers_roundtrip() {
        let s = sample_scalers();
        let mut w = ByteWriter::new();
        put_scalers(&mut w, &s);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_scalers(&mut r).unwrap(), s);
        r.finish().unwrap();
    }

    #[test]
    fn pipeline_config_roundtrip() {
        for cfg in [
            PipelineConfig::micro(),
            PipelineConfig::quick(),
            PipelineConfig::paper(),
        ] {
            let mut w = ByteWriter::new();
            put_pipeline_config(&mut w, &cfg);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(get_pipeline_config(&mut r).unwrap(), cfg);
            r.finish().unwrap();
        }
    }

    #[test]
    fn corrupted_dataset_row_is_typed_error_not_panic() {
        let ds = sample_dataset();
        let bytes = ds.to_store_bytes();
        // Overwrite the `a` field of the first row with NaN *and* refresh
        // nothing else: the CRC must reject it. (A hostile writer could
        // also refresh the CRC — then `try_from_rows` validation catches
        // the non-finite value; both paths are errors, not panics.)
        let mut evil = bytes.clone();
        let len = evil.len();
        for byte in &mut evil[len - 64..] {
            *byte ^= 0xFF;
        }
        assert!(SurrogateDataset::from_store_bytes(&evil).is_err());
    }

    #[test]
    fn instances_roundtrip_via_corpus() {
        let inst = TspInstance::from_coords(
            "tri",
            &[(0.0, 0.0), (3.0, 0.0), (0.0, 4.0), (1.0, 1.0), (2.5, 2.5)],
        );
        // RandomGcn with 4 hidden channels produces 2*4+2 = 10 features;
        // the dataset's width must agree or decoding rejects the corpus.
        let mut dataset = SurrogateDataset::new(10);
        for i in 0..5 {
            dataset.push(DatasetRow {
                features: (0..10).map(|c| (i * 10 + c) as f64 / 7.0).collect(),
                a: 0.5 + i as f64,
                pf: i as f64 / 5.0,
                e_avg: 3.0 - i as f64,
                e_std: 0.5,
            });
        }
        let corpus = CollectedCorpus {
            config: PipelineConfig::micro(),
            featurizer: FeaturizerSpec::RandomGcn { hidden: 4, seed: 9 },
            train_instances: vec![inst.clone()],
            test_instances: vec![inst.clone(), inst],
            dataset,
        };
        let back = CollectedCorpus::from_store_bytes(&corpus.to_store_bytes()).unwrap();
        assert_eq!(back.config, corpus.config);
        assert_eq!(back.featurizer, corpus.featurizer);
        assert_eq!(back.train_instances, corpus.train_instances);
        assert_eq!(back.test_instances, corpus.test_instances);
        assert_eq!(back.dataset, corpus.dataset);
    }

    fn coord_corpus(cities: usize, instances: usize) -> CollectedCorpus {
        let train: Vec<TspInstance> = (0..instances)
            .map(|k| {
                let coords: Vec<(f64, f64)> = (0..cities)
                    .map(|i| {
                        let t = (k * cities + i) as f64;
                        (t * 1.25 + 0.5, (t * 0.75).sin() * 10.0)
                    })
                    .collect();
                TspInstance::from_coords(&format!("c{k}"), &coords)
            })
            .collect();
        CollectedCorpus {
            config: PipelineConfig::micro(),
            featurizer: FeaturizerSpec::RandomGcn { hidden: 4, seed: 9 },
            train_instances: train.clone(),
            test_instances: train,
            dataset: {
                let mut ds = SurrogateDataset::new(10);
                ds.push(DatasetRow {
                    features: vec![0.5; 10],
                    a: 1.0,
                    pf: 0.5,
                    e_avg: 1.0,
                    e_std: 0.1,
                });
                ds
            },
        }
    }

    #[test]
    fn v1_payload_still_decodes() {
        // A legacy dense-matrix corpus loads through the v2 reader with
        // bit-identical distances; only the coordinate provenance (not
        // representable in v1) is lost.
        let corpus = coord_corpus(6, 3);
        let v1 = corpus.to_v1_bytes();
        let back = CollectedCorpus::from_store_bytes(&v1).unwrap();
        assert_eq!(back.config, corpus.config);
        assert_eq!(back.dataset, corpus.dataset);
        for (a, b) in back.train_instances.iter().zip(&corpus.train_instances) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.matrix().as_slice(), b.matrix().as_slice());
            assert!(a.coords().is_none());
        }
    }

    #[test]
    fn v2_roundtrip_preserves_coords_and_explicit_instances() {
        let mut corpus = coord_corpus(6, 2);
        // Mix in an explicit-matrix instance (coords dropped by scaling):
        // it takes the upper-triangle path.
        let explicit = corpus.train_instances[0].scaled(2.0);
        assert!(explicit.coords().is_none());
        corpus.train_instances.push(explicit);
        let back = CollectedCorpus::from_store_bytes(&corpus.to_store_bytes()).unwrap();
        assert_eq!(back.train_instances, corpus.train_instances);
        assert_eq!(back.test_instances, corpus.test_instances);
    }

    #[test]
    fn v2_corpus_is_smaller_than_dense_v1() {
        // The headline saving: 2n coordinates instead of n² matrix cells.
        let corpus = coord_corpus(12, 4);
        let v2 = corpus.to_store_bytes().len();
        let v1 = corpus.to_v1_bytes().len();
        assert!(
            v2 < v1,
            "sparse v2 ({v2} bytes) did not shrink vs dense v1 ({v1} bytes)"
        );
    }

    #[test]
    fn corpus_featurizer_width_mismatch_rejected() {
        // feat_dim 2 dataset with a 10-wide featurizer recipe: encodes,
        // but decoding must reject the cross-section inconsistency.
        let corpus = CollectedCorpus {
            config: PipelineConfig::micro(),
            featurizer: FeaturizerSpec::RandomGcn { hidden: 4, seed: 9 },
            train_instances: Vec::new(),
            test_instances: Vec::new(),
            dataset: sample_dataset(),
        };
        assert!(matches!(
            CollectedCorpus::from_store_bytes(&corpus.to_store_bytes()),
            Err(StoreError::Corrupt { .. })
        ));
    }

    fn sample_surrogate_state() -> SurrogateState {
        use neural::network::MlpBuilder;
        SurrogateState {
            pf_net: MlpBuilder::new(3)
                .dense(4)
                .relu()
                .dense(1)
                .sigmoid()
                .build(5)
                .to_state(),
            e_net: MlpBuilder::new(3)
                .dense(4)
                .relu()
                .dense(2)
                .build(6)
                .to_state(),
            scalers: sample_scalers(),
        }
    }

    #[test]
    fn checkpoint_roundtrips_with_lineage() {
        let ckpt = SurrogateCheckpoint {
            lineage: Some(LineageHeader {
                generation: 7,
                parent_generation: 6,
                seed: 42,
                retrain_index: 7,
                feedback_count: 448,
                replay_len: 128,
            }),
            state: sample_surrogate_state(),
        };
        let bytes = ckpt.to_store_bytes();
        let back = SurrogateCheckpoint::from_store_bytes(&bytes).unwrap();
        assert_eq!(back.lineage, ckpt.lineage);
        assert_eq!(back.state.pf_net, ckpt.state.pf_net);
        assert_eq!(back.state.e_net, ckpt.state.e_net);
        assert_eq!(back.state.scalers, ckpt.state.scalers);
    }

    #[test]
    fn checkpoint_reader_accepts_v1_snapshots() {
        // A plain v1 SurrogateState file loads as a lineage-less
        // checkpoint: the payload bump is backwards compatible.
        let state = sample_surrogate_state();
        let v1_bytes = state.to_store_bytes();
        let back = SurrogateCheckpoint::from_store_bytes(&v1_bytes).unwrap();
        assert!(back.lineage.is_none());
        assert_eq!(back.state.pf_net, state.pf_net);
    }

    #[test]
    fn v1_reader_rejects_v2_checkpoints_typed() {
        // The old reader must refuse the newer payload instead of
        // silently dropping the lineage it does not understand.
        let ckpt = SurrogateCheckpoint {
            lineage: Some(LineageHeader {
                generation: 1,
                parent_generation: 0,
                seed: 0,
                retrain_index: 1,
                feedback_count: 8,
                replay_len: 8,
            }),
            state: sample_surrogate_state(),
        };
        assert!(matches!(
            SurrogateState::from_store_bytes(&ckpt.to_store_bytes()),
            Err(StoreError::UnsupportedVersion { found: 2, .. })
        ));
    }

    #[test]
    fn backwards_lineage_rejected() {
        let ckpt = SurrogateCheckpoint {
            lineage: Some(LineageHeader {
                generation: 3,
                parent_generation: 3,
                seed: 0,
                retrain_index: 1,
                feedback_count: 1,
                replay_len: 1,
            }),
            state: sample_surrogate_state(),
        };
        assert!(matches!(
            SurrogateCheckpoint::from_store_bytes(&ckpt.to_store_bytes()),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn surrogate_state_cross_section_mismatch_rejected() {
        use neural::network::MlpBuilder;
        // Heads consuming 25 inputs, scalers producing 3: every section
        // is individually valid (CRCs pass), but the snapshot as a whole
        // would panic at predict time — decode must refuse it.
        let state = SurrogateState {
            pf_net: MlpBuilder::new(25)
                .dense(4)
                .relu()
                .dense(1)
                .build(1)
                .to_state(),
            e_net: MlpBuilder::new(25)
                .dense(4)
                .relu()
                .dense(2)
                .build(2)
                .to_state(),
            scalers: sample_scalers(),
        };
        assert!(matches!(
            SurrogateState::from_store_bytes(&state.to_store_bytes()),
            Err(StoreError::Corrupt { .. })
        ));
        // Wrong head output widths are rejected too (Pf must emit 1).
        let state = SurrogateState {
            pf_net: MlpBuilder::new(3)
                .dense(4)
                .relu()
                .dense(2)
                .build(1)
                .to_state(),
            e_net: MlpBuilder::new(3)
                .dense(4)
                .relu()
                .dense(2)
                .build(2)
                .to_state(),
            scalers: sample_scalers(),
        };
        assert!(matches!(
            SurrogateState::from_store_bytes(&state.to_store_bytes()),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
