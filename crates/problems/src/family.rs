//! First-class problem families: a static registry that owns, per
//! family, instance *generation* (penalty-sweep corpora at three tiers),
//! *featurization* (a fixed 24-wide recipe so one surrogate can serve a
//! mixed-family request stream) and a compact *instance encoding*
//! ([`InstanceData`]) that travels over the wire and into `.qross`
//! artifacts without dense matrices.
//!
//! Adding a family means implementing [`FamilyProblem`] for the
//! instance type, [`ProblemFamily`] for a unit struct, and appending
//! one line to the `FAMILIES` table behind [`registry`]. Every other
//! layer — store, serving engine, wire protocols, train/predict CLI —
//! routes through [`lookup_family`] and never pattern-matches on family
//! names.

use serde::Serialize;

use mathkit::rng::derive_seed;
use mathkit::stats;
use mathkit::Matrix;

use crate::knapsack::KnapsackInstance;
use crate::maxcut::MaxCutInstance;
use crate::mvc::MvcInstance;
use crate::qap::QapInstance;
use crate::tsp::features::{statistical_features, STAT_DIM};
use crate::tsp::generator::{generate_instance, GeneratorConfig};
use crate::tsp::TspEncoding;
use crate::{ProblemError, RelaxableProblem, TspInstance};

/// Width of every family's feature vector.
///
/// Families with fewer natural statistics zero-pad to this width; the
/// uniform shape is what lets a single surrogate (and its scalers)
/// serve a mixed-family request stream.
pub const FAMILY_FEATURE_DIM: usize = STAT_DIM;

/// The penalty-sweep default domain for `A`, matching the pipeline's
/// `A_DOMAIN` (paper §4.2 sweeps this log-spaced).
pub const DEFAULT_PENALTY_DOMAIN: (f64, f64) = (0.02, 20.0);

/// Compact, family-agnostic instance payload.
///
/// The family name travels *next to* this struct (wire op field,
/// store section tag), never inside it. Each family documents its
/// mapping onto the four slots:
///
/// | family     | `dims`  | `scalars`    | `vecs`                      | `edges`              |
/// |------------|---------|--------------|-----------------------------|----------------------|
/// | `tsp`      | `[n]`   | —            | `[xs, ys]` (coords form)    | — (coords form)      |
/// | `tsp`      | `[n]`   | —            | —                           | upper-tri `(i,j,d)`  |
/// | `mvc`      | `[n]`   | —            | `[weights]`                 | `(u,v,1.0)`          |
/// | `qap`      | `[n]`   | —            | `[flow n², dist n²]` row-major | —                 |
/// | `maxcut`   | `[n]`   | —            | —                           | weighted `(u,v,w)`   |
/// | `knapsack` | `[n]`   | `[capacity]` | `[values, weights]`         | —                    |
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct InstanceData {
    /// instance identifier
    pub name: String,
    /// integer dimensions (vertex/city/item counts)
    pub dims: Vec<u64>,
    /// scalar parameters (e.g. knapsack capacity)
    pub scalars: Vec<f64>,
    /// dense float payloads (coordinates, weights, flattened matrices)
    pub vecs: Vec<Vec<f64>>,
    /// weighted edge list `(u, v, w)`
    pub edges: Vec<(u32, u32, f64)>,
}

// Hand-written (the vendored derive has no `#[serde(default)]`): each
// family uses only a subset of the slots, so wire payloads may omit the
// rest — a missing field deserialises to its empty default, exactly
// mirroring the `..InstanceData::default()` idiom `to_data` impls use.
impl serde::Deserialize for InstanceData {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        fn slot<T: serde::Deserialize + Default>(
            value: &serde::Value,
            name: &str,
        ) -> Result<T, serde::DeError> {
            match value.get(name) {
                Some(v) => T::from_value(v)
                    .map_err(|e| serde::DeError::new(format!("field `{name}`: {}", e.message))),
                None => Ok(T::default()),
            }
        }
        Ok(InstanceData {
            name: slot(value, "name")?,
            dims: slot(value, "dims")?,
            scalars: slot(value, "scalars")?,
            vecs: slot(value, "vecs")?,
            edges: slot(value, "edges")?,
        })
    }
}

/// A problem instance that knows which family it belongs to.
///
/// Extends [`RelaxableProblem`] with the three family-level hooks the
/// pipeline, store and serving engine need: the family name, the
/// fixed-width feature vector, and the compact wire/store encoding.
pub trait FamilyProblem: RelaxableProblem {
    /// Registered family name (`lookup_family(p.family())` resolves).
    fn family(&self) -> &'static str;

    /// Feature vector of width [`FAMILY_FEATURE_DIM`].
    fn features(&self) -> Vec<f64>;

    /// Compact encoding; `family().decode(&p.to_data())` rebuilds an
    /// equivalent instance (bit-identical QUBO/features for the
    /// canonical forms each family persists).
    fn to_data(&self) -> InstanceData;
}

/// Corpus size tier, mirroring the pipeline's micro/quick/paper scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusTier {
    /// smoke-test sizes (seconds)
    Micro,
    /// development sizes (tens of seconds)
    Quick,
    /// paper-scale sizes
    Paper,
}

/// A registered problem family: generation, featurization recipe and
/// instance codec in one object.
pub trait ProblemFamily: Send + Sync {
    /// Registry name (lowercase, stable — appears on wires and in
    /// artifacts).
    fn name(&self) -> &'static str;

    /// Feature width of [`FamilyProblem::features`] for this family.
    fn feature_dim(&self) -> usize {
        FAMILY_FEATURE_DIM
    }

    /// Inclusive domain the penalty parameter `A` is swept over.
    fn penalty_domain(&self) -> (f64, f64) {
        DEFAULT_PENALTY_DOMAIN
    }

    /// Deterministic penalty-sweep corpus at `tier`, derived from
    /// `seed`.
    fn corpus(&self, tier: CorpusTier, seed: u64) -> Vec<Box<dyn FamilyProblem>>;

    /// Decodes a compact instance payload.
    ///
    /// Total on hostile input: every structural defect returns
    /// [`ProblemError`], never a panic — this runs on uploaded bytes in
    /// a serving process.
    fn decode(&self, data: &InstanceData) -> Result<Box<dyn FamilyProblem>, ProblemError>;
}

impl std::fmt::Debug for dyn ProblemFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProblemFamily({})", self.name())
    }
}

/// The static registry — the one registration line per family.
static FAMILIES: [&dyn ProblemFamily; 5] = [
    &TspFamily,
    &MvcFamily,
    &QapFamily,
    &MaxCutFamily,
    &KnapsackFamily,
];

/// All registered families, in registration order.
pub fn registry() -> &'static [&'static dyn ProblemFamily] {
    &FAMILIES
}

/// ` | `-joined registered family names (error messages, usage text).
pub fn known_families() -> String {
    registry()
        .iter()
        .map(|f| f.name())
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Resolves a family by name, case-insensitively.
///
/// # Errors
///
/// Returns [`ProblemError::UnknownFamily`] naming the known families.
pub fn lookup_family(name: &str) -> Result<&'static dyn ProblemFamily, ProblemError> {
    let lowered = name.to_ascii_lowercase();
    registry()
        .iter()
        .copied()
        .find(|f| f.name() == lowered)
        .ok_or_else(|| ProblemError::UnknownFamily {
            name: name.to_string(),
            known: known_families(),
        })
}

// ---------------------------------------------------------------------------
// decode helpers (shared validation, always Err — never panic)
// ---------------------------------------------------------------------------

fn invalid(message: String) -> ProblemError {
    ProblemError::InvalidInstance { message }
}

/// The single entry of `dims`, as usize.
fn dim0(data: &InstanceData) -> Result<usize, ProblemError> {
    if data.dims.len() != 1 {
        return Err(invalid(format!(
            "expected dims = [n], got {} entries",
            data.dims.len()
        )));
    }
    usize::try_from(data.dims[0]).map_err(|_| invalid("dimension overflows usize".to_string()))
}

fn expect_vecs(data: &InstanceData, count: usize) -> Result<(), ProblemError> {
    if data.vecs.len() != count {
        return Err(invalid(format!(
            "expected {count} float vectors, got {}",
            data.vecs.len()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// per-family feature recipes (all FAMILY_FEATURE_DIM wide)
// ---------------------------------------------------------------------------

/// Zero-pads (or truncates) a feature list to [`FAMILY_FEATURE_DIM`].
fn pad_features(mut v: Vec<f64>) -> Vec<f64> {
    v.truncate(FAMILY_FEATURE_DIM);
    v.resize(FAMILY_FEATURE_DIM, 0.0);
    v
}

fn min_max(xs: &[f64]) -> (f64, f64) {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if lo.is_finite() {
        (lo, hi)
    } else {
        (0.0, 0.0)
    }
}

/// MVC features: size, density, weight and degree statistics, greedy
/// cover summary.
pub fn mvc_features(g: &MvcInstance) -> Vec<f64> {
    let n = g.num_vertices();
    let m = g.edges().len();
    let possible = (n * n.saturating_sub(1) / 2).max(1) as f64;
    let mut deg = vec![0.0_f64; n];
    for &(u, v) in g.edges() {
        deg[u as usize] += 1.0;
        deg[v as usize] += 1.0;
    }
    let (w_min, w_max) = min_max(g.weights());
    let (d_min, d_max) = min_max(&deg);
    let cover = g.greedy_cover();
    let cover_size = cover.iter().filter(|&&b| b == 1).count();
    pad_features(vec![
        n as f64,
        (n.max(1) as f64).ln(),
        m as f64,
        m as f64 / possible,
        stats::mean(g.weights()),
        stats::std_population(g.weights()),
        w_min,
        w_max,
        stats::mean(&deg),
        stats::std_population(&deg),
        d_min,
        d_max,
        g.cover_weight(&cover),
        cover_size as f64,
        m as f64 / n.max(1) as f64,
    ])
}

/// QAP features: size plus off-diagonal flow/distance statistics.
pub fn qap_features(q: &QapInstance) -> Vec<f64> {
    let n = q.size();
    let mut flows = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    let mut dists = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            flows.push(q.flow()[(i, j)]);
            dists.push(q.dist()[(i, j)]);
        }
    }
    let (f_min, f_max) = min_max(&flows);
    let (d_min, d_max) = min_max(&dists);
    let nonzero_flow = flows.iter().filter(|&&f| f != 0.0).count();
    pad_features(vec![
        n as f64,
        (n.max(1) as f64).ln(),
        stats::mean(&flows),
        stats::std_population(&flows),
        f_min,
        f_max,
        stats::mean(&dists),
        stats::std_population(&dists),
        d_min,
        d_max,
        flows.iter().sum(),
        dists.iter().sum(),
        nonzero_flow as f64 / flows.len().max(1) as f64,
        stats::mean(&flows) * stats::mean(&dists),
    ])
}

/// Max-Cut features: size, density, weight and degree statistics, the
/// balance target.
pub fn maxcut_features(g: &MaxCutInstance) -> Vec<f64> {
    let n = g.num_vertices();
    let m = g.edges().len();
    let possible = (n * n.saturating_sub(1) / 2).max(1) as f64;
    let weights: Vec<f64> = g.edges().iter().map(|&(_, _, w)| w).collect();
    let mut deg = vec![0.0_f64; n];
    for &(u, v, _) in g.edges() {
        deg[u as usize] += 1.0;
        deg[v as usize] += 1.0;
    }
    let (w_min, w_max) = min_max(&weights);
    pad_features(vec![
        n as f64,
        (n.max(1) as f64).ln(),
        m as f64,
        m as f64 / possible,
        stats::mean(&weights),
        stats::std_population(&weights),
        w_min,
        w_max,
        weights.iter().sum(),
        stats::mean(&deg),
        stats::std_population(&deg),
        g.balance_target() as f64,
        g.balance_target() as f64 / n.max(1) as f64,
    ])
}

/// Knapsack features: value/weight statistics, capacity tightness,
/// slack-bit count, value-density statistics.
pub fn knapsack_features(k: &KnapsackInstance) -> Vec<f64> {
    let n = k.num_items();
    let (v_min, v_max) = min_max(k.values());
    let (w_min, w_max) = min_max(k.weights());
    let total_w: f64 = k.weights().iter().sum();
    let total_v: f64 = k.values().iter().sum();
    let ratios: Vec<f64> = k
        .values()
        .iter()
        .zip(k.weights())
        .map(|(&v, &w)| v / w)
        .collect();
    pad_features(vec![
        n as f64,
        (n.max(1) as f64).ln(),
        stats::mean(k.values()),
        stats::std_population(k.values()),
        v_min,
        v_max,
        stats::mean(k.weights()),
        stats::std_population(k.weights()),
        w_min,
        w_max,
        total_v,
        total_w,
        k.capacity(),
        k.capacity() / total_w.max(1.0),
        k.slack_bits() as f64,
        stats::mean(&ratios),
        stats::std_population(&ratios),
    ])
}

// ---------------------------------------------------------------------------
// FamilyProblem impls
// ---------------------------------------------------------------------------

/// Encodes a TSP instance compactly: its generating coordinates when it
/// has them (2n floats), the upper-triangle distances otherwise.
pub fn tsp_instance_data(inst: &TspInstance) -> InstanceData {
    let n = inst.num_cities();
    match inst.coords() {
        Some(coords) => InstanceData {
            name: inst.name().to_string(),
            dims: vec![n as u64],
            vecs: vec![
                coords.iter().map(|&(x, _)| x).collect(),
                coords.iter().map(|&(_, y)| y).collect(),
            ],
            ..InstanceData::default()
        },
        None => {
            let mut edges = Vec::with_capacity(n * n.saturating_sub(1) / 2);
            for i in 0..n {
                for j in (i + 1)..n {
                    edges.push((i as u32, j as u32, inst.distance(i, j)));
                }
            }
            InstanceData {
                name: inst.name().to_string(),
                dims: vec![n as u64],
                edges,
                ..InstanceData::default()
            }
        }
    }
}

impl FamilyProblem for TspEncoding {
    fn family(&self) -> &'static str {
        "tsp"
    }

    fn features(&self) -> Vec<f64> {
        statistical_features(self.qubo_instance())
    }

    fn to_data(&self) -> InstanceData {
        tsp_instance_data(self.fitness_instance())
    }
}

impl FamilyProblem for MvcInstance {
    fn family(&self) -> &'static str {
        "mvc"
    }

    fn features(&self) -> Vec<f64> {
        mvc_features(self)
    }

    fn to_data(&self) -> InstanceData {
        InstanceData {
            name: RelaxableProblem::name(self).to_string(),
            dims: vec![self.num_vertices() as u64],
            vecs: vec![self.weights().to_vec()],
            edges: self.edges().iter().map(|&(u, v)| (u, v, 1.0)).collect(),
            ..InstanceData::default()
        }
    }
}

impl FamilyProblem for QapInstance {
    fn family(&self) -> &'static str {
        "qap"
    }

    fn features(&self) -> Vec<f64> {
        qap_features(self)
    }

    fn to_data(&self) -> InstanceData {
        InstanceData {
            name: RelaxableProblem::name(self).to_string(),
            dims: vec![self.size() as u64],
            vecs: vec![
                self.flow().as_slice().to_vec(),
                self.dist().as_slice().to_vec(),
            ],
            ..InstanceData::default()
        }
    }
}

impl FamilyProblem for MaxCutInstance {
    fn family(&self) -> &'static str {
        "maxcut"
    }

    fn features(&self) -> Vec<f64> {
        maxcut_features(self)
    }

    fn to_data(&self) -> InstanceData {
        InstanceData {
            name: RelaxableProblem::name(self).to_string(),
            dims: vec![self.num_vertices() as u64],
            edges: self.edges().to_vec(),
            ..InstanceData::default()
        }
    }
}

impl FamilyProblem for KnapsackInstance {
    fn family(&self) -> &'static str {
        "knapsack"
    }

    fn features(&self) -> Vec<f64> {
        knapsack_features(self)
    }

    fn to_data(&self) -> InstanceData {
        InstanceData {
            name: RelaxableProblem::name(self).to_string(),
            dims: vec![self.num_items() as u64],
            scalars: vec![self.capacity()],
            vecs: vec![self.values().to_vec(), self.weights().to_vec()],
            ..InstanceData::default()
        }
    }
}

// ---------------------------------------------------------------------------
// ProblemFamily impls
// ---------------------------------------------------------------------------

/// The TSP family (paper §4): synthetic uniform/exponential instances,
/// statistical features, coordinate or upper-triangle storage.
pub struct TspFamily;

/// Largest city count accepted from an explicit-matrix payload (the
/// decoder allocates the dense n×n matrix; coordinate payloads are O(n)
/// and get a larger cap).
const TSP_DENSE_MAX: usize = 2_048;
const TSP_COORDS_MAX: usize = 65_536;
/// Largest vertex/item count accepted from a sparse payload.
const SPARSE_VARS_MAX: usize = 1 << 20;

impl ProblemFamily for TspFamily {
    fn name(&self) -> &'static str {
        "tsp"
    }

    fn corpus(&self, tier: CorpusTier, seed: u64) -> Vec<Box<dyn FamilyProblem>> {
        // Sizes mirror PipelineConfig::{micro, quick, paper} so a
        // family-driven corpus matches the TSP pipeline's train set.
        let (config, count) = match tier {
            CorpusTier::Micro => (
                GeneratorConfig {
                    min_cities: 9,
                    max_cities: 10,
                    ..GeneratorConfig::default()
                },
                20,
            ),
            CorpusTier::Quick => (
                GeneratorConfig {
                    min_cities: 8,
                    max_cities: 12,
                    ..GeneratorConfig::default()
                },
                36,
            ),
            CorpusTier::Paper => (GeneratorConfig::default(), 270),
        };
        (0..count)
            .map(|i| {
                Box::new(TspEncoding::preprocessed(generate_instance(
                    &config, seed, i,
                ))) as Box<dyn FamilyProblem>
            })
            .collect()
    }

    fn decode(&self, data: &InstanceData) -> Result<Box<dyn FamilyProblem>, ProblemError> {
        let n = dim0(data)?;
        if !data.vecs.is_empty() {
            // Coordinate form: vecs = [xs, ys].
            if n > TSP_COORDS_MAX {
                return Err(invalid(format!("{n} cities exceeds the decode limit")));
            }
            expect_vecs(data, 2)?;
            if data.vecs[0].len() != n || data.vecs[1].len() != n {
                return Err(invalid(format!(
                    "coordinate vectors must each have {n} entries"
                )));
            }
            let coords: Vec<(f64, f64)> = data.vecs[0]
                .iter()
                .zip(&data.vecs[1])
                .map(|(&x, &y)| (x, y))
                .collect();
            for (i, &(x, y)) in coords.iter().enumerate() {
                if !x.is_finite() || !y.is_finite() {
                    return Err(invalid(format!("non-finite coordinate at city {i}")));
                }
            }
            Ok(Box::new(TspEncoding::preprocessed(
                TspInstance::from_coords(&data.name, &coords),
            )))
        } else {
            // Explicit form: upper-triangle distance entries.
            if n > TSP_DENSE_MAX {
                return Err(invalid(format!(
                    "{n} cities exceeds the explicit-matrix decode limit"
                )));
            }
            let mut dist = Matrix::zeros(n, n);
            for &(i, j, d) in &data.edges {
                let (i, j) = (i as usize, j as usize);
                if i >= j || j >= n {
                    return Err(invalid(format!(
                        "distance entry ({i},{j}) is not upper-triangle for {n} cities"
                    )));
                }
                dist[(i, j)] = d;
                dist[(j, i)] = d;
            }
            Ok(Box::new(TspEncoding::preprocessed(
                TspInstance::from_matrix(&data.name, dist)?,
            )))
        }
    }
}

/// The weighted Minimum Vertex Cover family (paper appendix B).
pub struct MvcFamily;

impl ProblemFamily for MvcFamily {
    fn name(&self) -> &'static str {
        "mvc"
    }

    fn corpus(&self, tier: CorpusTier, seed: u64) -> Vec<Box<dyn FamilyProblem>> {
        let (count, n, p) = match tier {
            CorpusTier::Micro => (10, 12, 0.4),
            CorpusTier::Quick => (20, 20, 0.4),
            CorpusTier::Paper => (60, 30, 0.5),
        };
        (0..count)
            .map(|i| {
                Box::new(MvcInstance::random_gnp(
                    &format!("mvc{n}_{i}"),
                    n,
                    p,
                    derive_seed(seed, 40_000 + i),
                )) as Box<dyn FamilyProblem>
            })
            .collect()
    }

    fn decode(&self, data: &InstanceData) -> Result<Box<dyn FamilyProblem>, ProblemError> {
        let n = dim0(data)?;
        if n > SPARSE_VARS_MAX {
            return Err(invalid(format!("{n} vertices exceeds the decode limit")));
        }
        expect_vecs(data, 1)?;
        if data.vecs[0].len() != n {
            return Err(invalid(format!("weight vector must have {n} entries")));
        }
        // Edge weights are carried as 1.0 by convention and ignored.
        let edges: Vec<(u32, u32)> = data.edges.iter().map(|&(u, v, _)| (u, v)).collect();
        Ok(Box::new(MvcInstance::new(
            &data.name,
            data.vecs[0].clone(),
            edges,
        )?))
    }
}

/// The Quadratic Assignment family (paper §3.1 fn. 2).
pub struct QapFamily;

impl ProblemFamily for QapFamily {
    fn name(&self) -> &'static str {
        "qap"
    }

    fn corpus(&self, tier: CorpusTier, seed: u64) -> Vec<Box<dyn FamilyProblem>> {
        let (count, n) = match tier {
            CorpusTier::Micro => (8, 5),
            CorpusTier::Quick => (14, 6),
            CorpusTier::Paper => (30, 8),
        };
        (0..count)
            .map(|i| {
                Box::new(QapInstance::random(
                    &format!("qap{n}_{i}"),
                    n,
                    derive_seed(seed, 50_000 + i),
                )) as Box<dyn FamilyProblem>
            })
            .collect()
    }

    fn decode(&self, data: &InstanceData) -> Result<Box<dyn FamilyProblem>, ProblemError> {
        let n = dim0(data)?;
        expect_vecs(data, 2)?;
        let cells = n
            .checked_mul(n)
            .ok_or_else(|| invalid("matrix size overflows".to_string()))?;
        if data.vecs[0].len() != cells || data.vecs[1].len() != cells {
            return Err(invalid(format!(
                "flow and distance vectors must each have {cells} entries"
            )));
        }
        let flow = Matrix::from_vec(n, n, data.vecs[0].clone());
        let dist = Matrix::from_vec(n, n, data.vecs[1].clone());
        Ok(Box::new(QapInstance::new(&data.name, flow, dist)?))
    }
}

/// The balanced Max-Cut family.
pub struct MaxCutFamily;

impl ProblemFamily for MaxCutFamily {
    fn name(&self) -> &'static str {
        "maxcut"
    }

    fn corpus(&self, tier: CorpusTier, seed: u64) -> Vec<Box<dyn FamilyProblem>> {
        let (count, n, p) = match tier {
            CorpusTier::Micro => (10, 12, 0.4),
            CorpusTier::Quick => (20, 20, 0.4),
            CorpusTier::Paper => (60, 30, 0.5),
        };
        (0..count)
            .map(|i| {
                Box::new(MaxCutInstance::random_gnp(
                    &format!("maxcut{n}_{i}"),
                    n,
                    p,
                    derive_seed(seed, 60_000 + i),
                )) as Box<dyn FamilyProblem>
            })
            .collect()
    }

    fn decode(&self, data: &InstanceData) -> Result<Box<dyn FamilyProblem>, ProblemError> {
        let n = dim0(data)?;
        if n > SPARSE_VARS_MAX {
            return Err(invalid(format!("{n} vertices exceeds the decode limit")));
        }
        Ok(Box::new(MaxCutInstance::new(
            &data.name,
            n,
            data.edges.clone(),
        )?))
    }
}

/// The 0/1 knapsack family.
pub struct KnapsackFamily;

impl ProblemFamily for KnapsackFamily {
    fn name(&self) -> &'static str {
        "knapsack"
    }

    fn corpus(&self, tier: CorpusTier, seed: u64) -> Vec<Box<dyn FamilyProblem>> {
        let (count, n) = match tier {
            CorpusTier::Micro => (10, 12),
            CorpusTier::Quick => (20, 18),
            CorpusTier::Paper => (60, 30),
        };
        (0..count)
            .map(|i| {
                Box::new(KnapsackInstance::random(
                    &format!("knap{n}_{i}"),
                    n,
                    derive_seed(seed, 70_000 + i),
                )) as Box<dyn FamilyProblem>
            })
            .collect()
    }

    fn decode(&self, data: &InstanceData) -> Result<Box<dyn FamilyProblem>, ProblemError> {
        let n = dim0(data)?;
        expect_vecs(data, 2)?;
        if data.vecs[0].len() != n || data.vecs[1].len() != n {
            return Err(invalid(format!(
                "value and weight vectors must each have {n} entries"
            )));
        }
        if data.scalars.len() != 1 {
            return Err(invalid("expected scalars = [capacity]".to_string()));
        }
        Ok(Box::new(KnapsackInstance::new(
            &data.name,
            data.vecs[0].clone(),
            data.vecs[1].clone(),
            data.scalars[0],
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_case_insensitive_and_total() {
        assert_eq!(lookup_family("tsp").unwrap().name(), "tsp");
        assert_eq!(lookup_family("MaxCut").unwrap().name(), "maxcut");
        assert_eq!(lookup_family("KNAPSACK").unwrap().name(), "knapsack");
        let err = lookup_family("tps").expect_err("typo must not resolve");
        let msg = err.to_string();
        assert!(msg.contains("unknown problem family `tps`"), "{msg}");
        for family in registry() {
            assert!(
                msg.contains(family.name()),
                "{msg} missing {}",
                family.name()
            );
        }
    }

    #[test]
    fn instance_data_json_defaults_missing_slots() {
        // Wire payloads name only the slots their family uses; the rest
        // deserialise to empty defaults.
        let data: InstanceData = serde_json::from_str(
            r#"{"name":"mc","dims":[4],"edges":[[0,1,1.0],[1,2,2.0],[2,3,1.5]]}"#,
        )
        .expect("partial payload must parse");
        assert_eq!(data.name, "mc");
        assert_eq!(data.dims, vec![4]);
        assert!(data.scalars.is_empty() && data.vecs.is_empty());
        assert_eq!(data.edges.len(), 3);
        let decoded = lookup_family("maxcut").unwrap().decode(&data);
        assert!(decoded.is_ok(), "{:?}", decoded.err());

        // A present-but-wrong slot still errors with the field name.
        let err = serde_json::from_str::<InstanceData>(r#"{"dims":"four"}"#)
            .expect_err("bad dims must not parse");
        assert!(err.to_string().contains("dims"), "{err}");
    }

    #[test]
    fn every_family_round_trips_its_corpus() {
        for family in registry() {
            let corpus = family.corpus(CorpusTier::Micro, 11);
            assert!(!corpus.is_empty(), "{}: empty corpus", family.name());
            for problem in &corpus {
                assert_eq!(problem.family(), family.name());
                let features = problem.features();
                assert_eq!(features.len(), family.feature_dim(), "{}", family.name());
                assert!(
                    features.iter().all(|f| f.is_finite()),
                    "{}: non-finite feature",
                    family.name()
                );
                let decoded = family
                    .decode(&problem.to_data())
                    .unwrap_or_else(|e| panic!("{}: decode failed: {e}", family.name()));
                assert_eq!(
                    RelaxableProblem::name(&decoded),
                    RelaxableProblem::name(problem),
                    "{}",
                    family.name()
                );
                assert_eq!(decoded.num_vars(), problem.num_vars(), "{}", family.name());
                // Features and the QUBO at a probe penalty must be
                // bit-identical: the compact encoding loses nothing the
                // surrogate or solver sees.
                assert_eq!(decoded.features(), features, "{}", family.name());
                let a = 1.37;
                let q1 = problem.to_qubo(a);
                let q2 = decoded.to_qubo(a);
                let x = vec![1u8, 0]
                    .into_iter()
                    .cycle()
                    .take(problem.num_vars())
                    .collect::<Vec<_>>();
                assert_eq!(
                    q1.energy(&x).to_bits(),
                    q2.energy(&x).to_bits(),
                    "{}",
                    family.name()
                );
            }
        }
    }

    #[test]
    fn corpora_are_seed_deterministic() {
        for family in registry() {
            let a = family.corpus(CorpusTier::Micro, 5);
            let b = family.corpus(CorpusTier::Micro, 5);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_data(), y.to_data(), "{}", family.name());
            }
        }
    }

    #[test]
    fn tsp_decode_accepts_both_forms() {
        let family = lookup_family("tsp").unwrap();
        // Coordinate form.
        let inst = TspInstance::from_coords("c", &[(0.0, 0.0), (3.0, 4.0), (1.0, 1.0)]);
        let decoded = family.decode(&tsp_instance_data(&inst)).unwrap();
        assert_eq!(decoded.num_vars(), 9);
        // Explicit form (coords dropped by scaling).
        let explicit = inst.scaled(2.0);
        assert!(explicit.coords().is_none());
        let data = tsp_instance_data(&explicit);
        assert!(data.vecs.is_empty() && !data.edges.is_empty());
        let decoded = family.decode(&data).unwrap();
        assert_eq!(decoded.num_vars(), 9);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let tsp = lookup_family("tsp").unwrap();
        // NaN coordinate.
        let bad = InstanceData {
            name: "nan".to_string(),
            dims: vec![2],
            vecs: vec![vec![0.0, f64::NAN], vec![0.0, 1.0]],
            ..InstanceData::default()
        };
        assert!(tsp.decode(&bad).is_err());
        // Lower-triangle distance entry.
        let bad = InstanceData {
            name: "lower".to_string(),
            dims: vec![3],
            edges: vec![(1, 0, 2.0)],
            ..InstanceData::default()
        };
        assert!(tsp.decode(&bad).is_err());
        // Mismatched knapsack vectors.
        let knap = lookup_family("knapsack").unwrap();
        let bad = InstanceData {
            name: "short".to_string(),
            dims: vec![3],
            scalars: vec![4.0],
            vecs: vec![vec![1.0, 2.0, 3.0], vec![1.0, 2.0]],
            ..InstanceData::default()
        };
        assert!(knap.decode(&bad).is_err());
        // MVC edge out of range.
        let mvc = lookup_family("mvc").unwrap();
        let bad = InstanceData {
            name: "range".to_string(),
            dims: vec![2],
            vecs: vec![vec![1.0, 1.0]],
            edges: vec![(0, 5, 1.0)],
            ..InstanceData::default()
        };
        assert!(mvc.decode(&bad).is_err());
    }

    #[test]
    fn tsp_coords_decode_is_bit_identical() {
        // Re-deriving distances from persisted coordinates must match
        // the original matrix bit for bit.
        let inst = TspInstance::from_coords(
            "bits",
            &[(0.13, 7.7), (2.25, -1.5), (9.0, 3.125), (4.5, 4.5)],
        );
        let family = lookup_family("tsp").unwrap();
        let decoded = family.decode(&tsp_instance_data(&inst)).unwrap();
        let original = TspEncoding::preprocessed(inst.clone());
        assert_eq!(
            decoded.features(),
            FamilyProblem::features(&original),
            "features diverged"
        );
    }
}
