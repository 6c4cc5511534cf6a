//! Cross-crate integration: problems × qubo × solvers.
//!
//! These tests drive full TSP/MVC encodings through every solver backend
//! and check solution *semantics* (feasibility, decodability, optimality
//! on tiny instances) rather than just energies.

use qross_repro::problems::tsp::heuristics;
use qross_repro::problems::{MvcInstance, RelaxableProblem, TspEncoding, TspInstance};
use qross_repro::solvers::da::{DaConfig, DigitalAnnealer};
use qross_repro::solvers::qbsolv::Qbsolv;
use qross_repro::solvers::sa::{SaConfig, SimulatedAnnealer};
use qross_repro::solvers::tabu::TabuSearch;
use qross_repro::solvers::Solver;

fn square5() -> TspEncoding {
    // 4 corners + centre: optimal tour known by exhaustive reasoning.
    TspEncoding::preprocessed(TspInstance::from_coords(
        "sq5",
        &[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (2.0, 1.0)],
    ))
}

fn optimal_length(enc: &TspEncoding) -> f64 {
    // 5 cities: brute force all 4! tours fixing city 0.
    let inst = enc.fitness_instance();
    let mut best = f64::INFINITY;
    let mut perm = [1usize, 2, 3, 4];
    // simple permutation enumeration
    fn permutations(arr: &mut [usize], k: usize, out: &mut Vec<Vec<usize>>) {
        if k == arr.len() {
            out.push(arr.to_vec());
            return;
        }
        for i in k..arr.len() {
            arr.swap(k, i);
            permutations(arr, k + 1, out);
            arr.swap(k, i);
        }
    }
    let mut perms = Vec::new();
    permutations(&mut perm, 0, &mut perms);
    for p in perms {
        let tour: Vec<usize> = std::iter::once(0).chain(p).collect();
        best = best.min(inst.tour_length(&tour));
    }
    best
}

/// Every solver should produce feasible, decodable, optimal-or-near
/// solutions on a 5-city instance at a sensible relaxation parameter.
#[test]
fn all_solvers_solve_tiny_tsp() {
    let enc = square5();
    let optimal = optimal_length(&enc);
    let a = 2.0; // on the slope for normalised instances
    let qubo = enc.to_qubo(a);

    let sa = SimulatedAnnealer::new(SaConfig {
        sweeps: 256,
        ..Default::default()
    });
    let da = DigitalAnnealer::new(DaConfig {
        steps: 3000,
        ..Default::default()
    });
    let tabu = TabuSearch::default();
    let qbsolv = Qbsolv::default();

    for (name, solver) in [
        ("sa", &sa as &dyn Solver),
        ("da", &da as &dyn Solver),
        ("tabu", &tabu as &dyn Solver),
        ("qbsolv", &qbsolv as &dyn Solver),
    ] {
        let set = solver.sample(&qubo, 16, 7);
        let best = set
            .best_feasible(|x| enc.is_feasible(x))
            .unwrap_or_else(|| panic!("{name}: no feasible solution at A={a}"));
        let tour = enc.decode_tour(&best.assignment).expect("decodable");
        let length = enc.fitness_instance().tour_length(&tour);
        assert!(
            length <= optimal * 1.05 + 1e-9,
            "{name}: found {length}, optimal {optimal}"
        );
    }
}

/// At very low A the penalty cannot dominate: solvers exploit constraint
/// violations and feasibility collapses — the left plateau of Fig. 1.
#[test]
fn low_relaxation_collapses_feasibility() {
    let enc = square5();
    let sa = SimulatedAnnealer::new(SaConfig {
        sweeps: 128,
        ..Default::default()
    });
    let low = enc.to_qubo(0.01);
    let set = sa.sample(&low, 16, 3);
    let pf = set.feasibility_fraction(|x| enc.is_feasible(x));
    assert!(pf < 0.2, "Pf at A=0.01 should collapse, got {pf}");

    let high = enc.to_qubo(10.0);
    let set = sa.sample(&high, 16, 3);
    let pf_high = set.feasibility_fraction(|x| enc.is_feasible(x));
    assert!(pf_high > 0.8, "Pf at A=10 should be near 1, got {pf_high}");
}

/// Feasible QUBO solutions decode to tours whose original-units length
/// matches the QUBO's HB part exactly (scaled encodings included).
#[test]
fn fitness_units_consistent_across_preprocessing() {
    let inst = TspInstance::from_coords(
        "scale-check",
        &[
            (0.0, 0.0),
            (30.0, 5.0),
            (25.0, 28.0),
            (3.0, 22.0),
            (14.0, 14.0),
        ],
    );
    let plain = TspEncoding::new(inst.clone());
    let pre = TspEncoding::preprocessed(inst);
    let sa = SimulatedAnnealer::new(SaConfig {
        sweeps: 256,
        ..Default::default()
    });
    for enc in [&plain, &pre] {
        // pick an A on the feasible side for each encoding's scale
        let a = 3.0 * enc.qubo_instance().max_distance().max(1.0);
        let set = sa.sample(&enc.to_qubo(a), 16, 5);
        let best = set
            .best_feasible(|x| enc.is_feasible(x))
            .expect("feasible at high A");
        let tour = enc.decode_tour(&best.assignment).unwrap();
        let fitness = enc.fitness(&best.assignment).unwrap();
        assert!(
            (fitness - enc.fitness_instance().tour_length(&tour)).abs() < 1e-9,
            "fitness must be in original units"
        );
    }
}

/// MVC end-to-end: with σ > max weight the QUBO optimum is a genuine
/// minimum vertex cover, and solvers find covers no worse than greedy.
#[test]
fn mvc_end_to_end() {
    let graph = MvcInstance::random_gnp("it", 24, 0.4, 5);
    let greedy_weight = graph.cover_weight(&graph.greedy_cover());
    let qubo = graph.to_qubo(2.0); // > max weight 1.0
    let sa = SimulatedAnnealer::new(SaConfig {
        sweeps: 256,
        ..Default::default()
    });
    let set = sa.sample(&qubo, 16, 9);
    let best = set
        .best_feasible(|x| graph.is_feasible(x))
        .expect("feasible cover found");
    let weight = graph.fitness(&best.assignment).unwrap();
    assert!(
        weight <= greedy_weight + 1e-9,
        "SA cover {weight} worse than greedy {greedy_weight}"
    );
}

/// The classical reference heuristics bound each other correctly:
/// multi-start 2-opt/Or-opt never loses to a single nearest-neighbour run.
#[test]
fn reference_heuristics_ordering() {
    for seed in 0..4 {
        let inst = qross_repro::problems::tsp::generator::generate_instance(
            &qross_repro::problems::tsp::generator::GeneratorConfig {
                min_cities: 12,
                max_cities: 12,
                ..Default::default()
            },
            seed,
            0,
        );
        let nn = inst.tour_length(&heuristics::nearest_neighbor(&inst, 0));
        let (_, reference) = heuristics::reference_tour(&inst, 6);
        assert!(reference <= nn + 1e-9, "seed {seed}: {reference} > {nn}");
    }
}

/// FNV-1a over each sample's energy bits and assignment bytes, in
/// `SampleSet` order.
fn sample_digest(set: &qross_repro::solvers::SampleSet, mut hash: u64) -> u64 {
    for sample in set.iter() {
        let bytes = sample.energy.to_bits().to_le_bytes();
        for &b in bytes.iter().chain(&sample.assignment) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// The Digital Annealer's samples on fixed models and seeds hash to a
/// committed constant. The lane-kernel tests compare the kernel with
/// `run_replica` inside one build; this pins both across commits, so a
/// change to the reference trajectory itself shows up here.
#[test]
fn da_samples_match_the_committed_digest() {
    use qross_repro::problems::tsp::generator::{generate_instance, GeneratorConfig};
    use qross_repro::qubo::QuboBuilder;
    use rand::Rng;

    let da = DigitalAnnealer::new(DaConfig {
        steps: 1200,
        ..Default::default()
    });
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    let tsp = TspEncoding::preprocessed(generate_instance(
        &GeneratorConfig {
            min_cities: 10,
            max_cities: 10,
            ..Default::default()
        },
        15,
        0,
    ));
    for a in [0.2, 2.0] {
        let qubo = tsp.to_qubo(a);
        assert_eq!(qubo.num_vars(), 100);
        for seed in [901, 902] {
            hash = sample_digest(&da.sample(&qubo, 24, seed), hash);
        }
    }
    for (n, seed) in [(37usize, 3u64), (130, 4)] {
        let mut rng = qross_repro::mathkit::rng::seeded_rng(seed);
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            b.add_linear(i, rng.gen_range(-2.0..2.0));
            for j in (i + 1)..n {
                if rng.gen::<f64>() < 10.0 / n as f64 {
                    b.add_quadratic(i, j, rng.gen_range(-1.5..1.5));
                }
            }
        }
        hash = sample_digest(&da.sample(&b.build(), 24, seed), hash);
    }
    assert_eq!(
        hash, 0x855c_a146_81f2_3331,
        "DA samples changed: digest {hash:#018x}"
    );
}
