//! Criterion bench for the Fig.-3 inner loops: surrogate prediction, the
//! MFS integral + optimisation, PBS root finding, and OFS sigmoid fitting.

use criterion::{criterion_group, criterion_main, Criterion};

use qross::dataset::{DatasetRow, SurrogateDataset};
use qross::strategy::mfs::{self, expected_min_fitness};
use qross::strategy::ofs::OnlineFitting;
use qross::strategy::pbs;
use qross::surrogate::{Surrogate, SurrogateConfig};

fn trained_surrogate() -> Surrogate {
    let mut ds = SurrogateDataset::new(1);
    for g in 0..6 {
        let f = g as f64 * 0.1;
        for k in 0..13 {
            let ln_a = -3.0 + 6.0 * k as f64 / 12.0;
            ds.push(DatasetRow {
                features: vec![f],
                a: ln_a.exp(),
                pf: mathkit::special::sigmoid(3.0 * (ln_a - f)),
                e_avg: 10.0 + ln_a,
                e_std: 1.0,
            });
        }
    }
    let cfg = SurrogateConfig {
        hidden: 16,
        epochs: 60,
        val_fraction: 0.0,
        ..Default::default()
    };
    Surrogate::train(&ds, &cfg).unwrap().0
}

fn bench_predict(c: &mut Criterion) {
    let sur = trained_surrogate();
    c.bench_function("surrogate_predict", |b| b.iter(|| sur.predict(&[0.3], 1.5)));
    let sweep: Vec<f64> = (1..=64).map(|k| k as f64 * 0.1).collect();
    c.bench_function("surrogate_predict_grid64", |b| {
        b.iter(|| sur.predict_grid(&[0.3], &sweep))
    });
}

fn bench_mfs(c: &mut Criterion) {
    c.bench_function("mfs_expected_min_integral", |b| {
        b.iter(|| expected_min_fitness(0.6, 12.0, 2.0, 128))
    });
    let sur = trained_surrogate();
    c.bench_function("mfs_propose", |b| {
        b.iter(|| mfs::propose(&sur, &[0.3], (0.05, 20.0), 32).unwrap())
    });
}

fn bench_pbs_and_ofs(c: &mut Criterion) {
    let sur = trained_surrogate();
    c.bench_function("pbs_propose_p80", |b| {
        b.iter(|| pbs::propose(&sur, &[0.3], (0.05, 20.0), 0.8).unwrap())
    });
    c.bench_function("ofs_fit_and_sample", |b| {
        b.iter(|| {
            let mut ofs = OnlineFitting::new((0.05, 20.0), 3);
            for k in 0..10 {
                let a = 0.2 + k as f64 * 0.35;
                ofs.observe(a, mathkit::special::sigmoid(2.0 * (a.ln() - 0.3)));
            }
            ofs.next_candidate()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_predict, bench_mfs, bench_pbs_and_ofs
}
criterion_main!(benches);
