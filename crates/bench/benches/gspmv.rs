//! Criterion benches of the headline kernels: SPMV and GSPMV across the
//! vector counts of the paper's Fig. 2, on Table I-style SD matrices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrhs_sparse::{gspmv_serial, BcrsMatrix, MultiVec};
use mrhs_stokes::{assemble_resistance, ResistanceConfig, SystemBuilder};

fn sd_matrix(n: usize, s_cut: f64) -> BcrsMatrix {
    let sys = SystemBuilder::new(n)
        .volume_fraction(0.5)
        .s_cut(s_cut)
        .seed(20120521)
        .build();
    assemble_resistance(
        sys.particles(),
        &ResistanceConfig { s_cut, ..Default::default() },
    )
}

/// GSPMV time as a function of `m` — the measured Fig. 2 curve. Divide
/// each entry by the `m = 1` entry to read off `r(m)`.
fn bench_gspmv_vs_m(c: &mut Criterion) {
    let a = sd_matrix(2000, 3.2); // mat2-like density
    let n = a.n_rows();
    let mut group = c.benchmark_group("gspmv_vs_m");
    group.sample_size(20);
    for &m in &[1usize, 2, 4, 8, 16, 32] {
        let x = MultiVec::from_flat(n, m, vec![1.0; n * m]);
        let mut y = MultiVec::zeros(n, m);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| gspmv_serial(&a, &x, &mut y));
        });
    }
    group.finish();
}

/// Single-vector SPMV per matrix density (Table II's quantity).
fn bench_spmv_by_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv_by_density");
    group.sample_size(20);
    for (name, s_cut) in [("mat1", 2.25), ("mat2", 3.2), ("mat3", 4.1)] {
        let a = sd_matrix(2000, s_cut);
        let n = a.n_rows();
        let x = MultiVec::from_flat(n, 1, vec![1.0; n]);
        let mut y = MultiVec::zeros(n, 1);
        group.bench_function(name, |b| b.iter(|| gspmv_serial(&a, &x, &mut y)));
    }
    group.finish();
}

criterion_group!(benches, bench_gspmv_vs_m, bench_spmv_by_density);
criterion_main!(benches);
