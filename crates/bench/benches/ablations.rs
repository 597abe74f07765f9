//! Ablation benches for the design choices called out in DESIGN.md:
//! unrolled vs naive kernels, Morton/RCM ordering vs
//! random labels, and held-list vs from-scratch assembly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrhs_core::ResistanceSystem;
use mrhs_sparse::gspmv::gspmv_serial_naive;
use mrhs_sparse::reorder::{permute_symmetric, reverse_cuthill_mckee};
use mrhs_sparse::{
    backend_available, gspmv_on, gspmv_serial, Backend, BcrsMatrix, KernelKind,
    MultiVec, Schedule,
};
use mrhs_stokes::{assemble_resistance, ResistanceConfig, SystemBuilder};

fn sd_matrix(n: usize) -> BcrsMatrix {
    let sys = SystemBuilder::new(n).volume_fraction(0.5).seed(20120521).build();
    assemble_resistance(sys.particles(), &ResistanceConfig::default())
}

/// Kernel variants at m = 16: monomorphized vs fully-runtime naive (vs
/// explicit SIMD where the host has it).
fn bench_kernel_variants(c: &mut Criterion) {
    let a = sd_matrix(2000);
    let n = a.n_rows();
    let m = 16;
    let x = MultiVec::from_flat(n, m, vec![1.0; n * m]);
    let mut y = MultiVec::zeros(n, m);
    let mut group = c.benchmark_group("kernel_variants_m16");
    group.sample_size(20);
    group.bench_function("specialized", |b| {
        b.iter(|| gspmv_serial(&a, &x, &mut y));
    });
    group.bench_function("naive", |b| {
        b.iter(|| gspmv_serial_naive(&a, &x, &mut y));
    });
    if backend_available(KernelKind::Simd) {
        let simd = Backend::forced(KernelKind::Simd);
        group.bench_function("simd", |b| {
            b.iter(|| gspmv_on(simd, &a, &x, &mut y, Schedule::Serial));
        });
    }
    group.finish();
}

/// Ordering ablation: the Morton-labelled SD matrix vs a randomly
/// relabelled copy vs RCM — locality of `x` accesses (the `k(m)` term).
fn bench_ordering(c: &mut Criterion) {
    let a = sd_matrix(2000);
    let nb = a.nb_rows();
    // random relabelling (deterministic shuffle)
    let mut perm: Vec<usize> = (0..nb).collect();
    let mut state = 12345u64;
    for i in (1..nb).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        perm.swap(i, (state as usize) % (i + 1));
    }
    let shuffled = permute_symmetric(&a, &perm);
    let rcm = permute_symmetric(&shuffled, &reverse_cuthill_mckee(&shuffled));

    let n = a.n_rows();
    let m = 8;
    let x = MultiVec::from_flat(n, m, vec![1.0; n * m]);
    let mut y = MultiVec::zeros(n, m);
    let mut group = c.benchmark_group("ordering_m8");
    group.sample_size(20);
    group.bench_function("morton", |b| b.iter(|| gspmv_serial(&a, &x, &mut y)));
    group.bench_function("random", |b| {
        b.iter(|| gspmv_serial(&shuffled, &x, &mut y))
    });
    group.bench_function("rcm", |b| b.iter(|| gspmv_serial(&rcm, &x, &mut y)));
    group.finish();
}

/// Assembly cost vs particle count: the per-step `Construct R_k` cost
/// (values refilled into the system's held pair list) against a pair
/// search from nothing plus the same fill.
fn bench_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("assembly");
    group.sample_size(10);
    for &n in &[500usize, 1000, 2000] {
        let sys = SystemBuilder::new(n).volume_fraction(0.5).seed(20120521).build();
        group.bench_with_input(BenchmarkId::new("held_list", n), &n, |b, _| {
            b.iter(|| sys.assemble());
        });
        group.bench_with_input(
            BenchmarkId::new("search_and_fill", n),
            &n,
            |b, _| {
                b.iter(|| {
                    assemble_resistance(
                        sys.particles(),
                        &ResistanceConfig::default(),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_kernel_variants, bench_ordering, bench_assembly);
criterion_main!(benches);
