//! Ablation bench for resistance assembly: held-list refill against a
//! pair search from nothing. `repro fig2` and `repro ablation` time the
//! kernels, and the repo's benchmark times the solvers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrhs_core::ResistanceSystem;
use mrhs_stokes::{assemble_resistance, ResistanceConfig, SystemBuilder};

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

criterion_group!(benches, bench_assembly);
criterion_main!(benches);
