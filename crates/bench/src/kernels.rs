//! Kernel-level experiments: Table I, Table II, Fig. 1, Fig. 2.

use crate::common::{
    f, kernel_particles, sd_matrix, section, Options, TABLE1_CUTOFFS,
};
use mrhs_perfmodel::measure::{
    host_profile, measured_relative_curve, stream_bandwidth, time_gspmv,
};
use mrhs_perfmodel::{bicgstab_model, GspmvModel, MachineProfile};

/// Table I: statistics of the three SD matrices. The paper builds them
/// by changing the SD cutoff radius; so do we. Absolute sizes scale
/// with `--particles`; the density column (`nnzb/nb`) is the quantity
/// that must land near the paper's.
pub fn table1(opts: &Options) {
    section("Table I: matrices from SD (paper densities: 5.6 / 24.9 / 45.3)");
    println!(
        "{:<6} {:>9} {:>9} {:>12} {:>10} {:>9} {:>10}",
        "Matrix", "n", "nb", "nnz", "nnzb", "nnzb/nb", "paper d"
    );
    for (name, s_cut, paper_density) in TABLE1_CUTOFFS {
        let a = sd_matrix(opts.particles, s_cut, opts.seed);
        let s = a.stats();
        println!(
            "{:<6} {:>9} {:>9} {:>12} {:>10} {:>9.1} {:>10.1}",
            name,
            s.n,
            s.nb,
            s.nnz,
            s.nnzb,
            s.blocks_per_row(),
            paper_density
        );
    }
}

/// Table II: single-vector SPMV performance and bandwidth utilization.
/// The paper reports 17.8–18.3 GB/s of 23 GB/s on WSM and 32 of 33 on
/// SNB; here we report the host's achieved fraction of its own STREAM
/// bandwidth — the shape statement is "SPMV runs near the bandwidth
/// bound".
pub fn table2(opts: &Options) {
    let n = kernel_particles(opts);
    section("Table II: SPMV (m = 1) performance and bandwidth usage");
    let stream = stream_bandwidth(1 << 22, opts.reps.max(3));
    println!("host STREAM bandwidth: {:.1} GB/s", stream / 1e9);
    println!(
        "{:<6} {:>10} {:>10} {:>12} {:>12}",
        "Matrix", "GB/s", "Gflop/s", "% of STREAM", "paper %"
    );
    for (i, (name, s_cut, _)) in TABLE1_CUTOFFS.iter().enumerate() {
        let a = sd_matrix(n, *s_cut, opts.seed);
        let t = time_gspmv(&a, 1, opts.reps);
        let bytes = a.stream_bytes() as f64 + (a.n_rows() * 3 * 8) as f64; // x read, y write (+alloc)
        let gbps = bytes / t / 1e9;
        let gflops = 18.0 * a.nnz_blocks() as f64 / t / 1e9;
        // paper: mat1 77%, mat2 80% of WSM STREAM; mat3 97% of SNB
        let paper = [77.0, 80.0, 97.0][i];
        println!(
            "{:<6} {:>10} {:>10} {:>11.0}% {:>11.0}%",
            name,
            f(gbps),
            f(gflops),
            100.0 * bytes / t / stream,
            paper
        );
    }
}

/// Fig. 1: the model grid of how many vectors fit within 2× the
/// single-vector time, over density (x) and byte/flop ratio (y), k = 0.
pub fn fig1(_opts: &Options) {
    section("Fig. 1: vectors within 2x single-vector time (model, k = 0)");
    let densities: Vec<f64> = (0..14).map(|i| 6.0 + 6.0 * i as f64).collect();
    let bfs: Vec<f64> = vec![0.02, 0.06, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
    let grid = GspmvModel::fig1_grid(&densities, &bfs);
    print!("{:>6} |", "B/F");
    for d in &densities {
        print!(" {:>4.0}", d);
    }
    println!("   <- nnzb/nb");
    println!("{}", "-".repeat(8 + 5 * densities.len()));
    for (bi, bf) in bfs.iter().enumerate().rev() {
        print!("{bf:>6.2} |");
        for v in &grid[bi] {
            print!(" {v:>4}");
        }
        println!();
    }
}

/// Fig. 2: relative time r(m).
/// (a) measured vs model for the mat2-density matrix on the host;
/// (b) measured r(m) for all three matrices. The paper's key readings:
/// 8 / 12 / 16 vectors at 2× for mat1/mat2/mat3.
pub fn fig2(opts: &Options) {
    section("Fig. 2a: r(m) for mat2 — measured vs model (host-calibrated)");
    let host = host_profile();
    println!(
        "host profile: B = {:.1} GB/s, F = {:.1} Gflop/s, B/F = {:.2}",
        host.bandwidth / 1e9,
        host.flops / 1e9,
        host.byte_per_flop()
    );
    let n = kernel_particles(opts);
    let ms: Vec<usize> = vec![1, 2, 4, 8, 12, 16, 24, 32, 42];
    let a2 = sd_matrix(n, TABLE1_CUTOFFS[1].1, opts.seed);
    let measured = measured_relative_curve(&a2, &ms, opts.reps);
    let model = GspmvModel::new(&a2.stats(), host);
    println!(
        "{:>4} {:>10} {:>10} {:>10} {:>10}",
        "m", "measured", "model", "bw-bound", "comp-bound"
    );
    let t1 = model.time_bandwidth(1);
    for (m, r) in &measured {
        println!(
            "{:>4} {:>10} {:>10} {:>10} {:>10}",
            m,
            f(*r),
            f(model.relative_time(*m)),
            f(model.time_bandwidth(*m) / t1),
            f(model.time_compute(*m) / t1)
        );
    }

    section("Fig. 2b: measured r(m) for mat1/mat2/mat3 + vectors at 2x");
    println!("{:>4} {:>10} {:>10} {:>10}", "m", "mat1", "mat2", "mat3");
    let curves: Vec<Vec<(usize, f64)>> = TABLE1_CUTOFFS
        .iter()
        .map(|(_, s_cut, _)| {
            let a = sd_matrix(n, *s_cut, opts.seed);
            measured_relative_curve(&a, &ms, opts.reps)
        })
        .collect();
    for (i, m) in ms.iter().enumerate() {
        println!(
            "{:>4} {:>10} {:>10} {:>10}",
            m,
            f(curves[0][i].1),
            f(curves[1][i].1),
            f(curves[2][i].1)
        );
    }
    for (k, (name, _, _)) in TABLE1_CUTOFFS.iter().enumerate() {
        let at2 = vectors_at_2x(&curves[k]);
        let paper = [8, 12, 16][k];
        println!("{name}: ~{at2} vectors at 2x (paper: {paper})");
    }
}

/// The largest measured width whose relative time is at most 2 — not
/// the last width before the first one above 2: a width with a scalar
/// tail (m = 12 is one 8-lane vector plus four scalar lanes) can read
/// above a wider one and would hide it.
fn vectors_at_2x(curve: &[(usize, f64)]) -> usize {
    curve.iter().filter(|(_, r)| *r <= 2.0).map(|(m, _)| *m).max().unwrap_or(1)
}

/// A WSM/SNB model replay of Fig. 2 at the paper's exact parameters —
/// no host measurement, pure Eq. 8 with the paper's machines.
pub fn fig2_paper_model(_opts: &Options) {
    section("Fig. 2 (paper-machine model replay)");
    let cases = [
        ("mat1/WSM", 5.6, MachineProfile::wsm()),
        ("mat2/WSM", 24.9, MachineProfile::wsm()),
        ("mat3/SNB", 45.3, MachineProfile::snb()),
    ];
    println!("{:>4} {:>11} {:>11} {:>11}", "m", "mat1/WSM", "mat2/WSM", "mat3/SNB");
    let models: Vec<GspmvModel> = cases
        .iter()
        .map(|(_, d, mach)| GspmvModel::from_density(*d, *mach))
        .collect();
    for m in [1usize, 2, 4, 8, 12, 16, 24, 32, 42] {
        println!(
            "{:>4} {:>11} {:>11} {:>11}",
            m,
            f(models[0].relative_time(m)),
            f(models[1].relative_time(m)),
            f(models[2].relative_time(m))
        );
    }
    for ((name, _, _), model) in cases.iter().zip(&models) {
        println!(
            "{name}: {} vectors at 2x, switch point {:?}",
            model.vectors_within_factor(2.0),
            model.switch_point()
        );
    }
}

/// Kernel-backend ablation: serial GSPMV times per width for the
/// scalar backend, the fully-runtime naive kernel and the explicit-SIMD
/// backend (when the host has a vector ISA). At the off-grid widths 5
/// and 17 the scalar column is the strip-mined loop production runs
/// there. Reports absolute seconds and speedups relative to the scalar
/// path — the measured record behind EXPERIMENTS.md and the README
/// feature matrix.
pub fn ablation(opts: &Options) {
    use mrhs_perfmodel::measure::time_gspmv_on;
    use mrhs_sparse::{
        active_backend, backend_available, detect_isa, Backend, KernelKind,
        Schedule,
    };

    let n = kernel_particles(opts);
    section("Kernel-backend ablation: serial GSPMV per width");
    let a = sd_matrix(n, TABLE1_CUTOFFS[1].1, opts.seed);
    let s = a.stats();
    let time_kind = |kind, m| {
        time_gspmv_on(Backend::forced(kind), &a, m, opts.reps, Schedule::Serial)
    };
    println!(
        "isa = {}, active backend = {}; nb = {}, nnzb = {}",
        detect_isa().as_str(),
        active_backend().name(),
        s.nb,
        s.nnzb
    );
    let simd = backend_available(KernelKind::Simd);
    println!(
        "{:>4} {:>11} {:>11} {:>11} {:>9}",
        "m", "scalar s", "naive s", "simd s", "simd x"
    );
    for m in [1usize, 2, 4, 5, 8, 12, 16, 17, 24, 32, 48] {
        let t_scalar = time_kind(KernelKind::Scalar, m);
        let x = mrhs_sparse::MultiVec::from_flat(
            a.n_cols(),
            m,
            vec![1.0; a.n_cols() * m],
        );
        let mut y = mrhs_sparse::MultiVec::zeros(a.n_rows(), m);
        mrhs_sparse::gspmv::gspmv_serial_naive(&a, &x, &mut y); // warm-up
        let t_naive = (0..opts.reps.max(3))
            .map(|_| {
                let t = std::time::Instant::now();
                mrhs_sparse::gspmv::gspmv_serial_naive(&a, &x, &mut y);
                std::hint::black_box(&y);
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let t_simd = simd.then(|| time_kind(KernelKind::Simd, m));
        println!(
            "{:>4} {:>11.3e} {:>11.3e} {:>11} {:>9}",
            m,
            t_scalar,
            t_naive,
            t_simd.map_or("-".into(), |t| format!("{t:.3e}")),
            t_simd.map_or("-".into(), |t| format!("{:.2}x", t_scalar / t))
        );
    }
}

/// Block-BiCGStab ablation (`repro ablation --bicgstab`): one width-`m`
/// block solve against `m` independent width-1 solves of the same
/// `block_bicgstab` on a soft general operator
/// (`oracle::corpus::soft_general`: the resistance at ξ_min = 1e-3,
/// skew-perturbed by 10 %), per batch width. The operator is a
/// `BcrsMatrix`, so every solve runs Gauss–Seidel, and it is stiff
/// enough that each still takes tens of iterations, so per-iteration
/// costs outweigh the per-solve ones. Reports wall time, measured
/// speedup and the model's — `m` width-1 iterations over one width-`m`
/// iteration, each priced as the solver's four matrix streams (two
/// Eq. 8 products, two pairs of sweeps) plus `GspmvModel::dense_time`
/// — and the block solve's time per iteration beside that price: the
/// measured record behind the EXPERIMENTS.md nonsymmetric rows.
pub fn ablation_bicgstab(opts: &Options) {
    use mrhs_solvers::{block_bicgstab, SolveConfig};
    use mrhs_sparse::MultiVec;
    use std::time::Instant;

    let skew = 0.1;
    let a = oracle::corpus::soft_general(kernel_particles(opts), skew);
    let s = a.stats();
    section("Block-BiCGStab ablation: width-m block solve vs m width-1 solves");
    println!(
        "matrix: nb = {}, nnzb = {}, density {:.1}, stream {:.1} MiB \
         (resistance at xi_min = 1e-3, skew {skew})",
        s.nb,
        s.nnzb,
        s.blocks_per_row(),
        a.stream_bytes() as f64 / (1 << 20) as f64
    );

    // One iteration's price: the matrix streams plus the dense sweeps.
    let gspmv = GspmvModel::new(&s, host_profile());
    let iter = |m| {
        bicgstab_model::iteration_time(
            &gspmv,
            m,
            block_bicgstab::MATRIX_STREAMS,
            block_bicgstab::DENSE_SWEEPS,
        )
    };

    let n = a.n_rows();
    let cfg = SolveConfig { tol: 1e-6, max_iter: 400 };
    let reps = opts.reps.clamp(3, 5);
    println!(
        "{:>3} {:>6} {:>6} {:>11} {:>11} {:>8} {:>8} {:>11} {:>11}",
        "m",
        "it blk",
        "it w1",
        "w1 s",
        "block s",
        "x",
        "model x",
        "s/it",
        "model s/it"
    );
    for m in [1usize, 2, 4, 8, 16] {
        // Deterministic, pairwise-distinct right-hand sides (distinct
        // columns matter: duplicates make R~^T.V exactly singular).
        let cols: Vec<Vec<f64>> = (0..m)
            .map(|j| {
                (0..n)
                    .map(|i| (0.3 + (i * (j + 2) + 7 * j) as f64 * 0.618).sin())
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let b = MultiVec::from_columns(&refs);
        let singles: Vec<MultiVec> =
            refs.iter().map(|c| MultiVec::from_columns(&[c])).collect();

        let mut x = MultiVec::zeros(n, m);
        let res = block_bicgstab(&a, &b, &mut x, &cfg); // warm-up
        assert!(
            res.converged,
            "bench operator must converge (breakdown {:?})",
            res.breakdown
        );
        let t_block = (0..reps)
            .map(|_| {
                let mut x = MultiVec::zeros(n, m);
                let t = Instant::now();
                block_bicgstab(&a, &b, &mut x, &cfg);
                std::hint::black_box(&x);
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);

        let mut it_single = 0usize;
        let t_single = (0..reps)
            .map(|_| {
                let t = Instant::now();
                it_single = 0;
                for c in &singles {
                    let mut x = MultiVec::zeros(n, 1);
                    let r = block_bicgstab(&a, c, &mut x, &cfg);
                    assert!(r.converged, "width-1 reference must converge");
                    it_single += r.iterations;
                    std::hint::black_box(&x);
                }
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);

        println!(
            "{:>3} {:>6} {:>6} {:>11.3e} {:>11.3e} {:>7.2}x {:>7.2}x {:>11.3e} {:>11.3e}",
            m,
            res.iterations,
            it_single,
            t_single,
            t_block,
            t_single / t_block,
            iter(1) / (iter(m) / m as f64),
            t_block / res.iterations.max(1) as f64,
            iter(m)
        );
    }
    println!(
        "(model x assumes equal iteration counts; the block solve shares \
         one matrix stream across columns, the paper's Eq. 8 effect)"
    );
}

#[cfg(test)]
mod tests {
    use super::vectors_at_2x;

    /// mat3 at 150,000 particles: r(12) above 2, r(16) at 2.
    #[test]
    fn vectors_at_2x_reads_past_a_slow_width() {
        let curve = [
            (1, 1.0),
            (2, 1.1),
            (4, 1.2),
            (8, 1.42),
            (12, 3.2),
            (16, 2.0),
            (24, 2.9),
        ];
        assert_eq!(vectors_at_2x(&curve), 16);
        assert_eq!(vectors_at_2x(&[(1, 1.0), (2, 2.5)]), 1);
    }
}
