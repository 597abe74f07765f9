//! Multi-node experiments: Fig. 3, Fig. 4, Table III.
//!
//! The functional halo exchange runs in-process (see `mrhs-cluster`);
//! times come from the calibrated cluster model with the paper's
//! machine and InfiniBand constants, so node counts up to 64 are
//! reproducible without the cluster.

use crate::common::{f, section, Options, TABLE1_CUTOFFS};
use mrhs_cluster::sim::NodeShape;
use mrhs_cluster::{mrhs, ClusterGspmvModel, DistEngine, DistributedMatrix};
use mrhs_core::ResistanceSystem;
use mrhs_perfmodel::mrhs_model::SolveCounts;
use mrhs_sparse::partition::coordinate_partition;
use mrhs_sparse::reorder::permute_symmetric;
use mrhs_sparse::{gspmv_serial, BcrsMatrix, MultiVec};
use mrhs_stokes::SystemBuilder;
use std::time::Instant;

fn distribute(opts: &Options, s_cut: f64, nodes: usize) -> DistributedMatrix {
    distribute_matrix(opts, s_cut, nodes).1
}

/// The SD matrix and its coordinate partitioning over `nodes`.
fn distribute_matrix(
    opts: &Options,
    s_cut: f64,
    nodes: usize,
) -> (BcrsMatrix, DistributedMatrix) {
    let system = SystemBuilder::new(opts.particles)
        .volume_fraction(0.5)
        .s_cut(s_cut)
        .seed(opts.seed)
        .build();
    let a = system.assemble();
    let part = coordinate_partition(
        &a,
        system.particles().positions(),
        system.particles().box_lengths(),
        nodes,
    );
    let dm = DistributedMatrix::new(&a, &part);
    (a, dm)
}

fn max_abs_diff(a: &MultiVec, b: &MultiVec) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(u, v)| (u - v).abs())
        .fold(0.0f64, f64::max)
}

/// Volume factor projecting the generated structure to the paper's
/// 300,000 particles (1.0 when running with `--full`).
fn paper_scale(opts: &Options) -> f64 {
    300_000.0 / opts.particles as f64
}

/// Fig. 3: r(m) for mat1 and mat2 on 1/4/16/64 nodes.
pub fn fig3(opts: &Options) {
    let model = ClusterGspmvModel::paper_cluster();
    let ms = [1usize, 2, 4, 8, 16, 24, 32];
    for (name, s_cut, _) in [TABLE1_CUTOFFS[0], TABLE1_CUTOFFS[1]] {
        section(&format!("Fig. 3: relative time r(m, p) for {name}"));
        let node_counts = [1usize, 4, 16, 64];
        let scale = paper_scale(opts);
        let dms: Vec<DistributedMatrix> =
            node_counts.iter().map(|&p| distribute(opts, s_cut, p)).collect();
        print!("{:>4}", "m");
        for p in node_counts {
            print!(" {:>9}", format!("p={p}"));
        }
        println!();
        for &m in &ms {
            print!("{m:>4}");
            for dm in &dms {
                print!(" {:>9}", f(model.relative_time(dm, m, scale)));
            }
            println!();
        }
    }
}

/// Fig. 4: the trend of r(m) versus node count — a slight rise at small
/// node counts (halo gather cost), then a drop at large counts where
/// latency dominates and extra vectors are nearly free.
pub fn fig4(opts: &Options) {
    section("Fig. 4: relative time vs number of nodes (mat1)");
    let model = ClusterGspmvModel::paper_cluster();
    let scale = paper_scale(opts);
    let node_counts = [1usize, 2, 4, 8, 16, 32, 64];
    let ms = [4usize, 8, 16, 32];
    print!("{:>6}", "nodes");
    for m in ms {
        print!(" {:>9}", format!("r(m={m})"));
    }
    println!();
    for &p in &node_counts {
        let dm = distribute(opts, TABLE1_CUTOFFS[0].1, p);
        print!("{p:>6}");
        for &m in &ms {
            print!(" {:>9}", f(model.relative_time(&dm, m, scale)));
        }
        println!();
    }
}

/// Table III: communication time fraction for mat1 at 32 and 64 nodes.
/// Paper: 88/76/52% at 32 nodes and 97/90/67% at 64 nodes for
/// m = 1/8/32.
pub fn table3(opts: &Options) {
    section("Table III: GSPMV communication time fractions (mat1, projected to 300k particles)");
    let model = ClusterGspmvModel::paper_cluster();
    let scale = paper_scale(opts);
    let ms = [1usize, 8, 32];
    let paper = [[88, 76, 52], [97, 90, 67]];
    println!("{:>8} {:>8} {:>8} {:>8}   (paper)", "nodes", "m=1", "m=8", "m=32");
    for (row, &p) in [32usize, 64].iter().enumerate() {
        let dm = distribute(opts, TABLE1_CUTOFFS[0].1, p);
        print!("{p:>8}");
        for &m in &ms {
            print!(" {:>7.0}%", 100.0 * model.comm_fraction(&dm, m, scale));
        }
        println!("   ({}%/{}%/{}%)", paper[row][0], paper[row][1], paper[row][2]);
    }
}

/// The chunk head's share of the cold iterations at paper scale, where
/// there is no chunk to measure: the head's block solve stops at
/// `guess_tol` = 1e-4 instead of 1e-6, so about log(1e4)/log(1e6) = ⅔.
const PAPER_HEAD_SHARE: f64 = 2.0 / 3.0;

/// Multi-node MRHS projection (beyond the paper's evaluation — the
/// distributed SD code it defers): Eq. 9 with the cluster GSPMV model.
pub fn cluster_mrhs(opts: &Options) {
    section("Multi-node MRHS projection (Eq. 9 x cluster model, mat2, 300k scale)");
    let model = ClusterGspmvModel::paper_cluster();
    let counts = SolveCounts::fig7();
    let block = SolveCounts {
        cold: (counts.cold as f64 * PAPER_HEAD_SHARE).round() as usize,
        ..counts
    };
    let scale = paper_scale(opts);
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>10}",
        "nodes", "optimal m", "T_mrhs [ms]", "T_orig [ms]", "speedup"
    );
    for p in [1usize, 4, 16, 64] {
        let dm = distribute(opts, TABLE1_CUTOFFS[1].1, p);
        let (m, t_mrhs, t_orig) =
            mrhs::project(&model, &dm, scale, &counts, &block);
        println!(
            "{p:>6} {m:>12} {:>14} {:>14} {:>9.2}x",
            f(t_mrhs * 1e3),
            f(t_orig * 1e3),
            t_orig / t_mrhs
        );
    }
    println!(
        "(the paper defers distributed SD; this composes its two validated models)"
    );
}

fn pseudo_x(n: usize, m: usize, seed: u64) -> MultiVec {
    let mut state = seed | 1;
    let mut x = MultiVec::zeros(n, m);
    for v in x.as_mut_slice() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
    x
}

/// Persistent-engine experiment: measured per-node phase timings and
/// communication fractions from the *real* overlapped execution, side
/// by side with the `sim.rs` model's predictions for the same matrix
/// and partition; then the engine against the serial kernel on the
/// same multiply; then a functional distributed block-CG solve through
/// the engine.
///
/// The model prices the paper's cluster (WSM nodes, InfiniBand), while
/// the measurement runs node-threads on one machine with channel
/// "wires" — absolute times differ by construction; the comparison is
/// structural: where time goes (comm wait vs local vs remote) and how
/// the overlap `max(t_comm, t_local) + t_remote` plays out.
pub fn engine(opts: &Options) {
    let nodes = 8usize;
    let m = 8usize;
    section(&format!(
        "Persistent engine: measured vs modeled GSPMV phases (mat1, p = {nodes}, m = {m})"
    ));
    let model = ClusterGspmvModel::paper_cluster();
    let (a, dm) = distribute_matrix(opts, TABLE1_CUTOFFS[0].1, nodes);
    let n = dm.nb_rows() * 3;
    let engine = DistEngine::new(dm.clone());
    let x = pseudo_x(n, m, opts.seed);

    // Warm up, then average phase timings over the reps.
    let mut y = MultiVec::zeros(n, m);
    engine.multiply_into(&x, &mut y);
    let reps = opts.reps.max(1);
    let mut acc = vec![mrhs_cluster::PhaseTimings::default(); nodes];
    for _ in 0..reps {
        let stats = engine.multiply_into(&x, &mut y);
        for (a, t) in acc.iter_mut().zip(&stats.timings) {
            a.comm_wait += t.comm_wait / reps as f64;
            a.local += t.local / reps as f64;
            a.remote += t.remote / reps as f64;
        }
    }

    println!(
        "{:>4} | {:>10} {:>10} {:>10} {:>6} | {:>10} {:>10} {:>10} {:>6}",
        "node",
        "wait[us]",
        "local[us]",
        "rem[us]",
        "frac",
        "comm[us]",
        "local[us]",
        "rem[us]",
        "frac"
    );
    println!(
        "{:>4} | {:>40} | {:>40}",
        "", "measured (this machine)", "modeled (paper cluster)"
    );
    for (p, t) in acc.iter().enumerate() {
        let nt = model.node_time(&NodeShape::of(&dm, p), m);
        println!(
            "{p:>4} | {:>10.1} {:>10.1} {:>10.1} {:>5.0}% | {:>10.1} {:>10.1} {:>10.1} {:>5.0}%",
            t.comm_wait * 1e6,
            t.local * 1e6,
            t.remote * 1e6,
            100.0 * t.comm_fraction(),
            nt.comm * 1e6,
            nt.compute_local * 1e6,
            nt.compute_remote * 1e6,
            100.0 * nt.comm_fraction(),
        );
    }

    // Measured vs modeled comm fraction at the slowest node, across m.
    section("Comm fraction at the slowest node: measured engine vs model (Table III structure)");
    println!("{:>4} {:>10} {:>10}", "m", "measured", "modeled");
    for mm in [1usize, 8, 32] {
        let xm = pseudo_x(n, mm, opts.seed + mm as u64);
        let mut ym = MultiVec::zeros(n, mm);
        engine.multiply_into(&xm, &mut ym); // warm
        let mut worst = mrhs_cluster::PhaseTimings::default();
        for _ in 0..reps {
            let s = engine.multiply_into(&xm, &mut ym).slowest();
            worst.comm_wait += s.comm_wait / reps as f64;
            worst.local += s.local / reps as f64;
            worst.remote += s.remote / reps as f64;
        }
        println!(
            "{mm:>4} {:>9.0}% {:>9.0}%",
            100.0 * worst.comm_fraction(),
            100.0 * model.comm_fraction(&dm, mm, 1.0)
        );
    }

    // The engine against the single-address-space kernel on the same
    // multiply: what the halo exchange costs, and that it is exact.
    section("Distributed engine vs serial GSPMV on the permuted matrix");
    let permuted = permute_symmetric(&a, dm.permutation());
    let iters = (4 * reps).max(8);
    let t0 = Instant::now();
    for _ in 0..iters {
        engine.multiply_into(&x, &mut y);
    }
    let t_engine = t0.elapsed().as_secs_f64() / iters as f64;
    let mut want = MultiVec::zeros(n, m);
    let t1 = Instant::now();
    for _ in 0..iters {
        gspmv_serial(&permuted, &x, &mut want);
    }
    let t_serial = t1.elapsed().as_secs_f64() / iters as f64;
    println!(
        "engine  {:>10} per multiply ({:.0}/s)",
        f(t_engine * 1e3),
        1.0 / t_engine
    );
    println!(
        "serial  {:>10} per multiply ({:.0}/s)",
        f(t_serial * 1e3),
        1.0 / t_serial
    );
    println!(
        "ratio   {:>9.2}x, max |Y_engine - Y_serial| / |Y|max = {:.2e}",
        t_engine / t_serial,
        max_abs_diff(&y, &want) / want.max_abs()
    );

    // Functional distributed solve: block CG through the engine, checked
    // against the shared-memory solve on the same (permuted) matrix.
    section("Distributed block CG through the engine (vs shared-memory block CG)");
    use mrhs_solvers::block_cg::block_cg;
    use mrhs_solvers::cg::SolveConfig;
    let cfg = SolveConfig { tol: 1e-10, max_iter: 600 };
    let b = pseudo_x(n, m, opts.seed ^ 0xb10c);
    let mut x_shared = MultiVec::zeros(n, m);
    let shared = block_cg(&permuted, &b, &mut x_shared, &cfg);
    let mut x_dist = MultiVec::zeros(n, m);
    let dist = block_cg(&engine, &b, &mut x_dist, &cfg);
    let max_diff = max_abs_diff(&x_shared, &x_dist);
    let agg = engine.last_stats();
    println!(
        "shared:      {} iterations, converged = {}",
        shared.iterations, shared.converged
    );
    println!(
        "distributed: {} iterations, converged = {}, max |x_d - x_s| = {:.2e}",
        dist.iterations, dist.converged, max_diff
    );
    println!(
        "last GSPMV halo traffic: {} bytes over {} messages",
        agg.comm.total_bytes(),
        agg.comm.recv_messages.iter().sum::<usize>()
    );
}

/// Functional check printed alongside the model: the distributed
/// multiply with real halo exchange must agree with the serial kernel.
pub fn verify_exchange(opts: &Options) {
    section("Distributed GSPMV functional check (real halo exchange)");
    let (a, dm) = distribute_matrix(opts, TABLE1_CUTOFFS[0].1, 8);
    let permuted = permute_symmetric(&a, dm.permutation());
    let n = dm.nb_rows() * 3;
    let m = 8;
    let x = pseudo_x(n, m, 1);
    let mut y = MultiVec::zeros(n, m);
    let stats = DistEngine::new(dm).multiply_into(&x, &mut y);
    let mut want = MultiVec::zeros(n, m);
    gspmv_serial(&permuted, &x, &mut want);
    println!(
        "8 nodes, m = {m}: {} halo bytes over {} messages, |Y|max = {:.3}, \
         max |Y - Y_serial| / |Y|max = {:.2e}",
        stats.comm.total_bytes(),
        stats.comm.recv_messages.iter().sum::<usize>(),
        y.max_abs(),
        max_abs_diff(&y, &want) / want.max_abs()
    );
}
