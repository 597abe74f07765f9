//! `block_solve` — wide kernels and dense `n·m²` work with no assembly
//! and no queue.
//!
//! One 4,000-particle resistance operator at the default
//! `ResistanceConfig` (`s_cut = 3`, n = 12,000, ≈3.4 MiB of computed
//! matrix stream: larger than one core's L2, far smaller than L3) and
//! a general operator made from it by a bench-owned skew perturbation.
//! A round is
//!
//! ```text
//!   ref · block_cg w8 · ref · block_cg w16 · ref · block_bicgstab w8 · ref · 2× cg · ref
//! ```
//!
//! with x₀ = 0 and tol 1e-6, over four seeded right-hand-side sets
//! taken in rotation. Deflation, a shared Krylov core or a kernel
//! change shows here first.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use mrhs_cluster::{DistEngine, DistributedMatrix};
use mrhs_core::ResistanceSystem;
use mrhs_perfmodel::{measure::host_profile, GspmvModel};
use mrhs_solvers::{
    block_bicgstab, block_cg, cg, ChebyshevSqrt, LinearOperator, SolveConfig,
};
use mrhs_sparse::{
    partition::contiguous_partition, BcrsMatrix, MultiVec, SymmetricBcrs,
};
use mrhs_stokes::SystemBuilder;

use crate::harness::{mean, registry_on_over_off, Ctx, Outcome, Timings};
use crate::pace::Series;
use crate::util::{Rng, PACKING_SEED};
use crate::verify::{
    general_operator, normal_multivec, CheckMatrix, TimedOperator,
};

pub const PARTICLES: usize = 4000;
const TOL: f64 = 1e-6;
const RHS_SETS: usize = 4;
/// Columns solved per round: 8 + 16 + 8 + 2.
const COLUMNS_PER_ROUND: u64 = 34;

/// The four timed operations of a round, as span names.
const OPS: [&str; 4] = [
    "solvers.block_cg.w8",
    "solvers.block_cg.w16",
    "solvers.block_bicgstab.w8",
    "solvers.cg.x2",
];

struct RhsSet {
    b8: MultiVec,
    b16: MultiVec,
    bg8: MultiVec,
    b1: [Vec<f64>; 2],
}

pub struct State {
    spd: BcrsMatrix,
    general: BcrsMatrix,
    spd_check: CheckMatrix,
    general_check: CheckMatrix,
    sets: Vec<RhsSet>,
    cfg: SolveConfig,
}

/// Solutions of one round, checked after the round's last reference
/// window so that checking never sits inside a bracket.
struct Solutions {
    x8: MultiVec,
    x16: MultiVec,
    xg8: MultiVec,
    x1: [Vec<f64>; 2],
}

fn build(seed: u64) -> State {
    // The registry is off here, as in a plain library user's process.
    mrhs_telemetry::set_enabled(false);
    let system = SystemBuilder::new(PARTICLES).seed(PACKING_SEED).build();
    let spd = system.assemble();
    let general = general_operator(system.particles(), &mut Rng::stream(seed, 2));
    let n = spd.n_rows();
    let mut rng = Rng::stream(seed, 3);
    let sets = (0..RHS_SETS)
        .map(|_| RhsSet {
            b8: normal_multivec(n, 8, &mut rng),
            b16: normal_multivec(n, 16, &mut rng),
            bg8: normal_multivec(n, 8, &mut rng),
            b1: [rng.normals(n), rng.normals(n)],
        })
        .collect();
    let st = State {
        spd_check: CheckMatrix::new(&spd),
        general_check: CheckMatrix::new(&general),
        spd,
        general,
        sets,
        cfg: SolveConfig { tol: TOL, max_iter: 1000 },
    };
    // Warm-up: a few iterations of every solver, so first-touch page
    // faults and lazy pools belong to set-up and not to round 0.
    let warm = SolveConfig { tol: TOL, max_iter: 3 };
    solve_round(
        [&st.spd, &st.spd, &st.general, &st.spd],
        &st.sets[0],
        &warm,
        |_, op| op(),
    );
    st
}

/// Runs the four operations of a round, each through `timed(index, op)`;
/// `ops[k]` is the operator of operation `k` (traced rounds pass one
/// logging wrapper per operation). Returns solutions and iterations.
fn solve_round(
    ops: [&dyn LinearOperator; 4],
    s: &RhsSet,
    cfg: &SolveConfig,
    mut timed: impl FnMut(usize, &mut dyn FnMut()),
) -> (Solutions, [f64; 4]) {
    let n = ops[0].dim();
    let mut sol = Solutions {
        x8: MultiVec::zeros(n, 8),
        x16: MultiVec::zeros(n, 16),
        xg8: MultiVec::zeros(n, 8),
        x1: [vec![0.0; n], vec![0.0; n]],
    };
    let mut it = [0.0; 4];
    timed(0, &mut || {
        it[0] = block_cg(ops[0], &s.b8, &mut sol.x8, cfg).iterations as f64
    });
    timed(1, &mut || {
        it[1] = block_cg(ops[1], &s.b16, &mut sol.x16, cfg).iterations as f64
    });
    timed(2, &mut || {
        it[2] = block_bicgstab(ops[2], &s.bg8, &mut sol.xg8, cfg).iterations as f64
    });
    timed(3, &mut || {
        let [xa, xb] = &mut sol.x1;
        it[3] = 0.5
            * (cg(ops[3], &s.b1[0], xa, cfg).iterations
                + cg(ops[3], &s.b1[1], xb, cfg).iterations) as f64;
    });
    (sol, it)
}

/// Columns of a round whose true residual exceeds `10·tol·‖b‖`.
fn failed_columns(st: &State, s: &RhsSet, sol: &Solutions) -> u64 {
    let mut failed = st.spd_check.failed_columns(&sol.x8, &s.b8, TOL)
        + st.spd_check.failed_columns(&sol.x16, &s.b16, TOL)
        + st.general_check.failed_columns(&sol.xg8, &s.bg8, TOL);
    for (x, b) in sol.x1.iter().zip(&s.b1) {
        failed += usize::from(!st.spd_check.column_ok(x, b, TOL));
    }
    failed as u64
}

/// Applied columns and applications per operation, from the wrappers.
#[derive(Default, Clone, Copy)]
struct ApplyCount {
    columns: f64,
    applies: f64,
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let seed = ctx.seed;
    let (st, setup) = ctx.setup(|| build(seed));
    let mut series: [Series; 4] = Default::default();
    let mut iters: [Vec<f64>; 4] = Default::default();
    let mut applied = [ApplyCount::default(); 4];
    let (mut attempted, mut failed) = (0u64, 0u64);

    let rounds = ctx.rounds(|ctx, i| {
        let s = &st.sets[i % RHS_SETS];
        let plain: [&dyn LinearOperator; 4] =
            [&st.spd, &st.spd, &st.general, &st.spd];
        let wrapped = plain.map(TimedOperator::new);
        let ops: [&dyn LinearOperator; 4] = if ctx.tracer.on {
            [&wrapped[0], &wrapped[1], &wrapped[2], &wrapped[3]]
        } else {
            plain
        };
        let mut last = ctx.pacer.window();
        let mut at = [(Instant::now(), Instant::now()); 4];
        let (sol, it) = solve_round(ops, s, &st.cfg, |k, op| {
            let start = Instant::now();
            let ((), raw, bracket, after) = ctx.pacer.bracket(last, op);
            at[k] = (start, start + std::time::Duration::from_secs_f64(raw));
            last = after;
            series[k].push(raw, bracket);
        });
        if ctx.tracer.on {
            for k in 0..4 {
                let id = ctx.tracer.add(OPS[k], at[k].0, at[k].1, None);
                let kind =
                    if k == 2 { "sparse.apply_general" } else { "sparse.apply" };
                for a in wrapped[k].drain() {
                    applied[k].columns += a.width as f64;
                    applied[k].applies += 1.0;
                    ctx.tracer.add(
                        &format!("{kind}.w{}", a.width),
                        a.start,
                        a.end,
                        id,
                    );
                }
            }
            dense_probes(ctx, s);
        }
        for k in 0..4 {
            iters[k].push(it[k]);
        }
        attempted += COLUMNS_PER_ROUND;
        failed += failed_columns(&st, s, &sol);
    });

    let [w8, w16, bicg8, cg2] = series;
    let mut out = Outcome {
        timings: Timings {
            setup,
            rhs_count: 32.0,
            rhs_time: vec![w8.clone(), w16.clone(), bicg8.clone()],
            p50: w8.clone(),
            p50_div: 1.0,
            slow: w16.clone(),
            alt: cg2.clone(),
            alt_div: 2.0,
            alt_wall_s: 0.0,
        },
        attempted,
        failed,
        rounds,
        layer: BTreeMap::new(),
        notes: vec![format!(
            "operator: n={} blocks/row={:.1}, computed stream {:.2} MiB (cache-resident: bytes and GB/s are computed from array sizes, not measured bandwidth)",
            st.spd.n_rows(),
            st.spd.blocks_per_row(),
            stream_bytes(&st.spd_check, 0) / (1u64 << 20) as f64
        )],
    };
    if ctx.trace {
        let gspmv_ms = layer_metrics(
            ctx,
            &st,
            &iters,
            &applied,
            [&w8, &w16, &bicg8, &cg2],
            &mut out,
        );
        one_off_probes(ctx, &st, gspmv_ms, &mut out);
    }
    out
}

/// Labelled probe segments, once per traced round after the round's
/// brackets are closed: the dense `n·m²` sweeps of a block iteration,
/// called on their own through `MultiVec`'s public functions.
fn dense_probes(ctx: &mut Ctx, s: &RhsSet) {
    for (w, b) in [(8usize, &s.b8), (16, &s.b16)] {
        let mut y = MultiVec::zeros(b.n(), w);
        let c: Vec<f64> = (0..w * w).map(|k| 1e-3 * (k % 7) as f64).collect();
        ctx.tracer.scope(&format!("probe.sparse.gram.w{w}"), || {
            black_box(b.gram(black_box(b)));
        });
        ctx.tracer.scope(&format!("probe.sparse.update.w{w}"), || {
            y.add_mul_dense(black_box(b), black_box(&c));
        });
        black_box(&y);
    }
}

/// Bytes one width-`m` product moves if nothing stays in cache: matrix
/// stream plus `m` input and `m` output vectors. Computed from array
/// sizes, not measured.
fn stream_bytes(c: &CheckMatrix, m: usize) -> f64 {
    (c.blocks() * (72 + 4) + (c.dim() / 3 + 1) * 8 + 2 * m * c.dim() * 8) as f64
}

/// Per-layer metrics derived from the spans of the traced rounds.
/// Returns the mean product time at widths 1, 8, 16 in milliseconds.
fn layer_metrics(
    ctx: &Ctx,
    st: &State,
    iters: &[Vec<f64>; 4],
    applied: &[ApplyCount; 4],
    series: [&Series; 4],
    out: &mut Outcome,
) -> [f64; 3] {
    let totals = ctx.tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let ms_each = |name: &str| {
        let t = get(name);
        t.total / (t.count as f64).max(1.0) * 1e3
    };
    // Share of a solve spent inside the operator: 1 − self ÷ total.
    let op_share = |name: &str| {
        let t = get(name);
        if t.total > 0.0 {
            1.0 - t.self_time / t.total
        } else {
            0.0
        }
    };
    let l = &mut out.layer;

    let gspmv_ms = [1, 8, 16].map(|w| ms_each(&format!("sparse.apply.w{w}")));
    let nnzb = st.spd_check.blocks() as f64;
    let gflops = |w: f64, ms: f64| 18.0 * nnzb * w / (ms * 1e-3) / 1e9;
    let gbps =
        |w: usize, ms: f64| stream_bytes(&st.spd_check, w) / (ms * 1e-3) / 1e9;
    l.insert("sparse.gspmv_ms.w1", gspmv_ms[0]);
    l.insert("sparse.gspmv_ms.w8", gspmv_ms[1]);
    l.insert("sparse.gspmv_ms.w16", gspmv_ms[2]);
    l.insert("sparse.r_m.w8", gspmv_ms[1] / gspmv_ms[0]);
    l.insert("sparse.r_m.w16", gspmv_ms[2] / gspmv_ms[0]);
    l.insert("sparse.gspmv_gflops.w8", gflops(8.0, gspmv_ms[1]));
    l.insert("sparse.gspmv_gflops.w16", gflops(16.0, gspmv_ms[2]));
    l.insert("sparse.gspmv_gbps.w1", gbps(1, gspmv_ms[0]));
    l.insert("sparse.gspmv_gbps.w8", gbps(8, gspmv_ms[1]));
    l.insert("sparse.gram_ms.w8", ms_each("probe.sparse.gram.w8"));
    l.insert("sparse.gram_ms.w16", ms_each("probe.sparse.gram.w16"));
    l.insert("sparse.update_ms.w8", ms_each("probe.sparse.update.w8"));
    l.insert("sparse.update_ms.w16", ms_each("probe.sparse.update.w16"));

    let [w8, w16, _, _] = series;
    let width = |k: usize| applied[k].columns / applied[k].applies.max(1.0);
    l.insert("solvers.block_cg.iters.w8", mean(&iters[0]));
    l.insert("solvers.block_cg.iters.w16", mean(&iters[1]));
    l.insert("solvers.block_cg.op_share.w8", op_share(OPS[0]));
    l.insert("solvers.block_cg.op_share.w16", op_share(OPS[1]));
    l.insert(
        "solvers.block_cg.ms_per_iter.w8",
        w8.corrected() / mean(&iters[0]) * 1e3,
    );
    l.insert(
        "solvers.block_cg.ms_per_iter.w16",
        w16.corrected() / mean(&iters[1]) * 1e3,
    );
    // Below the nominal width once a solver deflates converged columns.
    l.insert("solvers.block_cg.mean_apply_width.w8", width(0));
    l.insert("solvers.block_cg.mean_apply_width.w16", width(1));
    l.insert("solvers.block_bicgstab.iters.w8", mean(&iters[2]));
    l.insert("solvers.block_bicgstab.op_share.w8", op_share(OPS[2]));
    l.insert("solvers.cg.iters", mean(&iters[3]));
    l.insert("solvers.cg.op_share", op_share(OPS[3]));

    // Tracing overhead: the round's four operations in traced (odd)
    // rounds against untraced (even) rounds, both pace corrected.
    let cost = |residue: usize| -> f64 {
        series.iter().map(|s| s.every(2, residue).corrected()).sum()
    };
    l.insert("telemetry.trace_overhead", cost(1) / cost(0) - 1.0);
    gspmv_ms
}

/// Probes that need their own set-up (symmetric storage, Chebyshev,
/// the registry switch, the two-node engine, the host profile). Run
/// once, after the rounds; none of them feeds an end-to-end metric.
fn one_off_probes(
    ctx: &mut Ctx,
    st: &State,
    gspmv_ms: [f64; 3],
    out: &mut Outcome,
) {
    let n = st.spd.n_rows();
    let s = &st.sets[0];
    /// Mean seconds of `f` over five calls after one warm-up call.
    fn time_reps(mut f: impl FnMut()) -> f64 {
        f();
        let t = Instant::now();
        for _ in 0..5 {
            f();
        }
        t.elapsed().as_secs_f64() / 5.0
    }

    let sym =
        SymmetricBcrs::from_full(&st.spd, 1e-10).expect("resistance is symmetric");
    let mut y8 = MultiVec::zeros(n, 8);
    let t_sym = ctx.tracer.scope("probe.sparse.sym_gspmv.w8", || {
        time_reps(|| sym.apply_multi(&s.b8, &mut y8))
    });
    out.layer.insert("sparse.sym_gspmv_ms.w8", t_sym * 1e3);

    // Chebyshev √R at the paper's order 30, on a bench-computed
    // interval (the cost does not depend on the interval).
    let hi = st.spd_check.norm_inf();
    let cheb = ChebyshevSqrt::new(hi * 1e-3, hi, 30);
    let mut y1 = vec![0.0; n];
    let t1 = ctx.tracer.scope("probe.solvers.chebyshev.w1", || {
        time_reps(|| cheb.apply(&st.spd, &s.b1[0], &mut y1))
    });
    let t8 = ctx.tracer.scope("probe.solvers.chebyshev.w8", || {
        time_reps(|| cheb.apply_multi(&st.spd, &s.b8, &mut y8))
    });
    out.layer.insert("solvers.chebyshev_ms.w1", t1 * 1e3);
    out.layer.insert("solvers.chebyshev_ms.w8", t8 * 1e3);

    // Telemetry registry on ÷ off around a width-8 block CG.
    let ratio = registry_on_over_off(4, false, || {
        let mut x = MultiVec::zeros(n, 8);
        let t = Instant::now();
        black_box(block_cg(&st.spd, &s.b8, &mut x, &st.cfg));
        t.elapsed().as_secs_f64()
    });
    out.layer.insert("telemetry.on_overhead.w8", ratio);

    // Two-node engine on the same operator. It needs two busy threads,
    // so on a 2-vCPU box this is a record, not a gate.
    let part = contiguous_partition(&st.spd, 2);
    let engine = DistEngine::new(DistributedMatrix::new(&st.spd, &part));
    let mut stats = engine.multiply_into(&s.b8, &mut y8);
    let t_dist = ctx.tracer.scope("probe.cluster.multiply.w8", || {
        time_reps(|| stats = engine.multiply_into(&s.b8, &mut y8))
    });
    out.layer.insert("cluster.multiply_ratio.w8", t_dist * 1e3 / gspmv_ms[1]);
    out.layer.insert("cluster.comm_wait_frac", stats.slowest().comm_fraction());
    out.layer.insert(
        "cluster.msgs_per_multiply",
        stats.comm.recv_messages.iter().sum::<usize>() as f64,
    );
    out.layer
        .insert("cluster.halo_bytes_per_multiply", stats.comm.total_bytes() as f64);
    let mut x = MultiVec::zeros(n, 8);
    let res = ctx.tracer.scope("probe.cluster.block_cg.w8", || {
        block_cg(&engine, &s.b8, &mut x, &st.cfg)
    });
    out.layer.insert("cluster.block_cg_iters.w8", res.iterations as f64);
    // A contiguous partition keeps the row order, so the same verifier
    // applies to the distributed solve.
    out.attempted += 8;
    out.failed += st.spd_check.failed_columns(&x, &s.b8, TOL) as u64;
    drop(engine);

    // Eq. 8 against the measured products, on the host's own profile.
    let profile = host_profile();
    let model = GspmvModel::new(&st.spd.stats(), profile);
    out.layer
        .insert("perfmodel.eq8_resid.w8", gspmv_ms[1] * 1e-3 / model.time(8) - 1.0);
    out.layer.insert(
        "perfmodel.eq8_resid.w16",
        gspmv_ms[2] * 1e-3 / model.time(16) - 1.0,
    );
    out.layer.insert("perfmodel.host_gbps", profile.bandwidth / 1e9);
    out.layer.insert("perfmodel.host_gflops", profile.flops / 1e9);
}
