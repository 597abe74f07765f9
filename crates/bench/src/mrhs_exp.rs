//! End-to-end MRHS experiments: Tables VI, VII, VIII, Fig. 7, Fig. 8.
//!
//! Tables VI–VIII and Fig. 7 choose `m` through one picker, [`pick`]:
//! Eq. 9 over the candidates, with the chunk head priced as the driver
//! runs it.

use crate::common::{build, f, section, Options, TABLE1_CUTOFFS};
use mrhs_core::{
    run_mrhs_chunk, run_original_step, ChunkReport, MrhsConfig, NoiseSource,
    ResistanceSystem,
};
use mrhs_perfmodel::measure::{host_profile, time_gspmv};
use mrhs_perfmodel::mrhs_model::{
    detect_switch_point, optimal_m, MrhsModel, SolveCounts,
};
use mrhs_perfmodel::{GspmvModel, MachineProfile};
use mrhs_solvers::{block_cg, SolveConfig};
use mrhs_sparse::{MatrixStats, MultiVec};
use mrhs_telemetry::Snapshot;

/// The drivers' step phases: the six `mrhs/*` spans.
const PHASES: [&str; 6] = [
    "mrhs/assemble",
    "mrhs/cheb_vectors",
    "mrhs/calc_guesses",
    "mrhs/cheb_single",
    "mrhs/first_solve",
    "mrhs/second_solve",
];

/// The five non-assemble phases: the solver work Eq. 9 prices (it has
/// no assembly term).
const SOLVER_PHASES: &[&str] = PHASES.split_at(1).1;

/// The widths the picker weighs: `WIDTH_GRID` ∩ [2, 16]. Width 1 is
/// Alg. 1's own price, and the paper's runs stop at m = 16.
const CANDIDATES: [usize; 5] = [2, 4, 8, 12, 16];

/// The widths of the measured GSPMV curve (Fig. 7, Table VIII's `m_s`).
const CURVE: [usize; 8] = [1, 2, 4, 8, 12, 16, 24, 32];

/// Width of the probe chunk, the widest candidate: its steps supply
/// `N₁` for every narrower one.
const PROBE_M: usize = CANDIDATES[CANDIDATES.len() - 1];

/// `f`'s result and what the registry recorded while it ran; the flag
/// goes back after, so no cost-curve probe is timed instrumented.
fn recorded<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let was_enabled = mrhs_telemetry::enabled();
    mrhs_telemetry::set_enabled(true);
    let before = mrhs_telemetry::snapshot();
    let out = f();
    let recorded = mrhs_telemetry::snapshot().diff(&before);
    mrhs_telemetry::set_enabled(was_enabled);
    (out, recorded)
}

/// One [`run_both`]: what each algorithm's loop recorded over `steps`
/// time steps, once per repetition, and what its solves counted.
struct Pair {
    /// Per repetition, what Alg. 2's and Alg. 1's loops recorded.
    runs: Vec<[Snapshot; 2]>,
    steps: usize,
    /// `(N, N1, N2)`, and Alg. 1's Chebyshev order off its
    /// `solver/cheb/{terms, applies}` counters (every repetition runs
    /// the same steps, so the first one's).
    counts: SolveCounts,
    /// The first repetition's Alg. 2 chunks.
    reports: Vec<ChunkReport>,
}

/// Index of Alg. 2's and Alg. 1's record in a [`Pair`] run.
const ALG2: usize = 0;
const ALG1: usize = 1;

impl Pair {
    /// Seconds per step algorithm `alg` spent in the given spans, one
    /// value per repetition, ascending.
    fn per_step(&self, alg: usize, spans: &[&str]) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .runs
            .iter()
            .map(|run| {
                let secs: f64 = spans.iter().map(|s| run[alg].span_secs(s)).sum();
                secs / self.steps.max(1) as f64
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Alg. 1's seconds per step over Alg. 2's in the given spans, one
    /// value per repetition, ascending.
    fn speedups(&self, spans: &[&str]) -> Vec<f64> {
        let step = |run: &[Snapshot; 2], alg: usize| -> f64 {
            spans.iter().map(|s| run[alg].span_secs(s)).sum()
        };
        let mut v: Vec<f64> =
            self.runs.iter().map(|run| step(run, ALG1) / step(run, ALG2)).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// The median of ascending values.
fn median(v: &[f64]) -> f64 {
    let k = v.len() / 2;
    if v.len() % 2 == 1 {
        v[k]
    } else {
        (v[k - 1] + v[k]) / 2.0
    }
}

/// `median [min–max]` of ascending values, through `fmt`.
fn spread(v: &[f64], fmt: impl Fn(f64) -> String) -> String {
    match v {
        [] => "-".into(),
        [one] => fmt(*one),
        _ => format!("{} [{}–{}]", fmt(median(v)), fmt(v[0]), fmt(v[v.len() - 1])),
    }
}

/// Adds `part`'s counters and span totals into `total`.
fn accumulate(total: &mut Snapshot, part: &Snapshot) {
    for (name, v) in &part.counters {
        *total.counters.entry(name.clone()).or_default() += v;
    }
    for (name, v) in &part.spans {
        let s = total.spans.entry(name.clone()).or_default();
        s.count += v.count;
        s.total_ns += v.total_ns;
    }
}

/// Runs `m·chunks` steps of the MRHS algorithm (in chunks of `m`) and
/// the same number of baseline steps on an identical system, each
/// algorithm recorded on its own, `reps` times from the same start.
/// The two advance chunk by chunk and take turns going first, so a
/// host's slow stretch or a first-run page-fault bill falls on both.
fn run_both(
    n: usize,
    phi: f64,
    seed: u64,
    m: usize,
    chunks: usize,
    reps: usize,
) -> Pair {
    let cfg = MrhsConfig { m, ..Default::default() };
    let steps = m * chunks;
    let mut runs = Vec::with_capacity(reps.max(1));
    let mut reports = Vec::with_capacity(chunks);
    let mut n_sum = 0;
    for rep in 0..reps.max(1) {
        let (mut sys2, mut noise2) = build(n, phi, seed);
        let (mut sys1, mut noise1) = build(n, phi, seed);
        let mut cache = None;
        let (mut mrhs, mut orig) = (Snapshot::default(), Snapshot::default());
        for chunk in 0..chunks {
            let alg2_first = (rep + chunk) % 2 == 0;
            for alg2 in [alg2_first, !alg2_first] {
                if alg2 {
                    let (report, rec) =
                        recorded(|| run_mrhs_chunk(&mut sys2, &mut noise2, &cfg));
                    if rep == 0 {
                        reports.push(report);
                    }
                    accumulate(&mut mrhs, &rec);
                } else {
                    let (sum, rec) = recorded(|| {
                        (0..m)
                            .map(|_| {
                                run_original_step(
                                    &mut sys1,
                                    &mut noise1,
                                    &cfg,
                                    &mut cache,
                                )
                            })
                            .map(|s| s.first_solve_iterations)
                            .sum::<usize>()
                    });
                    if rep == 0 {
                        n_sum += sum;
                    }
                    accumulate(&mut orig, &rec);
                }
            }
        }
        runs.push([mrhs, orig]);
    }

    let (mut n1_sum, mut n2_sum) = (0, 0);
    for (k, s) in reports.iter().flat_map(|r| r.steps.iter().enumerate()) {
        n1_sum += if k > 0 { s.first_solve_iterations } else { 0 };
        n2_sum += s.second_solve_iterations;
    }
    let counts = SolveCounts {
        cold: mean(n_sum, steps),
        warm_first: mean(n1_sum, steps - chunks),
        warm_second: mean(n2_sum, steps),
        cheb_order: cheb_order(&runs[0][ALG1]),
    };
    Pair { runs, steps, counts, reports }
}

/// The mean Chebyshev order of the applies `recorded` holds.
fn cheb_order(recorded: &Snapshot) -> usize {
    let count = |name| recorded.counter(name) as usize;
    mean(count("solver/cheb/terms"), count("solver/cheb/applies"))
}

/// `sum / count`, rounded to an iteration count.
fn mean(sum: usize, count: usize) -> usize {
    (sum as f64 / count.max(1) as f64).round() as usize
}

/// What [`pick`] measured on one system, and the `m` it chose.
struct Pick {
    /// The candidate with the least Eq. 9 step time.
    m: usize,
    /// Eq. 9's step seconds per candidate, `(m, T_mrhs(m))`.
    steps: Vec<(usize, f64)>,
    /// Alg. 1's step seconds at the same width-1 price.
    alg1: f64,
    /// The probe chunk pair's counts.
    counts: SolveCounts,
    /// The probe chunk's head: its block iterations, then the width-1
    /// iterations refining its own column (step 0's first solve).
    head: (usize, usize),
    /// The measured GSPMV curve `(m, T(m))` over [`CURVE`].
    costs: Vec<(usize, f64)>,
    /// The system's matrix, for the Eq. 8 model.
    stats: MatrixStats,
}

impl Pick {
    /// Eq. 9's step seconds at `m`, when `m` is a candidate.
    fn step(&self, m: usize) -> Option<f64> {
        self.steps.iter().find(|s| s.0 == m).map(|s| s.1)
    }

    /// Whether the picked `m` beats Alg. 1 at all.
    fn beats_alg1(&self) -> bool {
        self.step(self.m).is_some_and(|t| t < self.alg1)
    }

    /// The pick as a table cell: `m`, or `none (m)` when no candidate
    /// beats Alg. 1 and `m` is only the least bad.
    fn cell(&self) -> String {
        match self.beats_alg1() {
            true => self.m.to_string(),
            false => format!("none ({})", self.m),
        }
    }
}

/// Picks `m` for one system by Eq. 9 (§V-B3) over [`CANDIDATES`], from
/// its own matrix `R₀`: the GSPMV curve prices the block Chebyshev; a
/// probe chunk pair gives `N`, `N₂`, each algorithm's own `C`, `N₁`
/// over a width-`m` chunk's steps, and the head's block and refine
/// iterations; `block_cg` solves on `R₀` price a width-1 iteration (CG
/// iterations and Chebyshev terms alike, under the preconditioner the
/// driver's `cg` takes) and, per candidate, the head's setup and iterations at
/// `guess_tol`, under whatever preconditioner the solver chooses.
fn pick(n: usize, phi: f64, opts: &Options) -> Pick {
    let (sys, mut noise) = build(n, phi, opts.seed);
    let r0 = sys.assemble();
    let costs: Vec<(usize, f64)> =
        CURVE.iter().map(|&m| (m, time_gspmv(&r0, m, opts.reps))).collect();
    let Pair { runs, counts, reports, .. } =
        run_both(n, phi, opts.seed, PROBE_M, 1, 1);
    let probe = &reports[0];
    let first = |k: usize| probe.steps[k].first_solve_iterations;
    let alg2 = SolveCounts { cheb_order: cheb_order(&runs[0][ALG2]), ..counts };
    let cfg = MrhsConfig::default();
    // `(setup, seconds per iteration)` of a width-`m` solve at `tol` on
    // random columns, off its `solver/block_cg/{init, iter}` spans: the
    // least of `reps` solves, since a shared host's steal time only adds.
    let mut price = |m: usize, tol: f64| {
        let solve = SolveConfig { tol, ..cfg.solve };
        let mut best = (f64::INFINITY, f64::INFINITY);
        for _ in 0..opts.reps.max(1) {
            let mut b = MultiVec::zeros(r0.n_rows(), m);
            noise.fill_standard_normal(b.as_mut_slice());
            let mut x = MultiVec::zeros(r0.n_rows(), m);
            let (done, spans) = recorded(|| block_cg(&r0, &b, &mut x, &solve));
            let secs = |span| spans.span_secs(span);
            let iter = secs("solver/block_cg/iter") / done.iterations.max(1) as f64;
            best = (best.0.min(secs("solver/block_cg/init")), best.1.min(iter));
        }
        best
    };
    let t1 = price(1, cfg.solve.tol).1;
    let mut steps = Vec::new();
    for &(m, t_m) in costs.iter().filter(|c| CANDIDATES.contains(&c.0)) {
        let (setup, iter) = price(m, cfg.guess_tol);
        let head =
            setup + probe.block_iterations as f64 * iter + first(0) as f64 * t1;
        let warm_first = mean((1..m).map(first).sum(), m - 1);
        let counts = SolveCounts { warm_first, ..alg2 };
        steps.push((m, counts.tmrhs_with_head(m, head, t_m, t1)));
    }
    Pick {
        m: optimal_m(steps.iter().copied()).0,
        steps,
        alg1: counts.toriginal(t1),
        counts,
        head: (probe.block_iterations, first(0)),
        costs,
        stats: r0.stats(),
    }
}

/// One Table VI/VII row: `m` from [`pick`], 32 steps of each algorithm
/// at that `m` (24 at m = 12), repeated `--reps` times from the same
/// start, the per-phase breakdown as the median over the repetitions
/// with their min–max beside it, and the picker's predicted
/// solver-phase speedup against the measured one.
fn breakdown_row(n: usize, phi: f64, opts: &Options, label: String) {
    let pick = pick(n, phi, opts);
    let m = pick.m;
    let run = run_both(n, phi, opts.seed, m, 2 * PROBE_M / m, opts.reps);
    let c = run.counts;
    let none = if pick.beats_alg1() { "" } else { "no m beats Alg. 1 by Eq. 9; " };
    println!(
        "\n-- {label} ({none}m={m}, N={}, N1={}, N2={}, Cheb order={}, head {} block \
         iterations; median [min–max] of {} repetitions) --\n{:<14} {label}",
        c.cold,
        c.warm_first,
        c.warm_second,
        c.cheb_order,
        pick.head.0,
        run.runs.len(),
        ""
    );
    let rows: [(&str, &[&str]); 6] = [
        ("Cheb vectors", &["mrhs/cheb_vectors"]),
        ("Calc guesses", &["mrhs/calc_guesses"]),
        ("Cheb single", &["mrhs/cheb_single"]),
        ("1st solve", &["mrhs/first_solve"]),
        ("2nd solve", &["mrhs/second_solve"]),
        ("Average", &PHASES),
    ];
    for (k, (name, spans)) in rows.into_iter().enumerate() {
        let orig =
            if k < 2 { "-".into() } else { spread(&run.per_step(ALG1, spans), f) };
        let mrhs = spread(&run.per_step(ALG2, spans), f);
        println!("{name:<14} mrhs {mrhs:>8}  orig {orig:>8}");
    }
    let (all, measured) = (run.speedups(&PHASES), run.speedups(SOLVER_PHASES));
    let predicted = pick.step(m).map_or(0.0, |t| pick.alg1 / t);
    let ratio = |v: f64| format!("{v:.2}");
    println!("{:<14} {:>23}x   (paper: 1.1x-1.4x)", "Speedup", spread(&all, ratio));
    println!(
        "Solver phases: Eq. 9 {predicted:.2}x, measured {}x, residual {:+.2}",
        spread(&measured, ratio),
        median(&measured) - predicted
    );
}

/// Two Alg. 2 chunks on a small suspension — the only time stepping in
/// `repro quick`. The same workload, with telemetry on, is the test
/// `crates/bench/tests/quick_telemetry.rs`, which checks the pair
/// list's `stokes/pairlist/*` and the solvers' preconditioner counters.
pub fn quick_steps(opts: &Options) {
    section("Alg. 2 smoke: two chunks of 8 steps, 300 particles");
    let (mut sys, mut noise) = build(300, 0.5, opts.seed);
    let cfg = MrhsConfig { m: 8, ..Default::default() };
    for chunk in 0..2 {
        let report = run_mrhs_chunk(&mut sys, &mut noise, &cfg);
        let warm: usize =
            report.steps[1..].iter().map(|s| s.first_solve_iterations).sum();
        println!(
            "chunk {chunk}: {} block iterations, {:.1} warm first-solve iterations",
            report.block_iterations,
            warm as f64 / (cfg.m - 1) as f64
        );
    }
}

/// Table VI: per-step timing breakdown vs problem size at 50%
/// occupancy. Paper sizes 3k/30k/300k; ours scale with `--particles`.
/// `m` is chosen per system by Eq. 9, as the paper prescribes (§V-B3);
/// the paper's own runs used m = 16 at 300k scale.
pub fn table6(opts: &Options) {
    let sizes = [
        (opts.particles / 20).max(100),
        (opts.particles / 5).max(300),
        opts.particles,
    ];
    section(&format!(
        "Table VI: timing breakdown per step vs problem size {sizes:?} (50%)"
    ));
    for &n in &sizes {
        breakdown_row(n, 0.5, opts, format!("{n} particles"));
    }
}

/// Table VII: per-step timing breakdown vs volume occupancy at fixed
/// size. Paper: speedups grow with occupancy (1.06x → 1.23x → 1.41x).
pub fn table7(opts: &Options) {
    let n = opts.particles;
    section(&format!(
        "Table VII: timing breakdown per step vs occupancy ({n} particles)"
    ));
    for phi in [0.1, 0.3, 0.5] {
        breakdown_row(n, phi, opts, format!("occupancy {phi}"));
    }
}

/// Fig. 7: predicted vs measured average step time as a function of
/// m. Per width of {2, 4, 8, 16}, two passes (the second in reverse) of
/// 16 steps of each algorithm measure the solver phases, Alg. 1's eight
/// runs of the same steps pooled; beside them, the picker's Eq. 9 and
/// the paper's Eq. 9, 11 and 12 on the Eq. 8 model.
pub fn fig7(opts: &Options) {
    let n = opts.particles;
    section(&format!(
        "Fig. 7: predicted vs measured average step time vs m ({n} particles, 50%)"
    ));
    let pick = pick(n, 0.5, opts);
    let c = pick.counts;
    println!(
        "probe chunk (m = {PROBE_M}): N = {}, N1 = {}, N2 = {}, Cheb order = {}, \
         head {} block + {} refine iterations",
        c.cold, c.warm_first, c.warm_second, c.cheb_order, pick.head.0, pick.head.1
    );
    // Per width: Alg. 2's and Alg. 1's seconds per step over both passes.
    let mut sweep = [(2, 0.0, 0.0), (4, 0.0, 0.0), (8, 0.0, 0.0), (16, 0.0, 0.0)];
    for i in [0, 1, 2, 3, 3, 2, 1, 0] {
        let run = run_both(n, 0.5, opts.seed, sweep[i].0, PROBE_M / sweep[i].0, 1);
        sweep[i].1 += run.per_step(ALG2, SOLVER_PHASES)[0] / 2.0;
        sweep[i].2 += run.per_step(ALG1, SOLVER_PHASES)[0] / 2.0;
    }
    let measured = |m| sweep.iter().find(|s| s.0 == m).map(|s| s.1);
    let alg1 = sweep.iter().map(|s| s.2).sum::<f64>() / sweep.len() as f64;

    let gspmv = GspmvModel::new(&pick.stats, host_profile());
    let model = MrhsModel { gspmv, counts: c };
    // Normalize the model to the measured single-vector time: on hosts
    // with very large LLCs the matrices are cache-resident and the
    // DRAM-bandwidth model over-predicts absolute times; the *shape*
    // (where the minimum falls) is the prediction of interest, exactly
    // as in the paper's Fig. 7.
    let norm = pick.costs[0].1 / model.gspmv.time(1);
    println!(
        "   m  measured      Eq.9 predicted bw-estimate comp-estimate  speedup     \
         Eq.9   (s/step, solver phases; model scaled by {norm:.2})"
    );
    let cell = |v: Option<f64>| v.map_or("-".to_string(), f);
    for m in CURVE {
        println!(
            "{m:>4} {:>9} {:>9} {:>9} {:>11} {:>13} {:>8} {:>8}",
            cell(measured(m)),
            cell(pick.step(m)),
            f(model.tmrhs(m) * norm),
            f(model.tmrhs_bandwidth(m) * norm),
            f(model.tmrhs_compute(m) * norm),
            cell(measured(m).map(|t| alg1 / t)),
            cell(pick.step(m).map(|t| pick.alg1 / t)),
        );
    }
    let best = sweep.iter().min_by(|a, b| a.1.total_cmp(&b.1));
    println!(
        "original algorithm: measured {} / Eq.9 {} / model {}\n\
         m: picked {} (Eq. 9, head priced as it runs), best measured {}, \
         model m_optimal {}",
        f(alg1),
        f(pick.alg1),
        f(model.toriginal() * norm),
        pick.cell(),
        best.map_or(0, |s| s.0),
        model.m_optimal(32)
    );
}

/// Table VIII: the switch point `m_s` vs the optimal `m` across several
/// systems. Paper: they are within 1–3 of each other everywhere. The
/// last column is the `m` [`pick`] chooses (`none (m)` when no
/// candidate beats Alg. 1).
pub fn table8(opts: &Options) {
    section("Table VIII: m_s vs m_optimal for different systems");
    let host = host_profile();
    let systems: [(usize, f64); 5] = [
        ((opts.particles / 20).max(100), 0.5),
        ((opts.particles / 5).max(300), 0.5),
        (opts.particles, 0.1),
        (opts.particles, 0.3),
        (opts.particles, 0.5),
    ];
    println!(
        "{:>10} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "particles", "phi", "ms(model)", "ms(meas.)", "mo(model)", "mo(picked)"
    );
    let mut curves = Vec::new();
    for (n, phi) in systems {
        let pick = pick(n, phi, opts);
        let gspmv = GspmvModel::new(&pick.stats, host);
        let curve: Vec<(usize, f64)> =
            pick.costs.iter().map(|&(m, t)| (m, t / pick.costs[0].1)).collect();
        let model = MrhsModel { gspmv, counts: pick.counts };
        println!(
            "{n:>10} {phi:>6} {:>12} {:>12} {:>12} {:>12}",
            gspmv.switch_point().map_or("never".to_string(), |v| v.to_string()),
            detect_switch_point(&curve),
            model.m_optimal(32),
            pick.cell()
        );
        curves.push((n, phi, curve));
    }
    // The measured curves `ms(meas.)` reads.
    for (n, phi, curve) in curves {
        let r: Vec<String> =
            curve.iter().map(|(m, r)| format!("{m}:{}", f(*r))).collect();
        println!("{n:>10} {phi:>6}  r(m) {}", r.join(" "));
    }
}

/// Fig. 8: (a) modeled GSPMV time vs thread count; (b) modeled MRHS
/// speedup vs thread count. More threads raise compute throughput much
/// faster than bandwidth, lowering B/F — extra vectors get cheaper, so
/// the MRHS advantage grows (the paper's observation for large
/// manycore nodes). The host of record has few cores, so this
/// experiment replays the paper's WSM parameters.
pub fn fig8(_opts: &Options) {
    section("Fig. 8: thread scaling (paper-machine model)");
    let base = MachineProfile::wsm();
    let density = TABLE1_CUTOFFS[1].2; // mat2-like
    let counts = SolveCounts::fig7();
    println!(
        "{:>8} {:>8} {:>14} {:>14} {:>10}",
        "threads", "B/F", "T_gspmv(16)", "rel. t(16)", "speedup"
    );
    for threads in [1usize, 2, 4, 8] {
        let machine = base.with_threads(threads, 8);
        let gspmv = GspmvModel::from_density(density, machine);
        let model = MrhsModel { gspmv, counts };
        println!(
            "{threads:>8} {:>8.2} {:>14} {:>14} {:>9}x",
            machine.byte_per_flop(),
            f(gspmv.time(16) * 1e3),
            f(gspmv.relative_time(16)),
            f(model.predicted_speedup(32))
        );
    }
    println!("(paper Fig. 8b: speedup grows with threads, ~1.3x at 8 threads)");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrhs_sparse::WIDTH_GRID;

    /// The picker on `repro quick`'s system: the head it prices runs
    /// the probe chunk's block iterations, fewer than a cold solve's,
    /// and it picks one of `WIDTH_GRID` ∩ [2, 16].
    #[test]
    fn picker_prices_the_probe_head_and_picks_a_candidate() {
        let opts = Options { particles: 300, reps: 2, ..Default::default() };
        let pick = pick(300, 0.5, &opts);
        let (mut sys, mut noise) = build(300, 0.5, opts.seed);
        let cfg = MrhsConfig { m: PROBE_M, ..Default::default() };
        let chunk = run_mrhs_chunk(&mut sys, &mut noise, &cfg);
        assert_eq!(pick.head.0, chunk.block_iterations);
        assert!(pick.head.0 < pick.counts.cold, "{:?}", pick.counts);

        let grid = WIDTH_GRID.into_iter().filter(|m| (2..=16).contains(m));
        assert!(CANDIDATES.into_iter().eq(grid));
        assert!(CANDIDATES.contains(&pick.m), "picked {}", pick.m);
    }
}
