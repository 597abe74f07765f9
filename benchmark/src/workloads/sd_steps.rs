//! `sd_steps` — what a simulation user waits for.
//!
//! 2,000 particles at volume fraction 0.5 (n = 6,000, ≈1.7 MiB of
//! matrix), `MrhsConfig { m: 8, record_guess_errors: false, .. }`, two
//! identically seeded systems: one advanced by Alg. 2 chunks, one by
//! Alg. 1 steps. A round is
//!
//! ```text
//!   ref · run_mrhs_chunk (8 steps) · ref · 8× run_original_step · ref
//! ```
//!
//! Assembly and warm width-1 CG dominate; wide kernels run only in the
//! chunk head. Step boundaries and assembly time are taken from outside
//! by a bench-owned `ResistanceSystem` wrapper that timestamps
//! `assemble()` and `advance()` — the drivers' own `StepTimings` are
//! not read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use mrhs_core::{
    run_mrhs_chunk, run_original_step, MrhsConfig, ResistanceSystem, StepStats,
};
use mrhs_perfmodel::{
    measure::host_profile, mrhs_model::SolveCounts, GspmvModel, MrhsModel,
};
use mrhs_solvers::ChebyshevSqrt;
use mrhs_sparse::BcrsMatrix;
use mrhs_stokes::{StokesianSystem, SystemBuilder};

use crate::harness::{mean, Ctx, Outcome, Timings};
use crate::pace::Series;
use crate::spans::SpanId;
use crate::util::{Rng, PACKING_SEED};

pub const PARTICLES: usize = 2000;
const M: usize = 8;

/// What the wrapper saw, in call order.
enum Event {
    Assemble {
        start: Instant,
        end: Instant,
    },
    /// `advance()` returned; `finite` is whether every displacement was.
    Advance {
        at: Instant,
        finite: bool,
    },
}

/// Forwards to the wrapped system and timestamps `assemble()` and
/// `advance()`. Every step of either algorithm advances twice (to the
/// midpoint, then the full step), so every second `advance()` is a step
/// boundary.
pub struct Watched {
    inner: StokesianSystem,
    events: RefCell<Vec<Event>>,
    /// Stored blocks ÷ block rows of the last assembled matrix.
    blocks_per_row: RefCell<f64>,
}

impl Watched {
    pub fn new(inner: StokesianSystem) -> Self {
        Watched {
            inner,
            events: RefCell::new(Vec::new()),
            blocks_per_row: RefCell::new(0.0),
        }
    }

    fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.borrow_mut())
    }
}

impl ResistanceSystem for Watched {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn assemble(&self) -> BcrsMatrix {
        let start = Instant::now();
        let a = self.inner.assemble();
        let end = Instant::now();
        *self.blocks_per_row.borrow_mut() =
            a.nnz_blocks() as f64 / a.nb_rows() as f64;
        self.events.borrow_mut().push(Event::Assemble { start, end });
        a
    }

    fn advance(&mut self, u: &[f64], dt: f64) {
        let finite = u.iter().all(|v| v.is_finite());
        self.inner.advance(u, dt);
        self.events
            .borrow_mut()
            .push(Event::Advance { at: Instant::now(), finite });
    }

    fn dt(&self) -> f64 {
        self.inner.dt()
    }

    fn save_state(&self) -> Vec<f64> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &[f64]) {
        self.inner.restore_state(state)
    }

    fn add_external_forces(&self, out: &mut [f64]) {
        self.inner.add_external_forces(out)
    }
}

pub struct State {
    mrhs: Watched,
    original: Watched,
    mrhs_noise: Rng,
    original_noise: Rng,
    cheb: Option<ChebyshevSqrt>,
    cfg: MrhsConfig,
    /// Seconds of the packing alone (the last set-up's).
    pack_s: f64,
}

/// One step as seen from outside, plus the iterations of its two
/// solves as the driver reported them.
struct Step {
    start: Instant,
    end: Instant,
    assembles: Vec<(Instant, Instant)>,
    finite: bool,
    first_iters: usize,
    second_iters: usize,
}

impl Step {
    fn starting(at: Instant) -> Step {
        Step {
            start: at,
            end: at,
            assembles: Vec::new(),
            finite: true,
            first_iters: 0,
            second_iters: 0,
        }
    }

    /// Both solves stopped below the cap and every displacement was finite.
    fn ok(&self, max_iter: usize) -> bool {
        self.finite && self.first_iters < max_iter && self.second_iters < max_iter
    }
}

/// Cuts the wrapper's events into steps (a step ends at every second
/// `advance()`) and attaches the drivers' per-step iteration counts.
fn steps_of(begin: Instant, events: Vec<Event>, stats: &[StepStats]) -> Vec<Step> {
    let mut out = Vec::new();
    let mut cur = Step::starting(begin);
    let mut advances = 0;
    for e in events {
        match e {
            Event::Assemble { start, end } => cur.assembles.push((start, end)),
            Event::Advance { at, finite } => {
                cur.finite &= finite;
                advances += 1;
                if advances % 2 == 0 {
                    cur.end = at;
                    out.push(std::mem::replace(&mut cur, Step::starting(at)));
                }
            }
        }
    }
    for (step, st) in out.iter_mut().zip(stats) {
        step.first_iters = st.first_solve_iterations;
        step.second_iters = st.second_solve_iterations;
    }
    out
}

/// Complete steps the wrapper has seen since it was last drained.
pub fn steps_seen(w: &Watched) -> usize {
    steps_of(Instant::now(), w.drain(), &[]).len()
}

impl State {
    /// One chunk on the MRHS system: its steps and block iterations.
    fn chunk(&mut self) -> (Vec<Step>, usize) {
        let begin = Instant::now();
        let report =
            run_mrhs_chunk(&mut self.mrhs, &mut self.mrhs_noise, &self.cfg);
        (steps_of(begin, self.mrhs.drain(), &report.steps), report.block_iterations)
    }

    /// `M` original steps on the baseline system.
    fn original_steps(&mut self) -> Vec<Step> {
        let begin = Instant::now();
        let stats: Vec<StepStats> = (0..M)
            .map(|_| {
                run_original_step(
                    &mut self.original,
                    &mut self.original_noise,
                    &self.cfg,
                    &mut self.cheb,
                )
            })
            .collect();
        steps_of(begin, self.original.drain(), &stats)
    }
}

fn build(seed: u64) -> State {
    // The registry is off here, as in a plain library user's process.
    mrhs_telemetry::set_enabled(false);
    let t = Instant::now();
    let system = SystemBuilder::new(PARTICLES).seed(PACKING_SEED).build();
    let pack_s = t.elapsed().as_secs_f64();
    let mut st = State {
        mrhs: Watched::new(system.clone()),
        original: Watched::new(system),
        mrhs_noise: Rng::stream(seed, 2),
        original_noise: Rng::stream(seed, 2),
        cheb: None,
        cfg: MrhsConfig { m: M, record_guess_errors: false, ..Default::default() },
        pack_s,
    };
    // One warm-up round: page faults, lazy pools and the Chebyshev
    // cache of the baseline belong to set-up.
    st.chunk();
    st.original_steps();
    st
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let seed = ctx.seed;
    let (mut st, setup) = ctx.setup(|| build(seed));
    let max_iter = st.cfg.solve.max_iter;
    let (mut chunk_s, mut head_s, mut orig_s) =
        (Series::default(), Series::default(), Series::default());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut block_iters = Vec::new();
    let (mut first, mut second, mut cold) = (Vec::new(), Vec::new(), Vec::new());

    let rounds = ctx.rounds(|ctx, _| {
        let w0 = ctx.pacer.window();
        let ((chunk, block_iterations), raw_c, br_c, w1) =
            ctx.pacer.bracket(w0, || st.chunk());
        let (original, raw_o, br_o, _) =
            ctx.pacer.bracket(w1, || st.original_steps());

        chunk_s.push(raw_c, br_c);
        orig_s.push(raw_o, br_o);
        // The chunk head: block solve + 8 Chebyshev vectors + step 0.
        let head = chunk.first().map_or(0.0, |s| (s.end - s.start).as_secs_f64());
        head_s.push(head, br_c);

        // A step the wrapper never saw finish is a failed step.
        attempted += 2 * M as u64;
        let ok = chunk.iter().chain(&original).filter(|s| s.ok(max_iter)).count();
        failed += (2 * M).saturating_sub(ok) as u64;

        block_iters.push(block_iterations as f64);
        first.extend(chunk.iter().skip(1).map(|s| s.first_iters as f64));
        second.extend(chunk.iter().map(|s| s.second_iters as f64));
        cold.extend(original.iter().map(|s| s.first_iters as f64));
        if ctx.tracer.on {
            record_spans(
                ctx,
                "core.run_mrhs_chunk",
                "core.mrhs_step",
                &chunk,
                true,
            );
            record_spans(
                ctx,
                "core.original_steps",
                "core.original_step",
                &original,
                false,
            );
        }
    });

    let mut out = Outcome {
        timings: Timings {
            setup,
            // Two solves per midpoint step.
            rhs_count: (2 * M) as f64,
            rhs_time: vec![chunk_s.clone()],
            p50: chunk_s.clone(),
            p50_div: M as f64,
            slow: head_s.clone(),
            alt: orig_s.clone(),
            alt_div: M as f64,
            alt_wall_s: 0.0,
        },
        attempted,
        failed,
        rounds,
        layer: BTreeMap::new(),
        notes: vec![format!(
            "system: {PARTICLES} particles, n={}, {:.1} blocks/row (cache-resident)",
            st.mrhs.dim(),
            *st.mrhs.blocks_per_row.borrow()
        )],
    };
    if ctx.trace {
        let totals = ctx.tracer.totals();
        let get = |name: &str| totals.get(name).copied().unwrap_or_default();
        let (assemble, chunk, orig) = (
            get("stokes.assemble"),
            get("core.run_mrhs_chunk"),
            get("core.original_steps"),
        );
        let l = &mut out.layer;
        l.insert("stokes.pack_s", st.pack_s);
        l.insert(
            "stokes.assemble_ms",
            assemble.total / (assemble.count as f64).max(1.0) * 1e3,
        );
        l.insert("stokes.blocks_per_row", *st.mrhs.blocks_per_row.borrow());
        l.insert(
            "stokes.assemble_share",
            assemble.total / (chunk.total + orig.total),
        );
        l.insert("core.mrhs_speedup", orig_s.corrected() / chunk_s.corrected());
        l.insert("core.head_share", head_s.corrected() / chunk_s.corrected());
        l.insert("core.iters.block", mean(&block_iters));
        l.insert("core.iters.first", mean(&first));
        l.insert("core.iters.second", mean(&second));
        l.insert("core.iters.cold", mean(&cold));
        let cost = |residue: usize| {
            chunk_s.every(2, residue).corrected()
                + orig_s.every(2, residue).corrected()
        };
        l.insert("telemetry.trace_overhead", cost(1) / cost(0) - 1.0);

        // Eq. 9 on the host's own profile, with the measured iteration
        // counts, against the measured per-step time net of assembly
        // (Eq. 9 has no assembly term).
        let profile = host_profile();
        let a = st.mrhs.inner.assemble();
        let model = MrhsModel {
            gspmv: GspmvModel::new(&a.stats(), profile),
            counts: SolveCounts {
                cold: mean(&cold).round() as usize,
                warm_first: mean(&first).round() as usize,
                warm_second: mean(&second).round() as usize,
                cheb_order: st.cfg.cheb_order,
            },
        };
        let chunk_assemble = get("core.mrhs_step").total
            + get("core.mrhs_step.head").total
            - get("core.mrhs_step").self_time
            - get("core.mrhs_step.head").self_time;
        let measured = (chunk.total - chunk_assemble)
            / (chunk.count as f64).max(1.0)
            / M as f64;
        l.insert("perfmodel.eq9_resid", measured / model.tmrhs(M) - 1.0);
        l.insert("perfmodel.host_gbps", profile.bandwidth / 1e9);
        l.insert("perfmodel.host_gflops", profile.flops / 1e9);
    }
    out
}

/// Spans of one block of steps in a traced round: the block, its steps
/// (the chunk's first one named `.head`), and each step's assemblies.
fn record_spans(
    ctx: &mut Ctx,
    name: &str,
    step_name: &str,
    steps: &[Step],
    head: bool,
) {
    let (Some(a), Some(b)) = (steps.first(), steps.last()) else { return };
    let parent: Option<SpanId> = ctx.tracer.add(name, a.start, b.end, None);
    for (k, s) in steps.iter().enumerate() {
        let step_name = if head && k == 0 {
            format!("{step_name}.head")
        } else {
            step_name.to_string()
        };
        let id = ctx.tracer.add(&step_name, s.start, s.end, parent);
        for (start, end) in &s.assembles {
            ctx.tracer.add("stokes.assemble", *start, *end, id);
        }
    }
}
