//! Preconditioning probe: CG iterations with and without the block-Jacobi
//! preconditioner on the resistance operators the benchmark solves
//! (φ = 0.5, default `ResistanceConfig`, the benchmark's packing seed).
//!
//! The table behind EXPERIMENTS "Preconditioning trial (PR 23)". There
//! is no switch to flip: the *bare* column runs the same `cg` through a
//! wrapper that forwards the products and does not name the diagonal,
//! which is how any operator opts out.
//!
//! With `--head` it also prints EXPERIMENTS "Head levers measured":
//! the `guess_tol` sweep of ROADMAP 1(b) on the `sd_steps` system
//! (2,000 particles, m = 8, three chunks from the same start and noise
//! stream per value).
//!
//! ```text
//! cargo run --release --example precond_probe -- [particles…] [--head]
//! ```

use mrhs::core::{run_mrhs_chunk, MrhsConfig};
use mrhs::solvers::{block_cg, cg, LinearOperator, SolveConfig};
use mrhs::sparse::{BcrsMatrix, MultiVec};
use mrhs::stokes::{
    assemble_resistance, GaussianNoise, ResistanceConfig, SystemBuilder,
};

/// `benchmark/src/util.rs`'s `PACKING_SEED`.
const PACKING_SEED: u64 = 20_120_521;

/// The matrix with its diagonal hidden: `diagonal_blocks` stays `None`.
struct Bare<'a>(&'a BcrsMatrix);

impl LinearOperator for Bare<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.0.apply(x, y)
    }
    fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
        self.0.apply_multi(x, y)
    }
}

/// Standard normals from a fixed xorshift stream (Box–Muller).
fn normals(len: usize, mut state: u64) -> Vec<f64> {
    let mut uniform = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    };
    (0..len)
        .map(|_| {
            let (u, v) = (uniform(), uniform());
            (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
        })
        .collect()
}

/// Mean iterations of three Alg. 2 chunks (m = 8) on the `sd_steps`
/// system per `guess_tol`: the block solve, the head step's first
/// solve (warm-started from a column only `guess_tol` accurate on the
/// same matrix), the other steps' first solves, and the second solves.
fn head_sweep() {
    const CHUNKS: usize = 3;
    let start = SystemBuilder::new(2000).seed(PACKING_SEED).build();
    println!(
        "\nguess_tol | block   head   first(k>0)  second   (iterations, m = 8)"
    );
    for guess_tol in [1e-4, 3e-4, 1e-3, 3e-3, 1e-2] {
        let cfg = MrhsConfig {
            m: 8,
            guess_tol,
            record_guess_errors: false,
            ..Default::default()
        };
        let mut system = start.clone();
        let mut noise = GaussianNoise::seed_from_u64(101);
        let (mut block, mut head, mut first, mut second) = (0, 0, 0, 0);
        for _ in 0..CHUNKS {
            let report = run_mrhs_chunk(&mut system, &mut noise, &cfg);
            block += report.block_iterations;
            head += report.steps[0].first_solve_iterations;
            for step in &report.steps[1..] {
                first += step.first_solve_iterations;
            }
            for step in &report.steps {
                second += step.second_solve_iterations;
            }
        }
        let per = |total: usize, count: usize| total as f64 / count as f64;
        println!(
            "{guess_tol:9.0e} | {:5.0}  {:5.0}  {:10.1}  {:6.1}",
            per(block, CHUNKS),
            per(head, CHUNKS),
            per(first, CHUNKS * 7),
            per(second, CHUNKS * 8)
        );
    }
}

fn main() {
    let (mut sizes, mut head): (Vec<usize>, bool) = (Vec::new(), false);
    for arg in std::env::args().skip(1) {
        match arg.parse() {
            Ok(v) => sizes.push(v),
            Err(_) if arg == "--head" => head = true,
            Err(_) => {
                eprintln!("usage: precond_probe [particles…] [--head]");
                std::process::exit(2);
            }
        }
    }
    if sizes.is_empty() {
        sizes = vec![1000, 2000, 4000];
    }
    println!("particles  tol   | cg bare  cg jacobi  ratio | block_cg(8) bare  jacobi  ratio");
    for particles in sizes {
        let system = SystemBuilder::new(particles).seed(PACKING_SEED).build();
        let a =
            assemble_resistance(system.particles(), &ResistanceConfig::default());
        let n = a.n_rows();
        let diag: Vec<f64> =
            a.diagonal_blocks().iter().map(|b| b.trace() / 3.0).collect();
        let (lo, hi) = diag
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &d| (lo.min(d), hi.max(d)));
        eprintln!(
            "{particles} particles: n = {n}, {:.1} blocks/row, mean diagonal \
             {lo:.3e} … {hi:.3e}",
            a.blocks_per_row()
        );
        let b = normals(n, 0x9e37_79b9_7f4a_7c15);
        let b8 = MultiVec::from_flat(n, 8, normals(n * 8, 0x2545_f491_4f6c_dd1d));
        for tol in [1e-4, 1e-6] {
            let cfg = SolveConfig { tol, max_iter: 2000 };
            let scalar = |op: &dyn LinearOperator| {
                let mut x = vec![0.0; n];
                let res = cg(op, &b, &mut x, &cfg);
                assert!(res.converged, "{res:?}");
                res.iterations
            };
            let block = |op: &dyn LinearOperator| {
                let mut x = MultiVec::zeros(n, 8);
                let res = block_cg(op, &b8, &mut x, &cfg);
                assert!(res.converged, "{res:?}");
                res.iterations
            };
            let (s0, s1) = (scalar(&Bare(&a)), scalar(&a));
            let (b0, b1) = (block(&Bare(&a)), block(&a));
            println!(
                "{particles:9}  {tol:.0e} | {s0:7}  {s1:9}  {:5.2} | {b0:16}  {b1:6}  {:5.2}",
                s1 as f64 / s0 as f64,
                b1 as f64 / b0 as f64
            );
        }
    }
    if head {
        head_sweep();
    }
}
