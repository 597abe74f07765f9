//! Property tests for the persistent distributed engine.
//!
//! * The engine must equal the single-address-space GSPMV *and* the
//!   `oracle` crate's dense reference on random symmetric matrices
//!   under random partitions — contiguous, round-robin, and arbitrary
//!   assignments including *empty* parts (more nodes than block rows)
//!   — for every m the solvers use.
//! * Block CG driven through the engine (a real distributed solve with
//!   halo exchange every iteration) must follow the shared-memory
//!   block-CG trajectory and reach the same solution.
//!
//! Every threaded case runs under the watchdog so a reintroduced
//! exchange deadlock fails CI instead of stalling it.

use mrhs_cluster::watchdog::with_deadline;
use mrhs_cluster::{DistEngine, DistributedMatrix};
use mrhs_solvers::block_cg::block_cg;
use mrhs_solvers::cg::SolveConfig;
use mrhs_solvers::LinearOperator;
use mrhs_sparse::partition::Partition;
use mrhs_sparse::reorder::permute_symmetric;
use mrhs_sparse::{
    gspmv_serial, BcrsMatrix, Block3, BlockTripletBuilder, MultiVec,
};
use oracle::{Dense, TolModel};
use proptest::prelude::*;
use std::time::Duration;

/// The engine accumulates local and remote contributions in separate
/// sums, so it is not bitwise against the dense reference; this is the
/// historical 1e-11 relative envelope expressed as an oracle model.
const ENGINE: TolModel = TolModel { rel: 1e-11, floor: 1.0, max_ulps: 64 };

fn arb_sym_matrix(max_nb: usize) -> impl Strategy<Value = BcrsMatrix> {
    (3usize..=max_nb)
        .prop_flat_map(|nb| {
            let pairs = proptest::collection::vec(
                ((0..nb), (0..nb), proptest::array::uniform9(-1.0f64..1.0)),
                0..4 * nb,
            );
            (Just(nb), pairs)
        })
        .prop_map(|(nb, pairs)| {
            let mut t = BlockTripletBuilder::square(nb);
            for i in 0..nb {
                // strong diagonal: SPD by dominance, reusable for CG
                t.add(i, i, Block3::scaled_identity(24.0));
            }
            for (i, j, v) in pairs {
                if i != j {
                    t.add_symmetric_pair(i, j, Block3(v));
                }
            }
            t.build()
        })
}

/// A partition of `nb` rows: contiguous, round-robin, or an arbitrary
/// assignment onto up to `nb + 4` parts (so some parts are empty).
fn arb_partition(nb: usize, kind: usize, parts: usize, salt: usize) -> Partition {
    match kind % 3 {
        0 => {
            let assignment: Vec<u32> =
                (0..nb).map(|i| (i % parts) as u32).collect();
            Partition::from_assignment(parts, assignment)
        }
        1 => {
            let assignment: Vec<u32> =
                (0..nb).map(|i| ((i * 7 + salt + i / 3) % parts) as u32).collect();
            Partition::from_assignment(parts, assignment)
        }
        _ => {
            // contiguous — may still leave trailing parts empty
            let assignment: Vec<u32> =
                (0..nb).map(|i| ((i * parts) / nb.max(1)) as u32).collect();
            Partition::from_assignment(parts, assignment)
        }
    }
}

fn pseudo_multivec(n: usize, m: usize, seed: u64) -> MultiVec {
    let mut state = seed | 1;
    let mut mv = MultiVec::zeros(n, m);
    for v in mv.as_mut_slice() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
    mv
}

/// A matrix's products and diagonal blocks, not its block rows: the
/// preconditioner `DistEngine` runs.
struct DiagonalOnly<'a>(&'a BcrsMatrix);

impl LinearOperator for DiagonalOnly<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.0.apply(x, y);
    }
    fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
        self.0.apply_multi(x, y);
    }
    fn diagonal_blocks(&self) -> Option<Vec<Block3>> {
        LinearOperator::diagonal_blocks(self.0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_equals_serial_gspmv(
        a in arb_sym_matrix(14),
        kind in 0usize..3,
        extra_parts in 0usize..8,
        mi in 0usize..5,
        salt in 0usize..13,
    ) {
        let m = [1usize, 2, 8, 16, 32][mi];
        let nb = a.nb_rows();
        // `extra_parts` can push the node count past nb: empty parts.
        let parts = 1 + (extra_parts % (nb + 4));
        let part = arb_partition(nb, kind, parts, salt);

        let (y, want, dense_want, bytes) =
            with_deadline(Duration::from_secs(120), move || {
                let dm = DistributedMatrix::new(&a, &part);
                let permuted = permute_symmetric(&a, dm.permutation());
                let engine = DistEngine::new(dm);
                let n = a.n_rows();
                let x = pseudo_multivec(n, m, (salt as u64) << 8 | m as u64);
                let (y, stats) = engine.multiply(&x);
                let mut want = MultiVec::zeros(n, m);
                gspmv_serial(&permuted, &x, &mut want);
                let dense_want = Dense::from_bcrs(&permuted).gspmv(&x);
                (y, want, dense_want, stats.comm.total_bytes())
            });
        // Both the serial GSPMV and the engine must sit inside the
        // oracle envelope around the dense reference.
        if let Err(e) = ENGINE.check_slices(
            dense_want.as_slice(), want.as_slice(), "serial vs dense")
        {
            prop_assert!(false, "{}", e);
        }
        if let Err(e) = ENGINE.check_slices(
            dense_want.as_slice(), y.as_slice(), "engine vs dense")
        {
            prop_assert!(false, "{}", e);
        }
        // bytes accounting: 8 bytes × 3m scalars per halo block row
        prop_assert_eq!(bytes % (3 * m * 8), 0);
    }

    #[test]
    fn distributed_block_cg_follows_shared_trajectory(
        a in arb_sym_matrix(12),
        parts in 1usize..6,
        mi in 0usize..3,
        seed in 1usize..500,
    ) {
        let m = [1usize, 2, 8][mi];
        let nb = a.nb_rows();
        let assignment: Vec<u32> =
            (0..nb).map(|i| ((i * 5 + 1) % parts) as u32).collect();
        let part = Partition::from_assignment(parts, assignment);
        let cfg = SolveConfig { tol: 1e-12, max_iter: 400 };

        let (shared, dist, x_shared, x_dist) =
            with_deadline(Duration::from_secs(180), move || {
                let dm = DistributedMatrix::new(&a, &part);
                let permuted = permute_symmetric(&a, dm.permutation());
                let engine = DistEngine::new(dm);
                let n = a.n_rows();
                let b = pseudo_multivec(n, m, seed as u64);
                let mut x_shared = MultiVec::zeros(n, m);
                // The engine keeps block-Jacobi (it names no block
                // rows): the shared trajectory is that recurrence.
                let shared =
                    block_cg(&DiagonalOnly(&permuted), &b, &mut x_shared, &cfg);
                let mut x_dist = MultiVec::zeros(n, m);
                let dist = block_cg(&engine, &b, &mut x_dist, &cfg);
                (shared, dist, x_shared, x_dist)
            });

        prop_assert!(shared.converged && dist.converged);
        // Same trajectory: iteration counts agree (up to one iteration
        // of floating-point slack from the split local+remote sums) …
        prop_assert!(
            shared.iterations.abs_diff(dist.iterations) <= 1,
            "shared {} vs distributed {}",
            shared.iterations,
            dist.iterations
        );
        // … and the solutions coincide to solver accuracy.
        for (u, v) in x_shared.as_slice().iter().zip(x_dist.as_slice()) {
            prop_assert!(
                (u - v).abs() <= 1e-10 * u.abs().max(v.abs()).max(1.0),
                "{u} vs {v}"
            );
        }
    }
}
