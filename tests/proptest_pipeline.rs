//! Property-based cross-crate tests: distributed execution vs serial
//! kernels on random matrices and partitions, and MRHS driver
//! invariants on random synthetic systems.

use mrhs::cluster::{DistEngine, DistributedMatrix};
use mrhs::core::system::XorShiftNoise;
use mrhs::core::{run_mrhs_chunk, MrhsConfig, ResistanceSystem};
use mrhs::sparse::partition::Partition;
use mrhs::sparse::reorder::permute_symmetric;
use mrhs::sparse::{
    gspmv_serial, BcrsMatrix, Block3, BlockTripletBuilder, MultiVec,
};
use proptest::prelude::*;

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
                t.add(i, i, Block3::scaled_identity(6.0));
            }
            for (i, j, v) in pairs {
                if i != j {
                    t.add_symmetric_pair(i, j, Block3(v));
                }
            }
            t.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn distributed_exchange_equals_serial(
        a in arb_sym_matrix(14),
        parts in 1usize..5,
        m in 1usize..6,
    ) {
        let nb = a.nb_rows();
        // deterministic round-robin-ish assignment with every part used
        let parts = parts.min(nb);
        let assignment: Vec<u32> =
            (0..nb).map(|i| ((i * 7 + i / 3) % parts) as u32).collect();
        let part = Partition::from_assignment(parts, assignment);

        let dm = DistributedMatrix::new(&a, &part);
        let permuted = permute_symmetric(&a, dm.permutation());
        let n = a.n_rows();
        let x = MultiVec::from_flat(
            n, m, (0..n * m).map(|v| ((v * 29 % 23) as f64) - 11.0).collect());
        let engine = DistEngine::new(dm);
        let (y, stats) = engine.multiply(&x);
        let mut want = MultiVec::zeros(n, m);
        gspmv_serial(&permuted, &x, &mut want);
        for (u, v) in y.as_slice().iter().zip(want.as_slice()) {
            prop_assert!((u - v).abs() <= 1e-9 * u.abs().max(v.abs()).max(1.0));
        }
        // bytes accounting: total equals 8 bytes × 3m × Σ halo rows
        let halo_rows: usize = engine.matrix().recv_volumes().iter().sum();
        prop_assert_eq!(stats.comm.total_bytes(), halo_rows * 3 * m * 8);
    }

    #[test]
    fn mrhs_chunk_runs_on_random_spring_systems(
        n_particles in 4usize..20,
        m in 2usize..6,
        stiffness in 0.5f64..4.0,
    ) {
        struct Springs {
            positions: Vec<f64>,
            stiffness: f64,
        }
        impl ResistanceSystem for Springs {
            fn dim(&self) -> usize { self.positions.len() * 3 }
            fn assemble(&self) -> BcrsMatrix {
                let nb = self.positions.len();
                let mut t = BlockTripletBuilder::square(nb);
                for i in 0..nb {
                    t.add(i, i, Block3::scaled_identity(3.0 + self.stiffness));
                    if i + 1 < nb {
                        let d = (self.positions[i + 1] - self.positions[i]).abs();
                        let w = self.stiffness / (1.0 + d * d);
                        t.add(i, i, Block3::scaled_identity(w));
                        t.add(i + 1, i + 1, Block3::scaled_identity(w));
                        t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-w));
                    }
                }
                t.build()
            }
            fn advance(&mut self, u: &[f64], dt: f64) {
                for (i, p) in self.positions.iter_mut().enumerate() {
                    *p += dt * u[3 * i];
                }
            }
            fn dt(&self) -> f64 { 0.05 }
            fn save_state(&self) -> Vec<f64> { self.positions.clone() }
            fn restore_state(&mut self, s: &[f64]) {
                self.positions.copy_from_slice(s);
            }
        }

        let mut sys = Springs {
            positions: (0..n_particles).map(|i| i as f64).collect(),
            stiffness,
        };
        let mut noise = XorShiftNoise::new(42);
        let cfg = MrhsConfig { m, ..Default::default() };
        let report = run_mrhs_chunk(&mut sys, &mut noise, &cfg);
        prop_assert_eq!(report.steps.len(), m);
        // every solve converged within budget
        for s in &report.steps {
            prop_assert!(s.second_solve_iterations < cfg.solve.max_iter);
        }
        // guess errors recorded for the tail steps and finite
        for s in &report.steps[1..] {
            let e = s.guess_relative_error.unwrap();
            prop_assert!(e.is_finite() && e >= 0.0);
        }
    }
}
