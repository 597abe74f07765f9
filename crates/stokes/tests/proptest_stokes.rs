//! Property-based tests of the Stokesian substrate: neighbor-search
//! exactness against brute force, tensor positivity, and assembled
//! matrix invariants on random polydisperse configurations.

use mrhs_core::ResistanceSystem;
use mrhs_sparse::BcrsMatrix;
use mrhs_sparse::Block3;
use mrhs_stokes::cell_list::for_each_scaled_pair;
use mrhs_stokes::lubrication::{pair_block, pair_scalars};
use mrhs_stokes::{
    assemble_resistance, ParticleSystem, ResistanceConfig, StokesianSystem,
};
use proptest::prelude::*;

/// Strategy: a random periodic polydisperse system (radii spread ~5×).
fn arb_system(max_n: usize) -> impl Strategy<Value = ParticleSystem> {
    (2usize..=max_n)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(
                    (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
                    n,
                ),
                proptest::collection::vec(0.4f64..2.0, n),
                8.0f64..20.0,
            )
        })
        .prop_map(|(_n, frac_pos, radii, box_len)| {
            let positions: Vec<[f64; 3]> = frac_pos
                .into_iter()
                .map(|(x, y, z)| [x * box_len, y * box_len, z * box_len])
                .collect();
            ParticleSystem::new(positions, radii, [box_len; 3])
        })
}

fn brute_force_pairs(s: &ParticleSystem, scale: f64) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..s.len() {
        for j in i + 1..s.len() {
            let cutoff = scale * 0.5 * (s.radii()[i] + s.radii()[j]);
            if s.distance(i, j) <= cutoff {
                out.push((i, j));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Pattern and every value bit of a matrix.
fn bits(a: &BcrsMatrix) -> (&[usize], &[u32], Vec<u64>) {
    let values = a.blocks().iter().flat_map(|b| b.0.map(f64::to_bits)).collect();
    (a.row_ptr(), a.col_idx(), values)
}

/// Whether the system's held pair list assembles, bit for bit, what a
/// pair list built at its current positions assembles.
fn assembles_like_a_fresh_build(sys: &StokesianSystem) -> bool {
    let fresh = assemble_resistance(sys.particles(), sys.resistance_config());
    bits(&sys.assemble()) == bits(&fresh)
}

/// A velocity moving particle `i` by up to `amplitude·a_i` per unit
/// time in each coordinate (the systems below have `Δt·scale = 1`).
fn kick(sys: &StokesianSystem, amplitude: f64, state: &mut usize) -> Vec<f64> {
    let mut x = *state as u64 | 1;
    let radii = sys.particles().radii();
    let u = (0..sys.dim())
        .map(|k| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let uniform = (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
            amplitude * radii[k / 3] * uniform
        })
        .collect();
    *state = x as usize;
    u
}

fn held(particles: ParticleSystem, s_cut: f64) -> StokesianSystem {
    let cfg = ResistanceConfig { s_cut, ..Default::default() };
    StokesianSystem::new(particles, cfg, 1.0, 1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // A seeded random walk. Small kicks stay on one list while pairs
    // cross `s_cut` in both directions; larger ones outrun the skin
    // after a few moves, or at every move; a shift by one box length
    // moves nothing but wraps every coordinate.
    #[test]
    fn held_list_matches_fresh_build_along_a_walk(
        s in arb_system(30),
        s_cut in 2.2f64..4.0,
        size in 0usize..4,
        mut seed in 1usize..usize::MAX,
    ) {
        let amplitude = [0.004, 0.03, 0.12, 0.5][size];
        let mut sys = held(s, s_cut);
        prop_assert!(assembles_like_a_fresh_build(&sys));
        for step in 0..16 {
            let mut u = kick(&sys, amplitude, &mut seed);
            if step % 5 == 4 {
                let l = sys.particles().box_lengths()[0];
                u.iter_mut().for_each(|v| *v += l);
            }
            sys.advance(&u, 1.0);
            prop_assert!(assembles_like_a_fresh_build(&sys), "step {}", step);
        }
    }

    // The midpoint scheme's pattern: save, half step, assemble, restore,
    // full step — the restored state assembles to the bits it had
    // before the excursion.
    #[test]
    fn held_list_survives_the_midpoint_pattern(
        s in arb_system(30),
        size in 0usize..2,
        mut seed in 1usize..usize::MAX,
    ) {
        let amplitude = [0.01, 0.2][size];
        let mut sys = held(s, 3.0);
        for _ in 0..6 {
            let before = sys.assemble();
            let saved = sys.save_state();
            sys.advance(&kick(&sys, amplitude, &mut seed), 0.5);
            prop_assert!(assembles_like_a_fresh_build(&sys), "at the midpoint");
            sys.restore_state(&saved);
            prop_assert!(bits(&sys.assemble()) == bits(&before), "restored");
            sys.advance(&kick(&sys, amplitude, &mut seed), 1.0);
            prop_assert!(assembles_like_a_fresh_build(&sys), "after the step");
        }
    }

    // A clone owns its list: it may walk away (and search again) without
    // disturbing what the original assembles.
    #[test]
    fn clone_diverges_from_its_original(
        s in arb_system(30),
        mut seed in 1usize..usize::MAX,
    ) {
        let mut original = held(s, 3.0);
        original.advance(&kick(&original, 0.02, &mut seed), 1.0);
        let mut copy = original.clone();
        let before = original.assemble();
        prop_assert!(bits(&copy.assemble()) == bits(&before));
        for amplitude in [0.02, 0.4, 0.02] {
            copy.advance(&kick(&copy, amplitude, &mut seed), 1.0);
            prop_assert!(assembles_like_a_fresh_build(&copy));
            prop_assert!(bits(&original.assemble()) == bits(&before));
        }
        original.advance(&kick(&original, 0.02, &mut seed), 1.0);
        prop_assert!(assembles_like_a_fresh_build(&original));
        prop_assert!(assembles_like_a_fresh_build(&copy));
    }

    #[test]
    fn scaled_pair_search_matches_brute_force(
        s in arb_system(40),
        scale in 2.0f64..5.0,
    ) {
        let mut got: Vec<(usize, usize)> = Vec::new();
        let mut max_dist_err = 0.0f64;
        for_each_scaled_pair(&s, scale, |i, j, d| {
            max_dist_err = max_dist_err.max((d - s.distance(i, j)).abs());
            got.push((i.min(j), i.max(j)));
        });
        prop_assert!(max_dist_err < 1e-9);
        got.sort_unstable();
        let mut dedup = got.clone();
        dedup.dedup();
        prop_assert_eq!(got.len(), dedup.len(), "duplicate pairs");
        prop_assert_eq!(dedup, brute_force_pairs(&s, scale));
    }

    #[test]
    fn minimum_image_is_shortest(s in arb_system(20)) {
        let bl = s.box_lengths();
        let half_diag =
            0.5 * (bl[0] * bl[0] + bl[1] * bl[1] + bl[2] * bl[2]).sqrt();
        for i in 0..s.len() {
            for j in 0..s.len() {
                if i == j { continue; }
                let d = s.minimum_image(i, j);
                let dist = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                prop_assert!(dist <= half_diag + 1e-9);
                // antisymmetry
                let dr = s.minimum_image(j, i);
                for k in 0..3 {
                    prop_assert!((d[k] + dr[k]).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn morton_sort_preserves_multiset(mut s in arb_system(30)) {
        let mut radii_before = s.radii().to_vec();
        let phi = s.volume_fraction();
        s.sort_morton();
        let mut radii_after = s.radii().to_vec();
        radii_before.sort_by(|a, b| a.partial_cmp(b).unwrap());
        radii_after.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(radii_before, radii_after);
        prop_assert!((s.volume_fraction() - phi).abs() < 1e-12);
    }

    #[test]
    fn lubrication_scalars_positive_and_decreasing(
        a in 0.3f64..3.0,
        b in 0.3f64..3.0,
    ) {
        let mut last = f64::INFINITY;
        for &xi in &[1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0] {
            let s = pair_scalars(a, b, xi, 1e-6);
            prop_assert!(s.x_a > 0.0 && s.y_a > 0.0);
            prop_assert!(s.x_a > s.y_a, "squeeze dominates shear");
            prop_assert!(s.x_a <= last);
            last = s.x_a;
        }
    }

    #[test]
    fn pair_block_positive_semidefinite(
        dx in -1.0f64..1.0, dy in -1.0f64..1.0, dz in -1.0f64..1.0,
        a in 0.3f64..3.0, b in 0.3f64..3.0, xi in 1e-4f64..2.0,
    ) {
        prop_assume!(dx * dx + dy * dy + dz * dz > 1e-4);
        let blk = pair_block([dx, dy, dz], a, b, 1.0, xi, 1e-5);
        prop_assert!(blk.is_symmetric_within(1e-9));
        for v in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, -0.7, 0.2], [dx, dy, dz]] {
            let bv = blk.mul_vec(v);
            let q: f64 = v.iter().zip(&bv).map(|(x, y)| x * y).sum();
            prop_assert!(q >= -1e-9, "q = {q} for v = {v:?}");
        }
    }

    #[test]
    fn resistance_spd_on_random_configurations(s in arb_system(25)) {
        let cfg = ResistanceConfig::default();
        let r = assemble_resistance(&s, &cfg);
        // Assembly is built from symmetric pair contributions, so the
        // oracle's symmetry residual must be *exactly* zero — stronger
        // than the old `is_symmetric_within(1e-8)` check.
        let res = oracle::invariants::symmetry_residual(&r);
        prop_assert_eq!(res, 0.0, "symmetry residual {}", res);
        prop_assert_eq!(r.nb_rows(), s.len());
        // Rayleigh quotient vs the exact μ_F·D lower bound.
        let lb = mrhs_stokes::resistance::spectrum_lower_bound(&s, &cfg);
        let n = r.n_rows();
        let mut state = 77u64;
        let v: Vec<f64> = (0..n).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }).collect();
        let mut rv = vec![0.0; n];
        use mrhs_solvers::LinearOperator;
        r.apply(&v, &mut rv);
        let q: f64 = v.iter().zip(&rv).map(|(x, y)| x * y).sum::<f64>()
            / v.iter().map(|x| x * x).sum::<f64>();
        prop_assert!(q >= lb * (1.0 - 1e-9), "{q} < {lb}");
    }

    #[test]
    fn diagonal_dominates_when_dilute(s in arb_system(15)) {
        // With a huge box (rescale positions), every particle is isolated:
        // the matrix must be exactly the diagonal drag.
        let big = 1000.0;
        let scaled = ParticleSystem::new(
            s.positions().iter().map(|p| [p[0] * big, p[1] * big, p[2] * big]).collect(),
            s.radii().to_vec(),
            [s.box_lengths()[0] * big; 3],
        );
        let r = assemble_resistance(&scaled, &ResistanceConfig::default());
        prop_assert_eq!(r.nnz_blocks(), scaled.len());
        for bi in 0..r.nb_rows() {
            let d = r.block_at(bi, bi).unwrap();
            prop_assert!(d.get(0, 0) > 0.0);
            prop_assert!((d.get(0, 0) - d.get(1, 1)).abs() < 1e-12);
            prop_assert!(d.get(0, 1).abs() < 1e-12);
        }
    }
}

/// `Block3` helper used by the strategies (kept to assert the import is
/// exercised; see `pair_block_positive_semidefinite`).
#[allow(dead_code)]
fn _block_zero() -> Block3 {
    Block3::ZERO
}
