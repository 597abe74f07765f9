//! Assembly of the sparse resistance matrix `R = μ_F·D + R_lub`.
//!
//! Following the paper's sparse approximation (Torres & Gilbert 1996):
//! the dense far field `(M^∞)⁻¹` is replaced by a far-field effective
//! viscosity acting on each particle's Stokes drag, adjusted for the
//! particle's own radius (the paper's "slight modification … to account
//! for different particle radii"); the near field is the pairwise
//! lubrication matrix in relative-motion form. The result is a BCRS
//! matrix with 3×3 blocks — one diagonal block per particle plus one
//! off-diagonal block per interacting pair — and it is symmetric
//! positive definite by construction: `R ⪰ μ_F·D ≻ 0`.

use crate::cell_list::for_each_scaled_pair;
use crate::lubrication::{dimensionless_gap, pair_block};
use crate::particle::ParticleSystem;
use mrhs_core::telemetry::{counter_add, gauge_set};
use mrhs_sparse::{BcrsMatrix, Block3};

/// Parameters of resistance assembly.
#[derive(Clone, Copy, Debug)]
pub struct ResistanceConfig {
    /// Solvent viscosity `η` (reduced units; 1.0 by default).
    pub eta: f64,
    /// Pair interaction cutoff in scaled separation: particles interact
    /// when `s = 2r/(a_i + a_j) < s_cut`. The paper varies this cutoff
    /// to generate matrices of different density (Table I).
    pub s_cut: f64,
    /// Floor on the dimensionless gap `ξ`, bounding the lubrication
    /// singularity and hence the condition number.
    pub xi_min: f64,
}

impl Default for ResistanceConfig {
    fn default() -> Self {
        ResistanceConfig { eta: 1.0, s_cut: 3.0, xi_min: 1e-3 }
    }
}

/// Far-field effective viscosity `μ_F(φ)`: the paper chooses it by the
/// particle volume fraction (after Torres & Gilbert); we use the
/// Einstein–Batchelor expansion, adequate for a scalar effective medium.
pub fn mu_f(volume_fraction: f64) -> f64 {
    let phi = volume_fraction.clamp(0.0, 0.64);
    1.0 + 2.5 * phi + 5.2 * phi * phi
}

/// Scaled skin `δ` of the held pair list: candidates are the pairs
/// with `2r/(a_i+a_j) ≤ s_cut + δ`. 0.2 keeps the benchmark suspension
/// on one list for ~200 steps at 20 % extra candidates.
const SKIN: f64 = 0.2;

/// A particle may drift this far (in units of its radius) from where
/// the list was built: just under `δ/2`, the margin absorbing the
/// rounding of wrapped coordinates.
const MAX_DRIFT: f64 = 0.499 * SKIN;

/// Far-field drag `6πη·a·μ_F` of one particle.
fn drag(cfg: &ResistanceConfig, radius: f64, mu: f64) -> f64 {
    6.0 * std::f64::consts::PI * cfg.eta * radius * mu
}

/// The symbolic half of assembly: every pair that can come within
/// `s_cut` while no particle has drifted more than `MAX_DRIFT·a_i` from
/// the positions the list was built at. By the triangle inequality (it
/// holds for minimum-image distances) such a pair was within
/// `s_cut·(a_i+a_j)/2 + δ·a_i/2 + δ·a_j/2 = (s_cut+δ)·(a_i+a_j)/2` at
/// build time, which is the candidate criterion.
#[derive(Clone, Debug)]
pub(crate) struct PairList {
    /// Candidate pairs `(p, q)` ordered by `(min, max)`. Which of the
    /// two comes first is the search's choice — smaller radius class
    /// first, lower index within a class — and is kept because the pair
    /// block is evaluated at radius ratio `a_q/a_p`.
    pairs: Vec<(u32, u32)>,
    /// Positions the candidates were searched at.
    built_at: Vec<[f64; 3]>,
    /// Searches this list has been through, the first included.
    pub(crate) rebuilds: u64,
}

/// The block rows `(i, j)`, `i < j`, a pair couples.
fn rows(&(p, q): &(u32, u32)) -> (u32, u32) {
    (p.min(q), p.max(q))
}

impl PairList {
    pub(crate) fn build(system: &ParticleSystem, cfg: &ResistanceConfig) -> Self {
        let mut list =
            PairList { pairs: Vec::new(), built_at: Vec::new(), rebuilds: 0 };
        list.rebuild(system, cfg);
        list
    }

    fn rebuild(&mut self, system: &ParticleSystem, cfg: &ResistanceConfig) {
        self.pairs.clear();
        // Size-classed search on the scaled criterion, skin included.
        for_each_scaled_pair(system, cfg.s_cut + SKIN, |p, q, _| {
            self.pairs.push((p as u32, q as u32));
        });
        self.pairs.sort_unstable_by_key(rows);
        self.built_at.clear();
        self.built_at.extend_from_slice(system.positions());
        self.rebuilds += 1;
        counter_add("stokes/pairlist/rebuilds", 1);
    }

    /// Searches again if any particle has drifted past `MAX_DRIFT·a_i`;
    /// to be called after every change of positions. O(n).
    pub(crate) fn refresh(
        &mut self,
        system: &ParticleSystem,
        cfg: &ResistanceConfig,
    ) {
        let stale =
            self.built_at.iter().zip(system.positions()).zip(system.radii()).any(
                |((from, to), &a)| {
                    let d = system.minimum_image_between(from, to);
                    let limit = MAX_DRIFT * a;
                    d[0] * d[0] + d[1] * d[1] + d[2] * d[2] > limit * limit
                },
            );
        if stale {
            self.rebuild(system, cfg);
        }
    }

    /// The numeric half: tests every candidate against the exact cutoff
    /// and writes the matrix in CSR order — one diagonal block per
    /// particle, one off-diagonal block per interacting pair, no
    /// explicit zeros. Diagonal blocks are summed as drag first, then
    /// the pair blocks by ascending partner index, so the bits depend
    /// on the configuration alone, not on when the list was built.
    pub(crate) fn fill(
        &self,
        system: &ParticleSystem,
        cfg: &ResistanceConfig,
    ) -> BcrsMatrix {
        let n = system.len();
        let radii = system.radii();

        // Interacting pairs with their geometry, and the row lengths.
        let mut near = Vec::with_capacity(self.pairs.len());
        let mut row_ptr = vec![0usize; n + 1];
        for &(p, q) in &self.pairs {
            let d = system.minimum_image(p as usize, q as usize);
            let dist2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            let cut = cfg.s_cut * 0.5 * (radii[p as usize] + radii[q as usize]);
            if dist2 <= cut * cut {
                row_ptr[p as usize + 1] += 1;
                row_ptr[q as usize + 1] += 1;
                near.push(((p, q), d, dist2));
            }
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i] + 1;
        }

        let mu = mu_f(system.volume_fraction());
        let mut diag: Vec<Block3> = radii
            .iter()
            .map(|&a| Block3::scaled_identity(drag(cfg, a, mu)))
            .collect();
        let mut col_idx = vec![0u32; row_ptr[n]];
        let mut blocks = vec![Block3::ZERO; row_ptr[n]];
        // Next free slot of each row. Rows are visited in order and
        // `near` is sorted, so row j receives its partners i < j in
        // ascending order before row j itself is visited.
        let mut next = row_ptr[..n].to_vec();
        let mut pairs = near.iter().peekable();
        for i in 0..n {
            let diag_slot = next[i];
            next[i] += 1;
            while let Some(&((p, q), d, dist2)) =
                pairs.next_if(|near| rows(&near.0).0 as usize == i)
            {
                let (ap, aq) = (radii[p as usize], radii[q as usize]);
                let xi = dimensionless_gap(dist2.sqrt(), ap, aq);
                let a_blk = pair_block(d, ap, aq, cfg.eta, xi, cfg.xi_min);
                // Relative-motion form: +A on both diagonals, −A off-diagonal.
                let j = p.max(q);
                diag[i] += a_blk;
                diag[j as usize] += a_blk;
                for (row, col) in [(i, j), (j as usize, i as u32)] {
                    col_idx[next[row]] = col;
                    blocks[next[row]] = -a_blk;
                    next[row] += 1;
                }
            }
            col_idx[diag_slot] = i as u32;
            blocks[diag_slot] = diag[i];
        }

        counter_add("stokes/pairlist/fills", 1);
        gauge_set("stokes/pairlist/candidates", self.pairs.len() as f64);
        gauge_set("stokes/pairlist/active", near.len() as f64);
        BcrsMatrix::from_parts(n, n, row_ptr, col_idx, blocks)
    }
}

/// Assembles the resistance matrix for the current configuration: a
/// fresh pair list, filled once.
pub fn assemble_resistance(
    system: &ParticleSystem,
    cfg: &ResistanceConfig,
) -> BcrsMatrix {
    PairList::build(system, cfg).fill(system, cfg)
}

/// An exact lower bound on the spectrum of the assembled matrix:
/// `R ⪰ μ_F·D`, so `λ_min(R) ≥ min_i 6πη·a_i·μ_F`.
pub fn spectrum_lower_bound(
    system: &ParticleSystem,
    cfg: &ResistanceConfig,
) -> f64 {
    let mu = mu_f(system.volume_fraction());
    system.radii().iter().map(|&a| drag(cfg, a, mu)).fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packing::pack_ecoli;
    use mrhs_solvers::LinearOperator;

    fn small_system(fraction: f64, seed: u64) -> ParticleSystem {
        pack_ecoli(60, fraction, seed)
    }

    /// The assembly this crate had before the pair list: triplets in
    /// search order, sorted and merged. The reference the new path is
    /// compared against.
    fn assemble_triplets(
        system: &ParticleSystem,
        cfg: &ResistanceConfig,
    ) -> BcrsMatrix {
        let mut t = mrhs_sparse::BlockTripletBuilder::square(system.len());
        let mu = mu_f(system.volume_fraction());
        let radii = system.radii();
        for (i, &a) in radii.iter().enumerate() {
            t.add(i, i, Block3::scaled_identity(drag(cfg, a, mu)));
        }
        for_each_scaled_pair(system, cfg.s_cut, |i, j, dist| {
            let (ai, aj) = (radii[i], radii[j]);
            let d = system.minimum_image(i, j);
            let xi = dimensionless_gap(dist, ai, aj);
            let a_blk = pair_block(d, ai, aj, cfg.eta, xi, cfg.xi_min);
            t.add(i, i, a_blk);
            t.add(j, j, a_blk);
            t.add(i, j, -a_blk);
            t.add(j, i, -a_blk);
        });
        t.build()
    }

    fn bits(a: &BcrsMatrix) -> Vec<u64> {
        a.blocks().iter().flat_map(|b| b.0.map(f64::to_bits)).collect()
    }

    /// Pairs within the exact cutoff, by brute force.
    fn interacting(s: &ParticleSystem, s_cut: f64) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..s.len() {
            for j in i + 1..s.len() {
                if s.distance(i, j) <= s_cut * 0.5 * (s.radii()[i] + s.radii()[j]) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// A uniform variate in [−1, 1) from an xorshift state.
    fn unit(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    #[test]
    fn agrees_with_triplet_assembly() {
        // Same pattern, off-diagonal blocks bit for bit (one product
        // each), diagonal blocks to summation-order rounding.
        for (fraction, seed, s_cut) in
            [(0.1, 11, 3.0), (0.4, 12, 2.4), (0.5, 13, 3.6)]
        {
            let s = pack_ecoli(150, fraction, seed);
            let cfg = ResistanceConfig { s_cut, ..Default::default() };
            let (new, old) =
                (assemble_resistance(&s, &cfg), assemble_triplets(&s, &cfg));
            assert_eq!(new.row_ptr(), old.row_ptr());
            assert_eq!(new.col_idx(), old.col_idx());
            for bi in 0..new.nb_rows() {
                let (cols, blocks) = new.block_row(bi);
                for (&bj, b) in cols.iter().zip(blocks) {
                    let want = old.block_at(bi, bj as usize).unwrap();
                    if bi != bj as usize {
                        assert_eq!(b.0.map(f64::to_bits), want.0.map(f64::to_bits));
                        continue;
                    }
                    let tol = 16.0 * f64::EPSILON * want.abs_sum();
                    for k in 0..9 {
                        assert!(
                            (b.0[k] - want.0[k]).abs() <= tol,
                            "row {bi} entry {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn held_list_covers_every_interacting_pair_until_it_is_rebuilt() {
        let cfg = ResistanceConfig::default();
        let mut s = pack_ecoli(120, 0.45, 21);
        let mut list = PairList::build(&s, &cfg);
        let mut state = 0x5eed_u64;
        let (mut held, mut rebuilt) = (0, 0);
        for _ in 0..400 {
            for i in 0..s.len() {
                let step = 0.01 * s.radii()[i];
                s.displace(i, [0, 1, 2].map(|_| step * unit(&mut state)));
            }
            let before = list.rebuilds;
            list.refresh(&s, &cfg);
            if list.rebuilds == before {
                held += 1;
            } else {
                rebuilt += 1;
            }
            for pair in interacting(&s, cfg.s_cut) {
                let found = list.pairs.binary_search_by_key(&pair, rows);
                assert!(found.is_ok(), "missing {pair:?}");
            }
            assert_eq!(
                bits(&list.fill(&s, &cfg)),
                bits(&assemble_resistance(&s, &cfg))
            );
        }
        assert!(
            held > 10 * rebuilt && rebuilt > 0,
            "{held} held, {rebuilt} rebuilt"
        );
    }

    #[test]
    fn pair_crosses_the_cutoff_both_ways_on_one_list() {
        // Two unit spheres on the x axis: s = distance. Start outside
        // s_cut but inside the skin, step in, step out again.
        let cfg = ResistanceConfig::default();
        let at = |x: f64| {
            ParticleSystem::new(
                vec![[10.0, 10.0, 10.0], [10.0 + x, 10.0, 10.0]],
                vec![1.0, 1.0],
                [40.0; 3],
            )
        };
        let mut list = PairList::build(&at(3.05), &cfg);
        assert_eq!(list.pairs, [(0, 1)]);
        for (x, blocks) in [(3.05, 2), (2.97, 4), (3.0, 4), (3.04, 2), (2.99, 4)] {
            let s = at(x);
            list.refresh(&s, &cfg);
            assert_eq!(list.rebuilds, 1, "moved {} of a radius", x - 3.05);
            let r = list.fill(&s, &cfg);
            assert_eq!(r.nnz_blocks(), blocks, "x = {x}");
            assert_eq!(bits(&r), bits(&assemble_resistance(&s, &cfg)));
        }
    }

    #[test]
    fn drift_past_half_the_skin_rebuilds() {
        let cfg = ResistanceConfig::default();
        let mut s = small_system(0.4, 7);
        let mut list = PairList::build(&s, &cfg);
        let a = s.radii()[5];
        s.displace(5, [0.9 * MAX_DRIFT * a, 0.0, 0.0]);
        list.refresh(&s, &cfg);
        assert_eq!(list.rebuilds, 1);
        s.displace(5, [0.0, 0.2 * MAX_DRIFT * a, 0.0]);
        list.refresh(&s, &cfg);
        assert_eq!(list.rebuilds, 1, "0.92 of the limit in norm");
        s.displace(5, [0.0, 0.5 * MAX_DRIFT * a, 0.0]);
        list.refresh(&s, &cfg);
        assert_eq!(list.rebuilds, 2, "1.14 of the limit");
        assert_eq!(list.built_at, s.positions());
        // Drift is measured through the periodic wrap, not across the box.
        let l = s.box_lengths()[0];
        s.displace(5, [l, 0.0, 0.0]);
        list.refresh(&s, &cfg);
        assert_eq!(list.rebuilds, 2);
    }

    #[test]
    fn matrix_has_one_block_row_per_particle() {
        let s = small_system(0.3, 1);
        let r = assemble_resistance(&s, &ResistanceConfig::default());
        assert_eq!(r.nb_rows(), 60);
        assert_eq!(r.n_rows(), 180);
    }

    #[test]
    fn matrix_is_symmetric() {
        let s = small_system(0.4, 2);
        let r = assemble_resistance(&s, &ResistanceConfig::default());
        assert!(r.is_symmetric_within(1e-9));
    }

    #[test]
    fn matrix_is_positive_definite() {
        let s = small_system(0.5, 3);
        let cfg = ResistanceConfig::default();
        let r = assemble_resistance(&s, &cfg);
        // Rayleigh quotients for several pseudo-random vectors must
        // exceed the exact lower bound.
        let lb = spectrum_lower_bound(&s, &cfg);
        assert!(lb > 0.0);
        let n = r.n_rows();
        let mut state = 99u64;
        for _ in 0..5 {
            let v: Vec<f64> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                })
                .collect();
            let mut rv = vec![0.0; n];
            r.apply(&v, &mut rv);
            let num: f64 = v.iter().zip(&rv).map(|(a, b)| a * b).sum();
            let den: f64 = v.iter().map(|a| a * a).sum();
            assert!(num / den >= lb * (1.0 - 1e-9), "{} < {lb}", num / den);
        }
    }

    #[test]
    fn density_grows_with_cutoff() {
        // The paper generated mat1..mat3 by changing the cutoff radius.
        let s = small_system(0.5, 4);
        let narrow = assemble_resistance(
            &s,
            &ResistanceConfig { s_cut: 2.2, ..Default::default() },
        );
        let wide = assemble_resistance(
            &s,
            &ResistanceConfig { s_cut: 4.0, ..Default::default() },
        );
        assert!(wide.nnz_blocks() > narrow.nnz_blocks());
        assert!(wide.blocks_per_row() > narrow.blocks_per_row());
    }

    #[test]
    fn density_grows_with_occupancy() {
        let cfg = ResistanceConfig::default();
        let dilute = assemble_resistance(&small_system(0.1, 5), &cfg);
        let dense = assemble_resistance(&small_system(0.5, 5), &cfg);
        assert!(dense.blocks_per_row() > dilute.blocks_per_row());
    }

    #[test]
    fn isolated_particles_yield_pure_drag() {
        // Two far-apart particles: R is exactly the diagonal drag.
        let s = ParticleSystem::new(
            vec![[10.0, 10.0, 10.0], [60.0, 60.0, 60.0]],
            vec![1.0, 2.0],
            [100.0; 3],
        );
        let cfg = ResistanceConfig::default();
        let r = assemble_resistance(&s, &cfg);
        assert_eq!(r.nnz_blocks(), 2);
        let mu = mu_f(s.volume_fraction());
        let want0 = 6.0 * std::f64::consts::PI * mu;
        assert!((r.block_at(0, 0).unwrap().get(0, 0) - want0).abs() < 1e-9);
        assert!((r.block_at(1, 1).unwrap().get(1, 1) - 2.0 * want0).abs() < 1e-9);
    }

    #[test]
    fn touching_pair_dominated_by_lubrication() {
        let s = ParticleSystem::new(
            vec![[10.0, 10.0, 10.0], [12.05, 10.0, 10.0]],
            vec![1.0, 1.0],
            [50.0; 3],
        );
        let cfg = ResistanceConfig::default();
        let r = assemble_resistance(&s, &cfg);
        assert_eq!(r.nnz_blocks(), 4);
        // Squeeze resistance along x should dwarf the bare drag.
        let diag = r.block_at(0, 0).unwrap().get(0, 0);
        let drag = 6.0 * std::f64::consts::PI * mu_f(s.volume_fraction());
        assert!(diag > 3.0 * drag, "diag {diag} vs drag {drag}");
        // Off-diagonal block is the negated pair block.
        let off = r.block_at(0, 1).unwrap();
        let d00 = r.block_at(0, 0).unwrap().get(0, 0);
        assert!((off.get(0, 0) + (d00 - drag)).abs() < 1e-9);
    }

    #[test]
    fn mu_f_increases_with_occupancy() {
        assert!(mu_f(0.0) == 1.0);
        assert!(mu_f(0.3) > mu_f(0.1));
        assert!(mu_f(0.5) > 2.0);
    }

    #[test]
    fn gershgorin_lower_bound_respects_exact_bound() {
        let s = small_system(0.5, 6);
        let cfg = ResistanceConfig::default();
        let r = assemble_resistance(&s, &cfg);
        // Gershgorin may be loose (even negative), but the exact bound
        // must be positive and below the Gershgorin upper bound.
        let lb = spectrum_lower_bound(&s, &cfg);
        assert!(lb > 0.0);
        assert!(r.gershgorin_upper_bound() > lb);
    }
}
