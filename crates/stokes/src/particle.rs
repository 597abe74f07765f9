//! Particle configurations and the E. coli radii distribution.

/// A collection of spheres in a periodic rectangular box. Lengths are in
/// ångströms to match the paper's Table IV radii.
#[derive(Clone, Debug)]
pub struct ParticleSystem {
    positions: Vec<[f64; 3]>,
    radii: Vec<f64>,
    box_lengths: [f64; 3],
}

impl ParticleSystem {
    /// Builds a system; positions are wrapped into the box.
    pub fn new(
        mut positions: Vec<[f64; 3]>,
        radii: Vec<f64>,
        box_lengths: [f64; 3],
    ) -> Self {
        assert_eq!(positions.len(), radii.len());
        assert!(box_lengths.iter().all(|&l| l > 0.0));
        assert!(radii.iter().all(|&r| r > 0.0));
        for p in positions.iter_mut() {
            for d in 0..3 {
                p[d] = p[d].rem_euclid(box_lengths[d]);
            }
        }
        ParticleSystem { positions, radii, box_lengths }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the system has no particles.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Particle positions.
    pub fn positions(&self) -> &[[f64; 3]] {
        &self.positions
    }

    /// Particle radii.
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// Box side lengths.
    pub fn box_lengths(&self) -> [f64; 3] {
        self.box_lengths
    }

    /// Largest particle radius.
    pub fn max_radius(&self) -> f64 {
        self.radii.iter().fold(0.0f64, |a, &r| a.max(r))
    }

    /// Volume fraction occupied by the spheres.
    pub fn volume_fraction(&self) -> f64 {
        let v: f64 = self
            .radii
            .iter()
            .map(|r| 4.0 / 3.0 * std::f64::consts::PI * r * r * r)
            .sum();
        v / (self.box_lengths[0] * self.box_lengths[1] * self.box_lengths[2])
    }

    /// Minimum-image displacement `r_j − r_i` under periodic boundaries.
    #[inline]
    pub fn minimum_image(&self, i: usize, j: usize) -> [f64; 3] {
        self.minimum_image_between(&self.positions[i], &self.positions[j])
    }

    /// Minimum-image displacement `to − from` of two points in the box.
    #[inline]
    pub fn minimum_image_between(
        &self,
        from: &[f64; 3],
        to: &[f64; 3],
    ) -> [f64; 3] {
        let mut d = [0.0; 3];
        for k in 0..3 {
            let l = self.box_lengths[k];
            let mut diff = to[k] - from[k];
            diff -= l * (diff / l).round();
            d[k] = diff;
        }
        d
    }

    /// Center-to-center minimum-image distance.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        let d = self.minimum_image(i, j);
        (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt()
    }

    /// Surface gap between particles `i` and `j` (negative = overlap).
    pub fn gap(&self, i: usize, j: usize) -> f64 {
        self.distance(i, j) - self.radii[i] - self.radii[j]
    }

    /// Displaces particle `i` by `delta`, wrapping into the box.
    #[inline]
    pub fn displace(&mut self, i: usize, delta: [f64; 3]) {
        for k in 0..3 {
            self.positions[i][k] =
                (self.positions[i][k] + delta[k]).rem_euclid(self.box_lengths[k]);
        }
    }

    /// Replaces all positions (used by state save/restore), wrapping
    /// into the box.
    pub fn set_positions_flat(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), 3 * self.len());
        for (i, chunk) in flat.chunks_exact(3).enumerate() {
            for k in 0..3 {
                self.positions[i][k] = chunk[k].rem_euclid(self.box_lengths[k]);
            }
        }
    }

    /// Flattens positions to a `3n` vector.
    pub fn positions_flat(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(3 * self.len());
        for p in &self.positions {
            out.extend_from_slice(p);
        }
        out
    }
}

impl ParticleSystem {
    /// Relabels particles in Morton (Z-curve) order of their positions.
    /// Nearby particles get nearby indices, so the resistance matrix has
    /// banded structure and GSPMV's `x` accesses are cache-local — the
    /// ordering optimization the paper cites as standard for SPMV. Call
    /// once after packing; the labelling stays good as particles diffuse.
    pub fn sort_morton(&mut self) {
        let side = 1u32 << 8;
        let codes: Vec<u64> = self
            .positions
            .iter()
            .map(|p| {
                let mut c = [0u32; 3];
                for d in 0..3 {
                    let frac = (p[d] / self.box_lengths[d]).rem_euclid(1.0);
                    c[d] = ((frac * side as f64) as u32).min(side - 1);
                }
                morton3(c)
            })
            .collect();
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| codes[i]);
        self.positions = order.iter().map(|&i| self.positions[i]).collect();
        self.radii = order.iter().map(|&i| self.radii[i]).collect();
    }
}

/// Interleaves the low 21 bits of each coordinate into a Morton code.
fn morton3(c: [u32; 3]) -> u64 {
    fn spread(v: u32) -> u64 {
        let mut x = v as u64 & 0x1f_ffff;
        x = (x | x << 32) & 0x1f00000000ffff;
        x = (x | x << 16) & 0x1f0000ff0000ff;
        x = (x | x << 8) & 0x100f00f00f00f00f;
        x = (x | x << 4) & 0x10c30c30c30c30c3;
        x = (x | x << 2) & 0x1249249249249249;
        x
    }
    spread(c[0]) | spread(c[1]) << 1 | spread(c[2]) << 2
}

/// The paper's Table IV: radii (Å) and number percentages of the protein
/// size distribution of the E. coli cytoplasm (Ando & Skolnick 2010).
pub const ECOLI_DISTRIBUTION: [(f64, f64); 15] = [
    (115.24, 2.43),
    (85.23, 3.16),
    (66.49, 6.55),
    (49.16, 0.97),
    (45.43, 0.49),
    (43.06, 3.64),
    (42.48, 2.91),
    (39.16, 2.67),
    (36.76, 8.01),
    (35.94, 8.01),
    (31.71, 10.92),
    (27.77, 25.97),
    (25.75, 8.25),
    (24.01, 9.95),
    (21.42, 6.07),
];

/// Returns Table IV as `(radius Å, fraction)` pairs with fractions
/// normalized to sum to one.
pub fn ecoli_radii_distribution() -> Vec<(f64, f64)> {
    let total: f64 = ECOLI_DISTRIBUTION.iter().map(|(_, p)| p).sum();
    ECOLI_DISTRIBUTION.iter().map(|&(r, p)| (r, p / total)).collect()
}

/// Samples `n` radii from the Table IV distribution given uniform(0,1)
/// variates from `uniform`.
pub fn sample_ecoli_radii(n: usize, mut uniform: impl FnMut() -> f64) -> Vec<f64> {
    let dist = ecoli_radii_distribution();
    (0..n)
        .map(|_| {
            let mut u = uniform();
            for &(r, p) in &dist {
                if u < p {
                    return r;
                }
                u -= p;
            }
            dist.last().unwrap().0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_particle_system() -> ParticleSystem {
        ParticleSystem::new(
            vec![[1.0, 1.0, 1.0], [9.5, 1.0, 1.0]],
            vec![0.5, 0.5],
            [10.0, 10.0, 10.0],
        )
    }

    #[test]
    fn minimum_image_wraps_across_boundary() {
        let s = two_particle_system();
        let d = s.minimum_image(0, 1);
        // shortest path crosses the boundary: 9.5 − 1.0 − 10 = −1.5
        assert!((d[0] + 1.5).abs() < 1e-12, "{d:?}");
        assert!((s.distance(0, 1) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn gap_subtracts_radii() {
        let s = two_particle_system();
        assert!((s.gap(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn positions_wrapped_on_construction() {
        let s = ParticleSystem::new(
            vec![[-1.0, 12.0, 5.0]],
            vec![1.0],
            [10.0, 10.0, 10.0],
        );
        assert_eq!(s.positions()[0], [9.0, 2.0, 5.0]);
    }

    #[test]
    fn volume_fraction_of_single_unit_sphere() {
        let s = ParticleSystem::new(vec![[0.0; 3]], vec![1.0], [2.0, 2.0, 2.0]);
        let want = 4.0 / 3.0 * std::f64::consts::PI / 8.0;
        assert!((s.volume_fraction() - want).abs() < 1e-12);
    }

    #[test]
    fn displace_wraps() {
        let mut s = two_particle_system();
        s.displace(0, [-2.0, 0.0, 0.0]);
        assert!((s.positions()[0][0] - 9.0).abs() < 1e-12);
    }

    #[test]
    fn flat_round_trip() {
        let mut s = two_particle_system();
        let flat = s.positions_flat();
        assert_eq!(flat.len(), 6);
        s.displace(0, [1.0, 1.0, 1.0]);
        s.set_positions_flat(&flat);
        assert_eq!(s.positions()[0], [1.0, 1.0, 1.0]);
    }

    #[test]
    fn ecoli_distribution_normalized_and_matches_table() {
        let d = ecoli_radii_distribution();
        assert_eq!(d.len(), 15);
        let sum: f64 = d.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(d[0].0, 115.24);
        // the 27.77 Å bin is the most common (25.97%)
        let max = d.iter().cloned().fold(
            (0.0, 0.0),
            |a, b| {
                if b.1 > a.1 {
                    b
                } else {
                    a
                }
            },
        );
        assert_eq!(max.0, 27.77);
    }

    #[test]
    fn sampled_radii_follow_distribution() {
        let mut state = 12345u64;
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let radii = sample_ecoli_radii(20_000, &mut uniform);
        assert!(radii.iter().all(|r| (21.0..116.0).contains(r)));
        let common = radii.iter().filter(|&&r| (r - 27.77).abs() < 1e-9).count()
            as f64
            / radii.len() as f64;
        assert!((common - 0.2597).abs() < 0.02, "fraction {common}");
    }
}
