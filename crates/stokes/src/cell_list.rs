//! Linked-cell neighbor search under periodic boundaries.
//!
//! The resistance matrix couples only particle pairs whose
//! center-to-center distance is below a cutoff; the cell grids here
//! find those pairs in O(n) instead of O(n²). Resistance assembly runs
//! the size-classed search ([`for_each_scaled_pair`]) only when its
//! held pair list goes stale; the packer runs it per sweep.

use crate::particle::ParticleSystem;

/// A cell grid over a *subset* of particles — the building block of the
/// size-class pair search.
struct SubsetGrid {
    dims: [usize; 3],
    cell_ptr: Vec<usize>,
    particles: Vec<u32>,
}

impl SubsetGrid {
    fn build(system: &ParticleSystem, members: &[u32], cutoff: f64) -> Self {
        let bl = system.box_lengths();
        let mut dims = [1usize; 3];
        for d in 0..3 {
            dims[d] = ((bl[d] / cutoff).floor() as usize).max(1);
        }
        // Cap the grid at a few cells per member — enlarging cells only
        // widens coverage, so correctness is preserved while dilute
        // systems avoid absurd allocations.
        let cap = (8 * members.len()).max(64);
        while dims[0] * dims[1] * dims[2] > cap {
            let dmax = (0..3).max_by_key(|&d| dims[d]).unwrap();
            dims[dmax] = dims[dmax].div_ceil(2);
        }
        let n_cells = dims[0] * dims[1] * dims[2];
        let cell_index = |p: &[f64; 3]| -> usize {
            let mut c = [0usize; 3];
            for d in 0..3 {
                let fr = (p[d] / bl[d]).rem_euclid(1.0);
                c[d] = ((fr * dims[d] as f64) as usize).min(dims[d] - 1);
            }
            (c[2] * dims[1] + c[1]) * dims[0] + c[0]
        };
        let mut counts = vec![0usize; n_cells + 1];
        let cells: Vec<usize> = members
            .iter()
            .map(|&i| {
                let c = cell_index(&system.positions()[i as usize]);
                counts[c + 1] += 1;
                c
            })
            .collect();
        for c in 0..n_cells {
            counts[c + 1] += counts[c];
        }
        let cell_ptr = counts.clone();
        let mut next = counts;
        let mut particles = vec![0u32; members.len()];
        for (&i, &c) in members.iter().zip(&cells) {
            particles[next[c]] = i;
            next[c] += 1;
        }
        SubsetGrid { dims, cell_ptr, particles }
    }

    /// Visits every member within the 27-cell neighborhood of `p`.
    fn for_each_near(
        &self,
        system: &ParticleSystem,
        p: &[f64; 3],
        mut f: impl FnMut(u32),
    ) {
        let bl = system.box_lengths();
        let [nx, ny, nz] = self.dims;
        let mut base = [0isize; 3];
        for d in 0..3 {
            let fr = (p[d] / bl[d]).rem_euclid(1.0);
            base[d] = ((fr * self.dims[d] as f64) as usize).min(self.dims[d] - 1)
                as isize;
        }
        let mut seen = [usize::MAX; 27];
        let mut n_seen = 0;
        for dz in -1isize..=1 {
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    let ox = wrap(base[0] + dx, nx);
                    let oy = wrap(base[1] + dy, ny);
                    let oz = wrap(base[2] + dz, nz);
                    let c = (oz * ny + oy) * nx + ox;
                    if seen[..n_seen].contains(&c) {
                        continue; // tiny grids alias
                    }
                    seen[n_seen] = c;
                    n_seen += 1;
                    for &j in
                        &self.particles[self.cell_ptr[c]..self.cell_ptr[c + 1]]
                    {
                        f(j);
                    }
                }
            }
        }
    }
}

/// Visits every unordered pair `(i, j)` with minimum-image distance at
/// most `scale · (a_i + a_j)/2` — the scaled-separation criterion the
/// resistance cutoff uses (`scale = s_cut`) and the overlap check uses
/// (`scale = 2`). Particles are bucketed into radius classes so small
/// particles never pay for the rare giant ones' interaction range; this
/// is the polydisperse analogue of a Verlet cell list.
pub fn for_each_scaled_pair(
    system: &ParticleSystem,
    scale: f64,
    mut f: impl FnMut(usize, usize, f64),
) {
    let n = system.len();
    if n < 2 {
        return;
    }
    let radii = system.radii();
    let rmin = radii.iter().cloned().fold(f64::INFINITY, f64::min);
    let rmax = system.max_radius();

    // Geometric class boundaries, at most 4 classes.
    let n_classes = if rmax / rmin > 1.5 { 4usize } else { 1 };
    let ratio = (rmax / rmin).powf(1.0 / n_classes as f64);
    let class_of = |r: f64| -> usize {
        let mut c = 0;
        let mut bound = rmin * ratio;
        while c + 1 < n_classes && r > bound * (1.0 + 1e-12) {
            c += 1;
            bound *= ratio;
        }
        c
    };
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_classes];
    let mut class_rmax = vec![0.0f64; n_classes];
    for (i, &r) in radii.iter().enumerate() {
        let c = class_of(r);
        members[c].push(i as u32);
        class_rmax[c] = class_rmax[c].max(r);
    }

    let bl = system.box_lengths();
    let half_box = bl[0].min(bl[1]).min(bl[2]) / 2.0;
    for ca in 0..n_classes {
        if members[ca].is_empty() {
            continue;
        }
        for cb in ca..n_classes {
            if members[cb].is_empty() {
                continue;
            }
            let cutoff = (scale * 0.5 * (class_rmax[ca] + class_rmax[cb]))
                .min(half_box - f64::EPSILON)
                .max(1e-12);
            let grid = SubsetGrid::build(system, &members[cb], cutoff);
            for &i in &members[ca] {
                let pi = system.positions()[i as usize];
                grid.for_each_near(system, &pi, |j| {
                    // same-class pairs once; cross-class all (i, j) distinct
                    if ca == cb && j <= i {
                        return;
                    }
                    let (i, j) = (i as usize, j as usize);
                    let d = system.minimum_image(i, j);
                    let dist2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                    let pair_cut = scale * 0.5 * (radii[i] + radii[j]);
                    if dist2 <= pair_cut * pair_cut {
                        f(i, j, dist2.sqrt());
                    }
                });
            }
        }
    }
}

#[inline]
fn wrap(v: isize, n: usize) -> usize {
    v.rem_euclid(n as isize) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniform radius of the test systems, so `scale · RADIUS` is a
    /// plain distance cutoff.
    const RADIUS: f64 = 0.3;

    fn brute_force_pairs(s: &ParticleSystem, scale: f64) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..s.len() {
            for j in i + 1..s.len() {
                if s.distance(i, j) <= scale * RADIUS {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// What the search reports, in `(min, max)` index order, sorted but
    /// *not* deduplicated; every reported distance is checked on the way.
    fn searched_pairs(s: &ParticleSystem, scale: f64) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for_each_scaled_pair(s, scale, |i, j, d| {
            assert!((d - s.distance(i, j)).abs() < 1e-12);
            out.push((i.min(j), i.max(j)));
        });
        out.sort_unstable();
        out
    }

    fn pseudo_system(n: usize, box_len: f64, seed: u64) -> ParticleSystem {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let positions: Vec<[f64; 3]> = (0..n)
            .map(|_| [next() * box_len, next() * box_len, next() * box_len])
            .collect();
        ParticleSystem::new(positions, vec![RADIUS; n], [box_len; 3])
    }

    #[test]
    fn matches_brute_force_when_grid_is_tiny() {
        // Box barely larger than the cutoff: the 27-cell stencil wraps
        // onto the same eight cells several times over.
        let s = pseudo_system(40, 2.5, 7);
        let scale = 4.0;
        let members: Vec<u32> = (0..40).collect();
        let grid = SubsetGrid::build(&s, &members, scale * RADIUS);
        assert_eq!(grid.dims, [2, 2, 2]);
        assert_eq!(searched_pairs(&s, scale), brute_force_pairs(&s, scale));
    }

    #[test]
    fn reports_each_pair_once_on_regular_grid() {
        for (n, box_len, seed, cutoff) in [(100, 8.0, 3, 1.0), (200, 10.0, 42, 1.7)]
        {
            let s = pseudo_system(n, box_len, seed);
            let scale = cutoff / RADIUS;
            // Nothing was deduplicated, so equality also means "once".
            assert_eq!(searched_pairs(&s, scale), brute_force_pairs(&s, scale));
        }
    }

    #[test]
    fn periodic_pair_across_boundary_found() {
        let s = ParticleSystem::new(
            vec![[0.2, 5.0, 5.0], [9.8, 5.0, 5.0]],
            vec![0.1, 0.1],
            [10.0; 3],
        );
        let mut pairs = Vec::new();
        for_each_scaled_pair(&s, 10.0, |i, j, d| pairs.push((i, j, d)));
        assert_eq!(pairs.len(), 1);
        assert!((pairs[0].2 - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_system() {
        let s = ParticleSystem::new(vec![], vec![], [5.0; 3]);
        for_each_scaled_pair(&s, 3.0, |_, _, _| panic!("no pair to report"));
    }
}
