//! Deterministic pathological-matrix corpus.
//!
//! Every generator is a pure function of its seed (xorshift64*), so
//! a corpus entry's matrix is byte-identical across runs, platforms,
//! and thread counts — a failing differential check names an entry and
//! the exact same matrix can be regenerated anywhere.
//!
//! The corpus deliberately over-represents the corners the kernels
//! specialize on: empty block rows (chunk balancing, phase-2 slab
//! reduction over nothing), fully dense block rows (one row dominating
//! a chunk), 1×1 and single-block matrices (`nb < nchunks`, `nb <
//! nthreads`), rectangular shapes, and *almost*-symmetric matrices
//! (which the symmetric path must refuse).

use mrhs_sparse::{
    BcrsMatrix, Block3, BlockTripletBuilder, MultiVec, SymmetricBcrs,
};
use mrhs_stokes::{assemble_resistance, ResistanceConfig, SystemBuilder};

/// Corpus sizing. `Small` keeps the dense references cheap enough for
/// the default `cargo test` gate; `Large` crosses the kernels'
/// parallel thresholds and is reserved for the scheduled release-mode
/// run (`cargo test -p oracle --release -- --ignored`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Small,
    Large,
}

/// One matrix of the corpus.
pub struct CorpusEntry {
    /// Stable identifier, printed in failure reports.
    pub name: &'static str,
    /// The matrix under test (full BCRS storage).
    pub matrix: BcrsMatrix,
    /// Symmetric half-storage view, when the matrix admits one. Built
    /// by `SymmetricBcrs::from_full` at `1e-12`; entries that are
    /// *meant* to be rejected (non-symmetric perturbations) carry
    /// `None` and double as negative tests for the conversion.
    pub symmetric: Option<SymmetricBcrs>,
    /// Whether the generator intended the matrix to be symmetric (used
    /// to assert that `from_full` accepts exactly the right entries).
    pub intended_symmetric: bool,
}

impl CorpusEntry {
    fn new(
        name: &'static str,
        matrix: BcrsMatrix,
        intended_symmetric: bool,
    ) -> Self {
        let symmetric = if matrix.n_rows() == matrix.n_cols() {
            SymmetricBcrs::from_full(&matrix, 1e-12)
        } else {
            None
        };
        CorpusEntry { name, matrix, symmetric, intended_symmetric }
    }
}

/// xorshift64* — the corpus PRNG. Deliberately not the workspace's
/// noise source, so corpus matrices can't drift when noise generation
/// changes.
#[derive(Clone)]
pub struct SplitStream {
    state: u64,
}

impl SplitStream {
    pub fn new(seed: u64) -> Self {
        // splitmix64 finalizer, so adjacent seeds diverge immediately
        // (a plain `seed | 1` would alias 42 and 43).
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        SplitStream { state: if z == 0 { 0x9e37_79b9 } else { z } }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[-0.5, 0.5)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn block(&mut self) -> Block3 {
        let mut b = [0.0; 9];
        for v in &mut b {
            *v = self.uniform();
        }
        Block3(b)
    }

    fn sym_block(&mut self) -> Block3 {
        let mut b = self.block();
        for i in 0..3 {
            for j in i + 1..3 {
                let avg = 0.5 * (b.get(i, j) + b.get(j, i));
                *b.get_mut(i, j) = avg;
                *b.get_mut(j, i) = avg;
            }
        }
        b
    }
}

/// Deterministic pseudo-random multivector for backend inputs —
/// seeded per `(entry, m)` by the runner so inputs are reproducible.
pub fn pseudo_multivec(n: usize, m: usize, seed: u64) -> MultiVec {
    let mut rng = SplitStream::new(seed);
    let mut v = MultiVec::zeros(n, m);
    for x in v.as_mut_slice() {
        *x = rng.uniform() * 4.0;
    }
    v
}

/// The `m` grid every backend runs at: each specialized kernel width
/// plus off-grid values that force the strip-mined fallback, including the
/// `m = p±1` neighbours of several specializations.
pub fn m_values(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Small => {
            vec![1, 2, 3, 4, 5, 7, 8, 11, 12, 16, 17, 24, 32, 33, 42, 47, 48]
        }
        // Large trims the grid: the point is size, not m-coverage.
        Scale::Large => vec![1, 4, 16, 31, 48],
    }
}

/// Symmetric positive-definite banded matrix: `diag_shift·I` diagonal
/// blocks plus symmetric couplings to `band` neighbours.
fn banded_spd(nb: usize, band: usize, seed: u64) -> BcrsMatrix {
    let mut rng = SplitStream::new(seed);
    let mut t = BlockTripletBuilder::square(nb);
    for i in 0..nb {
        let mut d = rng.sym_block();
        for k in 0..3 {
            *d.get_mut(k, k) += 4.0 + band as f64;
        }
        t.add(i, i, d);
    }
    for i in 0..nb {
        for off in 1..=band {
            if i + off < nb {
                t.add_symmetric_pair(i, i + off, rng.block() * 0.35);
            }
        }
    }
    t.build()
}

/// SPD with diagonal blocks spanning `1e-3…1e3`: `D·B·D` for a banded
/// SPD `B` (non-diagonal 3×3 diagonal blocks) and a per-block-row
/// scaling `D = diag(10^{±1.5})`. Its condition number is that of `B`
/// times up to `1e6`; a block-Jacobi preconditioner undoes `D`
/// exactly, and a stopping test that read the preconditioned residual
/// `rᵀM⁻¹r` instead of `‖r‖₂` would weigh each row by `10^{∓3}` and
/// stop at a true residual orders of magnitude off.
pub fn graded_spd(nb: usize, band: usize, seed: u64) -> BcrsMatrix {
    let base = banded_spd(nb, band, seed);
    // Exponents −1.5…1.5 in equal steps, visited out of order.
    let scale = |bi: usize| {
        let step = (bi * 7) % nb;
        10f64.powf(3.0 * step as f64 / (nb - 1).max(1) as f64 - 1.5)
    };
    let mut t = BlockTripletBuilder::square(nb);
    for bi in 0..nb {
        let (cols, blocks) = base.block_row(bi);
        for (c, b) in cols.iter().zip(blocks) {
            t.add(bi, *c as usize, *b * (scale(bi) * scale(*c as usize)));
        }
    }
    t.build()
}

/// Unstructured random sparsity, not symmetric.
fn irregular(
    nb_rows: usize,
    nb_cols: usize,
    fills: usize,
    seed: u64,
) -> BcrsMatrix {
    let mut rng = SplitStream::new(seed);
    let mut t = BlockTripletBuilder::new(nb_rows, nb_cols);
    for _ in 0..fills {
        t.add(rng.below(nb_rows), rng.below(nb_cols), rng.block());
    }
    t.build()
}

/// Builds the corpus at the given scale. Entries are ordered
/// cheapest-first so a corpus failure surfaces on the smallest
/// reproducer available.
pub fn corpus(scale: Scale) -> Vec<CorpusEntry> {
    let (nb, band) = match scale {
        Scale::Small => (24usize, 3usize),
        Scale::Large => (700, 8),
    };

    let mut entries = Vec::new();

    // 1×1 block matrix holding a single zero block: the smallest
    // possible square input; exercises nb < nchunks and nb < p.
    entries.push(CorpusEntry::new(
        "zero_1x1",
        BlockTripletBuilder::square(1).build(),
        true,
    ));

    // 1×1 with one symmetric block.
    let mut t = BlockTripletBuilder::square(1);
    t.add(0, 0, SplitStream::new(101).sym_block() + Block3::scaled_identity(3.0));
    entries.push(CorpusEntry::new("single_block_1x1", t.build(), true));

    // Diagonal-only matrix: the symmetric path's upper CSR is empty,
    // so phase 2 reduces over zero slabs.
    let mut t = BlockTripletBuilder::square(7);
    let mut rng = SplitStream::new(202);
    for i in 0..7 {
        t.add(i, i, rng.sym_block() + Block3::scaled_identity(2.0));
    }
    entries.push(CorpusEntry::new("diag_only", t.build(), true));

    // Empty rows: rows 0, 2, 5 of an 8-row matrix have no blocks at
    // all (not even a diagonal). Weighted chunking must not starve or
    // double-count them.
    let mut t = BlockTripletBuilder::square(8);
    let mut rng = SplitStream::new(303);
    for &i in &[1usize, 3, 4, 6, 7] {
        t.add(i, i, rng.sym_block() + Block3::scaled_identity(2.0));
    }
    t.add_symmetric_pair(1, 4, rng.block() * 0.25);
    t.add_symmetric_pair(3, 7, rng.block() * 0.25);
    entries.push(CorpusEntry::new("empty_rows", t.build(), true));

    // One fully dense block row (and column, to stay symmetric): row 0
    // couples to everything. A single row dominates every chunking.
    let dense_nb = match scale {
        Scale::Small => 12,
        Scale::Large => 160,
    };
    let mut t = BlockTripletBuilder::square(dense_nb);
    let mut rng = SplitStream::new(404);
    for i in 0..dense_nb {
        t.add(
            i,
            i,
            rng.sym_block() + Block3::scaled_identity(3.0 + dense_nb as f64 * 0.5),
        );
    }
    for j in 1..dense_nb {
        t.add_symmetric_pair(0, j, rng.block() * 0.3);
    }
    entries.push(CorpusEntry::new("dense_block_row", t.build(), true));

    // nb = 2 (< any realistic thread/partition count).
    entries.push(CorpusEntry::new("tiny_nb2", banded_spd(2, 1, 505), true));

    // The structured SPD banded workhorse.
    entries.push(CorpusEntry::new("banded_spd", banded_spd(nb, band, 606), true));

    // Non-symmetric perturbation of the same banded SPD matrix: one
    // off-diagonal scalar nudged by 1e-3. `from_full` must refuse it.
    let sym = banded_spd(nb, band, 606);
    let mut t = BlockTripletBuilder::square(nb);
    for bi in 0..nb {
        let (cols, blocks) = sym.block_row(bi);
        for (c, b) in cols.iter().zip(blocks) {
            t.add(bi, *c as usize, *b);
        }
    }
    let mut nudge = Block3::ZERO;
    *nudge.get_mut(0, 1) = 1e-3;
    t.add(0, 1.min(nb - 1), nudge);
    entries.push(CorpusEntry::new("nonsym_perturbed", t.build(), false));

    // Same construction with a perturbation *below* the conversion
    // tolerance in the opposite direction: must still be accepted when
    // callers pass a looser tolerance (checked separately in tests;
    // here it's rejected at the corpus's strict 1e-12).
    let mut nudge = Block3::ZERO;
    *nudge.get_mut(2, 0) = 1e-9;
    let mut t = BlockTripletBuilder::square(nb);
    for bi in 0..nb {
        let (cols, blocks) = sym.block_row(bi);
        for (c, b) in cols.iter().zip(blocks) {
            t.add(bi, *c as usize, *b);
        }
    }
    t.add(nb - 1, nb.saturating_sub(2), nudge);
    entries.push(CorpusEntry::new("nonsym_tiny_perturbed", t.build(), false));

    // Unstructured, non-symmetric, square.
    entries.push(CorpusEntry::new(
        "irregular_random",
        irregular(nb, nb, nb * 4, 707),
        false,
    ));

    // Rectangular: GSPMV on full storage only.
    entries.push(CorpusEntry::new("rect_wide", irregular(5, 9, 17, 808), false));
    entries.push(CorpusEntry::new("rect_tall", irregular(9, 5, 17, 909), false));

    if scale == Scale::Large {
        // Big enough to clear PARALLEL_THRESHOLD (16384 stored blocks):
        // 1100 rows × ~17 blocks/row.
        entries.push(CorpusEntry::new(
            "banded_spd_over_threshold",
            banded_spd(1100, 8, 1010),
            true,
        ));
    }

    entries
}

/// One matrix of the **nonsymmetric** corpus — the CFD-class systems
/// block BiCGStab is gated on (Krasnopolsky arXiv:1907.12874's
/// convection-dominated problems and perturbations thereof).
pub struct NonsymEntry {
    /// Stable identifier, printed in failure reports.
    pub name: &'static str,
    /// The matrix under test. Always square, full BCRS storage — the
    /// symmetric half-storage path must refuse all of these.
    pub matrix: BcrsMatrix,
    /// Entries constructed to stress the ρ/ω collapse paths: the solver
    /// gate only requires honest bookkeeping (converged, reported
    /// breakdown, or iteration-cap stagnation — never a silent wrong
    /// answer), not convergence.
    pub near_breakdown: bool,
}

/// Convection–diffusion block stencil: a banded diffusion part (like
/// [`banded_spd`]) plus a first-order upwind convection term that makes
/// the upstream coupling stronger than the downstream one by `2·peclet`
/// per band. Diagonally dominant, hence nonsingular and
/// BiCGStab-friendly, but genuinely nonsymmetric.
fn convection_diffusion(
    nb: usize,
    band: usize,
    peclet: f64,
    seed: u64,
) -> BcrsMatrix {
    let mut rng = SplitStream::new(seed);
    let mut t = BlockTripletBuilder::square(nb);
    for i in 0..nb {
        let mut d = rng.sym_block();
        for k in 0..3 {
            *d.get_mut(k, k) += 4.0 + 2.0 * band as f64;
        }
        t.add(i, i, d);
    }
    for i in 0..nb {
        for off in 1..=band {
            if i + off < nb {
                let base = rng.block() * 0.3;
                let fade = 1.0 / off as f64;
                // Downstream (i → i+off) weakened, upstream strengthened:
                // the upwind asymmetry of a first-order convection scheme.
                t.add(
                    i,
                    i + off,
                    (base + Block3::scaled_identity(-1.0 + peclet)) * fade,
                );
                t.add(
                    i + off,
                    i,
                    (base.transpose() + Block3::scaled_identity(-1.0 - peclet))
                        * fade,
                );
            }
        }
    }
    t.build()
}

/// Skew perturbation of the SPD banded workhorse: `A = S + ε·(K − Kᵀ)`
/// with `S` the [`banded_spd`] matrix and `K` random. The symmetric
/// part stays positive definite, so the field of values lies in the
/// right half plane and BiCGStab converges — but the matrix is
/// structurally nonsymmetric at every off-diagonal entry.
fn skew_perturbed(nb: usize, band: usize, eps: f64, seed: u64) -> BcrsMatrix {
    let sym = banded_spd(nb, band, seed);
    let mut rng = SplitStream::new(seed ^ 0xdead_beef);
    let mut t = BlockTripletBuilder::square(nb);
    for bi in 0..nb {
        let (cols, blocks) = sym.block_row(bi);
        for (c, b) in cols.iter().zip(blocks) {
            t.add(bi, *c as usize, *b);
        }
    }
    for i in 0..nb {
        for off in 1..=band {
            if i + off < nb {
                let k = rng.block() * eps;
                t.add(i, i + off, k);
                t.add(i + off, i, k.transpose() * -1.0);
            }
        }
    }
    t.build()
}

/// Skew-dominant near-breakdown case: `A = δ·I + (K − Kᵀ)` with a tiny
/// symmetric part. For nearly-skew `A`, `r̃ᵀ·A·r̃ ≈ δ·‖r̃‖²`, so the
/// shadow inner products BiCGStab divides by hover near zero — the
/// regime where ρ/ω collapse reporting must hold up.
fn skew_dominant(nb: usize, delta: f64, seed: u64) -> BcrsMatrix {
    let mut rng = SplitStream::new(seed);
    let mut t = BlockTripletBuilder::square(nb);
    for i in 0..nb {
        t.add(i, i, Block3::scaled_identity(delta));
    }
    for i in 0..nb {
        if i + 1 < nb {
            let k = rng.block();
            t.add(i, i + 1, k);
            t.add(i + 1, i, k.transpose() * -1.0);
        }
    }
    t.build()
}

/// A nonsymmetric operator with the pattern of the resistance of a
/// `particles` packing at the default gap floor ξ_min = 1e-3: every
/// stored off-diagonal pair gets `+K` above and `−Kᵀ` below the
/// diagonal, `K` uniform with entries up to `eps` times the pair's mean
/// absolute entry (as the benchmark builds its general operators, there
/// at ξ_min = 0.1). The symmetric part stays the resistance, so the
/// field of values stays in the right half plane; its near-contact
/// pairs make it ill-conditioned enough that unpreconditioned BiCGStab
/// stagnates on it. Not part of [`nonsym_corpus`]: it needs a packing,
/// not a seed alone.
pub fn soft_general(particles: usize, eps: f64) -> BcrsMatrix {
    let system = SystemBuilder::new(particles).seed(20_120_521).build();
    let soft = ResistanceConfig { xi_min: 1e-3, ..Default::default() };
    let a = assemble_resistance(system.particles(), &soft);
    // SplitMix64, so the perturbation is the same on every platform.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut unit = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let nb = a.nb_rows();
    let mut t = BlockTripletBuilder::square(nb);
    for i in 0..nb {
        let (cols, blocks) = a.block_row(i);
        for (c, b) in cols.iter().zip(blocks) {
            let j = *c as usize;
            t.add(i, j, *b);
            if j > i {
                let scale = eps * b.abs_sum() / 9.0;
                let mut k = *b;
                for e in 0..9 {
                    *k.get_mut(e / 3, e % 3) = scale * (2.0 * unit() - 1.0);
                }
                t.add(i, j, k);
                t.add(j, i, -k.transpose());
            }
        }
    }
    t.build()
}

/// Builds the nonsymmetric corpus at the given scale, cheapest-first.
pub fn nonsym_corpus(scale: Scale) -> Vec<NonsymEntry> {
    let (nb, band) = match scale {
        Scale::Small => (24usize, 3usize),
        Scale::Large => (700, 8),
    };
    let mut entries = vec![
        // Mild and convection-dominated variants of the same stencil:
        // the Péclet knob is what separates "almost SPD" from
        // "CFD-class".
        NonsymEntry {
            name: "convdiff_mild",
            matrix: convection_diffusion(nb, band, 0.2, 1101),
            near_breakdown: false,
        },
        NonsymEntry {
            name: "convdiff_dominated",
            matrix: convection_diffusion(nb, band, 0.8, 1202),
            near_breakdown: false,
        },
        // Random skew perturbations of the SPD corpus at two strengths.
        NonsymEntry {
            name: "skew_perturbed_weak",
            matrix: skew_perturbed(nb, band, 0.1, 1303),
            near_breakdown: false,
        },
        NonsymEntry {
            name: "skew_perturbed_strong",
            matrix: skew_perturbed(nb, band, 0.6, 1404),
            near_breakdown: false,
        },
        // Tiny nb: the nb < nchunks / nb < nthreads corner,
        // nonsymmetric.
        NonsymEntry {
            name: "convdiff_tiny_nb2",
            matrix: convection_diffusion(2, 1, 0.5, 1505),
            near_breakdown: false,
        },
        // Near-breakdown: skew-dominant with a vanishing symmetric
        // part.
        NonsymEntry {
            name: "skew_dominant_near_breakdown",
            matrix: skew_dominant(nb.min(16), 1e-6, 1606),
            near_breakdown: true,
        },
    ];

    if scale == Scale::Large {
        // Past PARALLEL_THRESHOLD for the nightly release run.
        entries.push(NonsymEntry {
            name: "convdiff_over_threshold",
            matrix: convection_diffusion(1100, 8, 0.6, 1707),
            near_breakdown: false,
        });
    }

    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let a = corpus(Scale::Small);
        let b = corpus(Scale::Small);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.matrix.to_dense(), y.matrix.to_dense());
        }
    }

    #[test]
    fn symmetric_conversion_matches_intent() {
        for e in corpus(Scale::Small) {
            let square = e.matrix.n_rows() == e.matrix.n_cols();
            assert_eq!(
                e.symmetric.is_some(),
                e.intended_symmetric && square,
                "entry {}: from_full acceptance disagrees with intent",
                e.name
            );
        }
    }

    #[test]
    fn corpus_covers_pathologies() {
        let names: Vec<&str> =
            corpus(Scale::Small).iter().map(|e| e.name).collect();
        for required in [
            "zero_1x1",
            "empty_rows",
            "dense_block_row",
            "tiny_nb2",
            "nonsym_perturbed",
            "rect_wide",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn nonsym_corpus_is_deterministic_and_actually_nonsymmetric() {
        let a = nonsym_corpus(Scale::Small);
        let b = nonsym_corpus(Scale::Small);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.matrix.to_dense(), y.matrix.to_dense());
        }
        for e in &a {
            assert_eq!(e.matrix.n_rows(), e.matrix.n_cols(), "{}", e.name);
            // Every entry must be refused by the symmetric-storage
            // conversion — that is the point of this corpus.
            assert!(
                SymmetricBcrs::from_full(&e.matrix, 1e-12).is_none(),
                "{} unexpectedly admits half storage",
                e.name
            );
        }
    }

    #[test]
    fn nonsym_corpus_covers_generators() {
        let names: Vec<&str> =
            nonsym_corpus(Scale::Small).iter().map(|e| e.name).collect();
        for required in [
            "convdiff_mild",
            "convdiff_dominated",
            "skew_perturbed_weak",
            "skew_perturbed_strong",
            "skew_dominant_near_breakdown",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
        assert!(
            nonsym_corpus(Scale::Small).iter().any(|e| e.near_breakdown),
            "corpus must include a near-breakdown case"
        );
    }

    #[test]
    fn pseudo_multivec_reproducible() {
        let a = pseudo_multivec(30, 4, 42);
        let b = pseudo_multivec(30, 4, 42);
        assert_eq!(a.as_slice(), b.as_slice());
        let c = pseudo_multivec(30, 4, 43);
        assert_ne!(a.as_slice(), c.as_slice());
    }
}
