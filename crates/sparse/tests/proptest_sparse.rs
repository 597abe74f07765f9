//! Property-based tests of the sparse substrate: storage round trips,
//! kernel agreement, adjointness, and permutation invariants.
//!
//! Kernel outputs are differenced against the `oracle` crate's naive
//! dense references under its shared tolerance model, instead of the
//! per-file `close()` helpers this suite used to carry.

use mrhs_sparse::gspmv::gspmv_serial_naive;
use mrhs_sparse::partition::{contiguous_partition, Partition};
use mrhs_sparse::reorder::{permute_symmetric, reverse_cuthill_mckee};
use mrhs_sparse::{
    active_backend, gspmv_on, gspmv_serial, spmv, Backend, BcrsMatrix, Block3,
    BlockTripletBuilder, MultiVec, Schedule, SymmetricBcrs,
};
use oracle::{Dense, TolModel};
use proptest::prelude::*;

/// Strategy: a random square block matrix with a symmetric pattern plus
/// full diagonal, `nb` block rows.
fn arb_matrix(max_nb: usize) -> impl Strategy<Value = BcrsMatrix> {
    (2usize..=max_nb)
        .prop_flat_map(|nb| {
            let pairs = proptest::collection::vec(
                ((0..nb), (0..nb), proptest::array::uniform9(-2.0f64..2.0)),
                0..3 * nb,
            );
            let diag = proptest::collection::vec(
                proptest::array::uniform9(-1.0f64..1.0),
                nb,
            );
            (Just(nb), pairs, diag)
        })
        .prop_map(|(nb, pairs, diag)| {
            let mut t = BlockTripletBuilder::square(nb);
            for (i, d) in diag.into_iter().enumerate() {
                // symmetrized diagonal block with a dominant shift
                let raw = Block3(d);
                let b =
                    (raw + raw.transpose()) * 0.5 + Block3::scaled_identity(5.0);
                t.add(i, i, b);
            }
            for (i, j, v) in pairs {
                if i != j {
                    t.add_symmetric_pair(i, j, Block3(v));
                }
            }
            t.build()
        })
}

/// Strategy: a random symmetric matrix with *irregular* structure —
/// some rows lack even a diagonal block (empty rows), and one row is
/// densely coupled to half the others (a dense row) — the shapes the
/// symmetric kernel's scatter must survive.
fn arb_symmetric_irregular(max_nb: usize) -> impl Strategy<Value = BcrsMatrix> {
    (3usize..=max_nb)
        .prop_flat_map(|nb| {
            let pairs = proptest::collection::vec(
                ((0..nb), (0..nb), proptest::array::uniform9(-2.0f64..2.0)),
                0..3 * nb,
            );
            let diag_mask = proptest::collection::vec(0usize..4, nb);
            (Just(nb), pairs, diag_mask, 0..nb)
        })
        .prop_map(|(nb, pairs, diag_mask, dense)| {
            let mut t = BlockTripletBuilder::square(nb);
            for (i, &mk) in diag_mask.iter().enumerate() {
                // About 1 row in 4 gets no diagonal block at all.
                if mk > 0 {
                    t.add(i, i, Block3::scaled_identity(3.0));
                }
            }
            for (i, j, v) in pairs {
                if i != j {
                    t.add_symmetric_pair(i, j, Block3(v));
                }
            }
            // One densely coupled row — but only to every other row, so
            // fully empty rows remain possible.
            for j in (0..nb).step_by(2) {
                if j != dense {
                    t.add_symmetric_pair(dense, j, Block3::scaled_identity(0.25));
                }
            }
            t.build()
        })
}

/// Loose model for reductions over different summation orders; the
/// kernels themselves are held to [`TolModel::KERNEL`].
const LOOSE: TolModel = TolModel { rel: 1e-9, floor: 1.0, max_ulps: 64 };

fn close(a: f64, b: f64) -> bool {
    LOOSE.accepts(a, b)
}

fn block_bits(blocks: &[Block3]) -> Vec<u64> {
    blocks.iter().flat_map(|b| b.0.map(f64::to_bits)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gspmv_columns_match_spmv(a in arb_matrix(12), m in 1usize..10) {
        let n = a.n_rows();
        let x = MultiVec::from_flat(
            n, m, (0..n * m).map(|v| ((v * 37 % 19) as f64) - 9.0).collect());
        let want = Dense::from_bcrs(&a).gspmv(&x);
        let mut y = MultiVec::zeros(n, m);
        gspmv_serial(&a, &x, &mut y);
        if let Err(e) = TolModel::KERNEL
            .check_slices(want.as_slice(), y.as_slice(), "gspmv vs dense")
        {
            prop_assert!(false, "{}", e);
        }
        for j in 0..m {
            let mut yj = vec![0.0; n];
            spmv(&a, &x.column(j), &mut yj);
            if let Err(e) = TolModel::KERNEL
                .check_slices(&want.column(j), &yj, "spmv column vs dense")
            {
                prop_assert!(false, "col {}: {}", j, e);
            }
        }
    }

    #[test]
    fn specialized_and_generic_kernels_agree(a in arb_matrix(10), m in 1usize..34) {
        let n = a.n_rows();
        let x = MultiVec::from_flat(
            n, m, (0..n * m).map(|v| ((v % 11) as f64) * 0.3 - 1.5).collect());
        let want = Dense::from_bcrs(&a).gspmv(&x);
        // The forced scalar backend is the specialized kernel on the
        // width grid and the strip-mined loop off it.
        let mut y1 = MultiVec::zeros(n, m);
        let mut y2 = MultiVec::zeros(n, m);
        let mut y3 = MultiVec::zeros(n, m);
        gspmv_serial(&a, &x, &mut y1);
        gspmv_on(Backend::Scalar, &a, &x, &mut y2, Schedule::Serial);
        gspmv_serial_naive(&a, &x, &mut y3);
        for (name, y) in [("active", &y1), ("scalar", &y2), ("naive", &y3)] {
            if let Err(e) = TolModel::KERNEL
                .check_slices(want.as_slice(), y.as_slice(), name)
            {
                prop_assert!(false, "m={}: {}", m, e);
            }
        }
    }

    #[test]
    fn chunked_symmetric_gspmv_matches_dense_all_specialized_m(
        a in arb_symmetric_irregular(14),
        msel in 0usize..10,
        nchunks in 2usize..6,
    ) {
        // The half-storage product at every specialized width agrees
        // with the dense reference, as does the full-storage product of
        // the same matrix under a chunked schedule.
        let m = mrhs_sparse::WIDTH_GRID[msel];
        let s = SymmetricBcrs::from_full(&a, 1e-12)
            .expect("generator builds symmetric matrices");
        let n = a.n_rows();
        let x = MultiVec::from_flat(
            n, m, (0..n * m).map(|v| ((v * 29 % 23) as f64) - 11.0).collect());
        let want = Dense::from_symmetric(&s).gspmv(&x);
        let mut y_sym = MultiVec::zeros(n, m);
        s.multiply(x.as_slice(), y_sym.as_mut_slice(), m);
        let mut y_full = MultiVec::zeros(n, m);
        gspmv_on(active_backend(), &a, &x, &mut y_full, Schedule::Chunked(nchunks));
        for (name, y) in [("sym", &y_sym), ("full chunked", &y_full)] {
            if let Err(e) = TolModel::KERNEL
                .check_slices(want.as_slice(), y.as_slice(), name)
            {
                prop_assert!(false, "m={} nchunks={}: {}", m, nchunks, e);
            }
        }
    }

    #[test]
    fn serial_symmetric_gspmv_matches_dense(
        a in arb_symmetric_irregular(14),
        m in 1usize..34,
    ) {
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        let x = MultiVec::from_flat(
            n, m, (0..n * m).map(|v| ((v * 17 % 13) as f64) - 6.0).collect());
        // Expanded independently from the half storage AND from the
        // full matrix: pins both the kernel and the conversion.
        let want = Dense::from_symmetric(&s).gspmv(&x);
        let want_full = Dense::from_bcrs(&a).gspmv(&x);
        oracle::tolerance::assert_bitwise(
            want.as_slice(), want_full.as_slice(), "dense refs");
        let mut y_sym = MultiVec::zeros(n, m);
        s.multiply(x.as_slice(), y_sym.as_mut_slice(), m);
        if let Err(e) = TolModel::KERNEL
            .check_slices(want.as_slice(), y_sym.as_slice(), "sym serial")
        {
            prop_assert!(false, "m={}: {}", m, e);
        }
    }

    #[test]
    fn symmetric_storage_never_streams_more(a in arb_matrix(14)) {
        // Holds for full-diagonal matrices (symmetric storage keeps a
        // dense diagonal, so rows without any block would pad it).
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        prop_assert!(s.stored_blocks() <= a.nnz_blocks());
        prop_assert!(s.stream_bytes() <= a.stream_bytes());
    }

    #[test]
    fn symmetric_storage_round_trips_through_full(a in arb_matrix(14)) {
        // Duplicate pairs merged in a different order on either side of
        // the diagonal can leave the matrix symmetric only to rounding.
        prop_assume!(a.is_symmetric_within(0.0));
        let s = SymmetricBcrs::from_full(&a, 0.0).unwrap();
        let back = s.to_full();
        prop_assert_eq!(back.row_ptr(), a.row_ptr());
        prop_assert_eq!(back.col_idx(), a.col_idx());
        prop_assert_eq!(block_bits(back.blocks()), block_bits(a.blocks()));
        let again = SymmetricBcrs::from_full(&back, 0.0).unwrap();
        prop_assert_eq!(block_bits(again.diag_blocks()), block_bits(s.diag_blocks()));
        let ((rp, ci, up), (rp2, ci2, up2)) = (s.upper_parts(), again.upper_parts());
        prop_assert_eq!((rp, ci), (rp2, ci2));
        prop_assert_eq!(block_bits(up), block_bits(up2));
    }

    #[test]
    fn spmv_is_adjoint_consistent(a in arb_matrix(10)) {
        // (A x, y) == (x, Aᵀ y)
        let n = a.n_rows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) - 5.0).collect();
        let at = a.transpose();
        let mut ax = vec![0.0; n];
        let mut aty = vec![0.0; n];
        spmv(&a, &x, &mut ax);
        spmv(&at, &y, &mut aty);
        let lhs: f64 = ax.iter().zip(&y).map(|(u, v)| u * v).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(u, v)| u * v).sum();
        prop_assert!(close(lhs, rhs), "{lhs} vs {rhs}");
    }

    #[test]
    fn symmetric_pattern_matrices_are_symmetric(a in arb_matrix(10)) {
        prop_assert!(a.is_symmetric_within(1e-12));
    }

    #[test]
    fn transpose_is_involution(a in arb_matrix(10)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gershgorin_brackets_rayleigh_quotients(a in arb_matrix(10)) {
        let n = a.n_rows();
        let lo = a.gershgorin_lower_bound();
        let hi = a.gershgorin_upper_bound();
        for seed in 1u64..4 {
            let mut state = seed;
            let v: Vec<f64> = (0..n).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            }).collect();
            let mut av = vec![0.0; n];
            spmv(&a, &v, &mut av);
            let num: f64 = v.iter().zip(&av).map(|(u, w)| u * w).sum();
            let den: f64 = v.iter().map(|u| u * u).sum();
            let q = num / den;
            prop_assert!(q >= lo - 1e-9 && q <= hi + 1e-9, "{q} not in [{lo}, {hi}]");
        }
    }

    #[test]
    fn rcm_permutation_preserves_action(a in arb_matrix(10)) {
        let n = a.n_rows();
        let perm = reverse_cuthill_mckee(&a);
        let b = permute_symmetric(&a, &perm);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut xb = vec![0.0; n];
        for (new, &old) in perm.iter().enumerate() {
            xb[3 * new..3 * new + 3].copy_from_slice(&x[3 * old..3 * old + 3]);
        }
        let mut y = vec![0.0; n];
        let mut yb = vec![0.0; n];
        spmv(&a, &x, &mut y);
        spmv(&b, &xb, &mut yb);
        for (new, &old) in perm.iter().enumerate() {
            for k in 0..3 {
                prop_assert!(close(yb[3 * new + k], y[3 * old + k]));
            }
        }
    }

    #[test]
    fn partitions_cover_rows_exactly_once(a in arb_matrix(16), p in 1usize..6) {
        let part = contiguous_partition(&a, p);
        let mut seen = vec![false; a.nb_rows()];
        for rows in part.parts() {
            for r in rows {
                prop_assert!(!seen[r], "row {r} in two parts");
                seen[r] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn communication_volume_zero_iff_single_part(a in arb_matrix(12)) {
        let single = Partition::from_assignment(1, vec![0; a.nb_rows()]);
        prop_assert_eq!(single.communication_volume(&a), 0);
    }

    #[test]
    fn gram_matches_naive(n in 1usize..20, ma in 1usize..6, mb in 1usize..6) {
        let a = MultiVec::from_flat(
            n, ma, (0..n * ma).map(|v| ((v * 13 % 7) as f64) - 3.0).collect());
        let b = MultiVec::from_flat(
            n, mb, (0..n * mb).map(|v| ((v * 11 % 5) as f64) - 2.0).collect());
        let g = a.gram(&b);
        for i in 0..ma {
            for j in 0..mb {
                let want: f64 = (0..n).map(|r| a.get(r, i) * b.get(r, j)).sum();
                prop_assert!(close(g[i * mb + j], want));
            }
        }
    }

    #[test]
    fn gram_of_square_sizes_matches_naive(n in 1usize..16, msel in 0usize..5) {
        // exercise the monomorphized square dispatch path
        let m = [1usize, 4, 8, 16, 32][msel];
        let a = MultiVec::from_flat(
            n, m, (0..n * m).map(|v| ((v * 3 % 17) as f64) * 0.25 - 2.0).collect());
        let g = a.gram(&a);
        for i in 0..m {
            for j in 0..m {
                let want: f64 = (0..n).map(|r| a.get(r, i) * a.get(r, j)).sum();
                prop_assert!(close(g[i * m + j], want));
                prop_assert!(close(g[i * m + j], g[j * m + i]));
            }
        }
    }

    #[test]
    fn add_mul_dense_matches_naive(n in 1usize..12, m in 1usize..9) {
        let mut x = MultiVec::zeros(n, m);
        let p = MultiVec::from_flat(
            n, m, (0..n * m).map(|v| ((v % 9) as f64) - 4.0).collect());
        let c: Vec<f64> = (0..m * m).map(|v| ((v % 5) as f64) * 0.5 - 1.0).collect();
        x.add_mul_dense(&p, &c);
        for r in 0..n {
            for j in 0..m {
                let want: f64 = (0..m).map(|k| p.get(r, k) * c[k * m + j]).sum();
                prop_assert!(close(x.get(r, j), want));
            }
        }
    }

    #[test]
    fn assign_add_mul_dense_matches_naive(n in 1usize..12, m in 1usize..9) {
        let mut p = MultiVec::from_flat(
            n, m, (0..n * m).map(|v| ((v % 7) as f64) - 3.0).collect());
        let orig = p.clone();
        let r = MultiVec::from_flat(
            n, m, (0..n * m).map(|v| ((v % 4) as f64) - 1.5).collect());
        let c: Vec<f64> = (0..m * m).map(|v| ((v % 3) as f64) - 1.0).collect();
        p.assign_add_mul_dense(&r, &c);
        for row in 0..n {
            for j in 0..m {
                let want: f64 = r.get(row, j)
                    + (0..m).map(|k| orig.get(row, k) * c[k * m + j]).sum::<f64>();
                prop_assert!(close(p.get(row, j), want));
            }
        }
    }
}

/// Historical proptest shrink (see `proptest_sparse.proptest-regressions`):
/// a matrix whose off-diagonal pattern is symmetric but whose *diagonal*
/// block is not — `Block3[(2,1)] = -0.53…` with `Block3[(1,2)] = 0` —
/// must be rejected by the symmetric-storage conversion. An early
/// `from_full` only compared off-diagonal partners and accepted it,
/// corrupting every symmetric multiply that followed.
#[test]
fn asymmetric_diagonal_block_is_rejected() {
    let mut t = BlockTripletBuilder::square(2);
    let mut d = Block3::scaled_identity(5.0);
    *d.get_mut(2, 1) = -0.532_031_494_575_789_9;
    t.add(0, 0, d);
    t.add(1, 1, Block3::scaled_identity(5.0));
    let a = t.build();
    assert!(!a.is_symmetric_within(1e-12));
    assert!(SymmetricBcrs::from_full(&a, 1e-12).is_none());
}

/// Companion to the above: an *off-diagonal* asymmetry accepted at a
/// loose tolerance is genuinely lossy — the lower block is rebuilt as
/// the upper's transpose — and the oracle's independent expansion
/// exposes the difference. Callers must pick the tolerance to match
/// how much of this they can absorb.
#[test]
fn loose_conversion_of_asymmetric_off_diagonal_is_lossy() {
    let mut t = BlockTripletBuilder::square(2);
    t.add(0, 0, Block3::scaled_identity(5.0));
    t.add(1, 1, Block3::scaled_identity(5.0));
    let mut up = Block3::scaled_identity(-1.0);
    *up.get_mut(0, 2) = 0.125;
    t.add(0, 1, up);
    t.add(1, 0, up.transpose() + Block3::scaled_identity(0.01));
    let a = t.build();
    assert!(SymmetricBcrs::from_full(&a, 1e-12).is_none());
    let s = SymmetricBcrs::from_full(&a, 0.1).expect("loose tol accepts");
    let full = Dense::from_bcrs(&a);
    let half = Dense::from_symmetric(&s);
    assert!(
        oracle::tolerance::check_bitwise(&full.data, &half.data, "lossy").is_err(),
        "expansion should differ from the asymmetric original"
    );
}
