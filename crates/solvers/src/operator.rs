//! The abstract linear operator the solvers run against.
//!
//! All Krylov machinery in this crate multiplies by the matrix only
//! through [`LinearOperator::apply`] (SPMV) and
//! [`LinearOperator::apply_multi`] (GSPMV). That keeps the solvers
//! reusable by the distributed simulator (whose operator spans
//! partitions) and lets tests count kernel invocations via
//! [`CountingOperator`]. Beyond a product a solver may ask for two
//! things, which `cg` and `block_cg` precondition with
//! ([`crate::precond`]): [`LinearOperator::block_rows`], the stored
//! block rows of one [`BcrsMatrix`] (block symmetric Gauss–Seidel), and
//! failing that [`LinearOperator::diagonal_blocks`] (block-Jacobi). An
//! operator that wraps or re-stores a matrix must forward both, or its
//! solves silently run with a weaker preconditioner or none.

use mrhs_sparse::{gspmv, spmv, BcrsMatrix, Block3, MultiVec, SymmetricBcrs};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A square linear operator `y = A·x` of scalar dimension `dim`.
pub trait LinearOperator: Sync {
    /// Scalar dimension of the operator.
    fn dim(&self) -> usize;

    /// `y = A·x` (single vector).
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// `Y = A·X` (multivector). The default forwards column-by-column;
    /// implementations backed by GSPMV override it.
    fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
        assert_eq!(x.shape(), y.shape());
        assert_eq!(x.n(), self.dim());
        let mut xj = vec![0.0; self.dim()];
        let mut yj = vec![0.0; self.dim()];
        for j in 0..x.m() {
            x.copy_column_into(j, &mut xj);
            self.apply(&xj, &mut yj);
            y.set_column(j, &yj);
        }
    }

    /// The operator's 3×3 diagonal blocks in its own row order
    /// (`dim() / 3` of them), when it can name them. `cg` and
    /// `block_cg` build their block-Jacobi preconditioner from these
    /// once per solve when the operator hands over no block rows;
    /// `None` (the default) then means they run unpreconditioned.
    fn diagonal_blocks(&self) -> Option<Vec<Block3>> {
        None
    }

    /// The operator as one [`BcrsMatrix`] in its own row order, when it
    /// is one: every product it computes is that matrix's. `cg` and
    /// `block_cg` then precondition with block symmetric Gauss–Seidel
    /// swept over these rows, and apply the operator once per solve
    /// instead of once per iteration. `None` (the default) leaves them
    /// on [`LinearOperator::diagonal_blocks`].
    fn block_rows(&self) -> Option<&BcrsMatrix> {
        None
    }
}

impl LinearOperator for BcrsMatrix {
    fn dim(&self) -> usize {
        assert_eq!(self.n_rows(), self.n_cols());
        self.n_rows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        spmv(self, x, y);
    }

    fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
        gspmv(self, x, y);
    }

    fn diagonal_blocks(&self) -> Option<Vec<Block3>> {
        Some(BcrsMatrix::diagonal_blocks(self))
    }

    fn block_rows(&self) -> Option<&BcrsMatrix> {
        Some(self)
    }
}

impl LinearOperator for SymmetricBcrs {
    fn dim(&self) -> usize {
        self.n_rows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.multiply(x, y, 1);
    }

    fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
        assert_eq!(x.m(), y.m(), "X and Y must have the same number of columns");
        self.multiply(x.as_slice(), y.as_mut_slice(), x.m());
    }

    fn diagonal_blocks(&self) -> Option<Vec<Block3>> {
        Some(self.diag_blocks().to_vec())
    }

    // No `block_rows`: half storage keeps the strict upper blocks only,
    // so it has no lower rows to hand over without expanding itself
    // (`to_full`, a second copy of the matrix per solve). It keeps
    // block-Jacobi; nothing on a solve path stores symmetric.
}

/// A dense row-major operator for tests and small reference problems.
pub struct DenseOperator {
    n: usize,
    data: Vec<f64>,
}

impl DenseOperator {
    /// Wraps a row-major `n×n` buffer.
    pub fn new(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n);
        DenseOperator { n, data }
    }

    /// The raw buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

impl LinearOperator for DenseOperator {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for i in 0..self.n {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            y[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }
}

/// Wraps an operator and counts single- and multi-vector applications,
/// plus the total number of *columns* multiplied. The experiment harness
/// uses these counts to feed the paper's timing model (Eq. 9) with
/// measured iteration numbers.
pub struct CountingOperator<'a, T: LinearOperator + ?Sized> {
    inner: &'a T,
    single: AtomicUsize,
    multi: AtomicUsize,
    columns: AtomicUsize,
}

impl<'a, T: LinearOperator + ?Sized> CountingOperator<'a, T> {
    /// Wraps `inner` with fresh counters.
    pub fn new(inner: &'a T) -> Self {
        CountingOperator {
            inner,
            single: AtomicUsize::new(0),
            multi: AtomicUsize::new(0),
            columns: AtomicUsize::new(0),
        }
    }

    /// Number of `apply` (SPMV) calls.
    pub fn single_applies(&self) -> usize {
        self.single.load(Ordering::Relaxed)
    }

    /// Number of `apply_multi` (GSPMV) calls.
    pub fn multi_applies(&self) -> usize {
        self.multi.load(Ordering::Relaxed)
    }

    /// Total vector columns multiplied across both kinds of call.
    pub fn total_columns(&self) -> usize {
        self.columns.load(Ordering::Relaxed)
    }

    /// Resets all counters.
    pub fn reset(&self) {
        self.single.store(0, Ordering::Relaxed);
        self.multi.store(0, Ordering::Relaxed);
        self.columns.store(0, Ordering::Relaxed);
    }
}

impl<T: LinearOperator + ?Sized> LinearOperator for CountingOperator<'_, T> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.single.fetch_add(1, Ordering::Relaxed);
        self.columns.fetch_add(1, Ordering::Relaxed);
        self.inner.apply(x, y);
    }

    fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
        self.multi.fetch_add(1, Ordering::Relaxed);
        self.columns.fetch_add(x.m(), Ordering::Relaxed);
        self.inner.apply_multi(x, y);
    }

    fn diagonal_blocks(&self) -> Option<Vec<Block3>> {
        self.inner.diagonal_blocks()
    }

    fn block_rows(&self) -> Option<&BcrsMatrix> {
        self.inner.block_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrhs_sparse::{Block3, BlockTripletBuilder};

    fn small_bcrs() -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(2);
        t.add(0, 0, Block3::scaled_identity(2.0));
        t.add(1, 1, Block3::scaled_identity(3.0));
        t.add_symmetric_pair(0, 1, Block3::scaled_identity(1.0));
        t.build()
    }

    #[test]
    fn bcrs_operator_applies() {
        let a = small_bcrs();
        let x = vec![1.0; 6];
        let mut y = vec![0.0; 6];
        a.apply(&x, &mut y);
        assert_eq!(y, vec![3.0, 3.0, 3.0, 4.0, 4.0, 4.0]);
    }

    /// `apply` is the slice form of the product `apply_multi` runs, so
    /// on every storage it must be `apply_multi`'s width-1 column bit
    /// for bit — here past the parallel threshold, where full storage
    /// takes the auto schedule.
    #[test]
    fn apply_is_the_width_one_column_of_apply_multi_on_every_storage() {
        // 2400 rows × 13 blocks: past 2^14 stored blocks in both formats.
        let nb = 2400;
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(20.0));
            for off in 1..=6 {
                if i + off < nb {
                    let w = -1.0 / (off as f64 + (i % 7) as f64 * 0.125);
                    t.add_symmetric_pair(i, i + off, Block3::scaled_identity(w));
                }
            }
        }
        let a = t.build();
        let sym = SymmetricBcrs::from_full(&a, 0.0).expect("symmetric");
        assert!(sym.stored_blocks() >= 1 << 14);
        let x: Vec<f64> = (0..a.n_rows()).map(|i| (i % 17) as f64 - 8.0).collect();

        fn check(op: &dyn LinearOperator, x: &[f64], name: &str) {
            let mut y = vec![0.0; x.len()];
            op.apply(x, &mut y);
            let mut ym = MultiVec::zeros(x.len(), 1);
            op.apply_multi(&MultiVec::from_columns(&[x]), &mut ym);
            assert_eq!(y, ym.into_flat(), "{name}");
        }
        check(&a, &x, "full");
        check(&sym, &x, "symmetric");
    }

    #[test]
    fn default_apply_multi_matches_columns() {
        let a = DenseOperator::new(2, vec![1.0, 2.0, 3.0, 4.0]);
        let x = MultiVec::from_columns(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut y = MultiVec::zeros(2, 2);
        a.apply_multi(&x, &mut y);
        assert_eq!(y.column(0), vec![1.0, 3.0]);
        assert_eq!(y.column(1), vec![2.0, 4.0]);
    }

    #[test]
    fn symmetric_storage_runs_through_cg_and_block_cg() {
        use crate::block_cg::block_cg;
        use crate::cg::{cg, SolveConfig};

        // SPD by diagonal dominance.
        let nb = 12;
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(6.0));
            if i + 1 < nb {
                t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-1.0));
            }
        }
        let a = t.build();
        let s = mrhs_sparse::SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        let cfg = SolveConfig { tol: 1e-10, max_iter: 500 };

        // Single vector: CG on symmetric storage matches CG on full.
        let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut x_full = vec![0.0; n];
        let mut x_sym = vec![0.0; n];
        assert!(cg(&a, &b, &mut x_full, &cfg).converged);
        assert!(cg(&s, &b, &mut x_sym, &cfg).converged);
        for (u, v) in x_full.iter().zip(&x_sym) {
            assert!((u - v).abs() <= 1e-8 * u.abs().max(1.0));
        }

        // Multivector: block CG on symmetric storage matches full.
        let m = 4;
        let mut bm = MultiVec::zeros(n, m);
        for j in 0..m {
            let col: Vec<f64> =
                (0..n).map(|i| (((i + 3 * j) % 5) as f64) - 2.0).collect();
            bm.set_column(j, &col);
        }
        let mut xm_full = MultiVec::zeros(n, m);
        let mut xm_sym = MultiVec::zeros(n, m);
        assert!(block_cg(&a, &bm, &mut xm_full, &cfg).converged);
        assert!(block_cg(&s, &bm, &mut xm_sym, &cfg).converged);
        for (u, v) in xm_full.as_slice().iter().zip(xm_sym.as_slice()) {
            assert!((u - v).abs() <= 1e-8 * u.abs().max(1.0));
        }
    }

    /// `block_cg`'s iterations on `lubricated(40)` through `op`.
    fn block_cg_iterations(op: &dyn LinearOperator) -> usize {
        use crate::block::testkit::pseudo_multivec;
        use crate::block_cg::block_cg;
        use crate::cg::SolveConfig;

        let b = pseudo_multivec(op.dim(), 4, 37);
        let mut x = MultiVec::zeros(b.n(), b.m());
        let res = block_cg(op, &b, &mut x, &SolveConfig::default());
        assert!(res.converged, "{res:?}");
        res.iterations
    }

    /// Every operator in this crate that wraps or re-stores a matrix
    /// forwards `diagonal_blocks` (an override a wrapper does not
    /// forward silently never runs): `block_cg` through each — over a
    /// matrix that keeps block-Jacobi — takes the iterations it takes
    /// on that matrix, and more through a wrapper that hides the
    /// diagonal. The cluster crate's engines and the oracle's pinned
    /// operator have the same test beside them.
    #[test]
    fn every_wrapper_forwards_diagonal_blocks() {
        use crate::block::testkit::{
            lubricated, HiddenDiagonal, JacobiOnly, PoisonAfter,
        };

        let a = lubricated(40);
        let jacobi = JacobiOnly(&a);
        let bare = block_cg_iterations(&jacobi);
        let sym = SymmetricBcrs::from_full(&a, 0.0).expect("symmetric");
        let wrappers: [(&str, &dyn LinearOperator); 3] = [
            ("CountingOperator", &CountingOperator::new(&jacobi)),
            ("PoisonAfter", &PoisonAfter::new(&a, usize::MAX)),
            ("SymmetricBcrs", &sym),
        ];
        for (name, op) in wrappers {
            assert_eq!(op.diagonal_blocks(), Some(a.diagonal_blocks()), "{name}");
            assert_eq!(block_cg_iterations(op), bare, "{name}");
        }
        assert!(block_cg_iterations(&HiddenDiagonal(&a)) > bare);
    }

    /// Every wrapper in this crate that is its matrix forwards
    /// `block_rows` — the matrix itself, not a copy — and `block_cg`
    /// through it takes the Gauss–Seidel iterations it takes on the bare
    /// matrix, fewer than block-Jacobi's. Two operators keep
    /// block-Jacobi on purpose and say so here: `SymmetricBcrs` stores
    /// no lower blocks, and `PoisonAfter`'s poisoned products would be
    /// routed around. The cluster crate's engine and the oracle's
    /// pinned operator have the same test beside them.
    #[test]
    fn every_wrapper_forwards_block_rows() {
        use crate::block::testkit::{lubricated, JacobiOnly, PoisonAfter};

        let a = lubricated(40);
        let bare = block_cg_iterations(&a);
        assert!(std::ptr::eq(a.block_rows().unwrap(), &a));
        let counting = CountingOperator::new(&a);
        assert!(std::ptr::eq(counting.block_rows().unwrap(), &a));
        assert_eq!(block_cg_iterations(&counting), bare);
        assert!(bare < block_cg_iterations(&JacobiOnly(&a)));

        let sym = SymmetricBcrs::from_full(&a, 0.0).expect("symmetric");
        assert!(sym.block_rows().is_none());
        assert!(PoisonAfter::new(&a, usize::MAX).block_rows().is_none());
    }

    #[test]
    fn counting_operator_counts() {
        let a = small_bcrs();
        let c = CountingOperator::new(&a);
        let x = vec![0.0; 6];
        let mut y = vec![0.0; 6];
        c.apply(&x, &mut y);
        c.apply(&x, &mut y);
        let xm = MultiVec::zeros(6, 4);
        let mut ym = MultiVec::zeros(6, 4);
        c.apply_multi(&xm, &mut ym);
        assert_eq!(c.single_applies(), 2);
        assert_eq!(c.multi_applies(), 1);
        assert_eq!(c.total_columns(), 6);
        c.reset();
        assert_eq!(c.total_columns(), 0);
    }
}
