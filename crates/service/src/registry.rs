//! Registry of prepared operators shared by all service clients.
//!
//! Clients register a matrix once (paying any preparation cost up
//! front) and then submit solve requests against the returned
//! [`MatrixHandle`]. The registry is the
//! unit of sharing that makes coalescing possible: only requests
//! against the *same* handle can ride in the same block solve.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use mrhs_solvers::LinearOperator;
use mrhs_sparse::{BcrsMatrix, SymmetricBcrs};

/// Opaque key identifying a registered matrix. Handles are never
/// reused, so a stale handle fails cleanly instead of aliasing a newer
/// registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MatrixHandle(u64);

/// Which solver family a registered operator admits. Batches never mix
/// matrix handles, so the class is uniform per batch and the worker
/// dispatches on it: block CG for [`OperatorClass::Spd`], block
/// BiCGStab for [`OperatorClass::General`]. This replaces the old
/// implicit everything-is-SPD assumption with a typed tag fixed at
/// registration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OperatorClass {
    /// Symmetric positive definite: served with block CG.
    #[default]
    Spd,
    /// General (nonsymmetric or indefinite): served with block
    /// BiCGStab.
    General,
}

/// A matrix prepared for serving: the operator plus the metadata the
/// batcher needs to validate and group requests.
pub struct PreparedMatrix {
    name: String,
    class: OperatorClass,
    dim: usize,
    /// Set by [`MatrixRegistry::unregister`]. Queued requests holding
    /// this `Arc` are swept by the batcher and failed with
    /// [`crate::SolveError::MatrixUnregistered`]; batches already
    /// dispatched run to completion.
    revoked: AtomicBool,
    op: Box<dyn LinearOperator + Send + Sync>,
}

impl PreparedMatrix {
    /// Human-readable name given at registration.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Solver family this operator is served with.
    pub fn class(&self) -> OperatorClass {
        self.class
    }

    /// Scalar dimension (rows of any right-hand side).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The operator the block solver applies once per iteration.
    pub fn operator(&self) -> &(dyn LinearOperator + Send + Sync) {
        &*self.op
    }

    /// Whether this registration has been revoked by
    /// [`MatrixRegistry::unregister`].
    pub fn is_revoked(&self) -> bool {
        self.revoked.load(Ordering::SeqCst)
    }
}

/// Thread-safe map from [`MatrixHandle`] to [`PreparedMatrix`].
#[derive(Default)]
pub struct MatrixRegistry {
    next: AtomicU64,
    /// Only ever changed by one `insert` or `remove`, so a thread that
    /// panicked holding the lock left the map valid: every access
    /// recovers a poisoned guard instead of panicking forever after.
    map: RwLock<HashMap<u64, Arc<PreparedMatrix>>>,
}

impl MatrixRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn insert(
        &self,
        name: &str,
        class: OperatorClass,
        dim: usize,
        op: Box<dyn LinearOperator + Send + Sync>,
    ) -> MatrixHandle {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let prepared = Arc::new(PreparedMatrix {
            name: name.to_string(),
            class,
            dim,
            revoked: AtomicBool::new(false),
            op,
        });
        self.map
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, prepared);
        MatrixHandle(id)
    }

    /// Registers a full-storage BCRS matrix, served with block CG (the
    /// caller asserts SPD). Use [`MatrixRegistry::register_general`]
    /// for nonsymmetric operators.
    pub fn register_full(&self, name: &str, a: BcrsMatrix) -> MatrixHandle {
        let dim = a.n_rows();
        self.insert(name, OperatorClass::Spd, dim, Box::new(a))
    }

    /// Registers a general (nonsymmetric) full-storage matrix, served
    /// with block BiCGStab.
    pub fn register_general(&self, name: &str, a: BcrsMatrix) -> MatrixHandle {
        let dim = a.n_rows();
        self.insert(name, OperatorClass::General, dim, Box::new(a))
    }

    /// Registers a matrix held in symmetric half storage: expanded to
    /// full storage (the faster product at every width) and registered
    /// exactly as [`MatrixRegistry::register_full`] would.
    pub fn register_symmetric(&self, name: &str, s: SymmetricBcrs) -> MatrixHandle {
        self.register_full(name, s.to_full())
    }

    /// Registers an arbitrary prepared operator under the solver class
    /// the caller names — the escape hatch for distributed backends
    /// (`mrhs_cluster::DistEngine` implements `LinearOperator` and is
    /// `Send + Sync`).
    pub fn register_operator(
        &self,
        name: &str,
        op: Box<dyn LinearOperator + Send + Sync>,
        class: OperatorClass,
    ) -> MatrixHandle {
        let dim = op.dim();
        self.insert(name, class, dim, op)
    }

    /// Looks up a handle. `None` after `unregister` or for a foreign
    /// handle.
    pub fn get(&self, h: MatrixHandle) -> Option<Arc<PreparedMatrix>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner).get(&h.0).cloned()
    }

    /// Removes a registration and marks the prepared matrix revoked.
    ///
    /// Defined semantics for requests caught mid-stream:
    ///
    /// * later submits fail with [`crate::SubmitError::UnknownMatrix`];
    /// * requests still **queued** are swept on the next batcher poll
    ///   and fail with [`crate::SolveError::MatrixUnregistered`] — a
    ///   distinct drop cause (`service/drop/unregistered`), never a
    ///   worker panic or a stranded batch column;
    /// * batches already **dispatched** hold their own `Arc` to the
    ///   operator and run to completion (a revocation racing a dispatch
    ///   yields a normally-solved request, not an error).
    pub fn unregister(&self, h: MatrixHandle) -> bool {
        match self.map.write().unwrap_or_else(PoisonError::into_inner).remove(&h.0)
        {
            Some(prepared) => {
                prepared.revoked.store(true, Ordering::SeqCst);
                true
            }
            None => false,
        }
    }

    /// Number of live registrations.
    pub fn len(&self) -> usize {
        self.map.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrhs_sparse::{Block3, BlockTripletBuilder};

    fn laplacian(nb: usize) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(4.0));
            if i + 1 < nb {
                t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-1.0));
            }
        }
        t.build()
    }

    /// Each registration path keeps the class it names: block CG for
    /// `register_full`, block BiCGStab for `register_general`.
    #[test]
    fn register_and_lookup_round_trip() {
        let reg = MatrixRegistry::new();
        let a = laplacian(4);
        let dim = a.n_rows();
        let h = reg.register_full("lap", a);
        let p = reg.get(h).expect("registered");
        assert_eq!(p.name(), "lap");
        assert_eq!(p.dim(), dim);
        assert_eq!(p.class(), OperatorClass::Spd);
        let hg = reg.register_general("conv", laplacian(3));
        assert_eq!(reg.get(hg).unwrap().class(), OperatorClass::General);
        assert_eq!(reg.len(), 2);
    }

    /// One panic under the lock must not leave a registry that panics
    /// forever: the map is valid between single inserts and removes.
    #[test]
    fn a_panic_under_the_lock_does_not_poison_the_registry() {
        let reg = MatrixRegistry::new();
        let h0 = reg.register_full("before", laplacian(2));
        std::thread::scope(|s| {
            let panicked = s
                .spawn(|| {
                    let _guard = reg.map.write().unwrap();
                    panic!("panic while holding the registry lock");
                })
                .join();
            assert!(panicked.is_err());
        });
        assert!(reg.map.is_poisoned());
        let h1 = reg.register_full("after", laplacian(2));
        assert_eq!(reg.get(h1).unwrap().name(), "after");
        assert_eq!(reg.len(), 2);
        assert!(reg.unregister(h0));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn operator_registration_takes_explicit_class() {
        let reg = MatrixRegistry::new();
        let h =
            reg.register_operator("op", Box::new(laplacian(2)), OperatorClass::Spd);
        assert_eq!(reg.get(h).unwrap().class(), OperatorClass::Spd);
        let hg = reg.register_operator(
            "opg",
            Box::new(laplacian(2)),
            OperatorClass::General,
        );
        assert_eq!(reg.get(hg).unwrap().class(), OperatorClass::General);
    }

    #[test]
    fn unregister_invalidates_handle_without_reuse() {
        let reg = MatrixRegistry::new();
        let h1 = reg.register_full("a", laplacian(2));
        assert!(reg.unregister(h1));
        assert!(!reg.unregister(h1));
        assert!(reg.get(h1).is_none());
        let h2 = reg.register_full("b", laplacian(2));
        assert_ne!(h1, h2, "handles must never be reused");
    }

    #[test]
    fn a_symmetric_registration_applies_as_full_storage() {
        let reg = MatrixRegistry::new();
        let a = laplacian(3);
        let n = a.dim();
        let s = SymmetricBcrs::from_full(&a, 0.0).expect("symmetric");
        let hf = reg.register_full("full", a);
        let hs = reg.register_symmetric("sym", s);
        assert_eq!(reg.get(hs).unwrap().class(), OperatorClass::Spd);
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let (mut yf, mut ys) = (vec![0.0; n], vec![0.0; n]);
        reg.get(hf).unwrap().operator().apply(&x, &mut yf);
        reg.get(hs).unwrap().operator().apply(&x, &mut ys);
        assert_eq!(yf, ys);
    }
}
