//! The registry of GSPMV implementations under differential test.
//!
//! Every backend is normalized to the same contract: multivector in,
//! multivector out, **original row ordering** — backends that operate
//! in a permuted space (the distributed engine) or on an alternative
//! storage format (symmetric half storage) do their own conversion, so
//! the runner can difference any backend against any other.
//!
//! Backends may declare a *bitwise group*: backends in the same group
//! must produce bit-identical output on every input, not just
//! tolerance-equal. The groups encode the determinism contract of the
//! GSPMV driver: serial, auto, and chunked at any chunk count share
//! one group per kernel backend (each output row is accumulated in the
//! fixed per-row block order regardless of chunking). Symmetric half
//! storage has one product, [`SymBackend`], checked against the dense
//! reference like every other backend.

use crate::corpus::CorpusEntry;
use mrhs_cluster::{DistEngine, DistributedMatrix};
use mrhs_sparse::partition::{contiguous_partition, Partition};
use mrhs_sparse::{
    active_backend, backend_available, gspmv_on, Backend, KernelKind, MultiVec,
    Schedule,
};

/// One GSPMV implementation under test.
pub trait GspmvBackend: Sync {
    /// Stable display name, e.g. `full_chunked(4)`.
    fn name(&self) -> String;

    /// Whether this backend can run this corpus entry at all
    /// (the symmetric backend needs half storage; the distributed engine
    /// needs a square symmetric-pattern matrix).
    fn supports(&self, entry: &CorpusEntry) -> bool;

    /// Whether this backend wants to run at this `m` (expensive
    /// backends may subsample the grid).
    fn wants_m(&self, _m: usize) -> bool {
        true
    }

    /// Computes `Y = R·X` in the original row ordering.
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec;

    /// Bitwise-equivalence group, if any.
    fn bitwise_group(&self) -> Option<String> {
        None
    }
}

/// One configuration of the GSPMV driver on the entry's own
/// `BcrsMatrix`, `gspmv_on(backend, a, x, y, schedule)`: the kernel
/// backend (`None` is the process's active one, `Some` forces a kind)
/// and the schedule.
///
/// Bitwise groups follow the driver's determinism contract: one
/// backend is one group whatever the schedule (a row's accumulation
/// never crosses a chunk), and each forced kind is its own group:
/// different backends round FMA chains differently, so they are only
/// *tolerance*-equal to each other.
pub struct KernelRun {
    pub kind: Option<KernelKind>,
    pub schedule: Schedule,
}

impl KernelRun {
    /// `[scalar]`-style suffix of a forced kind; empty for the active
    /// backend.
    fn kind_tag(&self) -> String {
        self.kind.map(|k| format!("[{}]", k.as_str())).unwrap_or_default()
    }
}

impl GspmvBackend for KernelRun {
    fn name(&self) -> String {
        let kind = self.kind_tag();
        match self.schedule {
            Schedule::Serial => format!("full_serial{kind}"),
            Schedule::Auto => format!("full_auto{kind}"),
            Schedule::Chunked(n) => format!("full_chunked{kind}({n})"),
            Schedule::ChunkedInline(n) => format!("full_chunked_seq{kind}({n})"),
        }
    }
    fn supports(&self, _entry: &CorpusEntry) -> bool {
        true
    }
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec {
        let backend = self.kind.map_or_else(active_backend, Backend::forced);
        let mut y = MultiVec::zeros(entry.matrix.n_rows(), x.m());
        gspmv_on(backend, &entry.matrix, x, &mut y, self.schedule);
        y
    }
    fn bitwise_group(&self) -> Option<String> {
        Some(format!("full{}", self.kind_tag()))
    }
}

/// The entry's symmetric half storage through
/// `SymmetricBcrs::multiply` (entries that have one).
pub struct SymBackend;

impl GspmvBackend for SymBackend {
    fn name(&self) -> String {
        "sym".to_string()
    }
    fn supports(&self, entry: &CorpusEntry) -> bool {
        entry.symmetric.is_some()
    }
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec {
        let s = entry.symmetric.as_ref().expect("caller checked supports()");
        let mut y = MultiVec::zeros(s.n_rows(), x.m());
        s.multiply(x.as_slice(), y.as_mut_slice(), x.m());
        y
    }
}

/// The distributed engine at `n` simulated nodes. Construction spawns
/// worker threads and permutes the matrix, so this backend trims the
/// `m` grid and builds a fresh engine per run (engines hold the
/// permuted matrix, which depends on the entry).
pub struct DistBackend {
    pub parts: usize,
}

impl DistBackend {
    fn partition(&self, entry: &CorpusEntry) -> Partition {
        contiguous_partition(&entry.matrix, self.parts)
    }
}

impl GspmvBackend for DistBackend {
    fn name(&self) -> String {
        format!("dist({})", self.parts)
    }
    fn supports(&self, entry: &CorpusEntry) -> bool {
        // DistributedMatrix permutes with `permute_symmetric`, which
        // needs a square matrix with symmetric *pattern*; the corpus
        // guarantees that exactly for its intended-symmetric entries.
        entry.symmetric.is_some() && entry.matrix.nb_rows() >= 1
    }
    fn wants_m(&self, m: usize) -> bool {
        // Engine construction dominates; sample the grid.
        matches!(m, 1 | 3 | 8 | 16 | 31 | 48)
    }
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec {
        let dm = DistributedMatrix::new(&entry.matrix, &self.partition(entry));
        let perm: Vec<usize> = dm.permutation().to_vec();
        let engine = DistEngine::new(dm);

        // Engine space is the permuted ordering: x_perm[new] = x[old].
        let n = entry.matrix.n_rows();
        let m = x.m();
        let mut x_perm = MultiVec::zeros(n, m);
        for (new, &old) in perm.iter().enumerate() {
            for c in 0..3 {
                for j in 0..m {
                    *x_perm.get_mut(3 * new + c, j) = x.get(3 * old + c, j);
                }
            }
        }
        let (y_perm, _stats) = engine.multiply(&x_perm);
        let mut y = MultiVec::zeros(n, m);
        for (new, &old) in perm.iter().enumerate() {
            for c in 0..3 {
                for j in 0..m {
                    *y.get_mut(3 * old + c, j) = y_perm.get(3 * new + c, j);
                }
            }
        }
        y
    }
}

/// The standard registry: every production GSPMV path plus the chunked
/// variants standing in for 1/2/4/8-thread execution, the symmetric
/// half storage's product, and the distributed engine at 1, 3, and 5
/// partitions (one of which exceeds `nb` for the smallest entries —
/// `contiguous_partition` then leaves partitions empty, which the
/// engine must tolerate).
pub fn standard_backends() -> Vec<Box<dyn GspmvBackend>> {
    use Schedule::{Auto, Chunked, Serial};
    let mut v: Vec<Box<dyn GspmvBackend>> = Vec::new();
    let mut run = |kind, schedule| {
        v.push(Box::new(KernelRun { kind, schedule }));
    };
    run(None, Serial);
    run(None, Auto);
    for n in [1usize, 2, 4, 8] {
        run(None, Chunked(n));
    }
    // Every kernel backend available on this host, forced explicitly:
    // serial and chunked must be bit-identical within the kind and
    // tolerance-equal across kinds.
    for kind in KernelKind::ALL.into_iter().filter(|&k| backend_available(k)) {
        let kind = Some(kind);
        run(kind, Serial);
        run(kind, Chunked(3));
    }
    v.push(Box::new(SymBackend));
    for p in [1usize, 3, 5] {
        v.push(Box::new(DistBackend { parts: p }));
    }
    v
}
