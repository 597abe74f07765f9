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
//! tolerance-equal. The groups encode the determinism contracts the
//! kernels document:
//!
//! * full-storage serial, auto, and chunked at any
//!   chunk count all share one group per backend (each output row is
//!   accumulated in the fixed per-row block order regardless of
//!   chunking);
//! * symmetric storage is one group outright: it has one schedule and
//!   one kernel family.

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
    /// (symmetric backends need half storage; the distributed engine
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

/// The storage format a [`KernelRun`] multiplies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storage {
    /// The corpus entry's own `BcrsMatrix`.
    Full,
    /// The entry's symmetric half storage (entries that have one).
    Symmetric,
}

/// One configuration of the GSPMV driver, `gspmv_on(backend, storage,
/// x, y, schedule)`: the storage format, the kernel backend (`None` is
/// the process's active one, `Some` forces a kind) and the schedule.
///
/// Bitwise groups follow the driver's determinism contracts. Full
/// storage under one backend is one group whatever the schedule
/// (a row's accumulation never crosses a chunk), and each forced kind
/// is its own group: different backends round FMA chains differently,
/// so they are only *tolerance*-equal to each other. Symmetric storage
/// is the one group `sym`: every schedule and backend runs the same
/// chunk through the same portable kernel.
pub struct KernelRun {
    pub storage: Storage,
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
        let storage = match self.storage {
            Storage::Full => "full",
            Storage::Symmetric => "sym",
        };
        let kind = self.kind_tag();
        match self.schedule {
            Schedule::Serial => format!("{storage}_serial{kind}"),
            Schedule::Auto => format!("{storage}_auto{kind}"),
            Schedule::Chunked(n) => format!("{storage}_chunked{kind}({n})"),
            Schedule::ChunkedInline(n) => {
                format!("{storage}_chunked_seq{kind}({n})")
            }
        }
    }
    fn supports(&self, entry: &CorpusEntry) -> bool {
        self.storage != Storage::Symmetric || entry.symmetric.is_some()
    }
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec {
        let backend = self.kind.map_or_else(active_backend, Backend::forced);
        let mut y = MultiVec::zeros(entry.matrix.n_rows(), x.m());
        match self.storage {
            Storage::Full => {
                gspmv_on(backend, &entry.matrix, x, &mut y, self.schedule)
            }
            Storage::Symmetric => {
                let s =
                    entry.symmetric.as_ref().expect("caller checked supports()");
                gspmv_on(backend, s, x, &mut y, self.schedule)
            }
        }
        y
    }
    fn bitwise_group(&self) -> Option<String> {
        Some(match self.storage {
            Storage::Full => format!("full{}", self.kind_tag()),
            Storage::Symmetric => "sym".to_string(),
        })
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
/// variants standing in for 1/2/4/8-thread execution, and the
/// distributed engine at 1, 3, and 5 partitions (one of which exceeds
/// `nb` for the smallest entries — `contiguous_partition` then leaves
/// partitions empty, which the engine must tolerate).
pub fn standard_backends() -> Vec<Box<dyn GspmvBackend>> {
    use Schedule::{Auto, Chunked, Serial};
    use Storage::{Full, Symmetric};
    let mut v: Vec<Box<dyn GspmvBackend>> = Vec::new();
    let mut run = |storage, kind, schedule| {
        v.push(Box::new(KernelRun { storage, kind, schedule }));
    };
    run(Full, None, Serial);
    run(Full, None, Auto);
    run(Symmetric, None, Serial);
    run(Symmetric, None, Auto);
    run(Symmetric, None, Chunked(4));
    for n in [1usize, 2, 4, 8] {
        run(Full, None, Chunked(n));
    }
    // Every kernel backend available on this host, forced explicitly:
    // full storage, serial and chunked, must be bit-identical
    // within the kind and tolerance-equal across kinds.
    for kind in KernelKind::ALL.into_iter().filter(|&k| backend_available(k)) {
        let kind = Some(kind);
        run(Full, kind, Serial);
        run(Full, kind, Chunked(3));
    }
    for p in [1usize, 3, 5] {
        v.push(Box::new(DistBackend { parts: p }));
    }
    v
}
