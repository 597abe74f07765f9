//! What the global registry records over `repro quick`'s time steps,
//! one block CG solve and one distributed multiply. This file runs in a
//! process of its own, so the registry counts exactly what it ran: the
//! work runs once, on first use, and each test reads its diff.

use mrhs_cluster::{DistEngine, DistributedMatrix};
use mrhs_core::{run_mrhs_chunk, MrhsConfig, ResistanceSystem};
use mrhs_solvers::{block_cg, SolveConfig};
use mrhs_sparse::partition::contiguous_partition;
use mrhs_sparse::MultiVec;
use mrhs_stokes::SystemBuilder;
use mrhs_telemetry::Snapshot;
use std::sync::OnceLock;

/// `repro`'s default seed.
const SEED: u64 = 20120521;

fn recorded() -> &'static Snapshot {
    static RECORDED: OnceLock<Snapshot> = OnceLock::new();
    RECORDED.get_or_init(|| {
        mrhs_telemetry::set_enabled(true);
        let before = mrhs_telemetry::snapshot();

        // `mrhs_exp::quick_steps`: two Alg. 2 chunks at m = 8 on 300
        // particles at φ = 0.5.
        let (mut sys, mut noise) = SystemBuilder::new(300)
            .volume_fraction(0.5)
            .seed(SEED)
            .build_with_noise();
        let cfg = MrhsConfig { m: 8, ..Default::default() };
        for _ in 0..2 {
            run_mrhs_chunk(&mut sys, &mut noise, &cfg);
        }

        // One width-4 block CG solve and one 2-node distributed
        // multiply of the suspension's matrix.
        let a = sys.assemble();
        let (n, m) = (a.n_rows(), 4);
        let b = MultiVec::from_flat(n, m, vec![1.0; n * m]);
        let mut x = MultiVec::zeros(n, m);
        assert!(block_cg(&a, &b, &mut x, &SolveConfig::default()).converged);
        let part = contiguous_partition(&a, 2);
        let engine = DistEngine::new(DistributedMatrix::new(&a, &part));
        engine.multiply(&MultiVec::from_flat(n, m, vec![0.5; n * m]));

        mrhs_telemetry::snapshot().diff(&before)
    })
}

/// The assemblies refilled a held pair list and searched for pairs
/// only a few times — a skin too thin for the step size shows as
/// rebuilds approaching fills — and every CG solve was preconditioned:
/// a solve that fell back to the identity, or went through a wrapper
/// that does not forward `diagonal_blocks`, shows as a gap between the
/// two counters instead of only as a slow solve.
#[test]
fn quick_steps_refill_the_pair_list_and_precondition_every_cg_solve() {
    let c = |name: &str| recorded().counter(name);
    let fills = c("stokes/pairlist/fills");
    assert!(fills > 0);
    assert!(
        c("stokes/pairlist/rebuilds") * 4 <= fills,
        "{:?}",
        recorded().counters
    );
    assert!(c("solver/cg/solves") > 0);
    assert_eq!(c("solver/cg/preconditioned"), c("solver/cg/solves"));
}

/// Every span with direct children sums to its own wall-clock within
/// 5 %: children may undershoot (untimed glue) or overshoot (clock
/// granularity), and past 5 % either way the span tree misplaces time.
#[test]
fn spans_close_over_their_direct_children() {
    let spans = &recorded().spans;
    let mut checked = Vec::new();
    for (parent, stat) in spans {
        let prefix = format!("{parent}/");
        let children: f64 = spans
            .iter()
            .filter(|(name, _)| {
                name.starts_with(&prefix) && !name[prefix.len()..].contains('/')
            })
            .map(|(_, s)| s.secs())
            .sum();
        if children == 0.0 {
            continue; // a leaf
        }
        let ratio = children / stat.secs();
        assert!(
            (ratio - 1.0).abs() <= 0.05,
            "span `{parent}` decomposes to {:.1} % of its wall-clock \
             (children {children:.3e} s, parent {:.3e} s)",
            100.0 * ratio,
            stat.secs()
        );
        checked.push(parent.clone());
    }
    for parent in ["solver/block_cg", "engine/node0", "engine/node1"] {
        assert!(checked.iter().any(|c| c == parent), "{parent} not in {checked:?}");
    }
}
