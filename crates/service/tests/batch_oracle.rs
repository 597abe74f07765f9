//! Differential oracle leg: any batch decomposition of a request set
//! (widths 1, 2, the model's m_s, and all-at-once) must produce
//! solutions agreeing with dense direct solves under the shared
//! `TolModel`, over the SPD slice of the pathological corpus.

use std::time::Duration;

use mrhs_perfmodel::mrhs_model::SolveCounts;
use mrhs_perfmodel::{GspmvModel, MachineProfile};
use mrhs_service::{
    model_batch_width, BatchPolicy, MatrixRegistry, RequestOptions, ServiceConfig,
    SolveService,
};
use mrhs_sparse::MultiVec;
use oracle::reference::gauss_solve;
use oracle::{corpus, pseudo_multivec, Dense, Scale, TolModel};

const REQUESTS: usize = 8;

#[test]
fn any_batch_decomposition_matches_solo_solves() {
    // Deterministic m_s from the paper's machine model (not a host
    // probe), so the width grid is stable across CI machines.
    let gspmv = GspmvModel::from_density(25.0, MachineProfile::wsm());
    let ms = model_batch_width(&gspmv, SolveCounts::fig7(), REQUESTS);
    let mut widths = vec![1, 2, ms, REQUESTS];
    widths.dedup();

    let mut tested = 0usize;
    for entry in corpus(Scale::Small) {
        // The solver leg needs SPD systems: strict block-diagonal
        // dominance (positive Gershgorin lower bound) over the
        // symmetric entries of the corpus guarantees that; singular
        // pathologies (zero matrix, empty rows) stay kernel-only.
        if !entry.intended_symmetric || entry.matrix.gershgorin_lower_bound() <= 0.0
        {
            continue;
        }
        tested += 1;
        let a = &entry.matrix;
        let n = a.n_rows();
        let rhs = pseudo_multivec(n, REQUESTS, 0xbead + n as u64);

        // Solo references: dense direct solves, one per column.
        let dense = Dense::from_bcrs(a);
        let references: Vec<Vec<f64>> = (0..REQUESTS)
            .map(|j| {
                gauss_solve(&dense, &rhs.column(j))
                    .expect("SPD corpus entry must be solvable")
            })
            .collect();

        for &w in &widths {
            let reg = MatrixRegistry::new();
            let h = reg.register_full(entry.name, a.clone());
            let cfg = ServiceConfig {
                policy: BatchPolicy {
                    max_batch: w,
                    queue_capacity: 4 * REQUESTS,
                    // Long linger: every batch fills to exactly w (the
                    // last one to REQUESTS % w), so this really tests
                    // the decomposition into widths w.
                    linger: Duration::from_secs(5),
                },
                ..ServiceConfig::default()
            };
            let svc = SolveService::start(reg, cfg);
            let tickets: Vec<_> = (0..REQUESTS)
                .map(|j| {
                    let mut mv = MultiVec::zeros(n, 1);
                    mv.set_column(0, &rhs.column(j));
                    let opts =
                        RequestOptions { tol: Some(1e-10), ..Default::default() };
                    svc.submit(h, mv, opts).unwrap()
                })
                .collect();
            for (j, t) in tickets.into_iter().enumerate() {
                let out = t.wait().unwrap_or_else(|e| {
                    panic!("{} width {w} request {j} failed: {e:?}", entry.name)
                });
                assert!(
                    out.batch_width <= w,
                    "{}: batch width {} exceeds configured {w}",
                    entry.name,
                    out.batch_width
                );
                TolModel::SOLVER
                    .check_slices(
                        &references[j],
                        &out.solution.column(0),
                        &format!(
                            "{} decomposition width {w} request {j}",
                            entry.name
                        ),
                    )
                    .unwrap_or_else(|e| panic!("{e}"));
            }
            svc.shutdown();
            let st = svc.stats();
            assert_eq!(st.completed, REQUESTS as u64);
            assert_eq!(
                st.batches,
                (REQUESTS as u64).div_ceil(w as u64),
                "{}: width {w} must decompose {REQUESTS} requests into \
                 ceil batches",
                entry.name
            );
        }
    }
    assert!(
        tested >= 4,
        "corpus should contribute several SPD entries, got {tested}"
    );
}
