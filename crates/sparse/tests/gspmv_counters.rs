//! One GSPMV call's counters follow Eq. 8's minimum-traffic accounting
//! exactly. This file runs in a process of its own, so the global
//! registry counts only the two products below.

use mrhs_sparse::{gspmv_serial, Block3, BlockTripletBuilder, MultiVec};

#[test]
fn gspmv_counters_follow_eq8_accounting() {
    mrhs_telemetry::set_enabled(true);
    // A banded 7-row matrix: 3 stored blocks per interior row.
    let nb = 7;
    let mut t = BlockTripletBuilder::square(nb);
    for i in 0..nb {
        t.add(i, i, Block3::scaled_identity(4.0));
        if i + 1 < nb {
            t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-1.0));
        }
    }
    let a = t.build();
    let n = a.n_rows();
    let before = mrhs_telemetry::snapshot();
    for m in [8, 16] {
        let x = MultiVec::from_flat(n, m, vec![1.0; n * m]);
        let mut y = MultiVec::zeros(n, m);
        gspmv_serial(&a, &x, &mut y);
    }
    let d = mrhs_telemetry::snapshot().diff(&before);
    let backend = mrhs_sparse::active_backend().name();
    for m in [8u64, 16] {
        let c = |what: &str| d.counter(&format!("gspmv/m{m}/{what}"));
        assert_eq!(c("calls"), 1);
        assert_eq!(c("flops"), 18 * m * a.nnz_blocks() as u64);
        assert_eq!(c("matrix_bytes"), a.stream_bytes() as u64);
        // Three f64 rows of m columns per block row.
        assert_eq!(c("vector_bytes"), 24 * m * a.nb_rows() as u64);
        assert_eq!(d.spans[&format!("kernel/gspmv/m{m}")].count, 1);
    }
    assert_eq!(d.counter(&format!("kernel_backend/{backend}/calls")), 2);
}
