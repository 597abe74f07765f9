//! `MRHS_KERNEL_BACKEND=scalar` forces the monomorphized scalar path.
//!
//! Each `backend_dispatch_*` test lives in its own integration-test
//! binary (own process) because the override env var is read exactly
//! once, at the first `active_backend()` call. The assertion goes
//! through the telemetry counter the instrumented entry points tag with
//! the dispatched backend's name — the same evidence a production trace
//! would show.

use mrhs_sparse::{Block3, BlockTripletBuilder, KernelKind, MultiVec};

#[test]
fn env_override_forces_scalar_backend() {
    std::env::set_var("MRHS_KERNEL_BACKEND", "scalar");
    mrhs_telemetry::set_enabled(true);

    let b = mrhs_sparse::active_backend();
    assert_eq!(b.kind(), KernelKind::Scalar);
    assert_eq!(b.name(), "scalar");

    let mut t = BlockTripletBuilder::square(4);
    for i in 0..4 {
        t.add(i, i, Block3::scaled_identity(2.0));
    }
    let a = t.build();
    let x = MultiVec::from_flat(12, 8, vec![1.0; 12 * 8]);
    let mut y = MultiVec::zeros(12, 8);
    mrhs_sparse::gspmv_serial(&a, &x, &mut y);

    let snap = mrhs_telemetry::snapshot();
    assert!(
        snap.counters.get("kernel_backend/scalar/calls").copied().unwrap_or(0) >= 1,
        "scalar dispatch not recorded: {:?}",
        snap.counters
    );
    assert!(!snap.counters.contains_key("kernel_backend/simd/calls"));
}
