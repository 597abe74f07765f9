//! `MRHS_KERNEL_BACKEND=simd` forces the explicit-SIMD path (when the
//! host has a vector ISA — otherwise the override falls back to scalar
//! by the documented dispatch policy, and this test checks *that*).
//!
//! Own test binary: the override env var is read once, at the first
//! `active_backend()` call (see `backend_dispatch_scalar.rs`).

use mrhs_sparse::{
    backend_available, Block3, BlockTripletBuilder, KernelKind, MultiVec,
};

#[test]
fn env_override_forces_simd_backend() {
    std::env::set_var("MRHS_KERNEL_BACKEND", "simd");
    mrhs_telemetry::set_enabled(true);

    let simd_possible = backend_available(KernelKind::Simd);
    let b = mrhs_sparse::active_backend();
    if !simd_possible {
        // Portable host: the override degrades to scalar rather than
        // aborting, so the binary still runs everywhere.
        assert_eq!(b.kind(), KernelKind::Scalar);
        return;
    }
    assert_eq!(b.kind(), KernelKind::Simd);
    assert_eq!(b.name(), "simd");

    let mut t = BlockTripletBuilder::square(4);
    for i in 0..4 {
        t.add(i, i, Block3::scaled_identity(2.0));
    }
    let a = t.build();
    // m = 8 clears every ISA's minimum vector width, so the SIMD
    // backend runs its own kernels rather than narrow-delegating.
    let x = MultiVec::from_flat(12, 8, vec![1.0; 12 * 8]);
    let mut y = MultiVec::zeros(12, 8);
    mrhs_sparse::gspmv_serial(&a, &x, &mut y);

    let snap = mrhs_telemetry::snapshot();
    assert!(
        snap.counters.get("kernel_backend/simd/calls").copied().unwrap_or(0) >= 1,
        "simd dispatch not recorded: {:?}",
        snap.counters
    );
    assert!(!snap.counters.contains_key("kernel_backend/scalar/calls"));
}
