//! Telemetry hooks for the GSPMV kernels.
//!
//! Each product records exactly one call's worth of counters and one
//! span: the GSPMV driver (`gspmv_on`) is the only caller, and nothing
//! below it — chunk runners, row kernels — counts, so nothing is
//! double-counted.
//!
//! The byte counters use the minimum-traffic accounting of the paper's
//! Eq. 8 with `k = 0` (see `mrhs-perfmodel`): the matrix stream is
//! what the format physically holds (blocks + indices + row pointers),
//! and the vector stream is the `3·m·nb·s_x` term. Measured GB/s
//! derived from these counters is therefore directly comparable with
//! the model's bandwidth bound; cache-missed re-reads of X (the
//! model's `k(m)` term) show up as *achieved* bandwidth above the
//! minimum, exactly how the paper frames it.

use crate::BLOCK_DIM;
use mrhs_telemetry::{trace, SpanGuard, TraceSpan};

/// Flops per stored-block application per vector (Eq. 8's `f_a`).
pub const FLOPS_PER_BLOCK_PER_VECTOR: u64 = 18;

/// The kernel telemetry family: calls count under `gspmv/m{m}/…` and
/// time under the `kernel/gspmv/m{m}` span.
const KERNEL: &str = "gspmv";

/// RAII guard for one kernel invocation: the registry span timer plus,
/// when causal tracing is on *and* the calling thread carries a trace
/// context (it runs on the service worker's thread, outside the rayon
/// parallel region), a trace child span under that context. Both sides
/// are inert when their respective layer is disabled.
pub struct KernelGuard {
    _span: SpanGuard,
    _trace: Option<TraceSpan>,
}

/// Opens the per-call kernel span `kernel/gspmv/m{m}` (inert — no
/// allocation, no clock — while telemetry is disabled).
pub(crate) fn kernel_span(m: usize) -> KernelGuard {
    let span = if mrhs_telemetry::enabled() {
        mrhs_telemetry::span(&format!("kernel/{KERNEL}/m{m}"))
    } else {
        SpanGuard::inert()
    };
    let tr = if trace::trace_enabled() {
        trace::child_span(&format!("kernel/{KERNEL}/m{m}"))
    } else {
        None
    };
    KernelGuard { _span: span, _trace: tr }
}

/// Tags one kernel dispatch with the backend that ran it:
/// `kernel_backend/{name}/calls`. This is how tests (and post-hoc bench
/// analysis) verify which implementation `MRHS_KERNEL_BACKEND` actually
/// selected — the counter is recorded by the same entry points that
/// count the kernel call itself.
pub(crate) fn record_backend(name: &str) {
    if mrhs_telemetry::enabled() {
        mrhs_telemetry::counter_add(&format!("kernel_backend/{name}/calls"), 1);
    }
}

/// Records one kernel invocation: calls, flops, matrix/vector bytes,
/// all under `gspmv/m{m}/…`. `applied_blocks` is the number of
/// block·vector multiplications per vector (the stored blocks).
pub(crate) fn record_kernel_call(
    m: usize,
    nb_rows: u64,
    applied_blocks: u64,
    matrix_bytes: u64,
) {
    if !mrhs_telemetry::enabled() {
        return;
    }
    let pfx = format!("{KERNEL}/m{m}");
    mrhs_telemetry::counter_add(&format!("{pfx}/calls"), 1);
    mrhs_telemetry::counter_add(
        &format!("{pfx}/flops"),
        FLOPS_PER_BLOCK_PER_VECTOR * m as u64 * applied_blocks,
    );
    mrhs_telemetry::counter_add(&format!("{pfx}/matrix_bytes"), matrix_bytes);
    mrhs_telemetry::counter_add(
        &format!("{pfx}/vector_bytes"),
        (BLOCK_DIM * m * 8) as u64 * nb_rows,
    );
}
