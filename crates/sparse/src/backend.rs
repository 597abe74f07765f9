//! Runtime-dispatched kernel backends.
//!
//! The paper's kernels were emitted by a code generator targeting the
//! host's SIMD width (§IV-A1). This workspace's portable analogue is
//! monomorphization (`gspmv_rows_fixed::<M>` relies on LLVM
//! autovectorization at the build's baseline target features), which
//! leaves real speed on the table when the *running* CPU has wider
//! vectors than the build target (the common case: portable builds are
//! SSE2-baseline, servers have AVX2/AVX-512). This module closes that
//! gap with the [`Backend`] enum and its two kernel families:
//!
//! * **scalar** — the original monomorphized kernels, kept bit-for-bit
//!   as the portable reference; widths off [`WIDTH_GRID`] take the
//!   strip-mined any-`m` loop inside this family;
//! * **simd** — explicit `core::arch` intrinsics (AVX-512 / AVX2+FMA /
//!   NEON) with register-tiled `m`-lane micro-kernels, selected against
//!   the ISAs detected *at run time* (see `crate::simd`). The vector is
//!   chosen per width, not per machine: a width runs on the widest
//!   vector the CPU has whose lane count is at most `m` (an AVX-512
//!   CPU runs `4 ≤ m < 8` on its AVX2 unit), full-storage rows at
//!   `m = 1` run a kernel vectorised across the 3×3 block, and only a
//!   width below every vector delegates to the scalar kernels —
//!   [`Backend::isa_for_width`] says which.
//!
//! The backend is chosen **once per process** ([`active_backend`]):
//! `MRHS_KERNEL_BACKEND=scalar|simd` overrides, otherwise the
//! best backend for the detected ISA wins (SIMD when any vector ISA is
//! present, scalar otherwise). The one GSPMV driver
//! ([`crate::gspmv_on`]) takes the backend as a value and hands it to
//! each chunk's row kernel; the conveniences [`crate::gspmv()`],
//! [`crate::gspmv_serial`] and [`crate::spmv`] pass the active one, so
//! solvers, the distributed engine, and the solve service inherit the
//! dispatch for free.
//!
//! All backends share the determinism contract the oracle pins down:
//! within one backend, serial/auto/chunked results are bitwise
//! identical (row accumulation never crosses a chunk). *Across*
//! backends results differ only in rounding (the SIMD path uses fused
//! multiply-adds), within the oracle's `TolModel::KERNEL` bounds.

use crate::bcrs::BcrsMatrix;
use crate::gspmv::{dispatch_rows_scalar, sweep_scalar};
use crate::sgs::{Factors, Pass};
use crate::simd;
use crate::BLOCK_DIM;
use std::ops::Range;
use std::sync::OnceLock;

/// The one width grid every backend specializes: the `m` values with
/// dedicated fast paths in the monomorphized kernels, the SIMD chunk
/// decomposition, and the dense MultiVec ops (the paper generated
/// kernels up to m = 32 on clusters and 42 on a single node). Widths
/// off the grid fall back to strip-mined, markedly slower loops, so
/// width-choosing layers (the solve service's batcher) snap to a member.
pub const WIDTH_GRID: [usize; 10] = [1, 2, 4, 8, 12, 16, 24, 32, 42, 48];

/// Which kernel implementation family a backend belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Monomorphized portable kernels (the reference).
    Scalar,
    /// Explicit `core::arch` SIMD kernels.
    Simd,
}

impl KernelKind {
    /// Stable lowercase name (used in env overrides, telemetry counter
    /// tags, oracle backend names, and `repro` output).
    pub const fn as_str(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Simd => "simd",
        }
    }

    /// Parses an `MRHS_KERNEL_BACKEND` value.
    pub fn parse(s: &str) -> Option<KernelKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" | "mono" | "monomorphized" => Some(KernelKind::Scalar),
            "simd" => Some(KernelKind::Simd),
            _ => None,
        }
    }

    /// All kinds, in dispatch-preference order.
    pub const ALL: [KernelKind; 2] = [KernelKind::Simd, KernelKind::Scalar];
}

/// Vector instruction set a backend's kernels target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Isa {
    /// x86-64 AVX-512F (8 f64 lanes).
    Avx512,
    /// x86-64 AVX2 + FMA (4 f64 lanes).
    Avx2,
    /// AArch64 Advanced SIMD (2 f64 lanes, baseline on aarch64).
    Neon,
    /// No explicit vector ISA — whatever the build baseline provides.
    Portable,
}

impl Isa {
    /// Stable lowercase name (printed by `repro` and the probes).
    pub const fn as_str(self) -> &'static str {
        match self {
            Isa::Avx512 => "avx512",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
            Isa::Portable => "portable",
        }
    }
}

/// Whether the running CPU can execute `isa`'s kernels (runtime
/// feature detection, which the standard library caches).
pub(crate) fn isa_available(isa: Isa) -> bool {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => true,
        Isa::Portable => true,
        #[allow(unreachable_patterns)]
        _ => false,
    }
}

/// The widest vector ISA the running CPU has: AVX-512F beats AVX2 beats
/// the portable baseline on x86-64; NEON is unconditionally available
/// on aarch64.
pub fn detect_isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        [Isa::Avx512, Isa::Avx2, Isa::Neon]
            .into_iter()
            .find(|&isa| isa_available(isa))
            .unwrap_or(Isa::Portable)
    })
}

/// One kernel implementation family. A `Copy` value, dispatched per
/// *row range* by a match on the width's ISA, so the branch is
/// amortized over an entire chunk of block rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The monomorphized reference kernels.
    Scalar,
    /// Explicit-SIMD kernels on the widest ISA detected at run time;
    /// which vector a given width runs on is
    /// [`Backend::isa_for_width`]. Only [`backend_for`] builds this
    /// variant, so the ISA it carries is always one the running CPU
    /// has.
    #[non_exhaustive]
    Simd(Isa),
}

impl Backend {
    /// The backend for `kind`.
    ///
    /// # Panics
    /// When `kind` is unavailable on this host (SIMD without a vector
    /// ISA); gate with [`backend_available`].
    pub fn forced(kind: KernelKind) -> Backend {
        backend_for(kind)
            .expect("requested kernel backend unavailable on this host")
    }

    /// Which family this is.
    pub const fn kind(self) -> KernelKind {
        match self {
            Backend::Scalar => KernelKind::Scalar,
            Backend::Simd(_) => KernelKind::Simd,
        }
    }

    /// Stable name for telemetry tagging.
    pub const fn name(self) -> &'static str {
        self.kind().as_str()
    }

    /// The width → vector rule of the SIMD backend, shared by GSPMV
    /// rows and the dense sweeps: the widest vector the
    /// running CPU has whose lane count is at most `m`. An AVX-512 CPU
    /// runs `4 ≤ m < 8` on its AVX2+FMA unit; a width below every
    /// vector (`m = 2, 3` on x86-64, `m = 1` everywhere) has no ISA
    /// here and delegates to the monomorphized kernels.
    fn vector_isa(self, m: usize) -> Option<Isa> {
        let fits = |isa| m >= simd::min_vector_width(isa);
        match self {
            Backend::Simd(isa) if fits(isa) => Some(isa),
            Backend::Simd(Isa::Avx512)
                if fits(Isa::Avx2) && isa_available(Isa::Avx2) =>
            {
                Some(Isa::Avx2)
            }
            _ => None,
        }
    }

    /// The ISA whose kernel multiplies full-storage rows at width `m`;
    /// [`Isa::Portable`] when the width delegates to the monomorphized
    /// kernels. The SIMD backend runs a width on the widest vector the
    /// CPU has whose lane count is at most `m` (the rule the dense
    /// sweeps share), plus the one kernel that needs no lane of `m`: at
    /// `m = 1` it vectorises across the 3×3 block (`simd::rows_w1`), on
    /// its own ISA. The dense sweeps have no such kernel and stay on
    /// the monomorphized ones at `m = 1`.
    pub fn isa_for_width(self, m: usize) -> Isa {
        match self {
            Backend::Simd(isa) if m == 1 => isa,
            _ => self.vector_isa(m).unwrap_or(Isa::Portable),
        }
    }

    /// Full-storage GSPMV over `rows` only; `y` is the slice for
    /// exactly those rows (disjoint windows in the chunked driver).
    /// The row-range entry of the driver's chunk runner; whole
    /// products go through [`crate::gspmv_on`].
    pub(crate) fn gspmv_rows(
        self,
        a: &BcrsMatrix,
        x: &[f64],
        y: &mut [f64],
        m: usize,
        rows: Range<usize>,
    ) {
        // The SIMD row kernels index `x` and `y` unchecked.
        assert!(rows.end <= a.nb_rows(), "row range past the matrix");
        assert_eq!(x.len(), a.n_cols() * m, "x must hold n_cols × m values");
        assert_eq!(y.len(), rows.len() * BLOCK_DIM * m, "y must hold `rows`");
        let (row_ptr, col_idx, blocks) = (a.row_ptr(), a.col_idx(), a.blocks());
        match self.isa_for_width(m) {
            Isa::Portable => {
                dispatch_rows_scalar(row_ptr, col_idx, blocks, x, y, m, rows)
            }
            isa => simd::gspmv_rows(isa, row_ptr, col_idx, blocks, x, y, m, rows),
        }
    }

    /// One block Gauss–Seidel sweep (`crate::sgs`) on this family's
    /// row sums: the ISA [`Backend::isa_for_width`] picks for `m`, the
    /// monomorphized rows where that is [`Isa::Portable`].
    pub(crate) fn sgs_sweep(
        self,
        f: &Factors,
        pass: Pass,
        m: usize,
        s: &mut [f64],
    ) {
        match self.isa_for_width(m) {
            Isa::Portable => sweep_scalar(f, pass, m, s),
            isa => simd::sgs_sweep(isa, f, pass, m, s),
        }
    }
}

/// The backend for an explicit kind, or `None` when the host cannot
/// run it (`Simd` without a detected vector ISA).
pub fn backend_for(kind: KernelKind) -> Option<Backend> {
    match kind {
        KernelKind::Scalar => Some(Backend::Scalar),
        KernelKind::Simd => {
            let isa = detect_isa();
            (isa != Isa::Portable).then_some(Backend::Simd(isa))
        }
    }
}

/// Whether [`backend_for`] would succeed — what oracle backends and
/// bench ablations use to skip unavailable kinds.
pub fn backend_available(kind: KernelKind) -> bool {
    backend_for(kind).is_some()
}

/// Pure selection policy: the kind that an env override `requested`
/// plus a detected ISA resolve to. Unknown override values and `simd`
/// on a vector-less host fall back to the auto choice; auto picks SIMD
/// whenever a vector ISA is present.
pub fn select_kind(requested: Option<&str>, isa: Isa) -> KernelKind {
    let auto =
        if isa == Isa::Portable { KernelKind::Scalar } else { KernelKind::Simd };
    match requested.and_then(KernelKind::parse) {
        Some(KernelKind::Simd) if isa == Isa::Portable => KernelKind::Scalar,
        Some(k) => k,
        None => auto,
    }
}

/// The process-wide active backend, selected once on first use from
/// `MRHS_KERNEL_BACKEND` and the detected ISA.
pub fn active_backend() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let kind = select_kind(
            std::env::var("MRHS_KERNEL_BACKEND").ok().as_deref(),
            detect_isa(),
        );
        backend_for(kind).unwrap_or(Backend::Scalar)
    })
}

/// The ISA of the SIMD dense-kernel fast path for width `m`, when the
/// active backend is SIMD and the CPU has a vector of at most `m` lanes
/// — the gate the MultiVec dense ops (Gram, `X += P·C`, fused
/// sub-mul-gram) use.
pub(crate) fn simd_dense_isa(m: usize) -> Option<Isa> {
    active_backend().vector_isa(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_policy() {
        // Explicit overrides win where runnable.
        assert_eq!(select_kind(Some("scalar"), Isa::Avx512), KernelKind::Scalar);
        assert_eq!(select_kind(Some("mono"), Isa::Avx2), KernelKind::Scalar);
        assert_eq!(select_kind(Some("simd"), Isa::Avx2), KernelKind::Simd);
        // SIMD without a vector ISA degrades to scalar.
        assert_eq!(select_kind(Some("simd"), Isa::Portable), KernelKind::Scalar);
        // Auto: SIMD when vectors exist, scalar otherwise.
        assert_eq!(select_kind(None, Isa::Avx512), KernelKind::Simd);
        assert_eq!(select_kind(None, Isa::Neon), KernelKind::Simd);
        assert_eq!(select_kind(None, Isa::Portable), KernelKind::Scalar);
        // Unknown values fall back to auto, not a panic.
        assert_eq!(select_kind(Some("turbo"), Isa::Portable), KernelKind::Scalar);
        assert_eq!(select_kind(Some("turbo"), Isa::Avx2), KernelKind::Simd);
        // `generic` named a deleted backend: it resolves like any
        // unknown value.
        assert_eq!(select_kind(Some("generic"), Isa::Neon), KernelKind::Simd);
        assert_eq!(select_kind(Some("generic"), Isa::Portable), KernelKind::Scalar);
    }

    #[test]
    fn scalar_always_available() {
        assert!(backend_available(KernelKind::Scalar));
        // Whatever the host, the active backend resolves.
        let b = active_backend();
        assert!(!b.name().is_empty());
        assert_eq!(Backend::forced(b.kind()), b);
    }

    #[test]
    fn simd_backend_matches_detection() {
        let isa = detect_isa();
        assert_eq!(backend_available(KernelKind::Simd), isa != Isa::Portable);
        if let Some(b) = backend_for(KernelKind::Simd) {
            assert_eq!(b, Backend::Simd(isa));
        }
    }

    /// What runs at each narrow width, per ISA. The mapping is pure
    /// except for an AVX-512 backend's step down to the AVX2 unit,
    /// which asks the CPU (every AVX-512 CPU has one).
    #[test]
    fn narrow_widths_pick_a_vector() {
        for isa in [Isa::Avx512, Isa::Avx2, Isa::Neon] {
            let b = Backend::Simd(isa);
            assert_eq!(b.isa_for_width(1), isa, "the across-block kernel");
            for m in [8, 12, 16, 48] {
                assert_eq!(b.isa_for_width(m), isa, "{isa:?} m={m}");
            }
        }
        let stepped =
            if isa_available(Isa::Avx2) { Isa::Avx2 } else { Isa::Portable };
        for m in 4..8 {
            assert_eq!(Backend::Simd(Isa::Avx512).isa_for_width(m), stepped);
            assert_eq!(Backend::Simd(Isa::Avx2).isa_for_width(m), Isa::Avx2);
        }
        for m in [2, 3] {
            assert_eq!(Backend::Simd(Isa::Avx512).isa_for_width(m), Isa::Portable);
            assert_eq!(Backend::Simd(Isa::Avx2).isa_for_width(m), Isa::Portable);
            assert_eq!(Backend::Simd(Isa::Neon).isa_for_width(m), Isa::Neon);
        }
        for m in [1, 4, 8] {
            assert_eq!(Backend::Scalar.isa_for_width(m), Isa::Portable);
        }
    }

    #[test]
    fn width_grid_is_sorted_and_starts_at_one() {
        assert_eq!(WIDTH_GRID[0], 1);
        assert!(WIDTH_GRID.windows(2).all(|w| w[0] < w[1]));
    }
}
