//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, per-layer metrics. `--manifest` prints this as
//! `BENCHMARK.json`; `--selfcheck` proves a run prints exactly this set.

use mrhs_telemetry::json::Json;

/// Seconds one run measures (the driver passes it back as `--seconds`).
/// 40 would leave more rounds per run, but 70 driver runs with three
/// set-ups each would not fit the contract's total-time cap.
pub const RUN_SECONDS: u64 = 30;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sd_steps",
        why: "what a simulation user waits for: Alg. 2 chunks (m=8) against Alg. 1 steps on a 2,000-particle suspension, where assembly and warm width-1 CG dominate and wide kernels run only in the chunk head",
    },
    Workload {
        name: "block_solve",
        why: "wide kernels and dense n*m^2 work with no assembly and no queue: block CG at widths 8 and 16, block BiCGStab at 8 and scalar CG on one 4,000-particle operator",
    },
    Workload {
        name: "serve",
        why: "what a client of the coalescing service sees: a saturated closed loop (16 outstanding, 3 tenants) and a light fixed-rate window pull the batcher in opposite directions",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.20 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15 },
    EndToEnd { name: "ok_share", unit: "ratio", better: "higher", bound: 0.005 },
    EndToEnd { name: "rhs_per_s", unit: "RHS/s", better: "higher", bound: 0.15 },
    EndToEnd { name: "lat_p50_ms", unit: "ms", better: "lower", bound: 0.15 },
    EndToEnd { name: "lat_slow_ms", unit: "ms", better: "lower", bound: 0.15 },
    EndToEnd { name: "alt_lat_p50_ms", unit: "ms", better: "lower", bound: 0.15 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics, reported only by `--trace 1`. Each has one home
/// workload; a traced run of another workload fills it from a mini-run
/// of the home workload (see `Ctx::mini`).
pub const PER_LAYER: [PerLayer; 78] = [
    // sparse — measured on block_solve
    pl("sparse.gspmv_ms.w1", "ms", "lower"),
    pl("sparse.gspmv_ms.w8", "ms", "lower"),
    pl("sparse.gspmv_ms.w16", "ms", "lower"),
    pl("sparse.r_m.w8", "ratio", "lower"),
    pl("sparse.r_m.w16", "ratio", "lower"),
    pl("sparse.gspmv_gflops.w8", "GF/s", "higher"),
    pl("sparse.gspmv_gflops.w16", "GF/s", "higher"),
    pl("sparse.gspmv_gbps.w1", "GB/s", "higher"),
    pl("sparse.gspmv_gbps.w8", "GB/s", "higher"),
    pl("sparse.sym_gspmv_ms.w8", "ms", "lower"),
    pl("sparse.gram_ms.w8", "ms", "lower"),
    pl("sparse.gram_ms.w16", "ms", "lower"),
    pl("sparse.update_ms.w8", "ms", "lower"),
    pl("sparse.update_ms.w16", "ms", "lower"),
    // solvers — block_solve
    pl("solvers.block_cg.iters.w8", "iters", "lower"),
    pl("solvers.block_cg.iters.w16", "iters", "lower"),
    pl("solvers.block_cg.op_share.w8", "ratio", "higher"),
    pl("solvers.block_cg.op_share.w16", "ratio", "higher"),
    pl("solvers.block_cg.ms_per_iter.w8", "ms", "lower"),
    pl("solvers.block_cg.ms_per_iter.w16", "ms", "lower"),
    pl("solvers.block_cg.mean_apply_width.w8", "columns", "lower"),
    pl("solvers.block_cg.mean_apply_width.w16", "columns", "lower"),
    pl("solvers.block_bicgstab.iters.w8", "iters", "lower"),
    pl("solvers.block_bicgstab.op_share.w8", "ratio", "higher"),
    pl("solvers.cg.iters", "iters", "lower"),
    pl("solvers.cg.op_share", "ratio", "higher"),
    pl("solvers.chebyshev_ms.w1", "ms", "lower"),
    pl("solvers.chebyshev_ms.w8", "ms", "lower"),
    // stokes — sd_steps
    pl("stokes.pack_s", "s", "lower"),
    pl("stokes.assemble_ms", "ms", "lower"),
    pl("stokes.blocks_per_row", "blocks/row", "lower"),
    pl("stokes.assemble_share", "ratio", "lower"),
    // core — sd_steps
    pl("core.mrhs_speedup", "ratio", "higher"),
    pl("core.head_share", "ratio", "lower"),
    pl("core.iters.block", "iters", "lower"),
    pl("core.iters.first", "iters", "lower"),
    pl("core.iters.second", "iters", "lower"),
    pl("core.iters.cold", "iters", "lower"),
    // service — serve
    pl("service.batch_width_mean.sat", "columns", "higher"),
    pl("service.batch_width_mean.light", "columns", "higher"),
    pl("service.full_batch_share.sat", "ratio", "higher"),
    pl("service.queue_share.p50.sat", "ratio", "lower"),
    pl("service.solve_share.p50.sat", "ratio", "higher"),
    pl("service.queue_ms.p50.light", "ms", "lower"),
    pl("service.iters_mean.sat", "iters", "lower"),
    pl("service.rhs_per_s.spd", "RHS/s", "higher"),
    pl("service.rhs_per_s.general", "RHS/s", "higher"),
    pl("service.solo_retries", "count", "lower"),
    pl("service.rejected", "count", "lower"),
    pl("service.expired", "count", "lower"),
    // fleet — serve, ungated (needs two busy threads)
    pl("fleet.rhs_ratio", "ratio", "higher"),
    pl("fleet.batch_width_mean", "columns", "higher"),
    pl("fleet.routed_join_share", "ratio", "higher"),
    pl("fleet.steals", "count", "higher"),
    pl("fleet.admission_rejected", "count", "lower"),
    pl("fleet.shard_imbalance", "ratio", "lower"),
    // cluster — block_solve, ungated (needs two busy threads)
    pl("cluster.multiply_ratio.w8", "ratio", "lower"),
    pl("cluster.comm_wait_frac", "ratio", "lower"),
    pl("cluster.msgs_per_multiply", "count", "lower"),
    pl("cluster.halo_bytes_per_multiply", "bytes", "lower"),
    pl("cluster.block_cg_iters.w8", "iters", "lower"),
    // telemetry
    pl("telemetry.on_overhead.w8", "ratio", "lower"),
    pl("telemetry.on_overhead.serve", "ratio", "lower"),
    pl("telemetry.trace_overhead", "ratio", "lower"),
    // perfmodel — block_solve (Eq. 8) and sd_steps (Eq. 9)
    pl("perfmodel.eq8_resid.w8", "ratio", "lower"),
    pl("perfmodel.eq8_resid.w16", "ratio", "lower"),
    pl("perfmodel.eq9_resid", "ratio", "lower"),
    pl("perfmodel.host_gbps", "GB/s", "higher"),
    pl("perfmodel.host_gflops", "GF/s", "higher"),
    // host and uncorrected twins — explain a run, never move by a code change
    pl("host.pace", "ratio", "lower"),
    pl("host.pace_spread", "ratio", "lower"),
    pl("host.ref_share", "ratio", "lower"),
    pl("host.gen_lag_ms.p99", "ms", "lower"),
    pl("raw.setup_s", "s", "lower"),
    pl("raw.rhs_per_s", "RHS/s", "higher"),
    pl("raw.lat_p50_ms", "ms", "lower"),
    pl("raw.lat_slow_ms", "ms", "lower"),
    pl("raw.alt_lat_p50_ms", "ms", "lower"),
];

/// A JSON object from `(key, value)` pairs, in order.
pub fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let s = |v: &str| Json::Str(v.to_string());
    let metric = |name: &str, unit: &str, better: &str, bound: Option<f64>| {
        let mut fields =
            vec![("name", s(name)), ("unit", s(unit)), ("better", s(better))];
        fields.extend(bound.map(|b| ("bound", Json::Num(b))));
        object(fields)
    };
    let manifest = object(vec![
        ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::from_u64(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| object(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better, Some(m.bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better, None))
                    .collect(),
            ),
        ),
    ]);
    manifest.to_string_pretty() + "\n"
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn manifest_respects_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "bad name");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_json().len() < 64 * 1024);
    }

    #[test]
    fn manifest_text_reads_back() {
        let v = Json::parse(&manifest_json()).unwrap();
        let len =
            |key: &str| v.get(key).and_then(Json::as_arr).map_or(0, <[Json]>::len);
        assert_eq!(
            (len("workloads"), len("end_to_end"), len("per_layer")),
            (3, 7, 78)
        );
        assert_eq!(v.as_obj().map(<[(String, Json)]>::len), Some(6));
    }
}
