//! A fleet started while the process-wide telemetry flag is off still
//! publishes every family at zero: the counters are resolved in the
//! services' own registries at start, and the flag gates only the free
//! recording functions.
//!
//! Own test binary: it forces the process flag off.

use mrhs_service::{FleetConfig, FleetService};
use mrhs_telemetry::openmetrics;

#[test]
fn families_publish_zero_baselines_with_the_flag_off() {
    mrhs_telemetry::set_enabled(false);
    let fleet =
        FleetService::start(FleetConfig { shards: 2, ..FleetConfig::default() });
    let text = openmetrics::render(&mrhs_telemetry::snapshot());
    let problems = openmetrics::validate(&text);
    assert!(problems.is_empty(), "{problems:?}\n{text}");
    for line in [
        "service_drop_backpressure_total 0",
        "fleet_drop_admission_total 0",
        "fleet_shard1_batches_total 0",
    ] {
        assert!(text.lines().any(|l| l == line), "no `{line}` in:\n{text}");
    }
    fleet.shutdown();
}
