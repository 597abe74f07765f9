//! A fleet started while the process-wide telemetry flag is off still
//! publishes every family at zero: the counters are resolved in the
//! services' own registries at start, and the flag gates only the free
//! recording functions.
//!
//! Own test binary: it forces the process flag off.

use mrhs_service::{FleetConfig, FleetService};

#[test]
fn families_publish_zero_baselines_with_the_flag_off() {
    mrhs_telemetry::set_enabled(false);
    let fleet =
        FleetService::start(FleetConfig { shards: 2, ..FleetConfig::default() });
    let snap = mrhs_telemetry::snapshot();
    for name in [
        "service/drop/backpressure",
        "fleet/drop/admission",
        "fleet/shard1/batches",
    ] {
        assert_eq!(snap.counters.get(name), Some(&0), "`{name}` in {snap:?}");
    }
    fleet.shutdown();
}
