//! The process-wide recording flag, flipped both ways. One `#[test]` in
//! its own file, so its own process: nothing else records while the
//! flag is off, and nothing else turns it off while this test counts.

use mrhs_telemetry as telemetry;
use mrhs_telemetry::exporter::{scrape, MetricsExporter};

#[test]
fn the_flag_gates_recording_and_the_exporter_serves_what_was_recorded() {
    telemetry::set_enabled(false);
    telemetry::counter_add("flag/disabled_counter", 3);
    drop(telemetry::span("flag/disabled_span"));
    let snap = telemetry::snapshot();
    assert!(!snap.counters.contains_key("flag/disabled_counter"));
    assert!(!snap.spans.contains_key("flag/disabled_span"));

    telemetry::set_enabled(true);
    telemetry::counter_add("flag/enabled_counter", 2);
    telemetry::counter_add("flag/enabled_counter", 5);
    drop(telemetry::span("flag/enabled_span"));
    let snap = telemetry::snapshot();
    assert_eq!(snap.counters["flag/enabled_counter"], 7);
    assert_eq!(snap.spans["flag/enabled_span"].count, 1);

    telemetry::counter_add("exporter/test_counter", 41);
    let exp = MetricsExporter::serve("127.0.0.1:0").unwrap();
    let addr = exp.local_addr();
    assert_eq!(scrape(addr, "/healthz").unwrap(), "ok\n");
    let metrics = scrape(addr, "/metrics").unwrap();
    assert!(metrics.contains("exporter_test_counter_total 41"), "{metrics}");
    let problems = telemetry::openmetrics::validate(&metrics);
    assert!(problems.is_empty(), "{problems:?}");
    assert!(scrape(addr, "/nope").is_err());
}
