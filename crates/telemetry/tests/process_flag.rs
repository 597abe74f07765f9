//! The process-wide recording flag, flipped both ways. One `#[test]` in
//! its own file, so its own process: nothing else records while the
//! flag is off, and nothing else turns it off while this test counts.

use mrhs_telemetry as telemetry;

#[test]
fn the_flag_gates_recording() {
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
}
