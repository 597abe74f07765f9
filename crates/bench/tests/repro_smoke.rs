//! The `repro` binary itself: `quick` runs end to end and exits zero.

#[test]
fn quick_exits_zero() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["quick", "--particles", "300", "--reps", "2"])
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
