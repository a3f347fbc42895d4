//! Smoke test: every example binary builds and exits successfully.
//!
//! Runs `cargo run --example <name>` for each of the five examples using
//! the same cargo that is running this test. Cargo's target-directory lock
//! serializes the inner invocations against the outer build, so this is
//! safe under parallel test execution (at the cost of briefly waiting for
//! the lock).

use std::process::Command;

#[test]
fn all_examples_run_to_completion() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    for example in [
        "quickstart",
        "orders_monitor",
        "catalog_notifications",
        "trigger_explain",
        "wire_quickstart",
    ] {
        let output = Command::new(&cargo)
            .args(["run", "--quiet", "--example", example])
            .current_dir(manifest_dir)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn cargo for example {example}: {e}"));
        assert!(
            output.status.success(),
            "example {example} exited with {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            output.status,
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
    }
}
