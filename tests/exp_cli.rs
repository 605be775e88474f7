//! End-to-end tests of the `fedms exp` subcommand: running the checked-in
//! smoke spec writes a manifest and one record per trial and prints the
//! sweep's table, a re-run skips everything, `exp check` validates the run
//! directory, and every checked-in spec expands.

use std::path::PathBuf;
use std::process::Command;

fn fedms() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fedms"))
}

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fedms-exp-cli-{}-{name}", std::process::id()))
}

fn smoke_spec() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("experiments/smoke.toml")
}

#[test]
fn exp_run_writes_manifest_and_records_then_resumes_and_checks() {
    let out_dir = temp_dir("run");
    let _ = std::fs::remove_dir_all(&out_dir);
    let spec = smoke_spec();

    let out = fedms()
        .args(["exp", "run", spec.to_str().unwrap(), "--threads", "2"])
        .args(["--out-dir", out_dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 executed, 0 skipped, 0 failed"), "unexpected summary: {stdout}");
    // The single-axis smoke grid prints one table with a column per filter.
    let header = stdout.lines().find(|l| l.trim_start().starts_with("round")).expect("table");
    assert!(header.contains("trimmed:0.25") && header.contains("mean"), "{stdout}");
    assert!(stdout.lines().any(|l| l.trim_start().starts_with("final")), "{stdout}");

    // One run directory with a manifest, the spec copy, and two records.
    let runs: Vec<_> = std::fs::read_dir(&out_dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(runs.len(), 1, "exactly one run id for the smoke spec");
    let run_dir = &runs[0];
    let manifest_body = std::fs::read_to_string(run_dir.join("manifest.json")).unwrap();
    let manifest: serde_json::Value = serde_json::from_str(&manifest_body).unwrap();
    assert_eq!(manifest["name"].as_str(), Some("smoke"));
    assert_eq!(manifest["trials"].as_array().map(Vec::len), Some(2));
    assert!(run_dir.join("spec.toml").is_file());
    let records: Vec<_> =
        std::fs::read_dir(run_dir.join("trials")).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(records.len(), 2);
    for record in &records {
        let body = std::fs::read_to_string(record).unwrap();
        let value: serde_json::Value = serde_json::from_str(&body).expect("record parses");
        assert_eq!(value["status"].as_str(), Some("Completed"), "in {}", record.display());
    }

    // Second run over the same store: everything skips.
    let out = fedms()
        .args(["exp", "run", spec.to_str().unwrap(), "--threads", "2"])
        .args(["--out-dir", out_dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 executed, 2 skipped, 0 failed"), "unexpected summary: {stdout}");
    assert!(stdout.contains("== CI smoke sweep"), "a resumed run prints the tables too: {stdout}");

    // `exp check` accepts the complete run directory...
    let out =
        fedms().args(["exp", "check", run_dir.to_str().unwrap()]).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("2/2 trials completed, 0 problem(s)"));

    // ...and flags a deleted record as a problem.
    std::fs::remove_file(&records[0]).unwrap();
    let out =
        fedms().args(["exp", "check", run_dir.to_str().unwrap()]).output().expect("binary runs");
    assert!(!out.status.success(), "check must fail on a missing record");
    assert!(String::from_utf8_lossy(&out.stdout).contains("[missing]"));

    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn exp_list_prints_expansion_without_running() {
    let out = fedms()
        .args(["exp", "list", smoke_spec().to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 trials"), "unexpected listing: {stdout}");
    assert!(stdout.contains("filter=trimmed:0.25"));
    assert!(stdout.contains("filter=mean"));
}

#[test]
fn exp_run_rejects_bad_specs() {
    let bad = temp_dir("bad-spec.toml");
    std::fs::write(&bad, "[experiment]\nname = \"x\"\n\n[grid]\nfilter = [\"quantum\"]\n").unwrap();
    let out = fedms().args(["exp", "run", bad.to_str().unwrap()]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown filter"));
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn every_checked_in_spec_parses_and_expands() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("experiments");
    let mut specs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("experiments/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    specs.sort();
    assert!(specs.len() >= 12, "expected the figure and extension specs, got {specs:?}");
    for spec in &specs {
        let out = fedms().args(["exp", "list", spec.to_str().unwrap()]).output().expect("runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains(" trials, "),
            "{} does not expand: {}{stdout}",
            spec.display(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
