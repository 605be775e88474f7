//! End-to-end tests of the `fedms` CLI binary.

use std::process::Command;

fn fedms() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fedms"))
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fedms-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = fedms().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn attacks_and_filters_list() {
    let out = fedms().arg("attacks").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["noise", "random", "safeguard", "backward", "alie", "label_flip"] {
        assert!(text.contains(needle), "attack list missing {needle}");
    }
    let out = fedms().arg("filters").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["fed-ms", "vanilla", "krum", "bulyan"] {
        assert!(text.contains(needle), "filter list missing {needle}");
    }
}

#[test]
fn init_config_then_run_roundtrip() {
    let cfg_path = temp_path("cfg.json");
    let out_path = temp_path("metrics.json");
    let out =
        fedms().args(["init-config", cfg_path.to_str().unwrap()]).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Shrink the config so the test is fast.
    let body = std::fs::read_to_string(&cfg_path).unwrap();
    let mut cfg: serde_json::Value = serde_json::from_str(&body).unwrap();
    cfg["clients"] = 6.into();
    cfg["servers"] = 3.into();
    cfg["byzantine_count"] = 1.into();
    cfg["dataset"]["train_per_class"] = 5.into();
    cfg["dataset"]["test_per_class"] = 2.into();
    cfg["model"] = serde_json::json!({"Mlp": {"widths": [192, 8, 10]}});
    std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();

    let out = fedms()
        .args([
            "run",
            cfg_path.to_str().unwrap(),
            "--rounds",
            "2",
            "--out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("final accuracy"));

    // The metrics file parses back into a RunResult.
    let metrics: fedms::RunResult =
        serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    assert_eq!(metrics.rounds.len(), 2);

    let _ = std::fs::remove_file(cfg_path);
    let _ = std::fs::remove_file(out_path);
}

#[test]
fn compare_prints_summary_table() {
    let cfg_path = temp_path("cmp.json");
    let out =
        fedms().args(["init-config", cfg_path.to_str().unwrap()]).output().expect("binary runs");
    assert!(out.status.success());
    let body = std::fs::read_to_string(&cfg_path).unwrap();
    let mut cfg: serde_json::Value = serde_json::from_str(&body).unwrap();
    cfg["clients"] = 6.into();
    cfg["servers"] = 3.into();
    cfg["byzantine_count"] = 1.into();
    cfg["rounds"] = 2.into();
    cfg["dataset"]["train_per_class"] = 5.into();
    cfg["dataset"]["test_per_class"] = 2.into();
    cfg["model"] = serde_json::json!({"Mlp": {"widths": [192, 8, 10]}});
    std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();

    let out = fedms()
        .args(["compare", cfg_path.to_str().unwrap(), cfg_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("final acc"));
    assert_eq!(text.lines().count(), 3, "header + two rows");
    assert!(fedms().arg("compare").output().unwrap().status.code() != Some(0));
    let _ = std::fs::remove_file(cfg_path);
}

#[test]
fn run_rejects_garbage_config() {
    let cfg_path = temp_path("bad.json");
    std::fs::write(&cfg_path, "{not json").unwrap();
    let out = fedms().args(["run", cfg_path.to_str().unwrap()]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("could not load"));
    let _ = std::fs::remove_file(cfg_path);
}

#[test]
fn unknown_flag_rejected() {
    let out = fedms().args(["run", "--bogus"]).output().expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn run_rejects_malformed_config_flag_values() {
    for (args, needle) in [
        (&["--rounds", "abc"][..], "rounds"),
        (&["--crashed-servers", "two"], "crashed_servers"),
        (&["--retry-budget", "-1"], "retry_budget"),
        (&["--attack", "signflip"], "unknown attack"),
        (&["--transport", "pigeon"], "transport"),
        (&["--seed", "x"], "--seed"),
        (&["--rounds"], "--rounds"),
    ] {
        let out = fedms().arg("run").args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    // Flags are the table keys only: no short forms, no underscores.
    for old in
        ["--crash", "--stragglers", "--attempt-timeout", "--backoff-base", "--crashed_servers"]
    {
        let out = fedms().args(["run", old, "1"]).output().expect("binary runs");
        assert!(!out.status.success(), "{old} must be rejected");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unrecognised argument"));
    }
}

#[test]
fn other_subcommands_reject_malformed_flag_values() {
    for args in [
        &["exp", "run", "experiments/smoke.toml", "--threads", "many"][..],
        &["exp", "run", "experiments/smoke.toml", "--out-dir"],
        &["serve", "127.0.0.1:0", "--expect", "two"],
        &["client", "127.0.0.1:9", "--client", "x"],
        &["client", "127.0.0.1:9", "--dim", "-4"],
        &["client", "127.0.0.1:9", "--value", "big"],
    ] {
        let out = fedms().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args[args.len() - 2..].iter().find(|a| a.starts_with("--")).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
    }
}

/// The first column of the indented lines under each header of a
/// `fedms attacks` / `fedms filters` listing.
fn listed_names(subcommand: &str) -> Vec<Vec<String>> {
    let out = fedms().arg(subcommand).output().expect("binary runs");
    assert!(out.status.success());
    let mut sections: Vec<Vec<String>> = Vec::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        match line.strip_prefix("  ") {
            Some(entry) => sections
                .last_mut()
                .unwrap()
                .push(entry.split_whitespace().next().unwrap().to_string()),
            None if line.ends_with(':') => sections.push(Vec::new()),
            None => {}
        }
    }
    sections
}

#[test]
fn listed_kind_names_parse_through_the_key_table() {
    let attacks = listed_names("attacks");
    let filters = listed_names("filters");
    assert_eq!(attacks.len(), 2);
    assert_eq!(filters.len(), 1);
    // Every variant is listed.
    assert_eq!(attacks[0].len(), fedms::AttackKind::DEFAULTS.len());
    assert_eq!(attacks[1].len(), fedms::ClientAttackKind::DEFAULTS.len());
    assert_eq!(filters[0].len(), fedms::FilterKind::DEFAULTS.len());
    for name in ["centeredclip:1", "normbound:3", "trimmed:0.2", "mean"] {
        assert!(filters[0].iter().any(|f| f == name), "filters missing {name}");
    }
    // Every listed token is a value the spec keys accept.
    let axis =
        |names: &[String]| names.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(", ");
    let spec = format!(
        "[experiment]\nname = \"listed\"\nscale = \"tiny\"\nrounds = 1\n\n[grid]\n\
         attack = [{}]\nclient_attack = [{}]\nfilter = [{}]\n",
        axis(&attacks[0]),
        axis(&attacks[1]),
        axis(&filters[0])
    );
    let path = temp_path("listed.toml");
    std::fs::write(&path, spec).unwrap();
    let out = fedms().args(["exp", "list", path.to_str().unwrap()]).output().expect("binary runs");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let cells = attacks[0].len() * attacks[1].len() * filters[0].len();
    assert!(stdout.contains(&format!("{cells} trials")), "{stdout}");
    for (key, names) in
        [("attack", &attacks[0]), ("client_attack", &attacks[1]), ("filter", &filters[0])]
    {
        for name in names {
            assert!(stdout.contains(&format!("{key}={name}")), "{key}={name} not expanded");
        }
    }
}

/// Exit code 1 with a message naming `key`: a typed error, not a panic.
fn assert_typed_error(out: &std::process::Output, key: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{key}: {stderr}");
    assert!(stderr.contains(key), "error must name {key}: {stderr}");
    assert!(!stderr.contains("panicked"), "{key}: {stderr}");
}

/// A config as `fedms init-config` wrote it before the kernel set became
/// one (it carries `"backend": "Scalar"`), cut to a fast run.
fn shrunk_init_config() -> serde_json::Value {
    let mut cfg: serde_json::Value =
        serde_json::from_str(include_str!("fixtures/init-config.json")).unwrap();
    assert_eq!(cfg["backend"].as_str(), Some("Scalar"));
    cfg["clients"] = 6.into();
    cfg["servers"] = 3.into();
    cfg["byzantine_count"] = 1.into();
    cfg["rounds"] = 2.into();
    cfg["dataset"]["train_per_class"] = 5.into();
    cfg["dataset"]["test_per_class"] = 2.into();
    cfg["model"] = serde_json::json!({"Mlp": {"widths": [192, 8, 10]}});
    cfg
}

#[test]
fn removed_backend_knob_is_a_typed_error() {
    let out = fedms().args(["run", "--backend", "blocked"]).output().expect("binary runs");
    assert_typed_error(&out, "--backend");

    let spec = temp_path("backend.toml");
    std::fs::write(
        &spec,
        "[experiment]\nname = \"backend\"\nscale = \"tiny\"\nrounds = 1\n\n\
         [base]\nbackend = \"blocked\"\n",
    )
    .unwrap();
    let out = fedms().args(["exp", "list", spec.to_str().unwrap()]).output().expect("binary runs");
    let _ = std::fs::remove_file(&spec);
    assert_typed_error(&out, "backend");

    let mut cfg = shrunk_init_config();
    cfg["backend"] = "Blocked".into();
    let path = temp_path("blocked.json");
    std::fs::write(&path, serde_json::to_string(&cfg).unwrap()).unwrap();
    let out = fedms().args(["run", path.to_str().unwrap()]).output().expect("binary runs");
    let _ = std::fs::remove_file(&path);
    assert_typed_error(&out, "backend");
}

#[test]
fn config_written_before_the_kernel_fold_still_runs() {
    let path = temp_path("old-init.json");
    std::fs::write(&path, serde_json::to_string(&shrunk_init_config()).unwrap()).unwrap();
    let out = fedms().args(["run", path.to_str().unwrap()]).output().expect("binary runs");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("final accuracy"));
}
