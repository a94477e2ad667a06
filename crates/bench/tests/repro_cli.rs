//! Drives the real `redbin-repro` binary: its `--json` result bodies must
//! be exactly what `JobSpec::run` returns (the body `redbin-served` sends
//! for the same job), and every command or flag it cannot honor must exit
//! with status 2.

use std::process::{Command, Output};
use std::sync::atomic::AtomicBool;

use redbin::json;
use redbin::wire::{ExperimentKind, JobSpec};
use redbin::workload::Scale;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_redbin-repro"))
        .args(args)
        .env_remove("REDBIN_SCALE")
        .env_remove("REDBIN_SERVER")
        .output()
        .expect("redbin-repro runs")
}

#[test]
fn local_json_results_match_the_served_job_body() {
    for kind in [ExperimentKind::Delays, ExperimentKind::Table3] {
        let path = std::env::temp_dir()
            .join(format!("redbin-repro-{}-{}.json", std::process::id(), kind.name()));
        let out = repro(&[kind.name(), "--scale", "test", "--json", path.to_str().unwrap()]);
        assert!(out.status.success(), "{}: {}", kind.name(), String::from_utf8_lossy(&out.stderr));
        let text = std::fs::read_to_string(&path).expect("json written");
        std::fs::remove_file(&path).ok();
        let local = json::parse(&text).expect("valid json");
        let served = JobSpec::new(kind, Scale::Test).run(1, &AtomicBool::new(false));
        assert_eq!(
            local.get("result").map(json::Json::to_compact),
            Some(served.to_compact()),
            "{}: local and served bodies differ",
            kind.name()
        );
    }
}

#[test]
fn commands_and_flags_it_cannot_honor_exit_2() {
    let cases: &[(&[&str], &str)] = &[
        (&["figure15"], "unknown command `figure15`"),
        (&["sleep"], "`sleep`"),
        (&["point", "--scale", "test"], "`point`"),
        (&["custom"], "`custom`"),
        (&["figure9", "--scale", "test", "--profile", "--seeds", "3", "--verify-static"], "--profile"),
        (&["figure9", "--seeds", "3"], "only apply to `fuzz`"),
        (&["ablations", "--server", "127.0.0.1:9"], "locally only"),
        (&["fuzz", "--start-seed", "0xffffffffffffffff", "--seeds", "2"], "--start-seed"),
        (&["fuzz", "--start-seed", "0xffffffffffffffff", "--seeds", "2"], "--seeds"),
    ];
    for (args, needle) in cases {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}
