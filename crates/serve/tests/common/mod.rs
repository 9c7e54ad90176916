//! Shared plumbing for the service e2e suites: locate (building if
//! needed) the real `simd` binary and drive it over its stdin/stdout
//! pipe protocol, the way a shell client would.

#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use scenario::Scenario;

/// The golden what-if scenario under `scenarios/`.
pub fn golden_scenario() -> Scenario {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/whatif_record.json");
    Scenario::read(&path).expect("golden scenario")
}

/// One `submit` request line for `s` under `id`.
pub fn submit(id: &str, s: &Scenario) -> String {
    format!(
        "{{\"type\":\"submit\",\"id\":\"{id}\",\"scenario\":{}}}\n",
        s.to_json_compact()
    )
}

/// Path to the `simd` binary for the active profile. Integration tests
/// of `simd-serve` cannot use `CARGO_BIN_EXE_*` (the binary belongs to
/// `repro-bench`), so resolve it relative to the test executable and
/// build it on first use — the cargo invocation blocks on the shared
/// target-dir lock, so concurrent test binaries serialize cleanly.
pub fn simd_bin() -> PathBuf {
    let mut dir = std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("deps dir")
        .to_path_buf();
    dir.pop(); // target/<profile>
    let bin = dir.join("simd");
    if !bin.exists() {
        let mut cmd = Command::new("cargo");
        cmd.args(["build", "-p", "repro-bench", "--bin", "simd"]);
        if dir.file_name().is_some_and(|n| n == "release") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("cargo build -p repro-bench --bin simd");
        assert!(status.success(), "building simd failed");
    }
    bin
}

/// Spawn `simd` with piped stdio in `cwd`.
pub fn spawn_simd(args: &[&str], envs: &[(&str, &str)], cwd: &Path) -> Child {
    let mut cmd = Command::new(simd_bin());
    cmd.args(args)
        .current_dir(cwd)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn simd")
}

/// Run one full `simd` session: write `input` to its stdin, close it,
/// collect every event line, and require a clean exit.
pub fn run_simd(args: &[&str], envs: &[(&str, &str)], input: &str) -> Vec<String> {
    run_simd_bytes(args, envs, input.as_bytes())
}

/// [`run_simd`] over raw request bytes, which need not be UTF-8.
pub fn run_simd_bytes(args: &[&str], envs: &[(&str, &str)], input: &[u8]) -> Vec<String> {
    let cwd = std::env::current_dir().expect("cwd");
    let mut child = spawn_simd(args, envs, &cwd);
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input)
        .expect("write requests");
    let lines: Vec<String> = BufReader::new(child.stdout.take().expect("stdout"))
        .lines()
        .map(|l| l.expect("event line"))
        .collect();
    let status = child.wait().expect("wait");
    assert!(status.success(), "simd exited with {status}:\n{lines:#?}");
    lines
}

/// The status event for `id` with the given state, or panic with the
/// full transcript.
pub fn event<'a>(lines: &'a [String], id: &str, state: &str) -> &'a String {
    let (id_pat, state_pat) = (format!("\"id\":\"{id}\""), format!("\"state\":\"{state}\""));
    lines
        .iter()
        .find(|l| l.contains(&id_pat) && l.contains(&state_pat))
        .unwrap_or_else(|| panic!("no {state} event for {id} in:\n{lines:#?}"))
}

/// Extract a numeric field's raw token from an event line.
pub fn raw_field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let i = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + pat.len();
    let rest = &line[i..];
    &rest[..rest.find([',', '}']).expect("field terminator")]
}
