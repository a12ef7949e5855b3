//! `xp`'s exit codes for a spec source that yields no spec, driven through
//! the built binary: every command that takes a spec agrees that unknown
//! names, unreadable paths and variant entries are usage errors (exit 2)
//! and a file that reads but does not parse is a run failure (exit 1). A
//! reader that closes `xp`'s stdout early (`xp list | head -1`, or a
//! `--stream` run piped to `head -1`) is not a failure (exit 0). A run
//! that fails after validation exits 1.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Runs `xp` with `args` and returns its exit code and stderr.
fn xp(args: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_xp"))
        .args(args)
        .output()
        .expect("xp starts");
    let code = output.status.code().expect("xp exits with a code");
    (code, String::from_utf8_lossy(&output.stderr).into_owned())
}

#[test]
fn a_spec_file_that_does_not_parse_exits_1_everywhere() {
    let path = format!("{}/xp_unknown_key.spec", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(
        &path,
        "scenario = rumor\nn = 100\nk = 2\nepsilon = 0.3\nnot_a_key = 1\n",
    )
    .unwrap();
    for args in [
        ["run", "--spec", path.as_str()],
        ["campaign", "--spec", path.as_str()],
        ["load", "--spec", path.as_str()],
    ] {
        let (code, stderr) = xp(&args);
        assert_eq!(code, 1, "xp {args:?}: {stderr}");
        assert!(stderr.contains("not_a_key"), "xp {args:?}: {stderr}");
    }
}

/// A population too large to allocate passes validation and fails the
/// run: exit 1, with a message that blames the run, not the parameters.
#[test]
fn an_unallocatable_population_exits_1_as_a_failed_run() {
    let path = format!("{}/xp_unallocatable.spec", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(
        &path,
        "scenario = rumor\nn = 4611686018427387904\nk = 3\nbackend = agent\ntrials = 1\n",
    )
    .unwrap();
    let (code, stderr) = xp(&["run", "--spec", &path]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("the run failed: simulation state too large"), "{stderr}");
    assert!(!stderr.contains("invalid protocol parameters"), "{stderr}");
}

#[test]
fn variant_entries_exit_2_wherever_one_spec_is_needed() {
    for args in [&["campaign", "t1"][..], &["load", "t1"]] {
        let (code, stderr) = xp(args);
        assert_eq!(code, 2, "xp {args:?}: {stderr}");
        assert!(
            stderr.contains("variant experiment"),
            "xp {args:?}: {stderr}"
        );
    }
    // `xp show` prints every variant's spec instead.
    let (code, stderr) = xp(&["show", "t1"]);
    assert_eq!(code, 0, "xp show t1: {stderr}");
}

#[test]
fn unknown_names_and_unreadable_paths_exit_2() {
    let missing = format!("{}/xp_no_such.spec", env!("CARGO_TARGET_TMPDIR"));
    for args in [
        &["run", "no-such-experiment"][..],
        &["show", "no-such-experiment"],
        &["run", "--spec", &missing],
        &["campaign", "--spec", &missing],
        &["campaign", "no-such-experiment"],
        &["load", "no-such-experiment"],
        &["load", "--spec", &missing],
    ] {
        let (code, stderr) = xp(args);
        assert_eq!(code, 2, "xp {args:?}: {stderr}");
        if args.contains(&"no-such-experiment") {
            // An unknown name lists the registered ones.
            assert!(stderr.contains("registered: f1, "), "xp {args:?}: {stderr}");
        }
    }
}

#[test]
fn a_reader_that_closes_stdout_early_leaves_exit_0() {
    let spec = format!("{}/../../examples/specs/rumor_vs_eps.spec", env!("CARGO_MANIFEST_DIR"));
    for args in [&["list"][..], &["show", "t1"], &["run", "--spec", &spec, "--stream"]] {
        // Close the pipe after the first line, and before the first line
        // is even written.
        for lines in [1, 0] {
            let mut child = Command::new(env!("CARGO_BIN_EXE_xp"))
                .args(args)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("xp starts");
            let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
            if lines == 1 {
                let mut first = String::new();
                reader.read_line(&mut first).unwrap();
                assert!(!first.is_empty(), "xp {args:?} printed nothing");
            }
            drop(reader);
            let output = child.wait_with_output().expect("xp exits");
            assert!(
                output.status.success(),
                "xp {args:?} after {lines} line(s) read: {:?} {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            );
        }
    }
}
