//! The `parvc` binary's front end, run as a process: the exit codes a
//! script can rely on. 2 is a usage error (a malformed flag or
//! generator spec), 1 a file or standard output that cannot be read
//! or written, 0 success. A request the server refuses is an error
//! line, not an exit.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Runs `parvc` with `args`, feeding `stdin` when given.
fn parvc(args: &[&str], stdin: Option<&str>) -> Output {
    parvc_to(args, stdin, Stdio::piped())
}

/// [`parvc`] with standard output sent to `stdout`.
fn parvc_to(args: &[&str], stdin: Option<&str>, stdout: Stdio) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_parvc"))
        .args(args)
        .stdin(if stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stdout(stdout)
        .stderr(Stdio::piped())
        .spawn()
        .expect("start parvc");
    if let Some(text) = stdin {
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(text.as_bytes())
            .expect("feed stdin");
    }
    child.wait_with_output().expect("wait for parvc")
}

/// Asserts that `parvc args` exits with `code` and says why on stderr.
fn assert_exit(args: &[&str], code: i32) {
    assert_exited(args, &parvc(args, None), code);
}

/// Asserts that the run `out` of `parvc args` exited with `code` and
/// said why on stderr.
fn assert_exited(args: &[&str], out: &Output, code: i32) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "parvc {args:?}: {stderr}");
    assert!(!stderr.trim().is_empty(), "parvc {args:?} gave no reason");
}

/// A path in the temp directory unique to this test process.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("parvc-cli-test-{}-{name}", std::process::id()))
}

#[test]
fn malformed_specs_and_flags_exit_2() {
    for spec in [
        "gnp:30:2",
        "gnp:30:-0.5",
        "bipartite:5:5:2",
        "phat:30:0",
        "ba:5:0",
        "ba:10:20",
        "ws:10:3:0.5",
        "ws:30:40:0.1",
        "ws:30:4:2",
        "components:60:0:0.4",
        "pace:5:6",
        "gnp:30:0.1@x",
    ] {
        assert_exit(&["analyze", spec], 2);
    }
    assert_exit(&["analyze", "--format", "bogus", "gnp:10:0.5"], 2);
    assert_exit(&["generate", "gnp", "30", "2"], 2);
    assert_exit(&["resolve", "--edits", "gen:x", "gnp:10:0.5"], 2);
    assert_exit(&["solve", "--seed", "approx", "gnp:10:0.5"], 2);

    let empty = temp_path("empty-script");
    std::fs::write(&empty, "").expect("write the empty script");
    let script = empty.to_str().expect("utf-8 temp path");
    for workers in ["x", "0", "1025", "4000000000"] {
        assert_exit(&["serve", "--workers", workers, "--script", script], 2);
    }
    assert_exit(&["serve", "--exec", "bogus", "--script", script], 2);
    std::fs::remove_file(&empty).expect("remove the empty script");
}

#[test]
fn unreadable_inputs_and_unwritable_outputs_exit_1() {
    let missing = temp_path("missing.dimacs");
    assert_exit(&["analyze", missing.to_str().expect("utf-8 temp path")], 1);

    let unwritable = temp_path("no-such-dir").join("out.dimacs");
    let unwritable = unwritable.to_str().expect("utf-8 temp path");
    assert_exit(&["generate", "gnp", "10", "0.5", "--out", unwritable], 1);
    assert_exit(&["prep", "gnp:10:0.5", "--out", unwritable], 1);
    assert_exit(&["solve", "gnp:10:0.5", "--metrics-out", unwritable], 1);

    // Standard output on a full device: every command that prints
    // its report there exits 1.
    if cfg!(target_os = "linux") {
        let runs: [(&[&str], Option<&str>); 8] = [
            (&["generate", "gnp", "10", "0.5"], None),
            (&["solve", "gnp:10:0.5"], None),
            (&["prep", "gnp:10:0.5"], None),
            (&["analyze", "gnp:10:0.5"], None),
            (&["approx", "gnp:10:0.5"], None),
            (&["resolve", "--edits", "gen:4@1", "gnp:10:0.5"], None),
            (&["help"], None),
            (
                &["serve", "--script", "-"],
                Some("LOAD g gnp:10:0.5\nSOLVE g\n"),
            ),
        ];
        for (args, stdin) in runs {
            let full = std::fs::OpenOptions::new()
                .write(true)
                .open("/dev/full")
                .expect("open /dev/full");
            assert_exited(args, &parvc_to(args, stdin, full.into()), 1);
        }
    }
}

/// A scripted session keeps answering after a refused `LOAD`: one
/// error line, the rest answered, exit 0.
#[test]
fn a_script_with_a_bad_load_answers_every_line() {
    let out = parvc(
        &["serve", "--script", "-"],
        Some("LOAD b gnp:30:2\nLOAD g gnp:30:0.2@1\nSOLVE g\nSTATS\n"),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    let refused: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"ok\":false"))
        .collect();
    assert_eq!(refused.len(), 1, "{stdout}");
    assert!(lines[0].contains("\"ok\":false"), "{stdout}");
}
