//! The `cmc-smv` binary end to end: each backend flag on a passing and a
//! failing module, the `-refine` path, and the usage, I/O and parse
//! errors, checked by exit status and by the report's last line.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Holds: `x` rises and stays up.
const PASSING: &str = "MODULE main\nVAR x : boolean;\n\
                       ASSIGN init(x) := 0; next(x) := 1;\nSPEC AG (x -> AX x)";
/// Fails: `x` may stay down forever.
const FAILING: &str = "MODULE main\nVAR x : boolean;\nASSIGN next(x) := x;\nSPEC AF x";

/// The driver tests' refinement example: a req/ack handshake with a
/// private `hidden` bit, its projection forgetting `hidden`, and a
/// consumer context.
const REFINE_CONCRETE: &str = "MODULE main\n\
     VAR req : boolean; ack : boolean; hidden : boolean;\n\
     ASSIGN next(hidden) := !hidden;\n\
     next(ack) := case req : 1; 1 : ack; esac;";
const REFINE_ABSTRACT: &str = "MODULE main\n\
     VAR req : boolean; ack : boolean;\n\
     ASSIGN next(ack) := case req : 1; 1 : ack; esac;";
const REFINE_CONTEXT: &str = "MODULE main\n\
     VAR ack : boolean; done : boolean;\n\
     ASSIGN next(ack) := ack;\n\
     next(done) := case ack : 1; 1 : done; esac;";
const REFINE_HOLDS: &str = "MODULE main\n\
     VAR req : boolean; ack : boolean; done : boolean;\n\
     INIT !ack & !done\nSPEC AG (done -> ack)";
const REFINE_FAILS: &str = "MODULE main\n\
     VAR req : boolean; ack : boolean; done : boolean;\n\
     INIT !ack & !done\nSPEC AG !done";

/// A fresh temp directory for one test.
fn tmp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmc-smv-cli-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write `text` to `dir/name`.
fn model(dir: &Path, name: &str, text: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

fn cmc_smv(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmc-smv"))
        .args(args)
        .output()
        .expect("cmc-smv runs")
}

fn last_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.trim_end().lines().last().unwrap_or("").to_string()
}

#[test]
fn backend_flags_set_exit_status_and_engine_line() {
    let dir = tmp_dir("flags");
    let passing = model(&dir, "passing.smv", PASSING);
    let failing = model(&dir, "failing.smv", FAILING);
    let cases: [(&[&str], &str); 3] = [
        (
            &[],
            "engine: explicit-state \u{2014} Auto: 1 encoded bits <= AUTO_DENSE_BITS 8",
        ),
        (&["-e"], "engine: explicit-state"),
        (&["-s"], "engine: symbolic (BDD)"),
    ];
    for (flags, engine) in cases {
        for (path, status) in [(&passing, 0), (&failing, 1)] {
            let mut args = flags.to_vec();
            args.push(path.to_str().unwrap());
            let out = cmc_smv(&args);
            assert_eq!(out.status.code(), Some(status), "{args:?}");
            assert_eq!(last_line(&out), engine, "{args:?}");
        }
    }
    // Validated runs print the symbolic report, with no engine line.
    for (path, status) in [(&passing, 0), (&failing, 1)] {
        let out = cmc_smv(&["-v", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(status));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("BDD nodes allocated:"), "{stdout}");
        assert!(!stdout.contains("engine:"), "{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn refine_runs_by_substitution() {
    let dir = tmp_dir("refine");
    let concrete = model(&dir, "concrete.smv", REFINE_CONCRETE);
    let abstraction = model(&dir, "abstract.smv", REFINE_ABSTRACT);
    let context = model(&dir, "context.smv", REFINE_CONTEXT);
    for (name, property, status) in [
        ("holds.smv", REFINE_HOLDS, 0),
        ("fails.smv", REFINE_FAILS, 1),
    ] {
        let property = model(&dir, name, property);
        let out = cmc_smv(&[
            "-refine",
            concrete.to_str().unwrap(),
            abstraction.to_str().unwrap(),
            context.to_str().unwrap(),
            property.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(status), "{name}");
        assert_eq!(last_line(&out), "engine: refinement substitution");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_io_and_parse_errors_exit_2() {
    let dir = tmp_dir("errors");
    let passing = model(&dir, "passing.smv", PASSING);
    let garbled = model(&dir, "garbled.smv", "MODUL main");
    let missing = dir.join("missing.smv");
    for args in [
        vec![missing.to_str().unwrap()],
        vec!["-x", passing.to_str().unwrap()],
        vec!["-e"],
        vec!["-refine", passing.to_str().unwrap()],
        vec![garbled.to_str().unwrap()],
    ] {
        let out = cmc_smv(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(!out.stderr.is_empty(), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
