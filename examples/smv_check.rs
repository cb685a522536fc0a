//! `smv_check` — a command-line model checker for mini-SMV programs, in
//! the style of the `./smv file.smv` invocations shown in the paper's
//! Figures 7, 10, 15 and 17.
//!
//! Usage:
//!
//! ```text
//! cargo run --example smv_check -- path/to/model.smv
//! cargo run --example smv_check            # checks a built-in demo model
//! ```
//!
//! Exit status 0 when every spec holds, 1 when some spec fails, and 2
//! when the file cannot be read or the model does not parse or
//! type-check, as `cmc-smv` does.

use compositional_mc::smv::run_source;
use std::process::ExitCode;

const DEMO: &str = "\
MODULE main
VAR
  state : {idle, trying, critical};
  turn : boolean;
ASSIGN
  init(state) := idle;
  next(state) :=
    case
      state = idle : {idle, trying};
      state = trying & turn : critical;
      state = critical : idle;
      1 : state;
    esac;
  next(turn) := {0, 1};
FAIRNESS state = critical | !(state = trying)
SPEC AG (state = trying -> AF state = critical)
SPEC AG (state = critical -> AX (state = critical | state = idle))
SPEC EF state = critical
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let source = match args.get(1) {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => {
            println!("-- no input file given; checking the built-in demo model\n");
            DEMO.to_string()
        }
    };
    match run_source(&source) {
        Ok(outcome) => {
            println!("{}", outcome.report);
            if outcome.all_true() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
