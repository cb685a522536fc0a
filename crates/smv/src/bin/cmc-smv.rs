//! The `cmc-smv` command-line driver.
//!
//! ```text
//! cmc-smv MODEL.smv                 # auto backend (explicit ≤ 8 encoded bits, else BDD)
//! cmc-smv -e MODEL.smv              # explicit-state engine
//! cmc-smv -s MODEL.smv              # symbolic (BDD) engine
//! cmc-smv -v MODEL.smv              # validated: both engines, fail on disagreement
//! cmc-smv -refine CONCRETE.smv ABSTRACT.smv [CONTEXT.smv ...] PROPERTY.smv
//! ```
//!
//! `-refine` verifies the `SPEC`s of the *property* module on the
//! composition `concrete ∘ contexts` by abstraction substitution: the
//! simulation premise `concrete ⊑ abstract` is checked once, the
//! soundness side conditions are enforced (an unsound substitution is a
//! hard error, never a verdict), and each property is checked on the
//! smaller `abstract ∘ contexts` composition.
//!
//! Exit status 0 when every spec holds, 1 when some spec fails, 2 on
//! usage, I/O, parse, or soundness errors.

use cmc_core::BackendChoice;
use cmc_smv::{run_refine, run_source_validated, run_source_with_backend, RunOutcome};

const USAGE: &str = "usage: cmc-smv [-e|-s|-v] MODEL.smv\n\
       cmc-smv -refine CONCRETE.smv ABSTRACT.smv [CONTEXT.smv ...] PROPERTY.smv";

fn read(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cmc-smv: cannot read {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn finish(out: RunOutcome) -> ! {
    println!("{}", out.report);
    std::process::exit(if out.all_true() { 0 } else { 1 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || -> ! {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let run = |r: Result<RunOutcome, cmc_smv::DriverError>| -> ! {
        match r {
            Ok(out) => finish(out),
            Err(e) => {
                eprintln!("cmc-smv: {e}");
                std::process::exit(2);
            }
        }
    };
    match args.first().map(String::as_str) {
        Some("-refine") => {
            // CONCRETE ABSTRACT [CONTEXT ...] PROPERTY
            if args.len() < 4 {
                usage();
            }
            let sources: Vec<String> = args[1..].iter().map(|p| read(p)).collect();
            let contexts: Vec<&str> = sources[2..sources.len() - 1]
                .iter()
                .map(String::as_str)
                .collect();
            run(run_refine(
                &sources[0],
                &sources[1],
                &contexts,
                &sources[sources.len() - 1],
            ));
        }
        Some("-v") => match args.get(1) {
            Some(path) => run(run_source_validated(&read(path))),
            None => usage(),
        },
        Some(flag @ ("-e" | "-s")) => match args.get(1) {
            Some(path) => {
                let choice = if flag == "-e" {
                    BackendChoice::Explicit
                } else {
                    BackendChoice::Symbolic
                };
                run(run_source_with_backend(&read(path), choice));
            }
            None => usage(),
        },
        Some(path) if !path.starts_with('-') => {
            run(run_source_with_backend(&read(path), BackendChoice::Auto));
        }
        _ => usage(),
    }
}
