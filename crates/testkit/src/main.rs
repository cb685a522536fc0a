//! The `cmc-testkit` fuzz binary.
//!
//! ```text
//! cargo run -p cmc-testkit --release -- --seed N --iters K   # fresh seeds
//! cargo run -p cmc-testkit --release -- --corpus             # regression corpus
//! cargo run -p cmc-testkit --release -- --soak N             # one shared symbolic session
//! cargo run -p cmc-testkit --release -- --sim N              # simulation-pair differential
//! cargo run -p cmc-testkit --release -- --partition          # partitioned obligations
//! ```
//!
//! Every obligation runs through the differential oracle: the explicit
//! backend, the default symbolic backend and the reference evaluator, or
//! with `--partition` the unmerged, scheduled and monolithic symbolic
//! plans, the explicit backend and the reference. Exit status 0 means
//! every seed agreed with all witnesses replaying; status 1 means a
//! disagreement was found and a shrunk repro (with its replay command) was
//! printed; status 2 is a usage error. `--soak N` instead drives N seeded
//! formulas through one long-lived symbolic session and fails (status 1)
//! if the BDD live-node high-water mark ever crosses the soak bound — the
//! leak check for the memory kernel's garbage collector.

use cmc_core::{ExplicitBackend, ImageMode, SymbolicBackend};
use cmc_testkit::{
    corpus_seeds, gen_obligation, gen_partitioned_obligation, gen_sim_pair, run_obligation,
    run_sim_pair, soak, sweep, Leg, Obligation, PARTITION_SEED_CORPUS, SEED_CORPUS,
};

struct Args {
    seed: u64,
    iters: u64,
    corpus: bool,
    soak: Option<u64>,
    sim: Option<u64>,
    partition: bool,
}

const USAGE: &str =
    "usage: cmc-testkit [--seed N] [--iters K] [--corpus] [--soak N] [--sim N] [--partition]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 0,
        iters: 200,
        corpus: false,
        soak: None,
        sim: None,
        partition: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed value `{v}`"))?;
            }
            "--iters" => {
                let v = it.next().ok_or("--iters needs a value")?;
                args.iters = v.parse().map_err(|_| format!("bad --iters value `{v}`"))?;
            }
            "--corpus" => args.corpus = true,
            "--partition" => args.partition = true,
            "--soak" => {
                let v = it.next().ok_or("--soak needs a value")?;
                args.soak = Some(v.parse().map_err(|_| format!("bad --soak value `{v}`"))?);
            }
            "--sim" => {
                let v = it.next().ok_or("--sim needs a value")?;
                args.sim = Some(v.parse().map_err(|_| format!("bad --sim value `{v}`"))?);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn print(line: &str) {
    println!("{line}");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let fresh = |n: u64| -> Vec<u64> { (0..n).map(|i| args.seed.wrapping_add(i)).collect() };

    if let Some(n) = args.soak {
        println!(
            "soaking one shared symbolic session with {n} formulas from seed {}",
            args.seed
        );
        match soak(args.seed, n, print) {
            Ok(report) => println!(
                "soak clean: {} formulas; peak live {} nodes (bound {}), \
                 {} allocated in total, {} collections",
                report.checked,
                report.peak_live_nodes,
                report.live_bound,
                report.nodes_allocated,
                report.gc_runs
            ),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some(n) = args.sim {
        println!(
            "differential simulation check: {n} (concrete, abstraction) pairs from seed {}",
            args.seed
        );
        let check = |seed| run_sim_pair(&gen_sim_pair(seed));
        let report = sweep(&fresh(n), "simulation pairs", check, print);
        if let Some(d) = report.failure {
            eprintln!("{d}");
            std::process::exit(1);
        }
        println!(
            "done: {} agreed ({} holding, {} failing), {} skipped, three-way agreement everywhere",
            report.agreed,
            report.holding,
            report.agreed - report.holding,
            report.skipped
        );
        return;
    }

    let explicit = Leg::explicit(ExplicitBackend::default());
    let scheduled = SymbolicBackend::default();
    let legs = if args.partition {
        let monolithic = scheduled.with_image_mode(ImageMode::Monolithic);
        vec![
            Leg::symbolic("unmerged", scheduled.unmerged()),
            Leg::symbolic("scheduled", scheduled),
            Leg::symbolic("monolithic", monolithic),
            explicit,
        ]
    } else {
        vec![explicit, Leg::symbolic("symbolic", scheduled)]
    };
    let (generate, corpus, noun): (fn(u64) -> Obligation, _, _) = if args.partition {
        (
            gen_partitioned_obligation,
            PARTITION_SEED_CORPUS,
            "partitioned obligations",
        )
    } else {
        (gen_obligation, SEED_CORPUS, "obligations")
    };
    let (prefix, flag, ways, oracle) = if args.partition {
        (
            "partition ",
            "--partition ",
            "five-way",
            " (five-way oracle)",
        )
    } else {
        ("", "", "three-way", "")
    };
    let seeds = if args.corpus {
        let seeds = corpus_seeds(corpus);
        println!("replaying {} {prefix}corpus seeds", seeds.len());
        seeds
    } else {
        println!(
            "fuzzing {} {noun} from seed {}{oracle}",
            args.iters, args.seed
        );
        fresh(args.iters)
    };
    let report = sweep(&seeds, noun, |s| run_obligation(&generate(s), &legs), print);
    if let Some(d) = report.failure {
        eprintln!(
            "{d}replay:   cargo run -p cmc-testkit -- {flag}--seed {}",
            d.seed
        );
        std::process::exit(1);
    }
    let (agreed, skipped) = (report.agreed, report.skipped);
    if args.corpus {
        println!("{prefix}corpus clean: {agreed} obligations, {ways} agreement everywhere");
    } else if args.partition {
        println!("done: {agreed} agreed, {skipped} skipped, {ways} agreement everywhere");
    } else {
        println!("done: {agreed} agreed, {skipped} skipped, no disagreements");
    }
}
