//! Key oracle for `spec_keys`: the SMV check pipeline and the daemon key
//! every spec through `ObligationKey::source_specs`, which hashes the
//! normalised source once per job. Every key must equal the one the
//! earlier per-spec loop derived (normalise and hash the whole source
//! again for each spec), kept here as the reference, or verdicts already
//! on disk and the benchmark's preloaded store would stop hitting.

use cmc_afs::{afs1, afs2};
use cmc_serve::workload::{afs_source, ring_source};
use cmc_smv::{parse_module, spec_keys};
use cmc_store::hash::hash_bytes_seeded;
use cmc_store::ObligationKey;
use proptest::prelude::*;

/// The reference: the per-spec key loop, field separator and seeds as
/// the store defines them.
fn reference_key(source: &str, spec: &str) -> ObligationKey {
    const SEP: u8 = 0x1F;
    const SEED_HI: u64 = 0x636D_632D_7374_6F72;
    const SEED_LO: u64 = 0x6520_6B65_7920_3031;
    let mut enc = Vec::new();
    let mut push = |s: &str| {
        enc.extend_from_slice(s.as_bytes());
        enc.push(SEP);
    };
    push("SMV");
    for line in source.lines() {
        let line = match line.find("--") {
            Some(i) => &line[..i],
            None => line,
        };
        let line = line.trim();
        if !line.is_empty() {
            push(line);
        }
    }
    push("/SPEC");
    push(spec.trim());
    let hi = hash_bytes_seeded(SEED_HI, &enc) as u128;
    let lo = hash_bytes_seeded(SEED_LO, &enc) as u128;
    ObligationKey((hi << 64) | lo)
}

fn reference_keys(source: &str, specs: &[&str]) -> Vec<ObligationKey> {
    specs
        .iter()
        .map(|spec| reference_key(source, spec))
        .collect()
}

/// Every source the workloads send: the daemon's rings (a ring needs two
/// stations) and AFS family, and the paper's four component sources.
fn workload_sources() -> Vec<String> {
    (2..=16)
        .map(ring_source)
        .chain((1..=6).map(afs_source))
        .chain(
            [
                afs1::SERVER_SOURCE,
                afs1::CLIENT_SOURCE,
                afs2::SERVER1_SOURCE,
                afs2::CLIENT1_SOURCE,
            ]
            .map(str::to_string),
        )
        .collect()
}

/// Formatting-only variants of `source`: comments, blank lines, CRLF line
/// ends and trailing whitespace, each alone and all together.
fn variants(source: &str) -> Vec<String> {
    let map_lines = |f: &dyn Fn(usize, &str) -> String| -> String {
        source
            .lines()
            .enumerate()
            .map(|(i, line)| f(i, line))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let commented = map_lines(&|i, line| format!("-- note {i}\n{line} -- says {i}"));
    let blank = map_lines(&|_, line| format!("\n{line}\n  \n"));
    let trailing = map_lines(&|i, line| format!("{line}{}", [" ", "\t", "   \t"][i % 3]));
    let all = map_lines(&|i, line| format!("-- {i}\r\n\r\n  {line}  -- x \t"));
    vec![
        commented,
        blank,
        source.replace('\n', "\r\n"),
        trailing,
        all.replace('\n', "\r\n"),
    ]
}

fn spec_texts(source: &str) -> Vec<String> {
    let module = parse_module(source).unwrap_or_else(|e| panic!("{e}\n{source}"));
    module.specs.iter().map(|(text, _)| text.clone()).collect()
}

#[test]
fn spec_keys_match_the_per_spec_loop_on_every_workload_source() {
    for source in workload_sources() {
        let specs = spec_texts(&source);
        let specs: Vec<&str> = specs.iter().map(String::as_str).collect();
        let want = reference_keys(&source, &specs);
        let module = parse_module(&source).unwrap();
        assert_eq!(spec_keys(&source, &module), want, "{source}");

        for variant in variants(&source) {
            // Formatting never changes a key, through either path.
            let module = parse_module(&variant).unwrap_or_else(|e| panic!("{e}\n{variant}"));
            assert_eq!(spec_keys(&variant, &module), want, "{variant:?}");
            assert_eq!(reference_keys(&variant, &specs), want, "{variant:?}");
        }

        // Specs padded with whitespace key as their trimmed text.
        let padded: Vec<String> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                format!(
                    "{}{spec}{}",
                    [" ", "\t ", ""][i % 3],
                    ["  ", "", "\t"][i % 3]
                )
            })
            .collect();
        let padded: Vec<&str> = padded.iter().map(String::as_str).collect();
        assert_eq!(
            ObligationKey::source_specs(&source, padded.iter().copied()),
            want
        );
        for (spec, key) in padded.iter().zip(&want) {
            assert_eq!(ObligationKey::source_spec(&source, spec), *key);
        }
    }
}

/// Line fragments for the soups: SMV text, comments in every position,
/// blank and whitespace-only lines, stray `\r`s and non-ASCII text.
const FRAGMENTS: [&str; 14] = [
    "MODULE main",
    "VAR x : boolean;",
    "  next(x) := !x;  ",
    "-- a comment",
    "x -- trailing",
    "--",
    "a--b--c",
    "",
    "   ",
    "\t",
    "\r",
    "SPEC AG x",
    "é — ∀ ✓",
    "\u{1F}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On random line soups, whether or not they parse, the one-pass
    /// keys equal the per-spec loop's, spec for spec.
    #[test]
    fn source_specs_match_the_per_spec_loop_on_line_soups(
        picks in proptest::collection::vec((0usize..FRAGMENTS.len() + 1, ".{0,24}"), 0..24),
        crlf in any::<bool>(),
        specs in proptest::collection::vec(".{0,16}", 0..6),
    ) {
        let lines: Vec<String> = picks
            .iter()
            .map(|(i, random)| FRAGMENTS.get(*i).map_or_else(|| random.clone(), |f| f.to_string()))
            .collect();
        let source = lines.join(if crlf { "\r\n" } else { "\n" });
        let specs: Vec<&str> = specs.iter().map(String::as_str).collect();
        prop_assert_eq!(
            ObligationKey::source_specs(&source, specs.iter().copied()),
            reference_keys(&source, &specs)
        );
    }
}
