//! Golden certificates: the text of the paper's compositional proofs,
//! with every step's `duration` cleared, must equal the files under
//! `tests/golden/` byte for byte. A change to how an obligation is
//! decided may change its cost but not a single certificate line.
//!
//! Regenerate the files (only when a certificate is meant to change) with
//! `cargo test --test golden_certificates -- --ignored`.

use cmc_bench::ring;
use compositional_mc::afs::{abp, afs1, ideal};
use compositional_mc::core::rules::rule4;
use compositional_mc::core::Certificate;
use compositional_mc::smv::compile_explicit;
use std::path::PathBuf;

/// A certificate's text with its timings masked.
fn untimed(mut cert: Certificate) -> String {
    for step in &mut cert.steps {
        step.duration = None;
    }
    cert.to_string()
}

/// The `n`-station ring proof as the benchmark runs it: the pairwise
/// exclusion invariant, then one Rule-4 discharge per station.
fn ring_proof(n: usize) -> String {
    let engine = ring::ring_engine(n);
    let mut out = untimed(
        engine
            .prove_invariant(&ring::at_most_one(n), &ring::token_at_zero(n), &[])
            .unwrap(),
    );
    for i in 0..n {
        let station = compile_explicit(&ring::station_module(i, n)).unwrap();
        let p = station.parse_formula(&format!("t{i}")).unwrap();
        let q = station.parse_formula(&format!("t{}", (i + 1) % n)).unwrap();
        let guarantee = rule4(&station.system, &p, &q).unwrap();
        out.push_str(&untimed(engine.discharge(&guarantee).unwrap()));
    }
    out
}

/// Renders one golden case's text.
type Render = fn() -> String;

/// Every golden case: its file stem and how to render it.
fn cases() -> Vec<(&'static str, Render)> {
    vec![
        ("ring-3", || ring_proof(3)),
        ("ring-4", || ring_proof(4)),
        ("ring-5", || ring_proof(5)),
        ("ring-8", || ring_proof(8)),
        ("afs1-safety", || untimed(afs1::prove_afs1_safety())),
        ("afs2-liveness", || untimed(afs1::prove_afs2_liveness())),
        ("afs1-substituted", || {
            untimed(ideal::prove_afs1_substituted())
        }),
        ("abp-safety", || untimed(abp::prove_safety())),
        ("abp-liveness", || untimed(abp::prove_liveness())),
    ]
}

fn golden_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{stem}.txt"))
}

#[test]
fn certificates_match_the_golden_files() {
    for (stem, render) in cases() {
        let path = golden_path(stem);
        let expected =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let actual = render();
        if let Some((line, (want, got))) = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (want, got))| want != got)
        {
            panic!(
                "{stem}: line {} differs\n  expected: {want}\n  actual:   {got}",
                line + 1
            );
        }
        assert_eq!(actual, expected, "{stem}: the certificate text differs");
    }
}

/// 64-bit FNV-1a of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The 20- and 48-station ring proofs, about 0.26 MB and 3.5 MB of text,
/// are pinned by byte length and [`fnv1a`] digest rather than by golden
/// files. The constants were taken from `ring_proof(n)` as rendered
/// before the engine planned and decided its pairs on union masks, so a
/// change to how pairs are decided may not move a byte of either proof.
#[test]
fn large_ring_proofs_match_their_digests() {
    for (n, len, digest) in [
        (20, 263_839, 0x0140_f800_c6fe_780d),
        (48, 3_539_615, 0xf9ba_e1f1_a928_05dd),
    ] {
        let text = ring_proof(n);
        assert_eq!((text.len(), fnv1a(&text)), (len, digest), "ring-{n}");
    }
}

/// Rewrites every golden file from the current engine.
#[test]
#[ignore = "rewrites tests/golden; run explicitly to regenerate"]
fn regenerate_golden_certificates() {
    for (stem, render) in cases() {
        let path = golden_path(stem);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, render()).unwrap();
    }
}
