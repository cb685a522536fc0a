//! End-to-end pipeline test: everything the paper does, in order, in one
//! run — component model checking, compositional deduction, certificate
//! reporting — with outcome assertions matching the paper's reported
//! results.

use cmc_testkit::{replay_store, validate_certificate};
use compositional_mc::afs::{afs1, afs2};
use compositional_mc::core::VerificationReport;
use compositional_mc::store::CertStore;
use std::sync::Arc;

#[test]
fn full_paper_reproduction() {
    // §4.2.4: all AFS-1 component specs are true (Figures 7 and 10).
    let fig7 = afs1::verify_server();
    let fig10 = afs1::verify_client();
    assert_eq!(
        fig7.results.iter().map(|(_, ok)| *ok).collect::<Vec<_>>(),
        vec![true; 5],
        "Figure 7 reports five true specs"
    );
    assert_eq!(
        fig10.results.iter().map(|(_, ok)| *ok).collect::<Vec<_>>(),
        vec![true; 6],
        "Figure 10 reports six true specs"
    );

    // §4.3.5: all AFS-2 component specs are true (Figures 15 and 17).
    let fig15 = afs2::verify_server();
    let fig17 = afs2::verify_client();
    assert_eq!(
        fig15.results.iter().map(|(_, ok)| *ok).collect::<Vec<_>>(),
        vec![true; 2],
        "Figure 15 reports two true specs"
    );
    assert_eq!(
        fig17.results.iter().map(|(_, ok)| *ok).collect::<Vec<_>>(),
        vec![true; 1],
        "Figure 17 reports one true spec"
    );

    // §4.2.3: the compositional deductions.
    let mut report = VerificationReport::new("paper reproduction");
    report.push(afs1::prove_afs1_safety());
    report.push(afs1::prove_afs2_liveness());
    assert!(report.all_valid(), "{}", report.to_markdown());

    // §4.3.4: the AFS-2 invariant, compositionally and monolithically.
    for n in 1..=2 {
        let proof = afs2::prove_invariant_compositional(n).unwrap();
        assert!(proof.valid(), "n={n}");
    }
    assert!(afs2::prove_invariant_monolithic(1).unwrap());

    // The final report renders and marks the safety proof compositional.
    let md = report.to_markdown();
    assert!(md.contains("all established"));
    assert!(md.contains("fully compositional"));
}

/// Every certificate the paper pipeline produces replays through the
/// `cmc-testkit` validator: the seed experiments are self-checking, not
/// just asserted-by-construction.
#[test]
fn paper_certificates_replay_through_validator() {
    // The two §4.2.3 deduction certificates.
    let safety = afs1::prove_afs1_safety();
    let liveness = afs1::prove_afs2_liveness();
    for cert in [&safety, &liveness] {
        validate_certificate(cert)
            .unwrap_or_else(|e| panic!("certificate `{}` failed replay: {e}", cert.goal));
    }

    // A store-backed AFS-1 session: every memoized certificate must also
    // replay (including after the cached second proof).
    let store = Arc::new(CertStore::new());
    let engine = afs1::engine().with_store(Arc::clone(&store));
    let r = compositional_mc::ctl::Restriction::new(
        afs1::initial_condition(),
        [compositional_mc::ctl::Formula::True],
    );
    let cert = engine.prove(&r, &afs1::afs1_safety_formula()).unwrap();
    assert!(cert.valid);
    validate_certificate(&cert).unwrap();
    assert!(
        cert.checked_steps().count() > 0,
        "engine proofs must carry backend-checked steps"
    );
    assert!(!cert.backends_used().is_empty());
    // A repeat proof replays the whole deduction verbatim from the store;
    // the replayed certificate must also pass the validator.
    let cert2 = engine.prove(&r, &afs1::afs1_safety_formula()).unwrap();
    validate_certificate(&cert2).unwrap();
    assert_eq!(cert2, cert, "store replay must be verbatim");
    let replayed = replay_store(&store).unwrap();
    assert_eq!(replayed, store.len());
    assert!(replayed > 0);
}

/// The resource reports have the exact shape of the paper's figures
/// (`-- specification ... is true` lines + `resources used` trailer).
#[test]
fn report_format_matches_smv() {
    let out = afs1::verify_server();
    let mut lines = out.report.lines();
    let first = lines.next().unwrap();
    assert!(first.starts_with("-- specification"));
    assert!(first.ends_with("is true"));
    assert!(out.report.contains("resources used:"));
    assert!(out.report.contains("user time:"));
    assert!(out.report.contains("BDD nodes allocated:"));
    assert!(out
        .report
        .contains("BDD nodes representing transition relation:"));
}

/// Orders of magnitude: the component models stay small (hundreds of BDD
/// nodes), matching the paper's 330–2737 range, and the AFS-2 components
/// allocate more nodes than the AFS-1 ones — the same ordering the paper
/// reports.
#[test]
fn resource_numbers_same_shape_as_paper() {
    let grab = |report: &str| -> usize {
        report
            .lines()
            .find(|l| l.starts_with("BDD nodes allocated:"))
            .and_then(|l| l.split(": ").nth(1))
            .and_then(|v| v.trim().parse().ok())
            .expect("report carries node count")
    };
    let reports = [
        afs1::verify_server().report,
        afs1::verify_client().report,
        afs2::verify_server().report,
        afs2::verify_client().report,
    ];
    // The canonical relations of EXPERIMENTS E5/E6 and E8-E10 (the paper's
    // Figures 7, 10, 15 and 17 read 43 + 7, 34 + 7, 1145 + 6 and 120 + 6).
    for (report, relation) in reports
        .iter()
        .zip(["48 + 6", "41 + 5", "89 + 10", "123 + 8"])
    {
        let line = format!("\nBDD nodes representing transition relation: {relation}\n");
        assert!(report.contains(&line), "expected {relation}:\n{report}");
    }
    let [s1, c1, s2, c2] = reports.map(|r| grab(&r));
    // All in the hundreds, like the paper's figures.
    for n in [s1, c1, s2, c2] {
        assert!(n > 50 && n < 10_000, "node count {n} out of expected band");
    }
    // AFS-2 components are bigger than their AFS-1 counterparts.
    assert!(s2 > c1, "AFS-2 server should exceed AFS-1 client");
    assert!(c2 > c1, "AFS-2 client should exceed AFS-1 client");
}
