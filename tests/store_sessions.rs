//! End-to-end memoized verification sessions: the certificate store must be
//! *transparent* (store-backed runs return the same verdicts and the same
//! certificates as store-less runs), must actually reuse work (a shared
//! component's obligation is answered from the store on the second
//! composition), and must survive a disk round trip without being trusted
//! blindly.

use cmc_serve::workload::{afs_source, ring_source};
use compositional_mc::afs::afs1;
use compositional_mc::core::{BackendChoice, Component, Engine};
use compositional_mc::ctl::{parse, Restriction};
use compositional_mc::kripke::{Alphabet, System};
use compositional_mc::smv::{
    parse_module, run_source, run_source_with_store_and_backend, spec_keys,
};
use compositional_mc::store::{CertStore, ObligationKey, SegmentedDiskStore};
use std::sync::Arc;

/// A one-proposition component that can only switch `name` on.
fn rising(name: &str) -> System {
    let mut m = System::new(Alphabet::new([name]));
    m.add_transition_named(&[], &[name]);
    m
}

fn engine(names: &[&str]) -> Engine {
    Engine::new(
        names
            .iter()
            .map(|n| Component::new(format!("m_{n}"), rising(n)))
            .collect(),
    )
}

#[test]
fn store_is_transparent_for_prove() {
    let store = Arc::new(CertStore::new());
    let f = parse("x -> AX x").unwrap();
    let r = Restriction::trivial();

    let bare = engine(&["x", "y", "z"]).prove(&r, &f).unwrap();
    let backed = engine(&["x", "y", "z"]).with_store(Arc::clone(&store));
    let cold = backed.prove(&r, &f).unwrap();
    let warm = backed.prove(&r, &f).unwrap();

    // Identical verdicts AND identical certificates, cold and warm.
    assert_eq!(bare, cold);
    assert_eq!(cold, warm);
    assert!(cold.valid);

    // The warm run re-verified nothing: every lookup it made was a hit.
    let stats = store.stats();
    assert!(stats.hits >= 1, "{stats}");
    let misses_after_warm = stats.misses;
    backed.prove(&r, &f).unwrap();
    assert_eq!(
        store.stats().misses,
        misses_after_warm,
        "warm run missed the store"
    );
}

#[test]
fn store_is_transparent_for_invariants() {
    let store = Arc::new(CertStore::new());
    let inv = parse("x | !x").unwrap();
    let init = parse("!x & !y").unwrap();

    let bare = engine(&["x", "y"])
        .prove_invariant(&inv, &init, &[])
        .unwrap();
    let backed = engine(&["x", "y"]).with_store(Arc::clone(&store));
    let cold = backed.prove_invariant(&inv, &init, &[]).unwrap();
    let warm = backed.prove_invariant(&inv, &init, &[]).unwrap();

    assert_eq!(bare, cold);
    assert_eq!(cold, warm);
    assert!(store.stats().hits >= 1);
}

#[test]
fn shared_component_is_checked_once_across_compositions() {
    let store = Arc::new(CertStore::new());
    let f = parse("x -> AX x").unwrap();
    let r = Restriction::trivial();

    // First composition: {m_x, m_y}. Every obligation is a miss.
    let first = engine(&["x", "y"]).with_store(Arc::clone(&store));
    assert!(first.prove(&r, &f).unwrap().valid);
    let after_first = store.stats();
    assert_eq!(after_first.hits, 0);

    // Second composition: {m_x, m_z}. m_x's obligation must be answered
    // from the store — its step is marked, and the hit counter moves.
    let second = engine(&["x", "z"]).with_store(Arc::clone(&store));
    let cert = second.prove(&r, &f).unwrap();
    assert!(cert.valid);
    assert!(
        cert.steps
            .iter()
            .any(|s| s.description.contains("m_x") && s.description.contains("(cached)")),
        "{cert}"
    );
    let after_second = store.stats();
    assert!(after_second.hits >= 1, "{after_second}");
    // Only the genuinely new obligations (m_z's, and the new deduction
    // itself) were checked.
    assert!(after_second.misses > after_first.misses);
}

/// The same obligation checked under different backends must live under
/// *distinct* store keys: a symbolic verdict answering an explicit query
/// (or vice versa) would let one engine's bug poison the other's cache.
#[test]
fn backend_identity_prevents_cross_backend_cache_aliasing() {
    let store = Arc::new(CertStore::new());
    let f = parse("x -> AX x").unwrap();
    let r = Restriction::trivial();

    let explicit = engine(&["x", "y"])
        .with_backend(BackendChoice::Explicit)
        .with_store(Arc::clone(&store));
    assert!(explicit.prove(&r, &f).unwrap().valid);
    let hits_after_explicit = store.stats().hits;

    // Same components, same formula, symbolic backend: every lookup must
    // miss — nothing of the explicit session may be reused.
    let symbolic = engine(&["x", "y"])
        .with_backend(BackendChoice::Symbolic)
        .with_store(Arc::clone(&store));
    let cert = symbolic.prove(&r, &f).unwrap();
    assert!(cert.valid);
    assert_eq!(
        store.stats().hits,
        hits_after_explicit,
        "a symbolic check reused an explicit verdict"
    );
    assert!(
        !cert
            .steps
            .iter()
            .any(|s| s.description.contains("(cached)")),
        "{cert}"
    );

    // A repeat symbolic run hits its own entries as usual.
    assert!(symbolic.prove(&r, &f).unwrap().valid);
    assert!(store.stats().hits > hits_after_explicit);
}

#[test]
fn session_survives_a_disk_round_trip() {
    let store = Arc::new(CertStore::new());
    let f = parse("x -> AX x").unwrap();
    let r = Restriction::trivial();
    let cold = engine(&["x", "y"])
        .with_store(Arc::clone(&store))
        .prove(&r, &f)
        .unwrap();

    let dir = std::env::temp_dir().join(format!("cmc-store-session-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    SegmentedDiskStore::open(&dir)
        .unwrap()
        .save_snapshot(&store)
        .unwrap();

    // A fresh process would start from an empty store and load the
    // segment directory.
    let revived = Arc::new(CertStore::new());
    let loaded = SegmentedDiskStore::open(&dir)
        .unwrap()
        .load_into(&revived)
        .unwrap();
    assert!(loaded >= 1);
    assert_eq!(revived.stats().disk_rejects, 0);

    let warm = engine(&["x", "y"])
        .with_store(Arc::clone(&revived))
        .prove(&r, &f)
        .unwrap();
    assert_eq!(cold, warm, "certificate changed across the disk round trip");
    assert!(revived.stats().hits >= 1);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn smv_sessions_agree_with_plain_runs() {
    let src = "MODULE main\n\
               VAR s : {idle, busy};\n\
               ASSIGN init(s) := idle; next(s) := {idle, busy};\n\
               SPEC AG EX (s = busy)\n\
               SPEC AG (s = idle)";
    let plain = run_source(src).unwrap();

    let store = CertStore::new();
    let cold = run_source_with_store_and_backend(src, &store, BackendChoice::Symbolic).unwrap();
    let warm = run_source_with_store_and_backend(src, &store, BackendChoice::Symbolic).unwrap();

    assert_eq!(plain.results, cold.results);
    assert_eq!(cold.results, warm.results);
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(warm.cache_hits, 2);
    assert!(warm.report.contains("answered from store"));
}

#[test]
fn backend_identity_doubles_entries_with_zero_cross_hits() {
    // Regression for the PR-2 aliasing fix, measured at the entry level:
    // the same obligation discharged under Explicit and then Symbolic
    // must create two disjoint key populations — entry count doubles and
    // the second session's lookups all miss.
    let store = Arc::new(CertStore::new());
    let f = parse("x -> AX x").unwrap();
    let r = Restriction::trivial();

    let explicit = engine(&["x", "y"])
        .with_backend(BackendChoice::Explicit)
        .with_store(Arc::clone(&store));
    assert!(explicit.prove(&r, &f).unwrap().valid);
    let entries_after_explicit = store.len();
    let misses_after_explicit = store.stats().misses;
    assert!(entries_after_explicit > 0);

    let symbolic = engine(&["x", "y"])
        .with_backend(BackendChoice::Symbolic)
        .with_store(Arc::clone(&store));
    assert!(symbolic.prove(&r, &f).unwrap().valid);

    assert_eq!(
        store.len(),
        2 * entries_after_explicit,
        "explicit and symbolic entries must not alias"
    );
    assert_eq!(store.stats().hits, 0, "no lookup may cross backends");
    assert_eq!(
        store.stats().misses,
        2 * misses_after_explicit,
        "the symbolic session must re-derive every obligation"
    );

    // The two verdicts live under distinct keys even for the *same*
    // component obligation.
    let m = rising("x");
    let ke = ObligationKey::composed("prove", "explicit", &[&m], &r, &f);
    let ks = ObligationKey::composed("prove", "symbolic", &[&m], &r, &f);
    assert_ne!(ke, ks, "backend identity must separate key domains");

    // And the whole session's certificates replay through the validator.
    let replayed = cmc_testkit::replay_store(&store).unwrap();
    assert_eq!(replayed, store.len());
}

/// Golden digests of `spec_keys`, the key every stored SMV verdict and
/// every committed disk segment is filed under, and of one key of each
/// kind the proof engine files certificates under. The repo benchmark's
/// `serve-hot` preload derives the same keys with its own
/// `ObligationKey::source_spec` loop, so a change to key derivation would
/// turn its preloaded hits into misses and orphan segments on disk.
#[test]
fn spec_keys_are_golden() {
    let cases: [(String, &[&str]); 3] = [
        (
            ring_source(4),
            &[
                "1a5798db96c341d087811fefc094cf4f",
                "38d849f64e0c3d14a2b13bcaac58017b",
                "5864caf586942ea8182e262a79dd2df3",
                "f2cafefc0fbc5da8b2d6b419861061b3",
                "1d07bc875318c0c59c334daa173249f0",
                "f18db9f69e42b4e372016d3ab050d590",
                "630630bf3c30435b63270b0ad5dac572",
            ],
        ),
        (
            afs_source(1),
            &[
                "f78b1d3aae43b484d991ea448bf16995",
                "35ba420125c60209087727cc46ecf716",
                "aa76a3af5b3c238dadd1888a55e6a62e",
                "16c742b1c70c66986bf8c3e1b0c43311",
            ],
        ),
        (
            afs1::SERVER_SOURCE.to_string(),
            &[
                "e061464f1ca00f8f5c3e897ea0dbf51c",
                "bae6293a145e042522708fa2bf38572e",
                "9b9bd17adfc5c284d721d82690cc6593",
                "04cb236422d8fe07f3d2207b357e76ac",
                "a412432b405b8c9a5a838bbef7f79863",
            ],
        ),
    ];
    for (src, golden) in cases {
        let module = parse_module(&src).unwrap();
        let hex: Vec<String> = spec_keys(&src, &module)
            .into_iter()
            .map(ObligationKey::to_hex)
            .collect();
        assert_eq!(hex, golden, "keys of\n{src}");
    }

    // The engine's key kinds share the same field encoders; a stored
    // certificate is filed under one of them.
    let mut concrete = System::new(Alphabet::new(["y", "x"]));
    concrete.add_transition_named(&[], &["x"]);
    concrete.add_transition_named(&["x"], &["x", "y"]);
    let abstraction = rising("x");
    let partner = rising("z");
    let r = Restriction::new(
        parse("!x").unwrap(),
        [parse("y").unwrap(), parse("x | z").unwrap()],
    );
    let f = parse("x -> AX x").unwrap();
    let hex: Vec<String> = [
        ObligationKey::composed("prove", "explicit", &[&concrete, &partner], &r, &f),
        ObligationKey::refines(&concrete, &abstraction, "symbolic"),
        ObligationKey::system(&concrete),
        ObligationKey::substituted("explicit", &concrete, &abstraction, &[&partner], &r, &f),
    ]
    .into_iter()
    .map(ObligationKey::to_hex)
    .collect();
    assert_eq!(
        hex,
        [
            "fb4e128e25a54327914b5400ddbb717c",
            "7d608a87740a97729fbac27f9915cb0f",
            "a3741d0b1fab810872e674546201e305",
            "29ee81318d7cbffb2f942bf08ebaea66",
        ],
        "engine keys"
    );
}
