//! Proof reuse across compositions — the §5 workflow where a component
//! ships with its proofs and later consumers *reuse* them instead of
//! re-verifying.
//!
//! Two compositions share the station `m_x`. The first proof pays for every
//! component obligation; the second answers `m_x`'s obligation from the
//! certificate store and only checks the genuinely new component; a repeat
//! of either proof is answered entirely from the store (the whole deduction
//! replays). Finally the store is persisted and reloaded, simulating a new
//! process picking up shipped proofs.
//!
//! Run with `cargo run --example cached_composition`.

use compositional_mc::core::{Component, Engine};
use compositional_mc::ctl::{parse, Restriction};
use compositional_mc::kripke::{Alphabet, System};
use compositional_mc::store::{CertStore, SegmentedDiskStore};
use std::sync::Arc;

/// A one-proposition component that can only switch `name` on: `p → AX p`
/// is a universal property of it, dischargeable per component by Rule 2.
fn rising(name: &str) -> System {
    let mut m = System::new(Alphabet::new([name]));
    m.add_transition_named(&[], &[name]);
    m
}

fn engine(names: &[&str], store: &Arc<CertStore>) -> Engine {
    Engine::new(
        names
            .iter()
            .map(|n| Component::new(format!("m_{n}"), rising(n)))
            .collect(),
    )
    .with_store(Arc::clone(store))
}

fn main() {
    let store = Arc::new(CertStore::new());
    let f = parse("x -> AX x").unwrap();
    let r = Restriction::trivial();

    println!("== 1. first composition: m_x ∘ m_y (everything is a miss) ==");
    let cert = engine(&["x", "y"], &store).prove(&r, &f).unwrap();
    println!("{cert}");
    println!("{}", store.stats());

    println!("== 2. second composition: m_x ∘ m_z (m_x's obligation hits) ==");
    let before = store.stats();
    let cert = engine(&["x", "z"], &store).prove(&r, &f).unwrap();
    println!("{cert}");
    let after = store.stats();
    println!("{after}");
    println!(
        "new obligations checked: {} (hits this stage: {})\n",
        after.misses - before.misses,
        after.hits - before.hits
    );

    println!("== 3. repeating the second proof: zero new checks ==");
    let before = store.stats();
    let cert = engine(&["x", "z"], &store).prove(&r, &f).unwrap();
    let after = store.stats();
    assert_eq!(
        after.misses, before.misses,
        "warm run re-verified something"
    );
    assert!(cert.valid);
    println!(
        "verdict replayed from store, {} new checks",
        after.misses - before.misses
    );
    println!("{}\n", after);

    println!("== 4. shipping the proofs: save, reload, verify in a 'new process' ==");
    let dir = std::env::temp_dir().join(format!("cmc-cached-composition-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    SegmentedDiskStore::open(&dir)
        .unwrap()
        .save_snapshot(&store)
        .unwrap();
    let revived = Arc::new(CertStore::new());
    let loaded = SegmentedDiskStore::open(&dir)
        .unwrap()
        .load_into(&revived)
        .unwrap();
    println!("reloaded {loaded} entries from {}", dir.display());
    let cert = engine(&["x", "z"], &revived).prove(&r, &f).unwrap();
    assert!(cert.valid);
    println!("{}", revived.stats());
    std::fs::remove_dir_all(&dir).ok();
}
