//! The **IdealisedServer** abstraction of the AFS-1 server, and the
//! substitution proof that discharges (Afs1) through it.
//!
//! The concrete AFS-1 server of §4.2 carries a private `validFile` bit —
//! the ground truth about the file — which determines whether a
//! `validate` request comes back `val` or `inval`. For the safety
//! property (Afs1) that determinism is irrelevant: all that matters is
//! the *guarantee* that whenever the server answers `val` its own belief
//! is `valid`. The idealised server forgets `validFile` entirely, turning
//! the validate branch into a nondeterministic choice between
//! `(valid, val)` and `(invalid, inval)` — fewer propositions, more
//! behaviours, same guarantee. This is the IdealisedChannel/IdealisedAlt
//! pattern: verify the concrete component against a small abstract one
//! once, then check the composition of abstractions.
//!
//! The refinement layer makes the pattern a deduction rule
//! ([`Engine::prove_substituted`]): it checks the simulation premise
//! `Server ⊑ IdealisedServer`, enforces the soundness side conditions
//! (the abstraction drops only *private* propositions, the property is
//! universal and within the abstract vocabulary), and checks (Afs1) on
//! `IdealisedServer ∘ Client` — never building the concrete composition.
//!
//! [`scaled_server`] widens the gap: a server tracking `extra`
//! independent private cache-line bits grows the concrete composition by
//! `2^extra` states, while the idealised side is *unchanged* — one
//! five-proposition abstraction closes every member of the family.

use cmc_core::engine::{Certificate, Component, Engine, Substitution};
use cmc_ctl::Restriction;
use cmc_kripke::{Alphabet, System};

use crate::afs1::{afs1_safety_formula, client_component, initial_condition, server_component};

/// The private proposition the idealisation forgets: the server's
/// ground-truth `validFile` bit (a boolean variable compiles to a single
/// bit carrying the variable's own name).
pub const PRIVATE_BIT: &str = "validFile";

/// The idealised AFS-1 server: the concrete server projected onto its
/// alphabet minus [`PRIVATE_BIT`]. Projection only ever *adds* behaviour
/// (`M ⊑ M.project(..)` always holds — and the engine re-checks it
/// rather than assuming it), so any universal property of the idealised
/// composition holds of the concrete one.
pub fn idealised_server() -> System {
    let server = server_component().system;
    let keep: Vec<String> = server
        .alphabet()
        .names()
        .iter()
        .filter(|n| n.as_str() != PRIVATE_BIT)
        .cloned()
        .collect();
    server.project(&Alphabet::new(keep))
}

/// The substitution `Server ↦ IdealisedServer` (component 0 of
/// [`crate::afs1::engine`]).
pub fn idealised_substitution() -> Substitution {
    Substitution::new(0, idealised_server())
}

/// Prove (Afs1) — `AG (Client.belief = valid → Server.belief = valid)`
/// under the initial condition `I` — by abstraction substitution:
/// `Server ⊑ IdealisedServer`, then the property on
/// `IdealisedServer ∘ Client`. The returned certificate records the
/// content-addressed abstraction, so `cmc-testkit::validate` can replay
/// both the simulation and the abstract-side check from the certificate
/// alone.
pub fn prove_afs1_substituted() -> Certificate {
    crate::afs1::engine()
        .prove_substituted(
            &idealised_substitution(),
            &Restriction::with_init(initial_condition()),
            &afs1_safety_formula(),
        )
        .expect("the AFS-1 substitution satisfies every side condition")
}

/// The AFS-1 server scaled with `extra` private cache-line bits
/// (`cache0`, `cache1`, …): each is frozen ground truth like
/// `validFile`, so the concrete state space grows by `2^extra` while the
/// observable protocol — and therefore the idealised server — is
/// unchanged.
pub fn scaled_server(extra: usize) -> System {
    let names: Vec<String> = (0..extra).map(|i| format!("cache{i}")).collect();
    server_component().system.expand(&Alphabet::new(names))
}

/// The assume-guarantee engine over `scaled_server(extra) ∘ client`.
pub fn scaled_engine(extra: usize) -> Engine {
    Engine::new(vec![
        Component::new("server", scaled_server(extra)),
        Component::new("client", client_component().system),
    ])
}

/// Prove (Afs1) for the scaled family by substituting the *same*
/// idealised server: the simulation premise stays local to the server
/// and the conclusion is checked on the fixed five-proposition
/// `IdealisedServer ∘ Client` — the cost of the abstract side does not
/// grow with `extra`.
pub fn prove_afs1_scaled(extra: usize) -> Certificate {
    scaled_engine(extra)
        .prove_substituted(
            &idealised_substitution(),
            &Restriction::with_init(initial_condition()),
            &afs1_safety_formula(),
        )
        .expect("the scaled AFS-1 substitution satisfies every side condition")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmc_core::check_refines;
    use cmc_core::BackendChoice;

    #[test]
    fn idealised_server_forgets_only_the_private_bit() {
        let server = server_component().system;
        let ideal = idealised_server();
        assert_eq!(ideal.alphabet().len(), server.alphabet().len() - 1);
        assert!(!ideal.alphabet().contains(PRIVATE_BIT));
        assert!(ideal
            .alphabet()
            .names()
            .iter()
            .all(|n| server.alphabet().contains(n)));
        // The validate branch became a genuine nondeterministic choice:
        // the idealisation has proper transitions the projection folded,
        // but never *fewer* behaviours than the concrete server.
        let (outcome, _) = check_refines(BackendChoice::Auto, &server, &ideal)
            .expect("simulation fits the explicit budget");
        assert!(outcome.holds(), "Server ⊑ IdealisedServer must hold");
    }

    #[test]
    fn afs1_closes_through_the_idealised_server() {
        let cert = prove_afs1_substituted();
        assert!(cert.valid, "substitution proof failed:\n{cert}");
        assert_eq!(
            cert.abstractions.len(),
            1,
            "the certificate records exactly the idealised-server substitution"
        );
        let rec = &cert.abstractions[0];
        assert_eq!(rec.component, "server");
        assert!(!rec.abstraction.alphabet().contains(PRIVATE_BIT));
        // The recorded substitution replays from the certificate alone.
        assert!(cmc_testkit::replay_substitution(rec).expect("replay runs"));
    }

    #[test]
    fn scaled_family_closes_through_the_same_abstraction() {
        // Four extra cache lines: 16× the concrete server states, same
        // idealised side.
        let cert = prove_afs1_scaled(4);
        assert!(cert.valid, "scaled substitution proof failed:\n{cert}");
        let rec = &cert.abstractions[0];
        assert_eq!(
            rec.abstraction_key,
            prove_afs1_substituted().abstractions[0].abstraction_key,
            "every member of the scaled family shares one content-addressed abstraction"
        );
        // Cross-check against the monolithic composition at this width.
        assert!(scaled_engine(4)
            .monolithic_check(
                &Restriction::with_init(initial_condition()),
                &afs1_safety_formula()
            )
            .expect("monolithic check fits at extra = 4"));
    }
}
