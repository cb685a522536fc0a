//! Seeded inputs and their expected verdicts.
//!
//! Every generator returns, next to its input, the verdict each `SPEC`
//! or proof must get, known from how the input was built:
//!
//! * a token ring from `cmc_serve::workload::ring_source` proves every
//!   spec but the last, `AG t<start>` (the token moves);
//! * the daemon's AFS family `afs_source` proves `[T, T, T, F]`;
//! * the paper's component sources and compositional proofs all hold.
//!
//! No expected answer comes from an engine under test.
//!
//! Inputs are dealt from a [`Deck`]: every size of a workload once per
//! round, in a seeded order. The seed changes names, order and starting
//! stations; the mix of sizes in a run stays the same, so runs at
//! different seeds measure the same amount of work.

use cmc_afs::{afs1, afs2};
use cmc_serve::workload::{afs_source, ring_source};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// One SMV program and the verdict each of its `SPEC`s must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Program {
    /// The SMV source handed to the program under test.
    pub(crate) source: String,
    /// Expected verdict per `SPEC`, in order.
    pub(crate) expected: Vec<bool>,
}

impl Program {
    /// Did a run give every spec its expected verdict? `results` are
    /// `(spec text, verdict)` pairs, as the driver and the daemon report
    /// them.
    pub(crate) fn matches(&self, results: &[(String, bool)]) -> bool {
        results
            .iter()
            .map(|(_, v)| *v)
            .eq(self.expected.iter().copied())
    }
}

/// A program shape; [`Family::make`] turns it into a concrete program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Family {
    /// `ring_source(n)`: `n` stations.
    Ring(usize),
    /// `afs_source(c)`: `c` caching clients.
    Afs(usize),
    /// One of the paper's four AFS component sources (index 0–3).
    Paper(usize),
}

impl Family {
    /// A concrete program of this shape. Rings and AFS instances get
    /// their variables renamed with `prefix`, so each program fills fresh
    /// store keys; a ring's token starts at a station drawn from `rng`.
    pub(crate) fn make(self, prefix: &str, rng: &mut StdRng) -> Program {
        match self {
            Family::Ring(n) => ring(n, prefix, rng.gen_range(0..n)),
            Family::Afs(clients) => afs(clients, prefix),
            Family::Paper(i) => paper_source(i),
        }
    }
}

/// `ring_source(n)` with station `i` renamed to `{prefix}t{(i + start) % n}`:
/// the token starts at station `start` and every variable is fresh.
pub(crate) fn ring(n: usize, prefix: &str, start: usize) -> Program {
    let source = rename(&ring_source(n), |ident| {
        let i: usize = ident.strip_prefix('t')?.parse().ok()?;
        (i < n).then(|| format!("{prefix}t{}", (i + start) % n))
    });
    let mut expected = vec![true; n + 3];
    expected[n + 2] = false;
    Program { source, expected }
}

/// `afs_source(clients)` with every variable prefixed by `prefix`.
pub(crate) fn afs(clients: usize, prefix: &str) -> Program {
    let source = rename(&afs_source(clients), |ident| {
        if ident == "srv" {
            return Some(format!("{prefix}srv"));
        }
        let c: usize = ident.strip_prefix('c')?.parse().ok()?;
        (c < clients).then(|| format!("{prefix}c{c}"))
    });
    Program {
        source,
        expected: vec![true, true, true, false],
    }
}

/// The paper's AFS-1 server and client and AFS-2 server and client
/// sources; every spec holds, as Figures 7, 10, 15 and 17 report.
pub(crate) fn paper_source(i: usize) -> Program {
    let (source, specs) = [
        (afs1::SERVER_SOURCE, 5),
        (afs1::CLIENT_SOURCE, 6),
        (afs2::SERVER1_SOURCE, 2),
        (afs2::CLIENT1_SOURCE, 1),
    ][i];
    Program {
        source: source.to_string(),
        expected: vec![true; specs],
    }
}

/// Replace every identifier `map` renames; numbers and everything else
/// are copied unchanged.
fn rename(src: &str, map: impl Fn(&str) -> Option<String>) -> String {
    let bytes = src.as_bytes();
    let mut out = String::with_capacity(src.len() * 2);
    let (mut copied, mut i) = (0, 0);
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            if let Some(new) = map(&src[start..i]) {
                out.push_str(&src[copied..start]);
                out.push_str(&new);
                copied = i;
            }
        } else if c.is_ascii_digit() {
            while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    out.push_str(&src[copied..]);
    out
}

/// One compositional proof of the paper, each of which must hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Proof {
    /// `afs2::prove_invariant_compositional(n)`.
    Afs2Invariant(usize),
    /// `ring::verify_ring_compositionally(n)`, engine build included.
    Ring(usize),
    /// `afs1::prove_afs1_safety`.
    Afs1Safety,
    /// `afs1::prove_afs2_liveness`.
    Afs2Liveness,
    /// `ideal::prove_afs1_substituted`.
    Afs1Substituted,
}

/// Deals every card once per round, in a fresh seeded order each round.
/// A measured loop stops at a round boundary, so every run measures whole
/// rounds of the same mix.
pub(crate) struct Deck<T: Clone> {
    rng: StdRng,
    cards: Vec<T>,
    hand: Vec<T>,
    rounds: u64,
}

impl<T: Clone> Deck<T> {
    /// A deck over `cards` (non-empty) seeded with `seed`.
    pub(crate) fn new(cards: Vec<T>, seed: u64) -> Self {
        assert!(!cards.is_empty(), "a deck needs cards");
        Deck {
            rng: StdRng::seed_from_u64(seed),
            cards,
            hand: Vec::new(),
            rounds: 0,
        }
    }

    /// The next card.
    pub(crate) fn deal(&mut self) -> T {
        if self.hand.is_empty() {
            self.hand = self.cards.clone();
            shuffle(&mut self.rng, &mut self.hand);
        }
        let card = self.hand.pop().expect("hand refilled above");
        if self.hand.is_empty() {
            self.rounds += 1;
        }
        card
    }

    /// Rounds dealt in full so far.
    pub(crate) fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The deck's generator, for draws that go with the cards.
    pub(crate) fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// `cli-symbolic`: token rings of 20–48 stations and the paper's four
/// AFS component sources.
pub(crate) fn cli_cards() -> Vec<Family> {
    (20..=48)
        .map(Family::Ring)
        .chain((0..4).map(Family::Paper))
        .collect()
}

/// `serve-cold`: the daemon's rings of 10–16 stations and AFS instances
/// of 3–6 clients, with the 12- and 16-station rings and the 3-client AFS
/// twice. Each card is one lock-step of equal batches, so batch latencies
/// come in blocks, one per card, ordered by cost. With these 14 cards the
/// median falls in the middle of the 12-station block and the 90th
/// percentile inside the 16-station block. With one card per size, the
/// 90th percentile sat in the slowest tail of the 15-station block and
/// moved by a quarter from run to run. A round takes seconds, so a run
/// holds only a few; with the 12-station ring dealt once, the median was
/// the middle of six batches and moved by a sixth from run to run.
pub(crate) fn cold_cards() -> Vec<Family> {
    (10..=16)
        .chain([12, 16])
        .map(Family::Ring)
        .chain((3..=6).chain([3]).map(Family::Afs))
        .collect()
}

/// `serve-hot`: rings of 4–12 stations and AFS instances of 1–4 clients.
pub(crate) fn hot_cards() -> Vec<Family> {
    (4..=12)
        .map(Family::Ring)
        .chain((1..=4).map(Family::Afs))
        .collect()
}

/// `proof-compositional`: the AFS-2 invariant for 3–8 clients, the ring
/// proof for 8–20 stations and the three AFS-1 proofs.
pub(crate) fn proof_cards() -> Vec<Proof> {
    (3..=8)
        .map(Proof::Afs2Invariant)
        .chain((8..=20).map(Proof::Ring))
        .chain([
            Proof::Afs1Safety,
            Proof::Afs2Liveness,
            Proof::Afs1Substituted,
        ])
        .collect()
}

/// The `serve-hot` pool: program `k` has shape `hot_cards()[k % 13]`, so
/// each popularity rank has the same shape at every seed.
pub(crate) fn hot_pool(seed: u64, size: usize) -> Vec<Program> {
    let cards = hot_cards();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x686f_7400);
    (0..size)
        .map(|k| cards[k % cards.len()].make(&format!("s{seed}h{k}_"), &mut rng))
        .collect()
}

/// A uniform draw in `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf-distributed ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n ≥ 1` ranks with exponent `s`.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> usize {
        let u = unit(rng);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmc_smv::run_source;

    fn verdicts(p: &Program) -> Vec<bool> {
        run_source(&p.source)
            .expect("generated source checks")
            .results
            .iter()
            .map(|(_, v)| *v)
            .collect()
    }

    #[test]
    fn oracle_matches_generated_programs() {
        let mut rng = StdRng::seed_from_u64(3);
        for family in [Family::Ring(5), Family::Ring(9), Family::Afs(2)]
            .into_iter()
            .chain((0..4).map(Family::Paper))
        {
            let p = family.make("x1_", &mut rng);
            assert_eq!(verdicts(&p), p.expected, "{family:?}");
        }
    }

    #[test]
    fn ring_rename_rotates_the_token() {
        let p = ring(4, "p_", 2);
        assert!(p.source.contains("init(p_t2) := 1;"));
        assert!(p.source.contains("SPEC AG p_t2\n"));
        assert!(!p.source.contains(" t0"));
    }

    #[test]
    fn deck_deals_every_card_each_round() {
        let mut deck = Deck::new(cli_cards(), 9);
        let mut round: Vec<String> = (0..cli_cards().len())
            .map(|_| format!("{:?}", deck.deal()))
            .collect();
        assert_eq!(deck.rounds(), 1);
        round.sort();
        let mut all: Vec<String> = cli_cards().iter().map(|c| format!("{c:?}")).collect();
        all.sort();
        assert_eq!(round, all);
        deck.deal();
        assert_eq!(deck.rounds(), 1);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(2048, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.sample(&mut rng)).collect();
        let top = draws.iter().filter(|&&r| r == 0).count();
        assert!((1000..1500).contains(&top), "rank 0 drawn {top} times");
        assert!(draws.iter().all(|&r| r < 2048));
    }
}
