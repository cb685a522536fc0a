//! Property-based tests: the BDD algebra must agree with truth-table
//! semantics on random boolean expressions, and canonical form must make
//! semantic equality coincide with handle equality.
//!
//! The semantic properties also run on a manager whose computed table has
//! one slot, where nearly every lookup misses and every insert evicts, and
//! a random sequence of operations must return the same handles and
//! allocate the same nodes on both managers: the table is lossy, never
//! wrong.

use cmc_bdd::{Bdd, BddManager, Var, DEFAULT_CACHE_CAPACITY};
use proptest::prelude::*;

/// Computed-table bounds every semantic property runs under: the default
/// and a single slot.
const CACHE_BOUNDS: [usize; 2] = [DEFAULT_CACHE_CAPACITY, 1];

/// A manager whose computed table is bounded at `slots` slots.
fn manager(slots: usize) -> BddManager {
    let mut m = BddManager::new();
    m.set_cache_capacity(slots);
    m
}

/// A random boolean expression over `NVARS` variables.
#[derive(Debug, Clone)]
enum Expr {
    Const(bool),
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Implies(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

const NVARS: usize = 5;

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Expr::Const),
        (0..NVARS).prop_map(Expr::Var),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::Implies(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::Ite(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

fn eval_expr(e: &Expr, bits: u32) -> bool {
    match e {
        Expr::Const(b) => *b,
        Expr::Var(i) => bits >> i & 1 == 1,
        Expr::Not(a) => !eval_expr(a, bits),
        Expr::And(a, b) => eval_expr(a, bits) && eval_expr(b, bits),
        Expr::Or(a, b) => eval_expr(a, bits) || eval_expr(b, bits),
        Expr::Xor(a, b) => eval_expr(a, bits) ^ eval_expr(b, bits),
        Expr::Implies(a, b) => !eval_expr(a, bits) || eval_expr(b, bits),
        Expr::Ite(a, b, c) => {
            if eval_expr(a, bits) {
                eval_expr(b, bits)
            } else {
                eval_expr(c, bits)
            }
        }
    }
}

fn build(m: &mut BddManager, vars: &[Var], e: &Expr) -> Bdd {
    match e {
        Expr::Const(true) => Bdd::TRUE,
        Expr::Const(false) => Bdd::FALSE,
        Expr::Var(i) => m.var(vars[*i]),
        Expr::Not(a) => {
            let fa = build(m, vars, a);
            m.not(fa)
        }
        Expr::And(a, b) => {
            let (fa, fb) = (build(m, vars, a), build(m, vars, b));
            m.and(fa, fb)
        }
        Expr::Or(a, b) => {
            let (fa, fb) = (build(m, vars, a), build(m, vars, b));
            m.or(fa, fb)
        }
        Expr::Xor(a, b) => {
            let (fa, fb) = (build(m, vars, a), build(m, vars, b));
            m.xor(fa, fb)
        }
        Expr::Implies(a, b) => {
            let (fa, fb) = (build(m, vars, a), build(m, vars, b));
            m.implies(fa, fb)
        }
        Expr::Ite(a, b, c) => {
            let fa = build(m, vars, a);
            let fb = build(m, vars, b);
            let fc = build(m, vars, c);
            m.ite(fa, fb, fc)
        }
    }
}

/// One operation of a random sequence. Operand indices pick, modulo its
/// length, from the pool of handles the sequence has built so far; masks
/// pick variables.
#[derive(Debug, Clone)]
enum Step {
    And(usize, usize),
    Or(usize, usize),
    Not(usize),
    Ite(usize, usize, usize),
    Exists(usize, u32),
    AndExists(usize, usize, u32),
    Rename(usize, u32),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let ix = || any::<usize>();
    let mask = || 0u32..(1 << (2 * NVARS));
    prop_oneof![
        (ix(), ix()).prop_map(|(a, b)| Step::And(a, b)),
        (ix(), ix()).prop_map(|(a, b)| Step::Or(a, b)),
        ix().prop_map(Step::Not),
        (ix(), ix(), ix()).prop_map(|(a, b, c)| Step::Ite(a, b, c)),
        (ix(), mask()).prop_map(|(a, m)| Step::Exists(a, m)),
        (ix(), ix(), mask()).prop_map(|(a, b, m)| Step::AndExists(a, b, m)),
        (ix(), mask()).prop_map(|(a, m)| Step::Rename(a, m)),
    ]
}

/// Run `steps` over `2 · NVARS` variables, interleaved as current (even)
/// and next (odd) copies, starting from a pool of their literals; returns
/// the pool. A rename moves the masked variables of a diagram over one
/// frame to the other frame, and is skipped for a diagram over both.
fn run_steps(m: &mut BddManager, steps: &[Step]) -> Vec<Bdd> {
    let vars = m.new_vars(2 * NVARS);
    let mut pool: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    let masked = |mask: u32| -> Vec<Var> {
        vars.iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &v)| v)
            .collect()
    };
    for step in steps {
        let at = |i: usize| pool[i % pool.len()];
        let f = match *step {
            Step::And(a, b) => m.and(at(a), at(b)),
            Step::Or(a, b) => m.or(at(a), at(b)),
            Step::Not(a) => m.not(at(a)),
            Step::Ite(a, b, c) => m.ite(at(a), at(b), at(c)),
            Step::Exists(a, mask) => {
                let cube = m.cube(&masked(mask));
                m.exists(at(a), cube)
            }
            Step::AndExists(a, b, mask) => {
                let cube = m.cube(&masked(mask));
                m.and_exists(at(a), at(b), cube)
            }
            Step::Rename(a, mask) => {
                let f = at(a);
                let support = m.support(f);
                let odd = |v: &Var| v.index() % 2 == 1;
                let from_next = match (support.iter().any(odd), support.iter().all(odd)) {
                    (false, _) => false,
                    (true, true) => true,
                    (true, false) => continue,
                };
                let map: Vec<(Var, Var)> = (0..NVARS)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| (vars[2 * i], vars[2 * i + 1]))
                    .map(|(c, n)| if from_next { (n, c) } else { (c, n) })
                    .collect();
                m.rename(f, &map)
            }
        };
        pool.push(f);
    }
    pool
}

proptest! {
    /// BDD evaluation equals direct expression evaluation on every input.
    #[test]
    fn bdd_matches_truth_table(e in arb_expr()) {
        for slots in CACHE_BOUNDS {
            let mut m = manager(slots);
            let vars = m.new_vars(NVARS);
            let f = build(&mut m, &vars, &e);
            for bits in 0u32..(1 << NVARS) {
                prop_assert_eq!(
                    m.eval(f, |v| bits >> v.index() & 1 == 1),
                    eval_expr(&e, bits),
                    "disagreement at input {:05b} with {} cache slots", bits, slots
                );
            }
        }
    }

    /// Semantically equal expressions build the same handle (canonicity).
    #[test]
    fn canonical_form(a in arb_expr(), b in arb_expr()) {
        let sem_equal = (0u32..(1 << NVARS)).all(|bits| eval_expr(&a, bits) == eval_expr(&b, bits));
        for slots in CACHE_BOUNDS {
            let mut m = manager(slots);
            let vars = m.new_vars(NVARS);
            let fa = build(&mut m, &vars, &a);
            let fb = build(&mut m, &vars, &b);
            prop_assert_eq!(fa == fb, sem_equal, "{} cache slots", slots);
        }
    }

    /// sat_count agrees with brute-force counting.
    #[test]
    fn sat_count_matches_enumeration(e in arb_expr()) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let f = build(&mut m, &vars, &e);
        let brute = (0u32..(1 << NVARS)).filter(|&bits| eval_expr(&e, bits)).count();
        prop_assert_eq!(m.sat_count(f, NVARS), brute as f64);
        prop_assert_eq!(m.all_sat(f, NVARS).len(), brute);
    }

    /// ∃x.f is the OR of the two cofactors; ∀x.f the AND (semantically).
    #[test]
    fn quantifier_semantics(e in arb_expr(), qi in 0..NVARS) {
        for slots in CACHE_BOUNDS {
            let mut m = manager(slots);
            let vars = m.new_vars(NVARS);
            let f = build(&mut m, &vars, &e);
            let cube = m.cube(&[vars[qi]]);
            let ex = m.exists(f, cube);
            let fa = m.forall(f, cube);
            for bits in 0u32..(1 << NVARS) {
                let with = bits | (1 << qi);
                let without = bits & !(1 << qi);
                let ev = |g: Bdd, bb: u32| m.eval(g, |v| bb >> v.index() & 1 == 1);
                prop_assert_eq!(ev(ex, bits), ev(f, with) || ev(f, without));
                prop_assert_eq!(ev(fa, bits), ev(f, with) && ev(f, without));
            }
        }
    }

    /// and_exists(f, g, cube) == exists(and(f, g), cube) for random cubes.
    #[test]
    fn relational_product_consistent(
        a in arb_expr(),
        b in arb_expr(),
        mask in 0u32..(1 << NVARS)
    ) {
        for slots in CACHE_BOUNDS {
            let mut m = manager(slots);
            let vars = m.new_vars(NVARS);
            let fa = build(&mut m, &vars, &a);
            let fb = build(&mut m, &vars, &b);
            let qvars: Vec<Var> = (0..NVARS).filter(|i| mask >> i & 1 == 1).map(|i| vars[i]).collect();
            let cube = m.cube(&qvars);
            let direct = m.and_exists(fa, fb, cube);
            let conj = m.and(fa, fb);
            let composed = m.exists(conj, cube);
            prop_assert_eq!(direct, composed, "{} cache slots", slots);
        }
    }

    /// One random sequence of operations on a default manager and on a
    /// one-slot manager returns identical handles and allocates the same
    /// nodes: with no collection, a computed-table miss only recomputes
    /// nodes that already exist.
    #[test]
    fn lossy_cache_is_transparent_op_for_op(steps in proptest::collection::vec(arb_step(), 1..48)) {
        let [(pool, allocated), (lossy_pool, lossy_allocated)] = CACHE_BOUNDS.map(|slots| {
            let mut m = manager(slots);
            let pool = run_steps(&mut m, &steps);
            (pool, m.stats().nodes_allocated)
        });
        prop_assert_eq!(pool, lossy_pool);
        prop_assert_eq!(allocated, lossy_allocated);
    }

    /// The balanced `and_many`/`or_many` build the same handle as a left
    /// fold of `and`/`or` over the same operands, for 0 to 17 of them.
    #[test]
    fn nary_ops_match_left_folds(es in proptest::collection::vec(arb_expr(), 0..18)) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let fs: Vec<Bdd> = es.iter().map(|e| build(&mut m, &vars, e)).collect();
        let (mut conj, mut disj) = (Bdd::TRUE, Bdd::FALSE);
        for &f in &fs {
            conj = m.and(conj, f);
            disj = m.or(disj, f);
        }
        prop_assert_eq!(m.and_many(&fs), conj);
        prop_assert_eq!(m.or_many(&fs), disj);
    }

    /// Double negation and de Morgan hold as handle equalities.
    #[test]
    fn algebraic_laws(a in arb_expr(), b in arb_expr()) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let fa = build(&mut m, &vars, &a);
        let fb = build(&mut m, &vars, &b);
        let nfa = m.not(fa);
        prop_assert_eq!(m.not(nfa), fa);
        let conj = m.and(fa, fb);
        let lhs = m.not(conj);
        let nfb = m.not(fb);
        let rhs = m.or(nfa, nfb);
        prop_assert_eq!(lhs, rhs);
        // Distribution: a ∧ (b ∨ a) = a.
        let bo = m.or(fb, fa);
        prop_assert_eq!(m.and(fa, bo), fa);
    }
}
