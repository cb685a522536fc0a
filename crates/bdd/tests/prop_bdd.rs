//! Property-based tests: the BDD algebra must agree with truth-table
//! semantics on random boolean expressions, and canonical form must make
//! semantic equality coincide with handle equality.

use cmc_bdd::{Bdd, BddManager, Var};
use proptest::prelude::*;

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

proptest! {
    /// BDD evaluation equals direct expression evaluation on every input.
    #[test]
    fn bdd_matches_truth_table(e in arb_expr()) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let f = build(&mut m, &vars, &e);
        for bits in 0u32..(1 << NVARS) {
            prop_assert_eq!(
                m.eval(f, |v| bits >> v.index() & 1 == 1),
                eval_expr(&e, bits),
                "disagreement at input {:05b}", bits
            );
        }
    }

    /// Semantically equal expressions build the same handle (canonicity).
    #[test]
    fn canonical_form(a in arb_expr(), b in arb_expr()) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let fa = build(&mut m, &vars, &a);
        let fb = build(&mut m, &vars, &b);
        let sem_equal = (0u32..(1 << NVARS)).all(|bits| eval_expr(&a, bits) == eval_expr(&b, bits));
        prop_assert_eq!(fa == fb, sem_equal);
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
        let mut m = BddManager::new();
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

    /// and_exists(f, g, cube) == exists(and(f, g), cube) for random cubes.
    #[test]
    fn relational_product_consistent(
        a in arb_expr(),
        b in arb_expr(),
        mask in 0u32..(1 << NVARS)
    ) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let fa = build(&mut m, &vars, &a);
        let fb = build(&mut m, &vars, &b);
        let qvars: Vec<Var> = (0..NVARS).filter(|i| mask >> i & 1 == 1).map(|i| vars[i]).collect();
        let cube = m.cube(&qvars);
        let direct = m.and_exists(fa, fb, cube);
        let conj = m.and(fa, fb);
        let composed = m.exists(conj, cube);
        prop_assert_eq!(direct, composed);
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
