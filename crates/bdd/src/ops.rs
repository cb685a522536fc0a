//! N-ary convenience operations on top of the binary core.

use crate::manager::BddManager;
use crate::node::Bdd;

impl BddManager {
    /// Conjunction of a slice of diagrams (TRUE for the empty slice).
    ///
    /// Conjoins adjacent operands pairwise, level by level: a balanced
    /// tree over the slice in the order given. A left fold re-walks the
    /// whole accumulated diagram for every operand, so `k` constraints on
    /// neighbouring variables cost `O(k·|result|)`; the tree touches each
    /// node about `log k` times. Returns FALSE, without conjoining the
    /// rest, as soon as an operand or a partial conjunction is FALSE.
    pub fn and_many(&mut self, fs: &[Bdd]) -> Bdd {
        self.reduce_balanced(fs, Bdd::TRUE, Bdd::FALSE, Self::and)
    }

    /// Disjunction of a slice of diagrams (FALSE for the empty slice), as
    /// the same balanced tree as [`and_many`](Self::and_many); returns
    /// TRUE as soon as an operand or a partial disjunction is TRUE.
    pub fn or_many(&mut self, fs: &[Bdd]) -> Bdd {
        self.reduce_balanced(fs, Bdd::FALSE, Bdd::TRUE, Self::or)
    }

    /// Balanced pairwise reduction of `fs` under the associative and
    /// commutative `op`, whose identity is `unit` and whose absorbing
    /// element is `zero`.
    fn reduce_balanced(
        &mut self,
        fs: &[Bdd],
        unit: Bdd,
        zero: Bdd,
        op: fn(&mut Self, Bdd, Bdd) -> Bdd,
    ) -> Bdd {
        if fs.contains(&zero) {
            return zero;
        }
        let mut level = fs.to_vec();
        while level.len() > 1 {
            let pairs = level.len() / 2;
            for i in 0..pairs {
                let f = op(self, level[2 * i], level[2 * i + 1]);
                if f == zero {
                    return zero;
                }
                level[i] = f;
            }
            if level.len() % 2 == 1 {
                level[pairs] = level[level.len() - 1];
            }
            level.truncate(level.len().div_ceil(2));
        }
        level.pop().unwrap_or(unit)
    }

    /// `⋀ᵢ (fᵢ ⇔ gᵢ)` — equality of two variable frames; used for the
    /// identity/stutter part of interleaved transition relations.
    pub fn pairwise_iff(&mut self, pairs: &[(Bdd, Bdd)]) -> Bdd {
        let eqs: Vec<Bdd> = pairs.iter().map(|&(f, g)| self.iff(f, g)).collect();
        self.and_many(&eqs)
    }

    /// Semantic equivalence test.
    pub fn equivalent(&mut self, f: Bdd, g: Bdd) -> bool {
        // Hash-consing makes this pointer equality, but route through XOR so
        // the invariant (canonical form) is actually exercised in debug.
        debug_assert_eq!(f == g, self.xor(f, g).is_false());
        f == g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Var;

    #[test]
    fn and_many_or_many_match_folds() {
        let mut m = BddManager::new();
        let vs = m.new_vars(4);
        let lits: Vec<Bdd> = vs.iter().map(|&v| m.var(v)).collect();
        let nary = m.and_many(&lits);
        let mut fold = Bdd::TRUE;
        for &l in &lits {
            fold = m.and(fold, l);
        }
        assert_eq!(nary, fold);
        let nary_or = m.or_many(&lits);
        let mut fold_or = Bdd::FALSE;
        for &l in &lits {
            fold_or = m.or(fold_or, l);
        }
        assert_eq!(nary_or, fold_or);
    }

    #[test]
    fn empty_slices_are_units() {
        let mut m = BddManager::new();
        assert_eq!(m.and_many(&[]), Bdd::TRUE);
        assert_eq!(m.or_many(&[]), Bdd::FALSE);
    }

    #[test]
    fn early_exit_on_contradiction() {
        let mut m = BddManager::new();
        let vs = m.new_vars(4);
        let x = m.var(vs[0]);
        let nx = m.nvar(vs[0]);
        let (a, b, c) = (m.var(vs[1]), m.var(vs[2]), m.var(vs[3]));
        let before = m.stats().nodes_allocated;
        // The first pair (or a constant operand) decides the result, so
        // the other operands are never combined: no node is allocated.
        assert_eq!(m.and_many(&[x, nx, Bdd::TRUE]), Bdd::FALSE);
        assert_eq!(m.and_many(&[x, nx, a, b, c]), Bdd::FALSE);
        assert_eq!(m.and_many(&[a, b, c, Bdd::FALSE]), Bdd::FALSE);
        assert_eq!(m.or_many(&[x, nx]), Bdd::TRUE);
        assert_eq!(m.or_many(&[x, nx, a, b, c]), Bdd::TRUE);
        assert_eq!(m.or_many(&[a, b, c, Bdd::TRUE]), Bdd::TRUE);
        assert_eq!(m.stats().nodes_allocated, before);
    }

    #[test]
    fn pairwise_iff_is_frame_equality() {
        let mut m = BddManager::new();
        let vs = m.new_vars(4);
        let pairs: Vec<(Bdd, Bdd)> =
            vec![(m.var(vs[0]), m.var(vs[1])), (m.var(vs[2]), m.var(vs[3]))];
        let eq = m.pairwise_iff(&pairs);
        // Models where v0==v1 and v2==v3: 4 of 16.
        assert_eq!(m.sat_count(eq, 4), 4.0);
        assert!(m.eval(eq, |_| true));
        assert!(m.eval(eq, |_| false));
        assert!(!m.eval(eq, |v| v == Var(0)));
    }

    #[test]
    fn equivalence_via_hash_consing() {
        let mut m = BddManager::new();
        let vs = m.new_vars(2);
        let a = m.var(vs[0]);
        let b = m.var(vs[1]);
        let f = m.implies(a, b);
        let na = m.not(a);
        let g = m.or(na, b);
        assert!(m.equivalent(f, g));
        assert!(!m.equivalent(f, a));
    }
}
