//! Capture-free substitution of variables by terms.

use crate::eval::Assignment;
use crate::term::{Op, TermId, TermPool};
use std::collections::HashMap;

/// Replaces variables in `root` according to `map`, rebuilding (and
/// re-simplifying) the term bottom-up.
///
/// Variables absent from the map are left untouched. The result may be a
/// constant if enough variables are substituted by constants.
pub fn substitute(pool: &mut TermPool, root: TermId, map: &HashMap<TermId, TermId>) -> TermId {
    let mut memo: HashMap<TermId, TermId> = HashMap::new();
    let mut stack = vec![(root, false)];
    while let Some((id, expanded)) = stack.pop() {
        if memo.contains_key(&id) {
            continue;
        }
        if let Some(&r) = map.get(&id) {
            memo.insert(id, r);
            continue;
        }
        let op = pool.term(id).op.clone();
        if !expanded {
            stack.push((id, true));
            for c in op.children() {
                if !memo.contains_key(&c) {
                    stack.push((c, false));
                }
            }
            continue;
        }
        let g = |t: TermId| memo[&t];
        let out = match &op {
            Op::BoolConst(_) | Op::BvConst(_) | Op::Var(_) => id,
            Op::Not(a) => pool.not(g(*a)),
            Op::And(cs) => {
                let items: Vec<TermId> = cs.iter().map(|&c| g(c)).collect();
                pool.and(items)
            }
            Op::Or(cs) => {
                let items: Vec<TermId> = cs.iter().map(|&c| g(c)).collect();
                pool.or(items)
            }
            Op::Xor(a, b) => pool.xor(g(*a), g(*b)),
            Op::Implies(a, b) => pool.implies(g(*a), g(*b)),
            Op::Eq(a, b) => pool.eq(g(*a), g(*b)),
            Op::Ite(c, t, e) => pool.ite(g(*c), g(*t), g(*e)),
            Op::BvNot(a) => pool.bv_not(g(*a)),
            Op::BvNeg(a) => pool.bv_neg(g(*a)),
            Op::Bv(op, a, b) => pool.bv_binop(*op, g(*a), g(*b)),
            Op::ZExt(a) => {
                let w = pool.sort(id).width();
                pool.zext(g(*a), w)
            }
            Op::SExt(a) => {
                let w = pool.sort(id).width();
                pool.sext(g(*a), w)
            }
            Op::Extract(a, hi, lo) => pool.extract(g(*a), *hi, *lo),
            Op::Concat(a, b) => pool.concat(g(*a), g(*b)),
        };
        memo.insert(id, out);
    }
    memo[&root]
}

/// Substitutes variables by the constant values of an [`Assignment`].
pub fn substitute_assignment(pool: &mut TermPool, root: TermId, env: &Assignment) -> TermId {
    let mut map = HashMap::new();
    for (var, value) in env.iter() {
        map.insert(var, pool.constant(value));
    }
    substitute(pool, root, &map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{BvVal, Sort};

    #[test]
    fn substitute_folds_to_constant() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(8));
        let y = p.var("y", Sort::BitVec(8));
        let sum = p.bv_add(x, y);
        let lt = p.bv_ult(sum, y);

        let mut env = Assignment::new();
        env.set(x, BvVal::new(8, 250));
        env.set(y, BvVal::new(8, 10));
        let out = substitute_assignment(&mut p, lt, &env);
        // 250 + 10 wraps to 4, and 4 < 10.
        assert_eq!(p.as_bool_const(out), Some(true));
    }

    #[test]
    fn partial_substitution_leaves_other_vars() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(8));
        let y = p.var("y", Sort::BitVec(8));
        let sum = p.bv_add(x, y);
        let mut map = HashMap::new();
        let zero = p.bv(8, 0);
        map.insert(x, zero);
        let out = substitute(&mut p, sum, &map);
        assert_eq!(out, y, "0 + y simplifies to y");
    }

    #[test]
    fn substituting_into_a_guarded_law_builds_the_law_term() {
        // `udiv x, (y << c)` is `ite(g, udiv (x >> c), y, udiv x, (y << c))`;
        // rebuilding the else branch fires the law again, and the
        // repeated guard must fold rather than nest a second ite.
        let mut p = TermPool::new();
        let [x, y, c, z] = ["x", "y", "c", "z"].map(|n| p.var(n, Sort::BitVec(8)));
        let shl = p.bv_shl(y, c);
        let t = p.bv_udiv(x, shl);
        assert!(matches!(p.term(t).op, Op::Ite(..)), "the law fired");
        let out = substitute(&mut p, t, &HashMap::from([(x, z)]));
        assert_eq!(out, p.bv_udiv(z, shl));
    }
}
