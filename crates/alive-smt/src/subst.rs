//! Capture-free substitution of variables by terms.

use crate::eval::Assignment;
use crate::term::{Op, TermId, TermPool};
use std::collections::HashMap;

/// Replaces the terms `map` keys (variables, or any subterm) in `root`,
/// rebuilding (and re-simplifying) the term bottom-up.
///
/// A subterm none of whose children changed keeps its id rather than
/// being rebuilt, so a substitution that replaces nothing below a term
/// returns the term itself (a rebuild could differ: a term built while its
/// own law was being applied would fire that law). The result may be a
/// constant if enough variables are substituted by constants.
pub fn substitute(pool: &mut TermPool, root: TermId, map: &HashMap<TermId, TermId>) -> TermId {
    substitute_with(pool, root, |_, t| map.get(&t).copied())
}

/// [`substitute`] with each replacement computed on demand: `replace` is
/// asked once about each subterm the walk reaches, parents before
/// children, and the walk does not descend into a subterm it replaces.
pub fn substitute_with(
    pool: &mut TermPool,
    root: TermId,
    mut replace: impl FnMut(&mut TermPool, TermId) -> Option<TermId>,
) -> TermId {
    let mut memo: HashMap<TermId, TermId> = HashMap::new();
    let mut stack = vec![(root, false)];
    while let Some((id, expanded)) = stack.pop() {
        if memo.contains_key(&id) {
            continue;
        }
        let children = pool.term(id).op.children();
        if !expanded {
            if let Some(r) = replace(pool, id) {
                memo.insert(id, r);
                continue;
            }
            stack.push((id, true));
            for c in children {
                if !memo.contains_key(&c) {
                    stack.push((c, false));
                }
            }
            continue;
        }
        let g = |t: TermId| memo[&t];
        if children.into_iter().all(|c| g(c) == c) {
            memo.insert(id, id);
            continue;
        }
        let op = pool.term(id).op.clone();
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
    fn a_subterm_with_nothing_replaced_below_keeps_its_id() {
        let mut p = TermPool::new();
        let [x, y, z] = ["x", "y", "z"].map(|n| p.var(n, Sort::BitVec(8)));
        let xy = p.bv_mul(x, y);
        let t = p.bv_add(xy, z);
        let one = p.bv(8, 1);
        let len = p.len();
        assert_eq!(substitute(&mut p, t, &HashMap::from([(one, z)])), t);
        assert_eq!(p.len(), len, "nothing rebuilt");
        let out = substitute(&mut p, t, &HashMap::from([(z, one)]));
        assert!(matches!(p.term(out).op, Op::Bv(_, a, b) if a == xy || b == xy));
    }
}
