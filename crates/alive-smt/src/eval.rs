//! Concrete evaluation of terms under a variable assignment.
//!
//! The evaluator defines the reference semantics the bit-blaster is tested
//! against, and is used to complete partial models and to compute the
//! intermediate values shown in counterexamples (Fig. 5 of the paper).

use crate::term::{Op, TermId, TermPool};
use crate::value::Value;
use std::collections::HashMap;

/// A (possibly partial) assignment of values to variable terms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Assignment {
    values: HashMap<TermId, Value>,
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Assignment {
        Assignment::default()
    }

    /// Binds a variable term to a value.
    pub fn set(&mut self, var: TermId, value: impl Into<Value>) {
        self.values.insert(var, value.into());
    }

    /// Looks up a variable's value.
    pub fn get(&self, var: TermId) -> Option<Value> {
        self.values.get(&var).copied()
    }

    /// Iterates over the bound (variable, value) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, Value)> + '_ {
        self.values.iter().map(|(&k, &v)| (k, v))
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Errors from [`eval`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A variable had no value in the assignment.
    UnboundVar(TermId, String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::UnboundVar(id, name) => {
                write!(f, "unbound variable {name} (term #{})", id.index())
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates `root` under `env`.
///
/// Uses an explicit work stack, so arbitrarily deep terms (e.g. the
/// ite-chains produced by the eager memory encoding) do not overflow the
/// call stack.
///
/// # Errors
///
/// Returns [`EvalError::UnboundVar`] if a reachable variable is unbound.
pub fn eval(pool: &TermPool, root: TermId, env: &Assignment) -> Result<Value, EvalError> {
    let mut memo: HashMap<TermId, Value> = HashMap::new();
    let mut stack: Vec<(TermId, bool)> = vec![(root, false)];

    while let Some((id, expanded)) = stack.pop() {
        if memo.contains_key(&id) {
            continue;
        }
        let term = pool.term(id);
        if !expanded {
            stack.push((id, true));
            for c in term.op.children() {
                if !memo.contains_key(&c) {
                    stack.push((c, false));
                }
            }
            continue;
        }
        let get = |t: TermId| -> Value { memo[&t] };
        let v: Value = match &term.op {
            Op::BoolConst(b) => Value::Bool(*b),
            Op::BvConst(v) => Value::Bv(*v),
            Op::Var(_) => match env.get(id) {
                Some(v) => v,
                None => {
                    let name = pool.var_name(id).unwrap_or("?").to_string();
                    return Err(EvalError::UnboundVar(id, name));
                }
            },
            Op::Not(a) => Value::Bool(!get(*a).as_bool()),
            Op::And(cs) => Value::Bool(cs.iter().all(|&c| get(c).as_bool())),
            Op::Or(cs) => Value::Bool(cs.iter().any(|&c| get(c).as_bool())),
            Op::Xor(a, b) => Value::Bool(get(*a).as_bool() ^ get(*b).as_bool()),
            Op::Implies(a, b) => Value::Bool(!get(*a).as_bool() || get(*b).as_bool()),
            Op::Eq(a, b) => Value::Bool(get(*a) == get(*b)),
            Op::Ite(c, t, e) => {
                if get(*c).as_bool() {
                    get(*t)
                } else {
                    get(*e)
                }
            }
            Op::BvNot(a) => get(*a).as_bv().not().into(),
            Op::BvNeg(a) => get(*a).as_bv().neg().into(),
            Op::Bv(op, a, b) => (op.def().apply)(get(*a).as_bv(), get(*b).as_bv()),
            Op::ZExt(a) => get(*a).as_bv().zext(term.sort.width()).into(),
            Op::SExt(a) => get(*a).as_bv().sext(term.sort.width()).into(),
            Op::Extract(a, hi, lo) => get(*a).as_bv().extract(*hi, *lo).into(),
            Op::Concat(a, b) => get(*a).as_bv().concat(get(*b).as_bv()).into(),
        };
        memo.insert(id, v);
    }
    Ok(memo[&root])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{BvVal, Sort};

    #[test]
    fn evaluates_arithmetic() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(8));
        let y = p.var("y", Sort::BitVec(8));
        let sum = p.bv_add(x, y);
        let prod = p.bv_mul(sum, x);
        let mut env = Assignment::new();
        env.set(x, BvVal::new(8, 3));
        env.set(y, BvVal::new(8, 4));
        assert_eq!(eval(&p, prod, &env).unwrap(), Value::Bv(BvVal::new(8, 21)));
    }

    #[test]
    fn evaluates_booleans_and_ite() {
        let mut p = TermPool::new();
        let c = p.var("c", Sort::Bool);
        let x = p.var("x", Sort::BitVec(4));
        let y = p.var("y", Sort::BitVec(4));
        let ite = p.ite(c, x, y);
        let mut env = Assignment::new();
        env.set(c, true);
        env.set(x, BvVal::new(4, 1));
        env.set(y, BvVal::new(4, 2));
        assert_eq!(eval(&p, ite, &env).unwrap(), Value::Bv(BvVal::new(4, 1)));
        env.set(c, false);
        assert_eq!(eval(&p, ite, &env).unwrap(), Value::Bv(BvVal::new(4, 2)));
    }

    #[test]
    fn unbound_var_reports_name() {
        let mut p = TermPool::new();
        let x = p.var("lonely", Sort::Bool);
        let env = Assignment::new();
        let err = eval(&p, x, &env).unwrap_err();
        assert!(err.to_string().contains("lonely"));
    }

    #[test]
    fn deep_ite_chain_does_not_overflow() {
        let mut p = TermPool::new();
        let c = p.var("c", Sort::Bool);
        let mut acc = p.bv(8, 0);
        for i in 0..50_000u32 {
            let k = p.bv(8, (i % 256) as u128);
            acc = p.ite(c, k, acc);
        }
        let mut env = Assignment::new();
        env.set(c, false);
        assert_eq!(eval(&p, acc, &env).unwrap(), Value::Bv(BvVal::zero(8)));
    }
}
