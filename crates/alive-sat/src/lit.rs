//! Variables, literals, and the three-valued assignment lattice.

use std::fmt;
use std::ops::Not;

/// A propositional variable, identified by a dense index.
///
/// Variables are created by [`Solver::new_var`](crate::Solver::new_var) and
/// are valid only for the solver that created them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Returns the dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a variable from a raw index.
    ///
    /// Callers must ensure the index is in range for the solver it is used
    /// with; out-of-range variables cause panics inside the solver.
    #[inline]
    pub fn from_index(index: usize) -> Var {
        Var(index as u32)
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit((self.0 << 1) | 1)
    }

    /// The literal of this variable with the given sign.
    ///
    /// `sign == true` yields the positive literal.
    #[inline]
    pub fn lit(self, sign: bool) -> Lit {
        if sign {
            self.positive()
        } else {
            self.negative()
        }
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable or its negation.
///
/// Encoded as `2 * var + (negated as usize)` so that a literal and its
/// negation are adjacent, which makes watch lists cache friendly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The variable underlying this literal.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if this is a positive (non-negated) literal.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Returns the dense code of this literal (`2*var + neg`).
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// The DIMACS representation of this literal: `±(index + 1)`.
    ///
    /// Proof transcripts use this convention so they are meaningful without
    /// access to the solver's internal encoding.
    #[inline]
    pub fn to_dimacs(self) -> i32 {
        let magnitude = (self.0 >> 1) as i32 + 1;
        if self.is_positive() {
            magnitude
        } else {
            -magnitude
        }
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "v{}", self.var().0)
        } else {
            write!(f, "!v{}", self.var().0)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A lifted boolean: true, false, or unassigned.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not assigned.
    #[default]
    Undef,
}

impl LBool {
    /// Negation; `Undef` stays `Undef`.
    #[inline]
    pub fn negate(self) -> LBool {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }

    /// Converts to `Option<bool>`.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_round_trips() {
        let v = Var::from_index(7);
        assert_eq!(v.positive().var(), v);
        assert_eq!(v.negative().var(), v);
        assert!(v.positive().is_positive());
        assert!(!v.negative().is_positive());
        assert_eq!(!v.positive(), v.negative());
        assert_eq!(!!v.positive(), v.positive());
        assert_eq!(v.positive().code() ^ 1, v.negative().code());
    }

    #[test]
    fn dimacs_round_trips() {
        let v = Var::from_index(4);
        assert_eq!(v.positive().to_dimacs(), 5);
        assert_eq!(v.negative().to_dimacs(), -5);
        assert_eq!(Var::from_index(0).positive().to_dimacs(), 1);
    }

    #[test]
    fn lit_sign_constructor() {
        let v = Var::from_index(3);
        assert_eq!(v.lit(true), v.positive());
        assert_eq!(v.lit(false), v.negative());
    }

    #[test]
    fn lbool_lattice() {
        assert_eq!(LBool::True.negate(), LBool::False);
        assert_eq!(LBool::Undef.negate(), LBool::Undef);
        assert_eq!(LBool::True.to_bool(), Some(true));
        assert_eq!(LBool::Undef.to_bool(), None);
    }
}
