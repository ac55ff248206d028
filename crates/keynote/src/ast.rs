//! Abstract syntax for KeyNote licensees expressions and conditions
//! programs.

use crate::Principal;

/// A licensees expression: who is delegated to, and how their support
/// combines (RFC 2704 §4.4).
#[derive(Debug, Clone, PartialEq)]
pub enum LicenseeExpr {
    /// A single principal.
    Principal(Principal),
    /// Conjunction: both sides must support the action (value = min).
    And(Box<LicenseeExpr>, Box<LicenseeExpr>),
    /// Disjunction: either side suffices (value = max).
    Or(Box<LicenseeExpr>, Box<LicenseeExpr>),
    /// Threshold: at least `k` of the sub-expressions must support the
    /// action (value = k-th largest sub-value).
    KOf(u32, Vec<LicenseeExpr>),
}

impl LicenseeExpr {
    /// Iterates over every principal mentioned in the expression.
    pub fn principals(&self) -> Vec<&Principal> {
        let mut out = Vec::new();
        self.collect_principals(&mut out);
        out
    }

    fn collect_principals<'a>(&'a self, out: &mut Vec<&'a Principal>) {
        match self {
            LicenseeExpr::Principal(p) => out.push(p),
            LicenseeExpr::And(a, b) | LicenseeExpr::Or(a, b) => {
                a.collect_principals(out);
                b.collect_principals(out);
            }
            LicenseeExpr::KOf(_, subs) => {
                for s in subs {
                    s.collect_principals(out);
                }
            }
        }
    }
}

/// A conditions program: an ordered list of clauses whose overall value
/// is the maximum clause value (RFC 2704 §4.6.4).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Program(pub Vec<Clause>);

/// One `test -> outcome` clause.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Clause {
    /// The boolean guard.
    pub(crate) test: BoolExpr,
    /// What the clause yields when the guard holds.
    pub(crate) outcome: Outcome,
}

/// The right-hand side of a clause.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Outcome {
    /// No explicit `->`: a passing test yields `_MAX_TRUST`.
    MaxTrust,
    /// `-> "value"`: a passing test yields the named compliance value.
    Value(String),
    /// `-> { program }`: a passing test defers to a sub-program.
    Sub(Program),
}

/// Boolean expressions over action attributes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BoolExpr {
    /// Literal `true`.
    True,
    /// Literal `false`.
    False,
    /// `!e`
    Not(Box<BoolExpr>),
    /// `a && b`
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// `a || b`
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// `lhs <op> rhs`
    Cmp(ValExpr, CmpOp, ValExpr),
    /// `subject ~= "pattern"` — regex search.
    Match(ValExpr, ValExpr),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
}

/// Value expressions (strings or numbers).
///
/// KeyNote is dynamically typed over strings; whether a comparison is
/// numeric is decided by the *syntactic kind* of its operands (see
/// `eval`): arithmetic expressions and numeric literals are numeric,
/// string literals and concatenations are strings, and attribute
/// references adopt the other side's kind.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ValExpr {
    /// A quoted string literal.
    Str(String),
    /// A numeric literal (kept as written for exactness).
    Num(String),
    /// An attribute reference by name.
    Attr(String),
    /// `$expr` — the attribute whose *name* is the value of `expr`.
    Indirect(Box<ValExpr>),
    /// String concatenation `a . b`.
    Concat(Box<ValExpr>, Box<ValExpr>),
    /// Arithmetic `a <op> b`.
    Arith(ArithOp, Box<ValExpr>, Box<ValExpr>),
    /// Unary numeric negation.
    Neg(Box<ValExpr>),
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `^` (exponentiation)
    Pow,
}

impl ValExpr {
    /// Whether this expression is syntactically numeric.
    pub(crate) fn is_numeric_kind(&self) -> bool {
        matches!(self, ValExpr::Num(_) | ValExpr::Arith(..) | ValExpr::Neg(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn principals_collects_all() {
        let a = Principal::Opaque("a".into());
        let b = Principal::Opaque("b".into());
        let c = Principal::Opaque("c".into());
        let expr = LicenseeExpr::Or(
            Box::new(LicenseeExpr::Principal(a.clone())),
            Box::new(LicenseeExpr::KOf(
                2,
                vec![
                    LicenseeExpr::Principal(b.clone()),
                    LicenseeExpr::Principal(c.clone()),
                ],
            )),
        );
        let ps = expr.principals();
        assert_eq!(ps, vec![&a, &b, &c]);
    }

    #[test]
    fn numeric_kind() {
        assert!(ValExpr::Num("3".into()).is_numeric_kind());
        assert!(!ValExpr::Str("3".into()).is_numeric_kind());
        assert!(!ValExpr::Attr("x".into()).is_numeric_kind());
        assert!(ValExpr::Neg(Box::new(ValExpr::Attr("x".into()))).is_numeric_kind());
    }
}
