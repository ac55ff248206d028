//! Evaluation of conditions programs against an action attribute set.
//!
//! RFC 2704 semantics implemented here:
//!
//! * A clause whose test holds contributes its outcome value; the
//!   program's value is the **maximum** over contributing clauses.
//! * A failing test, a reference to an undefined attribute used in a
//!   numeric context, a malformed number, or a bad regex all make the
//!   *enclosing test* evaluate to false — they never abort the query
//!   (robustness principle of §4.6.4: errors yield `_MIN_TRUST`, not
//!   failures).
//! * An undefined attribute dereferences to the empty string.
//! * A clause value that is not in the query's compliance value set is
//!   treated as `_MIN_TRUST`.
//!
//! Values are `Cow<str>`: literals and attribute values are borrowed
//! from the program and the session, so the common comparison
//! `attr == "literal"` allocates nothing; only concatenation and
//! arithmetic produce owned text.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::ast::{ArithOp, BoolExpr, CmpOp, Outcome, Program, ValExpr};
use crate::regex::Regex;
use crate::values::ValueSet;

/// Evaluation context for one query.
pub(crate) struct EvalCtx<'a> {
    /// The action attributes the caller set.
    pub(crate) attributes: &'a HashMap<String, String>,
    /// The `_ACTION_AUTHORIZERS` text (requesters, sorted, comma-joined).
    pub(crate) action_authorizers: &'a str,
    /// The ordered compliance value set of the query.
    pub(crate) values: &'a ValueSet,
}

impl<'a> EvalCtx<'a> {
    /// Looks an attribute up; `None` means "not defined". The special
    /// attributes of RFC 2704 §3 shadow caller-set ones of the same
    /// name.
    fn attr(&self, name: &str) -> Option<&'a str> {
        match name {
            "_MIN_TRUST" => Some(self.values.min_value()),
            "_MAX_TRUST" => Some(self.values.max_value()),
            "_VALUES" => Some(self.values.values_attribute()),
            "_ACTION_AUTHORIZERS" => Some(self.action_authorizers),
            other => self.attributes.get(other).map(String::as_str),
        }
    }
}

/// Collects the string equalities `attr == "literal"` that `test`
/// cannot hold without: those reachable from the root through `&&`
/// only (nothing under `!` or `||`), comparing a plain attribute
/// reference (no `$` indirection, not a `_`-special name) with a
/// non-empty string literal, in either operand order.
///
/// Must mirror [`eval_bool`]: such a comparison is string-kind, and
/// with a non-empty literal it holds exactly when the attribute is
/// defined and equal to the literal (an undefined attribute reads as
/// `""`). [`crate::Session`] indexes assertions by these pairs.
pub(crate) fn required_equalities<'p>(test: &'p BoolExpr, out: &mut Vec<(&'p str, &'p str)>) {
    match test {
        BoolExpr::And(a, b) => {
            required_equalities(a, out);
            required_equalities(b, out);
        }
        BoolExpr::Cmp(ValExpr::Attr(attr), CmpOp::Eq, ValExpr::Str(literal))
        | BoolExpr::Cmp(ValExpr::Str(literal), CmpOp::Eq, ValExpr::Attr(attr))
            if !attr.starts_with('_') && !literal.is_empty() =>
        {
            out.push((attr, literal));
        }
        _ => {}
    }
}

/// Evaluates a conditions program to a compliance value index.
pub(crate) fn eval_program<'a>(program: &'a Program, ctx: &EvalCtx<'a>) -> usize {
    let mut best = ctx.values.min_index();
    for clause in &program.0 {
        if eval_bool(&clause.test, ctx) {
            let v = match &clause.outcome {
                Outcome::MaxTrust => ctx.values.max_index(),
                Outcome::Value(name) => ctx.values.index_of(name).unwrap_or(ctx.values.min_index()),
                Outcome::Sub(sub) => eval_program(sub, ctx),
            };
            best = best.max(v);
        }
    }
    best
}

/// Evaluates a boolean test; any evaluation error yields `false`.
pub(crate) fn eval_bool<'a>(expr: &'a BoolExpr, ctx: &EvalCtx<'a>) -> bool {
    match expr {
        BoolExpr::True => true,
        BoolExpr::False => false,
        BoolExpr::Not(inner) => !eval_bool(inner, ctx),
        BoolExpr::And(a, b) => eval_bool(a, ctx) && eval_bool(b, ctx),
        BoolExpr::Or(a, b) => eval_bool(a, ctx) || eval_bool(b, ctx),
        BoolExpr::Cmp(lhs, op, rhs) => eval_cmp(lhs, *op, rhs, ctx).unwrap_or(false),
        BoolExpr::Match(subject, pattern) => {
            let (Some(subject), Some(pattern)) = (eval_val(subject, ctx), eval_val(pattern, ctx))
            else {
                return false;
            };
            match Regex::new(&pattern) {
                Ok(re) => re.is_match(&subject),
                Err(_) => false,
            }
        }
    }
}

fn eval_cmp<'a>(lhs: &'a ValExpr, op: CmpOp, rhs: &'a ValExpr, ctx: &EvalCtx<'a>) -> Option<bool> {
    // A comparison is numeric when either operand is syntactically
    // numeric (a literal number or arithmetic); both sides must then
    // coerce to numbers or the test fails.
    let numeric = lhs.is_numeric_kind() || rhs.is_numeric_kind();
    let l = eval_val(lhs, ctx)?;
    let r = eval_val(rhs, ctx)?;
    if numeric {
        let ln: f64 = l.trim().parse().ok()?;
        let rn: f64 = r.trim().parse().ok()?;
        Some(match op {
            CmpOp::Eq => ln == rn,
            CmpOp::Ne => ln != rn,
            CmpOp::Lt => ln < rn,
            CmpOp::Gt => ln > rn,
            CmpOp::Le => ln <= rn,
            CmpOp::Ge => ln >= rn,
        })
    } else {
        Some(match op {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Gt => l > r,
            CmpOp::Le => l <= r,
            CmpOp::Ge => l >= r,
        })
    }
}

/// Evaluates a value expression to a string; `None` signals a numeric
/// evaluation error (which fails the enclosing test).
pub(crate) fn eval_val<'a>(expr: &'a ValExpr, ctx: &EvalCtx<'a>) -> Option<Cow<'a, str>> {
    match expr {
        ValExpr::Str(s) => Some(Cow::Borrowed(s)),
        ValExpr::Num(n) => Some(Cow::Borrowed(n)),
        // RFC 2704: dereferencing an undefined attribute yields "".
        ValExpr::Attr(name) => Some(Cow::Borrowed(ctx.attr(name).unwrap_or_default())),
        ValExpr::Indirect(inner) => {
            let name = eval_val(inner, ctx)?;
            Some(Cow::Borrowed(ctx.attr(&name).unwrap_or_default()))
        }
        ValExpr::Concat(a, b) => {
            let mut s = eval_val(a, ctx)?.into_owned();
            s.push_str(&eval_val(b, ctx)?);
            Some(Cow::Owned(s))
        }
        ValExpr::Neg(inner) => {
            let v: f64 = eval_val(inner, ctx)?.trim().parse().ok()?;
            Some(Cow::Owned(format_number(-v)))
        }
        ValExpr::Arith(op, a, b) => {
            let l: f64 = eval_val(a, ctx)?.trim().parse().ok()?;
            let r: f64 = eval_val(b, ctx)?.trim().parse().ok()?;
            let result = match op {
                ArithOp::Add => l + r,
                ArithOp::Sub => l - r,
                ArithOp::Mul => l * r,
                ArithOp::Div => {
                    if r == 0.0 {
                        return None;
                    }
                    l / r
                }
                ArithOp::Rem => {
                    if r == 0.0 {
                        return None;
                    }
                    l % r
                }
                ArithOp::Pow => l.powf(r),
            };
            result
                .is_finite()
                .then(|| Cow::Owned(format_number(result)))
        }
    }
}

/// Formats a float the way users expect in string contexts: integers
/// print without a fractional part.
fn format_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_conditions;

    fn eval_with(conditions: &str, attrs: &[(&str, &str)], values: &[&str]) -> String {
        let program = parse_conditions(conditions).unwrap();
        let map: HashMap<String, String> = attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let vs = ValueSet::new(values);
        let ctx = EvalCtx {
            attributes: &map,
            action_authorizers: "",
            values: &vs,
        };
        vs.shared_value_at(eval_program(&program, &ctx)).to_string()
    }

    fn eval_bool_str(conditions: &str, attrs: &[(&str, &str)]) -> bool {
        eval_with(conditions, attrs, &["false", "true"]) == "true"
    }

    #[test]
    fn paper_figure5_credential() {
        let cond = "(app_domain == \"DisCFS\") && (HANDLE == \"666240\") -> \"RWX\";";
        let values = ["false", "X", "W", "WX", "R", "RX", "RW", "RWX"];
        assert_eq!(
            eval_with(
                cond,
                &[("app_domain", "DisCFS"), ("HANDLE", "666240")],
                &values
            ),
            "RWX"
        );
        assert_eq!(
            eval_with(cond, &[("app_domain", "DisCFS"), ("HANDLE", "1")], &values),
            "false"
        );
        assert_eq!(
            eval_with(
                cond,
                &[("app_domain", "other"), ("HANDLE", "666240")],
                &values
            ),
            "false"
        );
    }

    #[test]
    fn max_of_clauses_wins() {
        let cond = "(a == \"1\") -> \"R\"; (a == \"1\") -> \"RW\";";
        let values = ["false", "X", "W", "WX", "R", "RX", "RW", "RWX"];
        assert_eq!(eval_with(cond, &[("a", "1")], &values), "RW");
    }

    #[test]
    fn nested_subprogram() {
        let cond = "(app_domain == \"DisCFS\") -> { (op == \"read\") -> \"R\"; (op == \"write\") -> \"W\"; };";
        let values = ["false", "X", "W", "WX", "R", "RX", "RW", "RWX"];
        assert_eq!(
            eval_with(cond, &[("app_domain", "DisCFS"), ("op", "read")], &values),
            "R"
        );
        assert_eq!(
            eval_with(cond, &[("app_domain", "DisCFS"), ("op", "write")], &values),
            "W"
        );
        assert_eq!(
            eval_with(cond, &[("app_domain", "DisCFS")], &values),
            "false"
        );
        assert_eq!(eval_with(cond, &[("op", "read")], &values), "false");
    }

    #[test]
    fn bare_test_yields_max_trust() {
        assert!(eval_bool_str("a == \"x\"", &[("a", "x")]));
        assert!(!eval_bool_str("a == \"x\"", &[("a", "y")]));
    }

    #[test]
    fn undefined_attribute_is_empty_string() {
        assert!(eval_bool_str("missing == \"\"", &[]));
        assert!(!eval_bool_str("missing == \"x\"", &[]));
    }

    #[test]
    fn numeric_comparison() {
        // Numeric because one side is a numeric literal.
        assert!(eval_bool_str("size < 100", &[("size", "42")]));
        assert!(!eval_bool_str("size < 100", &[("size", "142")]));
        // String comparison would order "9" after "10"; numeric orders properly.
        assert!(eval_bool_str("n < 10", &[("n", "9")]));
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        assert!(eval_bool_str("a < \"b\"", &[("a", "apple")]));
        // Both sides string-kind: "10" < "9" lexicographically.
        assert!(eval_bool_str("x < \"9\"", &[("x", "10")]));
    }

    #[test]
    fn numeric_coercion_failure_fails_test() {
        assert!(!eval_bool_str("size < 100", &[("size", "not-a-number")]));
        // ...but does not poison other clauses.
        let values = ["false", "true"];
        assert_eq!(
            eval_with(
                "(size < 100) -> \"true\"; (ok == \"yes\") -> \"true\";",
                &[("size", "junk"), ("ok", "yes")],
                &values
            ),
            "true"
        );
    }

    #[test]
    fn arithmetic() {
        assert!(eval_bool_str("2 + 2 == 4", &[]));
        assert!(eval_bool_str(
            "(size * 2) <= limit",
            &[("size", "5"), ("limit", "10")]
        ));
        assert!(eval_bool_str("2 ^ 10 == 1024", &[]));
        assert!(eval_bool_str("10 % 3 == 1", &[]));
        assert!(!eval_bool_str("1 / 0 == 1", &[]));
    }

    #[test]
    fn unary_negation() {
        assert!(eval_bool_str("-balance < 0", &[("balance", "5")]));
    }

    #[test]
    fn concatenation() {
        assert!(eval_bool_str(
            "(dir . \"/\" . name) == \"/tmp/file\"",
            &[("dir", "/tmp"), ("name", "file")]
        ));
    }

    #[test]
    fn regex_match_operator() {
        assert!(eval_bool_str(
            "filename ~= \"^/discfs/.*\\.tex$\"",
            &[("filename", "/discfs/paper.tex")]
        ));
        assert!(!eval_bool_str(
            "filename ~= \"^/discfs/.*\\.tex$\"",
            &[("filename", "/etc/passwd")]
        ));
        // Bad pattern fails closed.
        assert!(!eval_bool_str("x ~= \"(unclosed\"", &[("x", "anything")]));
    }

    #[test]
    fn indirection() {
        assert!(eval_bool_str(
            "$selector == \"chosen\"",
            &[("selector", "target"), ("target", "chosen")]
        ));
    }

    #[test]
    fn unknown_compliance_value_is_min_trust() {
        let values = ["false", "true"];
        assert_eq!(eval_with("true -> \"SUPERUSER\";", &[], &values), "false");
    }

    #[test]
    fn boolean_literals_and_not() {
        assert!(eval_bool_str("true", &[]));
        assert!(!eval_bool_str("false", &[]));
        assert!(eval_bool_str("!false", &[]));
        assert!(eval_bool_str("true && !(false || false)", &[]));
    }

    #[test]
    fn time_of_day_policy() {
        // The paper's §3.1 example: leisure files unavailable during
        // office hours.
        let cond = "(hour >= 9 && hour < 17) -> \"false\"; (hour < 9 || hour >= 17) -> \"true\";";
        assert!(!eval_bool_str(cond, &[("hour", "10")]));
        assert!(eval_bool_str(cond, &[("hour", "20")]));
        assert!(eval_bool_str(cond, &[("hour", "8")]));
    }
}
