//! Recursive-descent parsers for KeyNote field bodies.

use std::collections::HashMap;

use crate::ast::{ArithOp, BoolExpr, Clause, CmpOp, LicenseeExpr, Outcome, Program, ValExpr};
use crate::lexer::{tokenize, Token};
use crate::{KeyNoteError, Principal};

/// A token cursor with save/restore for backtracking.
struct Ts {
    tokens: Vec<Token>,
    pos: usize,
}

impl Ts {
    fn new(input: &str) -> Result<Ts, KeyNoteError> {
        Ok(Ts {
            tokens: tokenize(input)?,
            pos: 0,
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<(), KeyNoteError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(KeyNoteError::Syntax(format!(
                "expected {tok:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }
}

// ---------------------------------------------------------------------------
// Licensees.
// ---------------------------------------------------------------------------

/// Parses a `Licensees:` field body. Returns `None` for an empty field
/// (an assertion that delegates to nobody).
///
/// Unquoted identifiers are resolved through the assertion's
/// `Local-Constants`.
pub(crate) fn parse_licensees(
    input: &str,
    constants: &HashMap<String, String>,
) -> Result<Option<LicenseeExpr>, KeyNoteError> {
    let mut ts = Ts::new(input)?;
    if ts.at_end() {
        return Ok(None);
    }
    let expr = parse_lic_or(&mut ts, constants)?;
    if !ts.at_end() {
        return Err(KeyNoteError::Syntax(format!(
            "trailing tokens in Licensees: {:?}",
            ts.peek()
        )));
    }
    Ok(Some(expr))
}

fn parse_lic_or(
    ts: &mut Ts,
    consts: &HashMap<String, String>,
) -> Result<LicenseeExpr, KeyNoteError> {
    let mut left = parse_lic_and(ts, consts)?;
    while ts.eat(&Token::OrOr) {
        let right = parse_lic_and(ts, consts)?;
        left = LicenseeExpr::Or(Box::new(left), Box::new(right));
    }
    Ok(left)
}

fn parse_lic_and(
    ts: &mut Ts,
    consts: &HashMap<String, String>,
) -> Result<LicenseeExpr, KeyNoteError> {
    let mut left = parse_lic_atom(ts, consts)?;
    while ts.eat(&Token::AndAnd) {
        let right = parse_lic_atom(ts, consts)?;
        left = LicenseeExpr::And(Box::new(left), Box::new(right));
    }
    Ok(left)
}

fn parse_lic_atom(
    ts: &mut Ts,
    consts: &HashMap<String, String>,
) -> Result<LicenseeExpr, KeyNoteError> {
    match ts.next() {
        Some(Token::LParen) => {
            let inner = parse_lic_or(ts, consts)?;
            ts.expect(&Token::RParen)?;
            Ok(inner)
        }
        Some(Token::KOf(k)) => {
            if k == 0 {
                return Err(KeyNoteError::Syntax("0-of threshold".into()));
            }
            ts.expect(&Token::LParen)?;
            let mut subs = vec![parse_lic_or(ts, consts)?];
            while ts.eat(&Token::Comma) {
                subs.push(parse_lic_or(ts, consts)?);
            }
            ts.expect(&Token::RParen)?;
            if (k as usize) > subs.len() {
                return Err(KeyNoteError::Syntax(format!(
                    "{k}-of threshold over only {} members",
                    subs.len()
                )));
            }
            Ok(LicenseeExpr::KOf(k, subs))
        }
        Some(Token::Str(s)) => Ok(LicenseeExpr::Principal(Principal::parse(&s)?)),
        Some(Token::Ident(name)) => {
            let value = consts.get(&name).ok_or_else(|| {
                KeyNoteError::Syntax(format!("undefined local constant {name:?} in Licensees"))
            })?;
            Ok(LicenseeExpr::Principal(Principal::parse(value)?))
        }
        other => Err(KeyNoteError::Syntax(format!(
            "unexpected token in Licensees: {other:?}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Authorizer.
// ---------------------------------------------------------------------------

/// Parses an `Authorizer:` field body (one principal, possibly through a
/// local constant).
pub(crate) fn parse_authorizer(
    input: &str,
    constants: &HashMap<String, String>,
) -> Result<Principal, KeyNoteError> {
    let mut ts = Ts::new(input)?;
    let principal = match ts.next() {
        Some(Token::Str(s)) => Principal::parse(&s)?,
        Some(Token::Ident(name)) => {
            if name == "POLICY" {
                Principal::Policy
            } else {
                let value = constants.get(&name).ok_or_else(|| {
                    KeyNoteError::Syntax(format!("undefined local constant {name:?} in Authorizer"))
                })?;
                Principal::parse(value)?
            }
        }
        other => {
            return Err(KeyNoteError::Syntax(format!(
                "unexpected token in Authorizer: {other:?}"
            )));
        }
    };
    if !ts.at_end() {
        return Err(KeyNoteError::Syntax("trailing tokens in Authorizer".into()));
    }
    Ok(principal)
}

// ---------------------------------------------------------------------------
// Local-Constants.
// ---------------------------------------------------------------------------

/// Parses a `Local-Constants:` field body: `NAME = "value"` pairs.
pub(crate) fn parse_local_constants(input: &str) -> Result<Vec<(String, String)>, KeyNoteError> {
    let mut ts = Ts::new(input)?;
    let mut out = Vec::new();
    while !ts.at_end() {
        let name = match ts.next() {
            Some(Token::Ident(n)) => n,
            other => {
                return Err(KeyNoteError::Syntax(format!(
                    "expected constant name, found {other:?}"
                )));
            }
        };
        ts.expect(&Token::Assign)?;
        let value = match ts.next() {
            Some(Token::Str(v)) => v,
            other => {
                return Err(KeyNoteError::Syntax(format!(
                    "expected quoted value for constant {name}, found {other:?}"
                )));
            }
        };
        out.push((name, value));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Conditions.
// ---------------------------------------------------------------------------

/// Parses a `Conditions:` field body into a [`Program`].
pub(crate) fn parse_conditions(input: &str) -> Result<Program, KeyNoteError> {
    let mut ts = Ts::new(input)?;
    let program = parse_program(&mut ts)?;
    if !ts.at_end() {
        return Err(KeyNoteError::Syntax(format!(
            "trailing tokens in Conditions: {:?}",
            ts.peek()
        )));
    }
    Ok(program)
}

fn parse_program(ts: &mut Ts) -> Result<Program, KeyNoteError> {
    let mut clauses = Vec::new();
    loop {
        while ts.eat(&Token::Semi) {}
        if ts.at_end() || ts.peek() == Some(&Token::RBrace) {
            break;
        }
        let test = parse_bool_or(ts)?;
        let outcome = if ts.eat(&Token::Arrow) {
            match ts.peek() {
                Some(Token::LBrace) => {
                    ts.next();
                    let sub = parse_program(ts)?;
                    ts.expect(&Token::RBrace)?;
                    Outcome::Sub(sub)
                }
                Some(Token::Str(_)) => {
                    if let Some(Token::Str(v)) = ts.next() {
                        Outcome::Value(v)
                    } else {
                        unreachable!("peeked Str")
                    }
                }
                Some(Token::Ident(_)) => {
                    // Allow unquoted values like `-> RWX` for convenience.
                    if let Some(Token::Ident(v)) = ts.next() {
                        Outcome::Value(v)
                    } else {
                        unreachable!("peeked Ident")
                    }
                }
                other => {
                    return Err(KeyNoteError::Syntax(format!(
                        "expected value or {{...}} after '->', found {other:?}"
                    )));
                }
            }
        } else {
            Outcome::MaxTrust
        };
        clauses.push(Clause { test, outcome });
        // A further clause requires a separating semicolon (consumed at
        // the top of the loop).
        if ts.peek() != Some(&Token::Semi) {
            break;
        }
    }
    Ok(Program(clauses))
}

fn parse_bool_or(ts: &mut Ts) -> Result<BoolExpr, KeyNoteError> {
    let mut left = parse_bool_and(ts)?;
    while ts.eat(&Token::OrOr) {
        let right = parse_bool_and(ts)?;
        left = BoolExpr::Or(Box::new(left), Box::new(right));
    }
    Ok(left)
}

fn parse_bool_and(ts: &mut Ts) -> Result<BoolExpr, KeyNoteError> {
    let mut left = parse_bool_not(ts)?;
    while ts.eat(&Token::AndAnd) {
        let right = parse_bool_not(ts)?;
        left = BoolExpr::And(Box::new(left), Box::new(right));
    }
    Ok(left)
}

fn parse_bool_not(ts: &mut Ts) -> Result<BoolExpr, KeyNoteError> {
    if ts.eat(&Token::Not) {
        Ok(BoolExpr::Not(Box::new(parse_bool_not(ts)?)))
    } else {
        parse_bool_primary(ts)
    }
}

fn parse_bool_primary(ts: &mut Ts) -> Result<BoolExpr, KeyNoteError> {
    // Boolean literals.
    if let Some(Token::Ident(name)) = ts.peek() {
        if name == "true" {
            // Only a literal when not the start of a comparison
            // (`true == x` compares the string "true").
            let save = ts.pos;
            ts.next();
            if !is_cmp_start(ts.peek()) {
                return Ok(BoolExpr::True);
            }
            ts.pos = save;
        } else if name == "false" {
            let save = ts.pos;
            ts.next();
            if !is_cmp_start(ts.peek()) {
                return Ok(BoolExpr::False);
            }
            ts.pos = save;
        }
    }

    // Try a comparison first; fall back to a parenthesized boolean.
    let save = ts.pos;
    match try_parse_comparison(ts) {
        Ok(cmp) => Ok(cmp),
        Err(_) => {
            ts.pos = save;
            if ts.eat(&Token::LParen) {
                let inner = parse_bool_or(ts)?;
                ts.expect(&Token::RParen)?;
                Ok(inner)
            } else {
                Err(KeyNoteError::Syntax(format!(
                    "expected test expression, found {:?}",
                    ts.peek()
                )))
            }
        }
    }
}

fn is_cmp_start(tok: Option<&Token>) -> bool {
    matches!(
        tok,
        Some(
            Token::Eq
                | Token::Ne
                | Token::Lt
                | Token::Gt
                | Token::Le
                | Token::Ge
                | Token::Match
                | Token::Dot
                | Token::Plus
                | Token::Minus
                | Token::Star
                | Token::Slash
                | Token::Percent
                | Token::Caret
        )
    )
}

fn try_parse_comparison(ts: &mut Ts) -> Result<BoolExpr, KeyNoteError> {
    let lhs = parse_val(ts)?;
    let op = match ts.next() {
        Some(Token::Eq) => CmpOp::Eq,
        Some(Token::Ne) => CmpOp::Ne,
        Some(Token::Lt) => CmpOp::Lt,
        Some(Token::Gt) => CmpOp::Gt,
        Some(Token::Le) => CmpOp::Le,
        Some(Token::Ge) => CmpOp::Ge,
        Some(Token::Match) => {
            let pattern = parse_val(ts)?;
            return Ok(BoolExpr::Match(lhs, pattern));
        }
        other => {
            return Err(KeyNoteError::Syntax(format!(
                "expected comparison operator, found {other:?}"
            )));
        }
    };
    let rhs = parse_val(ts)?;
    Ok(BoolExpr::Cmp(lhs, op, rhs))
}

// Value expression precedence (loosest to tightest):
// concatenation `.`, additive, multiplicative, power, unary minus, atom.

fn parse_val(ts: &mut Ts) -> Result<ValExpr, KeyNoteError> {
    let mut left = parse_val_add(ts)?;
    while ts.eat(&Token::Dot) {
        let right = parse_val_add(ts)?;
        left = ValExpr::Concat(Box::new(left), Box::new(right));
    }
    Ok(left)
}

fn parse_val_add(ts: &mut Ts) -> Result<ValExpr, KeyNoteError> {
    let mut left = parse_val_mul(ts)?;
    loop {
        if ts.eat(&Token::Plus) {
            let right = parse_val_mul(ts)?;
            left = ValExpr::Arith(ArithOp::Add, Box::new(left), Box::new(right));
        } else if ts.eat(&Token::Minus) {
            let right = parse_val_mul(ts)?;
            left = ValExpr::Arith(ArithOp::Sub, Box::new(left), Box::new(right));
        } else {
            break;
        }
    }
    Ok(left)
}

fn parse_val_mul(ts: &mut Ts) -> Result<ValExpr, KeyNoteError> {
    let mut left = parse_val_pow(ts)?;
    loop {
        if ts.eat(&Token::Star) {
            let right = parse_val_pow(ts)?;
            left = ValExpr::Arith(ArithOp::Mul, Box::new(left), Box::new(right));
        } else if ts.eat(&Token::Slash) {
            let right = parse_val_pow(ts)?;
            left = ValExpr::Arith(ArithOp::Div, Box::new(left), Box::new(right));
        } else if ts.eat(&Token::Percent) {
            let right = parse_val_pow(ts)?;
            left = ValExpr::Arith(ArithOp::Rem, Box::new(left), Box::new(right));
        } else {
            break;
        }
    }
    Ok(left)
}

fn parse_val_pow(ts: &mut Ts) -> Result<ValExpr, KeyNoteError> {
    let base = parse_val_unary(ts)?;
    if ts.eat(&Token::Caret) {
        // Right-associative.
        let exp = parse_val_pow(ts)?;
        Ok(ValExpr::Arith(ArithOp::Pow, Box::new(base), Box::new(exp)))
    } else {
        Ok(base)
    }
}

fn parse_val_unary(ts: &mut Ts) -> Result<ValExpr, KeyNoteError> {
    if ts.eat(&Token::Minus) {
        Ok(ValExpr::Neg(Box::new(parse_val_unary(ts)?)))
    } else {
        parse_val_atom(ts)
    }
}

fn parse_val_atom(ts: &mut Ts) -> Result<ValExpr, KeyNoteError> {
    match ts.next() {
        Some(Token::Num(n)) => Ok(ValExpr::Num(n)),
        Some(Token::Str(s)) => Ok(ValExpr::Str(s)),
        Some(Token::Ident(name)) => Ok(ValExpr::Attr(name)),
        Some(Token::Dollar) => Ok(ValExpr::Indirect(Box::new(parse_val_atom(ts)?))),
        Some(Token::LParen) => {
            let inner = parse_val(ts)?;
            ts.expect(&Token::RParen)?;
            Ok(inner)
        }
        other => Err(KeyNoteError::Syntax(format!(
            "expected value, found {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_consts() -> HashMap<String, String> {
        HashMap::new()
    }

    #[test]
    fn licensees_single_principal() {
        let expr = parse_licensees("\"alice\"", &no_consts()).unwrap().unwrap();
        assert_eq!(
            expr,
            LicenseeExpr::Principal(Principal::Opaque("alice".into()))
        );
    }

    #[test]
    fn licensees_empty() {
        assert!(parse_licensees("", &no_consts()).unwrap().is_none());
        assert!(parse_licensees("   ", &no_consts()).unwrap().is_none());
    }

    #[test]
    fn licensees_boolean_structure() {
        let expr = parse_licensees("\"a\" && (\"b\" || \"c\")", &no_consts())
            .unwrap()
            .unwrap();
        match expr {
            LicenseeExpr::And(l, r) => {
                assert_eq!(*l, LicenseeExpr::Principal(Principal::Opaque("a".into())));
                assert!(matches!(*r, LicenseeExpr::Or(..)));
            }
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn licensees_threshold() {
        let expr = parse_licensees("2-of(\"a\", \"b\", \"c\")", &no_consts())
            .unwrap()
            .unwrap();
        match expr {
            LicenseeExpr::KOf(2, subs) => assert_eq!(subs.len(), 3),
            other => panic!("expected KOf, got {other:?}"),
        }
    }

    #[test]
    fn licensees_threshold_too_large_rejected() {
        assert!(parse_licensees("3-of(\"a\", \"b\")", &no_consts()).is_err());
    }

    #[test]
    fn licensees_local_constant() {
        let mut consts = HashMap::new();
        consts.insert("ALICE".to_string(), "alice-key".to_string());
        let expr = parse_licensees("ALICE", &consts).unwrap().unwrap();
        assert_eq!(
            expr,
            LicenseeExpr::Principal(Principal::Opaque("alice-key".into()))
        );
        assert!(parse_licensees("BOB", &consts).is_err());
    }

    #[test]
    fn authorizer_policy() {
        assert_eq!(
            parse_authorizer("\"POLICY\"", &no_consts()).unwrap(),
            Principal::Policy
        );
        assert_eq!(
            parse_authorizer("POLICY", &no_consts()).unwrap(),
            Principal::Policy
        );
    }

    #[test]
    fn local_constants_pairs() {
        let consts = parse_local_constants("A = \"key-a\"  B = \"key-b\"").unwrap();
        assert_eq!(
            consts,
            vec![
                ("A".to_string(), "key-a".to_string()),
                ("B".to_string(), "key-b".to_string())
            ]
        );
    }

    #[test]
    fn conditions_paper_example() {
        // The paper's Figure 5 credential conditions.
        let p =
            parse_conditions("(app_domain == \"DisCFS\") && (HANDLE == \"666240\") -> \"RWX\";")
                .unwrap();
        assert_eq!(p.0.len(), 1);
        assert_eq!(p.0[0].outcome, Outcome::Value("RWX".into()));
    }

    #[test]
    fn conditions_multiple_clauses() {
        let p = parse_conditions("(a == \"1\") -> \"R\"; (b == \"2\") -> \"W\"; true -> \"X\";")
            .unwrap();
        assert_eq!(p.0.len(), 3);
    }

    #[test]
    fn conditions_nested_program() {
        let p = parse_conditions(
            "(app_domain == \"DisCFS\") -> { (op == \"read\") -> \"R\"; (op == \"write\") -> \"W\"; };",
        )
        .unwrap();
        assert_eq!(p.0.len(), 1);
        assert!(matches!(p.0[0].outcome, Outcome::Sub(ref sub) if sub.0.len() == 2));
    }

    #[test]
    fn conditions_bare_test_is_max_trust() {
        let p = parse_conditions("app_domain == \"DisCFS\"").unwrap();
        assert_eq!(p.0[0].outcome, Outcome::MaxTrust);
    }

    #[test]
    fn conditions_empty() {
        assert_eq!(parse_conditions("").unwrap().0.len(), 0);
        assert_eq!(parse_conditions(" ; ; ").unwrap().0.len(), 0);
    }

    #[test]
    fn conditions_arithmetic() {
        let p = parse_conditions("(size + 10 < 2 * limit) -> \"true\";").unwrap();
        match &p.0[0].test {
            BoolExpr::Cmp(l, CmpOp::Lt, r) => {
                assert!(l.is_numeric_kind());
                assert!(r.is_numeric_kind());
            }
            other => panic!("expected Cmp, got {other:?}"),
        }
    }

    #[test]
    fn conditions_regex_match() {
        let p = parse_conditions("(filename ~= \"^/discfs/.*\") -> \"R\";").unwrap();
        assert!(matches!(p.0[0].test, BoolExpr::Match(..)));
    }

    #[test]
    fn conditions_trailing_garbage_rejected() {
        assert!(parse_conditions("a == \"b\" }").is_err());
    }

    #[test]
    fn conditions_not_and_literals() {
        let p = parse_conditions("!(a == \"b\") && true;").unwrap();
        assert!(matches!(p.0[0].test, BoolExpr::And(..)));
    }

    #[test]
    fn dollar_indirection_parses() {
        let p = parse_conditions("($name == \"x\") -> \"true\";").unwrap();
        match &p.0[0].test {
            BoolExpr::Cmp(ValExpr::Indirect(_), CmpOp::Eq, _) => {}
            other => panic!("expected indirection, got {other:?}"),
        }
    }
}
