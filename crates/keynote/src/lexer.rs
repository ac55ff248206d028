//! Tokenizer for KeyNote field bodies (licensees expressions, conditions
//! programs, local-constant lists).

use crate::KeyNoteError;

/// A lexical token of the KeyNote assertion language.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// An identifier: `[A-Za-z_][A-Za-z0-9_]*`.
    Ident(String),
    /// A quoted string literal (quotes stripped, escapes resolved).
    Str(String),
    /// A numeric literal, kept as written.
    Num(String),
    /// A `k-of` threshold prefix, e.g. `2-of`.
    KOf(u32),
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Not,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `->`
    Arrow,
    /// `;`
    Semi,
    /// `,`
    Comma,
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
    /// `~=` (regex match)
    Match,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `^`
    Caret,
    /// `.` (string concatenation)
    Dot,
    /// `$` (attribute indirection)
    Dollar,
    /// `=` (assignment in Local-Constants)
    Assign,
}

/// Tokenizes a field body.
///
/// # Errors
///
/// Returns [`KeyNoteError::Syntax`] on unterminated strings or
/// unrecognized characters.
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>, KeyNoteError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '{' => {
                tokens.push(Token::LBrace);
                i += 1;
            }
            '}' => {
                tokens.push(Token::RBrace);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semi);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '%' => {
                tokens.push(Token::Percent);
                i += 1;
            }
            '^' => {
                tokens.push(Token::Caret);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '$' => {
                tokens.push(Token::Dollar);
                i += 1;
            }
            '&' => {
                if chars.get(i + 1) == Some(&'&') {
                    tokens.push(Token::AndAnd);
                    i += 2;
                } else {
                    return Err(KeyNoteError::Syntax("single '&'".into()));
                }
            }
            '|' => {
                if chars.get(i + 1) == Some(&'|') {
                    tokens.push(Token::OrOr);
                    i += 2;
                } else {
                    return Err(KeyNoteError::Syntax("single '|'".into()));
                }
            }
            '!' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    tokens.push(Token::Not);
                    i += 1;
                }
            }
            '=' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Eq);
                    i += 2;
                } else {
                    tokens.push(Token::Assign);
                    i += 1;
                }
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Le);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '~' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Match);
                    i += 2;
                } else {
                    return Err(KeyNoteError::Syntax("'~' without '='".into()));
                }
            }
            '-' => {
                if chars.get(i + 1) == Some(&'>') {
                    tokens.push(Token::Arrow);
                    i += 2;
                } else {
                    tokens.push(Token::Minus);
                    i += 1;
                }
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match chars.get(i) {
                        None => {
                            return Err(KeyNoteError::Syntax("unterminated string".into()));
                        }
                        Some('"') => {
                            i += 1;
                            break;
                        }
                        Some('\\') => {
                            match chars.get(i + 1) {
                                Some('n') => s.push('\n'),
                                Some('t') => s.push('\t'),
                                Some(&other) => s.push(other),
                                None => {
                                    return Err(KeyNoteError::Syntax(
                                        "dangling escape in string".into(),
                                    ));
                                }
                            }
                            i += 2;
                        }
                        Some(&other) => {
                            s.push(other);
                            i += 1;
                        }
                    }
                }
                tokens.push(Token::Str(s));
            }
            d if d.is_ascii_digit() => {
                let start = i;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                // `<num>-of` is the threshold prefix; otherwise allow an
                // optional fractional part.
                if chars.get(i) == Some(&'-')
                    && chars.get(i + 1) == Some(&'o')
                    && chars.get(i + 2) == Some(&'f')
                {
                    let n: u32 = chars[start..i]
                        .iter()
                        .collect::<String>()
                        .parse()
                        .map_err(|_| KeyNoteError::Syntax("k-of count overflow".into()))?;
                    tokens.push(Token::KOf(n));
                    i += 3;
                } else {
                    if chars.get(i) == Some(&'.')
                        && chars.get(i + 1).is_some_and(|c| c.is_ascii_digit())
                    {
                        i += 1;
                        while i < chars.len() && chars[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                    tokens.push(Token::Num(chars[start..i].iter().collect()));
                }
            }
            a if a.is_ascii_alphabetic() || a == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                tokens.push(Token::Ident(chars[start..i].iter().collect()));
            }
            other => {
                return Err(KeyNoteError::Syntax(format!(
                    "unexpected character {other:?}"
                )));
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators() {
        let toks = tokenize("(a == \"b\") && !(c != d) || e ~= \"f.*\"").unwrap();
        assert!(toks.contains(&Token::Eq));
        assert!(toks.contains(&Token::AndAnd));
        assert!(toks.contains(&Token::Not));
        assert!(toks.contains(&Token::Ne));
        assert!(toks.contains(&Token::OrOr));
        assert!(toks.contains(&Token::Match));
    }

    #[test]
    fn arrow_vs_minus() {
        assert_eq!(
            tokenize("a -> b - c").unwrap(),
            vec![
                Token::Ident("a".into()),
                Token::Arrow,
                Token::Ident("b".into()),
                Token::Minus,
                Token::Ident("c".into()),
            ]
        );
    }

    #[test]
    fn k_of_threshold() {
        assert_eq!(
            tokenize("2-of(\"a\",\"b\",\"c\")").unwrap()[0],
            Token::KOf(2)
        );
        // A plain number stays a number.
        assert_eq!(tokenize("2 - 1").unwrap()[0], Token::Num("2".into()));
    }

    #[test]
    fn numbers() {
        assert_eq!(
            tokenize("3.25 10").unwrap(),
            vec![Token::Num("3.25".into()), Token::Num("10".into())]
        );
        // Trailing dot is concatenation, not a float.
        assert_eq!(
            tokenize("3.x").unwrap(),
            vec![Token::Num("3".into()), Token::Dot, Token::Ident("x".into())]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            tokenize(r#""he said \"hi\"\n""#).unwrap(),
            vec![Token::Str("he said \"hi\"\n".into())]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("\"abc").is_err());
    }

    #[test]
    fn single_amp_errors() {
        assert!(tokenize("a & b").is_err());
    }

    #[test]
    fn comparison_pair_tokens() {
        assert_eq!(
            tokenize("a <= b >= c < d > e").unwrap(),
            vec![
                Token::Ident("a".into()),
                Token::Le,
                Token::Ident("b".into()),
                Token::Ge,
                Token::Ident("c".into()),
                Token::Lt,
                Token::Ident("d".into()),
                Token::Gt,
                Token::Ident("e".into()),
            ]
        );
    }
}
