//! Lexer for the quality query language (QQL).
//!
//! QQL is SQL-shaped with one extension: a `WITH QUALITY (...)` clause
//! whose predicates reference `column@indicator` pseudo-columns — the
//! query-time quality filtering the paper's tags exist to support.
//! Identifiers may therefore contain `@` and `.`.

use relstore::{DbError, DbResult};
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (case preserved; keywords matched
    /// case-insensitively by the parser).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (with `''` escape).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `||`
    Concat,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Comma => f.write_str(","),
            Token::Star => f.write_str("*"),
            Token::Eq => f.write_str("="),
            Token::Ne => f.write_str("<>"),
            Token::Lt => f.write_str("<"),
            Token::Le => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::Ge => f.write_str(">="),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Slash => f.write_str("/"),
            Token::Percent => f.write_str("%"),
            Token::Concat => f.write_str("||"),
        }
    }
}

/// Tokenizes QQL text.
pub fn lex(input: &str) -> DbResult<Vec<Token>> {
    lex_at_most(input, usize::MAX)
}

/// The statement's leading token — what decides its kind (`SELECT`,
/// `TAG`, …) — without lexing the rest. `None` for empty, comment-only,
/// or unlexable input.
pub fn first_token(input: &str) -> Option<Token> {
    lex_at_most(input, 1).ok()?.pop()
}

fn lex_at_most(input: &str, limit: usize) -> DbResult<Vec<Token>> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        if out.len() >= limit {
            break;
        }
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '-' => {
                chars.next();
                if chars.peek() == Some(&'-') {
                    // line comment
                    for c in chars.by_ref() {
                        if c == '\n' {
                            break;
                        }
                    }
                } else {
                    out.push(Token::Minus);
                }
            }
            '(' => {
                chars.next();
                out.push(Token::LParen);
            }
            ')' => {
                chars.next();
                out.push(Token::RParen);
            }
            ',' => {
                chars.next();
                out.push(Token::Comma);
            }
            '*' => {
                chars.next();
                out.push(Token::Star);
            }
            '+' => {
                chars.next();
                out.push(Token::Plus);
            }
            '/' => {
                chars.next();
                out.push(Token::Slash);
            }
            '%' => {
                chars.next();
                out.push(Token::Percent);
            }
            '|' => {
                chars.next();
                if chars.peek() == Some(&'|') {
                    chars.next();
                    out.push(Token::Concat);
                } else {
                    return Err(DbError::ParseError("lone `|`".into()));
                }
            }
            '=' => {
                chars.next();
                out.push(Token::Eq);
            }
            '!' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push(Token::Ne);
                } else {
                    return Err(DbError::ParseError("lone `!`".into()));
                }
            }
            '<' => {
                chars.next();
                match chars.peek() {
                    Some('=') => {
                        chars.next();
                        out.push(Token::Le);
                    }
                    Some('>') => {
                        chars.next();
                        out.push(Token::Ne);
                    }
                    _ => out.push(Token::Lt),
                }
            }
            '>' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push(Token::Ge);
                } else {
                    out.push(Token::Gt);
                }
            }
            '\'' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        None => {
                            return Err(DbError::ParseError("unterminated string".into()))
                        }
                        Some('\'') => {
                            if chars.peek() == Some(&'\'') {
                                chars.next();
                                s.push('\'');
                            } else {
                                break;
                            }
                        }
                        Some(c) => s.push(c),
                    }
                }
                out.push(Token::Str(s));
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                let mut is_float = false;
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() {
                        s.push(c);
                        chars.next();
                    } else if c == '.' && !is_float {
                        // lookahead: digit must follow for a float
                        let mut clone = chars.clone();
                        clone.next();
                        if clone.peek().map(|d| d.is_ascii_digit()).unwrap_or(false) {
                            is_float = true;
                            s.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                if is_float {
                    out.push(Token::Float(s.parse().map_err(|_| {
                        DbError::ParseError(format!("bad float `{s}`"))
                    })?));
                } else {
                    out.push(Token::Int(s.parse().map_err(|_| {
                        DbError::ParseError(format!("bad integer `{s}`"))
                    })?));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '@' || c == '.' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token::Ident(s));
            }
            other => {
                return Err(DbError::ParseError(format!(
                    "unexpected character `{other}`"
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_token_skips_whitespace_and_comments_only() {
        let ident = |s: &str| Some(Token::Ident(s.to_owned()));
        assert_eq!(first_token("TAG\tt SET a@b = 1"), ident("TAG"));
        assert_eq!(first_token("-- note\n  tag\nt SET a@b = 1"), ident("tag"));
        assert_eq!(first_token("SELECT 'unterminated"), ident("SELECT"));
        assert_eq!(first_token("  -- nothing"), None);
        assert_eq!(first_token("|"), None);
    }

    #[test]
    fn lexes_quality_query() {
        let toks = lex(
            "SELECT ticker, price FROM stocks WHERE price >= 10.5 \
             WITH QUALITY (price@age <= 10, price@source = 'NYSE feed')",
        )
        .unwrap();
        assert!(toks.contains(&Token::Ident("price@age".into())));
        assert!(toks.contains(&Token::Str("NYSE feed".into())));
        assert!(toks.contains(&Token::Float(10.5)));
        assert!(toks.contains(&Token::Le));
    }

    #[test]
    fn operators() {
        assert_eq!(
            lex("< <= <> > >= = != + - * / % ||").unwrap(),
            vec![
                Token::Lt,
                Token::Le,
                Token::Ne,
                Token::Gt,
                Token::Ge,
                Token::Eq,
                Token::Ne,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
                Token::Percent,
                Token::Concat,
            ]
        );
    }

    #[test]
    fn string_escapes() {
        let toks = lex("'acct''g'").unwrap();
        assert_eq!(toks, vec![Token::Str("acct'g".into())]);
    }

    #[test]
    fn numbers() {
        assert_eq!(lex("42").unwrap(), vec![Token::Int(42)]);
        assert_eq!(lex("4.25").unwrap(), vec![Token::Float(4.25)]);
        // `1.` is Int then... dot not followed by digit stops the number
        let toks = lex("count(*)").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("count".into()),
                Token::LParen,
                Token::Star,
                Token::RParen
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = lex("SELECT -- the columns\n x").unwrap();
        assert_eq!(
            toks,
            vec![Token::Ident("SELECT".into()), Token::Ident("x".into())]
        );
    }

    #[test]
    fn errors() {
        assert!(lex("'unterminated").is_err());
        assert!(lex("a ! b").is_err());
        assert!(lex("a | b").is_err());
        assert!(lex("#").is_err());
    }

    #[test]
    fn dotted_identifiers() {
        let toks = lex("l.ticker r.price").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("l.ticker".into()),
                Token::Ident("r.price".into())
            ]
        );
    }
}
