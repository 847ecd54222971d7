//! Tokenizer for the EXTRA-style statement language.
//!
//! Tokens borrow the statement text: an identifier, a variable name or a
//! string literal without escapes is a slice of it, so lexing allocates
//! only the token vector (and a string literal that has escapes).

use crate::LangError;
use std::borrow::Cow;

/// A lexical token, borrowing from the text it was lexed from.
#[derive(Clone, PartialEq, Debug)]
pub enum Token<'a> {
    /// Identifier or keyword (`define`, `Emp1`, `salary`…). Keywords are
    /// recognised case-insensitively by the parser.
    Ident(&'a str),
    /// `$name` — an interpreter variable holding an object reference.
    Var(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Double-quoted string literal (supports `\"`, `\\` and `\n`).
    Str(Cow<'a, str>),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `!=`
    Ne,
    /// `;`
    Semi,
}

/// Where the run of identifier characters starting at byte `from` ends.
fn ident_end(src: &str, from: usize) -> usize {
    src[from..]
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map_or(src.len(), |n| from + n)
}

/// The string literal whose opening quote is at byte `open`, unescaped,
/// and the byte just past its closing quote.
fn string_at(src: &str, open: usize) -> Result<(Cow<'_, str>, usize), LangError> {
    let body = open + 1;
    let unterminated = || LangError::Lex("unterminated string".into());
    let stop = src[body..].find(['"', '\\']).ok_or_else(unterminated)? + body;
    if src.as_bytes()[stop] == b'"' {
        return Ok((Cow::Borrowed(&src[body..stop]), stop + 1));
    }
    let mut s = String::from(&src[body..stop]);
    let mut chars = src[stop..].char_indices();
    while let Some((at, c)) = chars.next() {
        match c {
            '"' => return Ok((Cow::Owned(s), stop + at + 1)),
            '\\' => match chars.next() {
                Some((_, '"')) => s.push('"'),
                Some((_, '\\')) => s.push('\\'),
                Some((_, 'n')) => s.push('\n'),
                other => {
                    let other = other.map(|(_, c)| c);
                    return Err(LangError::Lex(format!("bad escape: \\{other:?}")));
                }
            },
            c => s.push(c),
        }
    }
    Err(unterminated())
}

/// The number literal starting at byte `start` (a digit, or `-` before
/// one), and the byte just past it. `_` separates digits.
fn number_at(src: &str, start: usize) -> Result<(Token<'_>, usize), LangError> {
    let b = src.as_bytes();
    let mut j = start + 1;
    let mut is_float = false;
    while j < b.len() {
        match b[j] {
            d if d.is_ascii_digit() => j += 1,
            b'.' if !is_float && b.get(j + 1).is_some_and(u8::is_ascii_digit) => {
                is_float = true;
                j += 1;
            }
            b'_' => j += 1,
            _ => break,
        }
    }
    let text = &src[start..j];
    let text: Cow<'_, str> = if text.contains('_') {
        Cow::Owned(text.replace('_', ""))
    } else {
        Cow::Borrowed(text)
    };
    let tok = if is_float {
        Token::Float(
            text.parse()
                .map_err(|e| LangError::Lex(format!("bad float {text:?}: {e}")))?,
        )
    } else {
        Token::Int(
            text.parse()
                .map_err(|e| LangError::Lex(format!("bad int {text:?}: {e}")))?,
        )
    };
    Ok((tok, j))
}

/// Tokenize one statement (or script). `--` starts a line comment.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LangError> {
    // Statements average about four bytes a token.
    let mut out = Vec::with_capacity(src.len() / 3 + 1);
    let mut i = 0;
    while let Some(c) = src[i..].chars().next() {
        let next = src[i + c.len_utf8()..].chars().next();
        let (tok, len) = match c {
            c if c.is_whitespace() => {
                i += c.len_utf8();
                continue;
            }
            '-' if next == Some('-') => {
                i = src[i..].find('\n').map_or(src.len(), |n| i + n);
                continue;
            }
            '(' => (Token::LParen, 1),
            ')' => (Token::RParen, 1),
            '{' => (Token::LBrace, 1),
            '}' => (Token::RBrace, 1),
            '[' => (Token::LBracket, 1),
            ']' => (Token::RBracket, 1),
            ',' => (Token::Comma, 1),
            ':' => (Token::Colon, 1),
            '.' => (Token::Dot, 1),
            ';' => (Token::Semi, 1),
            '=' => (Token::Eq, 1),
            '!' if next == Some('=') => (Token::Ne, 2),
            '<' if next == Some('=') => (Token::Le, 2),
            '<' => (Token::Lt, 1),
            '>' if next == Some('=') => (Token::Ge, 2),
            '>' => (Token::Gt, 1),
            '$' => {
                let end = ident_end(src, i + 1);
                if end == i + 1 {
                    return Err(LangError::Lex("empty variable name after '$'".into()));
                }
                (Token::Var(&src[i + 1..end]), end - i)
            }
            '"' => {
                let (s, end) = string_at(src, i)?;
                (Token::Str(s), end - i)
            }
            c if c.is_ascii_digit() || (c == '-' && next.is_some_and(|d| d.is_ascii_digit())) => {
                let (tok, end) = number_at(src, i)?;
                (tok, end - i)
            }
            c if c.is_alphabetic() || c == '_' => {
                let end = ident_end(src, i);
                (Token::Ident(&src[i..end]), end - i)
            }
            other => return Err(LangError::Lex(format!("unexpected character {other:?}"))),
        };
        out.push(tok);
        i += len;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_statement() {
        let toks = lex(r#"retrieve (Emp1.name) where Emp1.salary > 100_000 -- comment"#).unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("retrieve"),
                Token::LParen,
                Token::Ident("Emp1"),
                Token::Dot,
                Token::Ident("name"),
                Token::RParen,
                Token::Ident("where"),
                Token::Ident("Emp1"),
                Token::Dot,
                Token::Ident("salary"),
                Token::Gt,
                Token::Int(100_000),
            ]
        );
    }

    #[test]
    fn lex_strings_and_vars() {
        let toks = lex(r#"insert Dept (name = "Sho\"e", org = $acme)"#).unwrap();
        assert!(toks.contains(&Token::Str("Sho\"e".into())));
        assert!(toks.contains(&Token::Var("acme")));
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(lex("-5").unwrap(), vec![Token::Int(-5)]);
        assert_eq!(lex("2.5").unwrap(), vec![Token::Float(2.5)]);
        assert_eq!(lex("1_000").unwrap(), vec![Token::Int(1000)]);
    }

    #[test]
    fn lex_operators() {
        assert_eq!(
            lex("<= >= != < > =").unwrap(),
            vec![
                Token::Le,
                Token::Ge,
                Token::Ne,
                Token::Lt,
                Token::Gt,
                Token::Eq
            ]
        );
    }

    #[test]
    fn lex_errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("$").is_err());
        assert!(lex("#").is_err());
    }
}
