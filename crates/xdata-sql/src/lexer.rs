//! SQL lexer.
//!
//! Produces a flat token stream with spans. Keywords are recognized
//! case-insensitively; identifiers are lower-cased (SQL folds unquoted
//! identifiers), string literals use single quotes with `''` escaping.

use crate::error::{ParseError, Span};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Keyword or identifier (lower-cased); parser decides which.
    Word(String),
    Int(i64),
    Float(f64),
    Str(String),
    /// `=, <>, !=, <, <=, >, >=`
    Op(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Semicolon,
    Eof,
}

/// Token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub tok: Tok,
    pub span: Span,
}

/// Tokenize `src` fully.
pub fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // SQL line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Token { tok: Tok::LParen, span: Span::new(start, i + 1) });
                i += 1;
            }
            ')' => {
                out.push(Token { tok: Tok::RParen, span: Span::new(start, i + 1) });
                i += 1;
            }
            ',' => {
                out.push(Token { tok: Tok::Comma, span: Span::new(start, i + 1) });
                i += 1;
            }
            '.' => {
                out.push(Token { tok: Tok::Dot, span: Span::new(start, i + 1) });
                i += 1;
            }
            '*' => {
                out.push(Token { tok: Tok::Star, span: Span::new(start, i + 1) });
                i += 1;
            }
            '+' => {
                out.push(Token { tok: Tok::Plus, span: Span::new(start, i + 1) });
                i += 1;
            }
            '-' => {
                out.push(Token { tok: Tok::Minus, span: Span::new(start, i + 1) });
                i += 1;
            }
            ';' => {
                out.push(Token { tok: Tok::Semicolon, span: Span::new(start, i + 1) });
                i += 1;
            }
            '=' => {
                out.push(Token { tok: Tok::Op("=".into()), span: Span::new(start, i + 1) });
                i += 1;
            }
            '<' => {
                i += 1;
                let op = if i < bytes.len() && bytes[i] == b'=' {
                    i += 1;
                    "<="
                } else if i < bytes.len() && bytes[i] == b'>' {
                    i += 1;
                    "<>"
                } else {
                    "<"
                };
                out.push(Token { tok: Tok::Op(op.into()), span: Span::new(start, i) });
            }
            '>' => {
                i += 1;
                let op = if i < bytes.len() && bytes[i] == b'=' {
                    i += 1;
                    ">="
                } else {
                    ">"
                };
                out.push(Token { tok: Tok::Op(op.into()), span: Span::new(start, i) });
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    i += 2;
                    out.push(Token { tok: Tok::Op("<>".into()), span: Span::new(start, i) });
                } else {
                    return Err(ParseError::new("unexpected `!`", Span::new(start, start + 1)));
                }
            }
            '\'' => {
                i += 1;
                let mut s = String::new();
                // Copy the text up to each quote whole, so a multi-byte
                // character stays one character; `''` is a quote.
                loop {
                    let Some(len) = src[i..].find('\'') else {
                        return Err(ParseError::new(
                            "unterminated string literal",
                            Span::new(start, bytes.len()),
                        ));
                    };
                    s.push_str(&src[i..i + len]);
                    i += len + 1;
                    if bytes.get(i) != Some(&b'\'') {
                        break;
                    }
                    s.push('\'');
                    i += 1;
                }
                out.push(Token { tok: Tok::Str(s), span: Span::new(start, i) });
            }
            '0'..='9' => {
                let mut end = i;
                let mut is_float = false;
                while end < bytes.len()
                    && (bytes[end].is_ascii_digit()
                        || (bytes[end] == b'.'
                            && end + 1 < bytes.len()
                            && bytes[end + 1].is_ascii_digit()
                            && !is_float))
                {
                    if bytes[end] == b'.' {
                        is_float = true;
                    }
                    end += 1;
                }
                let text = &src[i..end];
                let tok = if is_float {
                    Tok::Float(text.parse().map_err(|_| {
                        ParseError::new(format!("bad numeric literal `{text}`"), Span::new(i, end))
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|_| {
                        ParseError::new(format!("integer literal out of range `{text}`"), Span::new(i, end))
                    })?)
                };
                out.push(Token { tok, span: Span::new(i, end) });
                i = end;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut end = i;
                while end < bytes.len()
                    && ((bytes[end] as char).is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                out.push(Token {
                    tok: Tok::Word(src[i..end].to_ascii_lowercase()),
                    span: Span::new(i, end),
                });
                i = end;
            }
            _ => {
                let other = src[start..].chars().next().expect("a character starts here");
                return Err(ParseError::new(
                    format!("unexpected character `{other}`"),
                    Span::new(start, start + other.len_utf8()),
                ));
            }
        }
    }
    out.push(Token { tok: Tok::Eof, span: Span::new(src.len(), src.len()) });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn words_are_lowercased() {
        assert_eq!(
            toks("SELECT Foo"),
            vec![Tok::Word("select".into()), Tok::Word("foo".into()), Tok::Eof]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("= <> != < <= > >="),
            vec![
                Tok::Op("=".into()),
                Tok::Op("<>".into()),
                Tok::Op("<>".into()),
                Tok::Op("<".into()),
                Tok::Op("<=".into()),
                Tok::Op(">".into()),
                Tok::Op(">=".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers_and_floats() {
        assert_eq!(toks("42 3.5"), vec![Tok::Int(42), Tok::Float(3.5), Tok::Eof]);
    }

    #[test]
    fn string_with_escaped_quote() {
        assert_eq!(toks("'it''s'"), vec![Tok::Str("it's".into()), Tok::Eof]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("'oops").is_err());
        assert!(lex("'it''").is_err());
    }

    #[test]
    fn string_keeps_multibyte_characters() {
        assert_eq!(toks("'José'"), vec![Tok::Str("José".into()), Tok::Eof]);
        assert_eq!(toks("'日本''語'"), vec![Tok::Str("日本'語".into()), Tok::Eof]);
        let tokens = lex("'é' x").unwrap();
        assert_eq!(tokens[0].span, Span::new(0, 4));
        assert_eq!(tokens[1].span, Span::new(5, 6));
    }

    #[test]
    fn unexpected_character_is_named_decoded() {
        let err = lex("a é").unwrap_err();
        assert_eq!(err.message, "unexpected character `é`");
        assert_eq!(err.span, Span::new(2, 4));
        assert_eq!(lex("a #").unwrap_err().message, "unexpected character `#`");
    }

    #[test]
    fn punctuation_and_arith() {
        assert_eq!(
            toks("a.b, (x + 1) - 2 *"),
            vec![
                Tok::Word("a".into()),
                Tok::Dot,
                Tok::Word("b".into()),
                Tok::Comma,
                Tok::LParen,
                Tok::Word("x".into()),
                Tok::Plus,
                Tok::Int(1),
                Tok::RParen,
                Tok::Minus,
                Tok::Int(2),
                Tok::Star,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn line_comments_skipped() {
        assert_eq!(toks("a -- comment\n b"), vec![Tok::Word("a".into()), Tok::Word("b".into()), Tok::Eof]);
    }

    #[test]
    fn spans_track_positions() {
        let tokens = lex("ab cd").unwrap();
        assert_eq!(tokens[0].span, Span::new(0, 2));
        assert_eq!(tokens[1].span, Span::new(3, 5));
    }
}
