//! MiniProg lexer: hand-written, line-tracking.

/// Token kinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// String literal (assert labels).
    Str(String),
    /// A punctuation/operator token, e.g. `"{"`, `"=="`, `"&&"`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

/// A token with its source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based line.
    pub line: u32,
}

/// A lexing failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// 1-based line.
    pub line: u32,
    /// Message.
    pub msg: String,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lex error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for LexError {}

const PUNCTS2: &[&str] = &["==", "!=", "<=", ">=", "&&", "||"];
const PUNCTS1: &[&str] = &[
    "{", "}", "(", ")", ";", ",", "=", "<", ">", "+", "-", "*", "/", "%", "!", ":",
];

/// Tokenize MiniProg source.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comments.
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            out.push(Token {
                tok: Tok::Ident(src[start..i].to_string()),
                line,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let text = &src[start..i];
            let n: i64 = text.parse().map_err(|_| LexError {
                line,
                msg: format!("integer literal `{text}` out of range"),
            })?;
            out.push(Token {
                tok: Tok::Int(n),
                line,
            });
            continue;
        }
        if c == '"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] != b'"' {
                if bytes[j] == b'\n' {
                    return Err(LexError {
                        line,
                        msg: "unterminated string literal".into(),
                    });
                }
                j += 1;
            }
            if j >= bytes.len() {
                return Err(LexError {
                    line,
                    msg: "unterminated string literal".into(),
                });
            }
            out.push(Token {
                tok: Tok::Str(src[start..j].to_string()),
                line,
            });
            i = j + 1;
            continue;
        }
        // Punctuation, two-char first. Compared on bytes: `i` may start a
        // multibyte character, which slicing `src` there would split.
        if let Some(p) = PUNCTS2
            .iter()
            .chain(PUNCTS1)
            .find(|p| bytes[i..].starts_with(p.as_bytes()))
        {
            out.push(Token {
                tok: Tok::Punct(p),
                line,
            });
            i += p.len();
            continue;
        }
        let c = src[i..]
            .chars()
            .next()
            .expect("i is a char boundary below len");
        return Err(LexError {
            line,
            msg: format!("unexpected character `{c}`"),
        });
    }
    out.push(Token {
        tok: Tok::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("x = 42;"),
            vec![
                Tok::Ident("x".into()),
                Tok::Punct("="),
                Tok::Int(42),
                Tok::Punct(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn two_char_operators_win() {
        assert_eq!(
            toks("a==b<=c&&!d"),
            vec![
                Tok::Ident("a".into()),
                Tok::Punct("=="),
                Tok::Ident("b".into()),
                Tok::Punct("<="),
                Tok::Ident("c".into()),
                Tok::Punct("&&"),
                Tok::Punct("!"),
                Tok::Ident("d".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_and_lines() {
        let ts = lex("a // comment\nb").unwrap();
        assert_eq!(ts[0].line, 1);
        assert_eq!(ts[1].line, 2);
        assert_eq!(ts[1].tok, Tok::Ident("b".into()));
    }

    #[test]
    fn string_literals() {
        assert_eq!(
            toks("assert x : \"my label\";"),
            vec![
                Tok::Ident("assert".into()),
                Tok::Ident("x".into()),
                Tok::Punct(":"),
                Tok::Str("my label".into()),
                Tok::Punct(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("\"oops").is_err());
        assert!(lex("\"oops\nmore\"").is_err());
    }

    #[test]
    fn unexpected_char_reports_line() {
        let e = lex("a\nb\n@").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains('@'));
    }

    #[test]
    fn non_ascii_character_is_an_error_not_a_panic() {
        // Two-, three- and four-byte characters, alone and before `=`.
        for c in ['é', '€', '𝄞'] {
            for src in [format!("x = 1;\n{c}"), format!("{c}="), format!("a {c}")] {
                let e = lex(&src).unwrap_err();
                assert_eq!(e.msg, format!("unexpected character `{c}`"), "{src:?}");
            }
        }
        // In comments and string literals they are fine.
        assert!(lex("// café\nassert x : \"naïve €\";").is_ok());
    }
}
