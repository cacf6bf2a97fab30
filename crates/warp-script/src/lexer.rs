//! WASL tokenizer.

use crate::error::{ScriptError, ScriptResult};

/// A WASL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword.
    Ident(String),
    /// String literal with escapes resolved.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Operator or punctuation.
    Sym(String),
}

impl Token {
    /// True if this token is the given keyword.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s == kw)
    }

    /// True if this token is the given symbol.
    pub fn is_sym(&self, sym: &str) -> bool {
        matches!(self, Token::Sym(s) if s == sym)
    }
}

/// Tokenizes WASL source: the tokens, and the 1-based source line each
/// starts on.
///
/// Strings are double-quoted with `\"`, `\\`, `\n`, `\t` escapes. Comments
/// are `//` to end of line and `/* ... */` blocks.
pub fn tokenize(src: &str) -> ScriptResult<(Vec<Token>, Vec<u32>)> {
    let chars: Vec<char> = src.chars().collect();
    let mut tokens: Vec<(Token, u32)> = Vec::new();
    let mut line = 1;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            line += u32::from(c == '\n');
            i += 1;
            continue;
        }
        if c == '/' && i + 1 < chars.len() && chars[i + 1] == '/' {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
            i += 2;
            while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                line += u32::from(chars[i] == '\n');
                i += 1;
            }
            if i + 1 >= chars.len() {
                return Err(ScriptError::Lex("unterminated block comment".into()));
            }
            i += 2;
            continue;
        }
        if c == '"' {
            let mut s = String::new();
            let start_line = line;
            i += 1;
            loop {
                if i >= chars.len() {
                    return Err(ScriptError::Lex("unterminated string".into()));
                }
                match chars[i] {
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\\' => {
                        if i + 1 >= chars.len() {
                            return Err(ScriptError::Lex("dangling escape".into()));
                        }
                        let e = chars[i + 1];
                        line += u32::from(e == '\n');
                        s.push(match e {
                            'n' => '\n',
                            't' => '\t',
                            'r' => '\r',
                            '"' => '"',
                            '\\' => '\\',
                            other => other,
                        });
                        i += 2;
                    }
                    other => {
                        line += u32::from(other == '\n');
                        s.push(other);
                        i += 1;
                    }
                }
            }
            tokens.push((Token::Str(s), start_line));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < chars.len() && chars[i].is_ascii_digit() {
                i += 1;
            }
            if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                is_float = true;
                i += 1;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
            }
            let text: String = chars[start..i].iter().collect();
            if is_float {
                let f = text
                    .parse()
                    .map_err(|_| ScriptError::Lex(format!("bad float literal {text}")))?;
                tokens.push((Token::Float(f), line));
            } else {
                let n = text
                    .parse()
                    .map_err(|_| ScriptError::Lex(format!("bad int literal {text}")))?;
                tokens.push((Token::Int(n), line));
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' || c == '$' {
            let start = i;
            i += 1;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            // A leading `$` (PHP habit) is tolerated and stripped.
            tokens.push((Token::Ident(text.trim_start_matches('$').to_string()), line));
            continue;
        }
        let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
        if ["==", "!=", "<=", ">=", "&&", "||"].contains(&two.as_str()) {
            tokens.push((Token::Sym(two), line));
            i += 2;
            continue;
        }
        if "(){}[],;=<>+-*/%.!:".contains(c) {
            tokens.push((Token::Sym(c.to_string()), line));
            i += 1;
            continue;
        }
        return Err(ScriptError::Lex(format!("unexpected character {c:?}")));
    }
    Ok(tokens.into_iter().unzip())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_code_with_comments_and_strings() {
        let toks = tokenize(
            "// line comment\nlet x = \"a\\\"b\\n\"; /* block */ if (x != 2.5) { echo(x); }",
        )
        .unwrap()
        .0;
        assert!(toks
            .iter()
            .any(|t| matches!(t, Token::Str(s) if s == "a\"b\n")));
        assert!(toks
            .iter()
            .any(|t| matches!(t, Token::Float(f) if (*f - 2.5).abs() < 1e-9)));
        assert!(toks.iter().any(|t| t.is_sym("!=")));
        assert!(!toks.iter().any(|t| t.is_kw("comment")));
    }

    #[test]
    fn strips_php_style_dollar() {
        let toks = tokenize("$user = 1;").unwrap().0;
        assert!(toks[0].is_kw("user"));
    }

    #[test]
    fn dot_is_a_symbol_not_part_of_floats_without_digits() {
        let toks = tokenize("a . b . 1.5").unwrap().0;
        let syms = toks.iter().filter(|t| t.is_sym(".")).count();
        assert_eq!(syms, 2);
    }

    #[test]
    fn rejects_unterminated_string_and_comment() {
        assert!(tokenize("\"abc").is_err());
        assert!(tokenize("/* abc").is_err());
    }

    #[test]
    fn two_char_operators() {
        let toks = tokenize("a && b || c == d >= e").unwrap().0;
        assert!(toks.iter().any(|t| t.is_sym("&&")));
        assert!(toks.iter().any(|t| t.is_sym("||")));
        assert!(toks.iter().any(|t| t.is_sym("==")));
        assert!(toks.iter().any(|t| t.is_sym(">=")));
    }
}
