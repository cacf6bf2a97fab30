//! SQL tokenizer, and the statement *shape* it derives in the same pass.
//!
//! One scanner (`Lexer`) walks the bytes of the input and yields borrowed
//! lexemes. [`tokenize`] collects them into owned [`Token`]s for the parser;
//! [`prepare`] folds them into a statement's shape — the token sequence
//! with every literal in expression position replaced by a typed hole — and
//! the vector of literals taken out. Which literals are holes is decided in
//! one place (`HoleRule`), which the parser's template mode consults too,
//! so a shape and the statement template parsed for it agree by
//! construction.

use crate::error::{SqlError, SqlResult};
use crate::value::Value;
use std::borrow::Cow;
use std::fmt::Write;

/// A single SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Bare identifier or keyword (keywords are matched case-insensitively
    /// by the parser; the original spelling is preserved here).
    Ident(String),
    /// Quoted string literal with escapes already resolved.
    StringLit(String),
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// A punctuation or operator symbol such as `(`, `,`, `=`, `<=`, `||`.
    Symbol(&'static str),
}

impl Token {
    /// Returns the identifier text if this token is an identifier.
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            Token::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True if this token is the given keyword (case-insensitive).
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// True if this token is the given symbol.
    pub fn is_symbol(&self, sym: &str) -> bool {
        matches!(self, Token::Symbol(s) if *s == sym)
    }
}

/// One lexeme, borrowing from the input wherever its text is a slice of it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Lexeme<'a> {
    /// A bare identifier or keyword.
    Ident(&'a str),
    /// A double-quoted identifier (its content).
    QuotedIdent(&'a str),
    /// A string literal; owned only if it held a `''` escape.
    Str(Cow<'a, str>),
    Int(i64),
    Float(f64),
    Symbol(&'static str),
}

impl Lexeme<'_> {
    fn into_token(self) -> Token {
        match self {
            Lexeme::Ident(s) | Lexeme::QuotedIdent(s) => Token::Ident(s.to_string()),
            Lexeme::Str(s) => Token::StringLit(s.into_owned()),
            Lexeme::Int(i) => Token::IntLit(i),
            Lexeme::Float(f) => Token::FloatLit(f),
            Lexeme::Symbol(s) => Token::Symbol(s),
        }
    }
}

const TWO_CHAR_SYMBOLS: [&str; 5] = ["<=", ">=", "<>", "!=", "||"];
const ONE_CHAR_SYMBOLS: [&str; 12] = ["(", ")", ",", "=", "<", ">", "*", "+", "-", "/", ".", ";"];

/// The scanner. String literals use single quotes with `''` as the escape
/// for a literal quote. Identifiers may be double-quoted to preserve case
/// or include reserved words. Line comments (`--`) are skipped.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    /// The next lexeme, or `None` at the end of the input.
    pub(crate) fn next_lexeme(&mut self) -> SqlResult<Option<Lexeme<'a>>> {
        let bytes = self.src.as_bytes();
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return Ok(None);
            };
            if b.is_ascii_whitespace() || b == 0x0b {
                self.pos += 1;
            } else if b == b'-' && bytes.get(self.pos + 1) == Some(&b'-') {
                while bytes.get(self.pos).is_some_and(|&c| c != b'\n') {
                    self.pos += 1;
                }
            } else if b >= 0x80 {
                // Whitespace outside ASCII is skipped too; any other
                // non-ASCII character is rejected below.
                let c = self.src[self.pos..].chars().next().expect("in bounds");
                if !c.is_whitespace() {
                    break;
                }
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        let start = self.pos;
        let b = bytes[start];
        if b == b'\'' {
            return self.string_literal().map(Some);
        }
        if b == b'"' {
            let body = &self.src[start + 1..];
            let Some(len) = body.find('"') else {
                return Err(SqlError::Lex("unterminated quoted identifier".into()));
            };
            self.pos = start + len + 2;
            return Ok(Some(Lexeme::QuotedIdent(&body[..len])));
        }
        if b.is_ascii_digit() {
            return self.number().map(Some);
        }
        if b.is_ascii_alphabetic() || b == b'_' {
            while bytes
                .get(self.pos)
                .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
            {
                self.pos += 1;
            }
            return Ok(Some(Lexeme::Ident(&self.src[start..self.pos])));
        }
        // Multi-character operators first.
        let rest = &bytes[start..];
        for sym in TWO_CHAR_SYMBOLS {
            if rest.starts_with(sym.as_bytes()) {
                self.pos += 2;
                return Ok(Some(Lexeme::Symbol(sym)));
            }
        }
        for sym in ONE_CHAR_SYMBOLS {
            if rest[0] == sym.as_bytes()[0] {
                self.pos += 1;
                return Ok(Some(Lexeme::Symbol(sym)));
            }
        }
        let c = self.src[start..].chars().next().expect("in bounds");
        Err(SqlError::Lex(format!("unexpected character: {c:?}")))
    }

    /// Scans a string literal starting at the opening quote.
    fn string_literal(&mut self) -> SqlResult<Lexeme<'a>> {
        let bytes = self.src.as_bytes();
        let mut from = self.pos + 1;
        // Built only once a `''` escape shows the literal is not a slice.
        let mut unescaped: Option<String> = None;
        loop {
            let Some(len) = self.src[from..].find('\'') else {
                return Err(SqlError::Lex("unterminated string literal".into()));
            };
            let quote = from + len;
            if bytes.get(quote + 1) == Some(&b'\'') {
                unescaped
                    .get_or_insert_with(String::new)
                    .push_str(&self.src[from..=quote]);
                from = quote + 2;
                continue;
            }
            let tail = &self.src[from..quote];
            self.pos = quote + 1;
            return Ok(Lexeme::Str(match unescaped {
                Some(mut s) => {
                    s.push_str(tail);
                    Cow::Owned(s)
                }
                None => Cow::Borrowed(tail),
            }));
        }
    }

    /// Scans an integer or float literal starting at its first digit.
    fn number(&mut self) -> SqlResult<Lexeme<'a>> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let mut is_float = false;
        while let Some(&c) = bytes.get(self.pos) {
            if c == b'.' {
                // `1..2` is not a float; only consume a single dot followed by a digit.
                let digit_follows = bytes.get(self.pos + 1).is_some_and(u8::is_ascii_digit);
                if is_float || !digit_follows {
                    break;
                }
                is_float = true;
            } else if !c.is_ascii_digit() {
                break;
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse()
                .map(Lexeme::Float)
                .map_err(|_| SqlError::Lex(format!("bad float literal: {text}")))
        } else {
            text.parse()
                .map(Lexeme::Int)
                .map_err(|_| SqlError::Lex(format!("bad integer literal: {text}")))
        }
    }
}

/// Tokenizes a SQL string.
///
/// String literals use single quotes with `''` as the escape for a literal
/// quote. Identifiers may be double-quoted to preserve case or include
/// reserved words. Line comments (`--`) are skipped.
pub fn tokenize(input: &str) -> SqlResult<Vec<Token>> {
    let mut lexer = Lexer::new(input);
    let mut tokens = Vec::new();
    while let Some(lexeme) = lexer.next_lexeme()? {
        tokens.push(lexeme.into_token());
    }
    Ok(tokens)
}

/// Decides, lexeme by lexeme, which literals of a statement are holes:
/// every string, integer and float literal of a `SELECT`, `INSERT`,
/// `UPDATE` or `DELETE`, except the count after `LIMIT` (the parser consumes
/// that one as syntax). The literals of any other statement stay in its
/// shape.
#[derive(Default)]
pub(crate) struct HoleRule {
    /// Whether the statement's first lexeme is a DML keyword; `None` until
    /// that lexeme is seen.
    dml: Option<bool>,
    after_limit: bool,
}

impl HoleRule {
    /// Feeds the next lexeme; true if it is a literal that becomes a hole.
    pub(crate) fn is_hole(&mut self, lexeme: &Lexeme<'_>) -> bool {
        // The parser takes a quoted identifier for a keyword as readily as
        // a bare one, so the rule does too.
        let keyword = match lexeme {
            Lexeme::Ident(s) | Lexeme::QuotedIdent(s) => Some(*s),
            _ => None,
        };
        let dml = *self.dml.get_or_insert_with(|| {
            keyword.is_some_and(|kw| {
                ["select", "insert", "update", "delete"]
                    .iter()
                    .any(|dml| kw.eq_ignore_ascii_case(dml))
            })
        });
        let after_limit = std::mem::replace(
            &mut self.after_limit,
            keyword.is_some_and(|kw| kw.eq_ignore_ascii_case("limit")),
        );
        let literal = matches!(lexeme, Lexeme::Str(_) | Lexeme::Int(_) | Lexeme::Float(_));
        literal && dml && !after_limit
    }
}

/// Tokenizes `input` for a template parse: the tokens, and for each the
/// index of the hole it is, if it is one (see [`HoleRule`]).
pub(crate) fn tokenize_template(input: &str) -> SqlResult<(Vec<Token>, Vec<Option<usize>>)> {
    let mut lexer = Lexer::new(input);
    let mut rule = HoleRule::default();
    let (mut tokens, mut holes) = (Vec::new(), Vec::new());
    let mut next_hole = 0;
    while let Some(lexeme) = lexer.next_lexeme()? {
        holes.push(rule.is_hole(&lexeme).then(|| {
            next_hole += 1;
            next_hole - 1
        }));
        tokens.push(lexeme.into_token());
    }
    Ok((tokens, holes))
}

/// What [`prepare`] makes of a statement's text.
#[derive(Debug, Clone, PartialEq)]
pub struct Prepared {
    /// The statement's shape: its tokens rendered canonically, one space
    /// apart, with `?s` / `?i` / `?f` standing for a string, integer or
    /// float hole. Two texts with equal shapes parse to the same statement
    /// template ([`crate::parse_template`]); identifier spelling is kept,
    /// whitespace and comments are not.
    pub shape: String,
    /// The literals taken out of the text, in hole order.
    pub params: Vec<Value>,
}

/// Scans a statement's text once and splits it into its shape and its
/// literals, without parsing it. Fails only where [`tokenize`] fails, with
/// the same error.
///
/// # Examples
///
/// ```
/// let a = warp_sql::prepare("SELECT body FROM page WHERE title = 'Main' LIMIT 1").unwrap();
/// let b = warp_sql::prepare("SELECT body FROM page WHERE title = 'It''s' LIMIT 1").unwrap();
/// assert_eq!(a.shape, "SELECT body FROM page WHERE title = ?s LIMIT 1");
/// assert_eq!(a.shape, b.shape);
/// assert_eq!(b.params, vec![warp_sql::Value::text("It's")]);
/// ```
pub fn prepare(sql: &str) -> SqlResult<Prepared> {
    let mut lexer = Lexer::new(sql);
    let mut rule = HoleRule::default();
    let mut shape = String::with_capacity(sql.len());
    let mut params = Vec::new();
    while let Some(lexeme) = lexer.next_lexeme()? {
        if !shape.is_empty() {
            shape.push(' ');
        }
        let hole = rule.is_hole(&lexeme);
        match lexeme {
            Lexeme::Ident(s) => shape.push_str(s),
            // Its content cannot hold a double quote, so the quotes frame it.
            Lexeme::QuotedIdent(s) => {
                shape.push('"');
                shape.push_str(s);
                shape.push('"');
            }
            Lexeme::Symbol(s) => shape.push_str(s),
            Lexeme::Str(s) if hole => {
                shape.push_str("?s");
                params.push(Value::Text(s.into_owned()));
            }
            Lexeme::Int(i) if hole => {
                shape.push_str("?i");
                params.push(Value::Int(i));
            }
            Lexeme::Float(f) if hole => {
                shape.push_str("?f");
                params.push(Value::Float(f));
            }
            Lexeme::Str(s) => {
                shape.push('\'');
                shape.push_str(&s.replace('\'', "''"));
                shape.push('\'');
            }
            Lexeme::Int(i) => write!(shape, "{i}").expect("writing to a String"),
            // By its bits: `{}` would render 1.0 and 1 alike.
            Lexeme::Float(f) => {
                write!(shape, "f{:016x}", f.to_bits()).expect("writing to a String")
            }
        }
    }
    Ok(Prepared { shape, params })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_basic_select() {
        let toks = tokenize("SELECT a, b FROM t WHERE a = 'x''y' AND b >= 4.5").unwrap();
        assert!(toks[0].is_keyword("select"));
        assert!(toks
            .iter()
            .any(|t| matches!(t, Token::StringLit(s) if s == "x'y")));
        assert!(toks
            .iter()
            .any(|t| matches!(t, Token::FloatLit(f) if (*f - 4.5).abs() < 1e-9)));
        assert!(toks.iter().any(|t| t.is_symbol(">=")));
    }

    #[test]
    fn tokenizes_operators_and_comments() {
        let toks = tokenize("a || b -- comment\n , c <> d").unwrap();
        assert!(toks.iter().any(|t| t.is_symbol("||")));
        assert!(toks.iter().any(|t| t.is_symbol("<>")));
        assert!(!toks.iter().any(|t| t.is_keyword("comment")));
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(matches!(tokenize("SELECT 'abc"), Err(SqlError::Lex(_))));
    }

    #[test]
    fn quoted_identifiers() {
        let toks = tokenize("SELECT \"Select\" FROM t").unwrap();
        assert_eq!(toks[1], Token::Ident("Select".into()));
    }

    #[test]
    fn integer_vs_float() {
        let toks = tokenize("1 2.5 3").unwrap();
        assert_eq!(
            toks,
            vec![Token::IntLit(1), Token::FloatLit(2.5), Token::IntLit(3)]
        );
    }

    #[test]
    fn shape_replaces_dml_literals_with_typed_holes() {
        let p =
            prepare("SELECT a FROM t WHERE a = 'x' AND b >= 4.5 AND c IN (1, -2) LIMIT 3").unwrap();
        assert_eq!(
            p.shape,
            "SELECT a FROM t WHERE a = ?s AND b >= ?f AND c IN ( ?i , - ?i ) LIMIT 3"
        );
        assert_eq!(
            p.params,
            vec![
                Value::text("x"),
                Value::Float(4.5),
                Value::Int(1),
                Value::Int(2)
            ]
        );
        // The LIMIT count is syntax: a different count is a different shape.
        let q =
            prepare("SELECT a FROM t WHERE a = 'y' AND b >= 0.5 AND c IN (7, -8) LIMIT 4").unwrap();
        assert_ne!(p.shape, q.shape);
        assert_eq!(p.shape.replace("LIMIT 3", "LIMIT 4"), q.shape);
    }

    #[test]
    fn shape_ignores_layout_and_keeps_spelling() {
        let a = prepare("select  Title from Page -- trailing\n where id=1").unwrap();
        let b = prepare("select Title from Page where id = 2").unwrap();
        assert_eq!(a.shape, b.shape);
        let c = prepare("SELECT title FROM page WHERE id = 2").unwrap();
        assert_ne!(b.shape, c.shape);
        // A quoted identifier is not the bare word, nor a string.
        let d = prepare("select \"Title\" from Page where id = 2").unwrap();
        assert_ne!(b.shape, d.shape);
    }

    #[test]
    fn literal_kinds_and_list_lengths_are_different_shapes() {
        let shape = |sql: &str| prepare(sql).unwrap().shape;
        assert_ne!(
            shape("SELECT * FROM t WHERE a = 1"),
            shape("SELECT * FROM t WHERE a = 1.0")
        );
        assert_ne!(
            shape("SELECT * FROM t WHERE a = 1"),
            shape("SELECT * FROM t WHERE a = '1'")
        );
        assert_ne!(
            shape("SELECT * FROM t WHERE a IN (1, 2)"),
            shape("SELECT * FROM t WHERE a IN (1, 2, 3)")
        );
        assert_ne!(
            shape("SELECT * FROM t WHERE a = 1"),
            shape("SELECT * FROM t WHERE a = -1")
        );
        // An injected tautology is its own shape, not a parameter.
        assert_ne!(
            shape("SELECT * FROM t WHERE title = 'zzz'"),
            shape("SELECT * FROM t WHERE title = 'zzz' OR title LIKE '%'")
        );
    }

    #[test]
    fn a_quoted_keyword_counts_as_the_keyword_it_parses_as() {
        let p = prepare("\"select\" a from t where a = 1 order by a \"limit\" 5").unwrap();
        assert_eq!(p.params, vec![Value::Int(1)]);
        assert!(p.shape.ends_with("\"limit\" 5"), "{}", p.shape);
    }

    #[test]
    fn other_statements_keep_their_literals() {
        let p = prepare(
            "CREATE TABLE t (a INTEGER DEFAULT 1, b TEXT DEFAULT 'it''s', c REAL DEFAULT 1.5)",
        )
        .unwrap();
        assert!(p.params.is_empty());
        assert!(p.shape.contains("DEFAULT 1 ,"));
        assert!(p.shape.contains("DEFAULT 'it''s'"));
        let q = prepare(
            "CREATE TABLE t (a INTEGER DEFAULT 2, b TEXT DEFAULT 'it''s', c REAL DEFAULT 1.5)",
        )
        .unwrap();
        assert_ne!(p.shape, q.shape);
    }

    #[test]
    fn prepare_fails_exactly_where_tokenize_does() {
        for bad in [
            "SELECT 'abc",
            "SELECT \"abc",
            "SELECT a # b",
            "SELECT 99999999999999999999",
        ] {
            assert_eq!(prepare(bad).unwrap_err(), tokenize(bad).unwrap_err());
        }
    }
}
