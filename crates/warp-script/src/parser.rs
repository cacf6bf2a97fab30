//! Recursive-descent parser for WASL.

use crate::ast::{AssignTarget, BinOp, Expr, FnDef, Program, Stmt, UnOp};
use crate::error::{ScriptError, ScriptResult};
use crate::lexer::{tokenize, Token};
use crate::value::Value;
use std::sync::Arc;

/// Parses a complete WASL program.
///
/// # Examples
///
/// ```
/// let program = warp_script::parse_program("let x = 1; return x + 1;").unwrap();
/// assert_eq!(program.statements.len(), 2);
/// ```
pub fn parse_program(src: &str) -> ScriptResult<Program> {
    let (tokens, lines) = tokenize(src)?;
    let mut p = Parser {
        tokens,
        lines,
        pos: 0,
    };
    let mut statements = Vec::new();
    while p.pos < p.tokens.len() {
        statements.push(p.parse_stmt()?);
    }
    Ok(Program { statements })
}

struct Parser {
    tokens: Vec<Token>,
    /// The source line of each token.
    lines: Vec<u32>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, offset: usize) -> Option<&Token> {
        self.tokens.get(self.pos + offset)
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().map(|t| t.is_kw(kw)).unwrap_or(false)
    }

    fn peek_sym(&self, sym: &str) -> bool {
        self.peek().map(|t| t.is_sym(sym)).unwrap_or(false)
    }

    fn next(&mut self) -> ScriptResult<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| ScriptError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn accept_sym(&mut self, sym: &str) -> bool {
        if self.peek_sym(sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn accept_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> ScriptResult<()> {
        let t = self.next()?;
        if t.is_sym(sym) {
            Ok(())
        } else {
            Err(ScriptError::Parse(format!("expected {sym:?}, found {t:?}")))
        }
    }

    fn expect_ident(&mut self) -> ScriptResult<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(ScriptError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn parse_block(&mut self) -> ScriptResult<Vec<Stmt>> {
        self.expect_sym("{")?;
        let mut stmts = Vec::new();
        while !self.peek_sym("}") {
            if self.peek().is_none() {
                return Err(ScriptError::Parse("unterminated block".into()));
            }
            stmts.push(self.parse_stmt()?);
        }
        self.expect_sym("}")?;
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> ScriptResult<Stmt> {
        if self.accept_kw("fn") {
            let name = self.expect_ident()?;
            self.expect_sym("(")?;
            let mut params = Vec::new();
            if !self.peek_sym(")") {
                loop {
                    params.push(self.expect_ident()?);
                    if !self.accept_sym(",") {
                        break;
                    }
                }
            }
            self.expect_sym(")")?;
            let body = self.parse_block()?;
            return Ok(Stmt::FnDef(Arc::new(FnDef { name, params, body })));
        }
        if self.accept_kw("let") {
            let name = self.expect_ident()?;
            self.expect_sym("=")?;
            let value = self.parse_expr()?;
            self.expect_sym(";")?;
            return Ok(Stmt::Let { name, value });
        }
        if self.accept_kw("if") {
            self.expect_sym("(")?;
            let cond = self.parse_expr()?;
            self.expect_sym(")")?;
            let then_branch = self.parse_block()?;
            let else_branch = if self.accept_kw("else") {
                if self.peek_kw("if") {
                    vec![self.parse_stmt()?]
                } else {
                    self.parse_block()?
                }
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                cond,
                then_branch,
                else_branch,
            });
        }
        if self.accept_kw("while") {
            self.expect_sym("(")?;
            let cond = self.parse_expr()?;
            self.expect_sym(")")?;
            let body = self.parse_block()?;
            return Ok(Stmt::While { cond, body });
        }
        if self.accept_kw("for") {
            self.expect_sym("(")?;
            let init = Box::new(self.parse_simple_stmt()?);
            self.expect_sym(";")?;
            let cond = self.parse_expr()?;
            self.expect_sym(";")?;
            let step = Box::new(self.parse_simple_stmt()?);
            self.expect_sym(")")?;
            let body = self.parse_block()?;
            return Ok(Stmt::For {
                init,
                cond,
                step,
                body,
            });
        }
        if self.accept_kw("foreach") {
            self.expect_sym("(")?;
            let collection = self.parse_expr()?;
            if !self.accept_kw("as") {
                return Err(ScriptError::Parse("expected `as` in foreach".into()));
            }
            let first = self.expect_ident()?;
            let (key_var, value_var) = if self.accept_sym(":") {
                (Some(first), self.expect_ident()?)
            } else {
                (None, first)
            };
            self.expect_sym(")")?;
            let body = self.parse_block()?;
            return Ok(Stmt::Foreach {
                collection,
                key_var,
                value_var,
                body,
            });
        }
        if self.accept_kw("return") {
            if self.accept_sym(";") {
                return Ok(Stmt::Return(None));
            }
            let e = self.parse_expr()?;
            self.expect_sym(";")?;
            return Ok(Stmt::Return(Some(e)));
        }
        if self.accept_kw("break") {
            self.expect_sym(";")?;
            return Ok(Stmt::Break);
        }
        if self.accept_kw("continue") {
            self.expect_sym(";")?;
            return Ok(Stmt::Continue);
        }
        if self.accept_kw("include") {
            let e = self.parse_expr()?;
            self.expect_sym(";")?;
            return Ok(Stmt::Include(e));
        }
        let stmt = self.parse_simple_stmt()?;
        self.expect_sym(";")?;
        Ok(stmt)
    }

    /// A "simple" statement is an assignment or expression statement without
    /// the trailing semicolon (used in `for` headers).
    fn parse_simple_stmt(&mut self) -> ScriptResult<Stmt> {
        // Lookahead for `ident [indexes...] =` which is an assignment.
        if let Some(Token::Ident(name)) = self.peek().cloned() {
            if is_keyword(&name) {
                // Fall through to expression parsing for keywords used as
                // expressions (true/false/null handled there).
            } else if self.peek_at(1).map(|t| t.is_sym("=")).unwrap_or(false) {
                self.pos += 2;
                let value = self.parse_expr()?;
                return Ok(Stmt::Assign {
                    target: AssignTarget::Var(name),
                    value,
                });
            } else if self.peek_at(1).map(|t| t.is_sym("[")).unwrap_or(false) {
                // Could be an indexed assignment `a[i][j] = v` or an
                // expression like `a[i] . x`; scan ahead to find out.
                if let Some((indexes, consumed)) = self.try_parse_index_assignment_prefix()? {
                    self.pos += consumed;
                    let value = self.parse_expr()?;
                    return Ok(Stmt::Assign {
                        target: AssignTarget::Index {
                            base: name,
                            indexes,
                        },
                        value,
                    });
                }
            }
        }
        let e = self.parse_expr()?;
        Ok(Stmt::Expr(e))
    }

    /// If the upcoming tokens form `ident ("[" expr "]")+ "="`, parses the
    /// index chain and returns it together with the number of tokens consumed
    /// (including the ident and the `=`). Otherwise returns `None` and
    /// consumes nothing.
    fn try_parse_index_assignment_prefix(&mut self) -> ScriptResult<Option<(Vec<Expr>, usize)>> {
        let saved = self.pos;
        self.pos += 1; // Skip the identifier.
        let mut indexes = Vec::new();
        while self.accept_sym("[") {
            let idx = match self.parse_expr() {
                Ok(e) => e,
                Err(_) => {
                    self.pos = saved;
                    return Ok(None);
                }
            };
            if !self.accept_sym("]") {
                self.pos = saved;
                return Ok(None);
            }
            indexes.push(idx);
        }
        if indexes.is_empty() || !self.peek_sym("=") {
            self.pos = saved;
            return Ok(None);
        }
        self.pos += 1; // Consume `=`.
        let consumed = self.pos - saved;
        self.pos = saved;
        Ok(Some((indexes, consumed)))
    }

    // Precedence: binary operators by [`BinOp::spelling`] < unary < postfix < primary
    fn parse_expr(&mut self) -> ScriptResult<Expr> {
        self.parse_binary(0)
    }

    /// Parses a chain of binary operators that bind at `level` or tighter
    /// (precedence climbing; every operator groups to the left).
    fn parse_binary(&mut self, level: u8) -> ScriptResult<Expr> {
        let mut left = self.parse_unary()?;
        while let Some((op, binds)) = self.peek_binop().filter(|(_, binds)| *binds >= level) {
            self.pos += 1;
            let right = self.parse_binary(binds + 1)?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    /// The binary operator the next token spells, and how tightly it binds.
    fn peek_binop(&self) -> Option<(BinOp, u8)> {
        let Some(Token::Sym(sym)) = self.peek() else {
            return None;
        };
        BinOp::ALL.iter().find_map(|op| {
            let (spelling, binds) = op.spelling();
            (spelling == sym).then_some((*op, binds))
        })
    }

    fn parse_unary(&mut self) -> ScriptResult<Expr> {
        if self.accept_sym("!") {
            let operand = self.parse_unary()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                operand: Box::new(operand),
            });
        }
        if self.accept_sym("-") {
            let operand = self.parse_unary()?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                operand: Box::new(operand),
            });
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> ScriptResult<Expr> {
        let mut e = self.parse_primary()?;
        loop {
            if self.accept_sym("[") {
                let idx = self.parse_expr()?;
                self.expect_sym("]")?;
                e = Expr::Index {
                    base: Box::new(e),
                    index: Box::new(idx),
                };
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> ScriptResult<Expr> {
        if self.accept_sym("(") {
            let e = self.parse_expr()?;
            self.expect_sym(")")?;
            return Ok(e);
        }
        if self.accept_sym("[") {
            let mut items = Vec::new();
            if !self.peek_sym("]") {
                loop {
                    items.push(self.parse_expr()?);
                    if !self.accept_sym(",") {
                        break;
                    }
                }
            }
            self.expect_sym("]")?;
            return Ok(Expr::ArrayLit(items));
        }
        if self.accept_sym("{") {
            let mut pairs = Vec::new();
            if !self.peek_sym("}") {
                loop {
                    let k = self.parse_expr()?;
                    self.expect_sym(":")?;
                    let v = self.parse_expr()?;
                    pairs.push((k, v));
                    if !self.accept_sym(",") {
                        break;
                    }
                }
            }
            self.expect_sym("}")?;
            return Ok(Expr::MapLit(pairs));
        }
        let at = self.pos;
        match self.next()? {
            Token::Int(i) => Ok(Expr::Literal(Value::Int(i))),
            Token::Float(f) => Ok(Expr::Literal(Value::Float(f))),
            Token::Str(s) => Ok(Expr::Literal(Value::Str(s))),
            Token::Ident(name) => match name.as_str() {
                "null" => Ok(Expr::Literal(Value::Null)),
                "true" => Ok(Expr::Literal(Value::Bool(true))),
                "false" => Ok(Expr::Literal(Value::Bool(false))),
                _ => {
                    if self.accept_sym("(") {
                        let mut args = Vec::new();
                        if !self.peek_sym(")") {
                            loop {
                                args.push(self.parse_expr()?);
                                if !self.accept_sym(",") {
                                    break;
                                }
                            }
                        }
                        self.expect_sym(")")?;
                        Ok(Expr::Call {
                            name: name.into(),
                            args,
                            line: self.lines[at],
                        })
                    } else {
                        Ok(Expr::Var(name))
                    }
                }
            },
            other => Err(ScriptError::Parse(format!("unexpected token {other:?}"))),
        }
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "fn" | "let"
            | "if"
            | "else"
            | "while"
            | "for"
            | "foreach"
            | "as"
            | "return"
            | "break"
            | "continue"
            | "include"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_function_and_control_flow() {
        let p = parse_program(
            "fn f(a, b) { if (a > b) { return a; } else { return b; } } \
             let x = f(1, 2); while (x < 10) { x = x + 1; } return x;",
        )
        .unwrap();
        assert_eq!(p.statements.len(), 4);
        assert!(matches!(p.statements[0], Stmt::FnDef(_)));
    }

    #[test]
    fn parses_for_and_foreach() {
        let p = parse_program(
            "let total = 0; for (i = 0; i < 5; i = i + 1) { total = total + i; } \
             foreach ([1,2,3] as v) { total = total + v; } \
             foreach ({\"a\": 1} as k : v) { total = total + v; }",
        )
        .unwrap();
        assert_eq!(p.statements.len(), 4);
        match &p.statements[3] {
            Stmt::Foreach { key_var, .. } => assert_eq!(key_var.as_deref(), Some("k")),
            other => panic!("expected foreach, got {other:?}"),
        }
    }

    #[test]
    fn parses_indexed_assignment() {
        let p = parse_program("m[\"key\"] = 1; a[0][1] = 2;").unwrap();
        match &p.statements[0] {
            Stmt::Assign {
                target: AssignTarget::Index { base, indexes },
                ..
            } => {
                assert_eq!(base, "m");
                assert_eq!(indexes.len(), 1);
            }
            other => panic!("expected indexed assign, got {other:?}"),
        }
        match &p.statements[1] {
            Stmt::Assign {
                target: AssignTarget::Index { indexes, .. },
                ..
            } => {
                assert_eq!(indexes.len(), 2);
            }
            other => panic!("expected indexed assign, got {other:?}"),
        }
    }

    #[test]
    fn index_expression_without_assignment_is_an_expr() {
        let p = parse_program("echo(a[0] . b[\"k\"]);").unwrap();
        assert!(matches!(p.statements[0], Stmt::Expr(_)));
    }

    #[test]
    fn parses_map_and_array_literals() {
        let p = parse_program("let m = {\"a\": [1, 2], \"b\": {\"c\": 3}};").unwrap();
        match &p.statements[0] {
            Stmt::Let {
                value: Expr::MapLit(pairs),
                ..
            } => assert_eq!(pairs.len(), 2),
            other => panic!("expected map literal, got {other:?}"),
        }
    }

    #[test]
    fn parses_else_if_chain() {
        let p = parse_program(
            "if (a == 1) { echo(\"1\"); } else if (a == 2) { echo(\"2\"); } else { echo(\"x\"); }",
        )
        .unwrap();
        match &p.statements[0] {
            Stmt::If { else_branch, .. } => {
                assert_eq!(else_branch.len(), 1);
                assert!(matches!(else_branch[0], Stmt::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_include() {
        let p = parse_program("include \"header.wasl\";").unwrap();
        assert!(matches!(p.statements[0], Stmt::Include(_)));
    }

    #[test]
    fn concat_binds_tighter_than_comparison() {
        let p = parse_program("let x = a . b == c;").unwrap();
        match &p.statements[0] {
            Stmt::Let {
                value: Expr::Binary { op: BinOp::Eq, .. },
                ..
            } => {}
            other => panic!("expected == at top, got {other:?}"),
        }
    }

    #[test]
    fn every_precedence_level_nests_and_groups_to_the_left() {
        /// The expression with every operation parenthesised.
        fn grouped(e: &Expr) -> String {
            match e {
                Expr::Binary { left, op, right } => {
                    format!("({} {} {})", grouped(left), op.spelling().0, grouped(right))
                }
                Expr::Unary { operand, .. } => format!("(-{})", grouped(operand)),
                other => other.to_string(),
            }
        }
        for (src, tree) in [
            (
                "a || b && c == d < e . f + g * -h",
                "(a || (b && (c == (d < (e . (f + (g * (-h))))))))",
            ),
            (
                "a * b + c . d > e != f && g || h",
                "(((((((a * b) + c) . d) > e) != f) && g) || h)",
            ),
            ("a - b - c + d", "(((a - b) - c) + d)"),
            ("a / b % c * d", "(((a / b) % c) * d)"),
            ("a <= b >= c", "((a <= b) >= c)"),
            ("a . b . (c . d)", "((a . b) . (c . d))"),
        ] {
            let p = parse_program(&format!("return {src};")).unwrap();
            let Stmt::Return(Some(e)) = &p.statements[0] else {
                panic!("{src}");
            };
            assert_eq!(grouped(e), tree, "{src}");
        }
    }

    #[test]
    fn rejects_bad_programs() {
        assert!(parse_program("let = 3;").is_err());
        assert!(parse_program("if (x { }").is_err());
        assert!(parse_program("fn f( { }").is_err());
        assert!(parse_program("return 1").is_err());
    }
}
