//! The `db_query` call sites of a compiled program.
//!
//! Applications build SQL by concatenation (`"… title = '" .
//! sql_escape(t) . "'"`), so what a query can touch is decided by the
//! literal text around its *holes*. [`sites`] walks a [`Program`] once and
//! returns every `db_query` argument as text parts and holes, with what
//! else a static reader of the file needs: its include targets, the
//! functions it calls and the variables it binds to sanitized values. The
//! shard router and the `warp-analyze` lints both read this one result;
//! neither looks at source text.

use crate::ast::{AssignTarget, BinOp, Expr, Program, Stmt};
use crate::value::Value;
use std::collections::BTreeSet;

/// A builtin whose result cannot break out of the SQL position it is
/// concatenated into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sanitizer {
    /// `sql_escape(x)`: quote doubling, safe inside a SQL string literal.
    SqlEscape,
    /// `int(x)`: numeric coercion.
    Int,
}

impl Sanitizer {
    fn of(callee: &str) -> Option<Sanitizer> {
        match callee {
            "sql_escape" => Some(Sanitizer::SqlEscape),
            "int" => Some(Sanitizer::Int),
            _ => None,
        }
    }
}

/// One operand of a query's concatenation chain.
#[derive(Debug, Clone, PartialEq)]
pub enum Part<'p> {
    /// Literal text (adjacent literals are merged; a numeric literal is the
    /// text concatenation makes of it).
    Text(String),
    /// A value only known at run time.
    Hole {
        /// The sanitizer call that is the whole operand, if one is.
        sanitizer: Option<Sanitizer>,
        /// The sanitizer's argument, or the operand itself without one.
        operand: &'p Expr,
    },
}

/// One `db_query(...)` call.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySite<'p> {
    /// 1-based source line of the `db_query` token.
    pub line: u32,
    /// The SQL argument as a concatenation chain: a single hole if the text
    /// is computed elsewhere, nothing if there is no argument.
    pub parts: Vec<Part<'p>>,
}

/// What [`sites`] finds in one program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sites<'p> {
    /// Every `db_query` call, in source order.
    pub queries: Vec<QuerySite<'p>>,
    /// The target of every `include`, `None` where it is not a string
    /// literal.
    pub includes: Vec<Option<&'p str>>,
    /// The name of every function called anywhere in the program, function
    /// bodies included.
    pub calls: BTreeSet<&'p str>,
    /// Variables some `let` binds to a value that passes through a
    /// sanitizer (`let n = int(param("n")) + 1;`).
    sanitized_vars: BTreeSet<&'p str>,
}

fn calls_sanitizer(expr: &Expr) -> bool {
    let mut found = false;
    expr.walk(&mut |e| {
        found |= matches!(e, Expr::Call { name, .. } if Sanitizer::of(name).is_some());
    });
    found
}

/// Finds the query sites, includes, calls and sanitized variables of
/// `program`. See the [module documentation](self).
pub fn sites(program: &Program) -> Sites<'_> {
    let mut found = Sites::default();
    found.stmts(&program.statements);
    found
}

impl<'p> Sites<'p> {
    /// True if nothing in the file lets `part` carry raw input into SQL: it
    /// is text, a sanitizer wraps it or is called inside it, or it calls
    /// nothing and reads only variables a `let` bound to sanitized values.
    /// Those are one flat set per file, so rebinding such a name to a raw
    /// value goes unnoticed.
    pub fn is_sanitized(&self, part: &Part<'_>) -> bool {
        let Part::Hole { sanitizer, operand } = part else {
            return true;
        };
        let (mut clean, mut sanitized) = (true, sanitizer.is_some());
        operand.walk(&mut |e| match e {
            Expr::Call { name, .. } => {
                clean = false;
                sanitized |= Sanitizer::of(name).is_some();
            }
            Expr::Var(name) => clean &= self.sanitized_vars.contains(name.as_str()),
            _ => {}
        });
        clean || sanitized
    }

    fn stmts(&mut self, stmts: &'p [Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Let { name, value } => {
                    if calls_sanitizer(value) {
                        self.sanitized_vars.insert(name);
                    }
                    self.expr(value);
                }
                Stmt::Assign { target, value } => {
                    if let AssignTarget::Index { indexes, .. } = target {
                        indexes.iter().for_each(|index| self.expr(index));
                    }
                    self.expr(value);
                }
                Stmt::Expr(value) | Stmt::Return(Some(value)) => self.expr(value),
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    self.expr(cond);
                    self.stmts(then_branch);
                    self.stmts(else_branch);
                }
                Stmt::While { cond, body }
                | Stmt::Foreach {
                    collection: cond,
                    body,
                    ..
                } => {
                    self.expr(cond);
                    self.stmts(body);
                }
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                } => {
                    self.stmts(std::slice::from_ref(init));
                    self.expr(cond);
                    self.stmts(std::slice::from_ref(step));
                    self.stmts(body);
                }
                Stmt::Include(target) => {
                    self.includes.push(match target {
                        Expr::Literal(Value::Str(file)) => Some(file),
                        _ => None,
                    });
                    self.expr(target);
                }
                Stmt::FnDef(def) => self.stmts(&def.body),
                Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
            }
        }
    }

    fn expr(&mut self, expr: &'p Expr) {
        expr.walk(&mut |e| {
            if let Expr::Call { name, args, line } = e {
                self.calls.insert(name);
                if &**name == "db_query" {
                    let mut parts = Vec::new();
                    if let Some(sql) = args.first() {
                        concat_chain(sql, &mut parts);
                    }
                    self.queries.push(QuerySite { line: *line, parts });
                }
            }
        });
    }
}

/// Appends the operands of the concatenation chain `expr` to `parts`.
fn concat_chain<'p>(expr: &'p Expr, parts: &mut Vec<Part<'p>>) {
    match expr {
        Expr::Binary {
            left,
            op: BinOp::Concat,
            right,
        } => {
            concat_chain(left, parts);
            concat_chain(right, parts);
        }
        Expr::Literal(v) => match parts.last_mut() {
            Some(Part::Text(text)) => text.push_str(&v.display_str()),
            _ => parts.push(Part::Text(v.to_display_string())),
        },
        Expr::Call { name, args, .. } if args.len() == 1 && Sanitizer::of(name).is_some() => {
            parts.push(Part::Hole {
                sanitizer: Sanitizer::of(name),
                operand: &args[0],
            });
        }
        operand => parts.push(Part::Hole {
            sanitizer: None,
            operand,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn a_query_argument_becomes_text_and_holes() {
        let program = parse_program(
            "echo(1);\nlet rows = db_query(\"SELECT a FROM t WHERE x = '\" . sql_escape(param(\"q.y(z\")) \
             . \"' AND n = \" . int(n) . \" AND m = \" . m . 2 . 1.5);",
        )
        .unwrap();
        let found = sites(&program);
        assert_eq!(found.queries.len(), 1);
        assert_eq!(found.queries[0].line, 2);
        let shown: Vec<String> = found.queries[0]
            .parts
            .iter()
            .map(|part| match part {
                Part::Text(text) => text.clone(),
                Part::Hole { sanitizer, operand } => format!("<{sanitizer:?} {operand}>"),
            })
            .collect();
        assert_eq!(
            shown,
            [
                "SELECT a FROM t WHERE x = '",
                "<Some(SqlEscape) param(\"q.y(z\")>",
                "' AND n = ",
                "<Some(Int) n>",
                " AND m = ",
                "<None m>",
                "21.5",
            ]
        );
        assert_eq!(
            found.calls.iter().copied().collect::<Vec<_>>(),
            ["db_query", "echo", "int", "param", "sql_escape"]
        );
    }

    #[test]
    fn only_real_calls_are_sites() {
        // Neither a string that mentions db_query nor a commented-out call.
        let program = parse_program(
            "echo(\"docs: call db_query(sql) to run SQL\"); // db_query(\"DROP TABLE t\");\n\
             /* db_query(\"x\") */ fn f() { return db_query(\"SELECT a FROM t\"); }\n\
             db_query(sql); db_query();",
        )
        .unwrap();
        let found = sites(&program);
        let lines: Vec<(u32, usize)> = found
            .queries
            .iter()
            .map(|site| (site.line, site.parts.len()))
            .collect();
        assert_eq!(lines, [(2, 1), (3, 1), (3, 0)]);
    }

    #[test]
    fn includes_and_sanitized_variables() {
        let program = parse_program(
            "include \"lib.wasl\"; include dir . \"/x.wasl\";\n\
             let n = int(param(\"n\")) + 1; let q = hint(param(\"q\")); let raw = param(\"r\");\n\
             if (n) { let e = sql_escape(raw); }\n\
             db_query(\"SELECT a FROM t WHERE a = \" . n . (n + 1) . e . q . raw . len(n) . int(raw) * 2);",
        )
        .unwrap();
        let found = sites(&program);
        assert_eq!(found.includes, [Some("lib.wasl"), None]);
        let holes: Vec<(String, bool)> = found.queries[0]
            .parts
            .iter()
            .filter_map(|part| match part {
                Part::Hole { operand, .. } => Some((operand.to_string(), found.is_sanitized(part))),
                Part::Text(_) => None,
            })
            .collect();
        assert_eq!(
            holes,
            [
                ("n".to_string(), true),
                ("n + 1".to_string(), true),
                ("e".to_string(), true),
                ("q".to_string(), false),
                ("raw".to_string(), false),
                ("len(n)".to_string(), false),
                ("int(raw) * 2".to_string(), true),
            ]
        );
    }
}
