//! WASL abstract syntax tree.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A parsed WASL program: a list of top-level statements.
///
/// Function definitions may appear anywhere at the top level (as in PHP) and
/// are hoisted before execution begins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Top-level statements in source order.
    pub statements: Vec<Stmt>,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Function body.
    pub body: Vec<Stmt>,
}

/// A WASL statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// `let name = expr;` — declares (or overwrites) a variable.
    Let {
        /// Variable name.
        name: String,
        /// Initial value.
        value: Expr,
    },
    /// `target = expr;` where target is a variable or an index chain.
    Assign {
        /// The assignment target.
        target: AssignTarget,
        /// The assigned value.
        value: Expr,
    },
    /// An expression evaluated for its side effects.
    Expr(Expr),
    /// `if (cond) { ... } else { ... }`.
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then_branch: Vec<Stmt>,
        /// Optional else-branch.
        else_branch: Vec<Stmt>,
    },
    /// `while (cond) { ... }`.
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (init; cond; step) { ... }`.
    For {
        /// Initialiser statement.
        init: Box<Stmt>,
        /// Condition.
        cond: Expr,
        /// Step statement.
        step: Box<Stmt>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `foreach (expr as name) { ... }` — iterates array elements or map values.
    Foreach {
        /// The collection expression.
        collection: Expr,
        /// Optional key variable (`foreach (m as k : v)`).
        key_var: Option<String>,
        /// Value variable.
        value_var: String,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return expr;` (or bare `return;`).
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `include "file";` — loads and executes another source file via the host.
    Include(Expr),
    /// A function definition. Shared, so hoisting a definition into the
    /// interpreter's function table and calling it are reference-count
    /// bumps rather than copies of the body.
    FnDef(Arc<FnDef>),
}

/// The target of an assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AssignTarget {
    /// A plain variable.
    Var(String),
    /// An element of an array/map held in a variable, e.g. `a["k"]` or
    /// `a[0]["x"]` (the index chain is applied left to right).
    Index {
        /// Base variable name.
        base: String,
        /// Index expressions, outermost first.
        indexes: Vec<Expr>,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `.` string concatenation
    Concat,
    /// `==`
    Eq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnOp {
    /// `!`
    Not,
    /// `-`
    Neg,
}

/// A WASL expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A variable reference.
    Var(String),
    /// An array literal `[a, b, c]`.
    ArrayLit(Vec<Expr>),
    /// A map literal `{"k": v, ...}`.
    MapLit(Vec<(Expr, Expr)>),
    /// Indexing `base[index]`.
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// A call to a user function, builtin or host function.
    Call {
        /// Function name (boxed, so the line fits without growing `Expr`).
        name: Box<str>,
        /// Argument expressions.
        args: Vec<Expr>,
        /// 1-based source line of the function name.
        line: u32,
    },
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
}

impl Expr {
    /// Calls `f` on this expression and on every expression inside it,
    /// outermost first and in source order.
    pub fn walk<'e>(&'e self, f: &mut impl FnMut(&'e Expr)) {
        f(self);
        match self {
            Expr::Call { args: items, .. } | Expr::ArrayLit(items) => {
                items.iter().for_each(|item| item.walk(f));
            }
            Expr::MapLit(pairs) => {
                for (k, v) in pairs {
                    k.walk(f);
                    v.walk(f);
                }
            }
            Expr::Index { base: a, index: b }
            | Expr::Binary {
                left: a, right: b, ..
            } => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Unary { operand, .. } => operand.walk(f),
            Expr::Literal(_) | Expr::Var(_) => {}
        }
    }
}

impl BinOp {
    /// Every operator, for finding the one a token spells.
    pub(crate) const ALL: [BinOp; 14] = {
        use BinOp::*;
        [
            Or, And, Eq, NotEq, Lt, LtEq, Gt, GtEq, Concat, Add, Sub, Mul, Div, Mod,
        ]
    };

    /// The operator's source spelling and how tightly it binds, loosest
    /// first: what the parser reads and `Display` writes.
    pub(crate) fn spelling(self) -> (&'static str, u8) {
        match self {
            BinOp::Or => ("||", 1),
            BinOp::And => ("&&", 2),
            BinOp::Eq => ("==", 3),
            BinOp::NotEq => ("!=", 3),
            BinOp::Lt => ("<", 4),
            BinOp::LtEq => ("<=", 4),
            BinOp::Gt => (">", 4),
            BinOp::GtEq => (">=", 4),
            BinOp::Concat => (".", 5),
            BinOp::Add => ("+", 6),
            BinOp::Sub => ("-", 6),
            BinOp::Mul => ("*", 7),
            BinOp::Div => ("/", 7),
            BinOp::Mod => ("%", 7),
        }
    }
}

/// The expression as WASL source that parses back to it (as long as its
/// strings hold no control characters but `\n`, `\t` and `\r`): operands are
/// parenthesised only where precedence requires.
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // An operand of an operator binding at `level`: parenthesised if
        // it is an operator binding less tightly (level 8 is a unary
        // operator's operand, 9 the base of an index).
        let operand = |f: &mut fmt::Formatter<'_>, e: &Expr, level: u8| match e {
            Expr::Binary { op, .. } if op.spelling().1 < level => write!(f, "({e})"),
            Expr::Unary { .. } if level > 8 => write!(f, "({e})"),
            _ => write!(f, "{e}"),
        };
        let list = |items: &[Expr]| {
            let items: Vec<String> = items.iter().map(Expr::to_string).collect();
            items.join(", ")
        };
        match self {
            // Rust escapes a string's quotes, backslashes and line breaks
            // the way WASL reads them.
            Expr::Literal(Value::Str(s)) => write!(f, "{s:?}"),
            Expr::Literal(Value::Null) => f.write_str("null"),
            Expr::Literal(Value::Bool(b)) => write!(f, "{b}"),
            // `{:?}` keeps the `.0` that makes a whole float lex as one.
            Expr::Literal(Value::Float(x)) => write!(f, "{x:?}"),
            // Only scalars are literals in source.
            Expr::Literal(v) => f.write_str(&v.display_str()),
            Expr::Var(name) => f.write_str(name),
            Expr::ArrayLit(items) => write!(f, "[{}]", list(items)),
            Expr::MapLit(pairs) => {
                let pairs: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}: {v}")).collect();
                write!(f, "{{{}}}", pairs.join(", "))
            }
            Expr::Index { base, index } => {
                operand(f, base, 9)?;
                write!(f, "[{index}]")
            }
            Expr::Call { name, args, .. } => write!(f, "{name}({})", list(args)),
            Expr::Binary { left, op, right } => {
                let (symbol, level) = op.spelling();
                // Operators group to the left.
                operand(f, left, level)?;
                write!(f, " {symbol} ")?;
                operand(f, right, level + 1)
            }
            Expr::Unary { op, operand: e } => {
                f.write_str(match op {
                    UnOp::Not => "!",
                    UnOp::Neg => "-",
                })?;
                operand(f, e, 8)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_program;
    use crate::Stmt;

    #[test]
    fn display_prints_source_that_parses_back() {
        for src in [
            "f(1, \"a\\\"b\\n\")[0][\"k\"]",
            "a . b + 1 . (c . d)",
            "(a + b) * -c - (d - e)",
            "!(a == b || c) && [1, 2.5, null] != {\"k\": true}",
            "(-a)[0] . -(1 + 2)",
        ] {
            let parse = |text: &str| match parse_program(&format!("return {text};")) {
                Ok(program) => match &program.statements[0] {
                    Stmt::Return(Some(e)) => e.clone(),
                    other => panic!("{other:?}"),
                },
                Err(e) => panic!("{text}: {e}"),
            };
            let expr = parse(src);
            assert_eq!(expr.to_string(), src);
            assert_eq!(parse(&expr.to_string()), expr);
        }
    }

    /// The interpreter walks these nodes on every request.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_call_s_line_does_not_grow_the_node() {
        assert_eq!(std::mem::size_of::<super::Expr>(), 48);
    }

    #[test]
    fn walk_visits_outermost_first_in_source_order() {
        let program = parse_program("f(g(1) . h(), [k(2)], {\"a\": m()})[n()];").unwrap();
        let Stmt::Expr(e) = &program.statements[0] else {
            panic!()
        };
        let mut calls = Vec::new();
        e.walk(&mut |e| {
            if let super::Expr::Call { name, .. } = e {
                calls.push(&**name);
            }
        });
        assert_eq!(calls, ["f", "g", "h", "k", "m", "n"]);
    }
}
