//! WASL abstract syntax tree.

use crate::value::Value;
use serde::{Deserialize, Serialize};
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
        /// Function name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
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
    /// Convenience constructor for string literals.
    pub fn lit_str(s: impl Into<String>) -> Expr {
        Expr::Literal(Value::Str(s.into()))
    }

    /// Convenience constructor for integer literals.
    pub fn lit_int(i: i64) -> Expr {
        Expr::Literal(Value::Int(i))
    }

    /// Collects the names of all functions called anywhere in this expression.
    pub fn called_functions(&self, out: &mut Vec<String>) {
        match self {
            Expr::Call { name, args } => {
                out.push(name.clone());
                for a in args {
                    a.called_functions(out);
                }
            }
            Expr::Binary { left, right, .. } => {
                left.called_functions(out);
                right.called_functions(out);
            }
            Expr::Unary { operand, .. } => operand.called_functions(out),
            Expr::Index { base, index } => {
                base.called_functions(out);
                index.called_functions(out);
            }
            Expr::ArrayLit(items) => {
                for i in items {
                    i.called_functions(out);
                }
            }
            Expr::MapLit(pairs) => {
                for (k, v) in pairs {
                    k.called_functions(out);
                    v.called_functions(out);
                }
            }
            Expr::Literal(_) | Expr::Var(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn called_functions_walks_nested_expressions() {
        let e = Expr::Binary {
            left: Box::new(Expr::Call {
                name: "f".into(),
                args: vec![Expr::lit_int(1)],
            }),
            op: BinOp::Concat,
            right: Box::new(Expr::Index {
                base: Box::new(Expr::Call {
                    name: "g".into(),
                    args: vec![],
                }),
                index: Box::new(Expr::lit_int(0)),
            }),
        };
        let mut calls = Vec::new();
        e.called_functions(&mut calls);
        assert_eq!(calls, vec!["f".to_string(), "g".to_string()]);
    }
}
