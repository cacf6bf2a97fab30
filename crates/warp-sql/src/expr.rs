//! Expression evaluation against a row.

use crate::ast::{AggregateFunc, BinaryOp, Expr, UnaryOp};
use crate::error::{SqlError, SqlResult};
use crate::schema::TableSchema;
use crate::storage::Row;
use crate::value::Value;
use std::borrow::Cow;

/// Evaluates an expression against a single row of the given schema.
///
/// Aggregates are rejected here; the executor handles them separately.
pub fn eval_expr(expr: &Expr, schema: &TableSchema, row: &Row) -> SqlResult<Value> {
    eval_expr_with(expr, schema, row, &[])
}

/// [`eval_expr`] for an expression of a statement template: `params` fills
/// its holes.
pub fn eval_expr_with(
    expr: &Expr,
    schema: &TableSchema,
    row: &Row,
    params: &[Value],
) -> SqlResult<Value> {
    Ok(Bound::bind(expr, schema, params).eval(row)?.into_owned())
}

/// An expression bound to one schema and one parameter vector: column names
/// are resolved to row positions and holes to their parameters once, so
/// evaluating it per row does no lookups, and operands are passed by
/// reference (a column or literal is only cloned if it *is* the result).
#[derive(Debug)]
pub(crate) enum Bound<'e> {
    Literal(&'e Value),
    Column(usize),
    /// A column the schema lacks. Evaluating it is the error, so a statement
    /// that visits no row succeeds, as it always has.
    Missing(&'e str),
    /// A hole the parameters do not cover; an error to evaluate, like a
    /// missing column.
    Unbound(usize),
    Unary {
        op: UnaryOp,
        operand: Box<Bound<'e>>,
    },
    Binary {
        left: Box<Bound<'e>>,
        op: BinaryOp,
        right: Box<Bound<'e>>,
    },
    InList {
        expr: Box<Bound<'e>>,
        list: Vec<Bound<'e>>,
        negated: bool,
    },
    IsNull {
        expr: Box<Bound<'e>>,
        negated: bool,
    },
    Aggregate {
        func: AggregateFunc,
        arg: Option<Box<Bound<'e>>>,
    },
}

impl<'e> Bound<'e> {
    /// Resolves `expr`'s column references against `schema` and its holes
    /// against `params`.
    pub(crate) fn bind(expr: &'e Expr, schema: &TableSchema, params: &'e [Value]) -> Bound<'e> {
        let bind = |e: &'e Expr| Box::new(Bound::bind(e, schema, params));
        match expr {
            Expr::Literal(v) => Bound::Literal(v),
            Expr::Param(i) => match params.get(*i) {
                Some(v) => Bound::Literal(v),
                None => Bound::Unbound(*i),
            },
            Expr::Column(name) => {
                #[cfg(debug_assertions)]
                crate::observer::record(name);
                match schema.column_index(name) {
                    Some(idx) => Bound::Column(idx),
                    None => Bound::Missing(name),
                }
            }
            Expr::Unary { op, operand } => Bound::Unary {
                op: *op,
                operand: bind(operand),
            },
            Expr::Binary { left, op, right } => Bound::Binary {
                left: bind(left),
                op: *op,
                right: bind(right),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Bound::InList {
                expr: bind(expr),
                list: list
                    .iter()
                    .map(|e| Bound::bind(e, schema, params))
                    .collect(),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Bound::IsNull {
                expr: bind(expr),
                negated: *negated,
            },
            Expr::Aggregate { func, arg } => Bound::Aggregate {
                func: *func,
                arg: arg.as_deref().map(bind),
            },
        }
    }

    /// Evaluates the expression against one row.
    pub(crate) fn eval<'r>(&'r self, row: &'r [Value]) -> SqlResult<Cow<'r, Value>> {
        Ok(match self {
            Bound::Literal(v) => Cow::Borrowed(*v),
            Bound::Column(idx) => match row.get(*idx) {
                Some(v) => Cow::Borrowed(v),
                None => Cow::Owned(Value::Null),
            },
            Bound::Missing(name) => return Err(SqlError::NoSuchColumn((*name).to_string())),
            Bound::Unbound(i) => {
                return Err(SqlError::Execution(format!("no value for parameter ?{i}")))
            }
            Bound::Unary { op, operand } => {
                let v = operand.eval(row)?;
                Cow::Owned(match op {
                    UnaryOp::Not => Value::Bool(!v.is_truthy()),
                    UnaryOp::Neg => match &*v {
                        Value::Int(i) => Value::Int(-i),
                        Value::Float(f) => Value::Float(-f),
                        Value::Null => Value::Null,
                        other => return Err(SqlError::Type(format!("cannot negate {other:?}"))),
                    },
                })
            }
            Bound::Binary { left, op, right } => {
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                Cow::Owned(eval_binary(&l, *op, &r)?)
            }
            Bound::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Cow::Owned(Value::Null));
                }
                let mut found = false;
                for item in list {
                    if v.sql_eq(&*item.eval(row)?) == Some(true) {
                        found = true;
                        break;
                    }
                }
                Cow::Owned(Value::Bool(found != *negated))
            }
            Bound::IsNull { expr, negated } => {
                Cow::Owned(Value::Bool(expr.eval(row)?.is_null() != *negated))
            }
            Bound::Aggregate { .. } => {
                return Err(SqlError::Execution(
                    "aggregate used outside a projection".into(),
                ))
            }
        })
    }

    /// True if evaluating the expression can never return an error, whatever
    /// the row holds. Only then may a statement skip rows that cannot match:
    /// the scan evaluates its predicate on every row, so a row that matches
    /// nothing can still fail the statement (a division by its zero, say).
    pub(crate) fn cannot_fail(&self) -> bool {
        match self {
            Bound::Literal(_) | Bound::Column(_) => true,
            Bound::Missing(_) | Bound::Unbound(_) | Bound::Aggregate { .. } => false,
            Bound::Unary { op, operand } => match op {
                UnaryOp::Not => operand.cannot_fail(),
                UnaryOp::Neg => matches!(
                    **operand,
                    Bound::Literal(Value::Int(_) | Value::Float(_) | Value::Null)
                ),
            },
            Bound::Binary { left, op, right } => {
                use BinaryOp::*;
                match op {
                    Add | Sub | Mul | Div => false,
                    And | Or | Eq | NotEq | Lt | LtEq | Gt | GtEq | Concat | Like => {
                        left.cannot_fail() && right.cannot_fail()
                    }
                }
            }
            Bound::InList { expr, list, .. } => {
                expr.cannot_fail() && list.iter().all(Bound::cannot_fail)
            }
            Bound::IsNull { expr, .. } => expr.cannot_fail(),
        }
    }

    /// Visits every `column = literal` equality that is required for the
    /// predicate to be true (the conjuncts of its top-level AND chain), as
    /// the column's row position and the value, in source order. The
    /// executor picks its access path from these on every statement.
    pub(crate) fn each_required_equality(&self, f: &mut impl FnMut(usize, &'e Value)) {
        match self {
            Bound::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                left.each_required_equality(f);
                right.each_required_equality(f);
            }
            Bound::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            } => match (&**left, &**right) {
                (Bound::Column(idx), Bound::Literal(v))
                | (Bound::Literal(v), Bound::Column(idx)) => f(*idx, v),
                _ => {}
            },
            _ => {}
        }
    }
}

/// Evaluates a binary operation over two already-computed values.
pub fn eval_binary(l: &Value, op: BinaryOp, r: &Value) -> SqlResult<Value> {
    use BinaryOp::*;
    match op {
        And => Ok(Value::Bool(l.is_truthy() && r.is_truthy())),
        Or => Ok(Value::Bool(l.is_truthy() || r.is_truthy())),
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let ord = l.cmp_total(r);
            let result = match op {
                Eq => ord == std::cmp::Ordering::Equal,
                NotEq => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                LtEq => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                GtEq => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(result))
        }
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // Integer arithmetic when both sides are integers, float otherwise.
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                let v = match op {
                    Add => a.wrapping_add(*b),
                    Sub => a.wrapping_sub(*b),
                    Mul => a.wrapping_mul(*b),
                    Div => {
                        if *b == 0 {
                            return Err(SqlError::Execution("division by zero".into()));
                        }
                        a / b
                    }
                    _ => unreachable!(),
                };
                return Ok(Value::Int(v));
            }
            let a = l
                .as_float()
                .ok_or_else(|| SqlError::Type(format!("non-numeric {l:?}")))?;
            let b = r
                .as_float()
                .ok_or_else(|| SqlError::Type(format!("non-numeric {r:?}")))?;
            let v = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Err(SqlError::Execution("division by zero".into()));
                    }
                    a / b
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(v))
        }
        Concat => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Text(format!(
                "{}{}",
                l.as_display_string(),
                r.as_display_string()
            )))
        }
        Like => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Bool(like_match(
                &l.as_display_string(),
                &r.as_display_string(),
            )))
        }
    }
}

/// SQL `LIKE` matching: `%` matches any run of characters, `_` any single
/// character. Matching is case-sensitive, as in PostgreSQL.
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => {
                // Try consuming zero or more characters.
                (0..=t.len()).any(|k| rec(&t[k..], &p[1..]))
            }
            Some('_') => !t.is_empty() && rec(&t[1..], &p[1..]),
            Some(c) => t.first() == Some(c) && rec(&t[1..], &p[1..]),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ColumnDef;
    use crate::schema::ColumnType;

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Integer),
                ColumnDef::new("name", ColumnType::Text),
            ],
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn column_lookup_and_comparison() {
        let s = schema();
        let row = vec![Value::Int(7), Value::text("alice")];
        let e = Expr::col_eq("id", 7i64);
        assert_eq!(eval_expr(&e, &s, &row).unwrap(), Value::Bool(true));
        let e = Expr::col_eq("name", "bob");
        assert_eq!(eval_expr(&e, &s, &row).unwrap(), Value::Bool(false));
    }

    #[test]
    fn missing_column_errors() {
        let s = schema();
        let row = vec![Value::Int(1), Value::Null];
        assert!(matches!(
            eval_expr(&Expr::Column("missing".into()), &s, &row),
            Err(SqlError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        assert_eq!(
            eval_binary(&Value::Int(6), BinaryOp::Mul, &Value::Int(7)).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            eval_binary(&Value::Int(7), BinaryOp::Div, &Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert!(eval_binary(&Value::Int(1), BinaryOp::Div, &Value::Int(0)).is_err());
        assert_eq!(
            eval_binary(&Value::Float(1.5), BinaryOp::Add, &Value::Int(1)).unwrap(),
            Value::Float(2.5)
        );
    }

    #[test]
    fn null_propagation() {
        assert_eq!(
            eval_binary(&Value::Null, BinaryOp::Eq, &Value::Int(1)).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_binary(&Value::Null, BinaryOp::Add, &Value::Int(1)).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_binary(&Value::Null, BinaryOp::Concat, &Value::text("x")).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn concat_builds_strings() {
        assert_eq!(
            eval_binary(&Value::text("a"), BinaryOp::Concat, &Value::Int(3)).unwrap(),
            Value::text("a3")
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "H%"));
        assert!(!like_match("hello", "hello_"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
    }

    #[test]
    fn in_list_with_null() {
        let s = schema();
        let row = vec![Value::Int(1), Value::Null];
        let e = Expr::InList {
            expr: Box::new(Expr::Column("id".into())),
            list: vec![Expr::Literal(Value::Int(1)), Expr::Literal(Value::Int(2))],
            negated: false,
        };
        assert_eq!(eval_expr(&e, &s, &row).unwrap(), Value::Bool(true));
        let e = Expr::IsNull {
            expr: Box::new(Expr::Column("name".into())),
            negated: false,
        };
        assert_eq!(eval_expr(&e, &s, &row).unwrap(), Value::Bool(true));
    }
}
