//! Abstract syntax tree for the supported SQL dialect.
//!
//! The AST is a first-class part of the public API: `warp-ttdb` rewrites
//! statements at this level to implement continuous versioning and repair
//! generations, and inspects `WHERE` clauses to compute partition
//! dependencies.

use crate::schema::ColumnType;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Statement {
    /// `CREATE TABLE name (...)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
        /// Table-level constraints.
        constraints: Vec<TableConstraint>,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// `ALTER TABLE name ADD COLUMN col`.
    AlterTableAddColumn {
        /// Table name.
        table: String,
        /// The new column.
        column: ColumnDef,
    },
    /// `INSERT INTO table (cols) VALUES (...), (...)`.
    Insert {
        /// Target table.
        table: String,
        /// Column names, in the order values are supplied.
        columns: Vec<String>,
        /// One entry per inserted row.
        values: Vec<Vec<Expr>>,
    },
    /// `SELECT items FROM table WHERE ... ORDER BY ... LIMIT n`.
    Select(SelectStatement),
    /// `UPDATE table SET col = expr, ... WHERE ...`.
    Update {
        /// Target table.
        table: String,
        /// Column assignments.
        assignments: Vec<Assignment>,
        /// Optional filter.
        where_clause: Option<Expr>,
    },
    /// `DELETE FROM table WHERE ...`.
    Delete {
        /// Target table.
        table: String,
        /// Optional filter.
        where_clause: Option<Expr>,
    },
}

/// The body of a `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectStatement {
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// Source table (single-table queries only, as in the paper's prototype).
    pub table: String,
    /// Optional filter.
    pub where_clause: Option<Expr>,
    /// Ordering directives, applied in sequence.
    pub order_by: Vec<OrderBy>,
    /// Optional row-count limit.
    pub limit: Option<u64>,
}

/// One element of a `SELECT` projection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// An expression, optionally aliased with `AS`.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional alias.
        alias: Option<String>,
    },
}

/// A single `column = expr` assignment in an `UPDATE`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// Column being assigned.
    pub column: String,
    /// Value expression (may reference the row's current column values).
    pub value: Expr,
}

/// `ORDER BY` directive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderBy {
    /// Expression to sort by (usually a column reference).
    pub expr: Expr,
    /// True for ascending order.
    pub ascending: bool,
}

/// A column definition in `CREATE TABLE` / `ALTER TABLE`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub col_type: ColumnType,
    /// Column constraints.
    pub constraints: Vec<ColumnConstraint>,
    /// Default value used when an INSERT omits the column.
    pub default: Option<Value>,
}

impl ColumnDef {
    /// Creates a plain, unconstrained column.
    pub fn new(name: impl Into<String>, col_type: ColumnType) -> Self {
        ColumnDef {
            name: name.into(),
            col_type,
            constraints: Vec::new(),
            default: None,
        }
    }

    /// True if the column is declared `PRIMARY KEY`.
    pub fn is_primary_key(&self) -> bool {
        self.constraints.contains(&ColumnConstraint::PrimaryKey)
    }

    /// True if the column is declared `UNIQUE` or `PRIMARY KEY`.
    pub fn is_unique(&self) -> bool {
        self.is_primary_key() || self.constraints.contains(&ColumnConstraint::Unique)
    }

    /// True if the column is declared `NOT NULL` (primary keys are implicitly
    /// not null).
    pub fn is_not_null(&self) -> bool {
        self.is_primary_key() || self.constraints.contains(&ColumnConstraint::NotNull)
    }
}

/// Constraints attached to a single column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnConstraint {
    /// `PRIMARY KEY`.
    PrimaryKey,
    /// `UNIQUE`.
    Unique,
    /// `NOT NULL`.
    NotNull,
}

/// Table-level constraints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TableConstraint {
    /// `UNIQUE (col, ...)`.
    Unique(Vec<String>),
    /// `PRIMARY KEY (col, ...)`.
    PrimaryKey(Vec<String>),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `||` string concatenation
    Concat,
    /// `LIKE`
    Like,
}

impl BinaryOp {
    /// SQL spelling of the operator.
    pub fn as_str(&self) -> &'static str {
        match self {
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Concat => "||",
            BinaryOp::Like => "LIKE",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnaryOp {
    /// Logical `NOT`.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Aggregate functions supported in projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregateFunc {
    /// `COUNT(*)` or `COUNT(expr)`.
    Count,
    /// `MAX(expr)`.
    Max,
    /// `MIN(expr)`.
    Min,
    /// `SUM(expr)`.
    Sum,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A hole standing for a literal of the statement's text: the value is
    /// the entry of that index in the parameter vector the statement is
    /// executed with. Only statement templates ([`crate::parse_template`])
    /// hold these; [`crate::parse`] never produces one.
    Param(usize),
    /// A column reference.
    Column(String),
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// An aggregate call; only valid in projections.
    Aggregate {
        /// The aggregate function.
        func: AggregateFunc,
        /// The argument; `None` means `*` (COUNT only).
        arg: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Convenience constructor for `column = literal`.
    pub fn col_eq(column: impl Into<String>, value: impl Into<Value>) -> Expr {
        Expr::Binary {
            left: Box::new(Expr::Column(column.into())),
            op: BinaryOp::Eq,
            right: Box::new(Expr::Literal(value.into())),
        }
    }

    /// Joins two expressions with `AND`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op: BinaryOp::And,
            right: Box::new(other),
        }
    }

    /// Joins two expressions with `OR`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op: BinaryOp::Or,
            right: Box::new(other),
        }
    }

    /// Collects the names of all columns referenced by this expression.
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut cols = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column(c) = e {
                cols.push(c.to_string());
            }
        });
        cols
    }

    /// Visits this expression and every expression inside it, parents first.
    pub fn walk<'e>(&'e self, f: &mut impl FnMut(&'e Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => {}
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Unary { operand, .. } => operand.walk(f),
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.walk(f);
                }
            }
        }
    }

    /// Extracts `column = literal` equality constraints that are *required*
    /// for this expression to be true (i.e. conjuncts of the top-level AND
    /// chain). This is how the time-travel database determines which
    /// partitions a query touches (§4.1 of the paper). Equalities against a
    /// hole are not included; see [`Expr::each_required_equality`].
    pub fn required_equalities(&self) -> Vec<(String, Value)> {
        let mut out = Vec::new();
        self.each_required_equality(&mut |c, operand| {
            if let Operand::Literal(v) = operand {
                out.push((c.to_string(), v.clone()));
            }
        });
        out
    }

    /// Visits every required `column = literal` or `column = hole` equality
    /// (the conjuncts of the top-level AND chain), by reference and in
    /// source order.
    pub fn each_required_equality<'e>(&'e self, f: &mut impl FnMut(&'e str, Operand<'e>)) {
        match self {
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                left.each_required_equality(f);
                right.each_required_equality(f);
            }
            Expr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            } => match (&**left, &**right) {
                (Expr::Column(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(c)) => {
                    f(c, Operand::Literal(v));
                }
                (Expr::Column(c), Expr::Param(i)) | (Expr::Param(i), Expr::Column(c)) => {
                    f(c, Operand::Param(*i));
                }
                _ => {}
            },
            _ => {}
        }
    }

    /// This expression as SQL text, with each hole rendered as the literal
    /// `params` holds for it (`?n` where it holds none).
    pub fn display<'e>(&'e self, params: &'e [Value]) -> impl fmt::Display + 'e {
        WithParams { expr: self, params }
    }
}

/// The constant side of a required equality: a literal of the statement, or
/// a hole to be filled from its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand<'e> {
    /// A literal in the statement.
    Literal(&'e Value),
    /// The hole of this index.
    Param(usize),
}

/// An expression paired with the parameters that fill its holes, for
/// rendering.
struct WithParams<'e> {
    expr: &'e Expr,
    params: &'e [Value],
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.display(&[]).fmt(f)
    }
}

impl fmt::Display for WithParams<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sub = |expr| WithParams {
            expr,
            params: self.params,
        };
        match self.expr {
            Expr::Literal(v) => write!(f, "{}", v.to_sql_literal()),
            Expr::Param(i) => match self.params.get(*i) {
                Some(v) => write!(f, "{}", v.to_sql_literal()),
                None => write!(f, "?{i}"),
            },
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Binary { left, op, right } => {
                write!(f, "({} {} {})", sub(left), op.as_str(), sub(right))
            }
            Expr::Unary { op, operand } => match op {
                UnaryOp::Not => write!(f, "(NOT {})", sub(operand)),
                UnaryOp::Neg => write!(f, "(-{})", sub(operand)),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(|e| sub(e).to_string()).collect();
                write!(
                    f,
                    "({} {}IN ({}))",
                    sub(expr),
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            Expr::IsNull { expr, negated } => {
                write!(
                    f,
                    "({} IS {}NULL)",
                    sub(expr),
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::Aggregate { func, arg } => {
                let name = match func {
                    AggregateFunc::Count => "COUNT",
                    AggregateFunc::Max => "MAX",
                    AggregateFunc::Min => "MIN",
                    AggregateFunc::Sum => "SUM",
                };
                match arg {
                    Some(a) => write!(f, "{name}({})", sub(a)),
                    None => write!(f, "{name}(*)"),
                }
            }
        }
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateTable { name, columns, .. } => {
                write!(f, "CREATE TABLE {name} ({} columns)", columns.len())
            }
            Statement::DropTable { name } => write!(f, "DROP TABLE {name}"),
            Statement::AlterTableAddColumn { table, column } => {
                write!(f, "ALTER TABLE {table} ADD COLUMN {}", column.name)
            }
            Statement::Insert { table, values, .. } => {
                write!(f, "INSERT INTO {table} ({} rows)", values.len())
            }
            Statement::Select(s) => match &s.where_clause {
                Some(w) => write!(f, "SELECT FROM {} WHERE {w}", s.table),
                None => write!(f, "SELECT FROM {}", s.table),
            },
            Statement::Update {
                table,
                where_clause,
                ..
            } => match where_clause {
                Some(w) => write!(f, "UPDATE {table} WHERE {w}"),
                None => write!(f, "UPDATE {table}"),
            },
            Statement::Delete {
                table,
                where_clause,
            } => match where_clause {
                Some(w) => write!(f, "DELETE FROM {table} WHERE {w}"),
                None => write!(f, "DELETE FROM {table}"),
            },
        }
    }
}

impl Statement {
    /// Returns the name of the table this statement operates on, if any.
    pub fn table_name(&self) -> Option<&str> {
        match self {
            Statement::CreateTable { name, .. } | Statement::DropTable { name } => Some(name),
            Statement::AlterTableAddColumn { table, .. }
            | Statement::Insert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. } => Some(table),
            Statement::Select(s) => Some(&s.table),
        }
    }

    /// True if executing this statement can modify stored data.
    pub fn is_write(&self) -> bool {
        !matches!(self, Statement::Select(_))
    }

    /// Returns the statement's `WHERE` clause, if it has one.
    pub fn where_clause(&self) -> Option<&Expr> {
        match self {
            Statement::Select(s) => s.where_clause.as_ref(),
            Statement::Update { where_clause, .. } | Statement::Delete { where_clause, .. } => {
                where_clause.as_ref()
            }
            _ => None,
        }
    }

    /// True if the statement is a template: some expression in it is a hole
    /// ([`Expr::Param`]).
    pub fn has_params(&self) -> bool {
        let mut found = false;
        let mut check = |e: &Expr| e.walk(&mut |e| found |= matches!(e, Expr::Param(_)));
        match self {
            Statement::Select(s) => {
                for item in &s.items {
                    if let SelectItem::Expr { expr, .. } = item {
                        check(expr);
                    }
                }
                s.where_clause.iter().for_each(&mut check);
                s.order_by.iter().for_each(|o| check(&o.expr));
            }
            Statement::Insert { values, .. } => values.iter().flatten().for_each(check),
            Statement::Update {
                assignments,
                where_clause,
                ..
            } => {
                assignments.iter().for_each(|a| check(&a.value));
                where_clause.iter().for_each(check);
            }
            Statement::Delete { where_clause, .. } => where_clause.iter().for_each(check),
            Statement::CreateTable { .. }
            | Statement::DropTable { .. }
            | Statement::AlterTableAddColumn { .. } => {}
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_equalities_only_from_and_chain() {
        // (a = 1 AND b = 'x') => both required.
        let e = Expr::col_eq("a", 1i64).and(Expr::col_eq("b", "x"));
        let eqs = e.required_equalities();
        assert_eq!(eqs.len(), 2);
        // (a = 1 OR b = 'x') => neither is required.
        let e = Expr::col_eq("a", 1i64).or(Expr::col_eq("b", "x"));
        assert!(e.required_equalities().is_empty());
    }

    #[test]
    fn referenced_columns_walks_nested() {
        let e = Expr::col_eq("a", 1i64).and(Expr::IsNull {
            expr: Box::new(Expr::Column("b".into())),
            negated: false,
        });
        let mut cols = e.referenced_columns();
        cols.sort();
        assert_eq!(cols, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn statement_table_name_and_write_flag() {
        let s = Statement::Delete {
            table: "t".into(),
            where_clause: None,
        };
        assert_eq!(s.table_name(), Some("t"));
        assert!(s.is_write());
    }

    #[test]
    fn expr_display_roundtrips_syntax() {
        let e = Expr::col_eq("a", 1i64).and(Expr::Column("b".into()));
        assert_eq!(e.to_string(), "((a = 1) AND b)");
    }
}
