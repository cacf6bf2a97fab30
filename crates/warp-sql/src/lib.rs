//! `warp-sql` — an in-memory relational SQL engine.
//!
//! This crate is the database substrate for the Warp intrusion-recovery
//! reproduction. It plays the role PostgreSQL plays in the paper: a SQL
//! store that the time-travel layer (`warp-ttdb`) drives purely through
//! query rewriting, without any engine modifications.
//!
//! The engine supports the subset of SQL that a MediaWiki-style web
//! application (and Warp's own rewritten queries) need:
//!
//! * `CREATE TABLE` with column types, `PRIMARY KEY`, `UNIQUE` and
//!   `NOT NULL` constraints, plus table-level `UNIQUE (...)` constraints.
//! * `ALTER TABLE ... ADD COLUMN` and `DROP TABLE`.
//! * `INSERT INTO ... (cols) VALUES (...), (...)`.
//! * `SELECT` with projections, `WHERE`, `ORDER BY`, `LIMIT`, and the
//!   `COUNT`/`MAX`/`MIN`/`SUM` aggregates.
//! * `UPDATE ... SET ... WHERE` and `DELETE FROM ... WHERE`.
//! * Expressions: comparisons, `AND`/`OR`/`NOT`, arithmetic, string
//!   concatenation (`||`), `LIKE`, `IN (...)`, `IS [NOT] NULL`.
//!
//! The public API is deliberately AST-centric: [`parse`] produces a
//! [`Statement`] that callers (in particular `warp-ttdb`) may inspect and
//! rewrite before handing it to [`Database::execute`]. A caller that sees
//! the same statements again and again with different literals splits each
//! text with [`prepare`] into its *shape* and its literals, keeps one
//! [`parse_template`] result per shape, and runs it through
//! [`Database::execute_with`].
//!
//! # Examples
//!
//! ```
//! use warp_sql::{Database, Value};
//!
//! let mut db = Database::new();
//! db.execute_sql("CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT, body TEXT)")
//!     .unwrap();
//! db.execute_sql("INSERT INTO page (page_id, title, body) VALUES (1, 'Main', 'hello')")
//!     .unwrap();
//! let result = db.execute_sql("SELECT body FROM page WHERE title = 'Main'").unwrap();
//! assert_eq!(result.rows[0][0], Value::text("hello"));
//! ```

pub mod analysis;
pub mod ast;
pub mod engine;
pub mod error;
pub mod expr;
pub mod lexer;
#[cfg(debug_assertions)]
pub mod observer;
pub mod parser;
pub mod schema;
pub mod storage;
pub mod value;

pub use analysis::{
    analyze, lint_statement, ColumnSet, KeyCatalog, Lint, Precision, StatementFootprint,
};
pub use ast::{
    Assignment, ColumnConstraint, ColumnDef, Expr, Operand, OrderBy, SelectItem, Statement,
    TableConstraint,
};
pub use engine::{Database, QueryResult, TableChanges};
pub use error::{SqlError, SqlResult};
pub use lexer::{prepare, tokenize, Prepared, Token};
pub use parser::{parse, parse_template};
pub use schema::{ColumnType, TableSchema};
pub use storage::{Row, Table};
pub use value::Value;

/// Escapes a string literal for safe inclusion inside single quotes in a SQL
/// statement (the analog of MediaWiki's `wfStrencode`).
///
/// This is what a *patched* application calls; the SQL-injection scenario in
/// the evaluation exercises the unpatched path that omits it.
pub fn escape_string(input: &str) -> String {
    input.replace('\'', "''")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_string_doubles_quotes() {
        assert_eq!(escape_string("it's"), "it''s");
        assert_eq!(escape_string("plain"), "plain");
        assert_eq!(escape_string("''"), "''''");
    }

    #[test]
    fn end_to_end_crud() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
            .unwrap();
        db.execute_sql("INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')")
            .unwrap();
        db.execute_sql("UPDATE t SET name = 'z' WHERE id = 2")
            .unwrap();
        let r = db.execute_sql("SELECT name FROM t ORDER BY id").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[1][0], Value::text("z"));
        db.execute_sql("DELETE FROM t WHERE id = 1").unwrap();
        let r = db.execute_sql("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1));
    }
}
