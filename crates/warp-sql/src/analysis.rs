//! Static column-footprint analysis over parsed SQL statements.
//!
//! The repair engine's dependency tracking is row/partition-grained: patched
//! code that touches one column of a hot row drags every reader of that row
//! into the repair frontier. This module computes, purely from the AST, a
//! *conservative* column-granularity footprint for each statement — which
//! columns a query's result can depend on, which columns it can change, and
//! whether the touched row set is bounded by a unique or partition key — so
//! the time-travel layer can skip re-executing actions whose read columns are
//! provably disjoint from a repair's dirty column set.
//!
//! Conservatism contract (checked by a runtime guard in debug builds and by
//! the footprint-soundness proptest):
//!
//! * `read_columns` ⊇ every column whose stored value can influence the
//!   statement's result (projections, predicates, `ORDER BY`, value
//!   subexpressions).
//! * `write_columns` ⊇ every column whose stored value the statement can
//!   change. `INSERT` and `DELETE` change *row membership* — whether a row
//!   exists at all — which every reader of the table implicitly depends on,
//!   so their effective write set is [`ColumnSet::All`] regardless of the
//!   syntactic column list.
//! * Anything the analyzer cannot bound collapses into [`ColumnSet::All`]
//!   (`SELECT *` is the common case) and is labelled [`Precision::Imprecise`].
//!   `All` intersects everything, so imprecise footprints degrade exactly to
//!   the row/partition-grained behavior of the column-oblivious engine.

use crate::ast::{Expr, SelectItem, Statement};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A set of column names of one table, with an explicit "every column"
/// top element.
///
/// `All` additionally models *row membership*: a statement whose write set
/// is `All` may create or delete rows, which affects even queries that
/// reference no column at all (`SELECT COUNT(*)`). Consequently
/// `All.intersects(Named(∅))` is true while `Named(∅)` intersects nothing
/// else — an empty named read set depends only on which rows exist.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnSet {
    /// Every column of the table, plus row membership.
    All,
    /// An explicit set of (lower-cased) column names.
    Named(BTreeSet<String>),
}

impl ColumnSet {
    /// The empty set.
    pub fn empty() -> ColumnSet {
        ColumnSet::Named(BTreeSet::new())
    }

    /// The top element: every column plus row membership.
    pub fn all() -> ColumnSet {
        ColumnSet::All
    }

    /// A set holding the given column names (lower-cased).
    pub fn named<I, S>(names: I) -> ColumnSet
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        ColumnSet::Named(
            names
                .into_iter()
                .map(|n| n.as_ref().to_ascii_lowercase())
                .collect(),
        )
    }

    /// True for the `All` top element.
    pub fn is_all(&self) -> bool {
        matches!(self, ColumnSet::All)
    }

    /// True for an empty named set (`All` is never empty).
    pub fn is_empty(&self) -> bool {
        match self {
            ColumnSet::All => false,
            ColumnSet::Named(names) => names.is_empty(),
        }
    }

    /// Adds one column name (lower-cased). No-op on `All`.
    pub fn insert(&mut self, name: &str) {
        if let ColumnSet::Named(names) = self {
            names.insert(name.to_ascii_lowercase());
        }
    }

    /// Widens this set to include `other`.
    pub fn union_with(&mut self, other: &ColumnSet) {
        match (&mut *self, other) {
            (ColumnSet::All, _) => {}
            (_, ColumnSet::All) => *self = ColumnSet::All,
            (ColumnSet::Named(a), ColumnSet::Named(b)) => {
                a.extend(b.iter().cloned());
            }
        }
    }

    /// True if the two sets can refer to a common column — or, when either
    /// side is `All`, if the other side could be affected by row membership
    /// changes (which is always).
    pub fn intersects(&self, other: &ColumnSet) -> bool {
        match (self, other) {
            (ColumnSet::All, _) | (_, ColumnSet::All) => true,
            (ColumnSet::Named(a), ColumnSet::Named(b)) => {
                if a.len() > b.len() {
                    b.iter().any(|c| a.contains(c))
                } else {
                    a.iter().any(|c| b.contains(c))
                }
            }
        }
    }

    /// True if the set contains the (lower-cased) column.
    pub fn contains(&self, name: &str) -> bool {
        match self {
            ColumnSet::All => true,
            ColumnSet::Named(names) => names.contains(&name.to_ascii_lowercase()),
        }
    }

    /// True if every column of `other` is in `self` (with `All` ⊇ anything,
    /// and nothing but `All` ⊇ `All`).
    pub fn contains_set(&self, other: &ColumnSet) -> bool {
        match (self, other) {
            (ColumnSet::All, _) => true,
            (ColumnSet::Named(_), ColumnSet::All) => false,
            (ColumnSet::Named(a), ColumnSet::Named(b)) => b.is_subset(a),
        }
    }
}

impl fmt::Display for ColumnSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnSet::All => write!(f, "*"),
            ColumnSet::Named(names) => {
                let list: Vec<&str> = names.iter().map(String::as_str).collect();
                write!(f, "{{{}}}", list.join(", "))
            }
        }
    }
}

/// How much the analyzer could prove about a statement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Precision {
    /// Both the column sets and the touched row set are tightly derived
    /// from the statement.
    Exact,
    /// Something defeated the analysis (the reason says what); the affected
    /// column set has been widened to `All` and/or the row bound dropped, so
    /// the footprint is still sound — just no better than partition-grained.
    Imprecise(String),
}

impl Precision {
    /// True for [`Precision::Imprecise`].
    pub fn is_imprecise(&self) -> bool {
        matches!(self, Precision::Imprecise(_))
    }
}

/// The conservative static footprint of one statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatementFootprint {
    /// The (lower-cased) table the statement touches.
    pub table: String,
    /// Columns the statement's result or effect can depend on.
    pub read_columns: ColumnSet,
    /// Columns the statement names as written (`SET` list, insert columns).
    /// For the set actually used in dependency checks see
    /// [`StatementFootprint::effective_write_columns`].
    pub write_columns: ColumnSet,
    /// True if the statement can change which rows exist (INSERT, DELETE,
    /// DDL). Membership changes affect every reader of the table.
    pub membership_write: bool,
    /// True if the touched row set is provably bounded by a unique or
    /// partition key (required `col = literal` equalities cover one).
    pub key_bounded: bool,
    /// Whether the analysis had to give anything up.
    pub precision: Precision,
}

impl StatementFootprint {
    /// The write set dependency checks must use: the syntactic column list,
    /// widened to `All` when the statement can change row membership.
    pub fn effective_write_columns(&self) -> ColumnSet {
        if self.membership_write {
            ColumnSet::All
        } else {
            self.write_columns.clone()
        }
    }
}

impl fmt::Display for StatementFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: read {} write {}{}{}{}",
            self.table,
            self.read_columns,
            self.effective_write_columns(),
            if self.membership_write {
                " (membership)"
            } else {
                ""
            },
            if self.key_bounded {
                " key-bounded"
            } else {
                " unbounded-rows"
            },
            match &self.precision {
                Precision::Exact => String::new(),
                Precision::Imprecise(reason) => format!(" IMPRECISE: {reason}"),
            },
        )
    }
}

/// Unique/partition key knowledge the analyzer uses to decide
/// [`StatementFootprint::key_bounded`]. Learned from `CREATE TABLE`
/// statements via [`KeyCatalog::observe`] and/or declared directly with
/// [`KeyCatalog::add_key`] (partition columns are single-column keys for
/// bounding purposes: pinning one bounds the touched row set to one
/// partition).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyCatalog {
    keys: BTreeMap<String, Vec<BTreeSet<String>>>,
}

impl KeyCatalog {
    /// An empty catalog (nothing is key-bounded).
    pub fn new() -> KeyCatalog {
        KeyCatalog::default()
    }

    /// Registers one key: pinning all of `columns` with equalities bounds
    /// the touched row set of a statement on `table`.
    pub fn add_key<I, S>(&mut self, table: &str, columns: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let key: BTreeSet<String> = columns
            .into_iter()
            .map(|c| c.as_ref().to_ascii_lowercase())
            .collect();
        if !key.is_empty() {
            self.keys
                .entry(table.to_ascii_lowercase())
                .or_default()
                .push(key);
        }
    }

    /// Learns `PRIMARY KEY` / `UNIQUE` keys from a `CREATE TABLE` statement.
    /// Other statements are ignored.
    pub fn observe(&mut self, stmt: &Statement) {
        if let Statement::CreateTable {
            name,
            columns,
            constraints,
        } = stmt
        {
            for col in columns {
                if col.is_unique() {
                    self.add_key(name, [col.name.as_str()]);
                }
            }
            for constraint in constraints {
                let (crate::ast::TableConstraint::Unique(cols)
                | crate::ast::TableConstraint::PrimaryKey(cols)) = constraint;
                self.add_key(name, cols.iter().map(String::as_str));
            }
        }
    }

    /// True if the given pinned (lower-cased) equality columns cover at
    /// least one registered key of `table`.
    pub fn bounds(&self, table: &str, pinned: &BTreeSet<String>) -> bool {
        self.keys
            .get(&table.to_ascii_lowercase())
            .map(|keys| keys.iter().any(|key| key.is_subset(pinned)))
            .unwrap_or(false)
    }
}

fn columns_of_expr(expr: &Expr, out: &mut ColumnSet) {
    for column in expr.referenced_columns() {
        out.insert(&column);
    }
}

fn pinned_columns(where_clause: Option<&Expr>) -> BTreeSet<String> {
    let mut pinned = BTreeSet::new();
    if let Some(w) = where_clause {
        // A hole pins its column as a literal does: it stands for one.
        w.each_required_equality(&mut |c, _| {
            pinned.insert(c.to_ascii_lowercase());
        });
    }
    pinned
}

/// Computes the conservative static footprint of a statement. `keys` decides
/// [`StatementFootprint::key_bounded`]; pass an empty [`KeyCatalog`] when key
/// information is unavailable (everything is then row-unbounded, which is the
/// conservative answer).
pub fn analyze(stmt: &Statement, keys: &KeyCatalog) -> StatementFootprint {
    let table = stmt.table_name().unwrap_or_default().to_ascii_lowercase();
    let mut read = ColumnSet::empty();
    let mut imprecise: Option<String> = None;
    match stmt {
        Statement::Select(select) => {
            for item in &select.items {
                match item {
                    SelectItem::Wildcard => {
                        read = ColumnSet::All;
                        imprecise.get_or_insert_with(|| "SELECT * projection".to_string());
                    }
                    SelectItem::Expr { expr, .. } => columns_of_expr(expr, &mut read),
                }
            }
            if let Some(w) = &select.where_clause {
                columns_of_expr(w, &mut read);
            }
            for order in &select.order_by {
                columns_of_expr(&order.expr, &mut read);
            }
            let key_bounded = keys.bounds(&table, &pinned_columns(select.where_clause.as_ref()));
            if !key_bounded {
                imprecise.get_or_insert_with(|| "whole-table scan (row set unbounded)".to_string());
            }
            StatementFootprint {
                table,
                read_columns: read,
                write_columns: ColumnSet::empty(),
                membership_write: false,
                key_bounded,
                precision: imprecise
                    .map(Precision::Imprecise)
                    .unwrap_or(Precision::Exact),
            }
        }
        Statement::Insert {
            columns, values, ..
        } => {
            for row in values {
                for expr in row {
                    columns_of_expr(expr, &mut read);
                }
            }
            StatementFootprint {
                table,
                read_columns: read,
                write_columns: ColumnSet::named(columns.iter().map(String::as_str)),
                membership_write: true,
                // An INSERT touches exactly the rows it creates.
                key_bounded: true,
                precision: Precision::Exact,
            }
        }
        Statement::Update {
            assignments,
            where_clause,
            ..
        } => {
            if let Some(w) = where_clause {
                columns_of_expr(w, &mut read);
            }
            let mut write = ColumnSet::empty();
            for assignment in assignments {
                write.insert(&assignment.column);
                columns_of_expr(&assignment.value, &mut read);
            }
            let key_bounded = keys.bounds(&table, &pinned_columns(where_clause.as_ref()));
            if !key_bounded {
                imprecise.get_or_insert_with(|| "unbounded UPDATE row set".to_string());
            }
            StatementFootprint {
                table,
                read_columns: read,
                write_columns: write,
                membership_write: false,
                key_bounded,
                precision: imprecise
                    .map(Precision::Imprecise)
                    .unwrap_or(Precision::Exact),
            }
        }
        Statement::Delete { where_clause, .. } => {
            if let Some(w) = where_clause {
                columns_of_expr(w, &mut read);
            }
            let key_bounded = keys.bounds(&table, &pinned_columns(where_clause.as_ref()));
            if !key_bounded {
                imprecise.get_or_insert_with(|| "unbounded DELETE row set".to_string());
            }
            StatementFootprint {
                table,
                read_columns: read,
                write_columns: ColumnSet::empty(),
                membership_write: true,
                key_bounded,
                precision: imprecise
                    .map(Precision::Imprecise)
                    .unwrap_or(Precision::Exact),
            }
        }
        Statement::CreateTable { .. }
        | Statement::DropTable { .. }
        | Statement::AlterTableAddColumn { .. } => StatementFootprint {
            table,
            read_columns: ColumnSet::empty(),
            write_columns: ColumnSet::All,
            membership_write: true,
            key_bounded: false,
            precision: Precision::Imprecise("DDL rewrites the whole table".to_string()),
        },
    }
}

/// The columns a statement's result or effect can depend on — shorthand for
/// [`analyze`] when no key information is needed.
pub fn read_columns(stmt: &Statement) -> ColumnSet {
    analyze(stmt, &KeyCatalog::new()).read_columns
}

/// The columns a statement can change, including the `All` widening for
/// membership writes — shorthand for [`analyze`] when no key information is
/// needed.
pub fn write_columns(stmt: &Statement) -> ColumnSet {
    analyze(stmt, &KeyCatalog::new()).effective_write_columns()
}

/// One precision-defeating or injection-adjacent shape found by the lint
/// pass (see also `warp-analyze`, which adds WASL-level concatenation
/// checks on top of these statement-level ones).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Stable machine-readable rule name.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// Statement-level lints: `SELECT *` (defeats column pruning) and writes
/// with no `WHERE` clause (whole-table write sets defeat row pruning).
pub fn lint_statement(stmt: &Statement) -> Vec<Lint> {
    let mut lints = Vec::new();
    match stmt {
        Statement::Select(select)
            if select
                .items
                .iter()
                .any(|i| matches!(i, SelectItem::Wildcard)) =>
        {
            lints.push(Lint {
                rule: "select-star",
                message: format!(
                    "SELECT * on `{}` reads every column; name the columns so repair \
                     can prune readers",
                    select.table
                ),
            });
        }
        Statement::Update {
            table,
            where_clause: None,
            ..
        } => lints.push(Lint {
            rule: "unbounded-write",
            message: format!("UPDATE `{table}` has no WHERE clause (whole-table write set)"),
        }),
        Statement::Delete {
            table,
            where_clause: None,
        } => lints.push(Lint {
            rule: "unbounded-write",
            message: format!("DELETE FROM `{table}` has no WHERE clause (whole-table write set)"),
        }),
        _ => {}
    }
    lints
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn catalog() -> KeyCatalog {
        let mut keys = KeyCatalog::new();
        let create =
            parse("CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT UNIQUE, body TEXT)")
                .unwrap();
        keys.observe(&create);
        keys
    }

    #[test]
    fn column_set_intersection_semantics() {
        let all = ColumnSet::All;
        let empty = ColumnSet::empty();
        let ab = ColumnSet::named(["a", "b"]);
        let bc = ColumnSet::named(["B", "c"]);
        let d = ColumnSet::named(["d"]);
        // All models row membership, so it intersects even the empty set.
        assert!(all.intersects(&empty));
        assert!(empty.intersects(&all));
        assert!(all.intersects(&all));
        // Named sets intersect set-wise, case-insensitively.
        assert!(ab.intersects(&bc));
        assert!(!ab.intersects(&d));
        assert!(!empty.intersects(&ab));
        assert!(!empty.intersects(&empty));
    }

    #[test]
    fn column_set_subset_and_union() {
        let mut s = ColumnSet::named(["a"]);
        s.union_with(&ColumnSet::named(["b"]));
        assert!(s.contains("A") && s.contains("b"));
        assert!(ColumnSet::All.contains_set(&s));
        assert!(!s.contains_set(&ColumnSet::All));
        assert!(s.contains_set(&ColumnSet::named(["b"])));
        s.union_with(&ColumnSet::All);
        assert!(s.is_all());
    }

    #[test]
    fn select_footprint_reads_projection_where_and_order() {
        let stmt = parse("SELECT title FROM page WHERE page_id = 1 ORDER BY body").unwrap();
        let fp = analyze(&stmt, &catalog());
        assert_eq!(
            fp.read_columns,
            ColumnSet::named(["title", "page_id", "body"])
        );
        assert!(fp.write_columns.is_empty());
        assert!(!fp.membership_write);
        assert!(fp.key_bounded);
        assert_eq!(fp.precision, Precision::Exact);
    }

    #[test]
    fn select_star_is_imprecise_all() {
        let stmt = parse("SELECT * FROM page WHERE page_id = 1").unwrap();
        let fp = analyze(&stmt, &catalog());
        assert!(fp.read_columns.is_all());
        assert!(fp.precision.is_imprecise());
        // Still key-bounded: imprecision is about columns, not rows.
        assert!(fp.key_bounded);
    }

    #[test]
    fn unbounded_scan_is_imprecise_but_columns_stay_tight() {
        let stmt = parse("SELECT body FROM page WHERE title LIKE '%x%'").unwrap();
        let fp = analyze(&stmt, &catalog());
        assert_eq!(fp.read_columns, ColumnSet::named(["body", "title"]));
        assert!(!fp.key_bounded);
        assert!(fp.precision.is_imprecise());
    }

    #[test]
    fn update_footprint_separates_read_and_write_columns() {
        let stmt = parse("UPDATE page SET body = body || '!' WHERE title = 'Main'").unwrap();
        let fp = analyze(&stmt, &catalog());
        assert_eq!(fp.read_columns, ColumnSet::named(["body", "title"]));
        assert_eq!(fp.write_columns, ColumnSet::named(["body"]));
        assert_eq!(fp.effective_write_columns(), ColumnSet::named(["body"]));
        assert!(!fp.membership_write);
        assert!(fp.key_bounded, "title is UNIQUE");
    }

    #[test]
    fn insert_and_delete_are_membership_writes() {
        let stmt = parse("INSERT INTO page (page_id, title) VALUES (9, 'New')").unwrap();
        let fp = analyze(&stmt, &catalog());
        assert_eq!(fp.write_columns, ColumnSet::named(["page_id", "title"]));
        assert!(fp.membership_write);
        assert!(fp.effective_write_columns().is_all());
        assert!(fp.key_bounded);

        let stmt = parse("DELETE FROM page WHERE page_id = 9").unwrap();
        let fp = analyze(&stmt, &catalog());
        assert_eq!(fp.read_columns, ColumnSet::named(["page_id"]));
        assert!(fp.membership_write);
        assert!(fp.effective_write_columns().is_all());
        assert!(fp.key_bounded);
    }

    #[test]
    fn partition_keys_can_bound_rows() {
        let mut keys = KeyCatalog::new();
        keys.add_key("note", ["topic"]);
        let stmt = parse("SELECT body FROM note WHERE topic = 'warp'").unwrap();
        assert!(analyze(&stmt, &keys).key_bounded);
        let stmt = parse("SELECT body FROM note WHERE body = 'x'").unwrap();
        assert!(!analyze(&stmt, &keys).key_bounded);
    }

    #[test]
    fn lints_flag_select_star_and_unbounded_writes() {
        let select_star = parse("SELECT * FROM page").unwrap();
        assert_eq!(lint_statement(&select_star)[0].rule, "select-star");
        let bare_update = parse("UPDATE page SET body = 'x'").unwrap();
        assert_eq!(lint_statement(&bare_update)[0].rule, "unbounded-write");
        let bare_delete = parse("DELETE FROM page").unwrap();
        assert_eq!(lint_statement(&bare_delete)[0].rule, "unbounded-write");
        let bounded = parse("UPDATE page SET body = 'x' WHERE page_id = 1").unwrap();
        assert!(lint_statement(&bounded).is_empty());
    }
}
