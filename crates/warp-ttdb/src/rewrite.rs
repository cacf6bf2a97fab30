//! SQL query rewriting for continuous versioning and repair generations
//! (paper §4.4).

use crate::dependency::{PartitionKey, PartitionSet};
use crate::versioned::{COL_END_GEN, COL_END_TIME, COL_START_GEN, COL_START_TIME};
use std::collections::BTreeSet;
use warp_sql::ast::BinaryOp;
use warp_sql::{Expr, Operand, Value};

/// Builds the predicate selecting row versions valid at `time` in `gen`:
/// `start_time <= T AND end_time > T AND start_gen <= G AND end_gen >= G`.
/// A plan passes the two holes its executions fill with their time and
/// generation.
///
/// Versions use half-open `[start_time, end_time)` intervals, so a query at
/// exactly the moment a row was superseded sees the *new* version, never
/// both.
pub(crate) fn validity(time: Expr, gen: Expr) -> Expr {
    let cmp = |column: &str, op, bound: &Expr| Expr::Binary {
        left: Box::new(Expr::Column(column.into())),
        op,
        right: Box::new(bound.clone()),
    };
    cmp(COL_START_TIME, BinaryOp::LtEq, &time)
        .and(cmp(COL_END_TIME, BinaryOp::Gt, &time))
        .and(cmp(COL_START_GEN, BinaryOp::LtEq, &gen))
        .and(cmp(COL_END_GEN, BinaryOp::GtEq, &gen))
}

/// `where_clause AND validity`, or just `validity` without a clause.
pub(crate) fn and_valid(where_clause: Option<Expr>, validity: Expr) -> Expr {
    match where_clause {
        Some(existing) => existing.and(validity),
        None => validity,
    }
}

/// The partitions a statement *reads*, as far as its `WHERE` clause decides
/// them before its holes are filled (paper §4.1): the partition columns its
/// required equalities pin, each to a literal or to a hole.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Pins {
    /// No partition column is pinned (or the table has none, or the
    /// statement has no `WHERE` clause): the statement depends on the whole
    /// table.
    Whole,
    /// The pinned partition columns (lower-cased), in source order.
    Columns(Vec<(String, Pin)>),
}

/// What a statement shape pins a partition column to.
#[derive(Debug, Clone, PartialEq)]
pub enum Pin {
    /// A literal that is part of the shape.
    Literal(Value),
    /// The hole of this index: the text's literal of that position in
    /// [`warp_sql::Prepared::params`].
    Param(usize),
}

impl Pins {
    /// Reads the pins off a `WHERE` clause.
    pub(crate) fn of(where_clause: Option<&Expr>, partition_columns: &[String]) -> Pins {
        let mut pins = Vec::new();
        if let Some(w) = where_clause {
            w.each_required_equality(&mut |col, operand| {
                if partition_columns
                    .iter()
                    .any(|p| p.eq_ignore_ascii_case(col))
                {
                    let pin = match operand {
                        Operand::Literal(v) => Pin::Literal(v.clone()),
                        Operand::Param(i) => Pin::Param(i),
                    };
                    pins.push((col.to_ascii_lowercase(), pin));
                }
            });
        }
        if pins.is_empty() {
            Pins::Whole
        } else {
            Pins::Columns(pins)
        }
    }

    /// The partition set of one execution: `params` fills the holes.
    /// `table` is the lower-cased table name.
    pub(crate) fn resolve(&self, table: &str, params: &[Value]) -> PartitionSet {
        let whole = || PartitionSet::Whole {
            table: table.to_string(),
        };
        let Pins::Columns(pins) = self else {
            return whole();
        };
        let mut keys = BTreeSet::new();
        for (column, pin) in pins {
            let value = match pin {
                Pin::Literal(v) => v,
                Pin::Param(i) => match params.get(*i) {
                    Some(v) => v,
                    // Unknown value: every partition.
                    None => return whole(),
                },
            };
            keys.insert(PartitionKey {
                table: table.to_string(),
                column: column.clone(),
                value: value.as_display_string(),
            });
        }
        PartitionSet::Keys(keys)
    }
}

/// Computes the partitions touched by a set of concrete row values (used for
/// the *write* side of dependencies, where the exact rows are known).
pub fn partitions_of_rows<'a>(
    table: &str,
    partition_columns: &[String],
    rows: impl IntoIterator<Item = &'a [(String, Value)]>,
) -> PartitionSet {
    if partition_columns.is_empty() {
        return PartitionSet::whole(table);
    }
    let mut keys = BTreeSet::new();
    for row in rows {
        for (col, value) in row {
            if partition_columns
                .iter()
                .any(|p| p.eq_ignore_ascii_case(col))
            {
                keys.insert(PartitionKey::new(table, col, value));
            }
        }
    }
    PartitionSet::Keys(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_sql::parse;

    /// The `WHERE` clause of `sql` restricted to the versions valid at
    /// `(time, gen)`.
    fn restricted(sql: &str, time: i64, gen: i64) -> String {
        let stmt = parse(sql).unwrap();
        let valid = validity(
            Expr::Literal(Value::Int(time)),
            Expr::Literal(Value::Int(gen)),
        );
        and_valid(stmt.where_clause().cloned(), valid).to_string()
    }

    #[test]
    fn validity_predicate_is_added_to_where() {
        let rendered = restricted("SELECT * FROM page WHERE title = 'Main'", 42, 1);
        assert!(rendered.contains("title = 'Main'"));
        assert!(rendered.contains("warp_start_time <= 42"));
        assert!(rendered.contains("warp_end_time > 42"));
        assert!(rendered.contains("warp_end_gen >= 1"));
    }

    #[test]
    fn validity_predicate_added_even_without_where() {
        let rendered = restricted("SELECT * FROM page", 5, 0);
        assert!(rendered.contains("warp_start_time <= 5"), "{rendered}");
        assert!(rendered.contains("warp_end_gen >= 0"), "{rendered}");
    }

    /// The partitions `sql` reads: its pins, resolved without parameters.
    fn reads(sql: &str, partition_columns: &[String]) -> PartitionSet {
        Pins::of(parse(sql).unwrap().where_clause(), partition_columns).resolve("page", &[])
    }

    #[test]
    fn read_partitions_from_pinned_columns() {
        let cols = vec!["title".to_string(), "owner".to_string()];
        match reads(
            "SELECT * FROM page WHERE title = 'Main' AND views > 3",
            &cols,
        ) {
            PartitionSet::Keys(keys) => {
                assert_eq!(keys.len(), 1);
                assert!(keys
                    .iter()
                    .any(|k| k.column == "title" && k.value == "Main"));
            }
            other => panic!("expected keys, got {other:?}"),
        }
    }

    #[test]
    fn unpinned_or_disjunctive_queries_read_the_whole_table() {
        let cols = vec!["title".to_string()];
        for sql in [
            "SELECT * FROM page WHERE views > 3",
            "SELECT * FROM page WHERE title = 'A' OR title = 'B'",
            "SELECT * FROM page",
        ] {
            assert_eq!(reads(sql, &cols), PartitionSet::whole("page"));
        }
        // No partition columns configured: always whole-table.
        assert_eq!(
            reads("SELECT * FROM page WHERE title = 'Main'", &[]),
            PartitionSet::whole("page")
        );
    }

    #[test]
    fn partitions_of_rows_collects_values() {
        let cols = vec!["title".to_string()];
        let rows: Vec<Vec<(String, Value)>> = vec![
            vec![
                ("title".to_string(), Value::text("Main")),
                ("views".to_string(), Value::Int(1)),
            ],
            vec![("title".to_string(), Value::text("Help"))],
        ];
        match partitions_of_rows("page", &cols, rows.iter().map(|r| r.as_slice())) {
            PartitionSet::Keys(keys) => assert_eq!(keys.len(), 2),
            other => panic!("expected keys, got {other:?}"),
        }
    }
}
