//! Recursive-descent parser for the supported SQL dialect.

use crate::ast::{
    AggregateFunc, Assignment, BinaryOp, ColumnConstraint, ColumnDef, Expr, OrderBy, SelectItem,
    SelectStatement, Statement, TableConstraint, UnaryOp,
};
use crate::error::{SqlError, SqlResult};
use crate::lexer::{tokenize, tokenize_template, Token};
use crate::schema::ColumnType;
use crate::value::Value;

/// Parses a single SQL statement.
///
/// # Examples
///
/// ```
/// let stmt = warp_sql::parse("SELECT * FROM page WHERE page_id = 3").unwrap();
/// assert_eq!(stmt.table_name(), Some("page"));
/// ```
pub fn parse(sql: &str) -> SqlResult<Statement> {
    Parser {
        tokens: tokenize(sql)?,
        holes: Vec::new(),
        pos: 0,
        params: 0,
    }
    .parse_all()
}

/// Parses a single SQL statement into its *template*: the statement
/// [`parse`] returns, with each literal that [`crate::prepare`] takes out of
/// the text replaced by the [`Expr::Param`] of its index there. Executing
/// the template with the text's literals as parameters is executing the
/// statement. Every text of one shape has the same template; a text that
/// [`parse`] rejects is rejected here with the same error.
///
/// # Examples
///
/// ```
/// let sql = "SELECT body FROM page WHERE title = 'Main' LIMIT 1";
/// let template = warp_sql::parse_template(sql).unwrap();
/// assert_eq!(template.to_string(), "SELECT FROM page WHERE (title = ?0)");
/// let other = "SELECT body FROM page WHERE title = 'Help' LIMIT 1";
/// assert_eq!(warp_sql::parse_template(other).unwrap(), template);
/// ```
pub fn parse_template(sql: &str) -> SqlResult<Statement> {
    let (tokens, holes) = tokenize_template(sql)?;
    Parser {
        tokens,
        holes,
        pos: 0,
        params: 0,
    }
    .parse_all()
}

struct Parser {
    tokens: Vec<Token>,
    /// For a template parse, the index of the hole each token is, if it is
    /// one; empty otherwise.
    holes: Vec<Option<usize>>,
    pos: usize,
    /// How many holes became [`Expr::Param`]s.
    params: usize,
}

impl Parser {
    fn parse_all(mut self) -> SqlResult<Statement> {
        let stmt = self.parse_statement()?;
        // Allow a trailing semicolon.
        if self.peek_symbol(";") {
            self.pos += 1;
        }
        if self.pos != self.tokens.len() {
            return Err(SqlError::Parse(format!(
                "unexpected trailing tokens starting at {:?}",
                self.tokens[self.pos]
            )));
        }
        debug_assert_eq!(
            self.params,
            self.holes.iter().flatten().count(),
            "every literal the shape takes out is a hole of the template"
        );
        Ok(stmt)
    }

    /// The expression for the literal token at `at`.
    fn literal(&mut self, at: usize, value: Value) -> Expr {
        match self.holes.get(at) {
            Some(Some(hole)) => {
                self.params += 1;
                Expr::Param(*hole)
            }
            _ => Expr::Literal(value),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        self.peek().map(|t| t.is_keyword(kw)).unwrap_or(false)
    }

    fn peek_symbol(&self, sym: &str) -> bool {
        self.peek().map(|t| t.is_symbol(sym)).unwrap_or(false)
    }

    fn next(&mut self) -> SqlResult<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| SqlError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_keyword(&mut self, kw: &str) -> SqlResult<()> {
        let t = self.next()?;
        if t.is_keyword(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected keyword {kw}, found {t:?}"
            )))
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> SqlResult<()> {
        let t = self.next()?;
        if t.is_symbol(sym) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected symbol {sym:?}, found {t:?}"
            )))
        }
    }

    fn accept_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn accept_symbol(&mut self, sym: &str) -> bool {
        if self.peek_symbol(sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> SqlResult<String> {
        let t = self.next()?;
        match t {
            Token::Ident(s) => Ok(s),
            other => Err(SqlError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn parse_statement(&mut self) -> SqlResult<Statement> {
        if self.accept_keyword("select") {
            return self.parse_select();
        }
        if self.accept_keyword("insert") {
            return self.parse_insert();
        }
        if self.accept_keyword("update") {
            return self.parse_update();
        }
        if self.accept_keyword("delete") {
            return self.parse_delete();
        }
        if self.accept_keyword("create") {
            return self.parse_create_table();
        }
        if self.accept_keyword("drop") {
            self.expect_keyword("table")?;
            let name = self.expect_ident()?;
            return Ok(Statement::DropTable { name });
        }
        if self.accept_keyword("alter") {
            return self.parse_alter();
        }
        Err(SqlError::Parse(format!(
            "unsupported statement start: {:?}",
            self.peek()
        )))
    }

    fn parse_select(&mut self) -> SqlResult<Statement> {
        let mut items = Vec::new();
        loop {
            if self.accept_symbol("*") {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.parse_expr()?;
                let alias = if self.accept_keyword("as") {
                    Some(self.expect_ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.accept_symbol(",") {
                break;
            }
        }
        self.expect_keyword("from")?;
        let table = self.expect_ident()?;
        let where_clause = if self.accept_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.accept_keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let expr = self.parse_expr()?;
                let ascending = if self.accept_keyword("desc") {
                    false
                } else {
                    self.accept_keyword("asc");
                    true
                };
                order_by.push(OrderBy { expr, ascending });
                if !self.accept_symbol(",") {
                    break;
                }
            }
        }
        let limit = if self.accept_keyword("limit") {
            match self.next()? {
                Token::IntLit(n) if n >= 0 => Some(n as u64),
                other => return Err(SqlError::Parse(format!("bad LIMIT: {other:?}"))),
            }
        } else {
            None
        };
        Ok(Statement::Select(SelectStatement {
            items,
            table,
            where_clause,
            order_by,
            limit,
        }))
    }

    fn parse_insert(&mut self) -> SqlResult<Statement> {
        self.expect_keyword("into")?;
        let table = self.expect_ident()?;
        self.expect_symbol("(")?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.expect_ident()?);
            if !self.accept_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        self.expect_keyword("values")?;
        let mut values = Vec::new();
        loop {
            self.expect_symbol("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.parse_expr()?);
                if !self.accept_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            if row.len() != columns.len() {
                return Err(SqlError::Parse(format!(
                    "INSERT row has {} values but {} columns were named",
                    row.len(),
                    columns.len()
                )));
            }
            values.push(row);
            if !self.accept_symbol(",") {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            values,
        })
    }

    fn parse_update(&mut self) -> SqlResult<Statement> {
        let table = self.expect_ident()?;
        self.expect_keyword("set")?;
        let mut assignments = Vec::new();
        loop {
            let column = self.expect_ident()?;
            self.expect_symbol("=")?;
            let value = self.parse_expr()?;
            assignments.push(Assignment { column, value });
            if !self.accept_symbol(",") {
                break;
            }
        }
        let where_clause = if self.accept_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            where_clause,
        })
    }

    fn parse_delete(&mut self) -> SqlResult<Statement> {
        self.expect_keyword("from")?;
        let table = self.expect_ident()?;
        let where_clause = if self.accept_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
            where_clause,
        })
    }

    fn parse_create_table(&mut self) -> SqlResult<Statement> {
        self.expect_keyword("table")?;
        let name = self.expect_ident()?;
        self.expect_symbol("(")?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        loop {
            if self.peek_keyword("unique") || self.peek_keyword("primary") {
                constraints.push(self.parse_table_constraint()?);
            } else {
                columns.push(self.parse_column_def()?);
            }
            if !self.accept_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        Ok(Statement::CreateTable {
            name,
            columns,
            constraints,
        })
    }

    fn parse_table_constraint(&mut self) -> SqlResult<TableConstraint> {
        if self.accept_keyword("unique") {
            self.expect_symbol("(")?;
            let cols = self.parse_ident_list()?;
            self.expect_symbol(")")?;
            Ok(TableConstraint::Unique(cols))
        } else {
            self.expect_keyword("primary")?;
            self.expect_keyword("key")?;
            self.expect_symbol("(")?;
            let cols = self.parse_ident_list()?;
            self.expect_symbol(")")?;
            Ok(TableConstraint::PrimaryKey(cols))
        }
    }

    fn parse_ident_list(&mut self) -> SqlResult<Vec<String>> {
        let mut out = vec![self.expect_ident()?];
        while self.accept_symbol(",") {
            out.push(self.expect_ident()?);
        }
        Ok(out)
    }

    fn parse_column_def(&mut self) -> SqlResult<ColumnDef> {
        let name = self.expect_ident()?;
        let type_name = self.expect_ident()?;
        let col_type = ColumnType::from_name(&type_name);
        let mut def = ColumnDef::new(name, col_type);
        loop {
            if self.accept_keyword("primary") {
                self.expect_keyword("key")?;
                def.constraints.push(ColumnConstraint::PrimaryKey);
            } else if self.accept_keyword("unique") {
                def.constraints.push(ColumnConstraint::Unique);
            } else if self.accept_keyword("not") {
                self.expect_keyword("null")?;
                def.constraints.push(ColumnConstraint::NotNull);
            } else if self.accept_keyword("default") {
                let expr = self.parse_primary()?;
                match expr {
                    Expr::Literal(v) => def.default = Some(v),
                    Expr::Unary {
                        op: UnaryOp::Neg,
                        operand,
                    } => match *operand {
                        Expr::Literal(Value::Int(i)) => def.default = Some(Value::Int(-i)),
                        Expr::Literal(Value::Float(f)) => def.default = Some(Value::Float(-f)),
                        other => {
                            return Err(SqlError::Parse(format!("bad DEFAULT value: {other:?}")))
                        }
                    },
                    other => return Err(SqlError::Parse(format!("bad DEFAULT value: {other:?}"))),
                }
            } else {
                break;
            }
        }
        Ok(def)
    }

    fn parse_alter(&mut self) -> SqlResult<Statement> {
        self.expect_keyword("table")?;
        let table = self.expect_ident()?;
        self.expect_keyword("add")?;
        // `COLUMN` keyword is optional, as in PostgreSQL.
        self.accept_keyword("column");
        let column = self.parse_column_def()?;
        Ok(Statement::AlterTableAddColumn { table, column })
    }

    // Expression grammar, lowest to highest precedence:
    //   or_expr   := and_expr (OR and_expr)*
    //   and_expr  := not_expr (AND not_expr)*
    //   not_expr  := NOT not_expr | cmp_expr
    //   cmp_expr  := add_expr ((= | <> | < | <= | > | >= | LIKE) add_expr
    //                 | IS [NOT] NULL | [NOT] IN (list))?
    //   add_expr  := mul_expr ((+ | - | ||) mul_expr)*
    //   mul_expr  := unary ((* | /) unary)*
    //   unary     := - unary | primary
    //   primary   := literal | column | aggregate | ( or_expr )
    fn parse_expr(&mut self) -> SqlResult<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> SqlResult<Expr> {
        let mut left = self.parse_and()?;
        while self.accept_keyword("or") {
            let right = self.parse_and()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::Or,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> SqlResult<Expr> {
        let mut left = self.parse_not()?;
        while self.accept_keyword("and") {
            let right = self.parse_not()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::And,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> SqlResult<Expr> {
        if self.accept_keyword("not") {
            let operand = self.parse_not()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                operand: Box::new(operand),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> SqlResult<Expr> {
        let left = self.parse_additive()?;
        if self.accept_keyword("is") {
            let negated = self.accept_keyword("not");
            self.expect_keyword("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        if self.peek_keyword("not")
            && self
                .tokens
                .get(self.pos + 1)
                .map(|t| t.is_keyword("in"))
                .unwrap_or(false)
        {
            self.pos += 2;
            return self.parse_in_list(left, true);
        }
        if self.accept_keyword("in") {
            return self.parse_in_list(left, false);
        }
        if self.accept_keyword("like") {
            let right = self.parse_additive()?;
            return Ok(Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::Like,
                right: Box::new(right),
            });
        }
        let op = if self.accept_symbol("=") {
            Some(BinaryOp::Eq)
        } else if self.accept_symbol("<>") || self.accept_symbol("!=") {
            Some(BinaryOp::NotEq)
        } else if self.accept_symbol("<=") {
            Some(BinaryOp::LtEq)
        } else if self.accept_symbol(">=") {
            Some(BinaryOp::GtEq)
        } else if self.accept_symbol("<") {
            Some(BinaryOp::Lt)
        } else if self.accept_symbol(">") {
            Some(BinaryOp::Gt)
        } else {
            None
        };
        match op {
            Some(op) => {
                let right = self.parse_additive()?;
                Ok(Expr::Binary {
                    left: Box::new(left),
                    op,
                    right: Box::new(right),
                })
            }
            None => Ok(left),
        }
    }

    fn parse_in_list(&mut self, left: Expr, negated: bool) -> SqlResult<Expr> {
        self.expect_symbol("(")?;
        let mut list = Vec::new();
        if !self.peek_symbol(")") {
            loop {
                list.push(self.parse_expr()?);
                if !self.accept_symbol(",") {
                    break;
                }
            }
        }
        self.expect_symbol(")")?;
        Ok(Expr::InList {
            expr: Box::new(left),
            list,
            negated,
        })
    }

    fn parse_additive(&mut self) -> SqlResult<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = if self.accept_symbol("+") {
                BinaryOp::Add
            } else if self.accept_symbol("-") {
                BinaryOp::Sub
            } else if self.accept_symbol("||") {
                BinaryOp::Concat
            } else {
                break;
            };
            let right = self.parse_multiplicative()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> SqlResult<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = if self.accept_symbol("*") {
                BinaryOp::Mul
            } else if self.accept_symbol("/") {
                BinaryOp::Div
            } else {
                break;
            };
            let right = self.parse_unary()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> SqlResult<Expr> {
        if self.accept_symbol("-") {
            let operand = self.parse_unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                operand: Box::new(operand),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> SqlResult<Expr> {
        if self.accept_symbol("(") {
            let inner = self.parse_expr()?;
            self.expect_symbol(")")?;
            return Ok(inner);
        }
        let at = self.pos;
        let t = self.next()?;
        match t {
            Token::IntLit(i) => Ok(self.literal(at, Value::Int(i))),
            Token::FloatLit(f) => Ok(self.literal(at, Value::Float(f))),
            Token::StringLit(s) => Ok(self.literal(at, Value::Text(s))),
            Token::Ident(name) => {
                let lower = name.to_ascii_lowercase();
                match lower.as_str() {
                    "null" => Ok(Expr::Literal(Value::Null)),
                    "true" => Ok(Expr::Literal(Value::Bool(true))),
                    "false" => Ok(Expr::Literal(Value::Bool(false))),
                    "count" | "max" | "min" | "sum" if self.peek_symbol("(") => {
                        self.expect_symbol("(")?;
                        let func = match lower.as_str() {
                            "count" => AggregateFunc::Count,
                            "max" => AggregateFunc::Max,
                            "min" => AggregateFunc::Min,
                            _ => AggregateFunc::Sum,
                        };
                        let arg = if self.accept_symbol("*") {
                            None
                        } else {
                            Some(Box::new(self.parse_expr()?))
                        };
                        self.expect_symbol(")")?;
                        Ok(Expr::Aggregate { func, arg })
                    }
                    _ => Ok(Expr::Column(name)),
                }
            }
            other => Err(SqlError::Parse(format!(
                "unexpected token in expression: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_select_with_everything() {
        let stmt = parse(
            "SELECT title, COUNT(*) AS n FROM page WHERE owner = 'alice' AND views >= 10 \
             ORDER BY title DESC LIMIT 5",
        )
        .unwrap();
        match stmt {
            Statement::Select(s) => {
                assert_eq!(s.items.len(), 2);
                assert_eq!(s.table, "page");
                assert!(s.where_clause.is_some());
                assert_eq!(s.order_by.len(), 1);
                assert!(!s.order_by[0].ascending);
                assert_eq!(s.limit, Some(5));
            }
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parses_insert_multi_row() {
        let stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match stmt {
            Statement::Insert {
                columns, values, ..
            } => {
                assert_eq!(columns, vec!["a", "b"]);
                assert_eq!(values.len(), 2);
            }
            other => panic!("expected insert, got {other:?}"),
        }
    }

    #[test]
    fn rejects_mismatched_insert_arity() {
        assert!(parse("INSERT INTO t (a, b) VALUES (1)").is_err());
    }

    #[test]
    fn parses_update_and_delete() {
        let stmt = parse("UPDATE t SET a = a + 1, b = 'x' WHERE id = 3").unwrap();
        match stmt {
            Statement::Update {
                assignments,
                where_clause,
                ..
            } => {
                assert_eq!(assignments.len(), 2);
                assert!(where_clause.is_some());
            }
            other => panic!("expected update, got {other:?}"),
        }
        let stmt = parse("DELETE FROM t").unwrap();
        assert!(matches!(
            stmt,
            Statement::Delete {
                where_clause: None,
                ..
            }
        ));
    }

    #[test]
    fn parses_create_table_with_constraints() {
        let stmt = parse(
            "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT NOT NULL, \
             views INTEGER DEFAULT 0, UNIQUE (title))",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable {
                columns,
                constraints,
                ..
            } => {
                assert_eq!(columns.len(), 3);
                assert!(columns[0].is_primary_key());
                assert!(columns[1].is_not_null());
                assert_eq!(columns[2].default, Some(Value::Int(0)));
                assert_eq!(constraints.len(), 1);
            }
            other => panic!("expected create, got {other:?}"),
        }
    }

    #[test]
    fn parses_alter_and_drop() {
        let stmt = parse("ALTER TABLE t ADD COLUMN row_id INTEGER").unwrap();
        assert!(matches!(stmt, Statement::AlterTableAddColumn { .. }));
        let stmt = parse("DROP TABLE t;").unwrap();
        assert!(matches!(stmt, Statement::DropTable { .. }));
    }

    #[test]
    fn parses_in_list_and_is_null() {
        let stmt = parse("SELECT * FROM t WHERE a IN (1, 2, 3) AND b IS NOT NULL").unwrap();
        let w = stmt.where_clause().unwrap().clone();
        let cols = w.referenced_columns();
        assert!(cols.contains(&"a".to_string()) && cols.contains(&"b".to_string()));
    }

    #[test]
    fn parses_not_in() {
        let stmt = parse("SELECT * FROM t WHERE a NOT IN (1, 2)").unwrap();
        match stmt.where_clause().unwrap() {
            Expr::InList { negated, list, .. } => {
                assert!(*negated);
                assert_eq!(list.len(), 2);
            }
            other => panic!("expected IN list, got {other:?}"),
        }
    }

    #[test]
    fn parses_precedence() {
        // a = 1 OR b = 2 AND c = 3 parses as a = 1 OR (b = 2 AND c = 3).
        let stmt = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        match stmt.where_clause().unwrap() {
            Expr::Binary {
                op: BinaryOp::Or, ..
            } => {}
            other => panic!("expected OR at top level, got {other:?}"),
        }
    }

    #[test]
    fn parses_string_concat_and_arithmetic() {
        let stmt = parse("UPDATE t SET body = body || '!', n = n * 2 + 1").unwrap();
        match stmt {
            Statement::Update { assignments, .. } => {
                assert!(matches!(
                    assignments[0].value,
                    Expr::Binary {
                        op: BinaryOp::Concat,
                        ..
                    }
                ));
            }
            other => panic!("expected update, got {other:?}"),
        }
    }

    #[test]
    fn a_template_with_its_literals_is_the_parsed_statement() {
        for sql in [
            "SELECT title, views + 1 FROM page WHERE owner = 'alice' AND views >= -10 LIMIT 5",
            "SELECT * FROM t WHERE a IN (1, 2.5, 'x') AND b IS NOT NULL AND c LIKE '%'",
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'it''s')",
            "UPDATE t SET body = body || '!', n = n * 2 + 1 WHERE id = 3",
            "DELETE FROM t WHERE a = 1 OR b = 'x'",
            "select a from t order by a \"limit\" 5",
        ] {
            let stmt = parse(sql).unwrap();
            let template = parse_template(sql).unwrap();
            let params = crate::prepare(sql).unwrap().params;
            assert!(!stmt.has_params());
            assert_eq!(template.has_params(), !params.is_empty(), "{sql}");
            // Same statement kind, table and LIMIT; same text once the
            // holes are filled.
            assert_eq!(template.table_name(), stmt.table_name());
            if let (Statement::Select(t), Statement::Select(s)) = (&template, &stmt) {
                assert_eq!(t.limit, s.limit);
            }
            if let (Some(t), Some(s)) = (template.where_clause(), stmt.where_clause()) {
                assert_eq!(t.display(&params).to_string(), s.to_string(), "{sql}");
            }
            // And the same rows, through the engine.
            let mut a = crate::Database::new();
            let mut b = crate::Database::new();
            for db in [&mut a, &mut b] {
                db.execute_sql(
                    "CREATE TABLE t (id INTEGER, a INTEGER, b TEXT, c TEXT, n INTEGER, body TEXT)",
                )
                .unwrap();
                db.execute_sql("CREATE TABLE page (title TEXT, owner TEXT, views INTEGER)")
                    .unwrap();
                db.execute_sql("INSERT INTO t (id, a, b, c, n, body) VALUES (3, 1, 'x', 'c', 2, 'hi'), (4, 2, 'y', 'd', 3, 'yo')").unwrap();
                db.execute_sql(
                    "INSERT INTO page (title, owner, views) VALUES ('Main', 'alice', 3)",
                )
                .unwrap();
            }
            assert_eq!(
                format!("{:?}", a.execute(&stmt)),
                format!("{:?}", b.execute_with(&template, &params)),
                "{sql}"
            );
            assert_eq!(
                format!("{:?}", a.table("t").unwrap().rows()),
                format!("{:?}", b.table("t").unwrap().rows())
            );
        }
        // Statements other than the four data statements have no holes.
        let ddl = "CREATE TABLE t (a INTEGER DEFAULT 1, b TEXT DEFAULT 'x')";
        assert_eq!(parse_template(ddl).unwrap(), parse(ddl).unwrap());
        // A text `parse` rejects is rejected the same way.
        for bad in [
            "SELECT * FROM t LIMIT 'x'",
            "SELECT * FROM t WHERE",
            "SELECT 'open",
        ] {
            assert_eq!(parse_template(bad).unwrap_err(), parse(bad).unwrap_err());
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("SELEKT * FROM t").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t extra garbage").is_err());
    }
}
