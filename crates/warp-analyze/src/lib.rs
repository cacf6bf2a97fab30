//! `warp-analyze` — static analysis over an application's SQL query corpus.
//!
//! WASL applications build SQL by string concatenation (`"SELECT ... '" .
//! sql_escape(x) . "'"`), exactly like the PHP applications the paper
//! retrofits. This crate reads every `db_query(...)` call site off an
//! application's *compiled* programs ([`warp_core::sites()`] — the walk the
//! shard router uses), turns each into the statement template its requests
//! will execute ([`warp_core::site_template`], then
//! [`warp_sql::parse_template`] — what the server's plan table holds), and
//! runs two analyses over the result:
//!
//! * **Footprints** ([`corpus_footprints`]): the conservative
//!   column-granularity [`warp_sql::StatementFootprint`] of each template —
//!   the same analysis the repair frontier uses at runtime, surfaced
//!   offline so a programmer can see which queries defeat column-level
//!   pruning (`SELECT *`, unbounded row sets) before an intrusion happens.
//! * **Lints** ([`corpus_lints`]): precision-defeating and
//!   injection-adjacent query shapes. Statement-level rules come from
//!   [`warp_sql::lint_statement`] (`select-star`, `unbounded-write`); the
//!   WASL-level `unescaped-concat` rule reports SQL built from values that
//!   pass through neither `sql_escape(...)` nor `int(...)`
//!   ([`warp_core::sites::Sites::is_sanitized`]).
//!
//! The `warp-analyze` binary wires both over the canonical wiki/blog/
//! gallery [`corpus`], with a committed baseline file so CI fails only on
//! *new* lint findings (the wiki ships intentionally vulnerable variants
//! of its search and maintenance pages — those findings are expected).

use warp_apps::blog::{blog_app, BlogBug};
use warp_apps::gallery::{gallery_app, GalleryBug};
use warp_apps::wiki::wiki_app;
use warp_core::sites::{sites, Part};
use warp_core::{site_template, AppConfig, SourceStore};
use warp_sql::{analyze, lint_statement, KeyCatalog, Statement, StatementFootprint};

/// The canonical applications the binary (and the committed lint baseline)
/// cover.
pub fn corpus() -> Vec<AppConfig> {
    vec![
        wiki_app(2, 2),
        blog_app(BlogBug::LostVotes, 1),
        gallery_app(GalleryBug::RemovingPermissions, 1),
    ]
}

/// One `db_query(...)` call site of a WASL source file.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySite {
    /// Source filename the call appears in.
    pub file: String,
    /// 1-based line of the `db_query` token.
    pub line: usize,
    /// The SQL text a request sends, with a placeholder in each hole
    /// ([`warp_core::SiteTemplate::sql`]); empty if the site has no such
    /// text.
    pub template: String,
    /// The statement template every request of the site executes, or why
    /// the site has none: its SQL is computed rather than written, a value
    /// is concatenated outside a literal, or the text does not parse.
    pub statement: Result<Statement, String>,
    /// The concatenated expressions that are not sanitized, as source text.
    pub unescaped: Vec<String>,
}

/// One lint finding over a corpus.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Source filename.
    pub file: String,
    /// 1-based line of the offending `db_query(`.
    pub line: usize,
    /// Rule identifier (`unescaped-concat`, `select-star`,
    /// `unbounded-write`, `unparseable-template`).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// The stable one-line form used for baseline files: the line number
    /// is deliberately omitted so unrelated edits shifting a file do not
    /// invalidate the baseline.
    pub fn baseline_key(&self) -> String {
        format!("{}\t{}\t{}", self.file, self.rule, self.message)
    }
}

/// Builds the key catalog for an application: every `CREATE TABLE` in the
/// config observed for PRIMARY KEY / UNIQUE columns, plus the annotated
/// row-ID column of each table (the time-travel layer keys rollback on it).
pub fn app_key_catalog(config: &AppConfig) -> KeyCatalog {
    let mut keys = KeyCatalog::new();
    for (create, annotation) in &config.tables {
        if let Ok(stmt) = warp_sql::parse(create) {
            keys.observe(&stmt);
            if let warp_sql::Statement::CreateTable { name, .. } = &stmt {
                if let Some(row_id) = &annotation.row_id_column {
                    keys.add_key(name, [row_id.clone()]);
                }
            }
        }
    }
    keys
}

/// Every query site of an application's sources, in file and source order.
/// A file that does not compile has none: it cannot run a query either.
pub fn app_sites(config: &AppConfig) -> Vec<QuerySite> {
    let mut compiled = SourceStore::new();
    let mut found = Vec::new();
    for (file, source) in &config.sources {
        compiled.install(file, source);
        let Some(Ok(program)) = compiled.program_at(file, 0) else {
            continue;
        };
        let in_file = sites(program);
        for site in &in_file.queries {
            let (template, statement) = match site_template(&site.parts) {
                Err(e) => (String::new(), Err(e.to_string())),
                Ok(template) => {
                    let statement = warp_sql::parse_template(&template.sql)
                        .map_err(|e| format!("template `{}` does not parse: {e}", template.sql));
                    (template.sql, statement)
                }
            };
            let unescaped = site.parts.iter().filter_map(|part| match part {
                Part::Hole { operand, .. } if !in_file.is_sanitized(part) => {
                    Some(operand.to_string())
                }
                _ => None,
            });
            found.push(QuerySite {
                file: file.clone(),
                line: site.line as usize,
                template,
                statement,
                unescaped: unescaped.collect(),
            });
        }
    }
    found
}

/// Computes the static footprint of every query site in an application,
/// or why the site has none (see [`QuerySite::statement`]; repair falls back
/// to row/partition granularity for such queries).
pub fn corpus_footprints(
    config: &AppConfig,
) -> Vec<(QuerySite, Result<StatementFootprint, String>)> {
    let keys = app_key_catalog(config);
    app_sites(config)
        .into_iter()
        .map(|site| {
            let statement = site.statement.as_ref().map_err(String::clone);
            let footprint = statement.map(|stmt| analyze(stmt, &keys));
            (site, footprint)
        })
        .collect()
}

/// Lints every query site in an application: the WASL-level
/// `unescaped-concat` rule plus the statement-level rules from
/// [`warp_sql::lint_statement`]. A site without a statement template is
/// itself a finding (`unparseable-template`) — such queries silently defeat
/// the column-level analysis.
pub fn corpus_lints(config: &AppConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for site in app_sites(config) {
        let mut report = |rule: &str, message: String| {
            findings.push(Finding {
                file: site.file.clone(),
                line: site.line,
                rule: rule.to_string(),
                message,
            })
        };
        for expr in &site.unescaped {
            report(
                "unescaped-concat",
                format!("SQL concatenates unescaped expression `{expr}`"),
            );
        }
        match &site.statement {
            Ok(stmt) => lint_statement(stmt)
                .into_iter()
                .for_each(|lint| report(lint.rule, lint.message)),
            Err(e) => report("unparseable-template", e.clone()),
        }
    }
    findings.sort();
    findings
}

/// Compares findings against a baseline (the output of a previous
/// `--lint` run): returns the findings whose [`Finding::baseline_key`] is
/// absent from the baseline text. CI commits the baseline and fails only
/// on regressions, so intentionally-vulnerable corpus entries (the wiki's
/// search/maintenance pages) do not block the build.
pub fn new_findings(findings: &[Finding], baseline: &str) -> Vec<Finding> {
    let known: std::collections::BTreeSet<&str> = baseline
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    findings
        .iter()
        .filter(|f| !known.contains(f.baseline_key().as_str()))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sites of one source file.
    fn sites_of(source: &str) -> Vec<QuerySite> {
        let mut config = AppConfig::new("test");
        config.add_source("f.wasl", source);
        app_sites(&config)
    }

    #[test]
    fn extracts_and_reconstructs_escaped_query() {
        let source = r#"let rows = db_query("SELECT body FROM page WHERE title = '" . sql_escape(title) . "'"); echo(rows);"#;
        let sites = sites_of(source);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].template, "SELECT body FROM page WHERE title = 'x'");
        assert_eq!(
            sites[0].statement,
            Ok(warp_sql::parse_template(&sites[0].template).unwrap())
        );
        assert!(sites[0].unescaped.is_empty());
        assert_eq!(sites[0].line, 1);
    }

    #[test]
    fn flags_unescaped_concatenation() {
        let source = r#"db_query("SELECT title FROM page WHERE body LIKE '%" . q . "%'");"#;
        let sites = sites_of(source);
        assert_eq!(sites[0].unescaped, vec!["q".to_string()]);
        assert_eq!(
            sites[0].template,
            "SELECT title FROM page WHERE body LIKE '%1%'"
        );
    }

    #[test]
    fn numeric_position_gets_numeric_placeholder() {
        let source = r#"db_query("INSERT INTO acl (acl_id, title) VALUES (" . next . ", '" . sql_escape(t) . "')");"#;
        let sites = sites_of(source);
        assert_eq!(
            sites[0].template,
            "INSERT INTO acl (acl_id, title) VALUES (1, 'x')"
        );
        assert_eq!(sites[0].unescaped, vec!["next".to_string()]);
    }

    #[test]
    fn int_coerced_variables_are_safe() {
        let source = "let post = int(param(\"post\"));\n\
                      let next = int(maxid[0][0]) + 1;\n\
                      db_query(\"UPDATE post SET votes = \" . next . \" WHERE post_id = \" . post);";
        let sites = sites_of(source);
        assert!(sites[0].unescaped.is_empty(), "{:?}", sites[0].unescaped);
        assert_eq!(
            sites[0].template,
            "UPDATE post SET votes = 1 WHERE post_id = 1"
        );
        // The buggy variant binds the same name to raw input — flagged.
        let buggy = "let post = param(\"post\");\n\
                     db_query(\"SELECT title FROM post WHERE post_id = \" . post);";
        assert_eq!(sites_of(buggy)[0].unescaped, vec!["post".to_string()]);
    }

    #[test]
    fn a_callee_merely_named_like_a_sanitizer_launders_nothing() {
        for callee in ["hint", "print", "sprint", "my_sql_escape"] {
            let source = format!(
                "let q = {callee}(param(\"q\")); db_query(\"SELECT a FROM t WHERE x = '\" . q . \"'\");"
            );
            assert_eq!(sites_of(&source)[0].unescaped, ["q"], "{callee}");
        }
    }

    #[test]
    fn strings_and_comments_that_mention_db_query_are_not_sites() {
        let source =
            "echo(\"docs: call db_query(sql) to run SQL\"); // db_query(\"DROP TABLE t\");\n\
                      db_query(\"SELECT a FROM t\");";
        let sites = sites_of(source);
        assert_eq!(sites.len(), 1, "{sites:?}");
        assert_eq!(sites[0].line, 2);
    }

    #[test]
    fn a_float_literal_is_text_not_a_concatenation() {
        let source = r#"db_query("SELECT a FROM t WHERE r > " . 1.5 . " AND x = 1");"#;
        let sites = sites_of(source);
        assert_eq!(sites[0].template, "SELECT a FROM t WHERE r > 1.5 AND x = 1");
        assert!(sites[0].unescaped.is_empty());
    }

    #[test]
    fn respects_nested_parens_and_strings() {
        let source =
            r#"db_query("SELECT a FROM t WHERE x = '" . sql_escape(param("q.y(z")) . "'");"#;
        let sites = sites_of(source);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].template, "SELECT a FROM t WHERE x = 'x'");
        assert!(sites[0].unescaped.is_empty());
    }

    #[test]
    fn multiple_sites_get_line_numbers() {
        let source =
            "echo(1);\ndb_query(\"SELECT a FROM t\");\necho(2);\ndb_query(\"DELETE FROM t\");";
        let sites = sites_of(source);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].line, 2);
        assert_eq!(sites[1].line, 4);
    }

    #[test]
    fn a_site_without_one_statement_is_a_finding() {
        let mut config = AppConfig::new("lint-test");
        config.add_source("computed.wasl", "db_query(sql);");
        config.add_source(
            "table.wasl",
            r#"db_query("SELECT a FROM t" . int(param("n")));"#,
        );
        config.add_source("syntax.wasl", r#"db_query("SELECT FROM WHERE");"#);
        let findings = corpus_lints(&config);
        let unparseable: Vec<&str> = findings
            .iter()
            .filter(|f| f.rule == "unparseable-template")
            .map(|f| f.file.as_str())
            .collect();
        assert_eq!(unparseable, ["computed.wasl", "syntax.wasl", "table.wasl"]);
    }

    #[test]
    fn statement_lints_surface_through_corpus() {
        let mut config = AppConfig::new("lint-test");
        config.add_source("bad.wasl", r#"db_query("SELECT * FROM t");"#);
        config.add_source("worse.wasl", r#"db_query("DELETE FROM t");"#);
        let findings = corpus_lints(&config);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"select-star"), "{findings:?}");
        assert!(rules.contains(&"unbounded-write"), "{findings:?}");
    }

    /// The gate CI runs through the binary, as a test: the canonical
    /// corpus has exactly the committed findings, and every one of its
    /// sites has a statement template.
    #[test]
    fn the_corpus_matches_the_committed_baseline() {
        let baseline: Vec<&str> = include_str!("../../../lint_baseline.txt")
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        let mut findings: Vec<String> = corpus()
            .iter()
            .flat_map(corpus_lints)
            .map(|f| f.baseline_key())
            .collect();
        findings.sort();
        assert_eq!(findings, baseline);
        let footprints: Vec<_> = corpus().iter().flat_map(corpus_footprints).collect();
        assert_eq!(footprints.len(), 25);
        for (site, footprint) in &footprints {
            assert!(
                footprint.is_ok(),
                "{}:{}: {footprint:?}",
                site.file,
                site.line
            );
        }
    }

    #[test]
    fn baseline_suppresses_known_findings_only() {
        let findings = vec![
            Finding {
                file: "a.wasl".into(),
                line: 3,
                rule: "select-star".into(),
                message: "m1".into(),
            },
            Finding {
                file: "b.wasl".into(),
                line: 9,
                rule: "unescaped-concat".into(),
                message: "m2".into(),
            },
        ];
        let baseline = format!("# comment\n{}\n", findings[0].baseline_key());
        let fresh = new_findings(&findings, &baseline);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].file, "b.wasl");
        // Line-number drift does not invalidate the baseline.
        let mut moved = findings[0].clone();
        moved.line = 99;
        assert!(new_findings(&[moved], &baseline).is_empty());
    }
}
