//! `warp-script` — WASL, the Warp Application Scripting Language.
//!
//! WASL is the PHP analog in the Warp reproduction: a small, dynamically
//! typed, interpreted language in which the example web applications
//! (the MediaWiki-style wiki, the Drupal-style blog, the Gallery2-style
//! gallery) are written.
//!
//! Why an interpreter at all? The paper's central mechanism — *retroactive
//! patching* — needs application code that exists as patchable source files,
//! plus an interposition point where every database query, HTTP input and
//! non-deterministic call can be logged during normal execution and steered
//! during re-execution. An interpreted language provides exactly that
//! boundary: all effects flow through the [`Host`] trait that the embedding
//! application server implements.
//!
//! # Language summary
//!
//! ```text
//! fn render(title) {                // functions
//!     let rows = db_query("SELECT body FROM page WHERE title = '" . sql_escape(title) . "'");
//!     if (len(rows) == 0) { return "missing"; }
//!     return rows[0]["body"];
//! }
//! include "header.wasl";            // include another source file (tracked as a dependency)
//! echo("<h1>" . htmlspecialchars(param("title")) . "</h1>");
//! ```
//!
//! * Values: null, bool, int, float, string, array, map ([`Value`]).
//! * Statements: `let`, assignment (including indexed assignment), `if` /
//!   `else`, `while`, `for`, `foreach`, `return`, `break`, `continue`,
//!   `include`, expression statements, function definitions.
//! * Expressions: literals, array `[...]` and map `{...}` literals, indexing,
//!   calls, arithmetic, comparison, logical operators, string concatenation
//!   with `.`.
//! * Builtins: pure string/array helpers ([`stdlib`]), including
//!   `htmlspecialchars` and `sql_escape` (the sanitizers whose *absence* is
//!   the vulnerability in several of the paper's attack scenarios).
//! * Host functions: everything with an effect (`db_query`, `echo`, `param`,
//!   `time`, `rand`, `session_start`, ...) is dispatched to the [`Host`].
//!
//! # Examples
//!
//! ```
//! use warp_script::{Interpreter, NullHost, Value};
//!
//! let mut host = NullHost::default();
//! let mut interp = Interpreter::new();
//! let out = interp
//!     .eval_program("fn add(a, b) { return a + b; } return add(2, 3);", &mut host)
//!     .unwrap();
//! assert_eq!(out, Value::Int(5));
//! ```

pub mod ast;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod sites;
pub mod stdlib;
pub mod value;

pub use ast::{BinOp, Expr, Program, Stmt, UnOp};
pub use error::{ScriptError, ScriptResult};
pub use interp::{Host, Interpreter, NullHost};
pub use lexer::{tokenize, Token};
pub use parser::parse_program;
pub use sites::sites;
pub use value::Value;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_example_runs() {
        let mut host = NullHost::default();
        let mut interp = Interpreter::new();
        let out = interp
            .eval_program(
                "fn fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); } return fact(5);",
                &mut host,
            )
            .unwrap();
        assert_eq!(out, Value::Int(120));
    }

    #[test]
    fn string_building_with_concat() {
        let mut host = NullHost::default();
        let mut interp = Interpreter::new();
        let out = interp
            .eval_program("let s = \"a\"; s = s . \"b\" . 3; return s;", &mut host)
            .unwrap();
        assert_eq!(out, Value::str("ab3"));
    }
}
