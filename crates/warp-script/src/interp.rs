//! The WASL tree-walking interpreter.

use crate::ast::{AssignTarget, BinOp, Expr, FnDef, Program, Stmt, UnOp};
use crate::error::{ScriptError, ScriptResult};
use crate::parser::parse_program;
use crate::stdlib::call_builtin;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The boundary between WASL programs and the embedding system.
///
/// Everything with an effect — database queries, HTTP parameters, output,
/// time, randomness, session management — is routed through the host. The
/// Warp application manager implements this trait to log every interaction
/// during normal execution and to steer re-execution during repair; the
/// browser implements it to expose the DOM to in-page scripts.
pub trait Host {
    /// Invoked for any call that is neither a user-defined function nor a
    /// pure builtin. Returning `None` means the function is unknown and the
    /// interpreter reports an error.
    fn call_host(&mut self, name: &str, args: &[Value]) -> Option<ScriptResult<Value>>;

    /// Resolves an `include "file";` statement to the file's compiled
    /// program. Returning `None` raises [`ScriptError::IncludeNotFound`];
    /// `Some(Err(_))` is the error the file failed to compile with, raised
    /// at the include. Handing out a shared program lets a host compile each
    /// file once and serve every later include from that.
    fn load_include(&mut self, filename: &str) -> Option<ScriptResult<Arc<Program>>>;
}

/// A [`Host`] with no effects, useful for tests and for evaluating pure
/// scripts. `echo` appends to an internal buffer; `time` and `rand` return 0.
#[derive(Debug, Default)]
pub struct NullHost {
    /// Everything echoed by the script so far.
    pub output: String,
    /// Optional include files, keyed by name.
    pub includes: HashMap<String, String>,
}

impl Host for NullHost {
    fn call_host(&mut self, name: &str, args: &[Value]) -> Option<ScriptResult<Value>> {
        match name {
            "echo" | "print" => {
                for a in args {
                    self.output.push_str(&a.to_display_string());
                }
                Some(Ok(Value::Null))
            }
            "time" | "rand" => Some(Ok(Value::Int(0))),
            _ => None,
        }
    }

    fn load_include(&mut self, filename: &str) -> Option<ScriptResult<Arc<Program>>> {
        let src = self.includes.get(filename)?;
        Some(parse_program(src).map(Arc::new))
    }
}

/// Control-flow signal produced by statement execution.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// Execution limits protecting the server from runaway scripts (the analog
/// of PHP's `max_execution_time`).
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum number of interpreter steps (statements + expressions).
    pub max_steps: u64,
    /// Maximum user-function call depth.
    pub max_call_depth: usize,
    /// Maximum nested include depth.
    pub max_include_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_steps: 2_000_000,
            max_call_depth: 128,
            max_include_depth: 16,
        }
    }
}

/// A WASL interpreter instance.
///
/// An interpreter holds no state between [`Interpreter::eval_program`] calls
/// other than its [`Limits`]; each evaluation starts from a fresh global
/// scope, mirroring PHP's request-at-a-time execution model.
#[derive(Debug, Default)]
pub struct Interpreter {
    limits: Limits,
}

impl Interpreter {
    /// Creates an interpreter with default limits.
    pub fn new() -> Self {
        Interpreter {
            limits: Limits::default(),
        }
    }

    /// Creates an interpreter with explicit limits.
    pub fn with_limits(limits: Limits) -> Self {
        Interpreter { limits }
    }

    /// Parses and runs a program, returning the value of a top-level
    /// `return` (or [`Value::Null`]).
    pub fn eval_program(&mut self, src: &str, host: &mut dyn Host) -> ScriptResult<Value> {
        let program = parse_program(src)?;
        self.run_program(&program, host, BTreeMap::new())
    }

    /// Parses and runs a program with pre-populated global variables (the
    /// application server uses this to inject `_GET`, `_POST`, `_SESSION`,
    /// and similar superglobals).
    pub fn eval_program_with_globals(
        &mut self,
        src: &str,
        host: &mut dyn Host,
        globals: BTreeMap<String, Value>,
    ) -> ScriptResult<Value> {
        let program = parse_program(src)?;
        self.run_program(&program, host, globals)
    }

    /// Runs an already-parsed program.
    pub fn run_program(
        &mut self,
        program: &Program,
        host: &mut dyn Host,
        globals: BTreeMap<String, Value>,
    ) -> ScriptResult<Value> {
        let mut state = ExecState {
            functions: HashMap::new(),
            limits: self.limits,
            steps: 0,
            call_depth: 0,
            include_depth: 0,
        };
        let mut scope = Scope { vars: globals };
        state.hoist_functions(&program.statements);
        match state.exec_block(&program.statements, &mut scope, host)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Null),
        }
    }
}

struct Scope {
    vars: BTreeMap<String, Value>,
}

struct ExecState {
    functions: HashMap<String, Arc<FnDef>>,
    limits: Limits,
    steps: u64,
    call_depth: usize,
    include_depth: usize,
}

impl ExecState {
    fn tick(&mut self) -> ScriptResult<()> {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            return Err(ScriptError::Budget(format!(
                "script exceeded {} steps",
                self.limits.max_steps
            )));
        }
        Ok(())
    }

    fn hoist_functions(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            if let Stmt::FnDef(def) = s {
                self.functions.insert(def.name.clone(), Arc::clone(def));
            }
        }
    }

    fn exec_block(
        &mut self,
        stmts: &[Stmt],
        scope: &mut Scope,
        host: &mut dyn Host,
    ) -> ScriptResult<Flow> {
        for s in stmts {
            match self.exec_stmt(s, scope, host)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        scope: &mut Scope,
        host: &mut dyn Host,
    ) -> ScriptResult<Flow> {
        self.tick()?;
        match stmt {
            Stmt::FnDef(def) => {
                // Top-level definitions were hoisted when their file was
                // loaded; re-bind only when a later include or a nested
                // definition took the name since (the latest definition
                // executed wins).
                let bound = self.functions.get(&def.name);
                if !bound.is_some_and(|b| Arc::ptr_eq(b, def)) {
                    self.functions.insert(def.name.clone(), Arc::clone(def));
                }
                Ok(Flow::Normal)
            }
            Stmt::Let { name, value } => {
                let v = self.eval(value, scope, host)?;
                scope.vars.insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, value } => {
                let v = self.eval(value, scope, host)?;
                self.assign(target, v, scope, host)?;
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e, scope, host)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval_ref(cond, scope, host)?.is_truthy() {
                    self.exec_block(then_branch, scope, host)
                } else {
                    self.exec_block(else_branch, scope, host)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval_ref(cond, scope, host)?.is_truthy() {
                    self.tick()?;
                    match self.exec_block(body, scope, host)? {
                        Flow::Break => break,
                        Flow::Continue | Flow::Normal => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.exec_stmt(init, scope, host)?;
                while self.eval_ref(cond, scope, host)?.is_truthy() {
                    self.tick()?;
                    match self.exec_block(body, scope, host)? {
                        Flow::Break => break,
                        Flow::Continue | Flow::Normal => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    self.exec_stmt(step, scope, host)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::Foreach {
                collection,
                key_var,
                value_var,
                body,
            } => {
                let coll = self.eval(collection, scope, host)?;
                let pairs: Vec<(Value, Value)> = match coll {
                    Value::Array(items) => items
                        .into_iter()
                        .enumerate()
                        .map(|(i, v)| (Value::Int(i as i64), v))
                        .collect(),
                    Value::Map(m) => m.into_iter().map(|(k, v)| (Value::Str(k), v)).collect(),
                    Value::Null => Vec::new(),
                    other => vec![(Value::Int(0), other)],
                };
                for (k, v) in pairs {
                    self.tick()?;
                    if let Some(kv) = key_var {
                        scope.vars.insert(kv.clone(), k);
                    }
                    scope.vars.insert(value_var.clone(), v);
                    match self.exec_block(body, scope, host)? {
                        Flow::Break => break,
                        Flow::Continue | Flow::Normal => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, scope, host)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Include(e) => {
                let filename = self.eval_ref(e, scope, host)?.to_display_string();
                if self.include_depth >= self.limits.max_include_depth {
                    return Err(ScriptError::Budget("include depth exceeded".into()));
                }
                let program = host
                    .load_include(&filename)
                    .ok_or(ScriptError::IncludeNotFound(filename))??;
                self.hoist_functions(&program.statements);
                self.include_depth += 1;
                // Includes run in the current scope, like PHP `include`.
                let flow = self.exec_block(&program.statements, scope, host);
                self.include_depth -= 1;
                match flow? {
                    // A `return` inside an include terminates only the include.
                    Flow::Return(_) | Flow::Normal => Ok(Flow::Normal),
                    other => Ok(other),
                }
            }
        }
    }

    fn assign(
        &mut self,
        target: &AssignTarget,
        value: Value,
        scope: &mut Scope,
        host: &mut dyn Host,
    ) -> ScriptResult<()> {
        match target {
            AssignTarget::Var(name) => {
                scope.vars.insert(name.clone(), value);
                Ok(())
            }
            AssignTarget::Index { base, indexes } => {
                let mut keys = Vec::with_capacity(indexes.len());
                for idx in indexes {
                    keys.push(self.eval(idx, scope, host)?);
                }
                // The container is taken out of the variable, updated and put
                // back, not copied. An error leaves null behind, which no
                // one can observe: errors abort the whole program.
                let slot = scope.vars.entry(base.clone()).or_insert(Value::Null);
                let current = std::mem::replace(slot, Value::Null);
                *slot = set_path(current, &keys, value)?;
                Ok(())
            }
        }
    }

    fn eval(&mut self, expr: &Expr, scope: &Scope, host: &mut dyn Host) -> ScriptResult<Value> {
        Ok(self.eval_ref(expr, scope, host)?.into_owned())
    }

    /// Evaluates `expr`, borrowing the result where it already exists — a
    /// literal in the program, a variable, or an element reached from a
    /// variable by an index chain — so that `rows[0]["body"]` and
    /// `len(rows)` copy the leaf they end on (or nothing) rather than the
    /// whole of `rows`. Expressions cannot assign, so the scope stays
    /// shared for the duration.
    fn eval_ref<'a>(
        &mut self,
        expr: &'a Expr,
        scope: &'a Scope,
        host: &mut dyn Host,
    ) -> ScriptResult<Cow<'a, Value>> {
        self.tick()?;
        let owned = match expr {
            Expr::Literal(v) => return Ok(Cow::Borrowed(v)),
            Expr::Var(name) => {
                return Ok(scope
                    .vars
                    .get(name)
                    .map_or(Cow::Owned(Value::Null), Cow::Borrowed))
            }
            Expr::Index { base, index } => {
                let b = self.eval_ref(base, scope, host)?;
                let i = self.eval_ref(index, scope, host)?;
                return Ok(match b {
                    Cow::Borrowed(b) => b.index_ref(&i),
                    Cow::Owned(b) => Cow::Owned(b.index(&i)),
                });
            }
            Expr::ArrayLit(items) => {
                let mut out = Vec::with_capacity(items.len());
                for i in items {
                    out.push(self.eval(i, scope, host)?);
                }
                Value::Array(out)
            }
            Expr::MapLit(pairs) => {
                let mut m = BTreeMap::new();
                for (k, v) in pairs {
                    let key = self.eval_ref(k, scope, host)?.to_display_string();
                    let val = self.eval(v, scope, host)?;
                    m.insert(key, val);
                }
                Value::Map(m)
            }
            Expr::Unary { op, operand } => {
                let v = self.eval_ref(operand, scope, host)?;
                match op {
                    UnOp::Not => Value::Bool(!v.is_truthy()),
                    UnOp::Neg => match &*v {
                        Value::Float(f) => Value::Float(-f),
                        other => Value::Int(-other.as_int().unwrap_or(0)),
                    },
                }
            }
            Expr::Binary { left, op, right } => {
                let l = self.eval_ref(left, scope, host)?;
                // Short-circuit logical operators.
                match op {
                    BinOp::And if !l.is_truthy() => Value::Bool(false),
                    BinOp::Or if l.is_truthy() => Value::Bool(true),
                    BinOp::And | BinOp::Or => {
                        Value::Bool(self.eval_ref(right, scope, host)?.is_truthy())
                    }
                    _ => {
                        let r = self.eval_ref(right, scope, host)?;
                        eval_binop(l, *op, &r)?
                    }
                }
            }
            Expr::Call { name, args, .. } => {
                let mut arg_values = Vec::with_capacity(args.len());
                for a in args {
                    arg_values.push(self.eval_ref(a, scope, host)?);
                }
                self.call_function(name, arg_values, host)?
            }
        };
        Ok(Cow::Owned(owned))
    }

    fn call_function(
        &mut self,
        name: &str,
        args: Vec<Cow<'_, Value>>,
        host: &mut dyn Host,
    ) -> ScriptResult<Value> {
        if let Some(def) = self.functions.get(name).map(Arc::clone) {
            if self.call_depth >= self.limits.max_call_depth {
                return Err(ScriptError::Budget(format!(
                    "call depth exceeded in {name}"
                )));
            }
            let mut local = Scope {
                vars: BTreeMap::new(),
            };
            let mut args = args.into_iter();
            for p in &def.params {
                let arg = args.next().map_or(Value::Null, Cow::into_owned);
                local.vars.insert(p.clone(), arg);
            }
            self.call_depth += 1;
            let flow = self.exec_block(&def.body, &mut local, host);
            self.call_depth -= 1;
            return match flow? {
                Flow::Return(v) => Ok(v),
                _ => Ok(Value::Null),
            };
        }
        if let Some(result) = call_builtin(name, &args) {
            return result;
        }
        let args: Vec<Value> = args.into_iter().map(Cow::into_owned).collect();
        if let Some(result) = host.call_host(name, &args) {
            return result;
        }
        Err(ScriptError::Runtime(format!("undefined function: {name}")))
    }
}

/// Sets `value` at the nested path `keys` inside `container`, auto-vivifying
/// maps (for string keys) and arrays (for integer keys) along the way.
fn set_path(container: Value, keys: &[Value], value: Value) -> ScriptResult<Value> {
    if keys.is_empty() {
        return Ok(value);
    }
    let key = &keys[0];
    match container {
        Value::Array(mut items) => {
            let idx = key
                .as_int()
                .ok_or_else(|| ScriptError::Runtime("array index must be numeric".into()))?;
            if idx < 0 {
                return Err(ScriptError::Runtime("negative array index".into()));
            }
            let idx = idx as usize;
            while items.len() <= idx {
                items.push(Value::Null);
            }
            let inner = std::mem::replace(&mut items[idx], Value::Null);
            items[idx] = set_path(inner, &keys[1..], value)?;
            Ok(Value::Array(items))
        }
        Value::Map(mut m) => {
            let k = key.to_display_string();
            let inner = m.remove(&k).unwrap_or(Value::Null);
            m.insert(k, set_path(inner, &keys[1..], value)?);
            Ok(Value::Map(m))
        }
        Value::Null => {
            // Auto-vivify: integer keys create arrays, everything else maps.
            if key.as_int().is_some() && !matches!(key, Value::Str(_)) {
                set_path(Value::Array(Vec::new()), keys, value)
            } else {
                set_path(Value::Map(BTreeMap::new()), keys, value)
            }
        }
        _ => Err(ScriptError::Runtime("cannot index into a scalar".into())),
    }
}

fn eval_binop(l: Cow<'_, Value>, op: BinOp, r: &Value) -> ScriptResult<Value> {
    use BinOp::*;
    match op {
        Concat => {
            // A left operand this expression owns (the usual `a . b . c`
            // chain) is extended in place.
            let mut s = match l {
                Cow::Owned(Value::Str(s)) => s,
                other => other.to_display_string(),
            };
            s.push_str(&r.display_str());
            Ok(Value::Str(s))
        }
        Eq => Ok(Value::Bool(l.loose_eq(r))),
        NotEq => Ok(Value::Bool(!l.loose_eq(r))),
        Lt | LtEq | Gt | GtEq => {
            let (a, b) = match (l.as_float(), r.as_float()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    // Fall back to string comparison.
                    let a = l.to_display_string();
                    let b = r.to_display_string();
                    let ord = a.cmp(&b);
                    return Ok(Value::Bool(match op {
                        Lt => ord.is_lt(),
                        LtEq => ord.is_le(),
                        Gt => ord.is_gt(),
                        GtEq => ord.is_ge(),
                        _ => unreachable!(),
                    }));
                }
            };
            Ok(Value::Bool(match op {
                Lt => a < b,
                LtEq => a <= b,
                Gt => a > b,
                GtEq => a >= b,
                _ => unreachable!(),
            }))
        }
        Add | Sub | Mul | Div | Mod => {
            if let (Value::Int(a), Value::Int(b)) = (&*l, r) {
                return match op {
                    Add => Ok(Value::Int(a.wrapping_add(*b))),
                    Sub => Ok(Value::Int(a.wrapping_sub(*b))),
                    Mul => Ok(Value::Int(a.wrapping_mul(*b))),
                    Div => {
                        if *b == 0 {
                            Err(ScriptError::Runtime("division by zero".into()))
                        } else {
                            Ok(Value::Int(a / b))
                        }
                    }
                    Mod => {
                        if *b == 0 {
                            Err(ScriptError::Runtime("modulo by zero".into()))
                        } else {
                            Ok(Value::Int(a % b))
                        }
                    }
                    _ => unreachable!(),
                };
            }
            let a = l.as_float().unwrap_or(0.0);
            let b = r.as_float().unwrap_or(0.0);
            match op {
                Add => Ok(Value::Float(a + b)),
                Sub => Ok(Value::Float(a - b)),
                Mul => Ok(Value::Float(a * b)),
                Div => {
                    if b == 0.0 {
                        Err(ScriptError::Runtime("division by zero".into()))
                    } else {
                        Ok(Value::Float(a / b))
                    }
                }
                Mod => {
                    if b == 0.0 {
                        Err(ScriptError::Runtime("modulo by zero".into()))
                    } else {
                        Ok(Value::Float(a % b))
                    }
                }
                _ => unreachable!(),
            }
        }
        And | Or => unreachable!("handled with short-circuiting"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Value {
        let mut host = NullHost::default();
        Interpreter::new().eval_program(src, &mut host).unwrap()
    }

    fn run_output(src: &str) -> String {
        let mut host = NullHost::default();
        Interpreter::new().eval_program(src, &mut host).unwrap();
        host.output
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run("return 2 + 3 * 4;"), Value::Int(14));
        assert_eq!(run("return (2 + 3) * 4;"), Value::Int(20));
        assert_eq!(run("return 7 % 3;"), Value::Int(1));
        assert_eq!(run("return 7 / 2;"), Value::Int(3));
        assert_eq!(run("return 7.0 / 2;"), Value::Float(3.5));
        assert_eq!(run("return -3 + 1;"), Value::Int(-2));
    }

    #[test]
    fn string_concat_and_comparison() {
        assert_eq!(run("return \"a\" . 1 . \"b\";"), Value::str("a1b"));
        assert_eq!(run("return \"abc\" == \"abc\";"), Value::Bool(true));
        assert_eq!(run("return 3 == \"3\";"), Value::Bool(true));
        assert_eq!(run("return \"b\" > \"a\";"), Value::Bool(true));
    }

    #[test]
    fn control_flow() {
        assert_eq!(
            run("let t = 0; for (i = 1; i <= 10; i = i + 1) { t = t + i; } return t;"),
            Value::Int(55)
        );
        assert_eq!(
            run("let t = 0; let i = 0; while (true) { i = i + 1; if (i > 5) { break; } if (i % 2 == 0) { continue; } t = t + i; } return t;"),
            Value::Int(9)
        );
        assert_eq!(
            run("let t = 0; foreach ([1, 2, 3, 4] as v) { t = t + v; } return t;"),
            Value::Int(10)
        );
        assert_eq!(
            run("let s = \"\"; foreach ({\"a\": 1, \"b\": 2} as k : v) { s = s . k . v; } return s;"),
            Value::str("a1b2")
        );
    }

    #[test]
    fn functions_and_recursion() {
        assert_eq!(
            run("fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } return fib(10);"),
            Value::Int(55)
        );
        // Functions defined after use are hoisted.
        assert_eq!(
            run("return g(2); fn g(x) { return x * 10; }"),
            Value::Int(20)
        );
        // Missing args become null.
        assert_eq!(
            run("fn f(a, b) { return is_null(b); } return f(1);"),
            Value::Bool(true)
        );
    }

    #[test]
    fn nested_data_structures_and_indexed_assignment() {
        assert_eq!(
            run("let m = {}; m[\"a\"] = {}; m[\"a\"][\"b\"] = 7; return m[\"a\"][\"b\"];"),
            Value::Int(7)
        );
        assert_eq!(
            run("let a = []; a[0] = 1; a[2] = 3; return len(a);"),
            Value::Int(3)
        );
        assert_eq!(
            run("let rows = [{\"x\": 1}, {\"x\": 2}]; return rows[1][\"x\"];"),
            Value::Int(2)
        );
        // Auto-vivification from null.
        assert_eq!(run("x[\"k\"] = 5; return x[\"k\"];"), Value::Int(5));
    }

    #[test]
    fn echo_collects_output() {
        assert_eq!(run_output("echo(\"a\"); echo(1 + 1, \"c\");"), "a2c");
    }

    #[test]
    fn includes_execute_in_current_scope() {
        let mut host = NullHost::default();
        host.includes.insert(
            "lib.wasl".to_string(),
            "fn helper(x) { return x * 2; } let libver = 3;".to_string(),
        );
        let v = Interpreter::new()
            .eval_program("include \"lib.wasl\"; return helper(libver);", &mut host)
            .unwrap();
        assert_eq!(v, Value::Int(6));
    }

    #[test]
    fn missing_include_is_an_error() {
        let mut host = NullHost::default();
        let err = Interpreter::new()
            .eval_program("include \"nope.wasl\";", &mut host)
            .unwrap_err();
        assert_eq!(err, ScriptError::IncludeNotFound("nope.wasl".into()));
    }

    #[test]
    fn undefined_function_and_variable() {
        let mut host = NullHost::default();
        let err = Interpreter::new()
            .eval_program("return mystery();", &mut host)
            .unwrap_err();
        assert!(matches!(err, ScriptError::Runtime(_)));
        // Unknown variables read as null rather than erroring (PHP notices).
        assert_eq!(run("return is_null(never_set);"), Value::Bool(true));
    }

    #[test]
    fn runaway_loops_hit_the_step_budget() {
        let mut host = NullHost::default();
        let mut interp = Interpreter::with_limits(Limits {
            max_steps: 10_000,
            ..Limits::default()
        });
        let err = interp
            .eval_program("while (true) { let x = 1; }", &mut host)
            .unwrap_err();
        assert!(matches!(err, ScriptError::Budget(_)));
    }

    #[test]
    fn deep_recursion_hits_the_depth_budget() {
        let mut host = NullHost::default();
        let mut interp = Interpreter::new();
        let err = interp
            .eval_program("fn f(n) { return f(n + 1); } return f(0);", &mut host)
            .unwrap_err();
        assert!(matches!(err, ScriptError::Budget(_)));
    }

    #[test]
    fn short_circuit_evaluation() {
        // The right side would be a division by zero if evaluated.
        assert_eq!(run("return false && (1 / 0);"), Value::Bool(false));
        assert_eq!(run("return true || (1 / 0);"), Value::Bool(true));
        assert!(matches!(
            Interpreter::new().eval_program("return 1 / 0;", &mut NullHost::default()),
            Err(ScriptError::Runtime(_))
        ));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let mut host = NullHost::default();
        assert!(Interpreter::new()
            .eval_program("return 5 % 0;", &mut host)
            .is_err());
    }

    #[test]
    fn globals_are_visible() {
        let mut host = NullHost::default();
        let mut globals = BTreeMap::new();
        globals.insert(
            "_GET".to_string(),
            Value::map([("q".to_string(), Value::str("hi"))]),
        );
        let v = Interpreter::new()
            .eval_program_with_globals("return _GET[\"q\"];", &mut host, globals)
            .unwrap();
        assert_eq!(v, Value::str("hi"));
    }

    /// The smallest step budget under which `src` runs to completion.
    fn steps_needed(src: &str, host: &mut NullHost) -> u64 {
        (1..)
            .find(|&max_steps| {
                let limits = Limits {
                    max_steps,
                    ..Limits::default()
                };
                Interpreter::with_limits(limits)
                    .eval_program(src, host)
                    .is_ok()
            })
            .expect("the program terminates")
    }

    fn host_with_lib() -> NullHost {
        let mut host = NullHost::default();
        host.includes.insert(
            "lib.wasl".to_string(),
            "fn helper(x) { return x * 2; } let libver = 3;".to_string(),
        );
        host
    }

    #[test]
    fn step_counts_do_not_depend_on_how_values_are_read() {
        // Counted with the interpreter that cloned every operand: reading
        // through borrows must tick at the same points, or a budget would
        // trip at a different place in a recorded run and its re-execution.
        let programs = [
            (
                "let rows = [{\"body\": \"a\"}, {\"body\": \"b\"}]; return rows[1][\"body\"] . len(rows);",
                17,
            ),
            ("include \"lib.wasl\"; return helper(libver);", 12),
            (
                "let t = 0; foreach ([1, 2, 3] as v) { if (v % 2 == 1 && !(v > 2)) { t = t + v; } } return -t;",
                46,
            ),
            (
                "let m = {}; m[\"a\"] = [1]; m[\"a\"][1] = 2; let i = 0; while (i < len(m[\"a\"])) { i = i + 1; } return m;",
                43,
            ),
            (
                "fn f(a, b) { return is_null(b) || a; } for (i = 0; i < 3; i = i + 1) { echo(f(i), \"x\"[0]); } return f(1);",
                71,
            ),
            (
                "fn f() { return 1; } include \"lib.wasl\"; fn helper(x) { return f() + x; } return helper(libver);",
                16,
            ),
        ];
        for (src, steps) in programs {
            assert_eq!(steps_needed(src, &mut host_with_lib()), steps, "{src}");
        }
    }

    #[test]
    fn the_latest_definition_executed_wins() {
        let run = |src: &str| {
            Interpreter::new()
                .eval_program(src, &mut host_with_lib())
                .unwrap()
        };
        // Within one file the last definition is the hoisted one...
        assert_eq!(
            run("let early = f(); fn f() { return 1; } fn f() { return 2; } return [early, f()];"),
            Value::Array(vec![Value::Int(2), Value::Int(2)])
        );
        // ...but executing a definition statement re-binds the name.
        assert_eq!(
            run("fn f() { return 1; } fn f() { return 2; } let late = f(); if (true) { fn f() { return 3; } } return [late, f()];"),
            Value::Array(vec![Value::Int(2), Value::Int(3)])
        );
        // An include replaces the entry script's hoisted definition...
        assert_eq!(
            run("let before = helper(1); include \"lib.wasl\"; return [before, helper(1)]; fn helper(x) { return 0; }"),
            Value::Array(vec![Value::Int(0), Value::Int(2)])
        );
        // ...until the entry script's own definition statement runs again.
        assert_eq!(
            run("include \"lib.wasl\"; let included = helper(1); fn helper(x) { return 0; } return [included, helper(1)];"),
            Value::Array(vec![Value::Int(2), Value::Int(0)])
        );
        // Including a file twice re-binds its definitions each time.
        assert_eq!(
            run("include \"lib.wasl\"; fn helper(x) { return 0; } include \"lib.wasl\"; return helper(1);"),
            Value::Int(2)
        );
    }

    #[test]
    fn a_definition_is_bound_to_the_shared_program_not_copied() {
        let program = parse_program("fn f() { return 1; } return f();").unwrap();
        let Stmt::FnDef(def) = &program.statements[0] else {
            panic!("a definition");
        };
        let before = Arc::strong_count(def);
        let mut host = NullHost::default();
        let v = Interpreter::new()
            .run_program(&program, &mut host, BTreeMap::new())
            .unwrap();
        assert_eq!(v, Value::Int(1));
        // The run held references, not copies, and released them.
        assert_eq!(Arc::strong_count(def), before);
    }

    #[test]
    fn index_chains_and_builtins_see_the_values_in_place() {
        assert_eq!(
            run("let rows = [{\"a\": [10, 20]}]; return rows[0][\"a\"][1] + len(rows) + len(rows[0][\"a\"]);"),
            Value::Int(23)
        );
        // Missing keys and out-of-range indexes read as null all the way down.
        assert_eq!(
            run("let rows = [{\"a\": 1}]; return is_null(rows[3][\"a\"]) && is_null(rows[0][\"b\"][0]);"),
            Value::Bool(true)
        );
        // A chain rooted at a call result works on the owned value.
        assert_eq!(
            run("fn mk() { return [[1, 2], [3]]; } return mk()[0][1];"),
            Value::Int(2)
        );
        // Concatenation extends the left operand; other operands are unchanged.
        assert_eq!(
            run("let a = \"x\"; let b = a . \"y\" . 1 . [2]; return a . \"|\" . b;"),
            Value::str("x|xy1[2]")
        );
    }
}
