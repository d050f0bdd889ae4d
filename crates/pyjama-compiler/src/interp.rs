//! The PJ interpreter: executes programs on the real Pyjama substrates.
//!
//! Target directives dispatch through [`pyjama_runtime::Runtime`] (so all
//! of Algorithm 1 applies — member short-circuit, `await` pumping, tag
//! synchronisation), and `parallel` / `parallel for` directives run on
//! [`pyjama_omp`] teams.
//!
//! Every PJ variable is a shared cell (`Arc<Mutex<Value>>`); capturing an
//! environment for a target block shares the cells rather than copying
//! values — the paper's *data-context sharing*: "all the operations inside
//! a target block share the intuitive data context as if the target
//! directive does not exist" (§III-B).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pyjama_sync::Mutex;
use pyjama_events::{Edt, Latch};
use pyjama_omp::{Ctx, Schedule};
use pyjama_runtime::directive::TargetProperty;
use pyjama_runtime::{Mode, Runtime};

use crate::ast::*;
use crate::CompileError;

/// A PJ runtime value.
#[derive(Clone, Debug)]
pub enum Value {
    /// The unit value (statements, void returns).
    Unit,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// Shared, mutable array (reference semantics, like Java).
    Arr(Arc<Mutex<Vec<Value>>>),
}

impl Value {
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
        }
    }

    pub(crate) fn truthy(&self) -> Result<bool, CompileError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(rt_err(format!(
                "expected bool, found {}",
                other.type_name()
            ))),
        }
    }

    pub(crate) fn as_int(&self) -> Result<i64, CompileError> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(rt_err(format!("expected int, found {}", other.type_name()))),
        }
    }

    /// Display form (used by `print` and `str`).
    pub fn display(&self) -> String {
        match self {
            Value::Unit => "unit".to_string(),
            Value::Int(v) => v.to_string(),
            Value::Float(v) => format!("{v}"),
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => s.clone(),
            Value::Arr(a) => {
                let items: Vec<String> = a.lock().iter().map(Value::display).collect();
                format!("[{}]", items.join(", "))
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                *a as f64 == *b
            }
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Arr(a), Value::Arr(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

pub(crate) fn rt_err(msg: impl Into<String>) -> CompileError {
    CompileError::Runtime(msg.into())
}

/// Control flow of statement execution.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

pub(crate) type Cell = Arc<Mutex<Value>>;

/// A lexical environment: a stack of shared scopes. Cloning shares every
/// cell — the capture semantics target blocks rely on.
#[derive(Clone, Default)]
struct Env {
    scopes: Vec<Arc<Mutex<HashMap<String, Cell>>>>,
}

impl Env {
    fn new() -> Self {
        Env {
            scopes: vec![Arc::new(Mutex::new(HashMap::new()))],
        }
    }

    fn push(&self) -> Env {
        let mut e = self.clone();
        e.scopes.push(Arc::new(Mutex::new(HashMap::new())));
        e
    }

    fn declare(&self, name: &str, v: Value) {
        self.scopes
            .last()
            .expect("at least one scope")
            .lock()
            .insert(name.to_string(), Arc::new(Mutex::new(v)));
    }

    fn cell(&self, name: &str) -> Option<Cell> {
        for scope in self.scopes.iter().rev() {
            if let Some(c) = scope.lock().get(name) {
                return Some(Arc::clone(c));
            }
        }
        None
    }

    fn get(&self, name: &str) -> Result<Value, CompileError> {
        self.cell(name)
            .map(|c| c.lock().clone())
            .ok_or_else(|| rt_err(format!("undefined variable `{name}`")))
    }

    fn set(&self, name: &str, v: Value) -> Result<(), CompileError> {
        match self.cell(name) {
            Some(c) => {
                *c.lock() = v;
                Ok(())
            }
            None => Err(rt_err(format!("assignment to undefined variable `{name}`"))),
        }
    }

    /// Applies `f` to the variable's value **without cloning it** — the
    /// hot-path read used by conditions and integer contexts. The cell lock
    /// is held only for the duration of `f`, which must not evaluate
    /// further PJ expressions (`x + x` would self-deadlock otherwise).
    fn with<R>(
        &self,
        name: &str,
        f: impl FnOnce(&Value) -> Result<R, CompileError>,
    ) -> Result<R, CompileError> {
        match self.cell(name) {
            Some(c) => f(&c.lock()),
            None => Err(rt_err(format!("undefined variable `{name}`"))),
        }
    }
}

/// Which execution engine runs the program.
///
/// The register bytecode VM is the default; the tree-walking interpreter is
/// retained as the differential-testing oracle (`tests/pj_differential.rs`
/// runs every program through both and asserts identical output).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The original tree-walking interpreter (oracle).
    Interp,
    /// The register bytecode VM ([`crate::compile`] + [`crate::vm`]).
    #[default]
    Vm,
}

/// Configuration for one program run.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Which engine executes the program.
    pub engine: Engine,
    /// Treat directives as comments (sequential-equivalence mode).
    pub ignore_directives: bool,
    /// Threads in the default `worker` virtual target.
    pub worker_threads: usize,
    /// Spawn an EDT registered as virtual target `edt`.
    pub with_edt: bool,
    /// Additional worker targets: (name, threads).
    pub extra_workers: Vec<(String, usize)>,
    /// Simulated accelerators to register: device numbers. A program's
    /// `target device(n)` dispatches to `device:n` when registered, else
    /// falls back to the host `worker` pool.
    pub devices: Vec<u32>,
    /// Upper bound on waiting for outstanding `nowait` blocks at exit.
    pub quiesce_timeout: Duration,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            engine: Engine::default(),
            ignore_directives: false,
            worker_threads: 4,
            with_edt: true,
            extra_workers: Vec::new(),
            devices: Vec::new(),
            quiesce_timeout: Duration::from_secs(30),
        }
    }
}

/// What a run produced.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Lines captured from `print`.
    pub output: Vec<String>,
    /// The value returned by `main` (unit if none).
    pub result: String,
    /// Target-block dispatches observed by the run's `Runtime` (posted +
    /// inline short-circuits, summed over every virtual target). The
    /// VM-counter conservation law checks against this.
    pub target_posts: u64,
}

struct Core {
    program: Arc<Program>,
    run: RunState,
}

/// One run's state, the same for both engines: the runtime its directives
/// dispatch through, captured output and block errors, and the latch its
/// in-flight `nowait`/`name_as` blocks hold so the run can quiesce.
pub(crate) struct RunState {
    pub(crate) rt: Arc<Runtime>,
    output: Mutex<Vec<String>>,
    errors: Mutex<Vec<String>>,
    outstanding: Arc<Latch>,
    epoch: Instant,
    pub(crate) ignore: bool,
}

/// The PJ interpreter.
pub struct Interpreter {
    program: Arc<Program>,
}

impl Interpreter {
    /// Wraps a parsed program.
    pub fn new(program: Arc<Program>) -> Self {
        Interpreter { program }
    }

    /// Runs `main` under `config`, returning captured output.
    pub fn run(&self, config: &ExecConfig) -> Result<RunOutput, CompileError> {
        match config.engine {
            Engine::Vm => crate::vm::run_program(&self.program, config),
            Engine::Interp => self.run_interp(config),
        }
    }

    fn run_interp(&self, config: &ExecConfig) -> Result<RunOutput, CompileError> {
        let (run, edt) = RunState::start(config)?;
        let core = Arc::new(Core { program: Arc::clone(&self.program), run });
        let main = self
            .program
            .function("main")
            .ok_or_else(|| rt_err("no `main` function"))?;
        let result = call_function(&core, main, Vec::new(), None)?;
        core.run.finish(edt, config, &result)
    }
}

impl RunState {
    /// Builds the virtual-target substrate both engines run on: the default
    /// `worker` pool, extra named pools, simulated devices, and the EDT.
    pub(crate) fn start(config: &ExecConfig) -> Result<(RunState, Option<Edt>), CompileError> {
        let rt = Arc::new(Runtime::new());
        rt.virtual_target_create_worker("worker", config.worker_threads.max(1));
        for (name, m) in &config.extra_workers {
            rt.virtual_target_create_worker(name.clone(), (*m).max(1));
        }
        for &n in &config.devices {
            let device = pyjama_runtime::SimulatedDevice::new(n, Duration::ZERO);
            let target = pyjama_runtime::DeviceTarget::new(device);
            rt.register(
                format!("device:{n}"),
                target as Arc<dyn pyjama_runtime::VirtualTarget>,
            )
            .map_err(|e| rt_err(e.to_string()))?;
        }
        let edt = if config.with_edt {
            let edt = Edt::spawn("pj-edt");
            rt.virtual_target_register_edt("edt", edt.handle())
                .map_err(|e| rt_err(e.to_string()))?;
            Some(edt)
        } else {
            None
        };
        let run = RunState {
            rt,
            output: Mutex::default(),
            errors: Mutex::default(),
            outstanding: Arc::default(),
            epoch: Instant::now(),
            ignore: config.ignore_directives,
        };
        Ok((run, edt))
    }

    /// Quiesces `nowait` blocks, shuts the EDT down, tears the runtime down
    /// and assembles the output (a recorded block error fails the run);
    /// `target_posts` is read *before* `clear()` drops the targets.
    pub(crate) fn finish(
        &self,
        edt: Option<Edt>,
        config: &ExecConfig,
        result: &Value,
    ) -> Result<RunOutput, CompileError> {
        // Quiesce: nowait blocks may still be in flight, and may post more
        // before they finish; the latch drains only when all have.
        if !self.outstanding.wait_idle(Some(Instant::now() + config.quiesce_timeout)) {
            return Err(rt_err("timed out waiting for outstanding target blocks"));
        }
        if let Some(mut edt) = edt {
            edt.shutdown();
        }
        let rt = &self.rt;
        let target_posts = rt
            .target_names()
            .iter()
            .filter_map(|n| rt.lookup(n).ok())
            .map(|t| {
                let s = t.stats();
                s.posted + s.inline
            })
            .sum();
        rt.clear();
        let errors = self.errors.lock().clone();
        if !errors.is_empty() {
            return Err(rt_err(errors.join("; ")));
        }
        Ok(RunOutput {
            output: self.output.lock().clone(),
            result: result.display(),
            target_posts,
        })
    }

    /// Offloads a target block to the target its target-property clause
    /// names, under `mode`. A `nowait`/`name_as` block holds an entry of the
    /// quiesce latch until it finishes, or drops unrun.
    pub(crate) fn post_target(
        &self,
        target: &TargetProperty,
        mode: Mode,
        block: impl FnOnce() + Send + 'static,
    ) -> Result<(), CompileError> {
        let rt = &self.rt;
        let name = match target {
            TargetProperty::Virtual(name) => name.clone(),
            TargetProperty::Default => rt
                .default_target()
                .ok_or_else(|| rt_err("no default virtual target registered"))?,
            // Dispatch to a registered simulated accelerator, else fall back to
            // the host pool (documented substitution).
            TargetProperty::Device(n) => {
                let name = format!("device:{n}");
                if rt.has_target(&name) {
                    name
                } else {
                    "worker".to_string()
                }
            }
        };
        let posted = match mode {
            Mode::NoWait | Mode::NameAs(_) => {
                let entry = self.outstanding.enter();
                rt.try_target(&name, mode, move || {
                    block();
                    drop(entry);
                })
            }
            Mode::Wait | Mode::Await => rt.try_target(&name, mode, block),
        };
        posted.map(drop).map_err(|e| rt_err(e.to_string()))
    }

    /// Records an offloaded block's error (it has no caller to return it
    /// to); `finish` fails the run with it.
    pub(crate) fn record<T>(&self, result: Result<T, CompileError>) {
        if let Err(e) = result {
            self.errors.lock().push(e.to_string());
        }
    }

    /// The builtins' view of the run: its output and its clock.
    pub(crate) fn host(&self) -> crate::builtins::Host<'_> {
        crate::builtins::Host {
            output: &self.output,
            epoch: self.epoch,
        }
    }
}

/// The omp schedule of a `parallel for` clause (chunks of at least 1).
pub(crate) fn omp_schedule(schedule: &LoopSchedule) -> Schedule {
    match schedule {
        LoopSchedule::Static => Schedule::Static { chunk: None },
        LoopSchedule::Dynamic(c) => Schedule::Dynamic { chunk: (*c).max(1) },
        LoopSchedule::Guided(c) => Schedule::Guided { min_chunk: (*c).max(1) },
    }
}

fn call_function(
    core: &Arc<Core>,
    f: &Function,
    args: Vec<Value>,
    omp: Option<&Ctx>,
) -> Result<Value, CompileError> {
    if args.len() != f.params.len() {
        return Err(rt_err(format!(
            "function `{}` expects {} arguments, got {}",
            f.name,
            f.params.len(),
            args.len()
        )));
    }
    let env = Env::new();
    for (p, a) in f.params.iter().zip(args) {
        env.declare(p, a);
    }
    match exec_block(core, &f.body, &env, omp)? {
        Flow::Return(v) => Ok(v),
        Flow::Normal => Ok(Value::Unit),
        Flow::Break | Flow::Continue => Err(rt_err(format!(
            "break/continue outside a loop in function `{}`",
            f.name
        ))),
    }
}

fn exec_block(
    core: &Arc<Core>,
    block: &Block,
    env: &Env,
    omp: Option<&Ctx>,
) -> Result<Flow, CompileError> {
    let env = env.push();
    for stmt in &block.stmts {
        match exec_stmt(core, stmt, &env, omp)? {
            Flow::Normal => {}
            other => return Ok(other),
        }
    }
    Ok(Flow::Normal)
}

fn exec_stmt(
    core: &Arc<Core>,
    stmt: &Stmt,
    env: &Env,
    omp: Option<&Ctx>,
) -> Result<Flow, CompileError> {
    match stmt {
        Stmt::Let { name, value, .. } => {
            let v = eval(core, value, env, omp)?;
            env.declare(name, v);
            Ok(Flow::Normal)
        }
        Stmt::Assign { name, value, .. } => {
            let v = eval(core, value, env, omp)?;
            env.set(name, v)?;
            Ok(Flow::Normal)
        }
        Stmt::IndexAssign {
            name,
            index,
            value,
            ..
        } => {
            let idx = eval_int(core, index, env, omp)?;
            let v = eval(core, value, env, omp)?;
            match env.get(name)? {
                Value::Arr(a) => {
                    let mut g = a.lock();
                    let i = usize::try_from(idx)
                        .ok()
                        .filter(|i| *i < g.len())
                        .ok_or_else(|| rt_err(format!("index {idx} out of bounds")))?;
                    g[i] = v;
                    Ok(Flow::Normal)
                }
                other => Err(rt_err(format!(
                    "cannot index-assign a {}",
                    other.type_name()
                ))),
            }
        }
        Stmt::Expr(e) => {
            eval(core, e, env, omp)?;
            Ok(Flow::Normal)
        }
        Stmt::If {
            cond,
            then_block,
            else_block,
        } => {
            if eval_truthy(core, cond, env, omp)? {
                exec_block(core, then_block, env, omp)
            } else if let Some(eb) = else_block {
                exec_block(core, eb, env, omp)
            } else {
                Ok(Flow::Normal)
            }
        }
        Stmt::While { cond, body } => {
            while eval_truthy(core, cond, env, omp)? {
                match exec_block(core, body, env, omp)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => break,
                    ret @ Flow::Return(_) => return Ok(ret),
                }
            }
            Ok(Flow::Normal)
        }
        Stmt::For {
            var,
            start,
            end,
            body,
        } => {
            let s = eval_int(core, start, env, omp)?;
            let e = eval_int(core, end, env, omp)?;
            for i in s..e {
                let iter_env = env.push();
                iter_env.declare(var, Value::Int(i));
                match exec_block(core, body, &iter_env, omp)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => break,
                    ret @ Flow::Return(_) => return Ok(ret),
                }
            }
            Ok(Flow::Normal)
        }
        Stmt::Break => Ok(Flow::Break),
        Stmt::Continue => Ok(Flow::Continue),
        Stmt::Return(e) => {
            let v = match e {
                Some(e) => eval(core, e, env, omp)?,
                None => Value::Unit,
            };
            Ok(Flow::Return(v))
        }
        Stmt::Block(b) => exec_block(core, b, env, omp),
        Stmt::Directive {
            directive, body, ..
        } => exec_directive(core, directive, body, env, omp),
    }
}

fn exec_directive(
    core: &Arc<Core>,
    directive: &Directive,
    body: &Block,
    env: &Env,
    omp: Option<&Ctx>,
) -> Result<Flow, CompileError> {
    // Sequential-equivalence mode: "when the directives are disabled or
    // ignored by unsupported compilers, the code still retains its
    // correctness when executed sequentially" (§III).
    if core.run.ignore {
        return exec_block(core, body, env, omp);
    }

    match directive {
        Directive::Target { directive: d, if_cond } => {
            // Honour wait(tag) clauses attached to the directive first.
            for tag in &d.wait_tags {
                core.run.rt.wait_tag(tag);
            }
            let enabled = match if_cond {
                Some(cond) => eval_truthy(core, cond, env, omp)?,
                None => true,
            };
            if !enabled {
                // Disabled directive: execute synchronously in place.
                return exec_block(core, body, env, omp);
            }

            let closure = {
                let core = Arc::clone(core);
                let body = body.clone();
                let env = env.clone();
                move || core.run.record(exec_block(&core, &body, &env, None))
            };
            core.run.post_target(&d.target, d.mode.clone(), closure)?;
            Ok(Flow::Normal)
        }
        Directive::WaitTag(tag) => {
            core.run.rt.wait_tag(tag);
            Ok(Flow::Normal)
        }
        Directive::Parallel { num_threads } => {
            let n = num_threads.unwrap_or_else(pyjama_omp::default_num_threads);
            let errors: Mutex<Vec<CompileError>> = Mutex::new(Vec::new());
            pyjama_omp::parallel(n, |ctx| {
                let member_env = env.push();
                if let Err(e) = exec_block(core, body, &member_env, Some(ctx)) {
                    errors.lock().push(e);
                }
            });
            match errors.into_inner().into_iter().next() {
                Some(e) => Err(e),
                None => Ok(Flow::Normal),
            }
        }
        Directive::ParallelFor {
            num_threads,
            schedule,
        } => {
            let Some(Stmt::For {
                var,
                start,
                end,
                body: loop_body,
            }) = body.stmts.first()
            else {
                return Err(rt_err("parallel for must annotate a for loop"));
            };
            let s = eval_int(core, start, env, omp)?;
            let e = eval_int(core, end, env, omp)?;
            if e <= s {
                return Ok(Flow::Normal);
            }
            let (s, e) = (s as usize, e as usize);
            let n = num_threads.unwrap_or_else(pyjama_omp::default_num_threads);
            let sched = omp_schedule(schedule);
            let errors: Mutex<Vec<CompileError>> = Mutex::new(Vec::new());
            pyjama_omp::parallel(n, |ctx| {
                ctx.for_range_nowait(s..e, sched, |i| {
                    let iter_env = env.push();
                    iter_env.declare(var, Value::Int(i as i64));
                    if let Err(err) = exec_block(core, loop_body, &iter_env, None) {
                        errors.lock().push(err);
                    }
                });
            });
            match errors.into_inner().into_iter().next() {
                Some(e) => Err(e),
                None => Ok(Flow::Normal),
            }
        }
        Directive::Critical(name) => {
            let key = if name.is_empty() { "<pj-anon>" } else { name };
            let lock = pyjama_omp::sync::critical_lock(key);
            let _g = lock.lock();
            exec_block(core, body, env, omp)
        }
        Directive::Barrier => match omp {
            Some(ctx) => {
                ctx.barrier();
                Ok(Flow::Normal)
            }
            None => Err(rt_err("barrier directive outside a parallel region")),
        },
        Directive::Master => match omp {
            Some(ctx) => {
                if ctx.is_master() {
                    exec_block(core, body, env, omp)
                } else {
                    Ok(Flow::Normal)
                }
            }
            None => exec_block(core, body, env, omp),
        },
        Directive::Single => match omp {
            Some(ctx) => {
                let result: Mutex<Option<Result<(), CompileError>>> = Mutex::new(None);
                ctx.single(|| {
                    let r = exec_block(core, body, env, omp).map(|_| ());
                    *result.lock() = Some(r);
                });
                match result.into_inner() {
                    Some(Err(e)) => Err(e),
                    _ => Ok(Flow::Normal),
                }
            }
            None => exec_block(core, body, env, omp),
        },
        Directive::Task => match omp {
            Some(ctx) => {
                // Asynchronous within the region; the closure owns clones
                // of the shared cells (data context preserved).
                let core2 = Arc::clone(core);
                let body2 = body.clone();
                let env2 = env.clone();
                ctx.task(move || core2.run.record(exec_block(&core2, &body2, &env2, None)));
                Ok(Flow::Normal)
            }
            // "An orphaned task directive will execute sequentially" (§I).
            None => exec_block(core, body, env, omp),
        },
        Directive::TaskWait => {
            if let Some(ctx) = omp {
                ctx.taskwait();
            }
            Ok(Flow::Normal)
        }
        Directive::Sections => match omp {
            Some(ctx) => {
                let errors: Mutex<Vec<CompileError>> = Mutex::new(Vec::new());
                {
                    let errors = &errors;
                    let section_fns: Vec<Box<dyn Fn() + Sync>> = body
                        .stmts
                        .iter()
                        .map(|stmt| {
                            let stmt = stmt.clone();
                            Box::new(move || {
                                let section_env = env.push();
                                if let Err(e) =
                                    exec_stmt(core, &stmt, &section_env, None).map(|_| ())
                                {
                                    errors.lock().push(e);
                                }
                            }) as Box<dyn Fn() + Sync>
                        })
                        .collect();
                    let refs: Vec<&(dyn Fn() + Sync)> =
                        section_fns.iter().map(|b| b.as_ref()).collect();
                    ctx.sections(&refs);
                }
                match errors.into_inner().into_iter().next() {
                    Some(e) => Err(e),
                    None => Ok(Flow::Normal),
                }
            }
            None => exec_block(core, body, env, omp),
        },
    }
}

/// Evaluates an expression in boolean context. Plain variable reads borrow
/// the cell's value in place instead of cloning it.
fn eval_truthy(
    core: &Arc<Core>,
    expr: &Expr,
    env: &Env,
    omp: Option<&Ctx>,
) -> Result<bool, CompileError> {
    match expr {
        Expr::Var(name) => env.with(name, Value::truthy),
        _ => eval(core, expr, env, omp)?.truthy(),
    }
}

/// Evaluates an expression in integer context (loop bounds, indices)
/// without cloning plain variable reads.
fn eval_int(
    core: &Arc<Core>,
    expr: &Expr,
    env: &Env,
    omp: Option<&Ctx>,
) -> Result<i64, CompileError> {
    match expr {
        Expr::Var(name) => env.with(name, Value::as_int),
        _ => eval(core, expr, env, omp)?.as_int(),
    }
}

fn eval(
    core: &Arc<Core>,
    expr: &Expr,
    env: &Env,
    omp: Option<&Ctx>,
) -> Result<Value, CompileError> {
    match expr {
        Expr::Int(v) => Ok(Value::Int(*v)),
        Expr::Float(v) => Ok(Value::Float(*v)),
        Expr::Bool(b) => Ok(Value::Bool(*b)),
        Expr::Str(s) => Ok(Value::Str(s.clone())),
        Expr::Var(name) => env.get(name),
        Expr::Index { array, index } => {
            let a = eval(core, array, env, omp)?;
            let i = eval_int(core, index, env, omp)?;
            match a {
                Value::Arr(a) => {
                    let g = a.lock();
                    usize::try_from(i)
                        .ok()
                        .and_then(|i| g.get(i).cloned())
                        .ok_or_else(|| rt_err(format!("index {i} out of bounds")))
                }
                other => Err(rt_err(format!("cannot index a {}", other.type_name()))),
            }
        }
        Expr::Unary { op, expr } => {
            let v = eval(core, expr, env, omp)?;
            match (op, v) {
                (UnOp::Neg, Value::Int(v)) => Ok(Value::Int(-v)),
                (UnOp::Neg, Value::Float(v)) => Ok(Value::Float(-v)),
                (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                (op, v) => Err(rt_err(format!("cannot apply {op:?} to {}", v.type_name()))),
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            // Short-circuit logical operators.
            if matches!(op, BinOp::And) {
                return Ok(Value::Bool(
                    eval_truthy(core, lhs, env, omp)? && eval_truthy(core, rhs, env, omp)?,
                ));
            }
            if matches!(op, BinOp::Or) {
                return Ok(Value::Bool(
                    eval_truthy(core, lhs, env, omp)? || eval_truthy(core, rhs, env, omp)?,
                ));
            }
            let l = eval(core, lhs, env, omp)?;
            let r = eval(core, rhs, env, omp)?;
            binary(*op, &l, &r)
        }
        Expr::Call { name, args, .. } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(core, a, env, omp)?);
            }
            // User functions shadow builtins. Borrowing the function out of
            // the shared program (instead of cloning its AST per call) is
            // the single biggest interpreter hot-path win.
            if let Some(f) = core.program.function(name) {
                return call_function(core, f, vals, omp);
            }
            builtin(core, name, vals, omp)
        }
    }
}

/// Applies a binary operator. Shared by the interpreter, the VM's generic
/// `Bin` op fallback, and the `min`/`max` builtins — one source of truth
/// for PJ's numeric/string semantics.
pub(crate) fn binary(op: BinOp, l: &Value, r: &Value) -> Result<Value, CompileError> {
    use BinOp::*;
    use Value::*;
    // String concatenation with +.
    if matches!(op, Add) {
        if let (Str(a), b) = (&l, &r) {
            return Ok(Str(format!("{a}{}", b.display())));
        }
        if let (a, Str(b)) = (&l, &r) {
            return Ok(Str(format!("{}{b}", a.display())));
        }
    }
    match (op, &l, &r) {
        (Eq, _, _) => return Ok(Bool(l == r)),
        (Ne, _, _) => return Ok(Bool(l != r)),
        _ => {}
    }
    let numeric = |op: BinOp, a: f64, b: f64| -> Result<Value, CompileError> {
        Ok(match op {
            Add => Float(a + b),
            Sub => Float(a - b),
            Mul => Float(a * b),
            Div => Float(a / b),
            Rem => Float(a % b),
            Lt => Bool(a < b),
            Le => Bool(a <= b),
            Gt => Bool(a > b),
            Ge => Bool(a >= b),
            _ => return Err(rt_err(format!("bad float op {op:?}"))),
        })
    };
    match (&l, &r) {
        (Int(a), Int(b)) => Ok(match op {
            Add => Int(a.wrapping_add(*b)),
            Sub => Int(a.wrapping_sub(*b)),
            Mul => Int(a.wrapping_mul(*b)),
            Div => {
                if *b == 0 {
                    return Err(rt_err("division by zero"));
                }
                Int(a / b)
            }
            Rem => {
                if *b == 0 {
                    return Err(rt_err("remainder by zero"));
                }
                Int(a % b)
            }
            Lt => Bool(a < b),
            Le => Bool(a <= b),
            Gt => Bool(a > b),
            Ge => Bool(a >= b),
            _ => return Err(rt_err(format!("bad int op {op:?}"))),
        }),
        (Float(a), Float(b)) => numeric(op, *a, *b),
        (Int(a), Float(b)) => numeric(op, *a as f64, *b),
        (Float(a), Int(b)) => numeric(op, *a, *b as f64),
        (Str(a), Str(b)) => Ok(match op {
            Lt => Bool(a < b),
            Le => Bool(a <= b),
            Gt => Bool(a > b),
            Ge => Bool(a >= b),
            _ => return Err(rt_err(format!("bad string op {op:?}"))),
        }),
        _ => Err(rt_err(format!(
            "type error: {} {op:?} {}",
            l.type_name(),
            r.type_name()
        ))),
    }
}

fn builtin(
    core: &Arc<Core>,
    name: &str,
    args: Vec<Value>,
    omp: Option<&Ctx>,
) -> Result<Value, CompileError> {
    match crate::builtins::Builtin::from_name(name) {
        Some(b) => {
            crate::builtins::call(b, &core.run.host(), args, omp)
        }
        None => Err(rt_err(format!("unknown function `{name}`"))),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str) -> RunOutput {
        run_with(src, &ExecConfig::default())
    }

    fn run_with(src: &str, config: &ExecConfig) -> RunOutput {
        let program = parse(src).expect("parse");
        Interpreter::new(Arc::new(program))
            .run(config)
            .unwrap_or_else(|e| panic!("run failed: {e}\nsource:\n{src}"))
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run("fn main() { print(1 + 2 * 3, \"and\", 10 / 4, 10.0 / 4.0); }");
        assert_eq!(out.output, vec!["7 and 2 2.5"]);
    }

    #[test]
    fn variables_and_compound_assign() {
        let out = run("fn main() { let x = 1; x += 4; x *= 2; print(x); }");
        assert_eq!(out.output, vec!["10"]);
    }

    #[test]
    fn control_flow() {
        let out = run(
            r#"fn main() {
                let total = 0;
                for i in 0..5 { if i % 2 == 0 { total += i; } }
                let n = 3;
                while n > 0 { total += 100; n -= 1; }
                print(total);
            }"#,
        );
        assert_eq!(out.output, vec!["306"]);
    }

    #[test]
    fn functions_and_recursion() {
        let out = run(
            r#"fn fib(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); }
               fn main() { print(fib(10)); }"#,
        );
        assert_eq!(out.output, vec!["55"]);
    }

    #[test]
    fn arrays_share_by_reference() {
        let out = run(
            r#"fn fill(a) { push(a, 7); }
               fn main() { let a = arr(); fill(a); print(len(a), a[0]); }"#,
        );
        assert_eq!(out.output, vec!["1 7"]);
    }

    #[test]
    fn string_concat() {
        let out = run(r#"fn main() { print("n=" + 42); }"#);
        assert_eq!(out.output, vec!["n=42"]);
    }

    #[test]
    fn target_nowait_runs_in_background() {
        let out = run(
            r#"fn main() {
                let done = arr();
                //#omp target virtual(worker) nowait
                { push(done, 1); }
                //#omp target virtual(worker) name_as(j)
                { push(done, 2); }
                //#omp wait(j)
                print(len(done) >= 1);
            }"#,
        );
        assert_eq!(out.output, vec!["true"]);
    }

    /// Runs a `nowait` block that posts two nested `nowait` blocks to the
    /// EDT just before it finishes; the second prints. When the outer block
    /// is done, the print is still queued behind the first: the run's
    /// quiesce must wait for it too, or shutting the EDT down drops it.
    pub(crate) fn nested_nowait_output(engine: Engine) -> Vec<String> {
        let src = r#"fn main() {
            //#omp target virtual(worker) nowait
            {
                sleep_ms(20);
                //#omp target virtual(edt) nowait
                { sleep_ms(30); }
                //#omp target virtual(edt) nowait
                { print("nested"); }
            }
            print("main");
        }"#;
        let config = ExecConfig {
            engine,
            ..Default::default()
        };
        run_with(src, &config).output
    }

    #[test]
    fn quiesce_covers_a_nowait_posted_by_a_nowait_block() {
        assert_eq!(nested_nowait_output(Engine::Interp), vec!["main", "nested"]);
    }

    #[test]
    fn target_wait_blocks() {
        let out = run(
            r#"fn main() {
                let a = arr();
                //#omp target virtual(worker)
                { push(a, 1); }
                print(len(a));
            }"#,
        );
        assert_eq!(out.output, vec!["1"]);
    }

    #[test]
    fn data_context_is_shared_with_target_block() {
        // §III-B: the target block mutates the enclosing variable directly.
        let out = run(
            r#"fn main() {
                let x = 0;
                //#omp target virtual(worker)
                { x = 42; }
                print(x);
            }"#,
        );
        assert_eq!(out.output, vec!["42"]);
    }

    #[test]
    fn target_if_false_runs_inline() {
        let out = run(
            r#"fn main() {
                let n = 2;
                //#omp target virtual(worker) if(n > 3)
                { n = 99; }
                print(n);
            }"#,
        );
        assert_eq!(out.output, vec!["99"], "disabled directive still runs the block");
    }

    #[test]
    fn figure6_shape_runs() {
        let out = run(
            r#"fn download_and_compute(hs, log) {
                push(log, "worker:" + hs);
                //#omp target virtual(edt)
                { push(log, "edt:display"); }
            }
            fn main() {
                let log = arr();
                push(log, "edt:start");
                //#omp target virtual(worker) name_as(click)
                {
                    let hs = hash("input");
                    download_and_compute(hs, log);
                    //#omp target virtual(edt)
                    { push(log, "edt:finished"); }
                }
                //#omp wait(click)
                print(len(log));
            }"#,
        );
        assert_eq!(out.output, vec!["4"]);
    }

    #[test]
    fn parallel_region_runs_all_threads() {
        let out = run(
            r#"fn main() {
                let count = arr();
                //#omp parallel num_threads(4)
                {
                    //#omp critical
                    { push(count, omp_get_thread_num()); }
                }
                print(len(count), omp_get_num_threads());
            }"#,
        );
        assert_eq!(out.output, vec!["4 1"]);
    }

    #[test]
    fn parallel_for_covers_range() {
        let out = run(
            r#"fn main() {
                let hits = zeros(20);
                //#omp parallel for num_threads(3) schedule(dynamic, 2)
                for i in 0..20 { hits[i] = hits[i] + 1; }
                let total = 0;
                for i in 0..20 { total += hits[i]; }
                print(total);
            }"#,
        );
        assert_eq!(out.output, vec!["20"]);
    }

    #[test]
    fn single_and_master_inside_parallel() {
        let out = run(
            r#"fn main() {
                let s = arr();
                let m = arr();
                //#omp parallel num_threads(4)
                {
                    //#omp single
                    { push(s, 1); }
                    //#omp master
                    { push(m, 1); }
                }
                print(len(s), len(m));
            }"#,
        );
        assert_eq!(out.output, vec!["1 1"]);
    }

    #[test]
    fn barrier_outside_parallel_is_error() {
        let program = parse("fn main() { //#omp barrier\n }").unwrap();
        let r = Interpreter::new(Arc::new(program)).run(&ExecConfig::default());
        assert!(r.is_err());
    }

    #[test]
    fn ignoring_directives_gives_same_output() {
        let src = r#"fn main() {
            let x = 0;
            //#omp target virtual(worker)
            { x = x + 1; }
            //#omp parallel for num_threads(2)
            for i in 0..10 {
                //#omp critical
                { x = x + 1; }
            }
            print(x);
        }"#;
        let with = run(src);
        let without = run_with(
            src,
            &ExecConfig {
                ignore_directives: true,
                ..Default::default()
            },
        );
        assert_eq!(with.output, without.output, "sequential equivalence violated");
    }

    #[test]
    fn undefined_variable_is_runtime_error() {
        let program = parse("fn main() { print(nope); }").unwrap();
        let r = Interpreter::new(Arc::new(program)).run(&ExecConfig::default());
        assert!(matches!(r, Err(CompileError::Runtime(_))));
    }

    #[test]
    fn division_by_zero_is_runtime_error() {
        let program = parse("fn main() { print(1 / 0); }").unwrap();
        assert!(Interpreter::new(Arc::new(program))
            .run(&ExecConfig::default())
            .is_err());
    }

    #[test]
    fn error_inside_nowait_block_is_reported() {
        let program =
            parse("fn main() { //#omp target virtual(worker) nowait\n { print(1/0); } }").unwrap();
        let r = Interpreter::new(Arc::new(program)).run(&ExecConfig::default());
        assert!(r.is_err(), "background errors must surface at run() exit");
    }

    #[test]
    fn main_return_value_surfaces() {
        let out = run("fn main() { return 41 + 1; }");
        assert_eq!(out.result, "42");
    }

    #[test]
    fn builtins_min_max_abs_sqrt() {
        let out = run("fn main() { print(min(2, 1), max(2, 1), abs(-5), sqrt(9)); }");
        assert_eq!(out.output, vec!["1 2 5 3"]);
    }

    #[test]
    fn is_edt_true_only_inside_edt_target() {
        let out = run(
            r#"fn main() {
                let r = arr();
                //#omp target virtual(edt)
                { push(r, is_edt()); }
                push(r, is_edt());
                print(r[0], r[1]);
            }"#,
        );
        assert_eq!(out.output, vec!["true false"]);
    }

    #[test]
    fn target_device_dispatches_to_simulated_accelerator() {
        let src = r#"fn main() {
            let x = 0;
            //#omp target device(0)
            { x = 41 + 1; }
            print(x);
        }"#;
        let program = Arc::new(parse(src).unwrap());
        // With a registered device:
        let out = Interpreter::new(Arc::clone(&program))
            .run(&ExecConfig {
                devices: vec![0],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(out.output, vec!["42"]);
        // Without: host-pool fallback, same result.
        let out = Interpreter::new(program).run(&ExecConfig::default()).unwrap();
        assert_eq!(out.output, vec!["42"]);
    }

    #[test]
    fn break_and_continue() {
        let out = run(
            r#"fn main() {
                let s = 0;
                for i in 0..100 {
                    if i == 5 { break; }
                    if i % 2 == 1 { continue; }
                    s += i;
                }
                let w = 0;
                while true {
                    w += 1;
                    if w == 7 { break; }
                }
                print(s, w);
            }"#,
        );
        assert_eq!(out.output, vec!["6 7"]); // 0+2+4, then 7
    }

    #[test]
    fn break_outside_loop_is_error() {
        let program = parse("fn main() { break; }").unwrap();
        assert!(Interpreter::new(Arc::new(program))
            .run(&ExecConfig::default())
            .is_err());
    }

    #[test]
    fn task_and_taskwait_inside_parallel() {
        let out = run(
            r#"fn main() {
                let acc = arr();
                //#omp parallel num_threads(3)
                {
                    //#omp single
                    {
                        for i in 0..6 {
                            //#omp task
                            {
                                //#omp critical
                                { push(acc, i); }
                            }
                        }
                    }
                    //#omp taskwait
                }
                print(len(acc));
            }"#,
        );
        assert_eq!(out.output, vec!["6"]);
    }

    #[test]
    fn orphaned_task_runs_sequentially() {
        // §I: "an orphaned task directive will execute sequentially".
        let out = run(
            r#"fn main() {
                let log = arr();
                //#omp task
                { push(log, "task"); }
                push(log, "after");
                print(log[0], log[1]);
            }"#,
        );
        assert_eq!(out.output, vec!["task after"]);
    }

    #[test]
    fn sections_each_run_once() {
        let out = run(
            r#"fn main() {
                let log = arr();
                //#omp parallel num_threads(2)
                {
                    //#omp sections
                    {
                        { //#omp critical
                          { push(log, "a"); } }
                        { //#omp critical
                          { push(log, "b"); } }
                        { //#omp critical
                          { push(log, "c"); } }
                    }
                }
                print(len(log));
            }"#,
        );
        assert_eq!(out.output, vec!["3"]);
    }

    #[test]
    fn string_builtins() {
        let out = run(
            r#"fn main() {
                let s = "hello world";
                print(substr(s, 0, 5), contains(s, "wor"), replace(s, "world", "pj"));
                print(pow(2, 10), floor(3.9));
            }"#,
        );
        assert_eq!(out.output, vec!["hello true hello pj", "1024 3"]);
    }

    #[test]
    fn await_mode_completes_with_continuation_after() {
        let out = run(
            r#"fn main() {
                let log = arr();
                //#omp target virtual(worker) await
                { push(log, "block"); }
                push(log, "continuation");
                print(log[0], log[1]);
            }"#,
        );
        assert_eq!(out.output, vec!["block continuation"]);
    }
}
