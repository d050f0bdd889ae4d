//! The PJ register VM: a single match-dispatch loop over flat bytecode.
//!
//! One OS-thread entry (the `main` call, each dispatched target block, each
//! team member, each `parallel for` iteration) owns a private register
//! stack (`Vec<Slot>`); call frames are windows into it, and a callee's
//! window *starts at the caller's argument block*, so calls copy nothing.
//! The only shared state is the cells of directive-captured variables
//! (`Arc<Mutex<Value>>`), exactly as in the tree-walking interpreter — the
//! paper's §III-B data-context sharing survives unchanged because the
//! compiler routes every captured name through `CellGet`/`CellSet`/
//! `CapGet`/`CapSet`, never through plain registers.
//!
//! Directive `Dispatch` ops drive the same substrates as the interpreter:
//! `target` bodies go through [`pyjama_runtime::Runtime::try_target`]
//! (member short-circuit, `await` pumping, tag synchronisation all apply),
//! `parallel` / `parallel for` fork [`pyjama_omp`] teams. Per-op and
//! per-frame counts are batched thread-locally and flushed once per entry
//! into a process-wide [`VmCounters`], whose conservation law
//! (`target_dispatches == RunOutput::target_posts`) ties the compiler's
//! view of dispatch to the runtime's.

use std::sync::Arc;

use pyjama_sync::Mutex;
use pyjama_metrics::{VmCounters, VmStats};
use pyjama_omp::Ctx;

use crate::ast::{BinOp, Program, UnOp};
use crate::builtins;
use crate::bytecode::{CapSrc, Chunk, Const, DirectiveSpec, Op, Reg};
use crate::interp::{self, binary, rt_err, Cell, ExecConfig, RunOutput, RunState, Value};
use crate::CompileError;

/// Process-wide VM counters (ops, frames, dispatches). See
/// [`pyjama_metrics::VmCounters`] for the conservation law.
static COUNTERS: VmCounters = VmCounters::new();

/// Snapshot of the process-wide VM counters.
pub fn vm_stats() -> VmStats {
    COUNTERS.snapshot()
}

/// Zeroes the process-wide VM counters (quiesce running programs first).
pub fn reset_vm_stats() {
    COUNTERS.reset()
}

/// One register slot. Unboxed locals and temporaries hold a [`Value`]
/// directly; directive-captured locals hold the shared cell.
#[derive(Clone, Debug, Default)]
enum Slot {
    #[default]
    Empty,
    V(Value),
    C(Cell),
}

/// Shared run state — the VM's analogue of the interpreter's `Core`.
struct VmCore {
    module: crate::bytecode::Module,
    run: RunState,
}

#[derive(Default)]
struct LocalCounts {
    ops: u64,
    frames: u64,
}

enum Exit {
    /// Fell past the end of the range.
    Fall,
    /// A jump whose target lies outside the range (break escaping an
    /// inline `critical` region, for instance).
    Jump(u32),
    /// A `Ret`/`RetUnit` unwinding the whole chunk.
    Ret(Value),
}

enum DispatchOut {
    /// Run the inline body copy at `pc + 1` (disabled `if`, orphaned
    /// `single`/`task`/`sections`, `master` on the master thread).
    Inline,
    /// The directive ran (or was dispatched); resume at `skip`.
    Skip,
}

/// Compiles and runs a program on the VM engine.
pub fn run_program(program: &Program, config: &ExecConfig) -> Result<RunOutput, CompileError> {
    let module = crate::compile::compile_program(program);
    let main = module.main.ok_or_else(|| rt_err("no `main` function"))?;
    let params = module.chunks[main].params;
    if params != 0 {
        return Err(rt_err(format!(
            "function `main` expects {params} arguments, got 0"
        )));
    }

    let (run, edt) = RunState::start(config)?;
    let core = Arc::new(VmCore { module, run });
    let result = run_entry(&core, main, Vec::new(), Vec::new(), None)?;
    core.run.finish(edt, config, &result)
}

/// Runs one chunk on a fresh register stack — the entry point for `main`
/// and for every dispatched closure. Batched counters flush here, once.
fn run_entry(
    core: &Arc<VmCore>,
    chunk: usize,
    caps: Vec<Cell>,
    params: Vec<Value>,
    omp: Option<&Ctx>,
) -> Result<Value, CompileError> {
    let mut counters = LocalCounts::default();
    let mut stack: Vec<Slot> = params.into_iter().map(Slot::V).collect();
    let r = run_chunk(core, &mut stack, 0, chunk, &caps, omp, &mut counters);
    COUNTERS.ops_executed.add(counters.ops);
    COUNTERS.frames_pushed.add(counters.frames);
    r
}

#[allow(clippy::too_many_arguments)]
fn run_chunk(
    core: &Arc<VmCore>,
    stack: &mut Vec<Slot>,
    base: usize,
    chunk_idx: usize,
    caps: &[Cell],
    omp: Option<&Ctx>,
    counters: &mut LocalCounts,
) -> Result<Value, CompileError> {
    let chunk = &core.module.chunks[chunk_idx];
    if stack.len() < base + chunk.regs {
        stack.resize(base + chunk.regs, Slot::Empty);
    }
    counters.frames += 1;
    match run_range(
        core,
        stack,
        base,
        chunk,
        caps,
        omp,
        counters,
        0,
        chunk.ops.len() as u32,
    )? {
        Exit::Ret(v) => Ok(v),
        // Chunks end in an appended `RetUnit`; falling off is equivalent.
        Exit::Fall | Exit::Jump(_) => Ok(Value::Unit),
    }
}

fn val(stack: &[Slot], base: usize, r: Reg) -> Result<&Value, CompileError> {
    match &stack[base + r as usize] {
        Slot::V(v) => Ok(v),
        _ => Err(rt_err("internal: read of non-value register")),
    }
}

fn take(stack: &mut [Slot], base: usize, r: Reg) -> Result<Value, CompileError> {
    match std::mem::take(&mut stack[base + r as usize]) {
        Slot::V(v) => Ok(v),
        _ => Err(rt_err("internal: take of non-value register")),
    }
}

fn put(stack: &mut [Slot], base: usize, r: Reg, v: Value) {
    stack[base + r as usize] = Slot::V(v);
}

fn load_const(chunk: &Chunk, idx: u16) -> Value {
    match &chunk.consts[idx as usize] {
        Const::Int(v) => Value::Int(*v),
        Const::Float(v) => Value::Float(*v),
        Const::Str(s) => Value::Str(s.clone()),
    }
}

fn const_str(chunk: &Chunk, idx: u16) -> &str {
    match &chunk.consts[idx as usize] {
        Const::Str(s) => s,
        _ => "internal: non-string constant",
    }
}

/// Resolves a closure's capture recipe against the dispatching frame.
fn resolve_caps(
    stack: &[Slot],
    base: usize,
    caps: &[Cell],
    srcs: &[CapSrc],
) -> Result<Vec<Cell>, CompileError> {
    srcs.iter()
        .map(|s| match s {
            CapSrc::Reg(r) => match &stack[base + *r as usize] {
                Slot::C(c) => Ok(Arc::clone(c)),
                _ => Err(rt_err("internal: capture of unboxed register")),
            },
            CapSrc::Cap(i) => Ok(Arc::clone(&caps[*i as usize])),
        })
        .collect()
}

/// Executes ops `[start, end)`. Jumps landing inside `[start, end]` move
/// `pc`; jumps escaping the range (a `break` leaving an inline `critical`
/// region) propagate as [`Exit::Jump`] for the enclosing range to take.
#[allow(clippy::too_many_arguments)]
fn run_range(
    core: &Arc<VmCore>,
    stack: &mut Vec<Slot>,
    base: usize,
    chunk: &Chunk,
    caps: &[Cell],
    omp: Option<&Ctx>,
    counters: &mut LocalCounts,
    start: u32,
    end: u32,
) -> Result<Exit, CompileError> {
    let mut pc = start;
    while pc < end {
        counters.ops += 1;
        let op = chunk.ops[pc as usize];
        pc += 1;
        macro_rules! jump {
            ($t:expr) => {{
                let t: u32 = $t;
                if t < start || t > end {
                    return Ok(Exit::Jump(t));
                }
                pc = t;
                continue;
            }};
        }
        match op {
            Op::LoadConst { dst, idx } => put(stack, base, dst, load_const(chunk, idx)),
            Op::LoadInt { dst, v } => put(stack, base, dst, Value::Int(v as i64)),
            Op::LoadBool { dst, v } => put(stack, base, dst, Value::Bool(v)),
            Op::LoadUnit { dst } => put(stack, base, dst, Value::Unit),
            Op::Move { dst, src } => {
                let v = val(stack, base, src)?.clone();
                put(stack, base, dst, v);
            }
            Op::NewCell { reg } => {
                let slot = &mut stack[base + reg as usize];
                match std::mem::take(slot) {
                    Slot::V(v) => *slot = Slot::C(Arc::new(Mutex::new(v))),
                    _ => return Err(rt_err("internal: boxing a non-value register")),
                }
            }
            Op::CellGet { dst, src } => {
                let v = match &stack[base + src as usize] {
                    Slot::C(c) => c.lock().clone(),
                    _ => return Err(rt_err("internal: cell read of unboxed register")),
                };
                put(stack, base, dst, v);
            }
            Op::CellSet { dst, src } => {
                let v = val(stack, base, src)?.clone();
                match &stack[base + dst as usize] {
                    Slot::C(c) => *c.lock() = v,
                    _ => return Err(rt_err("internal: cell write of unboxed register")),
                }
            }
            Op::CapGet { dst, idx } => {
                let v = caps[idx as usize].lock().clone();
                put(stack, base, dst, v);
            }
            Op::CapSet { idx, src } => {
                let v = val(stack, base, src)?.clone();
                *caps[idx as usize].lock() = v;
            }
            Op::Bin { op, dst, a, b } => {
                let out = match (val(stack, base, a)?, val(stack, base, b)?) {
                    // Int×int inline — the dominant case in compute kernels;
                    // semantics identical to `interp::binary`.
                    (Value::Int(x), Value::Int(y)) => {
                        let (x, y) = (*x, *y);
                        match op {
                            BinOp::Add => Value::Int(x.wrapping_add(y)),
                            BinOp::Sub => Value::Int(x.wrapping_sub(y)),
                            BinOp::Mul => Value::Int(x.wrapping_mul(y)),
                            BinOp::Div => {
                                if y == 0 {
                                    return Err(rt_err("division by zero"));
                                }
                                Value::Int(x / y)
                            }
                            BinOp::Rem => {
                                if y == 0 {
                                    return Err(rt_err("remainder by zero"));
                                }
                                Value::Int(x % y)
                            }
                            BinOp::Lt => Value::Bool(x < y),
                            BinOp::Le => Value::Bool(x <= y),
                            BinOp::Gt => Value::Bool(x > y),
                            BinOp::Ge => Value::Bool(x >= y),
                            BinOp::Eq => Value::Bool(x == y),
                            BinOp::Ne => Value::Bool(x != y),
                            _ => binary(op, &Value::Int(x), &Value::Int(y))?,
                        }
                    }
                    (va, vb) => binary(op, va, vb)?,
                };
                put(stack, base, dst, out);
            }
            Op::AddImm { dst, a, imm } => {
                let x = val(stack, base, a)?.as_int()?;
                put(stack, base, dst, Value::Int(x.wrapping_add(imm as i64)));
            }
            Op::BinImm { op, dst, a, imm } => {
                let out = match val(stack, base, a)? {
                    Value::Int(x) => {
                        let (x, y) = (*x, imm as i64);
                        match op {
                            BinOp::Add => Value::Int(x.wrapping_add(y)),
                            BinOp::Sub => Value::Int(x.wrapping_sub(y)),
                            BinOp::Mul => Value::Int(x.wrapping_mul(y)),
                            BinOp::Div => {
                                if y == 0 {
                                    return Err(rt_err("division by zero"));
                                }
                                Value::Int(x / y)
                            }
                            BinOp::Rem => {
                                if y == 0 {
                                    return Err(rt_err("remainder by zero"));
                                }
                                Value::Int(x % y)
                            }
                            BinOp::Lt => Value::Bool(x < y),
                            BinOp::Le => Value::Bool(x <= y),
                            BinOp::Gt => Value::Bool(x > y),
                            BinOp::Ge => Value::Bool(x >= y),
                            BinOp::Eq => Value::Bool(x == y),
                            BinOp::Ne => Value::Bool(x != y),
                            _ => binary(op, &Value::Int(x), &Value::Int(y))?,
                        }
                    }
                    v => binary(op, v, &Value::Int(imm as i64))?,
                };
                put(stack, base, dst, out);
            }
            Op::Neg { dst, src } => {
                let out = match val(stack, base, src)? {
                    Value::Int(v) => Value::Int(-*v),
                    Value::Float(v) => Value::Float(-*v),
                    v => {
                        return Err(rt_err(format!(
                            "cannot apply {:?} to {}",
                            UnOp::Neg,
                            v.type_name()
                        )))
                    }
                };
                put(stack, base, dst, out);
            }
            Op::Not { dst, src } => {
                let out = match val(stack, base, src)? {
                    Value::Bool(b) => Value::Bool(!*b),
                    v => {
                        return Err(rt_err(format!(
                            "cannot apply {:?} to {}",
                            UnOp::Not,
                            v.type_name()
                        )))
                    }
                };
                put(stack, base, dst, out);
            }
            Op::Jump { to } => jump!(to),
            Op::JumpIfFalse { cond, to } => {
                if !val(stack, base, cond)?.truthy()? {
                    jump!(to);
                }
            }
            Op::JumpIfTrue { cond, to } => {
                if val(stack, base, cond)?.truthy()? {
                    jump!(to);
                }
            }
            Op::AssertInt { reg } => {
                val(stack, base, reg)?.as_int()?;
            }
            Op::Index { dst, arr, idx } => {
                let i = val(stack, base, idx)?.as_int()?;
                let out = match val(stack, base, arr)? {
                    Value::Arr(a) => {
                        let g = a.lock();
                        usize::try_from(i)
                            .ok()
                            .and_then(|i| g.get(i).cloned())
                            .ok_or_else(|| rt_err(format!("index {i} out of bounds")))?
                    }
                    other => {
                        return Err(rt_err(format!("cannot index a {}", other.type_name())))
                    }
                };
                put(stack, base, dst, out);
            }
            Op::IndexSet { arr, idx, val: v } => {
                let i = val(stack, base, idx)?.as_int()?;
                let value = take(stack, base, v)?;
                match val(stack, base, arr)? {
                    Value::Arr(a) => {
                        let mut g = a.lock();
                        let iu = usize::try_from(i)
                            .ok()
                            .filter(|i| *i < g.len())
                            .ok_or_else(|| rt_err(format!("index {i} out of bounds")))?;
                        g[iu] = value;
                    }
                    other => {
                        return Err(rt_err(format!(
                            "cannot index-assign a {}",
                            other.type_name()
                        )))
                    }
                }
            }
            Op::Call {
                chunk: callee,
                dst,
                base: rel,
                argc: _,
            } => {
                // The callee's frame starts at the argument block — the
                // arguments already are its first registers.
                let callee_base = base + rel as usize;
                let v = run_chunk(core, stack, callee_base, callee as usize, &[], omp, counters)?;
                put(stack, base, dst, v);
            }
            Op::CallBuiltin {
                b,
                dst,
                base: rel,
                argc,
            } => {
                let mut args = Vec::with_capacity(argc as usize);
                for k in 0..argc as u16 {
                    args.push(take(stack, base, rel + k)?);
                }
                let out = builtins::call(b, &core.run.host(), args, omp)?;
                put(stack, base, dst, out);
            }
            Op::Ret { src } => {
                let v = take(stack, base, src)?;
                return Ok(Exit::Ret(v));
            }
            Op::RetUnit => return Ok(Exit::Ret(Value::Unit)),
            Op::Fail { msg } => return Err(rt_err(const_str(chunk, msg).to_string())),
            Op::JumpIfIgnoring { to } => {
                if core.run.ignore {
                    jump!(to);
                }
            }
            Op::WaitTag { tag } => {
                if !core.run.ignore {
                    core.run.rt.wait_tag(const_str(chunk, tag));
                }
            }
            Op::Barrier => {
                if !core.run.ignore {
                    match omp {
                        Some(ctx) => ctx.barrier(),
                        None => {
                            return Err(rt_err("barrier directive outside a parallel region"))
                        }
                    }
                }
            }
            Op::TaskWait => {
                if !core.run.ignore {
                    if let Some(ctx) = omp {
                        ctx.taskwait();
                    }
                }
            }
            Op::Dispatch { spec, skip } => match &chunk.specs[spec as usize] {
                // `critical` runs the inline range under the named lock —
                // no closure chunk, so `return`/`break` inside it unwind
                // through [`Exit`] with the lock released first.
                DirectiveSpec::Critical { name } => {
                    let key = if name.is_empty() { "<pj-anon>" } else { name };
                    let lock = pyjama_omp::sync::critical_lock(key);
                    let guard = lock.lock();
                    let exit =
                        run_range(core, stack, base, chunk, caps, omp, counters, pc, skip)?;
                    drop(guard);
                    match exit {
                        Exit::Fall => jump!(skip),
                        Exit::Jump(t) => jump!(t),
                        ret @ Exit::Ret(_) => return Ok(ret),
                    }
                }
                other => match dispatch(core, stack, base, caps, omp, other)? {
                    DispatchOut::Inline => {} // fall into the inline copy
                    DispatchOut::Skip => jump!(skip),
                },
            },
        }
    }
    Ok(Exit::Fall)
}

/// Executes a non-`critical` directive spec. Mirrors the interpreter's
/// `exec_directive` arm for arm, including error propagation.
fn dispatch(
    core: &Arc<VmCore>,
    stack: &mut [Slot],
    base: usize,
    caps: &[Cell],
    omp: Option<&Ctx>,
    spec: &DirectiveSpec,
) -> Result<DispatchOut, CompileError> {
    match spec {
        DirectiveSpec::Target {
            target,
            mode,
            cond,
            body,
        } => {
            let enabled = match cond {
                Some(r) => val(stack, base, *r)?.truthy()?,
                None => true,
            };
            if !enabled {
                // Disabled directive: execute synchronously in place.
                return Ok(DispatchOut::Inline);
            }
            let cells = resolve_caps(stack, base, caps, &body.caps)?;
            let chunk_idx = body.chunk as usize;
            let core2 = Arc::clone(core);
            let closure = move || {
                core2.run.record(run_entry(&core2, chunk_idx, cells, Vec::new(), None));
            };
            core.run.post_target(target, mode.clone(), closure)?;
            COUNTERS.target_dispatches.inc();
            Ok(DispatchOut::Skip)
        }
        DirectiveSpec::Parallel { num_threads, body } => {
            let cells = resolve_caps(stack, base, caps, &body.caps)?;
            let chunk_idx = body.chunk as usize;
            let n = num_threads.unwrap_or_else(pyjama_omp::default_num_threads);
            COUNTERS.team_regions.inc();
            let errors: Mutex<Vec<CompileError>> = Mutex::new(Vec::new());
            pyjama_omp::parallel(n, |ctx| {
                if let Err(e) = run_entry(core, chunk_idx, cells.clone(), Vec::new(), Some(ctx)) {
                    errors.lock().push(e);
                }
            });
            match errors.into_inner().into_iter().next() {
                Some(e) => Err(e),
                None => Ok(DispatchOut::Skip),
            }
        }
        DirectiveSpec::ParallelFor {
            num_threads,
            schedule,
            start,
            end,
            body,
        } => {
            let s = val(stack, base, *start)?.as_int()?;
            let e = val(stack, base, *end)?.as_int()?;
            if e <= s {
                return Ok(DispatchOut::Skip);
            }
            let (s, e) = (s as usize, e as usize);
            let cells = resolve_caps(stack, base, caps, &body.caps)?;
            let chunk_idx = body.chunk as usize;
            let n = num_threads.unwrap_or_else(pyjama_omp::default_num_threads);
            let sched = interp::omp_schedule(schedule);
            COUNTERS.team_regions.inc();
            let errors: Mutex<Vec<CompileError>> = Mutex::new(Vec::new());
            pyjama_omp::parallel(n, |ctx| {
                ctx.for_range_nowait(s..e, sched, |i| {
                    if let Err(err) = run_entry(
                        core,
                        chunk_idx,
                        cells.clone(),
                        vec![Value::Int(i as i64)],
                        None,
                    ) {
                        errors.lock().push(err);
                    }
                });
            });
            match errors.into_inner().into_iter().next() {
                Some(e) => Err(e),
                None => Ok(DispatchOut::Skip),
            }
        }
        DirectiveSpec::Single { body } => match omp {
            None => Ok(DispatchOut::Inline),
            Some(ctx) => {
                let cells = resolve_caps(stack, base, caps, &body.caps)?;
                let chunk_idx = body.chunk as usize;
                let result: Mutex<Option<Result<(), CompileError>>> = Mutex::new(None);
                ctx.single(|| {
                    let r = run_entry(core, chunk_idx, cells, Vec::new(), Some(ctx)).map(|_| ());
                    *result.lock() = Some(r);
                });
                match result.into_inner() {
                    Some(Err(e)) => Err(e),
                    _ => Ok(DispatchOut::Skip),
                }
            }
        },
        DirectiveSpec::Task { body } => match omp {
            // "An orphaned task directive will execute sequentially" (§I).
            None => Ok(DispatchOut::Inline),
            Some(ctx) => {
                let cells = resolve_caps(stack, base, caps, &body.caps)?;
                let chunk_idx = body.chunk as usize;
                let core2 = Arc::clone(core);
                ctx.task(move || {
                    core2.run.record(run_entry(&core2, chunk_idx, cells, Vec::new(), None));
                });
                Ok(DispatchOut::Skip)
            }
        },
        DirectiveSpec::Sections { sections } => match omp {
            None => Ok(DispatchOut::Inline),
            Some(ctx) => {
                let resolved: Vec<(usize, Vec<Cell>)> = sections
                    .iter()
                    .map(|cr| {
                        Ok((
                            cr.chunk as usize,
                            resolve_caps(stack, base, caps, &cr.caps)?,
                        ))
                    })
                    .collect::<Result<_, CompileError>>()?;
                let errors: Mutex<Vec<CompileError>> = Mutex::new(Vec::new());
                {
                    let errors = &errors;
                    let fns: Vec<Box<dyn Fn() + Sync>> = resolved
                        .iter()
                        .map(|(ci, cells)| {
                            Box::new(move || {
                                if let Err(e) =
                                    run_entry(core, *ci, cells.clone(), Vec::new(), None)
                                {
                                    errors.lock().push(e);
                                }
                            }) as Box<dyn Fn() + Sync>
                        })
                        .collect();
                    let refs: Vec<&(dyn Fn() + Sync)> =
                        fns.iter().map(|b| b.as_ref()).collect();
                    ctx.sections(&refs);
                }
                match errors.into_inner().into_iter().next() {
                    Some(e) => Err(e),
                    None => Ok(DispatchOut::Skip),
                }
            }
        },
        DirectiveSpec::Master => match omp {
            Some(ctx) if !ctx.is_master() => Ok(DispatchOut::Skip),
            _ => Ok(DispatchOut::Inline),
        },
        DirectiveSpec::Critical { .. } => unreachable!("critical handled in run_range"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Engine, Interpreter};
    use crate::parser::parse;

    fn run_engine(src: &str, engine: Engine) -> RunOutput {
        let program = parse(src).expect("parse");
        Interpreter::new(Arc::new(program))
            .run(&ExecConfig {
                engine,
                ..Default::default()
            })
            .unwrap_or_else(|e| panic!("run failed: {e}\nsource:\n{src}"))
    }

    #[test]
    fn vm_matches_interpreter_on_compute_kernel() {
        let src = r#"
            fn fib(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); }
            fn main() {
                let acc = 0;
                for i in 0..12 { acc += fib(i); }
                print(acc, fib(15));
                return acc;
            }"#;
        let vm = run_engine(src, Engine::Vm);
        let interp = run_engine(src, Engine::Interp);
        assert_eq!(vm.output, interp.output);
        assert_eq!(vm.result, interp.result);
    }

    #[test]
    fn vm_quiesce_covers_a_nowait_posted_by_a_nowait_block() {
        let out = crate::interp::tests::nested_nowait_output(Engine::Vm);
        assert_eq!(out, vec!["main", "nested"]);
    }

    #[test]
    fn vm_matches_interpreter_on_directives() {
        let src = r#"fn main() {
            let x = 0;
            //#omp target virtual(worker)
            { x = x + 1; }
            //#omp parallel for num_threads(2)
            for i in 0..8 {
                //#omp critical
                { x = x + 1; }
            }
            print(x);
        }"#;
        let vm = run_engine(src, Engine::Vm);
        let interp = run_engine(src, Engine::Interp);
        assert_eq!(vm.output, interp.output);
    }

    #[test]
    fn vm_counters_grow_and_balance_against_runtime() {
        let before = vm_stats();
        let src = r#"fn main() {
            let x = 0;
            //#omp target virtual(worker)
            { x = 1; }
            //#omp target virtual(worker) nowait
            { x = 2; }
            print(x >= 0);
        }"#;
        let out = run_engine(src, Engine::Vm);
        let delta = vm_stats().since(&before);
        assert!(delta.ops_executed > 0);
        assert!(delta.frames_pushed >= 3, "main + two target closures");
        // Other tests run concurrently in this binary, so only a lower
        // bound holds here; the exact conservation law is asserted in the
        // process-isolated `tests/vm_counters.rs`.
        assert!(delta.target_dispatches >= out.target_posts.min(2));
    }

    #[test]
    fn deep_recursion_overlapping_frames() {
        let src = r#"
            fn down(n, acc) { if n == 0 { return acc; } return down(n - 1, acc + n); }
            fn main() { print(down(200, 0)); }"#;
        // Each PJ call is a native VM frame; unoptimised builds outgrow the
        // 2 MiB test-thread stack at this depth, so the stack is explicit.
        let out = std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(|| run_engine(src, Engine::Vm))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(out.output, vec!["20100"]);
    }

    #[test]
    fn break_inside_inline_critical_escapes_to_loop_end() {
        // Exercises Exit::Jump propagation out of the locked inline range.
        let src = r#"fn main() {
            let n = 0;
            for i in 0..10 {
                //#omp critical
                { n += 1; if i == 3 { break; } }
            }
            print(n);
        }"#;
        for engine in [Engine::Vm, Engine::Interp] {
            assert_eq!(run_engine(src, engine).output, vec!["4"], "{engine:?}");
        }
    }

    #[test]
    fn return_inside_inline_critical_unwinds_function() {
        let src = r#"
            fn pick(n) {
                //#omp critical(pick)
                { if n > 2 { return "big"; } }
                return "small";
            }
            fn main() { print(pick(5), pick(1)); }"#;
        for engine in [Engine::Vm, Engine::Interp] {
            assert_eq!(
                run_engine(src, engine).output,
                vec!["big small"],
                "{engine:?}"
            );
        }
    }
}
