//! The IR interpreter with cycle accounting, cache simulation, edge
//! profiling and PMU-style d-cache sampling.
//!
//! Running a program yields an [`ExecOutcome`]: the exit value, execution
//! statistics (instructions, simulated cycles, cache behaviour, heap
//! high-water marks) and — when enabled — a [`Feedback`] profile that the
//! compiler-side analyses consume (the paper's PBO collection phase with
//! HP Caliper attached).

use crate::cache::{CacheConfig, CacheSim, CacheStats};
use crate::cost::CostModel;
use crate::heap::{array_bytes, Heap, MemError, ScalarValue};
use crate::profile::{Countdown, Feedback, StrideTable};
use crate::value::Value;
use slo_ir::{BlockId, FuncId, FuncKind, Instr, InstrRef, Operand, Program, Reg, ScalarKind, Type};
use std::fmt;

/// Which execution engine runs the program.
///
/// Both engines are observationally identical (exit values, stats,
/// profiles); the decoded engine is the fast default, the structured
/// engine walks the IR directly and is kept as the reference
/// implementation for differential testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Pre-decoded flat instruction stream (see [`crate::decode`]).
    #[default]
    Decoded,
    /// Structured IR walker (the original engine).
    Structured,
}

/// Interpreter options.
#[derive(Debug, Clone)]
pub struct VmOptions {
    /// Cache hierarchy configuration.
    pub cache: CacheConfig,
    /// Instruction cost model.
    pub cost: CostModel,
    /// Collect CFG edge counts (compiler instrumentation present).
    pub collect_edges: bool,
    /// Collect sampled d-cache events (PMU sampling attached).
    pub sample_dcache: bool,
    /// Sample every Nth memory access (1 = all).
    pub sample_period: u64,
    /// Abort after this many executed instructions.
    pub step_limit: u64,
    /// Abort beyond this call depth.
    pub call_depth_limit: usize,
    /// Which execution engine to use.
    pub engine: Engine,
    /// Trace recorder. The default (disabled) recorder is a no-op; an
    /// enabled recorder gets a `vm.run` span per run plus sampled
    /// instruction/cycle counters every [`trace_step_interval`] steps.
    ///
    /// [`trace_step_interval`]: VmOptions::trace_step_interval
    pub trace: slo_obs::Recorder,
    /// Steps between sampled counter events when `trace` is enabled —
    /// sampling keeps a 100M-instruction traced run bounded.
    pub trace_step_interval: u64,
    /// Fault-injection plan. The default (disabled) plan costs one
    /// branch at each site; an enabled plan can refuse heap
    /// allocations ([`ExecError::Injected`]) and jitter the effective
    /// step limit downward at run start.
    pub faults: slo_chaos::FaultPlan,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            cache: CacheConfig::default(),
            cost: CostModel::default(),
            collect_edges: false,
            sample_dcache: false,
            sample_period: 97,
            step_limit: 2_000_000_000,
            call_depth_limit: 10_000,
            engine: Engine::default(),
            trace: slo_obs::Recorder::disabled(),
            trace_step_interval: 1_000_000,
            faults: slo_chaos::FaultPlan::disabled(),
        }
    }
}

impl VmOptions {
    /// Options for a plain (uninstrumented) timing run.
    pub fn plain() -> Self {
        Self::default()
    }

    /// Options for a PBO collection run: edge instrumentation + sampling.
    pub fn profiling() -> Self {
        VmOptions {
            collect_edges: true,
            sample_dcache: true,
            ..Self::default()
        }
    }

    /// Options for sampling without instrumentation (the paper's DMISS.NO
    /// configuration).
    pub fn sampling_only() -> Self {
        VmOptions {
            collect_edges: false,
            sample_dcache: true,
            ..Self::default()
        }
    }

    /// The same options, forced onto the structured (reference) engine.
    pub fn structured(mut self) -> Self {
        self.engine = Engine::Structured;
        self
    }

    /// Start building options from the defaults — the one construction
    /// path shared by the CLI, batch service, fuzzer and bench drivers.
    /// Plain field-struct literals over `Default` keep compiling.
    pub fn builder() -> VmOptionsBuilder {
        VmOptionsBuilder {
            opts: Self::default(),
        }
    }

    /// The step limit this run actually gets: the configured
    /// [`step_limit`], shaved by up to half when the fault plan's
    /// step-jitter site fires. Queried once per run by both engines;
    /// jitter only ever *lowers* the limit, so a disabled plan
    /// preserves the exact `==limit` completion boundary.
    ///
    /// [`step_limit`]: VmOptions::step_limit
    pub fn effective_step_limit(&self) -> u64 {
        if self.faults.should_fire(slo_chaos::Site::VmStepJitter) {
            let shave = self
                .faults
                .magnitude(slo_chaos::Site::VmStepJitter, self.step_limit / 2);
            self.step_limit - shave
        } else {
            self.step_limit
        }
    }
}

/// Builder for [`VmOptions`] (see [`VmOptions::builder`]).
#[derive(Debug, Clone)]
pub struct VmOptionsBuilder {
    opts: VmOptions,
}

impl VmOptionsBuilder {
    /// Replace the cache hierarchy configuration.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.opts.cache = cache;
        self
    }

    /// Replace the instruction cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.opts.cost = cost;
        self
    }

    /// Collect CFG edge counts (PBO instrumentation).
    pub fn collect_edges(mut self, on: bool) -> Self {
        self.opts.collect_edges = on;
        self
    }

    /// Collect sampled d-cache events (PMU sampling).
    pub fn sample_dcache(mut self, on: bool) -> Self {
        self.opts.sample_dcache = on;
        self
    }

    /// Sample every `n`th memory access (1 = all).
    pub fn sample_period(mut self, n: u64) -> Self {
        self.opts.sample_period = n;
        self
    }

    /// Abort after `n` executed instructions (per-request step budget).
    pub fn step_limit(mut self, n: u64) -> Self {
        self.opts.step_limit = n;
        self
    }

    /// Abort beyond this call depth.
    pub fn call_depth_limit(mut self, n: usize) -> Self {
        self.opts.call_depth_limit = n;
        self
    }

    /// Select the execution engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.opts.engine = engine;
        self
    }

    /// Attach a trace recorder (disabled recorders cost one branch).
    pub fn trace(mut self, rec: slo_obs::Recorder) -> Self {
        self.opts.trace = rec;
        self
    }

    /// Steps between sampled counter events under an enabled recorder.
    pub fn trace_step_interval(mut self, n: u64) -> Self {
        self.opts.trace_step_interval = n.max(1);
        self
    }

    /// Attach a fault-injection plan (disabled plans cost one branch
    /// per site).
    pub fn faults(mut self, plan: slo_chaos::FaultPlan) -> Self {
        self.opts.faults = plan;
        self
    }

    /// Finish.
    pub fn build(self) -> VmOptions {
        self.opts
    }
}

/// Execution statistics of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Executed IR instructions.
    pub instructions: u64,
    /// Simulated machine cycles.
    pub cycles: u64,
    /// Executed loads.
    pub loads: u64,
    /// Executed stores.
    pub stores: u64,
    /// Cache hierarchy statistics.
    pub cache: CacheStats,
    /// Total bytes ever heap-allocated.
    pub allocated_bytes: u64,
    /// Peak live heap bytes.
    pub peak_live_bytes: u64,
    /// Heap bytes still live when the program exited (its leaks).
    pub leaked_bytes: u64,
}

/// Result of a successful run.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The value returned by `main` (or the entry function).
    pub exit: Value,
    /// Statistics.
    pub stats: ExecStats,
    /// Collected profile (empty unless collection was enabled).
    pub feedback: Feedback,
}

/// Runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A memory fault.
    Mem(MemError),
    /// A memory fault with the faulting instruction's location.
    MemAt {
        /// The underlying fault.
        err: MemError,
        /// Function name.
        func: String,
        /// Instruction position (block and index).
        at: (u32, u32),
    },
    /// The step limit was exceeded.
    StepLimit,
    /// The call-depth limit was exceeded.
    CallDepth,
    /// The program has no `main`.
    NoMain,
    /// Attempt to execute a function without a body.
    NotDefined(String),
    /// An indirect call through a non-function value.
    BadIndirectTarget,
    /// A fault injected by an enabled [`slo_chaos::FaultPlan`] (chaos
    /// campaigns only; never raised with the default disabled plan).
    Injected(&'static str),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Mem(e) => write!(f, "memory error: {e}"),
            ExecError::MemAt { err, func, at } => {
                write!(f, "memory error: {err} at `{func}` bb{}:{}", at.0, at.1)
            }
            ExecError::StepLimit => write!(f, "step limit exceeded"),
            ExecError::CallDepth => write!(f, "call depth limit exceeded"),
            ExecError::NoMain => write!(f, "program has no `main` function"),
            ExecError::NotDefined(n) => write!(f, "function `{n}` has no body"),
            ExecError::BadIndirectTarget => write!(f, "indirect call target is not a function"),
            ExecError::Injected(what) => write!(f, "injected fault: {what}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<MemError> for ExecError {
    fn from(e: MemError) -> Self {
        ExecError::Mem(e)
    }
}

/// Run `main` with no arguments.
///
/// # Errors
///
/// See [`ExecError`].
pub fn run(prog: &Program, opts: &VmOptions) -> Result<ExecOutcome, ExecError> {
    let main = prog.main().ok_or(ExecError::NoMain)?;
    run_func(prog, main, &[], opts)
}

/// Run an arbitrary entry function with arguments.
///
/// # Errors
///
/// See [`ExecError`].
pub fn run_func(
    prog: &Program,
    entry: FuncId,
    args: &[Value],
    opts: &VmOptions,
) -> Result<ExecOutcome, ExecError> {
    match opts.engine {
        Engine::Decoded => {
            let dec = crate::decode::DecodedProgram::new(prog);
            crate::decode::run_func_decoded(prog, &dec, entry, args, opts)
        }
        Engine::Structured => {
            let trace = opts.trace.clone();
            let mut span = trace.span("vm", "vm.run");
            span.arg("engine", "structured");
            let mut vm = Vm::new(prog, opts.clone())?;
            let exit = vm.call(entry, args)?;
            let (stats, feedback) = vm.into_parts();
            span.arg("instructions", stats.instructions);
            span.arg("cycles", stats.cycles);
            Ok(ExecOutcome {
                exit,
                stats,
                feedback,
            })
        }
    }
}

struct Frame {
    fid: FuncId,
    block: BlockId,
    idx: usize,
    regs: Vec<Value>,
    ret_dst: Option<Reg>,
}

// Function-pointer values are encoded as addresses in a reserved range so
// they are distinguishable from heap pointers.
pub(crate) const FNPTR_BASE: u64 = 0xF000_0000_0000_0000;

struct Vm<'p> {
    prog: &'p Program,
    opts: VmOptions,
    heap: Heap,
    cache: CacheSim,
    feedback: Feedback,
    global_addr: Vec<u64>,
    stats: ExecStats,
    sampler: Countdown,
    /// per-instruction stride histograms (stride collection).
    strides: std::collections::HashMap<InstrRef, StrideTable>,
    /// function + (block, index) of the instruction being executed
    /// (for memory-fault diagnostics).
    last_instr: Option<(FuncId, (u32, u32))>,
    /// recycled register files (avoids a heap allocation per call).
    frame_pool: Vec<Vec<Value>>,
}

impl<'p> Vm<'p> {
    fn new(prog: &'p Program, opts: VmOptions) -> Result<Self, ExecError> {
        let mut heap = Heap::new();
        let mut global_addr = Vec::with_capacity(prog.globals.len());
        for g in &prog.globals {
            let sz = prog.types.size_of(g.ty).max(1);
            global_addr.push(heap.reserve_static(sz)?);
        }
        let cache = CacheSim::new(opts.cache.clone());
        let feedback = Feedback::new(opts.sample_period);
        let sampler = Countdown::new(opts.sample_period);
        Ok(Vm {
            prog,
            opts,
            heap,
            cache,
            feedback,
            global_addr,
            stats: ExecStats::default(),
            sampler,
            strides: std::collections::HashMap::new(),
            last_instr: None,
            frame_pool: Vec::new(),
        })
    }

    fn into_parts(mut self) -> (ExecStats, Feedback) {
        self.stats.cache = self.cache.stats().clone();
        self.stats.allocated_bytes = self.heap.total_allocated();
        self.stats.peak_live_bytes = self.heap.peak_live();
        self.stats.leaked_bytes = self.heap.live_bytes();
        // fold the stride histograms into the feedback file
        for (at, table) in &self.strides {
            let Some(st) = table.dominant() else {
                continue;
            };
            let name = &self.prog.func(at.func).name;
            self.feedback
                .func_mut(name)
                .strides
                .insert((at.block.0, at.index), st);
        }
        (self.stats, self.feedback)
    }

    fn operand(&self, frame: &Frame, op: Operand) -> Value {
        match op {
            Operand::Reg(Reg(r)) => frame.regs[r as usize],
            Operand::Const(c) => c.into(),
        }
    }

    fn scalar_kind(&self, ty: slo_ir::TypeId) -> Option<ScalarKind> {
        match self.prog.types.get(ty) {
            Type::Scalar(k) => Some(*k),
            _ => None,
        }
    }

    /// Simulate a data access; returns added latency cycles for loads.
    fn mem_access(&mut self, at: InstrRef, addr: u64, fp: bool, is_store: bool) -> u64 {
        let r = self.cache.access(addr, fp);
        if self.opts.sample_dcache {
            // stride collection: delta between consecutive executions of
            // the same instruction (kept for every access — strides need
            // consecutive pairs, unlike the subsampled event counts)
            self.strides.entry(at).or_default().observe(addr);
        }
        if self.opts.sample_dcache && self.sampler.tick() {
            let name = &self.prog.func(at.func).name;
            let s = self
                .feedback
                .func_mut(name)
                .samples
                .entry((at.block.0, at.index))
                .or_default();
            s.samples += 1;
            if r.first_level_miss {
                s.misses += 1;
            }
            s.total_latency += r.latency;
        }
        if is_store {
            r.latency >> self.opts.cost.store_latency_shift
        } else {
            r.latency
        }
    }

    fn record_edge(&mut self, fid: FuncId, from: BlockId, to: BlockId) {
        if self.opts.collect_edges {
            let name = &self.prog.func(fid).name;
            *self
                .feedback
                .func_mut(name)
                .edges
                .entry((from.0, to.0))
                .or_insert(0) += 1;
            self.stats.cycles += self.opts.cost.instrument_edge_cost;
        }
    }

    fn call(&mut self, entry: FuncId, args: &[Value]) -> Result<Value, ExecError> {
        self.call_inner(entry, args).map_err(|e| match e {
            ExecError::Mem(err) => match self.last_instr.take() {
                Some((fid, at)) => ExecError::MemAt {
                    err,
                    func: self.prog.func(fid).name.clone(),
                    at,
                },
                None => ExecError::Mem(err),
            },
            other => other,
        })
    }

    fn call_inner(&mut self, entry: FuncId, args: &[Value]) -> Result<Value, ExecError> {
        let mut stack: Vec<Frame> = Vec::new();
        self.push_frame(&mut stack, entry, args, None)?;
        let mut last_ret = Value::Int(0);
        let step_limit = self.opts.effective_step_limit();

        'outer: while let Some(frame) = stack.last_mut() {
            let fid = frame.fid;
            let func = self.prog.func(fid);
            let block = &func.blocks[frame.block.index()];

            // Execute instructions of the current block from frame.idx.
            while frame.idx < block.instrs.len() {
                if self.stats.instructions >= step_limit {
                    return Err(ExecError::StepLimit);
                }
                self.stats.instructions += 1;
                let at = InstrRef {
                    func: fid,
                    block: frame.block,
                    index: frame.idx as u32,
                };
                self.last_instr = Some((fid, (at.block.0, at.index)));
                let ins = &block.instrs[frame.idx];
                frame.idx += 1;
                self.stats.cycles += self.opts.cost.base;

                match ins {
                    Instr::Assign { dst, src } => {
                        let v = self.operand(frame, *src);
                        frame.regs[dst.0 as usize] = v;
                    }
                    Instr::Bin { dst, op, lhs, rhs } => {
                        let a = self.operand(frame, *lhs);
                        let b = self.operand(frame, *rhs);
                        frame.regs[dst.0 as usize] = Value::bin(*op, a, b);
                    }
                    Instr::Cmp { dst, op, lhs, rhs } => {
                        let a = self.operand(frame, *lhs);
                        let b = self.operand(frame, *rhs);
                        frame.regs[dst.0 as usize] = Value::cmp(*op, a, b);
                    }
                    Instr::Cast { dst, src, to, .. } => {
                        let v = self.operand(frame, *src);
                        frame.regs[dst.0 as usize] = match self.prog.types.get(*to) {
                            Type::Scalar(k) if k.is_float() => Value::Float(v.as_float()),
                            Type::Scalar(_) => Value::Int(v.as_int()),
                            Type::Ptr(_) | Type::FuncPtr => Value::Ptr(v.as_ptr()),
                            _ => v,
                        };
                    }
                    Instr::FieldAddr {
                        dst,
                        base,
                        record,
                        field,
                    } => {
                        let b = self.operand(frame, *base).as_ptr();
                        let off = self.prog.types.layout_of(*record).offsets[*field as usize];
                        frame.regs[dst.0 as usize] = Value::Ptr(b.wrapping_add(off));
                    }
                    Instr::IndexAddr {
                        dst,
                        base,
                        elem,
                        index,
                    } => {
                        let b = self.operand(frame, *base).as_ptr();
                        let i = self.operand(frame, *index).as_int();
                        let sz = self.prog.types.size_of(*elem);
                        frame.regs[dst.0 as usize] =
                            Value::Ptr(b.wrapping_add((i as u64).wrapping_mul(sz)));
                    }
                    Instr::Load { dst, addr, ty } => {
                        let a = self.operand(frame, *addr).as_ptr();
                        self.stats.loads += 1;
                        let (v, fp) = match self.scalar_kind(*ty) {
                            Some(k) => {
                                let sv = self.heap.read_scalar(a, k)?;
                                let v = match sv {
                                    ScalarValue::Int(i) => Value::Int(i),
                                    ScalarValue::Float(f) => Value::Float(f),
                                };
                                (v, k.is_float())
                            }
                            None => {
                                // pointer-typed load
                                let raw = self.heap.read_bytes(a, 8)?;
                                (Value::Ptr(raw), false)
                            }
                        };
                        self.stats.cycles += self.mem_access(at, a, fp, false);
                        frame.regs[dst.0 as usize] = v;
                    }
                    Instr::Store { addr, value, ty } => {
                        let a = self.operand(frame, *addr).as_ptr();
                        let v = self.operand(frame, *value);
                        self.stats.stores += 1;
                        let fp = match self.scalar_kind(*ty) {
                            Some(k) => {
                                let sv = if k.is_float() {
                                    ScalarValue::Float(v.as_float())
                                } else {
                                    ScalarValue::Int(v.as_int())
                                };
                                self.heap.write_scalar(a, k, sv)?;
                                k.is_float()
                            }
                            None => {
                                self.heap.write_bytes(a, 8, v.as_ptr())?;
                                false
                            }
                        };
                        self.stats.cycles += self.mem_access(at, a, fp, true);
                    }
                    Instr::LoadGlobal { dst, global } => {
                        let g = &self.prog.globals[global.index()];
                        let a = self.global_addr[global.index()];
                        self.stats.loads += 1;
                        let (v, fp) = match self.scalar_kind(g.ty) {
                            Some(k) => {
                                let sv = self.heap.read_scalar(a, k)?;
                                let v = match sv {
                                    ScalarValue::Int(i) => Value::Int(i),
                                    ScalarValue::Float(f) => Value::Float(f),
                                };
                                (v, k.is_float())
                            }
                            None => (Value::Ptr(self.heap.read_bytes(a, 8)?), false),
                        };
                        self.stats.cycles += self.mem_access(at, a, fp, false);
                        frame.regs[dst.0 as usize] = v;
                    }
                    Instr::StoreGlobal { global, value } => {
                        let v = self.operand(frame, *value);
                        let g = &self.prog.globals[global.index()];
                        let a = self.global_addr[global.index()];
                        self.stats.stores += 1;
                        let fp = match self.scalar_kind(g.ty) {
                            Some(k) => {
                                let sv = if k.is_float() {
                                    ScalarValue::Float(v.as_float())
                                } else {
                                    ScalarValue::Int(v.as_int())
                                };
                                self.heap.write_scalar(a, k, sv)?;
                                k.is_float()
                            }
                            None => {
                                self.heap.write_bytes(a, 8, v.as_ptr())?;
                                false
                            }
                        };
                        self.stats.cycles += self.mem_access(at, a, fp, true);
                    }
                    Instr::AddrOfGlobal { dst, global } => {
                        frame.regs[dst.0 as usize] = Value::Ptr(self.global_addr[global.index()]);
                    }
                    Instr::Alloc {
                        dst,
                        elem,
                        count,
                        zeroed,
                    } => {
                        if self.opts.faults.should_fire(slo_chaos::Site::VmAlloc) {
                            return Err(ExecError::Injected("heap allocation refused"));
                        }
                        let n = self.operand(frame, *count).as_int().max(0) as u64;
                        let bytes = array_bytes(n, self.prog.types.size_of(*elem))?;
                        let a = self.heap.try_alloc(bytes)?;
                        self.stats.cycles += self.opts.cost.alloc_cost;
                        if *zeroed {
                            self.stats.cycles += bytes / 8 * self.opts.cost.zero_per_8bytes;
                        }
                        frame.regs[dst.0 as usize] = Value::Ptr(a);
                    }
                    Instr::Free { ptr } => {
                        let a = self.operand(frame, *ptr).as_ptr();
                        self.heap.free(a)?;
                        self.stats.cycles += self.opts.cost.free_cost;
                    }
                    Instr::Realloc {
                        dst,
                        ptr,
                        elem,
                        count,
                    } => {
                        let a = self.operand(frame, *ptr).as_ptr();
                        let n = self.operand(frame, *count).as_int().max(0) as u64;
                        let bytes = array_bytes(n, self.prog.types.size_of(*elem))?;
                        let na = self.heap.realloc(a, bytes)?;
                        self.stats.cycles += self.opts.cost.alloc_cost + bytes / 16;
                        frame.regs[dst.0 as usize] = Value::Ptr(na);
                    }
                    Instr::Memcpy { dst, src, bytes } => {
                        let d = self.operand(frame, *dst).as_ptr();
                        let s = self.operand(frame, *src).as_ptr();
                        let n = self.operand(frame, *bytes).as_int().max(0) as u64;
                        self.heap.memcpy(d, s, n)?;
                        self.stats.cycles += self.stream_cost(at, d, s, n, true);
                    }
                    Instr::Memset { dst, val, bytes } => {
                        let d = self.operand(frame, *dst).as_ptr();
                        let v = self.operand(frame, *val).as_int() as u8;
                        let n = self.operand(frame, *bytes).as_int().max(0) as u64;
                        self.heap.memset(d, v, n)?;
                        self.stats.cycles += self.stream_cost(at, d, d, n, false);
                    }
                    Instr::Call { dst, callee, args } => {
                        let argv: Vec<Value> =
                            args.iter().map(|a| self.operand(frame, *a)).collect();
                        let kind = self.prog.func(*callee).kind;
                        if kind == FuncKind::Defined {
                            self.stats.cycles += self.opts.cost.call_overhead;
                            self.record_edge(fid, frame.block, frame.block); // call event
                            let dst = *dst;
                            let callee = *callee;
                            self.push_frame(&mut stack, callee, &argv, dst)?;
                            continue 'outer;
                        } else {
                            let r = self.extern_call(*callee, &argv);
                            self.stats.cycles += self.opts.cost.libc_call_cost;
                            if let Some(d) = dst {
                                frame.regs[d.0 as usize] = r;
                            }
                        }
                    }
                    Instr::CallIndirect {
                        dst, target, args, ..
                    } => {
                        let t = self.operand(frame, *target).as_ptr();
                        if t < FNPTR_BASE {
                            return Err(ExecError::BadIndirectTarget);
                        }
                        let callee = FuncId((t - FNPTR_BASE) as u32);
                        if callee.index() >= self.prog.funcs.len() {
                            return Err(ExecError::BadIndirectTarget);
                        }
                        let argv: Vec<Value> =
                            args.iter().map(|a| self.operand(frame, *a)).collect();
                        if self.prog.func(callee).kind == FuncKind::Defined {
                            self.stats.cycles += self.opts.cost.call_overhead;
                            let dst = *dst;
                            self.push_frame(&mut stack, callee, &argv, dst)?;
                            continue 'outer;
                        } else {
                            let r = self.extern_call(callee, &argv);
                            self.stats.cycles += self.opts.cost.libc_call_cost;
                            if let Some(d) = dst {
                                frame.regs[d.0 as usize] = r;
                            }
                        }
                    }
                    Instr::FuncAddr { dst, func } => {
                        frame.regs[dst.0 as usize] = Value::Ptr(FNPTR_BASE + func.0 as u64);
                    }
                    Instr::Jump { target } => {
                        let from = frame.block;
                        frame.block = *target;
                        frame.idx = 0;
                        self.record_edge(fid, from, *target);
                        continue 'outer;
                    }
                    Instr::Branch {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let c = self.operand(frame, *cond).is_true();
                        let from = frame.block;
                        let to = if c { *then_bb } else { *else_bb };
                        frame.block = to;
                        frame.idx = 0;
                        self.record_edge(fid, from, to);
                        continue 'outer;
                    }
                    Instr::Return { value } => {
                        let v = value
                            .map(|v| self.operand(frame, v))
                            .unwrap_or(Value::Int(0));
                        let ret_dst = frame.ret_dst;
                        if let Some(done) = stack.pop() {
                            // recycle the register file
                            if self.frame_pool.len() < 64 {
                                self.frame_pool.push(done.regs);
                            }
                        }
                        last_ret = v;
                        if let Some(parent) = stack.last_mut() {
                            if let Some(d) = ret_dst {
                                parent.regs[d.0 as usize] = v;
                            }
                        }
                        continue 'outer;
                    }
                }
            }
            // fell off the end of a block without a terminator: treat as
            // return (the verifier rejects this, but be defensive).
            stack.pop();
        }

        Ok(last_ret)
    }

    fn push_frame(
        &mut self,
        stack: &mut Vec<Frame>,
        fid: FuncId,
        args: &[Value],
        ret_dst: Option<Reg>,
    ) -> Result<(), ExecError> {
        if stack.len() >= self.opts.call_depth_limit {
            return Err(ExecError::CallDepth);
        }
        let f = self.prog.func(fid);
        if !f.is_defined() {
            return Err(ExecError::NotDefined(f.name.clone()));
        }
        let mut regs = self.frame_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(f.num_regs as usize, Value::Int(0));
        for (i, v) in args.iter().enumerate() {
            if i < regs.len() {
                regs[i] = *v;
            }
        }
        if self.opts.collect_edges {
            self.feedback.func_mut(&f.name).entry_count += 1;
        }
        stack.push(Frame {
            fid,
            block: BlockId(0),
            idx: 0,
            regs,
            ret_dst,
        });
        Ok(())
    }

    /// Touch the cache for a streaming op and return its cycle cost.
    fn stream_cost(&mut self, at: InstrRef, d: u64, s: u64, n: u64, copy: bool) -> u64 {
        let line = self.cache.l1_line();
        let mut cycles = n / 16 + 1;
        let mut a = d & !(line - 1);
        while a < d + n.max(1) {
            cycles += self.mem_access(at, a, false, true) / 2;
            a += line;
        }
        if copy {
            let mut a = s & !(line - 1);
            while a < s + n.max(1) {
                cycles += self.mem_access(at, a, false, false) / 2;
                a += line;
            }
        }
        cycles * self.opts.cost.memstream_per_line / 2 + cycles
    }

    /// Semantics for external / libc calls: math intrinsics compute, all
    /// others are no-ops returning 0.
    fn extern_call(&mut self, callee: FuncId, args: &[Value]) -> Value {
        let name = self.prog.func(callee).name.as_str();
        let x = args.first().copied().unwrap_or(Value::Float(0.0));
        match name {
            "sqrt" => Value::Float(x.as_float().sqrt()),
            "fabs" => Value::Float(x.as_float().abs()),
            "exp" => Value::Float(x.as_float().exp()),
            "log" => Value::Float(x.as_float().max(1e-300).ln()),
            "sin" => Value::Float(x.as_float().sin()),
            "cos" => Value::Float(x.as_float().cos()),
            "floor" => Value::Float(x.as_float().floor()),
            "abs" => Value::Int(x.as_int().abs()),
            _ => Value::Int(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo_ir::parser::parse;

    fn run_src(src: &str) -> ExecOutcome {
        let p = parse(src).expect("parse");
        slo_ir::verify::assert_valid(&p);
        run(&p, &VmOptions::default()).expect("run")
    }

    #[test]
    fn returns_constant() {
        let out = run_src("func main() -> i64 {\nbb0:\n  ret 42\n}\n");
        assert_eq!(out.exit, Value::Int(42));
        assert_eq!(out.stats.instructions, 1);
    }

    #[test]
    fn arithmetic_loop_sums() {
        // sum 0..10
        let src = r#"
func main() -> i64 {
bb0:
  r0 = 0
  r1 = 0
  jump bb1
bb1:
  r2 = cmp.lt r1, 10
  br r2, bb2, bb3
bb2:
  r0 = add r0, r1
  r1 = add r1, 1
  jump bb1
bb3:
  ret r0
}
"#;
        let out = run_src(src);
        assert_eq!(out.exit, Value::Int(45));
    }

    #[test]
    fn heap_roundtrip_through_fields() {
        let src = r#"
record pair { a: i64, b: f64 }
func main() -> i64 {
bb0:
  r0 = alloc pair, 1
  r1 = fieldaddr r0, pair.a
  store 7, r1 : i64
  r2 = fieldaddr r0, pair.b
  store 2.5, r2 : f64
  r3 = load r1 : i64
  r4 = load r2 : f64
  r5 = mul r4, 2
  r6 = add r3, r5
  ret r6
}
"#;
        let out = run_src(src);
        // 7 (int) + 5.0 (float) promotes to float per the C-like rules
        assert_eq!(out.exit, Value::Float(12.0));
    }

    #[test]
    fn float_int_mix_result() {
        // ensure previous test semantics: add(int, float) promotes to float;
        // ret returns the float; exit compares as float
        let src = r#"
func main() -> f64 {
bb0:
  r0 = 1
  r1 = add r0, 1.5
  ret r1
}
"#;
        let out = run_src(src);
        assert_eq!(out.exit, Value::Float(2.5));
    }

    #[test]
    fn call_and_return() {
        let src = r#"
func double(i64) -> i64 {
bb0:
  r1 = mul r0, 2
  ret r1
}
func main() -> i64 {
bb0:
  r0 = call double(21)
  ret r0
}
"#;
        let out = run_src(src);
        assert_eq!(out.exit, Value::Int(42));
    }

    #[test]
    fn recursion_fib() {
        let src = r#"
func fib(i64) -> i64 {
bb0:
  r1 = cmp.lt r0, 2
  br r1, bb1, bb2
bb1:
  ret r0
bb2:
  r2 = sub r0, 1
  r3 = call fib(r2)
  r4 = sub r0, 2
  r5 = call fib(r4)
  r6 = add r3, r5
  ret r6
}
func main() -> i64 {
bb0:
  r0 = call fib(10)
  ret r0
}
"#;
        let out = run_src(src);
        assert_eq!(out.exit, Value::Int(55));
    }

    #[test]
    fn globals_work() {
        let src = r#"
global G: i64
func main() -> i64 {
bb0:
  gstore 5, G
  r0 = gload G
  r1 = add r0, 1
  gstore r1, G
  r2 = gload G
  ret r2
}
"#;
        let out = run_src(src);
        assert_eq!(out.exit, Value::Int(6));
    }

    #[test]
    fn indirect_call() {
        let src = r#"
func inc(i64) -> i64 {
bb0:
  r1 = add r0, 1
  ret r1
}
func main() -> i64 {
bb0:
  r0 = fnaddr inc
  r1 = icall r0(41) : (i64)
  ret r1
}
"#;
        let out = run_src(src);
        assert_eq!(out.exit, Value::Int(42));
    }

    #[test]
    fn libc_intrinsics() {
        let src = r#"
libc func sqrt(f64) -> f64
func main() -> f64 {
bb0:
  r0 = call sqrt(16.0)
  ret r0
}
"#;
        let out = run_src(src);
        assert_eq!(out.exit, Value::Float(4.0));
    }

    #[test]
    fn memcpy_semantics() {
        let src = r#"
record s { a: i64, b: i64 }
func main() -> i64 {
bb0:
  r0 = alloc s, 2
  r1 = fieldaddr r0, s.a
  store 11, r1 : i64
  r2 = indexaddr r0, s, 1
  memcpy r2, r0, 16
  r3 = fieldaddr r2, s.a
  r4 = load r3 : i64
  ret r4
}
"#;
        let out = run_src(src);
        assert_eq!(out.exit, Value::Int(11));
    }

    #[test]
    fn edge_profiling_counts() {
        let src = r#"
func main() -> i64 {
bb0:
  r0 = 0
  jump bb1
bb1:
  r1 = cmp.lt r0, 5
  br r1, bb2, bb3
bb2:
  r0 = add r0, 1
  jump bb1
bb3:
  ret r0
}
"#;
        let p = parse(src).expect("parse");
        let out = run(&p, &VmOptions::profiling()).expect("run");
        let fp = out.feedback.func("main").expect("profile");
        assert_eq!(fp.entry_count, 1);
        assert_eq!(fp.edges[&(0, 1)], 1);
        assert_eq!(fp.edges[&(1, 2)], 5);
        assert_eq!(fp.edges[&(2, 1)], 5);
        assert_eq!(fp.edges[&(1, 3)], 1);
    }

    #[test]
    fn sampling_records_events() {
        // long strided loop over a big array, sample every access
        let src = r#"
record cell { v: i64, pad0: i64, pad1: i64, pad2: i64, pad3: i64, pad4: i64, pad5: i64, pad6: i64 }
func main() -> i64 {
bb0:
  r0 = alloc cell, 65536
  r1 = 0
  r2 = 0
  jump bb1
bb1:
  r3 = cmp.lt r1, 65536
  br r3, bb2, bb3
bb2:
  r4 = indexaddr r0, cell, r1
  r5 = fieldaddr r4, cell.v
  r6 = load r5 : i64
  r2 = add r2, r6
  r1 = add r1, 1
  jump bb1
bb3:
  ret r2
}
"#;
        let p = parse(src).expect("parse");
        let mut opts = VmOptions::sampling_only();
        opts.sample_period = 1;
        let out = run(&p, &opts).expect("run");
        let fp = out.feedback.func("main").expect("profile");
        let total_misses: u64 = fp.samples.values().map(|s| s.misses).sum();
        // 64-byte structs, 64-byte lines: every element is a fresh line
        assert!(
            total_misses > 60_000,
            "expected many misses, got {total_misses}"
        );
        assert!(out.stats.cache.accesses > 65_000);
    }

    #[test]
    fn cycles_scale_with_misses() {
        // same traversal, hot (packed i64 array) vs cold (1 i64 per 64B)
        let hot = r#"
func main() -> i64 {
bb0:
  r0 = alloc i64, 65536
  r1 = 0
  r2 = 0
  jump bb1
bb1:
  r3 = cmp.lt r1, 65536
  br r3, bb2, bb3
bb2:
  r4 = indexaddr r0, i64, r1
  r5 = load r4 : i64
  r2 = add r2, r5
  r1 = add r1, 1
  jump bb1
bb3:
  ret r2
}
"#;
        let cold = r#"
record cell { v: i64, p0: i64, p1: i64, p2: i64, p3: i64, p4: i64, p5: i64, p6: i64 }
func main() -> i64 {
bb0:
  r0 = alloc cell, 65536
  r1 = 0
  r2 = 0
  jump bb1
bb1:
  r3 = cmp.lt r1, 65536
  br r3, bb2, bb3
bb2:
  r4 = indexaddr r0, cell, r1
  r5 = fieldaddr r4, cell.v
  r6 = load r5 : i64
  r2 = add r2, r6
  r1 = add r1, 1
  jump bb1
bb3:
  ret r2
}
"#;
        let hot_out = run_src(hot);
        let cold_out = run_src(cold);
        assert!(
            cold_out.stats.cycles > hot_out.stats.cycles * 2,
            "cold {} vs hot {}",
            cold_out.stats.cycles,
            hot_out.stats.cycles
        );
    }

    #[test]
    fn step_limit_enforced() {
        let src = r#"
func main() -> i64 {
bb0:
  jump bb0
}
"#;
        let p = parse(src).expect("parse");
        for engine in [Engine::Decoded, Engine::Structured] {
            let opts = VmOptions {
                step_limit: 1000,
                engine,
                ..VmOptions::default()
            };
            match run(&p, &opts) {
                Err(ExecError::StepLimit) => {}
                other => panic!(
                    "{engine:?}: expected step limit error, got {:?}",
                    other.map(|o| o.exit)
                ),
            }
        }
    }

    #[test]
    fn engines_count_instructions_identically() {
        // both engines must charge exactly one step per executed IR
        // instruction, so a step limit of N admits the same prefix
        let src = r#"
func main() -> i64 {
bb0:
  r0 = 0
  r1 = 0
  jump bb1
bb1:
  r2 = cmp.lt r1, 20
  br r2, bb2, bb3
bb2:
  r0 = add r0, r1
  r1 = add r1, 1
  jump bb1
bb3:
  ret r0
}
"#;
        let p = parse(src).expect("parse");
        let dec = run(&p, &VmOptions::default()).expect("decoded");
        let str_ = run(&p, &VmOptions::default().structured()).expect("structured");
        assert_eq!(dec.stats.instructions, str_.stats.instructions);
        assert_eq!(dec.stats.cycles, str_.stats.cycles);
        assert_eq!(dec.exit, str_.exit);
        // the limit bites at exactly the same instruction on both
        let limit = dec.stats.instructions - 1;
        for engine in [Engine::Decoded, Engine::Structured] {
            let opts = VmOptions {
                step_limit: limit,
                engine,
                ..VmOptions::default()
            };
            assert!(
                matches!(run(&p, &opts), Err(ExecError::StepLimit)),
                "{engine:?} should hit the limit"
            );
            let opts = VmOptions {
                step_limit: limit + 1,
                engine,
                ..VmOptions::default()
            };
            assert!(run(&p, &opts).is_ok(), "{engine:?} should finish");
        }
    }

    #[test]
    fn injected_alloc_failure_is_deterministic_per_engine() {
        let src = r#"
record r { a: i64, b: i64 }
func main() -> i64 {
bb0:
  r0 = alloc r, 4
  ret 0
}
"#;
        let p = parse(src).expect("parse");
        for engine in [Engine::Decoded, Engine::Structured] {
            // A plan firing on every query refuses the first allocation.
            let opts = VmOptions::builder()
                .engine(engine)
                .faults(slo_chaos::FaultPlan::with_config(
                    1,
                    slo_chaos::ChaosConfig::always(),
                ))
                .build();
            match run(&p, &opts) {
                Err(ExecError::Injected(_)) => {}
                other => panic!("{engine:?}: expected injected fault, got {other:?}"),
            }
            assert_eq!(opts.faults.injected(slo_chaos::Site::VmAlloc), 1);
            // A disabled plan never interferes.
            let opts = VmOptions::builder().engine(engine).build();
            assert!(run(&p, &opts).is_ok());
        }
    }

    #[test]
    fn step_jitter_only_lowers_the_limit() {
        let opts = VmOptions::builder()
            .step_limit(1_000)
            .faults(slo_chaos::FaultPlan::with_config(
                7,
                slo_chaos::ChaosConfig::always(),
            ))
            .build();
        for _ in 0..64 {
            let eff = opts.effective_step_limit();
            assert!(eff <= 1_000, "jitter must never raise the limit");
            assert!(eff >= 500, "jitter shaves at most half the budget");
        }
        // Disabled and silent plans leave the exact limit intact, so
        // the ==limit completion boundary is preserved.
        let plain = VmOptions::builder().step_limit(1_000).build();
        assert_eq!(plain.effective_step_limit(), 1_000);
        let silent = VmOptions::builder()
            .step_limit(1_000)
            .faults(slo_chaos::FaultPlan::with_config(
                7,
                slo_chaos::ChaosConfig::never(),
            ))
            .build();
        assert_eq!(silent.effective_step_limit(), 1_000);
    }

    #[test]
    fn null_deref_reported() {
        let src = "func main() -> i64 {\nbb0:\n  r0 = load null : i64\n  ret r0\n}\n";
        let p = parse(src).expect("parse");
        match run(&p, &VmOptions::default()) {
            Err(ExecError::MemAt {
                err: MemError::NullDeref,
                func,
                ..
            }) => assert_eq!(func, "main"),
            other => panic!("expected null deref, got {other:?}"),
        }
    }

    #[test]
    fn wild_store_near_top_of_address_space_is_attributed_on_both_engines() {
        // -4 is the pointer u64::MAX - 3: an 8-byte store there runs off
        // the end of the address space and must fault, not overflow
        let src = "func main() -> i64 {\nbb0:\n  r0 = cast -4 : i64 -> ptr<i64>\n  \
                   store 7, r0 : i64\n  ret 0\n}\n";
        let p = parse(src).expect("parse");
        for opts in [VmOptions::default(), VmOptions::default().structured()] {
            assert_eq!(
                run(&p, &opts).map(|o| o.exit),
                Err(ExecError::MemAt {
                    err: MemError::OutOfBounds {
                        addr: u64::MAX - 3,
                        size: 8,
                    },
                    func: "main".to_string(),
                    at: (0, 1),
                }),
                "engine {:?}",
                opts.engine
            );
        }
    }

    #[test]
    fn impossible_allocation_sizes_are_errors_on_both_engines() {
        // 4611686018427387905 or i64::MAX elements of 8 bytes overflow
        // u64; i64::MAX single bytes fit u64 but exceed isize::MAX, so
        // arena growth refuses them before asking the host for memory.
        for (ty, elem_size, count) in [
            ("i64", 8, 4_611_686_018_427_387_905i64),
            ("i64", 8, i64::MAX),
            ("i8", 1, i64::MAX),
        ] {
            let want = MemError::OutOfMemory {
                count: count as u64,
                elem_size,
            };
            for body in [
                format!("r0 = alloc {ty}, {count}"),
                format!("r1 = alloc {ty}, 1\n  r0 = realloc r1, {ty}, {count}"),
            ] {
                let src = format!("func main() -> i64 {{\nbb0:\n  {body}\n  ret 0\n}}\n");
                let p = parse(&src).expect("parse");
                for opts in [VmOptions::default(), VmOptions::default().structured()] {
                    match run(&p, &opts) {
                        Err(ExecError::Mem(e) | ExecError::MemAt { err: e, .. }) => {
                            assert_eq!(e, want, "{body} on {:?}", opts.engine)
                        }
                        other => panic!("{body} on {:?}: got {other:?}", opts.engine),
                    }
                }
            }
        }
    }

    #[test]
    fn call_depth_limit() {
        let src = r#"
func f() -> i64 {
bb0:
  r0 = call f()
  ret r0
}
func main() -> i64 {
bb0:
  r0 = call f()
  ret r0
}
"#;
        let p = parse(src).expect("parse");
        let opts = VmOptions {
            call_depth_limit: 50,
            ..VmOptions::default()
        };
        match run(&p, &opts) {
            Err(ExecError::CallDepth) => {}
            other => panic!("expected call depth error, got {other:?}"),
        }
    }

    #[test]
    fn no_main_error() {
        let p = parse("func f() -> void {\nbb0:\n  ret\n}\n").expect("parse");
        match run(&p, &VmOptions::default()) {
            Err(ExecError::NoMain) => {}
            other => panic!("expected NoMain, got {other:?}"),
        }
    }

    #[test]
    fn run_func_with_args() {
        let src = r#"
func addmul(i64, i64, f64) -> f64 {
bb0:
  r3 = add r0, r1
  r4 = mul r3, r2
  ret r4
}
func main() -> i64 {
bb0:
  ret 0
}
"#;
        let p = parse(src).expect("parse");
        let f = p.func_by_name("addmul").expect("addmul");
        let out = run_func(
            &p,
            f,
            &[Value::Int(2), Value::Int(3), Value::Float(1.5)],
            &VmOptions::default(),
        )
        .expect("run");
        assert_eq!(out.exit, Value::Float(7.5));
    }

    #[test]
    fn frame_pool_reuse_is_transparent() {
        // deep call chains recycle register files; values must not leak
        // between frames
        let src = r#"
func leaf(i64) -> i64 {
bb0:
  r1 = 0
  r2 = add r1, r0
  ret r2
}
func main() -> i64 {
bb0:
  r0 = 0
  r1 = 0
  jump bb1
bb1:
  r2 = cmp.lt r1, 100
  br r2, bb2, bb3
bb2:
  r3 = call leaf(r1)
  r0 = add r0, r3
  r1 = add r1, 1
  jump bb1
bb3:
  ret r0
}
"#;
        let p = parse(src).expect("parse");
        let out = run(&p, &VmOptions::default()).expect("run");
        assert_eq!(out.exit, Value::Int(4950));
    }

    #[test]
    fn free_and_realloc() {
        let src = r#"
func main() -> i64 {
bb0:
  r0 = alloc i64, 4
  r1 = indexaddr r0, i64, 2
  store 9, r1 : i64
  r2 = realloc r0, i64, 100
  r3 = indexaddr r2, i64, 2
  r4 = load r3 : i64
  free r2
  ret r4
}
"#;
        let out = run_src(src);
        assert_eq!(out.exit, Value::Int(9));
    }
}
