//! Bytecode executor: runs a lowered [`Program`] and produces the same
//! [`RunOutput`] the AST interpreter would.
//!
//! The executor is observationally equivalent to [`crate::interp`] on
//! success: identical trace (event order, interned site ids, raw heap
//! addresses), identical printed lines, identical exit code, and the
//! fuel accounting errs at exactly the same points (per-instruction
//! costs replay the interpreter's `spend()` pattern prefix-exactly, so
//! a batch check `fuel < cost` fails iff one of the mirrored spends
//! would have). The executor is allowed to *fail* where the interpreter
//! succeeds — the sweep ([`check_adversarial_compiled`](crate::check_adversarial_compiled))
//! then reruns the seed on the interpreter — but never the other way
//! around.
//!
//! Heap-address determinism is load-bearing: trace events carry raw
//! addresses and `Ptr` values print as hex, so every allocation here
//! happens in the same order as the interpreter's (declarations,
//! privatization cells, induction cells, per-argument call cells,
//! `malloc`/`calloc`).

use crate::interp::{
    apply_reduction, reduction_identity, Config, Flow, RtError, RtResult, RunOutput, MAX_TEAM,
};
use crate::ir::{
    ArithUn, CodeRange, DirIr, ExprCode, FuncIr, Instr, MathFn, ParallelIr, PrivOp, Program,
    RedMerge, WsInit, WsIr, GLOBAL_BIT,
};
use crate::sched::Scheduler;
use crate::trace::{SiteId, SyncKey, Trace};
use crate::value::Value;
use std::collections::HashMap;
use std::rc::Rc;

/// Allocation counters for the `count-ir-allocs` proof: every code path
/// in the executor that allocates (or may reallocate) rings this bell,
/// so a test can show the count stays flat while the event count grows.
#[cfg(feature = "count-ir-allocs")]
pub mod alloc_count {
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Record one allocation inside the executor.
    pub fn note() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }

    /// Allocations recorded since the last [`reset`].
    pub fn count() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    /// Zero the counter.
    pub fn reset() {
        ALLOCS.store(0, Ordering::Relaxed);
    }
}

#[cfg(feature = "count-ir-allocs")]
macro_rules! note_alloc {
    () => {
        crate::exec::alloc_count::note()
    };
}
#[cfg(not(feature = "count-ir-allocs"))]
macro_rules! note_alloc {
    () => {};
}

/// Runtime state of one variable slot: a heap range plus array shape
/// (the bytecode analogue of the interpreter's `Binding`).
#[derive(Debug, Clone, Copy, Default)]
struct SlotState {
    addr: usize,
    count: usize,
    n_dims: u8,
    dims: [usize; 4],
}

struct Exec<'p> {
    prog: &'p Program,
    threads: usize,
    sched: Scheduler,
    heap: Vec<Value>,
    trace: Trace,
    printed: Vec<String>,
    fuel: u64,
    /// Lazily interned trace site ids, indexed by `Program::sites`.
    site_ids: Vec<Option<SiteId>>,
    regs: Vec<Value>,
    slots: Vec<SlotState>,
    reg_base: usize,
    slot_base: usize,
    global_slots: Vec<SlotState>,
    in_region: bool,
    tid: usize,
    agent: usize,
    phase: u32,
    team: usize,
    max_team: usize,
    /// Name index of the variable an enclosing `atomic` protects.
    atomic_target: Option<u32>,
    suppress: bool,
    occ: HashMap<(u32, usize), usize>,
    iter_cache: HashMap<(u32, usize), Rc<Vec<usize>>>,
}

impl<'p> Exec<'p> {
    fn reg(&self, r: u16) -> Value {
        self.regs[self.reg_base + r as usize]
    }

    fn set_reg(&mut self, r: u16, v: Value) {
        let i = self.reg_base + r as usize;
        self.regs[i] = v;
    }

    fn slot(&self, s: u32) -> SlotState {
        if s & GLOBAL_BIT != 0 {
            self.global_slots[(s & !GLOBAL_BIT) as usize]
        } else {
            self.slots[self.slot_base + s as usize]
        }
    }

    fn set_slot(&mut self, s: u32, st: SlotState) {
        if s & GLOBAL_BIT != 0 {
            self.global_slots[(s & !GLOBAL_BIT) as usize] = st;
        } else {
            let i = self.slot_base + s as usize;
            self.slots[i] = st;
        }
    }

    fn alloc(&mut self, count: usize) -> usize {
        note_alloc!();
        let addr = self.heap.len();
        self.heap.extend(std::iter::repeat_n(Value::ZERO, count.max(1)));
        addr
    }

    fn load(&self, addr: usize) -> RtResult<Value> {
        self.heap
            .get(addr)
            .copied()
            .ok_or_else(|| RtError::BadAddress(format!("load @{addr}")))
    }

    fn store(&mut self, addr: usize, v: Value) -> RtResult<()> {
        match self.heap.get_mut(addr) {
            Some(slot) => {
                *slot = v;
                Ok(())
            }
            None => Err(RtError::BadAddress(format!("store @{addr}"))),
        }
    }

    fn addr_of(&self, v: Value) -> usize {
        match v {
            Value::Ptr(p) => p,
            other => other.as_int().max(0) as usize,
        }
    }

    fn ptr_of(&self, r: u16) -> RtResult<usize> {
        match self.reg(r) {
            Value::Ptr(p) => Ok(p),
            other => Err(RtError::BadAddress(format!("not a pointer: {other:?}"))),
        }
    }

    fn emit_access(&mut self, addr: usize, site: u32) {
        if self.suppress || !self.in_region {
            return;
        }
        let prog = self.prog;
        let d = &prog.sites[site as usize];
        let sid = match self.site_ids[site as usize] {
            Some(id) => id,
            None => {
                note_alloc!();
                let id = self.trace.intern_site(d.span, d.write, || {
                    (prog.names[d.var as usize].clone(), d.text.clone())
                });
                self.site_ids[site as usize] = Some(id);
                id
            }
        };
        let atomic = self.atomic_target == Some(d.var);
        self.trace.push_access_flags(self.agent, self.phase, addr, sid, d.write, atomic);
    }

    fn emit_acquire(&mut self, key: &SyncKey) {
        if !self.in_region {
            return;
        }
        let id = self.trace.intern_sync(key);
        self.trace.push_acquire(self.agent, self.phase, id);
    }

    fn emit_release(&mut self, key: &SyncKey) {
        if !self.in_region {
            return;
        }
        let id = self.trace.intern_sync(key);
        self.trace.push_release(self.agent, self.phase, id);
    }

    // ------------------------------------------------------------------
    // Instruction dispatch
    // ------------------------------------------------------------------

    fn run_range(&mut self, range: CodeRange) -> RtResult<Flow> {
        let prog = self.prog;
        let mut pc = range.start as usize;
        loop {
            let cost = prog.costs[pc] as u64;
            if self.fuel < cost {
                return Err(RtError::FuelExhausted);
            }
            self.fuel -= cost;
            match prog.instrs[pc] {
                Instr::Nop => {}
                Instr::Const { dst, idx } => self.set_reg(dst, prog.consts[idx as usize]),
                Instr::SlotAddr { dst, slot } => {
                    let st = self.slot(slot);
                    self.set_reg(dst, Value::Ptr(st.addr));
                }
                Instr::LoadScalar { dst, slot, site } => {
                    let st = self.slot(slot);
                    let v = self.load(st.addr)?;
                    self.emit_access(st.addr, site);
                    self.set_reg(dst, v);
                }
                Instr::StoreScalar { src, slot, site } => {
                    let st = self.slot(slot);
                    let v = self.reg(src);
                    self.store(st.addr, v)?;
                    self.emit_access(st.addr, site);
                }
                Instr::IndexAddr { dst, slot, idx0, n } => {
                    let st = self.slot(slot);
                    let nd = st.n_dims as usize;
                    let single = [st.count];
                    let dims: &[usize] = if nd == 0 { &single } else { &st.dims[..nd] };
                    let mut flat = 0usize;
                    for k in 0..n as usize {
                        let i = self.reg(idx0 + k as u16).as_int().max(0) as usize;
                        let stride: usize = dims
                            .get(k + 1..)
                            .map(|r| r.iter().product())
                            .unwrap_or(1);
                        flat += i * stride.max(1);
                    }
                    if flat >= st.count {
                        return Err(RtError::BadAddress(format!(
                            "index {flat} out of bounds ({})",
                            st.count
                        )));
                    }
                    self.set_reg(dst, Value::Ptr(st.addr + flat));
                }
                Instr::ToAddr { dst, src } => {
                    let a = self.addr_of(self.reg(src));
                    self.set_reg(dst, Value::Ptr(a));
                }
                Instr::AddOff { dst, base, off } => {
                    let p = self.ptr_of(base)?;
                    let a = crate::interp::offset_addr(p, self.reg(off).as_int())?;
                    self.set_reg(dst, Value::Ptr(a));
                }
                Instr::AssertPtr { src } => {
                    self.ptr_of(src)?;
                }
                Instr::CheckAddr { src } => {
                    let p = self.ptr_of(src)?;
                    if p == 0 || p >= self.heap.len() {
                        return Err(RtError::BadAddress(format!("wild pointer @{p}")));
                    }
                }
                Instr::LoadInd { dst, ptr, site } => {
                    let p = self.ptr_of(ptr)?;
                    let v = self.load(p)?;
                    self.emit_access(p, site);
                    self.set_reg(dst, v);
                }
                Instr::StoreInd { src, ptr, site } => {
                    let p = self.ptr_of(ptr)?;
                    let v = self.reg(src);
                    self.store(p, v)?;
                    self.emit_access(p, site);
                }
                Instr::IncDec { dst, ptr, site_r, site_w, inc, prefix } => {
                    let p = self.ptr_of(ptr)?;
                    let old = self.load(p)?;
                    self.emit_access(p, site_r);
                    let delta: i64 = if inc { 1 } else { -1 };
                    let new = match old {
                        Value::Int(v) => Value::Int(v + delta),
                        Value::Float(f) => Value::Float(f + delta as f64),
                        Value::Ptr(q) => Value::Ptr(crate::interp::offset_addr(q, delta)?),
                    };
                    self.store(p, new)?;
                    self.emit_access(p, site_w);
                    self.set_reg(dst, if prefix { new } else { old });
                }
                Instr::Un { op, dst, src } => {
                    let v = self.reg(src);
                    let r = match op {
                        ArithUn::Neg => match v {
                            Value::Int(i) => Value::Int(-i),
                            Value::Float(f) => Value::Float(-f),
                            Value::Ptr(_) => Value::Int(0),
                        },
                        ArithUn::Not => Value::Int(i64::from(!v.truthy())),
                        ArithUn::BitNot => Value::Int(!v.as_int()),
                    };
                    self.set_reg(dst, r);
                }
                Instr::Bin { op, dst, a, b } => {
                    let r = crate::interp::bin_op(op, self.reg(a), self.reg(b))?;
                    self.set_reg(dst, r);
                }
                Instr::Bool { dst, src } => {
                    let v = Value::Int(i64::from(self.reg(src).truthy()));
                    self.set_reg(dst, v);
                }
                Instr::CoerceV { dst, src, base, ptr } => {
                    let v = crate::interp::coerce(self.reg(src), base, ptr);
                    self.set_reg(dst, v);
                }
                Instr::Jmp { to } => {
                    pc = to as usize;
                    continue;
                }
                Instr::Jz { cond, to } => {
                    if !self.reg(cond).truthy() {
                        pc = to as usize;
                        continue;
                    }
                }
                Instr::Jnz { cond, to } => {
                    if self.reg(cond).truthy() {
                        pc = to as usize;
                        continue;
                    }
                }
                Instr::AllocSlot { slot, dims0, n_dims } => {
                    let nd = n_dims as usize;
                    let mut dims = [0usize; 4];
                    for (k, d) in dims.iter_mut().enumerate().take(nd) {
                        *d = (self.reg(dims0 + k as u16).as_int().max(0) as usize).max(1);
                    }
                    let count: usize = if nd == 0 { 1 } else { dims[..nd].iter().product() };
                    let addr = self.alloc(count);
                    self.set_slot(slot, SlotState { addr, count, n_dims, dims });
                }
                Instr::StoreSlotInit { slot, src } => {
                    let st = self.slot(slot);
                    let v = self.reg(src);
                    self.store(st.addr, v)?;
                }
                Instr::ListGuard { slot, i, to } => {
                    let st = self.slot(slot);
                    if i as usize >= st.count {
                        pc = to as usize;
                        continue;
                    }
                }
                Instr::ListStore { slot, i, src } => {
                    let st = self.slot(slot);
                    let v = self.reg(src);
                    self.store(st.addr + i as usize, v)?;
                }
                Instr::CallUser { dst, func, args0, n_args } => {
                    let f = &prog.funcs[func as usize];
                    let v = self.call_user(f, args0, n_args)?;
                    self.set_reg(dst, v);
                }
                Instr::GetTid { dst } => self.set_reg(dst, Value::Int(self.tid as i64)),
                Instr::GetNumThreads { dst } => {
                    let n = if self.in_region { self.team as i64 } else { 1 };
                    self.set_reg(dst, Value::Int(n));
                }
                Instr::GetMaxThreads { dst } => {
                    self.set_reg(dst, Value::Int(self.threads as i64));
                }
                Instr::Printf { args0, n } => {
                    let mut parts = Vec::with_capacity(n as usize);
                    for k in 0..n as usize {
                        parts.push(match self.reg(args0 + k as u16) {
                            Value::Int(i) => i.to_string(),
                            Value::Float(f) => format!("{f:.6}"),
                            Value::Ptr(p) => format!("0x{p:x}"),
                        });
                    }
                    note_alloc!();
                    self.printed.push(parts.join(" "));
                }
                Instr::Malloc { dst, bytes } => {
                    let bytes = self.reg(bytes).as_int().max(0) as usize;
                    let n = bytes / 8;
                    let addr = self.alloc(n.max(1));
                    self.set_reg(dst, Value::Ptr(addr));
                }
                Instr::Calloc { dst, bytes, sz } => {
                    let bytes = self.reg(bytes).as_int().max(0) as usize;
                    let sz = self.reg(sz).as_int().max(1) as usize;
                    let n = bytes * sz / 8;
                    let addr = self.alloc(n.max(1));
                    self.set_reg(dst, Value::Ptr(addr));
                }
                Instr::LockAcq { src } => {
                    let addr = self.addr_of(self.reg(src));
                    self.emit_acquire(&SyncKey::Lock(addr));
                }
                Instr::LockRel { src } => {
                    let addr = self.addr_of(self.reg(src));
                    self.emit_release(&SyncKey::Lock(addr));
                }
                Instr::Math1 { f, dst, src } => {
                    let v = self.reg(src);
                    let r = match f {
                        MathFn::Fabs => Value::Float(v.as_float().abs()),
                        MathFn::Sqrt => Value::Float(v.as_float().sqrt()),
                        MathFn::Sin => Value::Float(v.as_float().sin()),
                        MathFn::Cos => Value::Float(v.as_float().cos()),
                        MathFn::Exp => Value::Float(v.as_float().exp()),
                        MathFn::Log => Value::Float(v.as_float().ln()),
                        MathFn::AbsInt => Value::Int(v.as_int().abs()),
                        // Two-operand functions never reach Math1.
                        MathFn::Pow | MathFn::Fmax | MathFn::Fmin => {
                            return Err(RtError::Unsupported("math arity".into()))
                        }
                    };
                    self.set_reg(dst, r);
                }
                Instr::Math2 { f, dst, a, b } => {
                    let x = self.reg(a).as_float();
                    let y = self.reg(b).as_float();
                    let r = match f {
                        MathFn::Pow => x.powf(y),
                        MathFn::Fmax => x.max(y),
                        MathFn::Fmin => x.min(y),
                        _ => return Err(RtError::Unsupported("math arity".into())),
                    };
                    self.set_reg(dst, Value::Float(r));
                }
                Instr::Dir { id, brk, cont } => match self.run_dir(id)? {
                    Flow::Normal => {}
                    Flow::Break => {
                        if brk != u32::MAX {
                            pc = brk as usize;
                            continue;
                        }
                        return Ok(Flow::Break);
                    }
                    Flow::Continue => {
                        if cont != u32::MAX {
                            pc = cont as usize;
                            continue;
                        }
                        return Ok(Flow::Continue);
                    }
                    Flow::Return(v) => return Ok(Flow::Return(v)),
                },
                Instr::End => return Ok(Flow::Normal),
                Instr::FlowBrk => return Ok(Flow::Break),
                Instr::FlowCont => return Ok(Flow::Continue),
                Instr::Ret { src } => return Ok(Flow::Return(self.reg(src))),
                Instr::Trap => return Err(RtError::Unsupported("exit() called".into())),
            }
            pc += 1;
        }
    }

    fn call_user(&mut self, f: &FuncIr, args0: u16, n_args: u16) -> RtResult<Value> {
        let caller_rb = self.reg_base;
        let caller_sb = self.slot_base;
        let new_rb = self.regs.len();
        let new_sb = self.slots.len();
        note_alloc!();
        self.regs.resize(new_rb + f.n_regs as usize, Value::ZERO);
        self.slots.resize(new_sb + f.n_slots as usize, SlotState::default());
        for k in 0..n_args as usize {
            let v = self.regs[caller_rb + args0 as usize + k];
            let addr = self.alloc(1);
            self.heap[addr] = v;
            self.slots[new_sb + k] = SlotState { addr, count: 1, n_dims: 0, dims: [0; 4] };
        }
        self.reg_base = new_rb;
        self.slot_base = new_sb;
        let flow = self.run_range(f.entry);
        self.reg_base = caller_rb;
        self.slot_base = caller_sb;
        self.regs.truncate(new_rb);
        self.slots.truncate(new_sb);
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Int(0)),
        }
    }

    // ------------------------------------------------------------------
    // Directives
    // ------------------------------------------------------------------

    fn run_dir(&mut self, id: u32) -> RtResult<Flow> {
        let prog = self.prog;
        match &prog.dirs[id as usize] {
            DirIr::Barrier => {
                if self.in_region {
                    self.phase += 1;
                }
                Ok(Flow::Normal)
            }
            DirIr::Flush => Ok(Flow::Normal),
            DirIr::Parallel(p) => self.run_parallel(p),
            DirIr::Ws(w) => {
                if self.in_region {
                    self.run_ws(*w)
                } else {
                    match prog.ws[*w as usize].plain {
                        Some(r) => self.run_range(r),
                        None => Err(RtError::Unsupported("orphaned worksharing body".into())),
                    }
                }
            }
            DirIr::Master { body } => {
                if !self.in_region || self.tid == 0 {
                    self.run_range(*body)
                } else {
                    Ok(Flow::Normal)
                }
            }
            DirIr::Critical { name, body } => {
                let key = SyncKey::Critical(name.clone());
                self.emit_acquire(&key);
                let flow = self.run_range(*body)?;
                self.emit_release(&key);
                Ok(flow)
            }
            DirIr::Atomic { target, body } => {
                let saved = std::mem::replace(&mut self.atomic_target, *target);
                let flow = self.run_range(*body)?;
                self.atomic_target = saved;
                Ok(flow)
            }
            DirIr::Ordered { key, body } => {
                let k = SyncKey::Ordered(*key);
                self.emit_acquire(&k);
                let flow = self.run_range(*body)?;
                self.emit_release(&k);
                Ok(flow)
            }
            DirIr::Other { body } => match body {
                Some(r) => self.run_range(*r),
                None => Ok(Flow::Normal),
            },
            DirIr::Trap => Err(RtError::Unsupported("directive requires a body".into())),
        }
    }

    fn run_parallel(&mut self, p: &ParallelIr) -> RtResult<Flow> {
        // Nested parallelism runs inline on the current thread.
        if self.in_region {
            return match p.ws_serial {
                Some(w) => self.run_ws(w),
                None => self.run_range(p.plain_serial),
            };
        }
        if p.serial_const {
            return self.run_range(p.plain_serial);
        }
        let team = p.team.map(|t| t as usize).unwrap_or(self.threads).min(MAX_TEAM);
        self.in_region = true;
        self.team = team;
        self.max_team = self.max_team.max(team);
        // Fork is a sync point: new phase for the region.
        let start_phase = self.phase + 1;
        let mut end_phase = start_phase;
        for tid in 0..team {
            self.tid = tid;
            self.agent = tid;
            self.phase = start_phase;
            self.run_thread(p)?;
            end_phase = end_phase.max(self.phase);
        }
        self.phase = end_phase + 1;
        self.in_region = false;
        self.tid = 0;
        self.agent = 0;
        self.team = 1;
        Ok(Flow::Normal)
    }

    fn run_thread(&mut self, p: &ParallelIr) -> RtResult<()> {
        self.run_privs(&p.privs.ops)?;
        // `return` out of a parallel region is non-conforming; treat as
        // finishing the region (errors skip the reduction merges).
        let _flow = match p.ws_fork {
            Some(w) => self.run_ws(w)?,
            None => match p.plain_fork {
                Some(r) => self.run_range(r)?,
                None => Flow::Normal,
            },
        };
        self.run_merges(&p.privs.merges)
    }

    fn run_privs(&mut self, ops: &[PrivOp]) -> RtResult<()> {
        for &op in ops {
            match op {
                PrivOp::Fresh { slot, outer } => {
                    let (count, n_dims, dims) = match outer {
                        Some(o) => {
                            let st = self.slot(o);
                            (st.count, st.n_dims, st.dims)
                        }
                        None => (1, 0, [0; 4]),
                    };
                    let addr = self.alloc(count);
                    self.set_slot(slot, SlotState { addr, count, n_dims, dims });
                }
                PrivOp::Copy { slot, outer } => {
                    let st = self.slot(outer);
                    let addr = self.alloc(st.count);
                    for i in 0..st.count {
                        let v = self.load(st.addr + i)?;
                        self.store(addr + i, v)?;
                    }
                    self.set_slot(
                        slot,
                        SlotState { addr, count: st.count, n_dims: st.n_dims, dims: st.dims },
                    );
                }
                PrivOp::Red { slot, op } => {
                    let addr = self.alloc(1);
                    self.heap[addr] = reduction_identity(op);
                    self.set_slot(slot, SlotState { addr, count: 1, n_dims: 0, dims: [0; 4] });
                }
            }
        }
        Ok(())
    }

    fn run_merges(&mut self, merges: &[RedMerge]) -> RtResult<()> {
        for &m in merges {
            let pv = self.load(self.slot(m.private).addr)?;
            if let Some(o) = m.outer {
                let ost = self.slot(o);
                let ov = self.load(ost.addr)?;
                self.store(ost.addr, apply_reduction(m.op, ov, pv))?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Worksharing loops
    // ------------------------------------------------------------------

    fn run_ws(&mut self, wi: u32) -> RtResult<Flow> {
        let prog = self.prog;
        let ws = &prog.ws[wi as usize];
        // Init: a declaration's write stays visible, an expression's
        // write is suppressed (the induction variable is private).
        match ws.init {
            WsInit::None => {}
            WsInit::Decl(r) => {
                self.run_range(r)?;
            }
            WsInit::Expr(r) => {
                let saved = self.suppress;
                self.suppress = true;
                let res = self.run_range(r);
                self.suppress = saved;
                res?;
            }
        }
        // Rebind the induction variable to a private cell.
        let mut ivar_addr = 0usize;
        if let Some(iv) = ws.ivar {
            let init_val = match iv.src {
                Some(s) => {
                    let st = self.slot(s);
                    self.load(st.addr)?
                }
                None => Value::Int(0),
            };
            let addr = self.alloc(1);
            self.heap[addr] = init_val;
            self.set_slot(iv.slot, SlotState { addr, count: 1, n_dims: 0, dims: [0; 4] });
            ivar_addr = addr;
        }
        // collapse(n): nested induction variables get private cells too.
        for &s in &ws.prebind {
            let addr = self.alloc(1);
            self.set_slot(s, SlotState { addr, count: 1, n_dims: 0, dims: [0; 4] });
        }
        // Enumerate the outer iteration space on the private cell.
        let mut outer_vals: Vec<Value> = Vec::new();
        if let Some(iv) = ws.ivar {
            if let Some(cond) = iv.cond {
                let saved = self.suppress;
                self.suppress = true;
                let res = self.enumerate_outer(cond, iv.step, ivar_addr);
                self.suppress = saved;
                outer_vals = res?;
            }
        }
        // Enumerate collapsed inner levels (side effects persist even
        // when the nest turns out non-rectangular, like the interpreter).
        let level_vals = {
            let saved = self.suppress;
            self.suppress = true;
            let res = self.enumerate_levels(ws);
            self.suppress = saved;
            res?
        };
        let n = if ws.ivar.is_none() {
            0
        } else if ws.use_collapse {
            outer_vals.len() * level_vals.iter().map(|(_, v)| v.len()).product::<usize>()
        } else {
            outer_vals.len()
        };
        // Assign iterations to threads (cached so the whole team agrees).
        let occ = {
            let e = self.occ.entry((ws.key, self.tid)).or_insert(0);
            let o = *e;
            *e += 1;
            o
        };
        let cache_key = (ws.key, occ);
        let assignment = if let Some(a) = self.iter_cache.get(&cache_key) {
            Rc::clone(a)
        } else {
            let (kind, chunk) = match ws.sched {
                Some((k, ch)) => {
                    let chunk = match ch {
                        Some(ec) => {
                            self.run_range(ec.range)?;
                            let v = self.reg(ec.out).as_int();
                            usize::try_from(v.max(1)).ok()
                        }
                        None => None,
                    };
                    (Some(k), chunk)
                }
                None => (None, None),
            };
            note_alloc!();
            let a = Rc::new(self.sched.assign_iterations(n, kind, chunk));
            self.iter_cache.insert(cache_key, Rc::clone(&a));
            a
        };
        // Execute this thread's share of the flattened iteration space.
        let mut flow = Flow::Normal;
        let mut last_owned = false;
        if ws.ivar.is_some() {
            for flat in 0..n {
                let owner = if ws.simd_only { self.tid } else { assignment[flat] };
                if owner != self.tid {
                    continue;
                }
                last_owned = flat == n - 1;
                // Row-major decomposition of the flat index.
                let mut rem = flat;
                if ws.use_collapse {
                    for (addr, vals) in level_vals.iter().rev() {
                        let idx = rem % vals.len();
                        rem /= vals.len();
                        self.heap[*addr] = vals[idx];
                    }
                    self.heap[ivar_addr] = outer_vals[rem % outer_vals.len()];
                } else {
                    self.heap[ivar_addr] = outer_vals[flat];
                }
                match self.run_range(ws.body)? {
                    Flow::Break => break,
                    Flow::Return(v) => {
                        flow = Flow::Return(v);
                        break;
                    }
                    _ => {}
                }
            }
        } else if self.tid == 0 {
            // Non-canonical loop: run whole loop on thread 0.
            if let Some(fb) = ws.fallback {
                flow = self.run_range(fb)?;
            }
        }
        // lastprivate writeback by the owner of the last iteration.
        if last_owned {
            for &(inner, outer) in &ws.lastpriv {
                let val = self.load(self.slot(inner).addr)?;
                if let Some(o) = outer {
                    let oaddr = self.slot(o).addr;
                    self.store(oaddr, val)?;
                }
            }
        }
        // Implicit barrier at the end of the worksharing construct.
        if ws.phase_end {
            self.phase += 1;
        }
        Ok(flow)
    }

    fn enumerate_outer(
        &mut self,
        cond: ExprCode,
        step: Option<CodeRange>,
        addr: usize,
    ) -> RtResult<Vec<Value>> {
        let mut vals = Vec::new();
        loop {
            if vals.len() > 4_000_000 {
                return Err(RtError::FuelExhausted);
            }
            self.run_range(cond.range)?;
            if !self.reg(cond.out).truthy() {
                return Ok(vals);
            }
            vals.push(self.load(addr)?);
            match step {
                Some(st) => {
                    self.run_range(st)?;
                }
                None => return Ok(vals),
            }
        }
    }

    fn enumerate_levels(&mut self, ws: &WsIr) -> RtResult<Vec<(usize, Vec<Value>)>> {
        let mut out = Vec::new();
        for lv in &ws.levels {
            self.run_range(lv.init)?;
            let addr = self.slot(lv.slot).addr;
            let mut vals = Vec::new();
            loop {
                if vals.len() > 1_000_000 {
                    return Err(RtError::FuelExhausted);
                }
                self.run_range(lv.cond.range)?;
                if !self.reg(lv.cond.out).truthy() {
                    break;
                }
                vals.push(self.load(addr)?);
                match lv.step {
                    Some(st) => {
                        self.run_range(st)?;
                    }
                    None => break,
                }
            }
            out.push((addr, vals));
        }
        // A level that ran its init before proving non-canonical leaves
        // those side effects behind, exactly like the interpreter.
        if let Some(p) = ws.partial {
            self.run_range(p)?;
        }
        Ok(out)
    }
}

/// Execute a lowered program, producing the same [`RunOutput`] the AST
/// interpreter yields for the source unit.
pub fn run_program(prog: &Program, cfg: &Config) -> RtResult<RunOutput> {
    let (ex, exit) = exec_program(prog, cfg)?;
    Ok(finish(ex, exit, cfg))
}

/// [`run_program`], plus a post-run snapshot of every global slot's
/// final heap contents, in slot order. The lowerer numbers global slots
/// per declarator in declaration order, so slot `i` is the `i`-th
/// file-scope variable — the same order
/// [`obs::global_names`](crate::obs::global_names) reports.
pub(crate) fn run_program_with_globals(
    prog: &Program,
    cfg: &Config,
) -> RtResult<(RunOutput, Vec<Vec<Value>>)> {
    let (ex, exit) = exec_program(prog, cfg)?;
    let globals = ex
        .global_slots
        .iter()
        .map(|s| ex.heap[s.addr..s.addr + s.count].to_vec())
        .collect();
    Ok((finish(ex, exit, cfg), globals))
}

fn finish(ex: Exec<'_>, exit: Option<i64>, cfg: &Config) -> RunOutput {
    let mut trace = ex.trace;
    trace.threads = ex.max_team.max(cfg.threads);
    RunOutput {
        trace,
        printed: ex.printed,
        exit,
        schedule_sensitive: ex.sched.seed_sensitive(),
    }
}

/// Drive a lowered program to completion, returning the executor (for
/// post-run state inspection) and `main`'s return value.
fn exec_program<'p>(prog: &'p Program, cfg: &Config) -> RtResult<(Exec<'p>, Option<i64>)> {
    let mut ex = Exec {
        prog,
        threads: cfg.threads,
        sched: Scheduler::new(cfg.threads, cfg.seed),
        heap: vec![Value::ZERO], // address 0 reserved (null)
        trace: Trace::new(),
        printed: Vec::new(),
        fuel: cfg.fuel,
        site_ids: vec![None; prog.sites.len()],
        regs: vec![Value::ZERO; prog.global_regs as usize],
        slots: Vec::new(),
        reg_base: 0,
        slot_base: 0,
        global_slots: vec![SlotState::default(); prog.n_globals as usize],
        in_region: false,
        tid: 0,
        agent: 0,
        phase: 0,
        team: 1,
        max_team: 1,
        atomic_target: None,
        suppress: false,
        occ: HashMap::new(),
        iter_cache: HashMap::new(),
    };
    ex.run_range(prog.global_init)?;
    let main = &prog.funcs[prog.main as usize];
    ex.regs.clear();
    ex.regs.resize(main.n_regs as usize, Value::ZERO);
    ex.slots.clear();
    ex.slots.resize(main.n_slots as usize, SlotState::default());
    // argc/argv defaults.
    for i in 0..main.n_params as usize {
        let addr = ex.alloc(1);
        ex.heap[addr] = if i == 0 { Value::Int(1) } else { Value::Ptr(0) };
        ex.slots[i] = SlotState { addr, count: 1, n_dims: 0, dims: [0; 4] };
    }
    let flow = ex.run_range(main.entry)?;
    let exit = match flow {
        Flow::Return(v) => Some(v.as_int()),
        _ => None,
    };
    Ok((ex, exit))
}
