//! The trapping interpreter.
//!
//! The VM executes one [`CodeImage`] function call at a time against a shared
//! [`Memory`]. Everything abnormal becomes a [`Trap`] rather than unwinding
//! into the host: division by zero, wild loads/stores, jumps outside the
//! image, undecodable (corrupted) instruction words, and — crucially for
//! fault injection — exhaustion of the instruction *budget*, which is how an
//! injected fault that produces an infinite loop manifests as a detectable
//! hang instead of wedging the benchmark harness.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::entry::{for_each_kind, Kind};
use crate::image::CodeImage;
use crate::isa::Reg;
use crate::mem::Memory;

/// Abnormal termination of a VM call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trap {
    /// Signed division or remainder with a zero divisor.
    DivideByZero {
        /// Faulting instruction address.
        at: u32,
    },
    /// Load or store outside data memory.
    BadMemory {
        /// Faulting instruction address.
        at: u32,
        /// The wild data address.
        addr: i64,
    },
    /// Control transfer outside the code image (includes corrupted return
    /// addresses popped by `ret`).
    BadJump {
        /// Faulting instruction address.
        at: u32,
        /// The wild code address.
        target: i64,
    },
    /// The word at `at` no longer decodes (possible after aggressive
    /// patching).
    BadInstruction {
        /// Faulting instruction address.
        at: u32,
    },
    /// The instruction budget ran out — the call is considered hung.
    BudgetExhausted {
        /// Instructions executed before giving up.
        executed: u64,
    },
    /// A hypercall was invoked with an unknown number or invalid arguments.
    BadHcall {
        /// Faulting instruction address.
        at: u32,
        /// Hypercall number.
        n: i32,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::DivideByZero { at } => write!(f, "divide by zero at {at}"),
            Trap::BadMemory { at, addr } => write!(f, "bad memory access at {at} (addr {addr})"),
            Trap::BadJump { at, target } => write!(f, "bad jump at {at} (target {target})"),
            Trap::BadInstruction { at } => write!(f, "undecodable instruction at {at}"),
            Trap::BudgetExhausted { executed } => {
                write!(f, "instruction budget exhausted after {executed}")
            }
            Trap::BadHcall { at, n } => write!(f, "bad hypercall {n} at {at}"),
        }
    }
}

impl std::error::Error for Trap {}

impl Trap {
    /// True if the trap models a *hang* (as opposed to a crash) — the
    /// distinction the benchmark harness uses to separate KNS/KCP from MIS.
    pub fn is_hang(self) -> bool {
        matches!(self, Trap::BudgetExhausted { .. })
    }
}

/// Device layer invoked by the `hcall` instruction.
///
/// Hypercalls sit *below* the OS under test — they model raw hardware
/// (backing store, console) and are never a fault-injection target.
/// Arguments arrive in `r2..`, the result must be placed in `r1`.
pub trait HcallHandler {
    /// Handles hypercall `n`.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] (usually [`Trap::BadHcall`]) for unknown numbers or
    /// invalid arguments.
    fn hcall(
        &mut self,
        n: i32,
        at: u32,
        regs: &mut [i64; 32],
        mem: &mut Memory,
    ) -> Result<(), Trap>;
}

/// A handler that rejects every hypercall — for pure computational code.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHcalls;

impl HcallHandler for NoHcalls {
    fn hcall(
        &mut self,
        n: i32,
        at: u32,
        _regs: &mut [i64; 32],
        _mem: &mut Memory,
    ) -> Result<(), Trap> {
        Err(Trap::BadHcall { at, n })
    }
}

/// Interpreter configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct VmConfig {
    /// Maximum instructions per call before [`Trap::BudgetExhausted`].
    pub budget: u64,
    /// Cells reserved for the call stack at the top of data memory.
    pub stack_cells: usize,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            budget: 2_000_000,
            stack_cells: 4096,
        }
    }
}

/// Successful completion of a VM call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallOutcome {
    /// Value left in `r1` by the callee.
    pub return_value: i64,
    /// Instructions executed — the basis of the simulated cost model.
    pub executed: u64,
}

/// Sentinel return address marking the bottom of the call stack.
const RETURN_SENTINEL: i64 = -0x5EAF00D;

/// A single-address execution watchpoint.
///
/// Campaigns arm one on a fault's key instruction to measure *activation*
/// (did the mutated code actually run?). Unlike
/// [`enable_profiling`](Vm::enable_profiling), which counts every address
/// and is priced for offline studies, a watchpoint is one compare in the
/// dispatch loop — cheap enough to leave armed for a whole campaign slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watchpoint {
    /// The watched code address.
    pub pc: u32,
    /// Times the watched address has executed since arming.
    pub hits: u64,
}

/// The interpreter. Stateless between calls except for configuration and
/// cumulative instruction counts.
#[derive(Clone, Debug)]
pub struct Vm {
    config: VmConfig,
    total_executed: u64,
    profile: Option<Vec<u64>>,
    watch: Option<Watchpoint>,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

impl Vm {
    /// Creates a VM with [`VmConfig::default`].
    pub fn new() -> Vm {
        Vm::with_config(VmConfig::default())
    }

    /// Creates a VM with an explicit configuration.
    pub fn with_config(config: VmConfig) -> Vm {
        Vm {
            config,
            total_executed: 0,
            profile: None,
            watch: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> VmConfig {
        self.config
    }

    /// Instructions executed across all calls (for intrusiveness accounting).
    pub fn total_executed(&self) -> u64 {
        self.total_executed
    }

    /// Enables per-address execution counting for an image of `code_len`
    /// instructions. Counting has a small interpreter cost; it is meant for
    /// offline cost-attribution studies, not campaigns.
    pub fn enable_profiling(&mut self, code_len: usize) {
        self.profile = Some(vec![0; code_len]);
    }

    /// Per-address execution counts recorded since
    /// [`enable_profiling`](Vm::enable_profiling); `None` when disabled.
    pub fn profile(&self) -> Option<&[u64]> {
        self.profile.as_deref()
    }

    /// Arms an execution watchpoint on `pc`, resetting its hit count. Only
    /// one watchpoint exists at a time (a campaign slot carries one fault).
    pub fn set_watchpoint(&mut self, pc: u32) {
        self.watch = Some(Watchpoint { pc, hits: 0 });
    }

    /// Disarms the watchpoint, returning its final state if one was armed.
    pub fn clear_watchpoint(&mut self) -> Option<Watchpoint> {
        self.watch.take()
    }

    /// The armed watchpoint and its hit count, if any.
    pub fn watchpoint(&self) -> Option<Watchpoint> {
        self.watch
    }

    /// Calls `func` with `args` (at most 8) in `image` against `mem`.
    ///
    /// The stack occupies the top `stack_cells` of `mem`; everything below is
    /// the callee's to manage (the OS keeps its heap there).
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on any abnormal event, or a boxed image error if
    /// `func` is not linked in `image`.
    ///
    /// # Panics
    ///
    /// Panics if more than 8 arguments are supplied or memory is smaller than
    /// the configured stack.
    pub fn call<H: HcallHandler>(
        &mut self,
        image: &CodeImage,
        mem: &mut Memory,
        hcalls: &mut H,
        func: &str,
        args: &[i64],
    ) -> Result<CallOutcome, CallError> {
        let entry = image
            .func(func)
            .ok_or_else(|| CallError::UnknownFunction(func.to_string()))?
            .entry;
        self.call_entry(image, mem, hcalls, entry, args)
    }

    /// [`Vm::call`] with the entry address already resolved (a
    /// [`crate::FuncInfo::entry`]). Callers that dispatch the same functions
    /// repeatedly resolve the symbol once and skip the per-call name lookup;
    /// function entries never move — patches replace words in place — so a
    /// resolved entry stays valid for the image's lifetime.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on any abnormal event (including an out-of-range
    /// `entry`, which traps as [`Trap::BadInstruction`] on the first fetch).
    ///
    /// # Panics
    ///
    /// Panics if more than 8 arguments are supplied or memory is smaller than
    /// the configured stack.
    pub fn call_entry<H: HcallHandler>(
        &mut self,
        image: &CodeImage,
        mem: &mut Memory,
        hcalls: &mut H,
        entry: u32,
        args: &[i64],
    ) -> Result<CallOutcome, CallError> {
        assert!(args.len() <= 8, "ABI passes at most 8 register arguments");
        assert!(
            mem.len() >= self.config.stack_cells,
            "memory ({}) smaller than configured stack ({})",
            mem.len(),
            self.config.stack_cells
        );

        let mut regs = [0i64; 32];
        for (i, &a) in args.iter().enumerate() {
            regs[Reg::arg(i).index()] = a;
        }
        let stack_top = mem.len() as i64;
        let stack_limit = stack_top - self.config.stack_cells as i64;
        let mut sp = stack_top;
        // Bottom-of-stack sentinel: `ret` to it ends the call.
        sp -= 1;
        mem.write(sp, RETURN_SENTINEL).expect("stack in bounds");
        regs[Reg::SP.index()] = sp;

        // A mis-sized profile would silently truncate per-address counts;
        // refuse loudly instead (activation/cost data must be trustworthy).
        if let Some(counts) = self.profile.as_ref() {
            assert_eq!(
                counts.len(),
                image.len(),
                "profile sized for a different image: {} count slots vs {} instructions in `{}`",
                counts.len(),
                image.len(),
                image.name()
            );
        }

        // Dispatch to a loop monomorphized over which instrumentation is
        // active: campaign slots (no profile, no watch) execute with zero
        // per-step instrumentation checks.
        let budget = self.config.budget;
        let mut dummy = Watchpoint {
            pc: u32::MAX,
            hits: 0,
        };
        let (executed, outcome) = match (&mut self.profile, &mut self.watch) {
            (None, None) => exec::<H, false, false>(
                image,
                mem,
                hcalls,
                budget,
                stack_limit,
                entry,
                regs,
                &mut [],
                &mut dummy,
            ),
            (Some(c), None) => exec::<H, true, false>(
                image,
                mem,
                hcalls,
                budget,
                stack_limit,
                entry,
                regs,
                c,
                &mut dummy,
            ),
            (None, Some(w)) => exec::<H, false, true>(
                image,
                mem,
                hcalls,
                budget,
                stack_limit,
                entry,
                regs,
                &mut [],
                w,
            ),
            (Some(c), Some(w)) => {
                exec::<H, true, true>(image, mem, hcalls, budget, stack_limit, entry, regs, c, w)
            }
        };
        self.total_executed += executed;
        outcome.map_err(CallError::Trap)
    }
}

/// The dispatch loop, executing straight from the image's execution cache:
/// fetching an entry is an index, not a decode (patches re-derive only the
/// entries that read the words they touch). `PROFILE`/`WATCH` monomorphize
/// the per-step instrumentation away when it is off, which is the campaign
/// hot path.
///
/// A fused entry runs its head and, in the same dispatch, its tail — with
/// exactly the observable effects of two separate dispatches:
///
/// * `executed` counts both components;
/// * the tail runs only when the budget still covers it after the head;
///   otherwise the head runs alone and the next dispatch reaches the
///   tail's own entry, so [`Trap::BudgetExhausted`] reports the same count;
/// * a trap in the head reports the head's address and count, and the tail
///   (including a watchpoint on it) is not reached; a trap in the tail
///   reports the tail's address;
/// * the watchpoint is tested against each component's address in turn.
///
/// The profiling variant compiles fusion out, so its per-address counts see
/// every word dispatched on its own — which also makes it the unfused
/// reference the differential tests compare the fused loop against.
///
/// `counts` must be image-sized when `PROFILE` (asserted by the caller);
/// `watch` is a dummy when `!WATCH`. Returns the executed-step count
/// alongside the outcome so the caller can tally intrusiveness.
#[allow(clippy::too_many_arguments)]
fn exec<H: HcallHandler, const PROFILE: bool, const WATCH: bool>(
    image: &CodeImage,
    mem: &mut Memory,
    hcalls: &mut H,
    budget: u64,
    stack_limit: i64,
    entry: u32,
    mut regs: [i64; 32],
    counts: &mut [u64],
    watch: &mut Watchpoint,
) -> (u64, Result<CallOutcome, Trap>) {
    let entries = image.entries();
    let mut pc: u32 = entry;
    let mut executed: u64 = 0;
    let outcome = loop {
        if executed >= budget {
            break Err(Trap::BudgetExhausted { executed });
        }
        // The trapping step counts: every trap arm below reports the
        // instruction (or bad word) that was reached, uniformly.
        executed += 1;
        let e = match entries.get(pc as usize) {
            Some(e) => *e,
            None => break Err(Trap::BadInstruction { at: pc }),
        };
        if PROFILE {
            counts[pc as usize] += 1;
        }
        if WATCH && watch.pc == pc {
            watch.hits += 1;
        }

        macro_rules! reg {
            ($r:expr) => {
                regs[$r.index()]
            };
        }
        macro_rules! set {
            ($r:expr, $v:expr) => {{
                let r = $r;
                if r != Reg::ZERO {
                    regs[r.index()] = $v;
                }
            }};
        }
        macro_rules! jump_to {
            ($t:expr) => {{
                let t = $t;
                if t < 0 || t as usize >= image.len() {
                    break Err(Trap::BadJump { at: pc, target: t });
                }
                pc = t as u32;
                continue;
            }};
        }
        // `run!(Op, i)`: execute opcode `Op` with the operands of entry `i`
        // as the instruction at `pc`.
        macro_rules! run {
            (Nop, $i:ident) => {{}};
            (Halt, $i:ident) => {
                break Ok(CallOutcome {
                    return_value: regs[Reg::RV.index()],
                    executed,
                })
            };
            (Mov, $i:ident) => {
                set!($i.rd, reg!($i.rs1))
            };
            (Ldi, $i:ident) => {
                set!($i.rd, $i.imm as i64)
            };
            (Add, $i:ident) => {
                set!($i.rd, reg!($i.rs1).wrapping_add(reg!($i.rs2)))
            };
            (Sub, $i:ident) => {
                set!($i.rd, reg!($i.rs1).wrapping_sub(reg!($i.rs2)))
            };
            (Mul, $i:ident) => {
                set!($i.rd, reg!($i.rs1).wrapping_mul(reg!($i.rs2)))
            };
            (Div, $i:ident) => {{
                let d = reg!($i.rs2);
                if d == 0 {
                    break Err(Trap::DivideByZero { at: pc });
                }
                set!($i.rd, reg!($i.rs1).wrapping_div(d));
            }};
            (Mod, $i:ident) => {{
                let d = reg!($i.rs2);
                if d == 0 {
                    break Err(Trap::DivideByZero { at: pc });
                }
                set!($i.rd, reg!($i.rs1).wrapping_rem(d));
            }};
            (And, $i:ident) => {
                set!($i.rd, reg!($i.rs1) & reg!($i.rs2))
            };
            (Or, $i:ident) => {
                set!($i.rd, reg!($i.rs1) | reg!($i.rs2))
            };
            (Xor, $i:ident) => {
                set!($i.rd, reg!($i.rs1) ^ reg!($i.rs2))
            };
            (Shl, $i:ident) => {
                set!($i.rd, reg!($i.rs1) << (reg!($i.rs2) & 63))
            };
            (Shr, $i:ident) => {
                set!($i.rd, reg!($i.rs1) >> (reg!($i.rs2) & 63))
            };
            (Not, $i:ident) => {
                set!($i.rd, !reg!($i.rs1))
            };
            (Addi, $i:ident) => {
                set!($i.rd, reg!($i.rs1).wrapping_add($i.imm as i64))
            };
            (Muli, $i:ident) => {
                set!($i.rd, reg!($i.rs1).wrapping_mul($i.imm as i64))
            };
            (Cmpeq, $i:ident) => {
                set!($i.rd, (reg!($i.rs1) == reg!($i.rs2)) as i64)
            };
            (Cmpne, $i:ident) => {
                set!($i.rd, (reg!($i.rs1) != reg!($i.rs2)) as i64)
            };
            (Cmplt, $i:ident) => {
                set!($i.rd, (reg!($i.rs1) < reg!($i.rs2)) as i64)
            };
            (Cmple, $i:ident) => {
                set!($i.rd, (reg!($i.rs1) <= reg!($i.rs2)) as i64)
            };
            (Ld, $i:ident) => {{
                let addr = reg!($i.rs1).wrapping_add($i.imm as i64);
                match mem.read(addr) {
                    Ok(v) => set!($i.rd, v),
                    Err(_) => break Err(Trap::BadMemory { at: pc, addr }),
                }
            }};
            (St, $i:ident) => {{
                let addr = reg!($i.rs1).wrapping_add($i.imm as i64);
                if mem.write(addr, reg!($i.rs2)).is_err() {
                    break Err(Trap::BadMemory { at: pc, addr });
                }
            }};
            (Jmp, $i:ident) => {
                jump_to!($i.imm as u32 as i64)
            };
            (Beqz, $i:ident) => {
                if reg!($i.rs1) == 0 {
                    jump_to!($i.imm as u32 as i64);
                }
            };
            (Bnez, $i:ident) => {
                if reg!($i.rs1) != 0 {
                    jump_to!($i.imm as u32 as i64);
                }
            };
            (Call, $i:ident) => {{
                let sp = regs[Reg::SP.index()] - 1;
                if sp < stack_limit {
                    break Err(Trap::BadMemory { at: pc, addr: sp });
                }
                if mem.write(sp, pc as i64 + 1).is_err() {
                    break Err(Trap::BadMemory { at: pc, addr: sp });
                }
                regs[Reg::SP.index()] = sp;
                jump_to!($i.imm as u32 as i64);
            }};
            (Ret, $i:ident) => {{
                let sp = regs[Reg::SP.index()];
                let ra = match mem.read(sp) {
                    Ok(v) => v,
                    Err(_) => break Err(Trap::BadMemory { at: pc, addr: sp }),
                };
                regs[Reg::SP.index()] = sp + 1;
                if ra == RETURN_SENTINEL {
                    break Ok(CallOutcome {
                        return_value: regs[Reg::RV.index()],
                        executed,
                    });
                }
                jump_to!(ra);
            }};
            (Push, $i:ident) => {{
                let sp = regs[Reg::SP.index()] - 1;
                if sp < stack_limit || mem.write(sp, reg!($i.rs1)).is_err() {
                    break Err(Trap::BadMemory { at: pc, addr: sp });
                }
                regs[Reg::SP.index()] = sp;
            }};
            (Pop, $i:ident) => {{
                let sp = regs[Reg::SP.index()];
                match mem.read(sp) {
                    Ok(v) => {
                        set!($i.rd, v);
                        regs[Reg::SP.index()] = sp + 1;
                    }
                    Err(_) => break Err(Trap::BadMemory { at: pc, addr: sp }),
                }
            }};
            (Hcall, $i:ident) => {{
                if let Err(t) = hcalls.hcall($i.imm, pc, &mut regs, mem) {
                    break Err(t);
                }
                regs[Reg::ZERO.index()] = 0; // keep r0 hard-zero across handlers
            }};
        }
        macro_rules! dispatch {
            (plain: $($p:ident),*; fused: $($f:ident = $h:ident + $t:ident),*;) => {
                match e.kind {
                    $(Kind::$p => run!($p, e),)*
                    Kind::Bad => break Err(Trap::BadInstruction { at: pc }),
                    $(Kind::$f => {
                        run!($h, e);
                        if !PROFILE && executed < budget {
                            executed += 1;
                            pc += 1;
                            if WATCH && watch.pc == pc {
                                watch.hits += 1;
                            }
                            // Fusion requires a successor, so this indexes
                            // in range; its fields describe the tail word.
                            let tail = entries[pc as usize];
                            run!($t, tail);
                        }
                    })*
                }
            };
        }
        for_each_kind!(dispatch);
        pc += 1;
    };
    (executed, outcome)
}

/// Errors from [`Vm::call`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallError {
    /// The function is not linked in the image.
    UnknownFunction(String),
    /// The callee trapped.
    Trap(Trap),
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            CallError::Trap(t) => write!(f, "trap: {t}"),
        }
    }
}

impl std::error::Error for CallError {}

impl CallError {
    /// The trap, if this error is one.
    pub fn trap(&self) -> Option<Trap> {
        match self {
            CallError::Trap(t) => Some(*t),
            CallError::UnknownFunction(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str, func: &str, args: &[i64]) -> Result<CallOutcome, CallError> {
        let image = assemble(src).expect("assembles");
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        vm.call(&image, &mut mem, &mut NoHcalls, func, args)
    }

    #[test]
    fn arithmetic_and_return() {
        let out = run(
            r#"
            .func main
                add r1, r2, r3
                ret
            "#,
            "main",
            &[20, 22],
        )
        .unwrap();
        assert_eq!(out.return_value, 42);
        assert_eq!(out.executed, 2);
    }

    #[test]
    fn nested_calls_preserve_flow() {
        let out = run(
            r#"
            .func main
                ldi r2, 5
                call inc
                mov r2, r1
                call inc
                ret
            .func inc
                addi r1, r2, 1
                ret
            "#,
            "main",
            &[],
        )
        .unwrap();
        assert_eq!(out.return_value, 7);
    }

    #[test]
    fn branches_take_and_fall_through() {
        let src = r#"
            .func sign
                beqz r2, zero
                cmplt r10, r2, r0
                bnez r10, neg
                ldi r1, 1
                ret
            zero:
                ldi r1, 0
                ret
            neg:
                ldi r1, -1
                ret
        "#;
        assert_eq!(run(src, "sign", &[15]).unwrap().return_value, 1);
        assert_eq!(run(src, "sign", &[0]).unwrap().return_value, 0);
        assert_eq!(run(src, "sign", &[-3]).unwrap().return_value, -1);
    }

    #[test]
    fn loop_with_memory() {
        // Sum cells [a0, a0+n) into r1.
        let src = r#"
            .func sum
                ldi r1, 0
                mov r10, r2
                add r11, r2, r3
            loop:
                cmplt r12, r10, r11
                beqz r12, done
                ld r13, [r10+0]
                add r1, r1, r13
                addi r10, r10, 1
                jmp loop
            done:
                ret
        "#;
        let image = assemble(src).unwrap();
        let mut mem = Memory::new(8192);
        for i in 0..10 {
            mem.write(100 + i, i + 1).unwrap();
        }
        let mut vm = Vm::new();
        let out = vm
            .call(&image, &mut mem, &mut NoHcalls, "sum", &[100, 10])
            .unwrap();
        assert_eq!(out.return_value, 55);
    }

    #[test]
    fn divide_by_zero_traps() {
        let err = run(
            r#"
            .func main
                div r1, r2, r3
                ret
            "#,
            "main",
            &[1, 0],
        )
        .unwrap_err();
        assert_eq!(err.trap(), Some(Trap::DivideByZero { at: 0 }));
    }

    #[test]
    fn wild_memory_traps() {
        let err = run(
            r#"
            .func main
                ldi r10, -500
                ld r1, [r10+0]
                ret
            "#,
            "main",
            &[],
        )
        .unwrap_err();
        assert!(matches!(
            err.trap(),
            Some(Trap::BadMemory { at: 1, addr: -500 })
        ));
    }

    #[test]
    fn wild_jump_traps() {
        let err = run(
            r#"
            .func main
                jmp 999999
            "#,
            "main",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err.trap(), Some(Trap::BadJump { .. })));
    }

    #[test]
    fn infinite_loop_exhausts_budget() {
        let image = assemble(
            r#"
            .func spin
            again:
                jmp again
            "#,
        )
        .unwrap();
        let mut mem = Memory::new(8192);
        let mut vm = Vm::with_config(VmConfig {
            budget: 1000,
            stack_cells: 128,
        });
        let err = vm
            .call(&image, &mut mem, &mut NoHcalls, "spin", &[])
            .unwrap_err();
        assert_eq!(err.trap(), Some(Trap::BudgetExhausted { executed: 1000 }));
        assert!(err.trap().unwrap().is_hang());
    }

    #[test]
    fn stack_overflow_on_runaway_recursion() {
        let err = run(
            r#"
            .func main
                call main
            "#,
            "main",
            &[],
        )
        .unwrap_err();
        // Either the stack limit or the budget fires; with default config the
        // stack limit comes first.
        assert!(matches!(err.trap(), Some(Trap::BadMemory { .. })));
    }

    #[test]
    fn r0_is_hard_zero() {
        let out = run(
            r#"
            .func main
                ldi r0, 77
                mov r1, r0
                ret
            "#,
            "main",
            &[],
        )
        .unwrap();
        assert_eq!(out.return_value, 0);
    }

    #[test]
    fn unknown_function_reported() {
        let err = run(
            r#"
            .func main
                ret
            "#,
            "nope",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, CallError::UnknownFunction(_)));
    }

    #[test]
    fn unknown_hcall_traps() {
        let err = run(
            r#"
            .func main
                hcall 42
                ret
            "#,
            "main",
            &[],
        )
        .unwrap_err();
        assert_eq!(err.trap(), Some(Trap::BadHcall { at: 0, n: 42 }));
    }

    #[test]
    fn push_pop_roundtrip_and_total_executed() {
        let image = assemble(
            r#"
            .func main
                ldi r10, 9
                push r10
                ldi r10, 0
                pop r1
                ret
            "#,
        )
        .unwrap();
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        let out = vm
            .call(&image, &mut mem, &mut NoHcalls, "main", &[])
            .unwrap();
        assert_eq!(out.return_value, 9);
        assert_eq!(vm.total_executed(), out.executed);
    }

    #[test]
    fn halt_ends_call_with_rv() {
        let out = run(
            r#"
            .func main
                ldi r1, 5
                halt
            "#,
            "main",
            &[],
        )
        .unwrap();
        assert_eq!(out.return_value, 5);
    }

    /// A custom hcall handler is invoked with register access.
    #[test]
    fn hcall_handler_runs() {
        struct Doubler;
        impl HcallHandler for Doubler {
            fn hcall(
                &mut self,
                n: i32,
                at: u32,
                regs: &mut [i64; 32],
                _mem: &mut Memory,
            ) -> Result<(), Trap> {
                if n == 1 {
                    regs[Reg::RV.index()] = regs[Reg::A0.index()] * 2;
                    Ok(())
                } else {
                    Err(Trap::BadHcall { at, n })
                }
            }
        }
        let image = assemble(
            r#"
            .func main
                hcall 1
                ret
            "#,
        )
        .unwrap();
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        let out = vm
            .call(&image, &mut mem, &mut Doubler, "main", &[21])
            .unwrap();
        assert_eq!(out.return_value, 42);
    }

    /// Counts down from `r2` in a loop whose body sits at a known address —
    /// the watchpoint fixture.
    const COUNTDOWN: &str = r#"
        .func main
            ldi r3, 1
        loop:
            sub r2, r2, r3
            beqz r2, done
            jmp loop
        done:
            ret
    "#;

    #[test]
    fn watchpoint_counts_each_execution_of_the_watched_pc() {
        let image = assemble(COUNTDOWN).expect("assembles");
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        // Address 1 is the `sub`: executed once per loop iteration.
        vm.set_watchpoint(1);
        vm.call(&image, &mut mem, &mut NoHcalls, "main", &[5])
            .unwrap();
        assert_eq!(vm.watchpoint(), Some(Watchpoint { pc: 1, hits: 5 }));
        // Hits accumulate across calls until re-armed or cleared.
        vm.call(&image, &mut mem, &mut NoHcalls, "main", &[3])
            .unwrap();
        assert_eq!(vm.watchpoint().unwrap().hits, 8);
        let fin = vm.clear_watchpoint().unwrap();
        assert_eq!(fin.hits, 8);
        assert_eq!(vm.watchpoint(), None);
    }

    #[test]
    fn rearming_a_watchpoint_resets_its_count() {
        let image = assemble(COUNTDOWN).expect("assembles");
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        vm.set_watchpoint(1);
        vm.call(&image, &mut mem, &mut NoHcalls, "main", &[4])
            .unwrap();
        assert_eq!(vm.watchpoint().unwrap().hits, 4);
        vm.set_watchpoint(1);
        assert_eq!(vm.watchpoint().unwrap().hits, 0);
    }

    #[test]
    fn unexecuted_watchpoint_stays_at_zero() {
        let image = assemble(COUNTDOWN).expect("assembles");
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        // Watch an address well past the function — it never executes.
        vm.set_watchpoint(1000);
        vm.call(&image, &mut mem, &mut NoHcalls, "main", &[5])
            .unwrap();
        assert_eq!(vm.watchpoint().unwrap().hits, 0);
    }

    #[test]
    fn profile_counts_every_executed_address() {
        let image = assemble(COUNTDOWN).expect("assembles");
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        vm.enable_profiling(image.len());
        let out = vm
            .call(&image, &mut mem, &mut NoHcalls, "main", &[3])
            .unwrap();
        let counts = vm.profile().unwrap();
        assert_eq!(counts.len(), image.len());
        assert_eq!(counts[1], 3, "`sub` runs once per iteration");
        assert_eq!(
            counts.iter().sum::<u64>(),
            out.executed,
            "no executed step may escape the profile"
        );
    }

    #[test]
    #[should_panic(expected = "profile sized for a different image")]
    fn mis_sized_profile_is_a_loud_error() {
        let image = assemble(COUNTDOWN).expect("assembles");
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        // Sized for some other image: counts would silently truncate before.
        vm.enable_profiling(2);
        let _ = vm.call(&image, &mut mem, &mut NoHcalls, "main", &[3]);
    }

    #[test]
    fn bad_instruction_counts_the_trapping_step() {
        use crate::image::Patch;
        let mut image = assemble(
            r#"
            .func main
                ldi r1, 5
                ret
            "#,
        )
        .unwrap();
        // Corrupt the `ret` into an undecodable word, as an injector could.
        image
            .apply(&[Patch {
                addr: 1,
                new_word: 0xFF << 56,
            }])
            .unwrap();
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        vm.set_watchpoint(1);
        let err = vm
            .call(&image, &mut mem, &mut NoHcalls, "main", &[])
            .unwrap_err();
        assert_eq!(err, CallError::Trap(Trap::BadInstruction { at: 1 }));
        // The trapping step counts, uniformly with every other trap arm:
        // `ldi` executed, then reaching the bad word is step two.
        assert_eq!(vm.total_executed(), 2);
        // Reaching the corrupted site is an activation, and is observed.
        assert_eq!(vm.watchpoint().unwrap().hits, 1);
    }

    #[test]
    fn falling_off_the_image_end_counts_the_trapping_step() {
        let image = assemble(
            r#"
            .func main
                nop
            "#,
        )
        .unwrap();
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        let err = vm
            .call(&image, &mut mem, &mut NoHcalls, "main", &[])
            .unwrap_err();
        assert_eq!(err, CallError::Trap(Trap::BadInstruction { at: 1 }));
        assert_eq!(vm.total_executed(), 2, "nop plus the out-of-range fetch");
    }

    // ----- Superinstruction fusion -------------------------------------

    use crate::entry::Kind;
    use crate::image::Patch;
    use crate::isa::{Instr, Opcode};
    use proptest::prelude::*;

    /// Everything observable about one call.
    #[derive(Debug, PartialEq)]
    struct Observed {
        outcome: Result<CallOutcome, CallError>,
        executed: u64,
        hits: Option<u64>,
        mem: Vec<i64>,
    }

    fn kind_at(image: &CodeImage, a: usize) -> Kind {
        image.entries()[a].kind
    }

    /// Runs `func` once per dispatch variant — fused without a watchpoint,
    /// fused with one, and the unfused profiling loop with one — from the
    /// same initial memory, asserts all three agree, and returns what the
    /// fused loop observed.
    fn run_variants(
        image: &CodeImage,
        mem: &Memory,
        args: &[i64],
        budget: u64,
        watch: Option<u32>,
    ) -> Observed {
        let config = VmConfig {
            budget,
            stack_cells: 16,
        };
        let run = |profile: bool, watch: Option<u32>| {
            let mut mem = mem.clone();
            let mut vm = Vm::with_config(config);
            if profile {
                vm.enable_profiling(image.len());
            }
            if let Some(pc) = watch {
                vm.set_watchpoint(pc);
            }
            let outcome = vm.call_entry(image, &mut mem, &mut NoHcalls, 0, args);
            Observed {
                outcome,
                executed: vm.total_executed(),
                hits: vm.watchpoint().map(|w| w.hits),
                mem: mem.read_block(0, mem.len()).unwrap(),
            }
        };
        let fused = run(false, watch);
        let unfused = run(true, watch);
        assert_eq!(fused, unfused, "fused and unfused dispatch disagree");
        let unwatched = run(false, None);
        assert_eq!(
            (&unwatched.outcome, unwatched.executed, &unwatched.mem),
            (&fused.outcome, fused.executed, &fused.mem),
            "arming a watchpoint changed execution"
        );
        fused
    }

    #[test]
    fn wild_load_at_a_pair_head_traps_at_the_head() {
        let image = assemble(
            r#"
            .func main
                ldi r10, -500
                ld r1, [r10+0]
                ldi r2, 7
                ret
            "#,
        )
        .unwrap();
        assert_eq!(kind_at(&image, 1), Kind::LdLdi);
        let got = run_variants(&image, &Memory::new(64), &[], 100, None);
        assert_eq!(
            got.outcome.unwrap_err().trap(),
            Some(Trap::BadMemory { at: 1, addr: -500 })
        );
        assert_eq!(got.executed, 2, "the tail is not reached");
    }

    #[test]
    fn watchpoint_on_the_tail_of_a_trapping_head_sees_nothing() {
        let image = assemble(
            r#"
            .func main
                ldi r10, 9999
                st [r10+0], r2
                ld r1, [r0+3]
                ret
            "#,
        )
        .unwrap();
        assert_eq!(kind_at(&image, 1), Kind::StLd);
        let tail = run_variants(&image, &Memory::new(64), &[], 100, Some(2));
        assert_eq!(
            tail.outcome.unwrap_err().trap(),
            Some(Trap::BadMemory { at: 1, addr: 9999 })
        );
        assert_eq!(tail.hits, Some(0));
        let head = run_variants(&image, &Memory::new(64), &[], 100, Some(1));
        assert_eq!(head.hits, Some(1), "the trapping head was reached");
    }

    #[test]
    fn trap_in_a_pair_tail_reports_the_tail() {
        let image = assemble(
            r#"
            .func main
                ldi r10, 5
                ld r11, [r0+1]
                ld r1, [r10+9000]
                ret
            "#,
        )
        .unwrap();
        assert_eq!(kind_at(&image, 1), Kind::LdLd);
        let got = run_variants(&image, &Memory::new(64), &[], 100, Some(2));
        assert_eq!(
            got.outcome.unwrap_err().trap(),
            Some(Trap::BadMemory { at: 2, addr: 9005 })
        );
        assert_eq!((got.executed, got.hits), (3, Some(1)));
    }

    #[test]
    fn budget_with_one_step_left_runs_the_pair_head_alone() {
        let image = assemble(
            r#"
            .func main
                ldi r2, 1
                ld r1, [r0+10]
                ldi r3, 2
                ret
            "#,
        )
        .unwrap();
        assert_eq!(kind_at(&image, 1), Kind::LdLdi);
        // Budget 2: `ldi` leaves exactly one step for the pair at 1.
        let got = run_variants(&image, &Memory::new(64), &[], 2, Some(2));
        assert_eq!(
            got.outcome.unwrap_err().trap(),
            Some(Trap::BudgetExhausted { executed: 2 })
        );
        assert_eq!(got.hits, Some(0), "the tail never ran");
        // Budget 3 covers the whole pair; the `ret` is what runs out.
        let got = run_variants(&image, &Memory::new(64), &[], 3, Some(2));
        assert_eq!(
            got.outcome.unwrap_err().trap(),
            Some(Trap::BudgetExhausted { executed: 3 })
        );
        assert_eq!(got.hits, Some(1));
        let done = run_variants(&image, &Memory::new(64), &[], 4, None);
        assert_eq!(done.outcome.unwrap().executed, 4);
    }

    #[test]
    fn jump_into_a_pair_tail_runs_the_tail_alone() {
        let image = assemble(
            r#"
            .func main
                jmp 2
                ldi r1, 99
                add r1, r1, r2
                ret
            "#,
        )
        .unwrap();
        assert_eq!(kind_at(&image, 1), Kind::LdiAdd);
        let got = run_variants(&image, &Memory::new(64), &[5], 100, Some(1));
        let out = got.outcome.unwrap();
        assert_eq!((out.return_value, out.executed), (5, 3));
        assert_eq!(got.hits, Some(0), "the skipped head never ran");
    }

    #[test]
    fn patches_that_create_and_break_pairs_rederive_both_entries() {
        // `ldi; nop; ret` has no pair until word 1 becomes an `add`.
        let mut image = assemble(
            r#"
            .func main
                ldi r1, 5
                nop
                ret
            "#,
        )
        .unwrap();
        let mem = Memory::new(64);
        let add = Instr::alu3(Opcode::Add, Reg::RV, Reg::RV, Reg::A0).encode();
        let undo = image
            .apply(&[Patch {
                addr: 1,
                new_word: add,
            }])
            .unwrap();
        assert_eq!(kind_at(&image, 0), Kind::LdiAdd, "the patch created a pair");
        let got = run_variants(&image, &mem, &[37], 100, Some(1));
        assert_eq!(got.outcome.unwrap().return_value, 42);
        assert_eq!(got.hits, Some(1));
        image.revert(&undo);
        assert_eq!(kind_at(&image, 0), Kind::Ldi, "the revert broke it again");
        let got = run_variants(&image, &mem, &[37], 100, Some(1));
        assert_eq!(got.outcome.unwrap().return_value, 5);

        // `ld; ldi; add; ret` chains two pairs; NOP-ing the middle word
        // breaks both the pair it heads and the pair it tails.
        let mut image = assemble(
            r#"
            .func main
                ld r1, [r0+10]
                ldi r2, 1
                add r1, r1, r2
                ret
            "#,
        )
        .unwrap();
        let mut mem = Memory::new(64);
        mem.write(10, 40).unwrap();
        assert_eq!(
            (kind_at(&image, 0), kind_at(&image, 1)),
            (Kind::LdLdi, Kind::LdiAdd)
        );
        let undo = image
            .apply(&[Patch {
                addr: 1,
                new_word: Instr::nop().encode(),
            }])
            .unwrap();
        assert_eq!(
            (kind_at(&image, 0), kind_at(&image, 1)),
            (Kind::Ld, Kind::Nop)
        );
        let got = run_variants(&image, &mem, &[3], 100, Some(1));
        assert_eq!(
            got.outcome.unwrap().return_value,
            43,
            "r2 keeps the argument"
        );
        image.revert(&undo);
        assert_eq!(
            (kind_at(&image, 0), kind_at(&image, 1)),
            (Kind::LdLdi, Kind::LdiAdd)
        );
        let got = run_variants(&image, &mem, &[3], 100, Some(1));
        assert_eq!(got.outcome.unwrap().return_value, 41);
    }

    /// Instructions over a few registers and a small memory, weighted
    /// towards the opcodes that fuse, with some wild addresses, traps and
    /// out-of-range branch targets.
    fn arb_instr(code_len: u32) -> impl Strategy<Value = Instr> {
        let r = || (0u8..6).prop_map(|i| Reg::new(i).unwrap());
        let target = || 0..code_len + 2;
        let alu = prop_oneof![
            Just(Opcode::Add),
            Just(Opcode::Sub),
            Just(Opcode::Mul),
            Just(Opcode::Div),
            Just(Opcode::Cmpeq),
            Just(Opcode::Cmpne),
            Just(Opcode::Cmplt),
            Just(Opcode::Cmple),
        ];
        prop_oneof![
            (r(), r(), -2i32..50).prop_map(|(d, b, o)| Instr::ld(d, b, o)),
            (r(), r(), -2i32..50).prop_map(|(b, v, o)| Instr::store(b, o, v)),
            (r(), -3i32..40).prop_map(|(d, i)| Instr::ldi(d, i)),
            (alu, r(), r(), r()).prop_map(|(op, d, a, b)| Instr::alu3(op, d, a, b)),
            (r(), r(), -3i32..4).prop_map(|(d, a, i)| Instr::addi(d, a, i)),
            (r(), target()).prop_map(|(c, t)| Instr::beqz(c, t)),
            (r(), target()).prop_map(|(c, t)| Instr::bnez(c, t)),
            target().prop_map(Instr::jmp),
            target().prop_map(Instr::call),
            Just(Instr::ret()),
            Just(Instr::halt()),
            Just(Instr::nop()),
        ]
    }

    /// One step of a patch storm: apply a batch (valid instructions or
    /// undecodable words), or undo the most recent batch.
    fn arb_storm_step(code_len: u32) -> impl Strategy<Value = Option<Vec<Patch>>> {
        let word = prop_oneof![arb_instr(code_len).prop_map(Instr::encode), any::<u64>(),];
        let batch = proptest::collection::vec(
            (0..code_len, word).prop_map(|(addr, new_word)| Patch { addr, new_word }),
            1..4,
        );
        prop_oneof![batch.prop_map(Some), Just(None)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fused dispatch loop and the unfused (profiling) one agree on
        /// return value, `executed`, the trap and its address, final memory
        /// and watchpoint hits — for random programs under random budgets,
        /// watchpoints and patch/undo storms.
        #[test]
        fn prop_fused_dispatch_matches_unfused(
            instrs in proptest::collection::vec(arb_instr(16), 2..16),
            storm in proptest::collection::vec(arb_storm_step(16), 0..6),
            budget in 0u64..120,
            watch in 0u32..18,
            args in (-3i64..20, -3i64..20),
        ) {
            let len = instrs.len() as u32;
            let funcs = vec![crate::FuncInfo { name: "main".into(), entry: 0, end: len }];
            let mut image = CodeImage::link("diff", &instrs, funcs).unwrap();
            let mut mem = Memory::new(64);
            for a in 0..48 {
                mem.write(a, (a * 7) % 11 - 3).unwrap();
            }
            let args = [args.0, args.1];
            run_variants(&image, &mem, &args, budget, Some(watch));
            let mut undos = Vec::new();
            for step in &storm {
                match step {
                    Some(batch) => {
                        let batch: Vec<Patch> =
                            batch.iter().filter(|p| p.addr < len).copied().collect();
                        undos.push(image.apply(&batch).unwrap());
                    }
                    None => {
                        if let Some(undo) = undos.pop() {
                            image.revert(&undo);
                        }
                    }
                }
                run_variants(&image, &mem, &args, budget, Some(watch));
            }
        }
    }
}
