//! `mvm` — the Machine VM: a small, fixed-width virtual instruction set.
//!
//! This crate plays the role x86 machine code plays in the paper: it is the
//! *executable representation* that the G-SWFIT technique scans and mutates.
//! The ISA is deliberately conventional — 32 general registers, a stack, a
//! compare-and-branch style — so that compiled code exhibits the recognizable
//! low-level idioms (`if` → *evaluate; branch-if-zero over body*, `&&` →
//! *chained branch-if-zero to the same target*, calls → *argument registers,
//! `CALL`, result in `r1`*) on which the paper's mutation operators rely.
//!
//! Components:
//!
//! * [`isa`] — instruction definitions plus a bijective 64-bit encoding,
//! * [`image`] — linked code images with symbol tables and a patching API
//!   (the injector's apply/undo entry point),
//! * [`asm`] — a small text assembler used in tests and examples,
//! * [`mem`] — the word-addressed data memory,
//! * [`vm`] — the trapping interpreter with an instruction budget (budget
//!   exhaustion models hangs caused by injected faults).
//!
//! # Execution cache and superinstructions
//!
//! A [`CodeImage`] keeps, next to its encoded words, one 8-byte execution
//! entry per word: a kind byte plus the word's own `rd/rs1/rs2/imm`. The
//! kind is a plain opcode, a bad-word marker, or a *fused pair* — the word
//! and its successor form a hot pair (`ld·ldi`, `st·ld`, `ldi·add`,
//! compare-and-branch, …) that the dispatch loop runs in one dispatch.
//!
//! * **Invariant.** Entry `a` is a pure function of words `a` and `a + 1`,
//!   so it always equals a fresh build from the words; patching word `p`
//!   re-derives exactly entries `p - 1` and `p`. An entry's fields describe
//!   its own word, so a jump into a pair's second word runs that word's own
//!   entry, and [`CodeImage::instr_at`] serves every address from the cache.
//! * **Exactness.** Fusion never shows: `executed` counts both components;
//!   a pair runs fused only if the budget covers both, else the head runs
//!   alone; a trap in the head reports the head and the tail (watchpoint
//!   included) is not reached; a trap in the tail reports the tail's
//!   address. Profiling ([`Vm::enable_profiling`]) runs the same loop with
//!   fusion compiled out, and a differential proptest holds the two to the
//!   same return value, count, trap, memory and watchpoint hits.
//!
//! # Example
//!
//! ```
//! use mvm::asm::assemble;
//! use mvm::vm::{NoHcalls, Vm};
//! use mvm::mem::Memory;
//!
//! let image = assemble(
//!     r#"
//!     .func add2
//!         add r1, r2, r3
//!         ret
//!     "#,
//! )?;
//! let mut mem = Memory::new(8192);
//! let mut vm = Vm::new();
//! let r = vm.call(&image, &mut mem, &mut NoHcalls, "add2", &[20, 22])?;
//! assert_eq!(r.return_value, 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod asm;
mod entry;
pub mod image;
pub mod isa;
pub mod mem;
pub mod vm;

pub use image::{CodeImage, FuncInfo, Patch, PatchSet};
pub use isa::{DecodeError, Instr, Opcode, Reg};
pub use mem::Memory;
pub use vm::{CallError, CallOutcome, HcallHandler, NoHcalls, Trap, Vm, VmConfig, Watchpoint};
