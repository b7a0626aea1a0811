//! The execution cache format: one 8-byte [`Entry`] per code word.
//!
//! An entry is a [`Kind`] byte plus the word's decoded `rd/rs1/rs2/imm`
//! fields. The kind is one of three things:
//!
//! * a **plain opcode** — the word executes on its own;
//! * [`Kind::Bad`] — the word does not decode, and reaching it traps;
//! * a **fused pair** (a superinstruction) — the word *and its successor*
//!   are a hot instruction pair from [`for_each_kind!`]'s table, and the
//!   dispatch loop may run both in one dispatch.
//!
//! Fusion is decided per address, with no block analysis, which keeps the
//! invariant local:
//!
//! * `entries[a]` is a pure function of `words[a]` and `words[a + 1]`, so
//!   patching word `p` re-derives exactly entries `p - 1` and `p`
//!   ([`rederive`]);
//! * an entry's fields always describe its own (head) word — a fused
//!   pair's tail operands are read from `entries[a + 1]`, whose fields
//!   describe the tail word — so a jump into a pair's second word lands on
//!   that word's own, fully valid entry.

use crate::isa::{DecodeError, Instr, Opcode, Reg};

/// Invokes `$m!` with the kind table: every plain opcode, then every fused
/// pair as `Name = Head + Tail`. The table is the single source of truth
/// for [`Kind`], [`Kind::head`], the fusion rule and the VM's dispatch
/// match, so the four cannot drift apart.
///
/// The pairs are the hot adjacent pairs of the `table5` campaign's
/// measured interval (share of executed instructions): `ld·ldi` 15.4 %,
/// `st·ld` 5.7 %, `ldi·add` 5.3 %, `ld·ld` 5.2 %, `add·ld` 4.8 %, `add·st`
/// 3.8 %, `cmplt·beqz` 3.6 %, `ldi·cmplt` 3.3 %, `st·jmp` 2.8 %, `ldi·cmpne`
/// and `cmpne·beqz` 2.7 % each, `ld·st` 2.6 % — plus the remaining
/// `ldi·{sub,mul,cmpeq,cmple}` and compare-and-branch pairs the compiler
/// emits for the other operators. No head is a control transfer, so a
/// fused head always falls through to its tail.
macro_rules! for_each_kind {
    ($m:ident) => {
        $m! {
            plain: Nop, Halt, Mov, Ldi, Add, Sub, Mul, Div, Mod, And, Or, Xor,
                Shl, Shr, Not, Addi, Muli, Cmpeq, Cmpne, Cmplt, Cmple, Ld, St,
                Jmp, Beqz, Bnez, Call, Ret, Push, Pop, Hcall;
            fused: LdLdi = Ld + Ldi, StLd = St + Ld, LdiAdd = Ldi + Add,
                LdLd = Ld + Ld, AddLd = Add + Ld, AddSt = Add + St,
                LdSt = Ld + St, StJmp = St + Jmp,
                LdiSub = Ldi + Sub, LdiMul = Ldi + Mul, LdiCmpeq = Ldi + Cmpeq,
                LdiCmpne = Ldi + Cmpne, LdiCmplt = Ldi + Cmplt,
                LdiCmple = Ldi + Cmple,
                CmpeqBeqz = Cmpeq + Beqz, CmpeqBnez = Cmpeq + Bnez,
                CmpneBeqz = Cmpne + Beqz, CmpneBnez = Cmpne + Bnez,
                CmpltBeqz = Cmplt + Beqz, CmpltBnez = Cmplt + Bnez,
                CmpleBeqz = Cmple + Beqz, CmpleBnez = Cmple + Bnez;
        }
    };
}
pub(crate) use for_each_kind;

macro_rules! define_kind {
    (plain: $($p:ident),*; fused: $($f:ident = $h:ident + $t:ident),*;) => {
        /// What the dispatch loop does at an address; see the module docs.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub(crate) enum Kind {
            $($p,)*
            /// An undecodable word.
            Bad,
            $($f,)*
        }

        // Tables, not matches, for every lookup below: patching re-derives
        // entries on every injection, and a jump per lookup mispredicts.
        // (`static`, not `const`: a `const` array indexed at run time is
        // copied onto the stack first.)
        impl Kind {
            /// The plain kind of a decoded word's opcode.
            fn plain(op: Opcode) -> Kind {
                static PLAIN: [Kind; 256] = {
                    let mut t = [Kind::Bad; 256];
                    $(t[Opcode::$p as usize] = Kind::$p;)*
                    t
                };
                PLAIN[op as usize]
            }

            /// The plain kind of the entry's own word: a fused kind's
            /// head; `Bad` stays `Bad`.
            fn base(self) -> Kind {
                static BASE: &[Kind] = &[$(Kind::$p,)* Kind::Bad, $(Kind::$h,)*];
                BASE[self as usize]
            }

            /// The kind of a word whose own kind is `self`, followed by a
            /// word of kind `next` (`Bad` for none): the fused pair if the
            /// table has one, otherwise the word's plain kind.
            fn followed_by(self, next: Kind) -> Kind {
                // Plain kinds come first and `Bad` right after them, so base
                // kinds index the table densely.
                const N: usize = Kind::Bad as usize + 1;
                static PAIRS: [[Kind; N]; N] = {
                    let base = [$(Kind::$p,)* Kind::Bad];
                    let mut t = [[Kind::Bad; N]; N];
                    let mut h = 0;
                    while h < N {
                        t[h] = [base[h]; N];
                        h += 1;
                    }
                    $(t[Kind::$h as usize][Kind::$t as usize] = Kind::$f;)*
                    t
                };
                PAIRS[self.base() as usize][next.base() as usize]
            }

            /// The opcode of the entry's own word (`None` for a bad word).
            pub(crate) fn head(self) -> Option<Opcode> {
                static HEADS: &[Option<Opcode>] =
                    &[$(Some(Opcode::$p),)* None, $(Some(Opcode::$h),)*];
                HEADS[self as usize]
            }
        }
    };
}
for_each_kind!(define_kind);

/// One execution-cache entry: the word's kind plus its own operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct Entry {
    pub(crate) kind: Kind,
    pub(crate) rd: Reg,
    pub(crate) rs1: Reg,
    pub(crate) rs2: Reg,
    pub(crate) imm: i32,
}

// The dispatch loop streams entries through the data cache; a wider entry
// measured slower under cache contention.
const _: () = assert!(std::mem::size_of::<Entry>() == 8);

impl Entry {
    /// The entry's own word as an instruction (`None` for a bad word).
    pub(crate) fn instr(self) -> Option<Instr> {
        self.kind.head().map(|op| Instr {
            op,
            rd: self.rd,
            rs1: self.rs1,
            rs2: self.rs2,
            imm: self.imm,
        })
    }
}

/// Derives every entry from `words`, decoding each word once — the cache's
/// ground truth.
pub(crate) fn build_all(words: &[u64]) -> Vec<Entry> {
    let mut decoded = words.iter().map(|&w| entry(Instr::decode(w))).peekable();
    let mut entries = Vec::with_capacity(words.len());
    while let Some(mut e) = decoded.next() {
        e.kind = e
            .kind
            .followed_by(decoded.peek().map_or(Kind::Bad, |n| n.kind));
        entries.push(e);
    }
    entries
}

/// Re-derives the two entries that read word `p` after it changed to
/// `word`: its own and its predecessor's, which may fuse with it. Decodes
/// only the changed word; the predecessor keeps its operands and only its
/// kind can change.
pub(crate) fn rederive(entries: &mut [Entry], p: usize, word: u64) {
    let next = entries.get(p + 1).map_or(Kind::Bad, |e| e.kind);
    let mut e = entry(Instr::decode(word));
    e.kind = e.kind.followed_by(next);
    entries[p] = e;
    if let Some(prev) = p.checked_sub(1) {
        entries[prev].kind = entries[prev].kind.followed_by(e.kind);
    }
}

/// The unfused entry for a decoded word.
fn entry(word: Result<Instr, DecodeError>) -> Entry {
    match word {
        Ok(i) => Entry {
            kind: Kind::plain(i.op),
            rd: i.rd,
            rs1: i.rs1,
            rs2: i.rs2,
            imm: i.imm,
        },
        Err(_) => Entry {
            kind: Kind::Bad,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm: 0,
        },
    }
}
