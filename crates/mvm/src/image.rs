//! Linked code images: encoded instruction words plus a symbol table.
//!
//! A [`CodeImage`] is what the MiniC linker produces, what the VM executes,
//! what the G-SWFIT scanner reads, and what the injector patches. Patching
//! goes through [`CodeImage::apply`] / [`CodeImage::revert`] with an explicit
//! undo log ([`PatchSet`]) so an injection experiment can always restore the
//! pristine image — the paper's step 2 ("actual fault injection is a very
//! simple and low intrusive task").

use std::collections::BTreeMap;
use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::entry::{self, Entry};
use crate::isa::{DecodeError, Instr};

/// Metadata for one linked function.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuncInfo {
    /// Symbol name.
    pub name: String,
    /// Address (instruction index) of the first instruction.
    pub entry: u32,
    /// One past the last instruction of the function.
    pub end: u32,
}

impl FuncInfo {
    /// Number of instructions in the function body.
    pub fn len(&self) -> u32 {
        self.end - self.entry
    }

    /// True for degenerate zero-length functions.
    pub fn is_empty(&self) -> bool {
        self.entry == self.end
    }

    /// True if `addr` lies inside this function.
    pub fn contains(&self, addr: u32) -> bool {
        (self.entry..self.end).contains(&addr)
    }
}

/// One word overwrite: `words[addr] = new`, remembering `old` for undo.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Patch {
    /// Instruction address to overwrite.
    pub addr: u32,
    /// Replacement encoded instruction word.
    pub new_word: u64,
}

/// The undo log returned by [`CodeImage::apply`].
///
/// Holds the original words so the exact pre-injection image can be restored.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatchSet {
    entries: Vec<(u32, u64)>, // (addr, original word)
}

impl PatchSet {
    /// Addresses and original words, in application order.
    pub fn entries(&self) -> &[(u32, u64)] {
        &self.entries
    }

    /// Number of patched words.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was patched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Errors raised by image construction and patching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImageError {
    /// A patch or lookup referenced an address outside the image.
    AddressOutOfRange(u32),
    /// A symbol was defined twice at link time.
    DuplicateSymbol(String),
    /// A requested symbol does not exist.
    UnknownSymbol(String),
    /// An instruction word failed to decode.
    Decode(u32, DecodeError),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::AddressOutOfRange(a) => write!(f, "address {a} out of image range"),
            ImageError::DuplicateSymbol(s) => write!(f, "duplicate symbol `{s}`"),
            ImageError::UnknownSymbol(s) => write!(f, "unknown symbol `{s}`"),
            ImageError::Decode(a, e) => write!(f, "word at {a} does not decode: {e}"),
        }
    }
}

impl std::error::Error for ImageError {}

/// An executable image: encoded words plus function symbols.
///
/// Every image carries a pre-decoded execution cache, one 8-byte entry per
/// word (see the `entry` module): decoding and pair fusion happen once at
/// link/patch/deserialize time, and the VM executes straight from the cache
/// instead of re-decoding a word on every step. An entry depends only on
/// its own word and the next one, so [`CodeImage::apply`] and
/// [`CodeImage::revert`] re-derive exactly entries `p - 1` and `p` for a
/// patched word `p` — the paper's step 2 ("cheap mutation of a
/// pre-computed location") maps onto re-deriving a handful of entries.
///
/// The cache is derived state: equality, serialization and the
/// [`fingerprint`](CodeImage::fingerprint) all ignore it, so serialized
/// artifacts are byte-identical to the pre-cache format.
#[derive(Clone, Debug)]
pub struct CodeImage {
    name: String,
    words: Vec<u64>,
    funcs: Vec<FuncInfo>,
    by_name: BTreeMap<String, usize>,
    /// Invariant: `entries == entry::build_all(&words)` at all times.
    entries: Vec<Entry>,
}

impl PartialEq for CodeImage {
    fn eq(&self, other: &CodeImage) -> bool {
        // The entry cache is derived from `words`; comparing it would be
        // redundant (and would make a cache bug change equality semantics).
        self.name == other.name
            && self.words == other.words
            && self.funcs == other.funcs
            && self.by_name == other.by_name
    }
}

impl Eq for CodeImage {}

impl Serialize for CodeImage {
    fn to_value(&self) -> Value {
        // Field-for-field what the derive produced before the entry cache
        // existed — serialized images must stay byte-identical.
        Value::Object(vec![
            ("name".to_string(), self.name.to_value()),
            ("words".to_string(), self.words.to_value()),
            ("funcs".to_string(), self.funcs.to_value()),
            ("by_name".to_string(), self.by_name.to_value()),
        ])
    }
}

impl Deserialize for CodeImage {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| DeError::msg(format!("missing field `{k}` in CodeImage")))
        };
        let words = Vec::<u64>::from_value(field("words")?)?;
        let entries = entry::build_all(&words);
        Ok(CodeImage {
            name: String::from_value(field("name")?)?,
            funcs: Vec::<FuncInfo>::from_value(field("funcs")?)?,
            by_name: BTreeMap::<String, usize>::from_value(field("by_name")?)?,
            words,
            entries,
        })
    }
}

impl CodeImage {
    /// Builds an image from decoded instructions and function extents.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::DuplicateSymbol`] on repeated function names and
    /// [`ImageError::AddressOutOfRange`] if a function extent exceeds the
    /// code.
    pub fn link(
        name: impl Into<String>,
        instrs: &[Instr],
        funcs: Vec<FuncInfo>,
    ) -> Result<CodeImage, ImageError> {
        let words: Vec<u64> = instrs.iter().map(|i| i.encode()).collect();
        let mut by_name = BTreeMap::new();
        for (idx, func) in funcs.iter().enumerate() {
            if func.end as usize > words.len() || func.entry > func.end {
                return Err(ImageError::AddressOutOfRange(func.end));
            }
            if by_name.insert(func.name.clone(), idx).is_some() {
                return Err(ImageError::DuplicateSymbol(func.name.clone()));
            }
        }
        let entries = entry::build_all(&words);
        Ok(CodeImage {
            name: name.into(),
            words,
            funcs,
            by_name,
            entries,
        })
    }

    /// Image name (e.g. the OS edition that produced it).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Raw encoded words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// FNV-1a fingerprint of the code words — lets faultload artifacts
    /// detect that they were generated from a different build of the target.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in &self.words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the image holds no code.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// All linked functions.
    pub fn funcs(&self) -> &[FuncInfo] {
        &self.funcs
    }

    /// Looks up a function by name.
    pub fn func(&self, name: &str) -> Option<&FuncInfo> {
        self.by_name.get(name).map(|&i| &self.funcs[i])
    }

    /// Looks up a function by name, erroring when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::UnknownSymbol`] when the function is not linked.
    pub fn require_func(&self, name: &str) -> Result<&FuncInfo, ImageError> {
        self.func(name)
            .ok_or_else(|| ImageError::UnknownSymbol(name.to_string()))
    }

    /// The function containing address `addr`, if any.
    pub fn func_at(&self, addr: u32) -> Option<&FuncInfo> {
        self.funcs.iter().find(|f| f.contains(addr))
    }

    /// The instruction at `addr`, served from the pre-decoded cache — the
    /// same entry the executor dispatches on, so disassembly and scans can
    /// never disagree with what actually ran after a patch.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::AddressOutOfRange`] or a decode failure (which
    /// can only happen on a corrupted/patched image).
    pub fn instr_at(&self, addr: u32) -> Result<Instr, ImageError> {
        let e = self
            .entries
            .get(addr as usize)
            .ok_or(ImageError::AddressOutOfRange(addr))?;
        e.instr().ok_or_else(|| {
            let err = Instr::decode(self.words[addr as usize])
                .expect_err("a bad-word entry caches an undecodable word");
            ImageError::Decode(addr, err)
        })
    }

    /// The execution cache, indexed by address — the VM's dispatch table.
    pub(crate) fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Overwrites word `p` and re-derives the entries that read it.
    fn set_word(&mut self, p: usize, word: u64) {
        self.words[p] = word;
        entry::rederive(&mut self.entries, p, word);
    }

    /// Decodes an address range (used by scanners). Fails on the first
    /// undecodable word.
    ///
    /// # Errors
    ///
    /// Same as [`CodeImage::instr_at`].
    pub fn decode_range(&self, start: u32, end: u32) -> Result<Vec<Instr>, ImageError> {
        (start..end).map(|a| self.instr_at(a)).collect()
    }

    /// Applies `patches`, returning the undo log.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::AddressOutOfRange`] if any patch falls outside
    /// the image; in that case no patch is applied.
    pub fn apply(&mut self, patches: &[Patch]) -> Result<PatchSet, ImageError> {
        if let Some(p) = patches.iter().find(|p| p.addr as usize >= self.words.len()) {
            return Err(ImageError::AddressOutOfRange(p.addr));
        }
        let mut entries = Vec::with_capacity(patches.len());
        for p in patches {
            entries.push((p.addr, self.words[p.addr as usize]));
            self.set_word(p.addr as usize, p.new_word);
        }
        Ok(PatchSet { entries })
    }

    /// Restores the words recorded in `undo` (reverse order, so overlapping
    /// patch sets unwind correctly), re-deriving exactly the cache entries
    /// that read a restored word.
    pub fn revert(&mut self, undo: &PatchSet) {
        for &(addr, old) in undo.entries.iter().rev() {
            self.set_word(addr as usize, old);
        }
    }

    /// Disassembles the whole image, one instruction per line, with function
    /// headers — a debugging aid.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for f in &self.funcs {
            out.push_str(&format!("; --- {} @ {}..{}\n", f.name, f.entry, f.end));
            for a in f.entry..f.end {
                match self.instr_at(a) {
                    Ok(i) => out.push_str(&format!("{a:6}: {i}\n")),
                    Err(_) => out.push_str(&format!("{a:6}: <bad word {:#018x}>\n", {
                        self.words[a as usize]
                    })),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Opcode, Reg};
    use proptest::prelude::*;

    /// Asserts the cache invariant: every entry matches a fresh build.
    fn assert_cache_coherent(img: &CodeImage) {
        assert_eq!(
            img.entries,
            entry::build_all(img.words()),
            "entry cache diverged from a fresh build from the words"
        );
    }

    fn toy_image() -> CodeImage {
        let instrs = vec![
            Instr::ldi(Reg::RV, 1),
            Instr::ret(),
            Instr::alu3(Opcode::Add, Reg::RV, Reg::A0, Reg::A0),
            Instr::ret(),
        ];
        CodeImage::link(
            "toy",
            &instrs,
            vec![
                FuncInfo {
                    name: "one".into(),
                    entry: 0,
                    end: 2,
                },
                FuncInfo {
                    name: "double".into(),
                    entry: 2,
                    end: 4,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn link_and_lookup() {
        let img = toy_image();
        assert_eq!(img.len(), 4);
        assert_eq!(img.func("one").unwrap().entry, 0);
        assert_eq!(img.func("double").unwrap().len(), 2);
        assert!(img.func("missing").is_none());
        assert!(img.require_func("missing").is_err());
        assert_eq!(img.func_at(3).unwrap().name, "double");
        assert!(img.func_at(99).is_none());
    }

    #[test]
    fn duplicate_symbols_rejected() {
        let e = CodeImage::link(
            "dup",
            &[Instr::ret(), Instr::ret()],
            vec![
                FuncInfo {
                    name: "f".into(),
                    entry: 0,
                    end: 1,
                },
                FuncInfo {
                    name: "f".into(),
                    entry: 1,
                    end: 2,
                },
            ],
        );
        assert_eq!(e.unwrap_err(), ImageError::DuplicateSymbol("f".into()));
    }

    #[test]
    fn extent_out_of_range_rejected() {
        let e = CodeImage::link(
            "bad",
            &[Instr::ret()],
            vec![FuncInfo {
                name: "f".into(),
                entry: 0,
                end: 5,
            }],
        );
        assert_eq!(e.unwrap_err(), ImageError::AddressOutOfRange(5));
    }

    #[test]
    fn fingerprint_tracks_content() {
        let img = toy_image();
        let fp = img.fingerprint();
        let mut patched = img.clone();
        patched
            .apply(&[Patch {
                addr: 0,
                new_word: Instr::nop().encode(),
            }])
            .unwrap();
        assert_ne!(patched.fingerprint(), fp);
        assert_eq!(toy_image().fingerprint(), fp, "deterministic");
    }

    #[test]
    fn apply_and_revert_restore_exact_image() {
        let mut img = toy_image();
        let before = img.words().to_vec();
        let undo = img
            .apply(&[
                Patch {
                    addr: 0,
                    new_word: Instr::nop().encode(),
                },
                Patch {
                    addr: 2,
                    new_word: Instr::nop().encode(),
                },
            ])
            .unwrap();
        assert_eq!(undo.len(), 2);
        assert_eq!(img.instr_at(0).unwrap(), Instr::nop());
        assert_ne!(img.words(), &before[..]);
        assert_cache_coherent(&img);
        img.revert(&undo);
        assert_eq!(img.words(), &before[..]);
        assert_cache_coherent(&img);
        assert_eq!(img, toy_image(), "revert restores full equality");
    }

    #[test]
    fn patching_in_an_undecodable_word_is_surfaced_by_the_cache() {
        let mut img = toy_image();
        let undo = img
            .apply(&[Patch {
                addr: 1,
                new_word: 0xFF << 56, // no such opcode
            }])
            .unwrap();
        assert!(matches!(
            img.instr_at(1),
            Err(ImageError::Decode(1, DecodeError::BadOpcode(0xFF)))
        ));
        assert_cache_coherent(&img);
        // Disassembly flags the bad word instead of showing stale code.
        assert!(img.disassemble().contains("<bad word"));
        img.revert(&undo);
        assert_eq!(img.instr_at(1).unwrap(), Instr::ret());
        assert_cache_coherent(&img);
    }

    #[test]
    fn serde_roundtrip_rebuilds_the_cache() {
        let mut img = toy_image();
        img.apply(&[Patch {
            addr: 0,
            new_word: 0xFF << 56,
        }])
        .unwrap();
        let back = CodeImage::from_value(&img.to_value()).unwrap();
        assert_eq!(back, img);
        assert_cache_coherent(&back);
        assert!(matches!(back.instr_at(0), Err(ImageError::Decode(0, _))));
    }

    #[test]
    fn serde_missing_field_is_an_error() {
        let v = Value::Object(vec![("name".to_string(), "x".to_value())]);
        assert!(CodeImage::from_value(&v).is_err());
    }

    #[test]
    fn overlapping_patch_sets_unwind_in_reverse() {
        let mut img = toy_image();
        let before = img.words().to_vec();
        let u1 = img
            .apply(&[Patch {
                addr: 1,
                new_word: Instr::nop().encode(),
            }])
            .unwrap();
        let u2 = img
            .apply(&[Patch {
                addr: 1,
                new_word: Instr::halt().encode(),
            }])
            .unwrap();
        img.revert(&u2);
        assert_eq!(img.instr_at(1).unwrap(), Instr::nop());
        img.revert(&u1);
        assert_eq!(img.words(), &before[..]);
    }

    #[test]
    fn out_of_range_patch_is_atomic_noop() {
        let mut img = toy_image();
        let before = img.words().to_vec();
        let err = img.apply(&[
            Patch {
                addr: 0,
                new_word: Instr::nop().encode(),
            },
            Patch {
                addr: 1000,
                new_word: 0,
            },
        ]);
        assert_eq!(err.unwrap_err(), ImageError::AddressOutOfRange(1000));
        assert_eq!(img.words(), &before[..]);
    }

    #[test]
    fn decode_range_and_disassemble() {
        let img = toy_image();
        let body = img.decode_range(0, 2).unwrap();
        assert_eq!(body[0], Instr::ldi(Reg::RV, 1));
        let dis = img.disassemble();
        assert!(dis.contains("--- one"));
        assert!(dis.contains("ldi r1, 1"));
    }

    #[test]
    fn instr_at_out_of_range() {
        let img = toy_image();
        assert_eq!(
            img.instr_at(100).unwrap_err(),
            ImageError::AddressOutOfRange(100)
        );
    }

    /// A word that is either arbitrary (almost always undecodable) or a
    /// valid instruction whose opcode takes part in fused pairs, so patches
    /// both create and break superinstructions.
    fn arb_word() -> impl Strategy<Value = u64> {
        let r = || (0u8..32).prop_map(|i| Reg::new(i).unwrap());
        prop_oneof![
            any::<u64>(),
            (r(), r(), -8i32..8).prop_map(|(d, b, o)| Instr::ld(d, b, o).encode()),
            (r(), r(), -8i32..8).prop_map(|(b, s, o)| Instr::store(b, o, s).encode()),
            (r(), -8i32..8).prop_map(|(d, i)| Instr::ldi(d, i).encode()),
            (r(), r(), r()).prop_map(|(d, a, b)| Instr::alu3(Opcode::Add, d, a, b).encode()),
            (r(), r(), r()).prop_map(|(d, a, b)| Instr::alu3(Opcode::Cmplt, d, a, b).encode()),
            (r(), 0u32..8).prop_map(|(c, t)| Instr::beqz(c, t).encode()),
            (0u32..8).prop_map(|t| Instr::jmp(t).encode()),
            Just(Instr::ret().encode()),
        ]
    }

    /// A batch of in-range patches mixing valid instructions with
    /// undecodable garbage.
    fn arb_patch_batch(image_len: u32) -> impl Strategy<Value = Vec<Patch>> {
        proptest::collection::vec(
            (0..image_len, arb_word()).prop_map(|(addr, new_word)| Patch { addr, new_word }),
            1..5,
        )
    }

    /// Eight words holding the fused pairs ld·ldi, ldi·add, add·st, st·jmp
    /// and cmplt·beqz.
    fn pairs_image() -> CodeImage {
        let instrs = vec![
            Instr::ld(Reg::T0, Reg::A0, 0),
            Instr::ldi(Reg::RV, 1),
            Instr::alu3(Opcode::Add, Reg::RV, Reg::RV, Reg::T0),
            Instr::store(Reg::A0, 1, Reg::RV),
            Instr::jmp(5),
            Instr::alu3(Opcode::Cmplt, Reg::T0, Reg::RV, Reg::A0),
            Instr::beqz(Reg::T0, 7),
            Instr::ret(),
        ];
        let funcs = vec![FuncInfo {
            name: "f".into(),
            entry: 0,
            end: 8,
        }];
        CodeImage::link("pairs", &instrs, funcs).unwrap()
    }

    /// The cache equals a fresh build, and every address serves the same
    /// instruction (or decode failure) a fresh decode of its word gives.
    fn coherent(img: &CodeImage) -> Result<(), TestCaseError> {
        prop_assert_eq!(&img.entries, &entry::build_all(img.words()));
        for (a, &w) in img.words().iter().enumerate() {
            let fresh = Instr::decode(w).map_err(|e| ImageError::Decode(a as u32, e));
            prop_assert_eq!(img.instr_at(a as u32), fresh);
        }
        Ok(())
    }

    #[test]
    fn pairs_image_fuses_its_hot_pairs() {
        use crate::entry::Kind;
        let kinds: Vec<Kind> = pairs_image().entries.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                Kind::LdLdi,
                Kind::LdiAdd,
                Kind::AddSt,
                Kind::StJmp,
                Kind::Jmp,
                Kind::CmpltBeqz,
                Kind::Beqz,
                Kind::Ret
            ]
        );
    }

    proptest! {
        /// Any sequence of `PatchSet` apply/undo operations leaves the
        /// execution cache identical to a fresh build from the words — at
        /// every intermediate step, not just after full unwind — whether a
        /// patch creates a fused pair, breaks one, or corrupts a word.
        #[test]
        fn prop_patch_stack_keeps_cache_coherent(
            batches in proptest::collection::vec(arb_patch_batch(8), 1..6),
        ) {
            let mut img = pairs_image();
            let pristine = img.clone();
            let mut undos = Vec::new();
            for batch in &batches {
                undos.push(img.apply(batch).unwrap());
                coherent(&img)?;
            }
            while let Some(undo) = undos.pop() {
                img.revert(&undo);
                coherent(&img)?;
            }
            prop_assert_eq!(&img.entries, &pristine.entries);
            prop_assert_eq!(img, pristine);
        }
    }
}
