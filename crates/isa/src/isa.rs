//! The [`Isa`] frontend abstraction: everything the simulator stack needs
//! from an instruction set, expressed as a monomorphized trait.
//!
//! SMARTS's sampling theory is ISA-agnostic: systematic selection,
//! functional warming, and checkpoint replay consume only the committed
//! instruction stream. This module captures the contract between a
//! frontend and the rest of the stack:
//!
//! * an architectural CPU ([`Isa::Cpu`]) that can be stepped, snapshotted
//!   as fixed-width words, and restored bit-exactly;
//! * a program representation ([`Isa::Program`]) addressed by an
//!   *instruction index* program counter;
//! * a binary encoding ([`Isa::Instr`], [`Isa::decode`]/[`Isa::encode`]) —
//!   optional per instruction, since not every frontend has one;
//! * the memory touches each committed instruction implies for functional
//!   warming ([`Isa::mem_touches`]).
//!
//! Every frontend lowers its committed instructions to the shared
//! [`ExecRecord`] vocabulary (the built-in [`Inst`]/[`OpClass`]
//! (crate::OpClass) operation set). That choice keeps the warming
//! structures, the out-of-order timing model, and the checkpoint page
//! codec completely frontend-independent: a `WarmState` or `Pipeline`
//! never learns which ISA produced its records, so the built-in frontend's
//! behaviour — and its golden fingerprints — cannot change when new
//! frontends are added.
//!
//! All methods are associated functions over `Self::Cpu`, so generic code
//! monomorphizes per frontend with no dynamic dispatch anywhere on the
//! step loop.

use crate::{Cpu, ExecRecord, Inst, IsaError, MemAccess, Memory, Program, TEXT_BASE};
use std::fmt;

/// Identifies a frontend in store headers, fingerprints, job specs, and
/// diagnostics.
///
/// The numeric tags are part of the checkpoint-store format (version ≥ 3
/// headers carry one); they must never be reordered or reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IsaId {
    /// The built-in RISC-like set interpreted from decoded [`Inst`]s.
    Builtin,
    /// The compact fixed-32-bit-encoding RISC set ([`crate::RiscIsa`]).
    Risc,
    /// The instruction-trace import frontend ([`crate::TraceIsa`]).
    Trace,
}

impl IsaId {
    /// Stable on-disk tag.
    pub fn tag(self) -> u8 {
        match self {
            IsaId::Builtin => 0,
            IsaId::Risc => 1,
            IsaId::Trace => 2,
        }
    }

    /// Inverse of [`IsaId::tag`].
    pub fn from_tag(tag: u8) -> Option<IsaId> {
        match tag {
            0 => Some(IsaId::Builtin),
            1 => Some(IsaId::Risc),
            2 => Some(IsaId::Trace),
            _ => None,
        }
    }

    /// Canonical lower-case name, as accepted by `--isa` and job specs.
    pub fn name(self) -> &'static str {
        match self {
            IsaId::Builtin => "builtin",
            IsaId::Risc => "risc",
            IsaId::Trace => "trace",
        }
    }

    /// Inverse of [`IsaId::name`].
    pub fn from_name(name: &str) -> Option<IsaId> {
        match name {
            "builtin" => Some(IsaId::Builtin),
            "risc" => Some(IsaId::Risc),
            "trace" => Some(IsaId::Trace),
            _ => None,
        }
    }
}

impl fmt::Display for IsaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Iterator over the memory touches one committed instruction implies:
/// the instruction fetch first, then the data access if any.
///
/// Produced by [`Isa::mem_touches`]; consumed by warming code that wants
/// the frontend-defined touch stream rather than the raw record.
#[derive(Debug, Clone)]
pub struct MemTouches {
    fetch: Option<MemAccess>,
    data: Option<MemAccess>,
}

impl Iterator for MemTouches {
    type Item = MemAccess;

    fn next(&mut self) -> Option<MemAccess> {
        self.fetch.take().or_else(|| self.data.take())
    }
}

/// An instruction-set frontend.
///
/// # Contract
///
/// The engine and checkpoint layers may assume:
///
/// * **Index program counter.** `pc` is an index into the program's text,
///   not a byte address; instruction `i` occupies the
///   [`Isa::INST_BYTES`] bytes at `TEXT_BASE + i · INST_BYTES`, which is
///   what the I-cache and I-TLB warm on.
/// * **Shared record vocabulary.** [`Isa::step`] returns [`ExecRecord`]s
///   over the built-in [`Inst`] operation set; `retired` increments by
///   exactly one per record, and a `Halt`-class record pins the CPU
///   halted with `next_pc == pc`.
/// * **Bit-exact state words.** [`Isa::save_state`] appends exactly
///   [`Isa::STATE_WORDS`] words and [`Isa::load_state`] restores them so
///   that stepping the restored CPU replays the identical record stream —
///   the property checkpoint stores are built on. Floating-point state
///   must round-trip as bit patterns (NaN-safe).
/// * **Deterministic memory.** All data state lives in the shared paged
///   [`Memory`]; page size and the page-index hasher are properties of
///   [`Memory`], not of the frontend.
///
/// Changing any observable behaviour of a frontend (decode, interpreter
/// semantics, state layout) invalidates stores written under its
/// [`Isa::ID`]; bump the store fingerprint seed rules in `smarts-ckpt`
/// when doing so intentionally.
pub trait Isa: Sized + Send + Sync + 'static {
    /// Machine word of the architectural state (always `u64` today; kept
    /// associated so the contract is explicit).
    type Word: Copy + Send + Sync + 'static;
    /// Binary instruction encoding unit (`u32` for fixed-width sets; the
    /// built-in set has no binary encoding and uses [`Inst`] itself).
    type Instr: Copy + Send + Sync + 'static;
    /// Architectural CPU state.
    type Cpu: Clone + PartialEq + fmt::Debug + Send + Sync + 'static;
    /// Program representation addressed by instruction index.
    type Program: Clone + fmt::Debug + Send + Sync + 'static;

    /// Canonical lower-case frontend name.
    const NAME: &'static str;
    /// Store/fingerprint identifier.
    const ID: IsaId;
    /// Bytes one instruction occupies in the text section; the I-side
    /// warming granularity (`fetch_addr = TEXT_BASE + pc · INST_BYTES`).
    const INST_BYTES: u64;
    /// Number of words [`Isa::save_state`] appends.
    const STATE_WORDS: usize;

    /// A reset CPU at instruction index 0.
    fn new_cpu() -> Self::Cpu;
    /// Current program counter (instruction index).
    fn pc(cpu: &Self::Cpu) -> u64;
    /// Whether the CPU has executed a halt.
    fn halted(cpu: &Self::Cpu) -> bool;
    /// Instructions retired so far.
    fn retired(cpu: &Self::Cpu) -> u64;
    /// Number of static instructions in `program`.
    fn program_len(program: &Self::Program) -> u64;

    /// Appends exactly [`Isa::STATE_WORDS`] words of architectural state.
    fn save_state(cpu: &Self::Cpu, out: &mut Vec<u64>);
    /// Restores state written by [`Isa::save_state`], returning the number
    /// of words consumed, or `None` if `words` is too short.
    fn load_state(cpu: &mut Self::Cpu, words: &[u64]) -> Option<usize>;

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// [`IsaError::Halted`] if the CPU already halted, or a
    /// frontend-specific decode/fetch error.
    fn step(
        cpu: &mut Self::Cpu,
        program: &Self::Program,
        mem: &mut Memory,
    ) -> Result<ExecRecord, IsaError>;

    /// Runs at most `max_insts` instructions, feeding each committed
    /// record to `sink` and stopping early on halt. Returns the number of
    /// instructions executed.
    ///
    /// This is the fast-forward/warming hot loop; implementations keep the
    /// halted flag as the loop condition and inline their interpreter into
    /// the loop body.
    ///
    /// # Errors
    ///
    /// Propagates [`Isa::step`] errors other than reaching the budget.
    fn step_block(
        cpu: &mut Self::Cpu,
        program: &Self::Program,
        mem: &mut Memory,
        max_insts: u64,
        sink: impl FnMut(&ExecRecord),
    ) -> Result<u64, IsaError>;

    /// Decodes one binary instruction to the shared [`Inst`] vocabulary,
    /// or `None` if the encoding is invalid.
    fn decode(raw: Self::Instr) -> Option<Inst>;

    /// Encodes an [`Inst`] into this set's binary form, or `None` when the
    /// instruction is not representable (out-of-range immediate, opcode
    /// outside the set).
    fn encode(inst: &Inst) -> Option<Self::Instr>;

    /// The memory touches `rec` implies for functional warming: the
    /// instruction fetch (at `TEXT_BASE + pc · INST_BYTES`, of
    /// [`Isa::INST_BYTES`] bytes) followed by the data access if any.
    ///
    /// `WarmState::warm_record` consumes records directly on the hot path,
    /// but its I-side/D-side update pattern is — by contract — exactly
    /// this touch stream; tests assert the equivalence.
    fn mem_touches(rec: &ExecRecord) -> MemTouches {
        MemTouches {
            fetch: Some(MemAccess {
                addr: TEXT_BASE + rec.pc * Self::INST_BYTES,
                size: Self::INST_BYTES as u8,
                is_store: false,
            }),
            data: rec.mem,
        }
    }
}

/// The built-in frontend: the original decoded-[`Inst`] interpreter.
///
/// It has no binary encoding — programs are vectors of already-decoded
/// instructions produced by the [`Asm`](crate::Asm) builder — so
/// [`Isa::Instr`] is [`Inst`] itself and decode/encode are identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuiltinIsa;

impl Isa for BuiltinIsa {
    type Word = u64;
    type Instr = Inst;
    type Cpu = Cpu;
    type Program = Program;

    const NAME: &'static str = "builtin";
    const ID: IsaId = IsaId::Builtin;
    const INST_BYTES: u64 = Program::INST_BYTES;
    const STATE_WORDS: usize = Cpu::STATE_WORDS;

    #[inline]
    fn new_cpu() -> Cpu {
        Cpu::new()
    }

    #[inline]
    fn pc(cpu: &Cpu) -> u64 {
        cpu.pc()
    }

    #[inline]
    fn halted(cpu: &Cpu) -> bool {
        cpu.halted()
    }

    #[inline]
    fn retired(cpu: &Cpu) -> u64 {
        cpu.retired()
    }

    #[inline]
    fn program_len(program: &Program) -> u64 {
        program.len()
    }

    #[inline]
    fn save_state(cpu: &Cpu, out: &mut Vec<u64>) {
        cpu.save_state(out)
    }

    #[inline]
    fn load_state(cpu: &mut Cpu, words: &[u64]) -> Option<usize> {
        cpu.load_state(words)
    }

    #[inline]
    fn step(cpu: &mut Cpu, program: &Program, mem: &mut Memory) -> Result<ExecRecord, IsaError> {
        cpu.step(program, mem)
    }

    #[inline]
    fn step_block(
        cpu: &mut Cpu,
        program: &Program,
        mem: &mut Memory,
        max_insts: u64,
        sink: impl FnMut(&ExecRecord),
    ) -> Result<u64, IsaError> {
        cpu.step_block(program, mem, max_insts, sink)
    }

    #[inline]
    fn decode(raw: Inst) -> Option<Inst> {
        Some(raw)
    }

    #[inline]
    fn encode(inst: &Inst) -> Option<Inst> {
        Some(*inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reg, Asm, OpClass, Opcode};

    #[test]
    fn isa_id_tags_round_trip() {
        for id in [IsaId::Builtin, IsaId::Risc, IsaId::Trace] {
            assert_eq!(IsaId::from_tag(id.tag()), Some(id));
            assert_eq!(IsaId::from_name(id.name()), Some(id));
        }
        assert_eq!(IsaId::from_tag(200), None);
        assert_eq!(IsaId::from_name("mips"), None);
        assert_eq!(IsaId::Builtin.to_string(), "builtin");
    }

    #[test]
    fn builtin_isa_matches_direct_cpu() {
        let mut a = Asm::new();
        a.li(reg::T0, 5);
        let l = a.label();
        a.bind(l).unwrap();
        a.addi(reg::T0, reg::T0, -1);
        a.bne(reg::T0, reg::ZERO, l);
        a.halt();
        let program = a.finish().unwrap();

        let mut direct = Cpu::new();
        let mut direct_mem = Memory::new();
        let mut traited = BuiltinIsa::new_cpu();
        let mut traited_mem = Memory::new();
        loop {
            if direct.halted() {
                break;
            }
            let want = direct.step(&program, &mut direct_mem).unwrap();
            let got = BuiltinIsa::step(&mut traited, &program, &mut traited_mem).unwrap();
            assert_eq!(want, got);
        }
        assert!(BuiltinIsa::halted(&traited));
        assert_eq!(BuiltinIsa::retired(&traited), direct.retired());
        assert_eq!(BuiltinIsa::pc(&traited), direct.pc());

        let mut a_words = Vec::new();
        let mut b_words = Vec::new();
        direct.save_state(&mut a_words);
        BuiltinIsa::save_state(&traited, &mut b_words);
        assert_eq!(a_words, b_words);
        assert_eq!(a_words.len(), BuiltinIsa::STATE_WORDS);
    }

    #[test]
    fn default_mem_touches_are_fetch_then_data() {
        let rec = ExecRecord::new(
            7,
            Inst::new(Opcode::Ld, reg::T0, reg::S0, 0, 16),
            Some(MemAccess {
                addr: 0x2000,
                size: 8,
                is_store: false,
            }),
            false,
            8,
        );
        let touches: Vec<MemAccess> = BuiltinIsa::mem_touches(&rec).collect();
        assert_eq!(touches.len(), 2);
        assert_eq!(touches[0].addr, rec.fetch_addr());
        assert_eq!(touches[0].size as u64, BuiltinIsa::INST_BYTES);
        assert!(!touches[0].is_store);
        assert_eq!(touches[1].addr, 0x2000);
        assert_eq!(rec.class(), OpClass::Load);

        let alu = ExecRecord::new(3, Inst::new(Opcode::Add, 1, 2, 3, 0), None, false, 4);
        assert_eq!(BuiltinIsa::mem_touches(&alu).count(), 1);
    }
}
