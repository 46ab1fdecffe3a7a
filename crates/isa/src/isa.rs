//! The [`Isa`] frontend abstraction: everything the simulator stack needs
//! from an instruction set, expressed as a monomorphized trait.
//!
//! SMARTS's sampling theory is ISA-agnostic: systematic selection,
//! functional warming, and checkpoint replay consume only the committed
//! instruction stream. This module captures the contract between a
//! frontend and the rest of the stack — the ten items generic code
//! calls:
//!
//! * an architectural CPU ([`Isa::Cpu`]) that can be stepped, snapshotted
//!   as fixed-width words, and restored bit-exactly;
//! * a program representation ([`Isa::Program`]) addressed by an
//!   *instruction index* program counter;
//! * the frontend's identity ([`Isa::ID`]) in store headers and
//!   fingerprints.
//!
//! A binary encoding ([`RiscIsa::decode`](crate::RiscIsa::decode)), a
//! program length or a state-word count is a frontend's own inherent
//! item: no generic code calls it.
//!
//! Every frontend lowers its committed instructions to the shared
//! [`ExecRecord`] vocabulary (the built-in [`Inst`](crate::Inst)/
//! [`OpClass`](crate::OpClass) operation set). That choice keeps the
//! warming structures, the out-of-order timing model, and the checkpoint
//! page codec completely frontend-independent: a `WarmState` or
//! `Pipeline` never learns which ISA produced its records, so the
//! built-in frontend's behaviour — and its golden fingerprints — cannot
//! change when new frontends are added.
//!
//! All methods are associated functions over `Self::Cpu`, so generic code
//! monomorphizes per frontend with no dynamic dispatch anywhere on the
//! step loop.

use crate::{Cpu, ExecRecord, IsaError, Memory, Program};
use std::fmt;

/// Identifies a frontend in store headers, fingerprints, job specs, and
/// diagnostics.
///
/// The numeric tags are part of the checkpoint-store format (version ≥ 3
/// headers carry one); they must never be reordered or reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IsaId {
    /// The built-in RISC-like set interpreted from decoded [`Inst`](crate::Inst)s.
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

/// An instruction-set frontend.
///
/// # Contract
///
/// The engine and checkpoint layers may assume:
///
/// * **Index program counter.** A program counter is an index into the
///   program's text, not a byte address; every frontend's instruction
///   `i` sits at [`Program::fetch_addr`]`(i)`, which is what the I-cache
///   and I-TLB warm on (warming reads it off each record as
///   [`ExecRecord::fetch_addr`]).
/// * **Shared record vocabulary.** [`Isa::step`] returns [`ExecRecord`]s
///   over the built-in [`Inst`](crate::Inst) operation set; `retired`
///   increments by exactly one per record, and a `Halt`-class record pins
///   the CPU halted with `next_pc == pc`.
/// * **Bit-exact state words.** [`Isa::save_state`] appends a fixed
///   number of words and [`Isa::load_state`] restores them so that
///   stepping the restored CPU replays the identical record stream — the
///   property checkpoint stores are built on. Floating-point state must
///   round-trip as bit patterns (NaN-safe).
/// * **Deterministic memory.** All data state lives in the shared paged
///   [`Memory`]; page size and the page-index hasher are properties of
///   [`Memory`], not of the frontend.
///
/// Changing any observable behaviour of a frontend (decode, interpreter
/// semantics, state layout) invalidates stores written under its
/// [`Isa::ID`]; bump the store fingerprint seed rules in `smarts-ckpt`
/// when doing so intentionally.
pub trait Isa: Sized + Send + Sync + 'static {
    /// Architectural CPU state.
    type Cpu: Clone + PartialEq + fmt::Debug + Send + Sync + 'static;
    /// Program representation addressed by instruction index.
    type Program: Clone + fmt::Debug + Send + Sync + 'static;

    /// Store/fingerprint identifier; [`IsaId::name`] is the frontend's
    /// canonical lower-case name.
    const ID: IsaId;

    /// A reset CPU at instruction index 0.
    fn new_cpu() -> Self::Cpu;
    /// Whether the CPU has executed a halt.
    fn halted(cpu: &Self::Cpu) -> bool;
    /// Instructions retired so far.
    fn retired(cpu: &Self::Cpu) -> u64;

    /// Appends the CPU's architectural state: always the same number of
    /// words for a frontend.
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
}

/// The built-in frontend: the original decoded-[`Inst`](crate::Inst)
/// interpreter. It has no binary encoding — programs are vectors of
/// already-decoded instructions produced by the [`Asm`](crate::Asm)
/// builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuiltinIsa;

impl Isa for BuiltinIsa {
    type Cpu = Cpu;
    type Program = Program;

    const ID: IsaId = IsaId::Builtin;

    #[inline]
    fn new_cpu() -> Cpu {
        Cpu::new()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reg, Asm};

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
        assert_eq!(traited.pc(), direct.pc());

        let mut a_words = Vec::new();
        let mut b_words = Vec::new();
        direct.save_state(&mut a_words);
        BuiltinIsa::save_state(&traited, &mut b_words);
        assert_eq!(a_words, b_words);
        assert_eq!(a_words.len(), Cpu::STATE_WORDS);
    }
}
