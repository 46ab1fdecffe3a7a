//! [`RiscIsa`]: a compact RISC-style frontend with fixed 32-bit binary
//! encodings, covering the integer load/store + branch + ALU subset of
//! the shared operation vocabulary.
//!
//! Modeled on fuel-asm/RISC-V: every instruction is one little-endian
//! `u32` word whose top six bits select the operation and whose remaining
//! 26 bits are laid out per format —
//!
//! ```text
//! R-type  (reg-reg ALU)      [op:6][rd:5][rs1:5][rs2:5][0:11]
//! I-type  (imm ALU, loads)   [op:6][rd:5][rs1:5][imm:16 signed]
//! S-type  (stores)           [op:6][rs1:5][rs2:5][imm:16 signed]
//! B-type  (branches)         [op:6][rs1:5][rs2:5][target:16]
//! U-type  (li, jal)          [op:6][rd:5][imm:21 signed]
//! ```
//!
//! `Lui` is the RISC-V-style shifted load-immediate: its 21-bit field is
//! decoded as `imm << 12`, which is how workload kernels materialise
//! 4 KiB-aligned data-segment base addresses that exceed the plain
//! 21-bit `li` range. Both decode to the shared [`Opcode::Li`], so the
//! interpreter semantics are untouched.
//!
//! Encoding is partial by design: [`RiscIsa::encode`] returns `None` for
//! floating-point operations and for immediates that do not fit their
//! field. A workload enters the RISC suite only when every instruction of
//! its built-in program encodes (see `smarts-workloads`), which also
//! guarantees `decode(encode(i)) == i` — the RISC frontend then executes
//! the *identical* committed stream through the shared interpreter.
//!
//! The binary form is decoded **once, at load**: [`RiscProgram`] turns
//! its words into the built-in [`Inst`] normal form when it is built and
//! the step loop indexes that table, so the 50-arm [`RiscIsa::decode`]
//! match is off the warming hot path and the frontend runs at the built-in
//! interpreter's rate.

use crate::isa::{Isa, IsaId};
use crate::{Cpu, ExecRecord, Inst, IsaError, Memory, Opcode, Program};
use std::sync::Arc;

/// Field layout constants; see the module docs for the formats.
const OP_SHIFT: u32 = 26;
const RD_SHIFT: u32 = 21;
const RS1_SHIFT: u32 = 16;
const RS2_SHIFT: u32 = 11;
const REG_MASK: u32 = 0x1F;
const IMM16_MASK: u32 = 0xFFFF;
const IMM21_MASK: u32 = 0x1F_FFFF;

/// `Lui`'s decoded immediate is its field shifted left by this amount.
const LUI_SHIFT: u32 = 12;

/// Operation tags (the top six bits). Tag 0 is reserved invalid so an
/// all-zero word never decodes. Tags are part of the encoding; never
/// reorder or reuse them.
#[rustfmt::skip]
mod tag {
    pub const ADD: u32 = 1;   pub const SUB: u32 = 2;   pub const MUL: u32 = 3;
    pub const DIV: u32 = 4;   pub const REM: u32 = 5;   pub const AND: u32 = 6;
    pub const OR: u32 = 7;    pub const XOR: u32 = 8;   pub const SLL: u32 = 9;
    pub const SRL: u32 = 10;  pub const SRA: u32 = 11;  pub const SLT: u32 = 12;
    pub const SLTU: u32 = 13; pub const ADDI: u32 = 14; pub const ANDI: u32 = 15;
    pub const ORI: u32 = 16;  pub const XORI: u32 = 17; pub const SLLI: u32 = 18;
    pub const SRLI: u32 = 19; pub const SRAI: u32 = 20; pub const SLTI: u32 = 21;
    pub const LI: u32 = 22;   pub const LUI: u32 = 23;  pub const LB: u32 = 24;
    pub const LBU: u32 = 25;  pub const LH: u32 = 26;   pub const LHU: u32 = 27;
    pub const LW: u32 = 28;   pub const LWU: u32 = 29;  pub const LD: u32 = 30;
    pub const SB: u32 = 31;   pub const SH: u32 = 32;   pub const SW: u32 = 33;
    pub const SD: u32 = 34;   pub const BEQ: u32 = 35;  pub const BNE: u32 = 36;
    pub const BLT: u32 = 37;  pub const BGE: u32 = 38;  pub const BLTU: u32 = 39;
    pub const BGEU: u32 = 40; pub const JAL: u32 = 41;  pub const JALR: u32 = 42;
    pub const NOP: u32 = 43;  pub const HALT: u32 = 44;
}

fn fits_i16(imm: i64) -> bool {
    i16::try_from(imm).is_ok()
}

fn fits_u16(imm: i64) -> bool {
    (0..=0xFFFF).contains(&imm)
}

fn fits_i21(imm: i64) -> bool {
    (-(1 << 20)..(1 << 20)).contains(&imm)
}

fn fits_u21(imm: i64) -> bool {
    (0..(1 << 21)).contains(&imm)
}

fn regs_ok(inst: &Inst) -> bool {
    inst.rd < 32 && inst.rs1 < 32 && inst.rs2 < 32
}

fn enc_r(op: u32, inst: &Inst) -> u32 {
    (op << OP_SHIFT)
        | ((inst.rd as u32) << RD_SHIFT)
        | ((inst.rs1 as u32) << RS1_SHIFT)
        | ((inst.rs2 as u32) << RS2_SHIFT)
}

fn enc_i(op: u32, inst: &Inst) -> u32 {
    (op << OP_SHIFT)
        | ((inst.rd as u32) << RD_SHIFT)
        | ((inst.rs1 as u32) << RS1_SHIFT)
        | (inst.imm as u32 & IMM16_MASK)
}

fn enc_s(op: u32, inst: &Inst) -> u32 {
    (op << OP_SHIFT)
        | ((inst.rs1 as u32) << RD_SHIFT)
        | ((inst.rs2 as u32) << RS1_SHIFT)
        | (inst.imm as u32 & IMM16_MASK)
}

fn enc_u(op: u32, rd: u8, imm: i64) -> u32 {
    (op << OP_SHIFT) | ((rd as u32) << RD_SHIFT) | (imm as u32 & IMM21_MASK)
}

fn imm16_signed(word: u32) -> i64 {
    (word & IMM16_MASK) as u16 as i16 as i64
}

fn imm16_unsigned(word: u32) -> i64 {
    (word & IMM16_MASK) as i64
}

fn imm21_signed(word: u32) -> i64 {
    let raw = word & IMM21_MASK;
    ((raw << 11) as i32 >> 11) as i64
}

fn imm21_unsigned(word: u32) -> i64 {
    (word & IMM21_MASK) as i64
}

/// A program of raw 32-bit instruction words, decoded once at
/// construction.
///
/// The only way to build one is [`RiscProgram::from_words`], which
/// rejects an empty program and any word that does not decode — so a
/// `RiscProgram` always holds a non-empty, fully decoded text, and the
/// step loop indexes the decoded table exactly as the built-in frontend
/// indexes its [`Program`]. The raw words are kept for the binary view
/// ([`RiscProgram::get`], [`RiscProgram::words`]). Both tables are
/// shared, so cloning a program is two reference-count bumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RiscProgram {
    words: Arc<[u32]>,
    decoded: Program,
}

impl RiscProgram {
    /// Decodes raw instruction words into a program.
    ///
    /// # Errors
    ///
    /// [`IsaError::EmptyProgram`] when `words` is empty, or
    /// [`IsaError::InvalidEncoding`] naming the first word that does not
    /// decode.
    pub fn from_words(words: Vec<u32>) -> Result<Self, IsaError> {
        let insts = words
            .iter()
            .map(|&word| RiscIsa::decode(word).ok_or(IsaError::InvalidEncoding(word)))
            .collect::<Result<Vec<Inst>, IsaError>>()?;
        Ok(RiscProgram {
            words: words.into(),
            decoded: Program::from_insts(insts)?,
        })
    }

    /// Encodes a built-in program instruction-for-instruction, or `None`
    /// when any instruction is outside the RISC set (FP operation,
    /// immediate too wide). Indices — and therefore branch targets and
    /// the committed stream — are preserved exactly.
    pub fn encode_program(program: &Program) -> Option<Self> {
        let words: Option<Vec<u32>> = program.insts().map(RiscIsa::encode).collect();
        Self::from_words(words?).ok()
    }

    /// Number of static instructions.
    pub fn len(&self) -> u64 {
        self.words.len() as u64
    }

    /// Whether the program has no instructions (never true for a
    /// constructed program; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The raw word at index `pc`, or `None` past the end.
    pub fn get(&self, pc: u64) -> Option<u32> {
        self.words.get(pc as usize).copied()
    }

    /// All instruction words in program order.
    pub fn words(&self) -> &[u32] {
        &self.words
    }
}

/// The compact RISC-style frontend (see the module docs).
///
/// Reuses the shared [`Cpu`] architectural state — same register files,
/// same [`Cpu::STATE_WORDS`] snapshot layout — and the shared
/// interpreter loop, run over the table a [`RiscProgram`] decoded from
/// its 32-bit binary words at load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RiscIsa;

impl Isa for RiscIsa {
    type Cpu = Cpu;
    type Program = RiscProgram;

    const ID: IsaId = IsaId::Risc;

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
    fn step(
        cpu: &mut Cpu,
        program: &RiscProgram,
        mem: &mut Memory,
    ) -> Result<ExecRecord, IsaError> {
        cpu.step(&program.decoded, mem)
    }

    #[inline]
    fn step_block(
        cpu: &mut Cpu,
        program: &RiscProgram,
        mem: &mut Memory,
        max_insts: u64,
        sink: impl FnMut(&ExecRecord),
    ) -> Result<u64, IsaError> {
        cpu.step_block(&program.decoded, mem, max_insts, sink)
    }
}

impl RiscIsa {
    /// Decodes one instruction word to the shared [`Inst`] vocabulary,
    /// or `None` if the encoding is invalid.
    pub fn decode(raw: u32) -> Option<Inst> {
        let rd = ((raw >> RD_SHIFT) & REG_MASK) as u8;
        let rs1 = ((raw >> RS1_SHIFT) & REG_MASK) as u8;
        let rs2 = ((raw >> RS2_SHIFT) & REG_MASK) as u8;
        use Opcode::*;
        let inst = match raw >> OP_SHIFT {
            tag::ADD => Inst::new(Add, rd, rs1, rs2, 0),
            tag::SUB => Inst::new(Sub, rd, rs1, rs2, 0),
            tag::MUL => Inst::new(Mul, rd, rs1, rs2, 0),
            tag::DIV => Inst::new(Div, rd, rs1, rs2, 0),
            tag::REM => Inst::new(Rem, rd, rs1, rs2, 0),
            tag::AND => Inst::new(And, rd, rs1, rs2, 0),
            tag::OR => Inst::new(Or, rd, rs1, rs2, 0),
            tag::XOR => Inst::new(Xor, rd, rs1, rs2, 0),
            tag::SLL => Inst::new(Sll, rd, rs1, rs2, 0),
            tag::SRL => Inst::new(Srl, rd, rs1, rs2, 0),
            tag::SRA => Inst::new(Sra, rd, rs1, rs2, 0),
            tag::SLT => Inst::new(Slt, rd, rs1, rs2, 0),
            tag::SLTU => Inst::new(Sltu, rd, rs1, rs2, 0),
            tag::ADDI => Inst::new(Addi, rd, rs1, 0, imm16_signed(raw)),
            tag::ANDI => Inst::new(Andi, rd, rs1, 0, imm16_signed(raw)),
            tag::ORI => Inst::new(Ori, rd, rs1, 0, imm16_signed(raw)),
            tag::XORI => Inst::new(Xori, rd, rs1, 0, imm16_signed(raw)),
            tag::SLLI => Inst::new(Slli, rd, rs1, 0, imm16_signed(raw)),
            tag::SRLI => Inst::new(Srli, rd, rs1, 0, imm16_signed(raw)),
            tag::SRAI => Inst::new(Srai, rd, rs1, 0, imm16_signed(raw)),
            tag::SLTI => Inst::new(Slti, rd, rs1, 0, imm16_signed(raw)),
            tag::LI => Inst::new(Li, rd, 0, 0, imm21_signed(raw)),
            tag::LUI => Inst::new(Li, rd, 0, 0, imm21_signed(raw) << LUI_SHIFT),
            tag::LB => Inst::new(Lb, rd, rs1, 0, imm16_signed(raw)),
            tag::LBU => Inst::new(Lbu, rd, rs1, 0, imm16_signed(raw)),
            tag::LH => Inst::new(Lh, rd, rs1, 0, imm16_signed(raw)),
            tag::LHU => Inst::new(Lhu, rd, rs1, 0, imm16_signed(raw)),
            tag::LW => Inst::new(Lw, rd, rs1, 0, imm16_signed(raw)),
            tag::LWU => Inst::new(Lwu, rd, rs1, 0, imm16_signed(raw)),
            tag::LD => Inst::new(Ld, rd, rs1, 0, imm16_signed(raw)),
            // S-type: rs1 sits in the rd field, rs2 in the rs1 field.
            tag::SB => Inst::new(Sb, 0, rd, rs1, imm16_signed(raw)),
            tag::SH => Inst::new(Sh, 0, rd, rs1, imm16_signed(raw)),
            tag::SW => Inst::new(Sw, 0, rd, rs1, imm16_signed(raw)),
            tag::SD => Inst::new(Sd, 0, rd, rs1, imm16_signed(raw)),
            tag::BEQ => Inst::new(Beq, 0, rd, rs1, imm16_unsigned(raw)),
            tag::BNE => Inst::new(Bne, 0, rd, rs1, imm16_unsigned(raw)),
            tag::BLT => Inst::new(Blt, 0, rd, rs1, imm16_unsigned(raw)),
            tag::BGE => Inst::new(Bge, 0, rd, rs1, imm16_unsigned(raw)),
            tag::BLTU => Inst::new(Bltu, 0, rd, rs1, imm16_unsigned(raw)),
            tag::BGEU => Inst::new(Bgeu, 0, rd, rs1, imm16_unsigned(raw)),
            tag::JAL => Inst::new(Jal, rd, 0, 0, imm21_unsigned(raw)),
            tag::JALR => Inst::new(Jalr, rd, rs1, 0, imm16_signed(raw)),
            tag::NOP if raw == tag::NOP << OP_SHIFT => Inst::nop(),
            tag::HALT if raw == tag::HALT << OP_SHIFT => Inst::new(Halt, 0, 0, 0, 0),
            _ => return None,
        };
        Some(inst)
    }

    /// Encodes an [`Inst`] into its 32-bit word, or `None` when the
    /// instruction is not representable (out-of-range immediate, opcode
    /// outside the set).
    pub fn encode(inst: &Inst) -> Option<u32> {
        if !regs_ok(inst) {
            return None;
        }
        use Opcode::*;
        let r = |op| (inst.imm == 0).then(|| enc_r(op, inst));
        let i = |op| fits_i16(inst.imm).then(|| enc_i(op, inst));
        let s = |op| (fits_i16(inst.imm) && inst.rd == 0).then(|| enc_s(op, inst));
        let b = |op| (fits_u16(inst.imm) && inst.rd == 0).then(|| enc_s(op, inst));
        match inst.op {
            Add => r(tag::ADD),
            Sub => r(tag::SUB),
            Mul => r(tag::MUL),
            Div => r(tag::DIV),
            Rem => r(tag::REM),
            And => r(tag::AND),
            Or => r(tag::OR),
            Xor => r(tag::XOR),
            Sll => r(tag::SLL),
            Srl => r(tag::SRL),
            Sra => r(tag::SRA),
            Slt => r(tag::SLT),
            Sltu => r(tag::SLTU),
            Addi => i(tag::ADDI),
            Andi => i(tag::ANDI),
            Ori => i(tag::ORI),
            Xori => i(tag::XORI),
            Slli => i(tag::SLLI),
            Srli => i(tag::SRLI),
            Srai => i(tag::SRAI),
            Slti => i(tag::SLTI),
            Li if inst.rs1 == 0 && inst.rs2 == 0 => {
                if fits_i21(inst.imm) {
                    Some(enc_u(tag::LI, inst.rd, inst.imm))
                } else if inst.imm & ((1 << LUI_SHIFT) - 1) == 0 && fits_i21(inst.imm >> LUI_SHIFT)
                {
                    Some(enc_u(tag::LUI, inst.rd, inst.imm >> LUI_SHIFT))
                } else {
                    None
                }
            }
            Lb => i(tag::LB),
            Lbu => i(tag::LBU),
            Lh => i(tag::LH),
            Lhu => i(tag::LHU),
            Lw => i(tag::LW),
            Lwu => i(tag::LWU),
            Ld => i(tag::LD),
            Sb => s(tag::SB),
            Sh => s(tag::SH),
            Sw => s(tag::SW),
            Sd => s(tag::SD),
            Beq => b(tag::BEQ),
            Bne => b(tag::BNE),
            Blt => b(tag::BLT),
            Bge => b(tag::BGE),
            Bltu => b(tag::BLTU),
            Bgeu => b(tag::BGEU),
            Jal if inst.rs1 == 0 && inst.rs2 == 0 && fits_u21(inst.imm) => {
                Some(enc_u(tag::JAL, inst.rd, inst.imm))
            }
            Jalr if inst.rs2 == 0 && fits_i16(inst.imm) => Some(enc_i(tag::JALR, inst)),
            Nop if *inst == Inst::nop() => Some(tag::NOP << OP_SHIFT),
            Halt if (inst.rd, inst.rs1, inst.rs2, inst.imm) == (0, 0, 0, 0) => {
                Some(tag::HALT << OP_SHIFT)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reg, Asm};

    fn encodable_samples() -> Vec<Inst> {
        use Opcode::*;
        vec![
            Inst::new(Add, 1, 2, 3, 0),
            Inst::new(Sub, 31, 30, 29, 0),
            Inst::new(Mul, 5, 5, 5, 0),
            Inst::new(Addi, 4, 4, 0, -1), // negative immediate
            Inst::new(Addi, 4, 4, 0, 32767),
            Inst::new(Andi, 7, 8, 0, 255),
            Inst::new(Slli, 9, 10, 0, 63),
            Inst::new(Li, 11, 0, 0, -1_000_000),
            Inst::new(Li, 12, 0, 0, 1_048_575),
            Inst::new(Li, 13, 0, 0, 0x1000_0000), // DATA_BASE via Lui
            Inst::new(Ld, 14, 15, 0, -8),
            Inst::new(Lbu, 16, 17, 0, 4095),
            Inst::new(Sd, 0, 18, 19, 16),
            Inst::new(Sb, 0, 20, 21, -32768),
            Inst::new(Beq, 0, 1, 2, 0),
            Inst::new(Bgeu, 0, 3, 4, 65535),
            Inst::new(Jal, reg::RA, 0, 0, 12345),
            Inst::new(Jal, reg::ZERO, 0, 0, 0),
            Inst::new(Jalr, reg::ZERO, reg::RA, 0, 0),
            Inst::nop(),
            Inst::new(Halt, 0, 0, 0, 0),
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        for inst in encodable_samples() {
            let word =
                RiscIsa::encode(&inst).unwrap_or_else(|| panic!("sample must encode: {inst:?}"));
            let back = RiscIsa::decode(word)
                .unwrap_or_else(|| panic!("encoded word must decode: {inst:?}"));
            assert_eq!(back, inst, "round trip for {inst:?} (word {word:#010x})");
        }
    }

    #[test]
    fn unencodable_instructions_are_rejected() {
        use Opcode::*;
        let cases = [
            Inst::new(FAdd, 1, 2, 3, 0),         // FP is outside the set
            Inst::new(FLd, 1, 2, 0, 0),          // FP load
            Inst::new(Addi, 1, 2, 0, 40000),     // imm16 overflow
            Inst::new(Li, 1, 0, 0, 0x1000_0008), // unaligned, too wide for li
            Inst::new(Li, 1, 0, 0, 1 << 40),     // too wide even shifted
            Inst::new(Beq, 0, 1, 2, -1),         // negative branch target
            Inst::new(Beq, 0, 1, 2, 70000),      // target past imm16
            Inst::new(Add, 1, 2, 3, 5),          // R-type with an immediate
        ];
        for inst in cases {
            assert_eq!(RiscIsa::encode(&inst), None, "{inst:?} must not encode");
        }
    }

    #[test]
    fn invalid_words_do_not_decode() {
        assert_eq!(RiscIsa::decode(0), None, "reserved tag 0");
        assert_eq!(RiscIsa::decode(63 << OP_SHIFT), None, "unassigned tag");
        // NOP/HALT with stray operand bits are not canonical.
        assert_eq!(RiscIsa::decode((tag::NOP << OP_SHIFT) | 1), None);
        assert_eq!(
            RiscIsa::decode((tag::HALT << OP_SHIFT) | (3 << RD_SHIFT)),
            None
        );
    }

    #[test]
    fn program_construction_validates() {
        assert_eq!(RiscProgram::from_words(vec![]), Err(IsaError::EmptyProgram));
        let halt = RiscIsa::encode(&Inst::new(Opcode::Halt, 0, 0, 0, 0)).unwrap();
        assert_eq!(
            RiscProgram::from_words(vec![halt, 0]),
            Err(IsaError::InvalidEncoding(0))
        );
        let p = RiscProgram::from_words(vec![halt]).unwrap();
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        assert_eq!(p.get(0), Some(halt));
        assert_eq!(p.get(1), None);
        // `encode_program` goes through the same builder.
        let program = Program::from_insts(vec![Inst::new(Opcode::Halt, 0, 0, 0, 0)]).unwrap();
        assert_eq!(RiscProgram::encode_program(&program), Some(p));
    }

    /// The load-bearing property: an encodable built-in program executes
    /// the identical committed stream on the RISC frontend.
    #[test]
    fn risc_execution_matches_builtin_stream() {
        let mut a = Asm::new();
        a.li(reg::S1, 0x1000_0000);
        a.li(reg::T0, 8);
        let l = a.label();
        a.bind(l).unwrap();
        a.sd(reg::T0, reg::S1, 0);
        a.ld(reg::T1, reg::S1, 0);
        a.addi(reg::S1, reg::S1, 8);
        a.addi(reg::T0, reg::T0, -1);
        a.bnez(reg::T0, l);
        a.halt();
        let program = a.finish().unwrap();
        let risc = RiscProgram::encode_program(&program).expect("int kernel encodes");

        let mut b_cpu = Cpu::new();
        let mut b_mem = Memory::new();
        let mut r_cpu = RiscIsa::new_cpu();
        let mut r_mem = Memory::new();
        loop {
            if b_cpu.halted() {
                break;
            }
            let want = b_cpu.step(&program, &mut b_mem).unwrap();
            let got = RiscIsa::step(&mut r_cpu, &risc, &mut r_mem).unwrap();
            assert_eq!(want, got);
        }
        assert!(RiscIsa::halted(&r_cpu));
        assert_eq!(RiscIsa::retired(&r_cpu), b_cpu.retired());
        assert!(matches!(
            RiscIsa::step(&mut r_cpu, &risc, &mut r_mem),
            Err(IsaError::Halted)
        ));

        // State snapshots share the Cpu layout and round-trip bit-exactly.
        let mut words = Vec::new();
        RiscIsa::save_state(&r_cpu, &mut words);
        assert_eq!(words.len(), Cpu::STATE_WORDS);
        let mut restored = RiscIsa::new_cpu();
        assert_eq!(
            RiscIsa::load_state(&mut restored, &words),
            Some(Cpu::STATE_WORDS)
        );
        assert_eq!(restored, r_cpu);
    }

    #[test]
    fn step_block_matches_single_steps() {
        let mut a = Asm::new();
        a.li(reg::T0, 100);
        let l = a.label();
        a.bind(l).unwrap();
        a.addi(reg::T0, reg::T0, -1);
        a.bnez(reg::T0, l);
        a.halt();
        let risc = RiscProgram::encode_program(&a.finish().unwrap()).unwrap();

        let mut single = RiscIsa::new_cpu();
        let mut single_mem = Memory::new();
        let mut singles = Vec::new();
        while !single.halted() {
            singles.push(RiscIsa::step(&mut single, &risc, &mut single_mem).unwrap());
        }

        let mut blocked = RiscIsa::new_cpu();
        let mut blocked_mem = Memory::new();
        let mut blocks = Vec::new();
        while !blocked.halted() {
            RiscIsa::step_block(&mut blocked, &risc, &mut blocked_mem, 7, |r| {
                blocks.push(*r)
            })
            .unwrap();
        }
        assert_eq!(singles, blocks);
        assert_eq!(single, blocked);
    }
}
