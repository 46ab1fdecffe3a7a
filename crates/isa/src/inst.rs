use std::fmt;

/// Conventional register names for the integer register file.
///
/// Register 0 is hardwired to zero, as in MIPS/RISC-V. The remaining names
/// follow the RISC-V calling convention loosely; nothing in the simulator
/// enforces the convention, it simply makes workload kernels readable.
pub mod reg {
    /// Hardwired zero.
    pub const ZERO: u8 = 0;
    /// Return address (link) register; `jal ra, …` is classified as a call.
    pub const RA: u8 = 1;
    /// Stack pointer.
    pub const SP: u8 = 2;
    /// Global pointer.
    pub const GP: u8 = 3;
    /// Temporaries.
    pub const T0: u8 = 4;
    /// Temporary 1.
    pub const T1: u8 = 5;
    /// Temporary 2.
    pub const T2: u8 = 6;
    /// Temporary 3.
    pub const T3: u8 = 7;
    /// Temporary 4.
    pub const T4: u8 = 8;
    /// Temporary 5.
    pub const T5: u8 = 9;
    /// Temporary 6.
    pub const T6: u8 = 10;
    /// Temporary 7.
    pub const T7: u8 = 11;
    /// Argument / result registers.
    pub const A0: u8 = 12;
    /// Argument 1.
    pub const A1: u8 = 13;
    /// Argument 2.
    pub const A2: u8 = 14;
    /// Argument 3.
    pub const A3: u8 = 15;
    /// Callee-saved registers.
    pub const S0: u8 = 16;
    /// Saved 1.
    pub const S1: u8 = 17;
    /// Saved 2.
    pub const S2: u8 = 18;
    /// Saved 3.
    pub const S3: u8 = 19;
    /// Saved 4.
    pub const S4: u8 = 20;
    /// Saved 5.
    pub const S5: u8 = 21;
    /// Saved 6.
    pub const S6: u8 = 22;
    /// Saved 7.
    pub const S7: u8 = 23;
}

/// An architectural register reference distinguishing the integer and
/// floating-point files.
///
/// Encoded compactly (0–31 integer, 32–63 floating point) so dependence
/// tracking in the timing model can index a flat 64-entry rename map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArchReg(u8);

impl ArchReg {
    /// An integer register.
    ///
    /// # Panics
    ///
    /// Panics if `index > 31`.
    pub fn int(index: u8) -> Self {
        assert!(index < 32, "integer register index {index} out of range");
        ArchReg(index)
    }

    /// A floating-point register.
    ///
    /// # Panics
    ///
    /// Panics if `index > 31`.
    pub fn fp(index: u8) -> Self {
        assert!(index < 32, "fp register index {index} out of range");
        ArchReg(32 + index)
    }

    /// Flat index in `0..64` (integer file first).
    #[inline]
    pub fn flat(&self) -> usize {
        self.0 as usize
    }

    /// Whether this names the integer file.
    pub fn is_int(&self) -> bool {
        self.0 < 32
    }

    /// Index within its file, `0..32`.
    pub fn index(&self) -> u8 {
        self.0 & 31
    }

    /// Whether this is the hardwired integer zero register.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_int() {
            write!(f, "x{}", self.index())
        } else {
            write!(f, "f{}", self.index())
        }
    }
}

/// Operation of a decoded instruction.
///
/// Branch/jump targets are *absolute instruction indices* stored in
/// [`Inst::imm`]; the assembler resolves labels to indices. `Jalr` computes
/// its target as `regs[rs1] + imm` where the register holds an instruction
/// index (as written by a preceding `Jal`/`Li`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are conventional RISC mnemonics
pub enum Opcode {
    // Integer register-register.
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    // Integer register-immediate.
    Addi,
    Andi,
    Ori,
    Xori,
    Slli,
    Srli,
    Srai,
    Slti,
    Li,
    // Floating point (f64) register-register.
    FAdd,
    FSub,
    FMul,
    FDiv,
    FSqrt,
    FMin,
    FMax,
    FAbs,
    FNeg,
    // Conversions / moves between files. FCvtIf: int→fp, FCvtFi: fp→int.
    FCvtIf,
    FCvtFi,
    FMvIf,
    FMvFi,
    FLi,
    // FP comparison writing an integer register.
    FLt,
    FLe,
    FEq,
    // Memory. Loads: rd ← mem[regs[rs1]+imm]; stores: mem[regs[rs1]+imm] ← rs2.
    Lb,
    Lbu,
    Lh,
    Lhu,
    Lw,
    Lwu,
    Ld,
    Sb,
    Sh,
    Sw,
    Sd,
    FLd,
    FSd,
    // Control. Conditional branches compare rs1, rs2 and jump to imm.
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    // Unconditional: rd ← pc+1; pc ← imm (Jal) or regs[rs1]+imm (Jalr).
    Jal,
    Jalr,
    Nop,
    Halt,
}

/// Instruction class used for functional-unit selection, timing, and
/// energy accounting — the analogue of SimpleScalar's instruction classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Simple integer ALU operation (1-cycle).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide / remainder (long latency, unpipelined).
    IntDiv,
    /// Simple floating-point operation.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide / square root (long latency, unpipelined).
    FpDiv,
    /// Memory load (int or fp).
    Load,
    /// Memory store (int or fp).
    Store,
    /// Conditional branch.
    CondBranch,
    /// Unconditional jump (direct or indirect, non-call, non-return).
    Jump,
    /// Call (writes the link register).
    Call,
    /// Return (indirect jump through the link register).
    Return,
    /// No operation.
    Nop,
    /// Program termination.
    Halt,
}

impl OpClass {
    /// Whether instructions of this class redirect control flow.
    #[inline]
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            OpClass::CondBranch | OpClass::Jump | OpClass::Call | OpClass::Return
        )
    }

    /// Whether instructions of this class access data memory.
    #[inline]
    pub fn is_mem(&self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A decoded instruction.
///
/// Register fields index the integer or floating-point file depending on
/// the opcode; [`Inst::defs`] and [`Inst::uses`] return file-qualified
/// [`ArchReg`]s for dependence tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Operation.
    pub op: Opcode,
    /// Destination register (meaning depends on the opcode).
    pub rd: u8,
    /// First source register.
    pub rs1: u8,
    /// Second source register.
    pub rs2: u8,
    /// Immediate: ALU constant, memory displacement, branch/jump target
    /// (absolute instruction index), or raw `f64` bits for `FLi`.
    pub imm: i64,
}

impl Inst {
    /// Creates an instruction; convenience constructor used by the
    /// assembler and by tests.
    pub fn new(op: Opcode, rd: u8, rs1: u8, rs2: u8, imm: i64) -> Self {
        Inst {
            op,
            rd,
            rs1,
            rs2,
            imm,
        }
    }

    /// The canonical no-operation instruction.
    pub fn nop() -> Self {
        Inst::new(Opcode::Nop, 0, 0, 0, 0)
    }

    /// Instruction class for timing and energy purposes.
    #[inline]
    pub fn class(&self) -> OpClass {
        use Opcode::*;
        match self.op {
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Addi | Andi | Ori
            | Xori | Slli | Srli | Srai | Slti | Li | FMvIf | FMvFi | FLi | FLt | FLe | FEq => {
                OpClass::IntAlu
            }
            Mul => OpClass::IntMul,
            Div | Rem => OpClass::IntDiv,
            FAdd | FSub | FMin | FMax | FAbs | FNeg | FCvtIf | FCvtFi => OpClass::FpAlu,
            FMul => OpClass::FpMul,
            FDiv | FSqrt => OpClass::FpDiv,
            Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | FLd => OpClass::Load,
            Sb | Sh | Sw | Sd | FSd => OpClass::Store,
            Beq | Bne | Blt | Bge | Bltu | Bgeu => OpClass::CondBranch,
            Jal => {
                if self.rd == reg::RA {
                    OpClass::Call
                } else {
                    OpClass::Jump
                }
            }
            Jalr => {
                if self.rd == reg::RA {
                    OpClass::Call
                } else if self.rd == reg::ZERO && self.rs1 == reg::RA {
                    OpClass::Return
                } else {
                    OpClass::Jump
                }
            }
            Nop => OpClass::Nop,
            Halt => OpClass::Halt,
        }
    }

    /// The architectural register this instruction writes, if any.
    ///
    /// Writes to the hardwired integer zero register are reported as
    /// `None` (they have no dataflow effect).
    #[inline]
    pub fn defs(&self) -> Option<ArchReg> {
        use Opcode::*;
        let def = match self.op {
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Addi
            | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Li | FCvtFi | FMvFi | FLt | FLe
            | FEq | Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld => Some(ArchReg::int(self.rd)),
            FAdd | FSub | FMul | FDiv | FSqrt | FMin | FMax | FAbs | FNeg | FCvtIf | FMvIf
            | FLi | FLd => Some(ArchReg::fp(self.rd)),
            Jal | Jalr => Some(ArchReg::int(self.rd)),
            Sb | Sh | Sw | Sd | FSd | Beq | Bne | Blt | Bge | Bltu | Bgeu | Nop | Halt => None,
        };
        def.filter(|r| !r.is_zero())
    }

    /// The architectural registers this instruction reads (up to two).
    ///
    /// Reads of the hardwired integer zero register are omitted.
    #[inline]
    pub fn uses(&self) -> [Option<ArchReg>; 2] {
        use Opcode::*;
        let (a, b) = match self.op {
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu => {
                (Some(ArchReg::int(self.rs1)), Some(ArchReg::int(self.rs2)))
            }
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti => {
                (Some(ArchReg::int(self.rs1)), None)
            }
            Li | FLi | Nop | Halt | Jal => (None, None),
            FAdd | FSub | FMul | FDiv | FMin | FMax => {
                (Some(ArchReg::fp(self.rs1)), Some(ArchReg::fp(self.rs2)))
            }
            FSqrt | FAbs | FNeg | FCvtFi | FMvFi => (Some(ArchReg::fp(self.rs1)), None),
            FCvtIf | FMvIf => (Some(ArchReg::int(self.rs1)), None),
            FLt | FLe | FEq => (Some(ArchReg::fp(self.rs1)), Some(ArchReg::fp(self.rs2))),
            Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | FLd => (Some(ArchReg::int(self.rs1)), None),
            Sb | Sh | Sw | Sd => (Some(ArchReg::int(self.rs1)), Some(ArchReg::int(self.rs2))),
            FSd => (Some(ArchReg::int(self.rs1)), Some(ArchReg::fp(self.rs2))),
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                (Some(ArchReg::int(self.rs1)), Some(ArchReg::int(self.rs2)))
            }
            Jalr => (Some(ArchReg::int(self.rs1)), None),
        };
        [a.filter(|r| !r.is_zero()), b.filter(|r| !r.is_zero())]
    }
}

/// What an [`Inst`] *means* to the consumers of the record stream — its
/// class and the registers it reads and writes — decoded once per static
/// instruction when a [`Program`](crate::Program) is built and carried in
/// every [`ExecRecord`](crate::ExecRecord), so functional warming and the
/// timing model read fields instead of re-matching the opcode.
///
/// Registers are [`ArchReg::flat`] indices with 0 for "none": the
/// hardwired zero register has no dataflow, so [`Inst::uses`] and
/// [`Inst::defs`] never report it and its index is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decoded {
    /// [`Inst::class`].
    pub class: OpClass,
    /// [`Inst::uses`], slot for slot.
    pub srcs: [u8; 2],
    /// [`Inst::defs`].
    pub dst: u8,
}

impl Decoded {
    /// Decodes `inst` through [`Inst::class`], [`Inst::uses`] and
    /// [`Inst::defs`], the one definition of each.
    pub fn of(inst: &Inst) -> Self {
        let flat = |r: Option<ArchReg>| r.map_or(0, |r| r.0);
        let [a, b] = inst.uses();
        Decoded {
            class: inst.class(),
            srcs: [flat(a), flat(b)],
            dst: flat(inst.defs()),
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} rd=x{} rs1=x{} rs2=x{} imm={}",
            self.op, self.rd, self.rs1, self.rs2, self.imm
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_reg_flat_encoding() {
        assert_eq!(ArchReg::int(0).flat(), 0);
        assert_eq!(ArchReg::int(31).flat(), 31);
        assert_eq!(ArchReg::fp(0).flat(), 32);
        assert_eq!(ArchReg::fp(31).flat(), 63);
        assert!(ArchReg::int(0).is_zero());
        assert!(!ArchReg::fp(0).is_zero());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arch_reg_rejects_large_index() {
        let _ = ArchReg::int(32);
    }

    #[test]
    fn call_and_return_classification() {
        let call = Inst::new(Opcode::Jal, reg::RA, 0, 0, 100);
        assert_eq!(call.class(), OpClass::Call);
        let jump = Inst::new(Opcode::Jal, reg::ZERO, 0, 0, 100);
        assert_eq!(jump.class(), OpClass::Jump);
        let ret = Inst::new(Opcode::Jalr, reg::ZERO, reg::RA, 0, 0);
        assert_eq!(ret.class(), OpClass::Return);
        let icall = Inst::new(Opcode::Jalr, reg::RA, reg::T0, 0, 0);
        assert_eq!(icall.class(), OpClass::Call);
    }

    #[test]
    fn zero_register_has_no_dataflow() {
        let inst = Inst::new(Opcode::Add, 0, 0, 0, 0);
        assert_eq!(inst.defs(), None);
        assert_eq!(inst.uses(), [None, None]);
    }

    #[test]
    fn load_defs_and_uses() {
        let ld = Inst::new(Opcode::Ld, reg::T0, reg::S0, 0, 16);
        assert_eq!(ld.defs(), Some(ArchReg::int(reg::T0)));
        assert_eq!(ld.uses(), [Some(ArchReg::int(reg::S0)), None]);
        assert_eq!(ld.class(), OpClass::Load);
    }

    #[test]
    fn fp_store_reads_both_files() {
        let fsd = Inst::new(Opcode::FSd, 0, reg::S0, 3, 8);
        assert_eq!(fsd.defs(), None);
        assert_eq!(
            fsd.uses(),
            [Some(ArchReg::int(reg::S0)), Some(ArchReg::fp(3))]
        );
        assert_eq!(fsd.class(), OpClass::Store);
    }

    #[test]
    fn fp_load_writes_fp_file() {
        let fld = Inst::new(Opcode::FLd, 5, reg::S0, 0, 0);
        assert_eq!(fld.defs(), Some(ArchReg::fp(5)));
    }

    #[test]
    fn class_covers_every_opcode() {
        use Opcode::*;
        // Exercise class()/defs()/uses() for every opcode to catch panics.
        let all = [
            Add, Sub, Mul, Div, Rem, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu, Addi, Andi, Ori, Xori,
            Slli, Srli, Srai, Slti, Li, FAdd, FSub, FMul, FDiv, FSqrt, FMin, FMax, FAbs, FNeg,
            FCvtIf, FCvtFi, FMvIf, FMvFi, FLi, FLt, FLe, FEq, Lb, Lbu, Lh, Lhu, Lw, Lwu, Ld, Sb,
            Sh, Sw, Sd, FLd, FSd, Beq, Bne, Blt, Bge, Bltu, Bgeu, Jal, Jalr, Nop, Halt,
        ];
        for op in all {
            let inst = Inst::new(op, 1, 2, 3, 4);
            let _ = inst.class();
            let _ = inst.defs();
            let _ = inst.uses();
        }
    }

    #[test]
    fn control_and_mem_predicates() {
        assert!(OpClass::CondBranch.is_control());
        assert!(OpClass::Return.is_control());
        assert!(!OpClass::Load.is_control());
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::IntAlu.is_mem());
    }
}
