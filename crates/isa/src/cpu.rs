use crate::{Decoded, Inst, IsaError, Memory, OpClass, Opcode, Program};

/// A data-memory access performed by one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u64,
    /// Access size in bytes (1, 2, 4, or 8).
    pub size: u8,
    /// Whether the access is a store.
    pub is_store: bool,
}

/// Everything the rest of the simulator needs to know about one committed
/// instruction: the correct-path execution trace element.
///
/// The functional warming logic uses `mem`/`taken` to update caches, TLBs,
/// and branch predictors; the trace-driven out-of-order timing model
/// replays records through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecRecord {
    /// Instruction index at which the instruction was fetched.
    pub pc: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// The data access, if the instruction touched memory.
    pub mem: Option<MemAccess>,
    /// For control instructions, whether control transferred; `false`
    /// otherwise.
    pub taken: bool,
    /// Instruction index of the next instruction on the correct path.
    pub next_pc: u64,
    /// `Decoded::of(&inst)`, copied from the program's load-time table.
    /// Private so that a record can only be built with the two agreeing.
    dec: Decoded,
}

// The decode rides in what used to be padding: growing the record would
// grow every window entry and every trace-import program.
const _: () = assert!(std::mem::size_of::<ExecRecord>() == 56);

impl ExecRecord {
    /// Builds a record, decoding `inst` on the spot (the interpreter
    /// copies its program's load-time decode instead).
    pub fn new(pc: u64, inst: Inst, mem: Option<MemAccess>, taken: bool, next_pc: u64) -> Self {
        ExecRecord {
            pc,
            inst,
            mem,
            taken,
            next_pc,
            dec: Decoded::of(&inst),
        }
    }

    /// Byte address of this instruction as seen by the instruction cache.
    pub fn fetch_addr(&self) -> u64 {
        Program::fetch_addr(self.pc)
    }

    /// Instruction class ([`Inst::class`], decoded at program load).
    #[inline]
    pub fn class(&self) -> OpClass {
        self.dec.class
    }

    /// Flat indices of the registers read, slot for slot as
    /// [`Inst::uses`]; 0 where a slot reads nothing.
    #[inline]
    pub fn srcs(&self) -> [u8; 2] {
        self.dec.srcs
    }

    /// Flat index of the register written ([`Inst::defs`]); 0 for none.
    #[inline]
    pub fn dst(&self) -> u8 {
        self.dec.dst
    }
}

/// The functional processor: architectural state plus an interpreter.
///
/// This is the fast-forwarding engine of SMARTS — it maintains only
/// programmer-visible state (registers, memory via the `step` argument,
/// and the program counter), simulating no microarchitecture at all.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, PartialEq)]
pub struct Cpu {
    regs: [u64; 32],
    fregs: [f64; 32],
    pc: u64,
    halted: bool,
    retired: u64,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new()
    }
}

impl Cpu {
    /// Creates a CPU with zeroed registers, starting at instruction 0.
    pub fn new() -> Self {
        Cpu {
            regs: [0; 32],
            fregs: [0.0; 32],
            pc: 0,
            halted: false,
            retired: 0,
        }
    }

    /// Current program counter (an instruction index).
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Whether a `halt` instruction has been executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions retired so far (including the `halt`).
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads integer register `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index > 31`.
    pub fn reg(&self, index: u8) -> u64 {
        self.regs[index as usize]
    }

    /// Writes integer register `index`; writes to register 0 are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `index > 31`.
    pub fn set_reg(&mut self, index: u8, value: u64) {
        if index != 0 {
            self.regs[index as usize] = value;
        }
    }

    /// Reads floating-point register `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index > 31`.
    pub fn freg(&self, index: u8) -> f64 {
        self.fregs[index as usize]
    }

    /// Writes floating-point register `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index > 31`.
    pub fn set_freg(&mut self, index: u8, value: f64) {
        self.fregs[index as usize] = value;
    }

    /// Number of words [`Cpu::save_state`] appends: 32 integer registers,
    /// 32 FP register bit patterns, pc, halt flag, retired count.
    pub const STATE_WORDS: usize = 32 + 32 + 3;

    /// Appends the architectural state as fixed-width words (FP registers
    /// as IEEE-754 bit patterns, so the round trip is bit-exact even for
    /// NaNs) for the checkpoint store.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&self.regs);
        out.extend(self.fregs.iter().map(|f| f.to_bits()));
        out.push(self.pc);
        out.push(self.halted as u64);
        out.push(self.retired);
    }

    /// Restores state written by [`Cpu::save_state`], returning the number
    /// of words consumed, or `None` if `words` is too short.
    pub fn load_state(&mut self, words: &[u64]) -> Option<usize> {
        let words = words.get(..Self::STATE_WORDS)?;
        for (reg, &word) in self.regs.iter_mut().zip(&words[..32]) {
            *reg = word;
        }
        for (freg, &word) in self.fregs.iter_mut().zip(&words[32..64]) {
            *freg = f64::from_bits(word);
        }
        self.pc = words[64];
        self.halted = words[65] != 0;
        self.retired = words[66];
        Some(Self::STATE_WORDS)
    }

    /// Executes one instruction, updating architectural state.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Halted`] if the CPU already halted, or
    /// [`IsaError::PcOutOfRange`] if the program counter fell off the end
    /// of the text section.
    #[inline]
    pub fn step(&mut self, program: &Program, mem: &mut Memory) -> Result<ExecRecord, IsaError> {
        if self.halted {
            return Err(IsaError::Halted);
        }
        self.exec_one(program, mem)
    }

    /// Executes one instruction assuming the caller has already checked
    /// [`Cpu::halted`]. This is the interpreter body shared by [`Cpu::step`]
    /// and the batched [`Cpu::step_block`] loop; `inline(always)` so the
    /// opcode dispatch fuses into the caller's loop.
    #[inline(always)]
    fn exec_one(&mut self, program: &Program, mem: &mut Memory) -> Result<ExecRecord, IsaError> {
        let pc = self.pc;
        let (inst, dec) = program.fetch(pc).ok_or(IsaError::PcOutOfRange {
            pc,
            len: program.len(),
        })?;
        Ok(self.exec_with(*inst, *dec, mem))
    }

    /// Executes one already-fetched, already-decoded instruction,
    /// assuming the caller has checked [`Cpu::halted`].
    ///
    /// This is the fetchless entry to the interpreter body: a caller that
    /// fetches and decodes for itself (the per-step-decode oracle of the
    /// frontend fuzz test) commits through here, so it shares one set of
    /// operation semantics with [`Cpu::step`], which enters the same body
    /// with the decode its program made at load.
    #[inline(always)]
    pub fn exec_decoded(&mut self, inst: Inst, mem: &mut Memory) -> ExecRecord {
        self.exec_with(inst, Decoded::of(&inst), mem)
    }

    /// The interpreter body; `dec` must be `Decoded::of(&inst)`.
    #[inline(always)]
    fn exec_with(&mut self, inst: Inst, dec: Decoded, mem: &mut Memory) -> ExecRecord {
        let pc = self.pc;
        let mut next_pc = pc + 1;
        let mut taken = false;
        let mut mem_access = None;

        let rs1 = self.regs[inst.rs1 as usize];
        let rs2 = self.regs[inst.rs2 as usize];
        let frs1 = self.fregs[inst.rs1 as usize];
        let frs2 = self.fregs[inst.rs2 as usize];

        use Opcode::*;
        match inst.op {
            Add => self.set_reg(inst.rd, rs1.wrapping_add(rs2)),
            Sub => self.set_reg(inst.rd, rs1.wrapping_sub(rs2)),
            Mul => self.set_reg(inst.rd, rs1.wrapping_mul(rs2)),
            Div => self.set_reg(inst.rd, rs1.checked_div(rs2).unwrap_or(u64::MAX)),
            Rem => self.set_reg(inst.rd, if rs2 == 0 { rs1 } else { rs1 % rs2 }),
            And => self.set_reg(inst.rd, rs1 & rs2),
            Or => self.set_reg(inst.rd, rs1 | rs2),
            Xor => self.set_reg(inst.rd, rs1 ^ rs2),
            Sll => self.set_reg(inst.rd, rs1 << (rs2 & 63)),
            Srl => self.set_reg(inst.rd, rs1 >> (rs2 & 63)),
            Sra => self.set_reg(inst.rd, ((rs1 as i64) >> (rs2 & 63)) as u64),
            Slt => self.set_reg(inst.rd, ((rs1 as i64) < (rs2 as i64)) as u64),
            Sltu => self.set_reg(inst.rd, (rs1 < rs2) as u64),
            Addi => self.set_reg(inst.rd, rs1.wrapping_add(inst.imm as u64)),
            Andi => self.set_reg(inst.rd, rs1 & inst.imm as u64),
            Ori => self.set_reg(inst.rd, rs1 | inst.imm as u64),
            Xori => self.set_reg(inst.rd, rs1 ^ inst.imm as u64),
            Slli => self.set_reg(inst.rd, rs1 << (inst.imm as u64 & 63)),
            Srli => self.set_reg(inst.rd, rs1 >> (inst.imm as u64 & 63)),
            Srai => self.set_reg(inst.rd, ((rs1 as i64) >> (inst.imm as u64 & 63)) as u64),
            Slti => self.set_reg(inst.rd, ((rs1 as i64) < inst.imm) as u64),
            Li => self.set_reg(inst.rd, inst.imm as u64),

            FAdd => self.fregs[inst.rd as usize] = frs1 + frs2,
            FSub => self.fregs[inst.rd as usize] = frs1 - frs2,
            FMul => self.fregs[inst.rd as usize] = frs1 * frs2,
            FDiv => self.fregs[inst.rd as usize] = frs1 / frs2,
            FSqrt => self.fregs[inst.rd as usize] = frs1.sqrt(),
            FMin => self.fregs[inst.rd as usize] = frs1.min(frs2),
            FMax => self.fregs[inst.rd as usize] = frs1.max(frs2),
            FAbs => self.fregs[inst.rd as usize] = frs1.abs(),
            FNeg => self.fregs[inst.rd as usize] = -frs1,
            FCvtIf => self.fregs[inst.rd as usize] = rs1 as i64 as f64,
            FCvtFi => self.set_reg(inst.rd, frs1 as i64 as u64),
            FMvIf => self.fregs[inst.rd as usize] = f64::from_bits(rs1),
            FMvFi => self.set_reg(inst.rd, frs1.to_bits()),
            FLi => self.fregs[inst.rd as usize] = f64::from_bits(inst.imm as u64),
            FLt => self.set_reg(inst.rd, (frs1 < frs2) as u64),
            FLe => self.set_reg(inst.rd, (frs1 <= frs2) as u64),
            FEq => self.set_reg(inst.rd, (frs1 == frs2) as u64),

            Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | FLd => {
                let addr = rs1.wrapping_add(inst.imm as u64);
                let size = match inst.op {
                    Lb | Lbu => 1,
                    Lh | Lhu => 2,
                    Lw | Lwu => 4,
                    _ => 8,
                };
                mem_access = Some(MemAccess {
                    addr,
                    size,
                    is_store: false,
                });
                match inst.op {
                    Lb => self.set_reg(inst.rd, mem.read_u8(addr) as i8 as i64 as u64),
                    Lbu => self.set_reg(inst.rd, mem.read_u8(addr) as u64),
                    Lh => self.set_reg(inst.rd, mem.read_u16(addr) as i16 as i64 as u64),
                    Lhu => self.set_reg(inst.rd, mem.read_u16(addr) as u64),
                    Lw => self.set_reg(inst.rd, mem.read_u32(addr) as i32 as i64 as u64),
                    Lwu => self.set_reg(inst.rd, mem.read_u32(addr) as u64),
                    Ld => self.set_reg(inst.rd, mem.read_u64(addr)),
                    FLd => self.fregs[inst.rd as usize] = mem.read_f64(addr),
                    _ => unreachable!(),
                }
            }
            Sb | Sh | Sw | Sd | FSd => {
                let addr = rs1.wrapping_add(inst.imm as u64);
                let size = match inst.op {
                    Sb => 1,
                    Sh => 2,
                    Sw => 4,
                    _ => 8,
                };
                mem_access = Some(MemAccess {
                    addr,
                    size,
                    is_store: true,
                });
                match inst.op {
                    Sb => mem.write_u8(addr, rs2 as u8),
                    Sh => mem.write_u16(addr, rs2 as u16),
                    Sw => mem.write_u32(addr, rs2 as u32),
                    Sd => mem.write_u64(addr, rs2),
                    FSd => mem.write_f64(addr, frs2),
                    _ => unreachable!(),
                }
            }

            Beq => taken = rs1 == rs2,
            Bne => taken = rs1 != rs2,
            Blt => taken = (rs1 as i64) < (rs2 as i64),
            Bge => taken = (rs1 as i64) >= (rs2 as i64),
            Bltu => taken = rs1 < rs2,
            Bgeu => taken = rs1 >= rs2,
            Jal => {
                self.set_reg(inst.rd, pc + 1);
                taken = true;
                next_pc = inst.imm as u64;
            }
            Jalr => {
                let target = rs1.wrapping_add(inst.imm as u64);
                self.set_reg(inst.rd, pc + 1);
                taken = true;
                next_pc = target;
            }
            Nop => {}
            Halt => {
                self.halted = true;
            }
        }

        if matches!(inst.op, Beq | Bne | Blt | Bge | Bltu | Bgeu) && taken {
            next_pc = inst.imm as u64;
        }
        if self.halted {
            next_pc = pc;
        }

        self.pc = next_pc;
        self.retired += 1;
        ExecRecord {
            pc,
            inst,
            mem: mem_access,
            taken,
            next_pc,
            dec,
        }
    }

    /// Runs at most `max_insts` instructions, feeding each committed
    /// [`ExecRecord`] to `sink`, stopping early on `halt`.
    ///
    /// This is the batched fast-forward hot loop: the halted flag is the
    /// loop condition (not re-checked inside the interpreter), records are
    /// passed to the sink by reference, and the interpreter body inlines
    /// into the loop. Functional warming runs as
    /// `cpu.step_block(.., |rec| warm.warm_record(rec))`.
    ///
    /// Returns the number of instructions executed.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors (e.g. [`IsaError::PcOutOfRange`]);
    /// starting from a halted CPU returns `Ok(0)`.
    #[inline]
    pub fn step_block(
        &mut self,
        program: &Program,
        mem: &mut Memory,
        max_insts: u64,
        mut sink: impl FnMut(&ExecRecord),
    ) -> Result<u64, IsaError> {
        let mut executed = 0;
        while executed < max_insts && !self.halted {
            let rec = self.exec_one(program, mem)?;
            sink(&rec);
            executed += 1;
        }
        Ok(executed)
    }

    /// Runs at most `max_insts` instructions, stopping early on `halt`.
    ///
    /// Returns the number of instructions executed. This is the hot
    /// fast-forward path when no warming is requested.
    ///
    /// # Errors
    ///
    /// Propagates [`Cpu::step`] errors other than reaching the
    /// instruction budget.
    pub fn run(
        &mut self,
        program: &Program,
        mem: &mut Memory,
        max_insts: u64,
    ) -> Result<u64, IsaError> {
        self.step_block(program, mem, max_insts, |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reg, Asm};

    fn run_to_halt(a: Asm) -> (Cpu, Memory) {
        let program = a.finish().unwrap();
        let mut cpu = Cpu::new();
        let mut mem = Memory::new();
        for _ in 0..1_000_000 {
            if cpu.halted() {
                break;
            }
            cpu.step(&program, &mut mem).unwrap();
        }
        assert!(cpu.halted(), "program did not halt");
        (cpu, mem)
    }

    #[test]
    fn arithmetic_and_immediates() {
        let mut a = Asm::new();
        a.li(reg::T0, 7);
        a.li(reg::T1, 5);
        a.add(reg::T2, reg::T0, reg::T1);
        a.sub(reg::T3, reg::T0, reg::T1);
        a.mul(reg::T4, reg::T0, reg::T1);
        a.addi(reg::T5, reg::T0, -10);
        a.halt();
        let (cpu, _) = run_to_halt(a);
        assert_eq!(cpu.reg(reg::T2), 12);
        assert_eq!(cpu.reg(reg::T3), 2);
        assert_eq!(cpu.reg(reg::T4), 35);
        assert_eq!(cpu.reg(reg::T5) as i64, -3);
    }

    #[test]
    fn division_semantics() {
        let mut a = Asm::new();
        a.li(reg::T0, 17);
        a.li(reg::T1, 5);
        a.div(reg::T2, reg::T0, reg::T1);
        a.rem(reg::T3, reg::T0, reg::T1);
        a.div(reg::T4, reg::T0, reg::ZERO); // ÷0 → all ones
        a.rem(reg::T5, reg::T0, reg::ZERO); // mod 0 → dividend
        a.halt();
        let (cpu, _) = run_to_halt(a);
        assert_eq!(cpu.reg(reg::T2), 3);
        assert_eq!(cpu.reg(reg::T3), 2);
        assert_eq!(cpu.reg(reg::T4), u64::MAX);
        assert_eq!(cpu.reg(reg::T5), 17);
    }

    #[test]
    fn zero_register_is_hardwired() {
        let mut a = Asm::new();
        a.li(reg::ZERO, 99);
        a.addi(reg::ZERO, reg::ZERO, 1);
        a.mv(reg::T0, reg::ZERO);
        a.halt();
        let (cpu, _) = run_to_halt(a);
        assert_eq!(cpu.reg(reg::ZERO), 0);
        assert_eq!(cpu.reg(reg::T0), 0);
    }

    #[test]
    fn signed_vs_unsigned_compare() {
        let mut a = Asm::new();
        a.li(reg::T0, -1);
        a.li(reg::T1, 1);
        a.slt(reg::T2, reg::T0, reg::T1); // -1 < 1 signed
        a.sltu(reg::T3, reg::T0, reg::T1); // u64::MAX < 1 unsigned: no
        a.halt();
        let (cpu, _) = run_to_halt(a);
        assert_eq!(cpu.reg(reg::T2), 1);
        assert_eq!(cpu.reg(reg::T3), 0);
    }

    #[test]
    fn shifts_mask_amount() {
        let mut a = Asm::new();
        a.li(reg::T0, 1);
        a.slli(reg::T1, reg::T0, 65); // = shift by 1
        a.li(reg::T2, -8);
        a.srai(reg::T3, reg::T2, 1);
        a.srli(reg::T4, reg::T2, 60);
        a.halt();
        let (cpu, _) = run_to_halt(a);
        assert_eq!(cpu.reg(reg::T1), 2);
        assert_eq!(cpu.reg(reg::T3) as i64, -4);
        assert_eq!(cpu.reg(reg::T4), 0xF);
    }

    #[test]
    fn loads_sign_and_zero_extend() {
        let mut a = Asm::new();
        a.li(reg::S0, 0x2000);
        a.li(reg::T0, 0xFF);
        a.sb(reg::T0, reg::S0, 0);
        a.lb(reg::T1, reg::S0, 0);
        a.lbu(reg::T2, reg::S0, 0);
        a.li(reg::T0, 0x8000);
        a.sh(reg::T0, reg::S0, 8);
        a.lh(reg::T3, reg::S0, 8);
        a.lhu(reg::T4, reg::S0, 8);
        a.halt();
        let (cpu, _) = run_to_halt(a);
        assert_eq!(cpu.reg(reg::T1) as i64, -1);
        assert_eq!(cpu.reg(reg::T2), 0xFF);
        assert_eq!(cpu.reg(reg::T3) as i64, -32768);
        assert_eq!(cpu.reg(reg::T4), 0x8000);
    }

    #[test]
    fn store_load_roundtrip_and_record() {
        let mut a = Asm::new();
        a.li(reg::S0, 0x3000);
        a.li(reg::T0, 0x1234_5678_9ABC_DEF0u64 as i64);
        a.sd(reg::T0, reg::S0, 16);
        a.ld(reg::T1, reg::S0, 16);
        a.halt();
        let program = a.finish().unwrap();
        let mut cpu = Cpu::new();
        let mut mem = Memory::new();
        cpu.step(&program, &mut mem).unwrap();
        cpu.step(&program, &mut mem).unwrap();
        let store = cpu.step(&program, &mut mem).unwrap();
        assert_eq!(
            store.mem,
            Some(MemAccess {
                addr: 0x3010,
                size: 8,
                is_store: true
            })
        );
        let load = cpu.step(&program, &mut mem).unwrap();
        assert_eq!(
            load.mem,
            Some(MemAccess {
                addr: 0x3010,
                size: 8,
                is_store: false
            })
        );
        assert_eq!(cpu.reg(reg::T1), 0x1234_5678_9ABC_DEF0);
    }

    #[test]
    fn fp_operations() {
        let mut a = Asm::new();
        a.fli(0, 2.0);
        a.fli(1, 8.0);
        a.fadd(2, 0, 1);
        a.fdiv(3, 1, 0);
        a.fsqrt(4, 1);
        a.fcvt_fi(reg::T0, 3);
        a.flt(reg::T1, 0, 1);
        a.halt();
        let (cpu, _) = run_to_halt(a);
        assert_eq!(cpu.freg(2), 10.0);
        assert_eq!(cpu.freg(3), 4.0);
        assert!((cpu.freg(4) - 8.0f64.sqrt()).abs() < 1e-15);
        assert_eq!(cpu.reg(reg::T0), 4);
        assert_eq!(cpu.reg(reg::T1), 1);
    }

    #[test]
    fn branch_records_taken_and_next_pc() {
        let mut a = Asm::new();
        let target = a.label();
        a.li(reg::T0, 1); // 0
        a.bnez(reg::T0, target); // 1 -> 3
        a.nop(); // 2 skipped
        a.bind(target).unwrap();
        a.halt(); // 3
        let program = a.finish().unwrap();
        let mut cpu = Cpu::new();
        let mut mem = Memory::new();
        cpu.step(&program, &mut mem).unwrap();
        let br = cpu.step(&program, &mut mem).unwrap();
        assert!(br.taken);
        assert_eq!(br.next_pc, 3);
        let halt = cpu.step(&program, &mut mem).unwrap();
        assert_eq!(halt.pc, 3);
        assert!(cpu.halted());
    }

    #[test]
    fn not_taken_branch_falls_through() {
        let mut a = Asm::new();
        let target = a.label();
        a.beq(reg::T0, reg::T1, target); // 0 taken? t0==t1==0 yes...
        a.bind(target).unwrap();
        a.halt();
        let program = a.finish().unwrap();
        let mut cpu = Cpu::new();
        let mut mem = Memory::new();
        let br = cpu.step(&program, &mut mem).unwrap();
        assert!(br.taken); // both registers zero
        assert_eq!(br.next_pc, 1);
    }

    #[test]
    fn call_and_return() {
        let mut a = Asm::new();
        let func = a.label();
        a.call(func); // 0
        a.li(reg::T1, 7); // 1 (after return)
        a.halt(); // 2
        a.bind(func).unwrap();
        a.li(reg::T0, 5); // 3
        a.ret(); // 4
        let (cpu, _) = run_to_halt(a);
        assert_eq!(cpu.reg(reg::T0), 5);
        assert_eq!(cpu.reg(reg::T1), 7);
        assert_eq!(cpu.reg(reg::RA), 1);
    }

    #[test]
    fn computed_jump_table() {
        let mut a = Asm::new();
        let case1 = a.label();
        let end = a.label();
        a.la(reg::T0, case1);
        a.jr(reg::T0, 0);
        a.halt(); // skipped
        a.bind(case1).unwrap();
        a.li(reg::T1, 42);
        a.j(end);
        a.nop();
        a.bind(end).unwrap();
        a.halt();
        let (cpu, _) = run_to_halt(a);
        assert_eq!(cpu.reg(reg::T1), 42);
    }

    #[test]
    fn step_after_halt_errors() {
        let mut a = Asm::new();
        a.halt();
        let program = a.finish().unwrap();
        let mut cpu = Cpu::new();
        let mut mem = Memory::new();
        cpu.step(&program, &mut mem).unwrap();
        assert_eq!(cpu.step(&program, &mut mem), Err(IsaError::Halted));
        assert_eq!(cpu.retired(), 1);
    }

    #[test]
    fn pc_out_of_range_errors() {
        let mut a = Asm::new();
        a.nop();
        let program = a.finish().unwrap();
        let mut cpu = Cpu::new();
        let mut mem = Memory::new();
        cpu.step(&program, &mut mem).unwrap();
        assert_eq!(
            cpu.step(&program, &mut mem),
            Err(IsaError::PcOutOfRange { pc: 1, len: 1 })
        );
    }

    #[test]
    fn run_stops_at_budget_and_halt() {
        let mut a = Asm::new();
        let top = a.label();
        a.bind(top).unwrap();
        a.addi(reg::T0, reg::T0, 1);
        a.j(top);
        let program = a.finish().unwrap();
        let mut cpu = Cpu::new();
        let mut mem = Memory::new();
        let n = cpu.run(&program, &mut mem, 1000).unwrap();
        assert_eq!(n, 1000);
        assert_eq!(cpu.retired(), 1000);
        assert!(!cpu.halted());

        let mut b = Asm::new();
        b.halt();
        let program2 = b.finish().unwrap();
        let mut cpu2 = Cpu::new();
        let n2 = cpu2.run(&program2, &mut mem, 1000).unwrap();
        assert_eq!(n2, 1);
        assert!(cpu2.halted());
    }
}
