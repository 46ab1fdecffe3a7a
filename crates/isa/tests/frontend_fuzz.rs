//! Differential fuzz of the two executable frontends: a random program
//! that fits the compact-RISC encoding must run identically through
//! [`BuiltinIsa`] and through [`RiscIsa`]'s predecoded table — the same
//! [`ExecRecord`] stream, the same final CPU state words, the same
//! memory pages — whether stepped one instruction at a time or in
//! blocks, and identically to an oracle that fetches and decodes the
//! binary word on every step, as the frontend did before it predecoded.
//!
//! Programs are SplitMix64-random (register and immediate ALU forms,
//! loads and stores of every width, data-dependent forward branches,
//! `jal`/`jalr` calls, one bounded outer loop); failures reproduce from
//! the fixed seeds.

use smarts_isa::{
    reg, Asm, BuiltinIsa, Cpu, ExecRecord, Inst, Isa, Memory, Opcode, Program, RiscIsa, RiscProgram,
};
use Opcode::*;

/// Splitmix64, duplicated locally: `smarts-isa` sits below the crate
/// that owns the shared generator in the dependency DAG.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

const REG_OPS: [Opcode; 13] = [
    Add, Sub, Mul, Div, Rem, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu,
];
const IMM_OPS: [Opcode; 8] = [Addi, Andi, Ori, Xori, Slli, Srli, Srai, Slti];
const LOADS: [Opcode; 7] = [Lb, Lbu, Lh, Lhu, Lw, Lwu, Ld];
const STORES: [Opcode; 4] = [Sb, Sh, Sw, Sd];
const BRANCHES: [Opcode; 6] = [Beq, Bne, Blt, Bge, Bltu, Bgeu];

/// A random, always-terminating, always-encodable program. Register
/// roles: S0 = data base, S1 = loop counter, S2 = iteration bound;
/// T0..T6 are scratch for the random body. Every instruction is in the
/// canonical form the RISC decoder produces (unused fields zero), so the
/// records of the two frontends can be compared whole.
fn random_program(rng: &mut Rng) -> Program {
    let mut a = Asm::new();
    let t = |rng: &mut Rng| reg::T0 + rng.below(7) as u8;
    let leaf = a.label();
    a.li(reg::S0, 0x1000_0000); // 4 KiB-aligned: encodes through `lui`
    a.li(reg::S1, 0);
    a.li(reg::S2, 4 + rng.below(20) as i64);
    let top = a.label();
    a.bind(top).unwrap();
    for _ in 0..8 + rng.below(40) {
        match rng.below(8) {
            0 | 1 => {
                a.emit(Inst::new(rng.pick(&REG_OPS), t(rng), t(rng), t(rng), 0));
            }
            2 => {
                let imm = rng.below(1 << 16) as i64 - (1 << 15);
                a.emit(Inst::new(rng.pick(&IMM_OPS), t(rng), t(rng), 0, imm));
            }
            3 => {
                a.li(t(rng), rng.below(1 << 21) as i64 - (1 << 20));
            }
            4 => {
                // Unaligned and page-straddling displacements included.
                let disp = rng.below(3 * 4096) as i64 - 4096;
                a.emit(Inst::new(rng.pick(&LOADS), t(rng), reg::S0, 0, disp));
            }
            5 => {
                let disp = rng.below(3 * 4096) as i64 - 4096;
                a.emit(Inst::new(rng.pick(&STORES), 0, reg::S0, t(rng), disp));
            }
            6 => {
                // Data-dependent forward branch over a short shadow.
                let skip = a.label();
                let (rs1, rs2) = (t(rng), t(rng));
                match rng.pick(&BRANCHES) {
                    Beq => a.beq(rs1, rs2, skip),
                    Bne => a.bne(rs1, rs2, skip),
                    Blt => a.blt(rs1, rs2, skip),
                    Bge => a.bge(rs1, rs2, skip),
                    Bltu => a.bltu(rs1, rs2, skip),
                    _ => a.bgeu(rs1, rs2, skip),
                };
                a.addi(t(rng), t(rng), 1);
                a.bind(skip).unwrap();
            }
            _ => {
                a.call(leaf); // jal ra; the leaf returns through jalr
            }
        }
    }
    a.addi(reg::S1, reg::S1, 1);
    a.blt(reg::S1, reg::S2, top);
    a.halt();
    a.bind(leaf).unwrap();
    a.emit(Inst::new(rng.pick(&REG_OPS), t(rng), t(rng), t(rng), 0));
    a.nop();
    a.ret();
    a.finish().unwrap()
}

/// Everything a run leaves behind: the committed stream, the CPU state
/// words and the memory pages.
#[derive(Debug, PartialEq)]
struct Outcome {
    records: Vec<ExecRecord>,
    state: Vec<u64>,
    pages: Vec<(u64, Vec<u8>)>,
}

fn outcome(records: Vec<ExecRecord>, cpu: &Cpu, mem: &Memory) -> Outcome {
    assert!(cpu.halted(), "program ran to its halt");
    let mut state = Vec::new();
    cpu.save_state(&mut state);
    let pages = mem
        .pages_sorted()
        .into_iter()
        .map(|(index, bytes)| (index, bytes.to_vec()))
        .collect();
    Outcome {
        records,
        state,
        pages,
    }
}

fn run_stepped<I: Isa<Cpu = Cpu>>(program: &I::Program) -> Outcome {
    let (mut cpu, mut mem) = (I::new_cpu(), Memory::new());
    let mut records = Vec::new();
    while !I::halted(&cpu) {
        records.push(I::step(&mut cpu, program, &mut mem).unwrap());
    }
    assert!(I::step(&mut cpu, program, &mut mem).is_err());
    outcome(records, &cpu, &mem)
}

fn run_blocked<I: Isa<Cpu = Cpu>>(program: &I::Program, rng: &mut Rng) -> Outcome {
    let (mut cpu, mut mem) = (I::new_cpu(), Memory::new());
    let mut records = Vec::new();
    while !I::halted(&cpu) {
        let budget = 1 + rng.below(97);
        let before = records.len() as u64;
        let ran = I::step_block(&mut cpu, program, &mut mem, budget, |rec| {
            records.push(*rec)
        })
        .unwrap();
        assert_eq!(ran, records.len() as u64 - before);
        assert!(ran == budget || I::halted(&cpu));
    }
    outcome(records, &cpu, &mem)
}

/// The RISC frontend as it ran before predecode: fetch the binary word
/// at the program counter and decode it, on every step.
fn run_decoding_each_step(program: &RiscProgram) -> Outcome {
    let (mut cpu, mut mem) = (Cpu::new(), Memory::new());
    let mut records = Vec::new();
    while !cpu.halted() {
        let word = program.get(cpu.pc()).expect("pc inside the text");
        let inst = RiscIsa::decode(word).expect("a constructed program decodes");
        records.push(cpu.exec_decoded(inst, &mut mem));
    }
    outcome(records, &cpu, &mem)
}

#[test]
fn predecoded_risc_matches_builtin_and_the_per_step_decoder() {
    for seed in 0..48u64 {
        let mut rng = Rng(seed);
        let program = random_program(&mut rng);
        let risc = RiscProgram::encode_program(&program)
            .unwrap_or_else(|| panic!("seed {seed}: the generator only emits encodable forms"));
        assert_eq!(risc.len(), program.len());
        assert_eq!(
            RiscProgram::from_words(risc.words().to_vec()).as_ref(),
            Ok(&risc),
            "seed {seed}: both constructors build the same program"
        );

        let want = run_stepped::<BuiltinIsa>(&program);
        assert!(want.records.len() > 50, "seed {seed}: stream too short");
        assert_eq!(run_stepped::<RiscIsa>(&risc), want, "seed {seed}: step");
        assert_eq!(
            run_blocked::<BuiltinIsa>(&program, &mut rng),
            want,
            "seed {seed}: builtin step_block"
        );
        assert_eq!(
            run_blocked::<RiscIsa>(&risc, &mut rng),
            want,
            "seed {seed}: risc step_block"
        );
        assert_eq!(
            run_decoding_each_step(&risc),
            want,
            "seed {seed}: per-step decode oracle"
        );
    }
}
