//! Differential fuzz of the two executable frontends: a random program
//! that fits the compact-RISC encoding must run identically through
//! [`BuiltinIsa`] and through [`RiscIsa`]'s predecoded table — the same
//! [`ExecRecord`] stream, the same final CPU state words, the same
//! memory pages — whether stepped one instruction at a time or in
//! blocks, and identically to an oracle that fetches and decodes the
//! binary word on every step, as the frontend did before it predecoded.
//! Every record any frontend emits — the trace-import frontend replaying
//! the stream included — must also carry the decode (class, sources,
//! destination) that [`Inst::class`], [`Inst::uses`] and [`Inst::defs`]
//! define, as must every opcode under every register pattern that decides
//! a class or filters a zero-register read or write.
//!
//! Programs are SplitMix64-random (register and immediate ALU forms,
//! loads and stores of every width, data-dependent forward branches,
//! `jal`/`jalr` calls, one bounded outer loop); failures reproduce from
//! the fixed seeds.

use smarts_isa::{
    encode_trace, reg, ArchReg, Asm, BuiltinIsa, Cpu, Decoded, ExecRecord, Inst, Isa, Memory,
    Opcode, Program, RiscIsa, RiscProgram, TraceIsa, TraceProgram,
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

/// The decode a record carries against the `match` definitions.
fn assert_decoded(rec: &ExecRecord) {
    let flat = |reg: Option<ArchReg>| reg.map_or(0, |r| r.flat() as u8);
    let [a, b] = rec.inst.uses();
    assert_eq!(rec.class(), rec.inst.class(), "class of {}", rec.inst);
    assert_eq!(rec.srcs(), [flat(a), flat(b)], "sources of {}", rec.inst);
    assert_eq!(
        rec.dst(),
        flat(rec.inst.defs()),
        "destination of {}",
        rec.inst
    );
}

fn outcome(records: Vec<ExecRecord>, cpu: &Cpu, mem: &Memory) -> Outcome {
    assert!(cpu.halted(), "program ran to its halt");
    records.iter().for_each(assert_decoded);
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

        // Trace import decodes each record as it materialises it.
        let trace = TraceProgram::decode(&encode_trace("fuzz", &want.records)).unwrap();
        let (mut cursor, mut mem) = (TraceIsa::new_cpu(), Memory::new());
        let mut replayed = Vec::new();
        while !TraceIsa::halted(&cursor) {
            replayed.push(TraceIsa::step(&mut cursor, &trace, &mut mem).unwrap());
        }
        replayed.iter().for_each(assert_decoded);
        assert_eq!(replayed, want.records, "seed {seed}: trace import");
    }
}

#[test]
fn decode_matches_the_match_definitions_for_every_opcode_and_register_pattern() {
    #[rustfmt::skip]
    let opcodes = [
        Add, Sub, Mul, Div, Rem, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu,
        Addi, Andi, Ori, Xori, Slli, Srli, Srai, Slti, Li,
        FAdd, FSub, FMul, FDiv, FSqrt, FMin, FMax, FAbs, FNeg,
        FCvtIf, FCvtFi, FMvIf, FMvFi, FLi, FLt, FLe, FEq,
        Lb, Lbu, Lh, Lhu, Lw, Lwu, Ld, Sb, Sh, Sw, Sd, FLd, FSd,
        Beq, Bne, Blt, Bge, Bltu, Bgeu, Jal, Jalr, Nop, Halt,
    ];
    // ZERO and RA decide Call/Return/Jump; ZERO is also the filtered
    // read and write. T0 stands for every other register.
    let patterns = [reg::ZERO, reg::RA, reg::T0];
    for op in opcodes {
        for rd in patterns {
            for rs1 in patterns {
                for rs2 in patterns {
                    let inst = Inst::new(op, rd, rs1, rs2, 2);
                    assert_decoded(&ExecRecord::new(0, inst, None, false, 1));
                    // The interpreter copies the program's load-time
                    // table instead of decoding: one step of each.
                    let program =
                        Program::from_insts(vec![inst, Inst::nop(), Inst::nop()]).unwrap();
                    let rec = Cpu::new().step(&program, &mut Memory::new()).unwrap();
                    assert_eq!(rec.inst, inst);
                    assert_decoded(&rec);
                    let dec = Decoded::of(&inst);
                    assert_eq!(
                        (dec.class, dec.srcs, dec.dst),
                        (rec.class(), rec.srcs(), rec.dst())
                    );
                }
            }
        }
    }
}
