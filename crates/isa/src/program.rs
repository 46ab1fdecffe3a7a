use crate::{Decoded, Inst, IsaError};
use std::fmt;
use std::sync::Arc;

/// Base address of the text section.
///
/// Instruction `i` occupies the four bytes at `TEXT_BASE + 4·i`; the
/// instruction cache and I-TLB index on these addresses.
pub const TEXT_BASE: u64 = 0x0000_0000_0001_0000;

/// An assembled program: a flat text section of decoded instructions.
///
/// The program counter used throughout the simulator is an *instruction
/// index* into this section; [`Program::fetch_addr`] converts an index to
/// the byte address seen by the instruction cache.
///
/// Programs are produced by the [`Asm`](crate::Asm) builder. The text is
/// immutable and shared, so cloning a program — once per replayed unit
/// and per warming shard — is a reference-count bump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    // Each instruction next to its `Decoded::of`: the static half of
    // every record the interpreter will emit, decoded once here and
    // fetched with the instruction under one bounds check.
    text: Arc<[(Inst, Decoded)]>,
}

impl Program {
    /// Wraps a raw instruction vector into a program.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::EmptyProgram`] when `insts` is empty.
    pub fn from_insts(insts: Vec<Inst>) -> Result<Self, IsaError> {
        if insts.is_empty() {
            return Err(IsaError::EmptyProgram);
        }
        Ok(Program {
            text: insts.into_iter().map(|i| (i, Decoded::of(&i))).collect(),
        })
    }

    /// Number of static instructions.
    pub fn len(&self) -> u64 {
        self.text.len() as u64
    }

    /// Whether the program has no instructions (never true for a
    /// constructed program; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The instruction at index `pc`, or `None` past the end.
    pub fn get(&self, pc: u64) -> Option<&Inst> {
        self.text.get(pc as usize).map(|(inst, _)| inst)
    }

    /// The instruction at index `pc` together with its load-time decode.
    #[inline]
    pub(crate) fn fetch(&self, pc: u64) -> Option<&(Inst, Decoded)> {
        self.text.get(pc as usize)
    }

    /// Bytes one instruction occupies in the text section; the I-side
    /// warming granularity shared by every frontend (see the
    /// [`Isa`](crate::Isa) contract).
    pub const INST_BYTES: u64 = 4;

    /// Byte address of instruction `pc` as seen by the instruction cache.
    pub fn fetch_addr(pc: u64) -> u64 {
        TEXT_BASE + pc * Self::INST_BYTES
    }

    /// All instructions in program order.
    pub fn insts(&self) -> impl ExactSizeIterator<Item = &Inst> {
        self.text.iter().map(|(inst, _)| inst)
    }

    /// Static basic-block leaders: instruction indices that start a block
    /// (index 0, branch/jump targets, and fall-throughs of control
    /// instructions). Used by the SimPoint basic-block-vector profiler.
    pub fn basic_block_leaders(&self) -> Vec<u64> {
        let mut leaders = vec![false; self.text.len()];
        if !leaders.is_empty() {
            leaders[0] = true;
        }
        for (i, (inst, dec)) in self.text.iter().enumerate() {
            if dec.class.is_control() {
                if i + 1 < leaders.len() {
                    leaders[i + 1] = true;
                }
                // Direct targets are absolute instruction indices.
                use crate::Opcode::*;
                match inst.op {
                    Beq | Bne | Blt | Bge | Bltu | Bgeu | Jal => {
                        let target = inst.imm;
                        if target >= 0 && (target as usize) < leaders.len() {
                            leaders[target as usize] = true;
                        }
                    }
                    _ => {}
                }
            }
        }
        leaders
            .iter()
            .enumerate()
            .filter_map(|(i, &is_leader)| is_leader.then_some(i as u64))
            .collect()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program: {} instructions", self.text.len())?;
        for (i, inst) in self.insts().enumerate() {
            writeln!(f, "{i:6}: {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reg, Opcode};

    #[test]
    fn empty_program_rejected() {
        assert_eq!(Program::from_insts(vec![]), Err(IsaError::EmptyProgram));
    }

    #[test]
    fn fetch_addr_is_word_spaced() {
        assert_eq!(Program::fetch_addr(0), TEXT_BASE);
        assert_eq!(Program::fetch_addr(3), TEXT_BASE + 12);
    }

    #[test]
    fn basic_block_leaders_found() {
        // 0: addi        <- leader (entry)
        // 1: beq -> 4
        // 2: addi        <- leader (fall-through)
        // 3: jal -> 0
        // 4: halt        <- leader (branch target, fall-through of jal)
        let insts = vec![
            Inst::new(Opcode::Addi, reg::T0, reg::T0, 0, 1),
            Inst::new(Opcode::Beq, 0, reg::T0, reg::T1, 4),
            Inst::new(Opcode::Addi, reg::T0, reg::T0, 0, 1),
            Inst::new(Opcode::Jal, reg::ZERO, 0, 0, 0),
            Inst::new(Opcode::Halt, 0, 0, 0, 0),
        ];
        let program = Program::from_insts(insts).unwrap();
        assert_eq!(program.basic_block_leaders(), vec![0, 2, 4]);
    }

    #[test]
    fn get_past_end_is_none() {
        let program = Program::from_insts(vec![Inst::nop()]).unwrap();
        assert!(program.get(0).is_some());
        assert!(program.get(1).is_none());
    }
}
