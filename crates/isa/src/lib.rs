//! A 64-bit RISC instruction-set substrate for the SMARTS reproduction.
//!
//! The original SMARTS evaluation ran SPEC CPU2000 Alpha binaries on
//! SimpleScalar. Neither the binaries nor the toolchain are available
//! here, so this crate provides the substitute substrate: a small,
//! fully-implemented 64-bit RISC ISA with
//!
//! * decoded [`Inst`] structures (no binary encoding — programs are
//!   constructed with the [`Asm`] assembler),
//! * a sparse paged [`Memory`],
//! * a fast functional interpreter ([`Cpu`]) whose [`ExecRecord`] stream
//!   drives both microarchitectural warming and the trace-driven
//!   out-of-order timing model, and
//! * instruction classification ([`OpClass`]) used for functional-unit
//!   selection and energy accounting.
//!
//! # Examples
//!
//! Assemble and run a loop that sums the integers 1..=10:
//!
//! ```
//! use smarts_isa::{Asm, Cpu, Memory, reg};
//!
//! # fn main() -> Result<(), smarts_isa::IsaError> {
//! let mut a = Asm::new();
//! a.li(reg::T0, 0); // sum
//! a.li(reg::T1, 1); // i
//! a.li(reg::T2, 10);
//! let top = a.label();
//! a.bind(top)?;
//! a.add(reg::T0, reg::T0, reg::T1);
//! a.addi(reg::T1, reg::T1, 1);
//! a.ble(reg::T1, reg::T2, top);
//! a.halt();
//! let program = a.finish()?;
//!
//! let mut cpu = Cpu::new();
//! let mut mem = Memory::new();
//! while !cpu.halted() {
//!     cpu.step(&program, &mut mem)?;
//! }
//! assert_eq!(cpu.reg(reg::T0), 55);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod cpu;
mod crc32;
mod error;
mod inst;
mod isa;
mod mem;
mod program;
mod risc;
mod trace;

pub use asm::{Asm, Label};
pub use cpu::{Cpu, ExecRecord, MemAccess};
pub use crc32::crc32;
pub use error::IsaError;
pub use inst::{reg, ArchReg, Decoded, Inst, OpClass, Opcode};
pub use isa::{BuiltinIsa, Isa, IsaId, MemTouches};
pub use mem::{Memory, Page};
pub use program::{Program, TEXT_BASE};
pub use risc::{RiscIsa, RiscProgram};
pub use trace::{
    encode_trace, write_trace, TraceCpu, TraceError, TraceIsa, TraceProgram, TRACE_MAGIC,
    TRACE_VERSION,
};
