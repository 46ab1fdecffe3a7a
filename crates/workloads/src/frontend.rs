//! Workload resolution per instruction-set frontend.
//!
//! The store/replay pipeline persists only a benchmark *name* and *scale*
//! in checkpoint-store metadata; replay re-derives the program and initial
//! memory from them. [`Frontend`] is the trait that makes this resolution
//! step frontend-generic: each [`Isa`] that can act as a pipeline frontend
//! knows how to turn `(name, scale)` back into a loaded workload.
//!
//! * [`smarts_isa::BuiltinIsa`] resolves against the kernel suite
//!   ([`crate::find`]), exactly as the pre-frontend code did.
//! * [`smarts_isa::RiscIsa`] resolves the same names, then re-encodes the
//!   assembled program into its fixed 32-bit binary form; kernels that use
//!   instructions outside the compact set are rejected (see
//!   [`risc_suite`] for the encodable subset).
//! * [`smarts_isa::TraceIsa`] treats the name as a path to a
//!   CRC-checked trace file and ignores `scale` (a recorded trace has a
//!   fixed length).

use crate::suite::Benchmark;
use crate::{find, suite};
use smarts_isa::{BuiltinIsa, Isa, Memory, RiscIsa, RiscProgram, TraceIsa, TraceProgram};
use std::fmt;
use std::path::Path;

/// A workload ready for execution under frontend `I`: program text in the
/// frontend's own representation plus initialized memory.
pub struct Loaded<I: Isa> {
    /// The workload's name (a suite benchmark name, or a trace path for
    /// the trace frontend).
    pub name: String,
    /// Program text in `I`'s representation.
    pub program: I::Program,
    /// Initial memory image (data segments).
    pub memory: Memory,
}

/// A suite benchmark loaded for the built-in frontend.
pub type LoadedBenchmark = Loaded<BuiltinIsa>;

impl<I: Isa> Clone for Loaded<I> {
    fn clone(&self) -> Self {
        Loaded {
            name: self.name.clone(),
            program: self.program.clone(),
            memory: self.memory.clone(),
        }
    }
}

impl<I: Isa> fmt::Debug for Loaded<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Loaded")
            .field("isa", &I::ID.name())
            .field("name", &self.name)
            .field("program", &self.program)
            .finish_non_exhaustive()
    }
}

/// An [`Isa`] that can resolve pipeline workloads by `(name, scale)`.
///
/// Resolution must be deterministic: replaying a checkpoint store resolves
/// the same `(name, scale)` recorded at save time and assumes the result
/// is the identical program and initial memory.
pub trait Frontend: Isa {
    /// Resolves a workload name at `scale` into a loaded program.
    ///
    /// # Errors
    ///
    /// A human-readable message when the name is unknown to this frontend
    /// or the workload cannot be represented in it.
    fn resolve(name: &str, scale: f64) -> Result<Loaded<Self>, String>;

    /// Approximate dynamic instruction count of the resolved workload,
    /// used to derive sampling parameters.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Frontend::resolve`].
    fn approx_len(name: &str, scale: f64) -> Result<u64, String>;
}

fn find_scaled(name: &str, scale: f64) -> Result<Benchmark, String> {
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!("scale {scale} is not a finite positive number"));
    }
    find(name)
        .map(|b| b.scaled(scale))
        .ok_or_else(|| format!("unknown benchmark: {name}"))
}

impl Frontend for BuiltinIsa {
    fn resolve(name: &str, scale: f64) -> Result<Loaded<Self>, String> {
        Ok(find_scaled(name, scale)?.load())
    }

    fn approx_len(name: &str, scale: f64) -> Result<u64, String> {
        Ok(find_scaled(name, scale)?.approx_len())
    }
}

impl Frontend for RiscIsa {
    fn resolve(name: &str, scale: f64) -> Result<Loaded<Self>, String> {
        let loaded = find_scaled(name, scale)?.load();
        let program = RiscProgram::encode_program(&loaded.program).ok_or_else(|| {
            format!("benchmark {name} uses instructions outside the risc encoding")
        })?;
        Ok(Loaded {
            name: loaded.name,
            program,
            memory: loaded.memory,
        })
    }

    fn approx_len(name: &str, scale: f64) -> Result<u64, String> {
        // The encoding is 1:1 with the built-in program, so the length
        // model carries over; still reject non-encodable workloads here so
        // both entry points agree on which names this frontend accepts.
        Self::resolve(name, scale)?;
        Ok(find_scaled(name, scale)?.approx_len())
    }
}

impl Frontend for TraceIsa {
    fn resolve(name: &str, _scale: f64) -> Result<Loaded<Self>, String> {
        let program = TraceProgram::load(Path::new(name))
            .map_err(|e| format!("cannot load trace {name}: {e}"))?;
        Ok(Loaded {
            name: name.to_string(),
            program,
            memory: Memory::new(),
        })
    }

    fn approx_len(name: &str, scale: f64) -> Result<u64, String> {
        Ok(Self::resolve(name, scale)?.program.len())
    }
}

/// The subset of the default suite whose assembled programs fit the
/// compact RISC binary encoding (no FP opcodes, immediates within field
/// widths) at default scale.
pub fn risc_suite() -> Vec<Benchmark> {
    suite()
        .into_iter()
        .filter(|b| RiscProgram::encode_program(&b.load().program).is_some())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_isa::Cpu;

    #[test]
    fn builtin_resolve_matches_direct_load() {
        let via_trait = BuiltinIsa::resolve("chase-1", 0.05).unwrap();
        let direct = find("chase-1").unwrap().scaled(0.05).load();
        assert_eq!(via_trait.name, direct.name);
        assert_eq!(via_trait.program, direct.program);
        assert_eq!(
            BuiltinIsa::approx_len("chase-1", 0.05).unwrap(),
            find("chase-1").unwrap().scaled(0.05).approx_len()
        );
        assert!(BuiltinIsa::resolve("no-such", 1.0).is_err());
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(BuiltinIsa::resolve("chase-1", scale).is_err(), "{scale}");
            assert!(RiscIsa::approx_len("chase-1", scale).is_err(), "{scale}");
        }
    }

    #[test]
    fn risc_suite_is_nonempty_and_resolves() {
        let subset = risc_suite();
        assert!(
            !subset.is_empty(),
            "at least one suite kernel must fit the risc encoding"
        );
        for bench in &subset {
            RiscIsa::resolve(bench.name(), 0.01).unwrap();
        }
        // FP-heavy kernels are expected to fall outside the compact set.
        assert!(RiscIsa::resolve("fpchain-1", 0.01).is_err());
        assert!(RiscIsa::approx_len("fpchain-1", 0.01).is_err());
    }

    #[test]
    fn risc_resolution_replays_builtin_stream() {
        let bench = &risc_suite()[0];
        let name = bench.name().to_string();
        let b = BuiltinIsa::resolve(&name, 0.01).unwrap();
        let r = RiscIsa::resolve(&name, 0.01).unwrap();
        assert_eq!(
            RiscIsa::approx_len(&name, 0.01).unwrap(),
            BuiltinIsa::approx_len(&name, 0.01).unwrap()
        );

        let mut bc = Cpu::new();
        let mut bm = b.memory.clone();
        let mut rc = RiscIsa::new_cpu();
        let mut rm = r.memory.clone();
        while !bc.halted() {
            let want = BuiltinIsa::step(&mut bc, &b.program, &mut bm).unwrap();
            let got = RiscIsa::step(&mut rc, &r.program, &mut rm).unwrap();
            assert_eq!(want, got);
        }
        assert!(RiscIsa::halted(&rc));
    }

    #[test]
    fn trace_resolution_round_trips_a_recorded_stream() {
        let b = BuiltinIsa::resolve("loopy-1", 0.001).unwrap();
        let mut cpu = Cpu::new();
        let mut mem = b.memory.clone();
        let mut records = Vec::new();
        while !cpu.halted() {
            records.push(cpu.step(&b.program, &mut mem).unwrap());
        }

        let path = std::env::temp_dir().join(format!(
            "smarts_frontend_rt_{}.smartstr",
            std::process::id()
        ));
        smarts_isa::write_trace(&path, "loopy-1", &records).unwrap();
        let loaded = TraceIsa::resolve(path.to_str().unwrap(), 1.0).unwrap();
        assert_eq!(loaded.program.records(), records.as_slice());
        assert_eq!(
            TraceIsa::approx_len(path.to_str().unwrap(), 1.0).unwrap(),
            records.len() as u64
        );
        std::fs::remove_file(&path).ok();

        assert!(TraceIsa::resolve("/no/such/file.smartstr", 1.0).is_err());
    }
}
