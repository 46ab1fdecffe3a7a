//! The functional execution engine: SMARTS's fast-forwarding substrate.

use smarts_isa::{BuiltinIsa, ExecRecord, Isa, Memory};
use smarts_uarch::{TraceSource, WarmState};
use smarts_workloads::Loaded;
use std::fmt;

/// Owns the architectural state of one benchmark execution and exposes
/// the three ways SMARTS consumes instructions:
///
/// * [`FunctionalEngine::fast_forward`] — plain functional simulation
///   (architectural state only),
/// * [`FunctionalEngine::fast_forward_warming`] — functional simulation
///   plus functional warming of a [`WarmState`],
/// * the [`TraceSource`] impl — feeding the detailed pipeline, which
///   performs its own (timed) updates of the warm state.
///
/// `position` counts instructions consumed from the dynamic stream in any
/// of the three modes, so the sampling driver can align sampling units on
/// absolute stream offsets.
///
/// The engine is generic over its instruction-set frontend `I` and
/// monomorphizes per frontend — the step loop has no dynamic dispatch.
/// The default frontend is the built-in one, so `FunctionalEngine` in
/// type position keeps meaning exactly what it did before frontends
/// existed.
pub struct FunctionalEngine<I: Isa = BuiltinIsa> {
    cpu: I::Cpu,
    memory: Memory,
    program: I::Program,
}

/// A resumable snapshot of an engine's architectural state.
///
/// Cloning is cheap: memory pages are shared copy-on-write, so a snapshot
/// costs O(pages) reference bumps. Unit checkpoints carry one to jump
/// straight to a sampling unit without fast-forwarding.
pub struct EngineSnapshot<I: Isa = BuiltinIsa> {
    cpu: I::Cpu,
    memory: Memory,
}

impl<I: Isa> Clone for FunctionalEngine<I> {
    fn clone(&self) -> Self {
        FunctionalEngine {
            cpu: self.cpu.clone(),
            memory: self.memory.clone(),
            program: self.program.clone(),
        }
    }
}

impl<I: Isa> fmt::Debug for FunctionalEngine<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FunctionalEngine")
            .field("isa", &I::NAME)
            .field("cpu", &self.cpu)
            .finish_non_exhaustive()
    }
}

impl<I: Isa> Clone for EngineSnapshot<I> {
    fn clone(&self) -> Self {
        EngineSnapshot {
            cpu: self.cpu.clone(),
            memory: self.memory.clone(),
        }
    }
}

impl<I: Isa> fmt::Debug for EngineSnapshot<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineSnapshot")
            .field("isa", &I::NAME)
            .field("cpu", &self.cpu)
            .finish_non_exhaustive()
    }
}

impl<I: Isa> FunctionalEngine<I> {
    /// Starts an engine at the entry point of a loaded benchmark.
    pub fn new(loaded: Loaded<I>) -> Self {
        FunctionalEngine {
            cpu: I::new_cpu(),
            memory: loaded.memory,
            program: loaded.program,
        }
    }

    /// Captures the current architectural state.
    pub fn snapshot(&self) -> EngineSnapshot<I> {
        EngineSnapshot {
            cpu: self.cpu.clone(),
            memory: self.memory.clone(),
        }
    }

    /// Resumes an engine from a snapshot of the same program.
    pub fn from_snapshot(program: I::Program, snapshot: EngineSnapshot<I>) -> Self {
        FunctionalEngine {
            cpu: snapshot.cpu,
            memory: snapshot.memory,
            program,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &I::Program {
        &self.program
    }

    /// Instructions consumed from the dynamic stream so far.
    pub fn position(&self) -> u64 {
        I::retired(&self.cpu)
    }

    /// Whether the program has executed its `halt`.
    pub fn finished(&self) -> bool {
        I::halted(&self.cpu)
    }

    /// Read-only access to the architectural CPU state.
    pub fn cpu(&self) -> &I::Cpu {
        &self.cpu
    }

    /// Functionally executes until `position() >= target` (or the program
    /// halts), updating architectural state only. Returns the number of
    /// instructions executed.
    pub fn fast_forward(&mut self, target: u64) -> u64 {
        // The budget is computed once and the halt flag is the block
        // loop's condition, so nothing per-instruction re-reads `target`.
        let before = I::retired(&self.cpu);
        let remaining = target.saturating_sub(before);
        let _ = I::step_block(
            &mut self.cpu,
            &self.program,
            &mut self.memory,
            remaining,
            |_| {},
        );
        I::retired(&self.cpu) - before
    }

    /// Functionally executes until `position() >= target` (or halt),
    /// applying functional warming to `warm` for every instruction, in
    /// stream order, straight from the interpreter's block loop. Returns
    /// the number of instructions executed.
    pub fn fast_forward_warming(&mut self, target: u64, warm: &mut WarmState) -> u64 {
        let before = I::retired(&self.cpu);
        let remaining = target.saturating_sub(before);
        let _ = I::step_block(
            &mut self.cpu,
            &self.program,
            &mut self.memory,
            remaining,
            |rec| warm.warm_record(rec),
        );
        I::retired(&self.cpu) - before
    }
}

impl<I: Isa> EngineSnapshot<I> {
    /// Assembles a snapshot from decoded parts (the checkpoint-store
    /// load path).
    pub fn from_parts(cpu: I::Cpu, memory: Memory) -> Self {
        EngineSnapshot { cpu, memory }
    }

    /// The architectural CPU state.
    pub fn cpu(&self) -> &I::Cpu {
        &self.cpu
    }

    /// The architectural memory state.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Bytes of memory backing store currently allocated to this
    /// snapshot, with no copy-on-write sharing discounted.
    pub fn memory_resident_bytes(&self) -> usize {
        self.memory.resident_bytes()
    }
}

impl<I: Isa> TraceSource for FunctionalEngine<I> {
    fn next_record(&mut self) -> Option<ExecRecord> {
        if I::halted(&self.cpu) {
            return None;
        }
        I::step(&mut self.cpu, &self.program, &mut self.memory).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_isa::{RiscIsa, TraceIsa, TraceProgram};
    use smarts_uarch::MachineConfig;
    use smarts_workloads::{find, Frontend, LoadedBenchmark};

    fn tiny() -> LoadedBenchmark {
        find("loopy-1").unwrap().scaled(0.01).load()
    }

    #[test]
    fn fast_forward_advances_to_target() {
        let mut engine = FunctionalEngine::new(tiny());
        let executed = engine.fast_forward(1000);
        assert_eq!(executed, 1000);
        assert_eq!(engine.position(), 1000);
        assert!(!engine.finished());
    }

    #[test]
    fn fast_forward_stops_at_halt() {
        let mut engine = FunctionalEngine::new(tiny());
        engine.fast_forward(u64::MAX - 1);
        assert!(engine.finished());
        let at_halt = engine.position();
        assert_eq!(engine.fast_forward(u64::MAX - 1), 0);
        assert_eq!(engine.position(), at_halt);
    }

    #[test]
    fn warming_mode_advances_state_identically() {
        let cfg = MachineConfig::eight_way();
        let mut warm = WarmState::new(&cfg);
        let mut plain = FunctionalEngine::new(tiny());
        let mut warming = FunctionalEngine::new(tiny());
        plain.fast_forward(5000);
        warming.fast_forward_warming(5000, &mut warm);
        // Architectural state is identical regardless of warming.
        assert_eq!(plain.cpu(), warming.cpu());
        // And the warm state saw I-side traffic.
        assert!(warm.hierarchy.l1i().accesses() > 0);
    }

    #[test]
    fn trace_source_counts_toward_position() {
        let mut engine = FunctionalEngine::new(tiny());
        engine.fast_forward(100);
        let rec = engine.next_record().unwrap();
        assert_eq!(engine.position(), 101);
        assert_eq!(rec.pc, rec.pc); // record is well-formed
    }

    #[test]
    fn risc_engine_warms_identically_to_builtin() {
        let name = "loopy-1";
        let cfg = MachineConfig::eight_way();
        let mut bw = WarmState::new(&cfg);
        let mut rw = WarmState::new(&cfg);
        let mut be: FunctionalEngine =
            FunctionalEngine::new(BuiltinIsa::resolve(name, 0.01).unwrap());
        let mut re: FunctionalEngine<RiscIsa> =
            FunctionalEngine::new(RiscIsa::resolve(name, 0.01).unwrap());
        be.fast_forward_warming(5_000, &mut bw);
        re.fast_forward_warming(5_000, &mut rw);
        assert_eq!(be.position(), re.position());
        let mut a = Vec::new();
        let mut b = Vec::new();
        bw.save_state(&mut a);
        rw.save_state(&mut b);
        assert_eq!(a, b, "warm state diverged between frontends");
    }

    #[test]
    fn trace_engine_replays_recorded_stream() {
        let mut source = FunctionalEngine::new(tiny());
        let mut records = Vec::new();
        while let Some(rec) = source.next_record() {
            records.push(rec);
        }
        let loaded = smarts_workloads::Loaded::<TraceIsa> {
            name: "tiny".into(),
            program: TraceProgram::from_records("tiny", records.clone()),
            memory: Memory::new(),
        };
        let mut replay = FunctionalEngine::new(loaded);
        let mut got = Vec::new();
        while let Some(rec) = replay.next_record() {
            got.push(rec);
        }
        assert_eq!(got, records);
        assert!(replay.finished());
        assert_eq!(replay.position(), records.len() as u64);
    }
}
