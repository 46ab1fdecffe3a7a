//! Scan-based reference implementation of the detailed timing model.
//!
//! [`ScanPipeline`] is the original per-cycle-scan out-of-order model:
//! every cycle it walks the whole RUU once in `writeback` (looking for
//! issued entries whose `complete_cycle` has arrived) and once in `issue`
//! (re-evaluating every waiting entry's operand readiness), and it never
//! skips a cycle — a stalled machine burns one `step_cycle` per tick.
//!
//! The shipped `smarts_uarch::Pipeline` replaces those scans with
//! producer→consumer wakeup lists, a completion list keyed on
//! `complete_cycle`, and a next-interesting-cycle bound that jumps dead
//! cycles in one step. Its contract is *bit-identical* cycle counts,
//! committed-instruction counts, activity counters, and warm-state
//! updates for any trace — and this module is the oracle for that
//! contract: the cross-model property tests
//! (`crates/uarch/tests/cross_model.rs`) replay SplitMix64-random
//! programs through both models and assert equality, and
//! `tests/engine_oracle.rs` replays stored sampling units through both.
//!
//! This model is test-only code: it is built from the public
//! `smarts_uarch` surface alone, and each test that compares against it
//! includes this file as a module. The shipped library has one timing
//! engine.

use std::collections::VecDeque;

use smarts_energy::ActivityCounters;
use smarts_isa::{OpClass, Opcode};
use smarts_uarch::{MachineConfig, Prediction, TraceSource, UnitMeasurement, WarmState};

const NO_PRODUCER: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Waiting,
    Issued,
    Completed,
}

#[derive(Debug, Clone)]
struct RobEntry {
    seq: u64,
    rec: smarts_isa::ExecRecord,
    srcs: [u64; 2],
    state: EntryState,
    complete_cycle: u64,
    mispredicted: bool,
}

#[derive(Debug, Clone)]
struct IfqEntry {
    rec: smarts_isa::ExecRecord,
    avail: u64,
    mispredicted: bool,
}

#[derive(Debug, Clone, Copy)]
enum SbState {
    Waiting,
    InFlight { done: u64 },
}

#[derive(Debug, Clone, Copy)]
struct SbEntry {
    addr: u64,
    size: u8,
    state: SbState,
}

#[derive(Debug, Clone, Copy)]
enum LoadPlan {
    Forward,
    Blocked,
    CacheAccess,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FuPool {
    IntAlu = 0,
    IntMulDiv = 1,
    FpAlu = 2,
    FpMulDiv = 3,
}

/// The scan-based out-of-order pipeline (reference model).
///
/// Same `run` surface and same simulated machine as the shipped
/// `Pipeline`; see the module docs for why it exists. State accumulates
/// across successive [`ScanPipeline::run`] calls exactly like the
/// production pipeline's.
#[derive(Debug, Clone)]
pub struct ScanPipeline {
    cfg: MachineConfig,
    cycle: u64,
    next_seq: u64,
    rob: VecDeque<RobEntry>,
    ifq: VecDeque<IfqEntry>,
    reg_producer: [u64; 64],
    lsq_used: u32,
    store_buffer: VecDeque<SbEntry>,
    mshrs: Vec<u64>,
    fus: [Vec<u64>; 4],
    ports_used: u32,
    fetch_stall_until: u64,
    pending_redirect: bool,
    wrong_path_pc: Option<u64>,
    halted: bool,
    source_done: bool,
    pulled: u64,
}

impl ScanPipeline {
    /// Creates an empty (cold) pipeline for the given machine.
    pub fn new(cfg: &MachineConfig) -> Self {
        ScanPipeline {
            cfg: cfg.clone(),
            cycle: 0,
            next_seq: 0,
            rob: VecDeque::with_capacity(cfg.ruu_size as usize),
            ifq: VecDeque::with_capacity(cfg.ifq_size as usize),
            reg_producer: [NO_PRODUCER; 64],
            lsq_used: 0,
            store_buffer: VecDeque::with_capacity(cfg.store_buffer as usize),
            mshrs: vec![0; cfg.mshrs as usize],
            fus: [
                vec![0; cfg.int_alu_units as usize],
                vec![0; cfg.int_muldiv_units as usize],
                vec![0; cfg.fp_alu_units as usize],
                vec![0; cfg.fp_muldiv_units as usize],
            ],
            ports_used: 0,
            fetch_stall_until: 0,
            pending_redirect: false,
            wrong_path_pc: None,
            halted: false,
            source_done: false,
            pulled: 0,
        }
    }

    /// Runs detailed simulation until `commits` more instructions commit
    /// (or the stream ends / the program halts). Semantics identical to
    /// the shipped `Pipeline::run`.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline makes no forward progress for an extended
    /// period (an internal deadlock — a model bug, never a property of
    /// the simulated program).
    pub fn run(
        &mut self,
        warm: &mut WarmState,
        source: &mut dyn TraceSource,
        commits: u64,
        measure: bool,
    ) -> UnitMeasurement {
        let start_cycle = self.cycle;
        let start_pulled = self.pulled;
        let mut counters = ActivityCounters::default();
        let mut committed_total = 0u64;
        let mut idle_cycles = 0u64;

        while committed_total < commits && !self.halted {
            if self.source_done && self.rob.is_empty() && self.ifq.is_empty() {
                break;
            }
            let committed = self.step_cycle(
                warm,
                source,
                measure,
                &mut counters,
                commits - committed_total,
            );
            committed_total += committed;
            if committed == 0 {
                idle_cycles += 1;
                assert!(
                    idle_cycles < 1_000_000,
                    "pipeline deadlock at cycle {}: rob={} ifq={} sb={} redirect={}",
                    self.cycle,
                    self.rob.len(),
                    self.ifq.len(),
                    self.store_buffer.len(),
                    self.pending_redirect
                );
            } else {
                idle_cycles = 0;
            }
        }

        UnitMeasurement {
            cycles: self.cycle - start_cycle,
            instructions: committed_total,
            pulled: self.pulled - start_pulled,
            counters,
        }
    }

    fn step_cycle(
        &mut self,
        warm: &mut WarmState,
        source: &mut dyn TraceSource,
        measure: bool,
        counters: &mut ActivityCounters,
        max_commit: u64,
    ) -> u64 {
        self.ports_used = 0;
        let committed = self.commit(warm, measure, counters, max_commit);
        self.drain_store_buffer(warm, measure, counters);
        self.writeback(measure, counters);
        self.issue(warm, measure, counters);
        self.dispatch(measure, counters);
        self.fetch(warm, source, measure, counters);
        self.cycle += 1;
        committed
    }

    // ---- commit ---------------------------------------------------------

    fn commit(
        &mut self,
        warm: &mut WarmState,
        measure: bool,
        counters: &mut ActivityCounters,
        max_commit: u64,
    ) -> u64 {
        let budget = (self.cfg.commit_width as u64).min(max_commit);
        let mut n = 0;
        while n < budget {
            let Some(head) = self.rob.front() else { break };
            if head.state != EntryState::Completed || head.complete_cycle > self.cycle {
                break;
            }
            let class = head.rec.class();
            if class == OpClass::Store {
                if self.store_buffer.len() >= self.cfg.store_buffer as usize {
                    break; // store-buffer overflow stalls commit
                }
                let mem = head.rec.mem.expect("store has a memory access");
                self.store_buffer.push_back(SbEntry {
                    addr: mem.addr,
                    size: mem.size,
                    state: SbState::Waiting,
                });
                if measure {
                    counters.store_buffer_ops += 1;
                }
            }
            let head = self.rob.pop_front().expect("head checked above");
            if class.is_control() {
                warm.bpred
                    .update(head.rec.pc, class, head.rec.taken, head.rec.next_pc);
                if measure {
                    counters.bpred_updates += 1;
                }
            }
            if class.is_mem() {
                self.lsq_used -= 1;
            }
            if class == OpClass::Halt {
                self.halted = true;
            }
            if measure {
                counters.commits += 1;
            }
            n += 1;
            if self.halted {
                break;
            }
        }
        n
    }

    // ---- store buffer ----------------------------------------------------

    fn drain_store_buffer(
        &mut self,
        warm: &mut WarmState,
        measure: bool,
        counters: &mut ActivityCounters,
    ) {
        // Retire finished stores in order from the head.
        while let Some(front) = self.store_buffer.front() {
            match front.state {
                SbState::InFlight { done } if done <= self.cycle => {
                    self.store_buffer.pop_front();
                }
                _ => break,
            }
        }
        // Start at most one waiting store per cycle (single write port on
        // the buffer), if a data-cache port and — on a miss — an MSHR are
        // available. In-flight stores overlap through the MSHRs.
        if self.ports_used >= self.cfg.l1d_ports {
            return;
        }
        let cycle = self.cycle;
        let Some(entry) = self
            .store_buffer
            .iter_mut()
            .find(|e| matches!(e.state, SbState::Waiting))
        else {
            return;
        };
        let resident = warm.hierarchy.l1d_resident(entry.addr);
        if !resident && !Self::mshr_available(&self.mshrs, cycle) {
            return;
        }
        let res = warm.hierarchy.access_data(entry.addr, true);
        self.ports_used += 1;
        if !res.l1_hit {
            Self::mshr_allocate(&mut self.mshrs, cycle, cycle + res.latency);
        }
        entry.state = SbState::InFlight {
            done: cycle + res.latency,
        };
        if measure {
            counters.l1d_accesses += 1;
            counters.l2_accesses += res.l2_accesses;
            counters.mem_accesses += res.mem_accesses;
        }
    }

    fn mshr_available(mshrs: &[u64], cycle: u64) -> bool {
        mshrs.iter().any(|&release| release <= cycle)
    }

    fn mshr_allocate(mshrs: &mut [u64], cycle: u64, until: u64) {
        if let Some(slot) = mshrs.iter_mut().find(|release| **release <= cycle) {
            *slot = until;
        }
    }

    // ---- writeback -------------------------------------------------------

    fn writeback(&mut self, measure: bool, counters: &mut ActivityCounters) {
        let cycle = self.cycle;
        let mut redirect_at: Option<u64> = None;
        for entry in self.rob.iter_mut() {
            if entry.state == EntryState::Issued && entry.complete_cycle <= cycle {
                entry.state = EntryState::Completed;
                if measure {
                    counters.window_wakeups += 1;
                    if entry.rec.inst.defs().is_some() {
                        counters.regfile_writes += 1;
                    }
                }
                if entry.mispredicted {
                    if measure {
                        counters.branch_mispredicts += 1;
                    }
                    redirect_at = Some(
                        redirect_at
                            .unwrap_or(0)
                            .max(entry.complete_cycle + self.cfg.bpred.mispred_penalty),
                    );
                }
            }
        }
        if let Some(resume) = redirect_at {
            self.fetch_stall_until = self.fetch_stall_until.max(resume);
            self.pending_redirect = false;
            self.wrong_path_pc = None;
        }
    }

    // ---- issue -----------------------------------------------------------

    fn entry_ready(&self, idx: usize) -> bool {
        let front_seq = self.rob.front().map_or(self.next_seq, |e| e.seq);
        let entry = &self.rob[idx];
        entry.srcs.iter().all(|&src| {
            if src == NO_PRODUCER || src < front_seq {
                return true;
            }
            let producer = &self.rob[(src - front_seq) as usize];
            producer.state == EntryState::Completed && producer.complete_cycle <= self.cycle
        })
    }

    fn load_plan(&self, idx: usize) -> LoadPlan {
        let mem = self.rob[idx].rec.mem.expect("load has a memory access");
        let (a0, a1) = (mem.addr, mem.addr + mem.size as u64);
        // Youngest older overlapping store in the window wins.
        for j in (0..idx).rev() {
            let other = &self.rob[j];
            if other.rec.class() != OpClass::Store {
                continue;
            }
            let om = other.rec.mem.expect("store has a memory access");
            let (b0, b1) = (om.addr, om.addr + om.size as u64);
            if a0 < b1 && b0 < a1 {
                return if other.state == EntryState::Completed && other.complete_cycle <= self.cycle
                {
                    LoadPlan::Forward
                } else {
                    LoadPlan::Blocked
                };
            }
        }
        // Post-commit stores still draining also forward.
        for sb in &self.store_buffer {
            let (b0, b1) = (sb.addr, sb.addr + sb.size as u64);
            if a0 < b1 && b0 < a1 {
                return LoadPlan::Forward;
            }
        }
        LoadPlan::CacheAccess
    }

    fn fu_for(&self, class: OpClass) -> Option<(FuPool, u64, bool)> {
        let lat = &self.cfg.latencies;
        match class {
            OpClass::IntAlu
            | OpClass::CondBranch
            | OpClass::Jump
            | OpClass::Call
            | OpClass::Return => Some((FuPool::IntAlu, lat.int_alu, true)),
            OpClass::IntMul => Some((FuPool::IntMulDiv, lat.int_mul, true)),
            OpClass::IntDiv => Some((FuPool::IntMulDiv, lat.int_div, false)),
            OpClass::FpAlu => Some((FuPool::FpAlu, lat.fp_alu, true)),
            OpClass::FpMul => Some((FuPool::FpMulDiv, lat.fp_mul, true)),
            OpClass::FpDiv => Some((FuPool::FpMulDiv, lat.fp_div, false)),
            _ => None,
        }
    }

    fn issue(&mut self, warm: &mut WarmState, measure: bool, counters: &mut ActivityCounters) {
        let mut issued = 0u32;
        let cycle = self.cycle;
        for idx in 0..self.rob.len() {
            if issued >= self.cfg.issue_width {
                break;
            }
            if self.rob[idx].state != EntryState::Waiting || !self.entry_ready(idx) {
                continue;
            }
            let class = self.rob[idx].rec.class();
            let n_srcs = self.rob[idx].rec.inst.uses().iter().flatten().count() as u64;

            let complete_cycle = match class {
                OpClass::Load => match self.load_plan(idx) {
                    LoadPlan::Blocked => continue,
                    LoadPlan::Forward => {
                        if measure {
                            counters.lsq_searches += 1;
                        }
                        cycle + 1
                    }
                    LoadPlan::CacheAccess => {
                        if self.ports_used >= self.cfg.l1d_ports {
                            continue;
                        }
                        let addr = self.rob[idx].rec.mem.expect("load").addr;
                        let resident = warm.hierarchy.l1d_resident(addr);
                        if !resident && !Self::mshr_available(&self.mshrs, cycle) {
                            continue;
                        }
                        let tlb_hit = warm.dtlb.access(addr);
                        let res = warm.hierarchy.access_data(addr, false);
                        self.ports_used += 1;
                        if !res.l1_hit {
                            Self::mshr_allocate(&mut self.mshrs, cycle, cycle + res.latency);
                        }
                        let mut latency = res.latency;
                        if !tlb_hit {
                            latency += self.cfg.dtlb.miss_penalty;
                        }
                        if measure {
                            counters.lsq_searches += 1;
                            counters.dtlb_accesses += 1;
                            counters.l1d_accesses += 1;
                            counters.l2_accesses += res.l2_accesses;
                            counters.mem_accesses += res.mem_accesses;
                        }
                        cycle + latency
                    }
                },
                OpClass::Store => {
                    // Stores "execute" by computing address + reading data;
                    // the memory write happens post-commit from the store
                    // buffer. The D-TLB is consulted at execute time.
                    let addr = self.rob[idx].rec.mem.expect("store").addr;
                    let tlb_hit = warm.dtlb.access(addr);
                    if measure {
                        counters.dtlb_accesses += 1;
                    }
                    let penalty = if tlb_hit {
                        0
                    } else {
                        self.cfg.dtlb.miss_penalty
                    };
                    cycle + 1 + penalty
                }
                OpClass::Nop | OpClass::Halt => cycle + 1,
                _ => {
                    let (pool, latency, pipelined) =
                        self.fu_for(class).expect("execution class has a unit");
                    let units = &mut self.fus[pool as usize];
                    let Some(unit) = units.iter_mut().find(|busy| **busy <= cycle) else {
                        continue; // structural hazard
                    };
                    *unit = if pipelined {
                        cycle + 1
                    } else {
                        cycle + latency
                    };
                    if measure {
                        match class {
                            OpClass::IntMul => counters.int_mul_ops += 1,
                            OpClass::IntDiv => counters.int_div_ops += 1,
                            OpClass::FpAlu => counters.fp_alu_ops += 1,
                            OpClass::FpMul => counters.fp_mul_ops += 1,
                            OpClass::FpDiv => counters.fp_div_ops += 1,
                            _ => counters.int_alu_ops += 1,
                        }
                    }
                    cycle + latency
                }
            };

            let entry = &mut self.rob[idx];
            entry.state = EntryState::Issued;
            entry.complete_cycle = complete_cycle;
            issued += 1;
            if measure {
                counters.window_issues += 1;
                counters.regfile_reads += n_srcs;
            }
        }
    }

    // ---- dispatch ----------------------------------------------------------

    fn dispatch(&mut self, measure: bool, counters: &mut ActivityCounters) {
        let mut n = 0;
        while n < self.cfg.decode_width {
            let Some(front) = self.ifq.front() else { break };
            if front.avail > self.cycle {
                break;
            }
            if self.rob.len() >= self.cfg.ruu_size as usize {
                break;
            }
            let class = front.rec.class();
            if class.is_mem() && self.lsq_used >= self.cfg.lsq_size {
                break;
            }
            let ifq_entry = self.ifq.pop_front().expect("front checked above");
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut srcs = [NO_PRODUCER; 2];
            for (slot, used) in srcs.iter_mut().zip(ifq_entry.rec.inst.uses()) {
                if let Some(r) = used {
                    *slot = self.reg_producer[r.flat()];
                }
            }
            if let Some(def) = ifq_entry.rec.inst.defs() {
                self.reg_producer[def.flat()] = seq;
            }
            if class.is_mem() {
                self.lsq_used += 1;
            }
            self.rob.push_back(RobEntry {
                seq,
                rec: ifq_entry.rec,
                srcs,
                state: EntryState::Waiting,
                complete_cycle: 0,
                mispredicted: ifq_entry.mispredicted,
            });
            if measure {
                counters.decodes += 1;
                counters.renames += 1;
            }
            n += 1;
        }
    }

    // ---- fetch ---------------------------------------------------------------

    fn fetch(
        &mut self,
        warm: &mut WarmState,
        source: &mut dyn TraceSource,
        measure: bool,
        counters: &mut ActivityCounters,
    ) {
        if self.pending_redirect {
            self.fetch_wrong_path(warm, measure, counters);
            return;
        }
        if self.fetch_stall_until > self.cycle || self.halted || self.source_done {
            return;
        }
        let line_bytes = self.cfg.l1i.line_bytes;
        let mut fetched = 0u32;
        let mut taken_seen = 0u32;
        let mut current_line = u64::MAX;

        while fetched < self.cfg.fetch_width && self.ifq.len() < self.cfg.ifq_size as usize {
            let Some(rec) = source.next_record() else {
                self.source_done = true;
                break;
            };
            self.pulled += 1;
            let fetch_addr = rec.fetch_addr();
            let line = fetch_addr / line_bytes;
            let mut avail = self.cycle;
            if line != current_line {
                current_line = line;
                let tlb_hit = warm.itlb.access(fetch_addr);
                let res = warm.hierarchy.access_instr(fetch_addr);
                if measure {
                    counters.itlb_accesses += 1;
                    counters.l1i_accesses += 1;
                    counters.l2_accesses += res.l2_accesses;
                    counters.mem_accesses += res.mem_accesses;
                }
                let mut delay = 0;
                if !tlb_hit {
                    delay += self.cfg.itlb.miss_penalty;
                }
                if !res.l1_hit {
                    // Extra cycles beyond the pipelined L1 hit latency.
                    delay += res.latency - self.cfg.l1i.latency;
                }
                if delay > 0 {
                    avail = self.cycle + delay;
                    self.fetch_stall_until = avail;
                }
            }
            if measure {
                counters.fetches += 1;
            }

            let class = rec.class();
            let mut mispredicted = false;
            let mut predicted_taken = false;
            let mut wrong_pred = Prediction {
                taken: false,
                target: None,
            };
            if class.is_control() {
                let direct_target = match rec.inst.op {
                    Opcode::Jal => Some(rec.inst.imm as u64),
                    _ => None,
                };
                let pred = warm.bpred.predict(rec.pc, class, direct_target);
                if measure {
                    counters.bpred_lookups += 1;
                    counters.btb_lookups += 1;
                }
                let correct = if class == OpClass::CondBranch {
                    pred.taken == rec.taken && (!rec.taken || pred.target == Some(rec.next_pc))
                } else {
                    pred.target == Some(rec.next_pc)
                };
                mispredicted = !correct;
                predicted_taken = pred.taken;
                wrong_pred = pred;
            }

            self.ifq.push_back(IfqEntry {
                rec,
                avail,
                mispredicted,
            });
            fetched += 1;

            if mispredicted {
                // The front end now fetches the wrong path: no further
                // correct-path instructions until the branch resolves.
                self.pending_redirect = true;
                if self.cfg.model_wrong_path {
                    self.wrong_path_pc = Some(wrong_path_start(&rec, wrong_pred));
                }
                break;
            }
            if predicted_taken {
                taken_seen += 1;
                if taken_seen >= self.cfg.bpred.predictions_per_cycle {
                    break;
                }
            }
            if self.fetch_stall_until > self.cycle {
                break; // line miss: later instructions arrive with the line
            }
        }
    }

    /// Pursues the wrong path after a fetched misprediction: sequential
    /// fetch from the predicted (wrong) pc, touching the I-TLB and
    /// I-cache only.
    fn fetch_wrong_path(
        &mut self,
        warm: &mut WarmState,
        measure: bool,
        counters: &mut ActivityCounters,
    ) {
        let Some(mut pc) = self.wrong_path_pc else {
            return;
        };
        if self.fetch_stall_until > self.cycle {
            return;
        }
        let line_bytes = self.cfg.l1i.line_bytes;
        let mut current_line = u64::MAX;
        for _ in 0..self.cfg.fetch_width {
            let fetch_addr = smarts_isa::Program::fetch_addr(pc);
            let line = fetch_addr / line_bytes;
            if line != current_line {
                current_line = line;
                let tlb_hit = warm.itlb.access(fetch_addr);
                let res = warm.hierarchy.access_instr(fetch_addr);
                if measure {
                    counters.itlb_accesses += 1;
                    counters.l1i_accesses += 1;
                    counters.l2_accesses += res.l2_accesses;
                    counters.mem_accesses += res.mem_accesses;
                }
                let mut delay = 0;
                if !tlb_hit {
                    delay += self.cfg.itlb.miss_penalty;
                }
                if !res.l1_hit {
                    delay += res.latency - self.cfg.l1i.latency;
                }
                if delay > 0 {
                    // The wrong path stalls on its own misses, exactly
                    // like correct-path fetch.
                    self.fetch_stall_until = self.cycle + delay;
                    pc += 1;
                    break;
                }
            }
            if measure {
                counters.fetches += 1;
            }
            pc += 1;
        }
        self.wrong_path_pc = Some(pc);
    }
}

/// The first instruction index of the predicted-but-wrong path.
fn wrong_path_start(rec: &smarts_isa::ExecRecord, pred: Prediction) -> u64 {
    match pred.target {
        // Predicted taken toward a concrete (wrong or stale) target.
        Some(target) if pred.taken => target,
        // Predicted not-taken (or no target available): fall through.
        _ => rec.pc + 1,
    }
}
