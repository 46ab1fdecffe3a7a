//! Trace-driven out-of-order superscalar timing model, event-driven.
//!
//! The pipeline replays the correct-path [`ExecRecord`] stream produced by
//! the functional CPU through a cycle-accurate model of the Table 3
//! machines: fetch with branch prediction, in-order dispatch into a
//! register update unit (RUU) and load/store queue, dataflow-ordered
//! issue to typed functional units, a post-commit store buffer draining
//! through MSHRs, and in-order commit.
//!
//! Earlier revisions re-scanned the whole RUU every cycle (once in
//! writeback looking for due completions, once in issue re-evaluating
//! operand readiness) and stepped every cycle even when the machine was
//! provably stalled. This implementation is event-driven with the *same*
//! cycle-level semantics, bit-identical to the scan model the tests keep
//! as an oracle (`crates/uarch/tests/oracles/scan.rs`):
//!
//! - **Wakeup lists** — each in-flight producer keeps an intrusive list
//!   of the consumers waiting on it; completion walks the list and moves
//!   consumers whose last operand arrived into a ready queue ordered by
//!   sequence number (the scan's oldest-first issue order).
//! - **Completion events** — issued entries sit in a min-heap keyed on
//!   `(complete_cycle, seq)`; writeback pops exactly the due entries
//!   instead of scanning the window.
//! - **Next-event jump** — when a cycle is provably dead (nothing to
//!   commit, issue, complete, drain, dispatch, or fetch), the clock jumps
//!   straight to the earliest pending event (completion, store-buffer
//!   drain, MSHR release, IFQ-entry availability, or fetch refill)
//!   instead of burning one `step_cycle` per stalled tick.
//!
//! Wrong-path instructions are modelled as lost fetch bandwidth: after a
//! misprediction is fetched, the front end supplies nothing until the
//! branch resolves plus the refill penalty. The paper (Section 3.1, citing
//! Cain et al.) argues wrong-path effects on CPI are minimal; our Table 5
//! analogue quantifies the residual bias this leaves.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::bpred::Prediction;
use crate::config::MachineConfig;
use crate::warm::WarmState;
use smarts_energy::ActivityCounters;
use smarts_isa::{ExecRecord, Inst, OpClass, Opcode};

/// A supplier of correct-path execution records.
///
/// Implemented by the SMARTS driver (wrapping the functional CPU) and by
/// closures for tests:
///
/// ```
/// use smarts_uarch::TraceSource;
/// use smarts_isa::ExecRecord;
///
/// let mut records: Vec<ExecRecord> = vec![];
/// let mut source = move || records.pop();
/// let _: Option<ExecRecord> = TraceSource::next_record(&mut source);
/// ```
pub trait TraceSource {
    /// Produces the next correct-path record, or `None` at end of stream.
    fn next_record(&mut self) -> Option<ExecRecord>;
}

impl<F> TraceSource for F
where
    F: FnMut() -> Option<ExecRecord>,
{
    fn next_record(&mut self) -> Option<ExecRecord> {
        self()
    }
}

/// Measurement of one detailed-simulation interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UnitMeasurement {
    /// Cycles elapsed during the interval.
    pub cycles: u64,
    /// Instructions committed during the interval.
    pub instructions: u64,
    /// Records pulled from the trace source (fetched, possibly not yet
    /// committed when the interval ended).
    pub pulled: u64,
    /// Activity for energy accounting (all-zero when the interval was run
    /// without measurement, e.g. detailed warming).
    pub counters: ActivityCounters,
}

impl UnitMeasurement {
    /// Cycles per committed instruction; 0 when nothing committed.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

const NO_PRODUCER: u64 = u64::MAX;
/// Terminator for the intrusive consumer lists (`seq << 1 | slot` links).
const NO_LINK: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Waiting,
    Issued,
    Completed,
}

/// One in-flight instruction, from fetch to commit. Fetch writes the
/// record and the two fields after it; dispatch initialises the rest,
/// which nothing reads while the entry is still in the fetch queue.
#[derive(Debug, Clone)]
struct Entry {
    rec: ExecRecord,
    /// First cycle at which the entry may dispatch.
    avail: u64,
    mispredicted: bool,
    state: EntryState,
    complete_cycle: u64,
    /// Unsatisfied source operands (0..=2); the entry enters the ready
    /// queue when this reaches zero.
    pending: u8,
    /// Head of the intrusive list of consumers waiting on this entry's
    /// result, encoded as `consumer_seq << 1 | src_slot`; [`NO_LINK`]
    /// terminates.
    consumer_head: u64,
    /// Per-source-slot continuation of the producer's consumer list this
    /// entry is threaded onto.
    next_consumer: [u64; 2],
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

/// The out-of-order pipeline state for one detailed-simulation episode.
///
/// A `Pipeline` starts empty (the cold-pipeline condition detailed
/// warming repairs) and accumulates state across successive
/// [`Pipeline::run`] calls, so a SMARTS sampling unit is expressed as a
/// warming `run` (unmeasured) followed by a measuring `run` on the same
/// pipeline. Long-history state lives in the [`WarmState`] passed to each
/// call, never in the pipeline itself.
#[derive(Debug, Clone)]
pub struct Pipeline {
    cfg: MachineConfig,
    cycle: u64,
    /// The fetch queue and the RUU share one ring: fetch order is dispatch
    /// order and nothing fetched is ever squashed, so an instruction keeps
    /// one sequence number — and one slot, `seq & mask` — from fetch to
    /// commit. `head_seq..next_seq` is the RUU, `next_seq..fetch_seq` the
    /// fetch queue; the ring holds both at their configured sizes.
    window: Box<[Entry]>,
    mask: u64,
    head_seq: u64,
    next_seq: u64,
    fetch_seq: u64,
    reg_producer: [u64; 64],
    lsq_used: u32,
    store_buffer: VecDeque<SbEntry>,
    mshrs: Vec<u64>,
    /// Cached `min(mshrs)`: the earliest cycle at which some MSHR is
    /// free, so the common no-free-MSHR probe is O(1) and the next-event
    /// jump knows when a stalled store can start.
    mshr_min_release: u64,
    fus: [Vec<u64>; 4],
    ports_used: u32,
    fetch_stall_until: u64,
    pending_redirect: bool,
    // When wrong-path modelling is on: the next wrong-path fetch pc
    // (instruction index) the front end will pursue until the redirect.
    wrong_path_pc: Option<u64>,
    halted: bool,
    source_done: bool,
    pulled: u64,
    /// Waiting entries whose operands are all available, sorted by seq
    /// (= the scan model's oldest-first issue order). Entries that fail a
    /// structural check (port, FU, MSHR, blocked load) stay queued. At
    /// most a window's worth and usually a handful, so a sorted vector
    /// beats a tree: no node traffic, and issue compacts it in place.
    ready: Vec<u64>,
    /// Issued entries awaiting writeback, keyed `(complete_cycle, seq)`.
    completions: BinaryHeap<Reverse<(u64, u64)>>,
    skipped_cycles: u64,
    /// First cycle at which the dead-cycle check runs again after it
    /// last found work (see the backoff note in [`Pipeline::run`]).
    next_skip_check: u64,
}

/// Cycles to wait before re-trying the dead-cycle check after it found
/// work at the current cycle.
const SKIP_RECHECK: u64 = 4;

impl Pipeline {
    /// Creates an empty (cold) pipeline for the given machine.
    pub fn new(cfg: &MachineConfig) -> Self {
        let slots = (cfg.ruu_size as usize + cfg.ifq_size as usize).next_power_of_two();
        Pipeline {
            cfg: cfg.clone(),
            cycle: 0,
            window: vec![
                Entry {
                    rec: ExecRecord::new(0, Inst::nop(), None, false, 0),
                    avail: 0,
                    mispredicted: false,
                    state: EntryState::Waiting,
                    complete_cycle: 0,
                    pending: 0,
                    consumer_head: NO_LINK,
                    next_consumer: [NO_LINK; 2],
                };
                slots
            ]
            .into_boxed_slice(),
            mask: slots as u64 - 1,
            head_seq: 0,
            next_seq: 0,
            fetch_seq: 0,
            reg_producer: [NO_PRODUCER; 64],
            lsq_used: 0,
            store_buffer: VecDeque::with_capacity(cfg.store_buffer as usize),
            mshrs: vec![0; cfg.mshrs as usize],
            mshr_min_release: 0,
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
            ready: Vec::with_capacity(cfg.ruu_size as usize),
            completions: BinaryHeap::with_capacity(cfg.ruu_size as usize),
            skipped_cycles: 0,
            next_skip_check: 0,
        }
    }

    /// The machine configuration this pipeline models.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current cycle count (monotonic across `run` calls).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether the trace source reported end-of-stream.
    pub fn source_done(&self) -> bool {
        self.source_done
    }

    /// Cycles advanced by the next-event jump instead of being stepped
    /// (a subset of [`Pipeline::cycle`]; diagnostic for tests and
    /// benchmarks).
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    fn entry(&self, seq: u64) -> &Entry {
        &self.window[(seq & self.mask) as usize]
    }

    fn entry_mut(&mut self, seq: u64) -> &mut Entry {
        &mut self.window[(seq & self.mask) as usize]
    }

    fn rob_len(&self) -> u64 {
        self.next_seq - self.head_seq
    }

    fn ifq_len(&self) -> u64 {
        self.fetch_seq - self.next_seq
    }

    /// Runs detailed simulation until `commits` more instructions commit
    /// (or the stream ends / the program halts).
    ///
    /// With `measure == false` the interval is *detailed warming*: all
    /// microarchitectural state (pipeline and [`WarmState`]) advances
    /// exactly as when measuring, but the returned counters stay zero.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline makes no forward progress for an extended
    /// period (an internal deadlock — indicates a model bug, never a
    /// property of the simulated program).
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
            if self.source_done && self.head_seq == self.fetch_seq {
                break;
            }
            // Dead-cycle skip, with backoff: when the check finds work at
            // the current cycle it tends to keep finding work for a few
            // cycles (drains, back-to-back issue), so re-checking every
            // cycle is pure overhead on busy code. Not checking is always
            // safe — the engine just steps those cycles normally — and a
            // deferred check forfeits at most `SKIP_RECHECK - 1` initial
            // cycles of a stall window, noise against the ~100-cycle
            // memory stalls skipping exists for.
            if self.cycle >= self.next_skip_check {
                if let Some(target) = self.skip_target(warm) {
                    self.skipped_cycles += target - self.cycle;
                    self.cycle = target;
                } else {
                    self.next_skip_check = self.cycle + SKIP_RECHECK;
                }
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
                    self.rob_len(),
                    self.ifq_len(),
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

    // ---- next-event jump -------------------------------------------------

    /// If the current cycle is provably dead — `step_cycle` would change
    /// nothing but the clock — returns the earliest future cycle at which
    /// an event can occur, to jump to directly. Returns `None` when any
    /// stage might act this cycle (conservative: correctness never
    /// depends on skipping).
    ///
    /// Every condition consulted is either an explicit future event time
    /// (collected into the minimum) or pipeline state that cannot change
    /// while no stage executes, so deadness is monotone across the whole
    /// skipped span and the jump lands exactly on the first cycle where
    /// something happens — never past a fetch refill, store drain, MSHR
    /// release, completion, or IFQ availability.
    fn skip_target(&self, warm: &WarmState) -> Option<u64> {
        let cycle = self.cycle;
        let mut next: Option<u64> = None;
        let mut note = |at: u64| {
            next = Some(next.map_or(at, |n: u64| n.min(at)));
        };

        // Issue: a ready entry that would pass its structural checks
        // means the cycle must be stepped. Entries that would `continue`
        // are re-checked against state that only a noted event can
        // change: a blocked load's older store advances via completion
        // events, an MSHR frees at `mshr_min_release`, a functional unit
        // at its busy-until cycle. (These probes are all read-only; the
        // mutating cache/TLB accesses happen only on a real issue.)
        for &seq in &self.ready {
            let entry = self.entry(seq);
            match entry.rec.class() {
                OpClass::Load => match self.load_plan(seq) {
                    // Unblocks only after its older store completes —
                    // a completion event already noted below.
                    LoadPlan::Blocked => {}
                    LoadPlan::Forward => return None,
                    LoadPlan::CacheAccess => {
                        // The cache port is free in a dead cycle
                        // (`ports_used` resets before any consumer and
                        // the store buffer started nothing).
                        let addr = entry.rec.mem.expect("load").addr;
                        if warm.hierarchy.l1d_resident(addr) || self.mshr_min_release <= cycle {
                            return None;
                        }
                        note(self.mshr_min_release);
                    }
                },
                // Stores, nops, and halts issue unconditionally.
                OpClass::Store | OpClass::Nop | OpClass::Halt => return None,
                class => {
                    let (pool, _, _) = self.fu_for(class).expect("execution class has a unit");
                    let mut earliest = u64::MAX;
                    for &busy in &self.fus[pool as usize] {
                        if busy <= cycle {
                            return None; // a unit is free: would issue
                        }
                        earliest = earliest.min(busy);
                    }
                    if earliest != u64::MAX {
                        note(earliest);
                    }
                }
            }
        }
        // Commit: a completed head would retire this cycle.
        if self.rob_len() > 0 && self.entry(self.head_seq).state == EntryState::Completed {
            return None;
        }
        // Writeback: due completions must be processed; future ones are
        // events.
        if let Some(&Reverse((due, _))) = self.completions.peek() {
            if due <= cycle {
                return None;
            }
            note(due);
        }
        // Store-buffer retire: only the front can pop (in-order drain).
        if let Some(front) = self.store_buffer.front() {
            if let SbState::InFlight { done } = front.state {
                if done <= cycle {
                    return None;
                }
                note(done);
            }
        }
        // Store-buffer start: the first waiting store launches as soon as
        // its line is resident or an MSHR frees (the cache port is always
        // free at drain time — `ports_used` resets at the top of the
        // step, before any consumer).
        if let Some(entry) = self
            .store_buffer
            .iter()
            .find(|e| matches!(e.state, SbState::Waiting))
        {
            if warm.hierarchy.l1d_resident(entry.addr) || self.mshr_min_release <= cycle {
                return None;
            }
            note(self.mshr_min_release);
        }
        // Dispatch: the front IFQ entry either dispatches now, becomes
        // available later (event), or is blocked on RUU/LSQ space — which
        // only a commit (driven by a completion event) can free.
        if self.ifq_len() > 0 {
            let front = self.entry(self.next_seq);
            if front.avail > cycle {
                note(front.avail);
            } else {
                let rob_full = self.rob_len() >= self.cfg.ruu_size as u64;
                let lsq_full = front.rec.class().is_mem() && self.lsq_used >= self.cfg.lsq_size;
                if !rob_full && !lsq_full {
                    return None;
                }
            }
        }
        // Fetch.
        if self.pending_redirect {
            if self.wrong_path_pc.is_some() {
                if self.fetch_stall_until > cycle {
                    note(self.fetch_stall_until);
                } else {
                    return None; // wrong-path fetch touches the I-side
                }
            }
            // No wrong-path modelling: the front end idles until the
            // redirect, which writeback (a completion event) delivers.
        } else if !self.halted && !self.source_done {
            if self.fetch_stall_until > cycle {
                note(self.fetch_stall_until);
            } else if self.ifq_len() < self.cfg.ifq_size as u64 {
                return None; // fetch would pull records
            }
            // IFQ full: unblocks via dispatch, handled above.
        }

        next.filter(|&target| target > cycle)
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
        while n < budget && self.rob_len() > 0 {
            let head = &self.window[(self.head_seq & self.mask) as usize];
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
            self.head_seq += 1;
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
        let Some(pos) = self
            .store_buffer
            .iter()
            .position(|e| matches!(e.state, SbState::Waiting))
        else {
            return;
        };
        let addr = self.store_buffer[pos].addr;
        let resident = warm.hierarchy.l1d_resident(addr);
        if !resident && !self.mshr_available() {
            return;
        }
        let res = warm.hierarchy.access_data(addr, true);
        self.ports_used += 1;
        if !res.l1_hit {
            self.mshr_allocate(self.cycle + res.latency);
        }
        self.store_buffer[pos].state = SbState::InFlight {
            done: self.cycle + res.latency,
        };
        if measure {
            counters.l1d_accesses += 1;
            counters.l2_accesses += res.l2_accesses;
            counters.mem_accesses += res.mem_accesses;
        }
    }

    /// Whether some MSHR is free this cycle — O(1) via the cached
    /// minimum busy-until cycle (free slots are interchangeable: any
    /// release at or before the current cycle stays free until reused).
    fn mshr_available(&self) -> bool {
        self.mshr_min_release <= self.cycle
    }

    /// Claims a free MSHR until `until`. Callers check
    /// [`Pipeline::mshr_available`] (or residency) first, so a free slot
    /// exists. Which free slot is overwritten is unobservable — all free
    /// slots remain free for every future query until reused — so the
    /// first-free choice matches the scan model bit-for-bit.
    fn mshr_allocate(&mut self, until: u64) {
        let cycle = self.cycle;
        if let Some(slot) = self.mshrs.iter_mut().find(|release| **release <= cycle) {
            *slot = until;
        }
        self.mshr_min_release = self.mshrs.iter().copied().min().unwrap_or(0);
    }

    // ---- writeback -------------------------------------------------------

    fn writeback(&mut self, measure: bool, counters: &mut ActivityCounters) {
        let cycle = self.cycle;
        let mut redirect_at: Option<u64> = None;
        while let Some(&Reverse((due, seq))) = self.completions.peek() {
            if due > cycle {
                break;
            }
            self.completions.pop();
            let mask = self.mask;
            let entry = &mut self.window[(seq & mask) as usize];
            debug_assert_eq!(entry.state, EntryState::Issued);
            entry.state = EntryState::Completed;
            if measure {
                counters.window_wakeups += 1;
                if entry.rec.dst() != 0 {
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
            // Wake the consumers waiting on this result. They are all
            // younger than the producer, hence still in the ROB.
            let mut link = std::mem::replace(&mut entry.consumer_head, NO_LINK);
            while link != NO_LINK {
                let consumer_seq = link >> 1;
                let slot = (link & 1) as usize;
                let consumer = &mut self.window[(consumer_seq & mask) as usize];
                link = consumer.next_consumer[slot];
                consumer.pending -= 1;
                if consumer.pending == 0 {
                    // Woken consumers can be older than queued entries.
                    let at = self.ready.partition_point(|&s| s < consumer_seq);
                    self.ready.insert(at, consumer_seq);
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

    fn load_plan(&self, seq: u64) -> LoadPlan {
        let mem = self.entry(seq).rec.mem.expect("load has a memory access");
        let (a0, a1) = (mem.addr, mem.addr + mem.size as u64);
        // Youngest older overlapping store in the window wins.
        for older in (self.head_seq..seq).rev() {
            let other = self.entry(older);
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
        if self.ready.is_empty() {
            return;
        }
        let mut issued = 0u32;
        let cycle = self.cycle;
        // The ready queue iterates in ascending seq = the scan model's
        // oldest-first window order; entries that fail a structural check
        // stay queued for the next cycle, consuming no issue slot —
        // exactly the scan's `continue`. Issued entries are compacted out
        // in place (`kept` trails `at`); nothing enqueues during issue.
        let mut ready = std::mem::take(&mut self.ready);
        let mut kept = 0;
        for at in 0..ready.len() {
            let seq = ready[at];
            ready[kept] = seq;
            kept += 1;
            if issued >= self.cfg.issue_width {
                continue;
            }
            debug_assert_eq!(self.entry(seq).state, EntryState::Waiting);
            let class = self.entry(seq).rec.class();

            let complete_cycle = match class {
                OpClass::Load => match self.load_plan(seq) {
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
                        let addr = self.entry(seq).rec.mem.expect("load").addr;
                        let resident = warm.hierarchy.l1d_resident(addr);
                        if !resident && !self.mshr_available() {
                            continue;
                        }
                        let tlb_hit = warm.dtlb.access(addr);
                        let res = warm.hierarchy.access_data(addr, false);
                        self.ports_used += 1;
                        if !res.l1_hit {
                            self.mshr_allocate(cycle + res.latency);
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
                    let addr = self.entry(seq).rec.mem.expect("store").addr;
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

            kept -= 1;
            let entry = self.entry_mut(seq);
            entry.state = EntryState::Issued;
            entry.complete_cycle = complete_cycle;
            let [a, b] = entry.rec.srcs();
            self.completions.push(Reverse((complete_cycle, seq)));
            issued += 1;
            if measure {
                counters.window_issues += 1;
                counters.regfile_reads += (a != 0) as u64 + (b != 0) as u64;
            }
        }
        ready.truncate(kept);
        self.ready = ready;
    }

    // ---- dispatch ----------------------------------------------------------

    fn dispatch(&mut self, measure: bool, counters: &mut ActivityCounters) {
        let mut n = 0;
        while n < self.cfg.decode_width && self.ifq_len() > 0 {
            let seq = self.next_seq;
            let front = self.entry(seq);
            if front.avail > self.cycle {
                break;
            }
            if self.rob_len() >= self.cfg.ruu_size as u64 {
                break;
            }
            let class = front.rec.class();
            if class.is_mem() && self.lsq_used >= self.cfg.lsq_size {
                break;
            }
            let (srcs, dst) = (front.rec.srcs(), front.rec.dst());
            self.next_seq += 1;
            // Resolve each source: a producer that has left the ROB (or
            // already completed) satisfies the operand immediately;
            // otherwise thread this entry onto the producer's consumer
            // list for wakeup at its completion.
            let mut next_consumer = [NO_LINK; 2];
            let mut pending = 0u8;
            for (slot, &reg) in srcs.iter().enumerate() {
                // Register 0 = no read; nothing ever produces it. A
                // producer below the head has committed.
                let src = self.reg_producer[reg as usize];
                if src == NO_PRODUCER || src < self.head_seq {
                    continue;
                }
                let producer = self.entry_mut(src);
                if producer.state != EntryState::Completed {
                    pending += 1;
                    next_consumer[slot] = producer.consumer_head;
                    producer.consumer_head = (seq << 1) | slot as u64;
                }
            }
            if dst != 0 {
                self.reg_producer[dst as usize] = seq;
            }
            if class.is_mem() {
                self.lsq_used += 1;
            }
            let entry = self.entry_mut(seq);
            entry.state = EntryState::Waiting;
            entry.pending = pending;
            entry.consumer_head = NO_LINK;
            entry.next_consumer = next_consumer;
            if pending == 0 {
                self.ready.push(seq); // the youngest entry sorts last
            }
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
        let mut fetched = 0u32;
        let mut taken_seen = 0u32;
        let mut current_line = u64::MAX;

        while fetched < self.cfg.fetch_width && self.ifq_len() < self.cfg.ifq_size as u64 {
            let Some(rec) = source.next_record() else {
                self.source_done = true;
                break;
            };
            self.pulled += 1;
            let fetch_addr = rec.fetch_addr();
            let line = warm.fetch_line(fetch_addr);
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

            let entry = self.entry_mut(self.fetch_seq);
            entry.rec = rec;
            entry.avail = avail;
            entry.mispredicted = mispredicted;
            self.fetch_seq += 1;
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
    /// I-cache only — wrong-path instructions consume fetch bandwidth and
    /// pollute the instruction-side state, but never enter the window.
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
        let mut current_line = u64::MAX;
        for _ in 0..self.cfg.fetch_width {
            let fetch_addr = smarts_isa::Program::fetch_addr(pc);
            let line = warm.fetch_line(fetch_addr);
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

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_isa::{reg, Asm, Cpu, Memory, Program};

    /// Functional CPU wrapped as a trace source.
    struct CpuSource {
        cpu: Cpu,
        mem: Memory,
        program: Program,
    }

    impl CpuSource {
        fn new(program: Program) -> Self {
            CpuSource {
                cpu: Cpu::new(),
                mem: Memory::new(),
                program,
            }
        }
    }

    impl TraceSource for CpuSource {
        fn next_record(&mut self) -> Option<ExecRecord> {
            if self.cpu.halted() {
                return None;
            }
            self.cpu.step(&self.program, &mut self.mem).ok()
        }
    }

    fn counted_loop(iters: i64) -> Program {
        let mut a = Asm::new();
        a.li(reg::T0, 0);
        a.li(reg::T1, iters);
        let top = a.label();
        a.bind(top).unwrap();
        a.addi(reg::T0, reg::T0, 1);
        a.blt(reg::T0, reg::T1, top);
        a.halt();
        a.finish().unwrap()
    }

    fn run_program(program: Program, cfg: &MachineConfig) -> UnitMeasurement {
        let mut warm = WarmState::new(cfg);
        let mut pipeline = Pipeline::new(cfg);
        let mut source = CpuSource::new(program);
        pipeline.run(&mut warm, &mut source, u64::MAX, true)
    }

    #[test]
    fn runs_simple_loop_to_halt() {
        let cfg = MachineConfig::eight_way();
        let m = run_program(counted_loop(1000), &cfg);
        // 2 setup + 2×1000 loop + 1 halt.
        assert_eq!(m.instructions, 2003);
        assert!(m.cycles > 0);
        assert!(m.cpi() > 0.1 && m.cpi() < 20.0, "cpi = {}", m.cpi());
        assert_eq!(m.counters.commits, 2003);
    }

    /// A loop whose body is `body_len` adds, either all dependent on one
    /// register or spread round-robin over eight registers.
    fn add_loop(iters: i64, body_len: u32, dependent: bool) -> Program {
        let mut a = Asm::new();
        a.li(reg::S0, 0);
        a.li(reg::S1, iters);
        let top = a.label();
        a.bind(top).unwrap();
        for i in 0..body_len {
            let r = if dependent {
                reg::T0
            } else {
                reg::T0 + (i % 8) as u8
            };
            a.addi(r, r, 1);
        }
        a.addi(reg::S0, reg::S0, 1);
        a.blt(reg::S0, reg::S1, top);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn dependent_chain_is_slower_than_independent_ops() {
        let cfg = MachineConfig::eight_way();
        // Loop bodies keep the I-cache warm so dataflow dominates.
        let m_dep = run_program(add_loop(500, 16, true), &cfg);
        let m_ind = run_program(add_loop(500, 16, false), &cfg);
        assert!(
            m_dep.cycles > m_ind.cycles * 2,
            "dep {} vs ind {}",
            m_dep.cycles,
            m_ind.cycles
        );
        // A fully dependent chain commits ~1 instruction per cycle.
        assert!(m_dep.cpi() > 0.8, "cpi = {}", m_dep.cpi());
        // Independent ops enjoy superscalar issue.
        assert!(m_ind.cpi() < 0.6, "cpi = {}", m_ind.cpi());
    }

    /// A load loop: stride 0 keeps hitting one line, a large stride misses
    /// every time. The loop body keeps the I-cache warm.
    fn load_loop(iters: i64, stride: i64) -> Program {
        let mut a = Asm::new();
        a.li(reg::S0, 0x10_0000);
        a.li(reg::S1, 0);
        a.li(reg::S2, iters);
        let top = a.label();
        a.bind(top).unwrap();
        a.ld(reg::T0, reg::S0, 0);
        a.add(reg::T1, reg::T1, reg::T0);
        a.addi(reg::S0, reg::S0, stride);
        a.addi(reg::S1, reg::S1, 1);
        a.blt(reg::S1, reg::S2, top);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn cache_misses_increase_cpi() {
        let cfg = MachineConfig::eight_way();
        // Stride of 1 MiB: distinct L2 sets, every load misses to memory.
        let m_miss = run_program(load_loop(400, 1 << 20), &cfg);
        let m_hit = run_program(load_loop(400, 0), &cfg);
        assert!(
            m_miss.cycles > m_hit.cycles * 3,
            "miss {} vs hit {}",
            m_miss.cycles,
            m_hit.cycles
        );
        assert!(m_miss.counters.mem_accesses >= 390);
    }

    #[test]
    fn store_load_forwarding_beats_cache_roundtrip() {
        let cfg = MachineConfig::eight_way();
        let mut a = Asm::new();
        a.li(reg::S0, 0x5000);
        a.li(reg::S1, 0);
        a.li(reg::S2, 500);
        let top = a.label();
        a.bind(top).unwrap();
        a.sd(reg::T0, reg::S0, 0);
        a.ld(reg::T1, reg::S0, 0); // forwarded from the store
        a.addi(reg::S1, reg::S1, 1);
        a.blt(reg::S1, reg::S2, top);
        a.halt();
        let m = run_program(a.finish().unwrap(), &cfg);
        // With forwarding, data-side traffic is the single cold-line fill
        // (mem accesses also include the handful of cold I-cache lines).
        assert!(
            m.counters.mem_accesses <= 4,
            "mem = {}",
            m.counters.mem_accesses
        );
        assert!(m.cpi() < 3.0, "cpi = {}", m.cpi());
    }

    #[test]
    fn mispredictions_cost_cycles() {
        let cfg = MachineConfig::eight_way();
        // Identical loop bodies; the inner branch is either always taken
        // (trivially predictable) or keyed to a pseudo-random bit.
        fn branchy(pseudo_random: bool) -> Program {
            let mut a = Asm::new();
            a.li(reg::S0, 0x9E3779B9);
            a.li(reg::T1, 0); // i
            a.li(reg::T2, 4000);
            a.li(reg::S2, 6364136223846793005);
            a.li(reg::S3, 1442695040888963407);
            let top = a.label();
            let skip = a.label();
            a.bind(top).unwrap();
            a.mul(reg::S0, reg::S0, reg::S2);
            a.add(reg::S0, reg::S0, reg::S3);
            if pseudo_random {
                a.srli(reg::T3, reg::S0, 63);
            } else {
                a.li(reg::T3, 1);
            }
            a.beqz(reg::T3, skip);
            a.addi(reg::T5, reg::T5, 1);
            a.bind(skip).unwrap();
            a.addi(reg::T1, reg::T1, 1);
            a.blt(reg::T1, reg::T2, top);
            a.halt();
            a.finish().unwrap()
        }

        fn run_with_bpred_stats(program: Program) -> (UnitMeasurement, f64) {
            let cfg = MachineConfig::eight_way();
            let mut warm = WarmState::new(&cfg);
            let mut pipeline = Pipeline::new(&cfg);
            let mut source = CpuSource::new(program);
            let m = pipeline.run(&mut warm, &mut source, u64::MAX, true);
            (m, warm.bpred.mispredict_ratio())
        }

        let (predictable, ratio_p) = run_with_bpred_stats(branchy(false));
        let (random, ratio_r) = run_with_bpred_stats(branchy(true));
        assert!(ratio_p < 0.02, "predictable mispredict ratio {ratio_p}");
        assert!(ratio_r > 0.10, "random mispredict ratio {ratio_r}");
        assert!(
            random.cpi() > predictable.cpi() * 1.3,
            "random cpi {} (mispred {ratio_r}) vs predictable cpi {} (mispred {ratio_p})",
            random.cpi(),
            predictable.cpi()
        );
        let _ = cfg;
    }

    #[test]
    fn warming_interval_reports_zero_counters() {
        let cfg = MachineConfig::eight_way();
        let mut warm = WarmState::new(&cfg);
        let mut pipeline = Pipeline::new(&cfg);
        let mut source = CpuSource::new(counted_loop(500));
        let warm_run = pipeline.run(&mut warm, &mut source, 300, false);
        assert_eq!(warm_run.instructions, 300);
        assert_eq!(warm_run.counters, ActivityCounters::default());
        // Continue measuring on the same pipeline.
        let measured = pipeline.run(&mut warm, &mut source, 500, true);
        assert!(measured.instructions > 0);
        assert!(measured.counters.commits > 0);
    }

    #[test]
    fn split_runs_match_single_run_cycle_count() {
        let cfg = MachineConfig::eight_way();
        let program = counted_loop(2000);

        let mut warm1 = WarmState::new(&cfg);
        let mut pipe1 = Pipeline::new(&cfg);
        let mut src1 = CpuSource::new(program.clone());
        let whole = pipe1.run(&mut warm1, &mut src1, u64::MAX, true);

        let mut warm2 = WarmState::new(&cfg);
        let mut pipe2 = Pipeline::new(&cfg);
        let mut src2 = CpuSource::new(program);
        let first = pipe2.run(&mut warm2, &mut src2, 1500, true);
        let rest = pipe2.run(&mut warm2, &mut src2, u64::MAX, true);
        assert_eq!(first.instructions, 1500);
        assert_eq!(whole.instructions, first.instructions + rest.instructions);
        assert_eq!(whole.cycles, first.cycles + rest.cycles);
    }

    #[test]
    fn halt_stops_the_pipeline() {
        let cfg = MachineConfig::eight_way();
        let mut warm = WarmState::new(&cfg);
        let mut pipeline = Pipeline::new(&cfg);
        let mut source = CpuSource::new(counted_loop(10));
        let m = pipeline.run(&mut warm, &mut source, u64::MAX, true);
        assert!(pipeline.halted);
        assert_eq!(m.instructions, 23);
        // Further runs are no-ops.
        let again = pipeline.run(&mut warm, &mut source, u64::MAX, true);
        assert_eq!(again.instructions, 0);
    }

    #[test]
    fn sixteen_way_is_no_slower_than_eight_way() {
        let program = counted_loop(3000);
        let m8 = run_program(program.clone(), &MachineConfig::eight_way());
        let m16 = run_program(program, &MachineConfig::sixteen_way());
        assert!(
            m16.cycles <= m8.cycles * 11 / 10,
            "16-way {} vs 8-way {}",
            m16.cycles,
            m8.cycles
        );
    }

    #[test]
    fn wrong_path_fetch_pollutes_icache_but_barely_moves_cpi() {
        // The Section 4.5 corroboration at unit-test scale: turning on
        // wrong-path fetch modelling adds instruction-side traffic but
        // changes CPI only marginally.
        fn run(model_wrong_path: bool) -> (UnitMeasurement, u64) {
            let mut cfg = MachineConfig::eight_way();
            cfg.model_wrong_path = model_wrong_path;
            let mut warm = WarmState::new(&cfg);
            let mut pipeline = Pipeline::new(&cfg);
            // A loop with a data-dependent (mispredicting) branch.
            let mut a = Asm::new();
            a.li(reg::S0, 0x9E3779B9);
            a.li(reg::S2, 6364136223846793005);
            a.li(reg::T1, 3000);
            let top = a.label();
            let skip = a.label();
            a.bind(top).unwrap();
            a.mul(reg::S0, reg::S0, reg::S2);
            a.srli(reg::T3, reg::S0, 63);
            a.beqz(reg::T3, skip);
            a.addi(reg::T5, reg::T5, 1);
            a.bind(skip).unwrap();
            a.addi(reg::T1, reg::T1, -1);
            a.bnez(reg::T1, top);
            a.halt();
            let mut source = CpuSource::new(a.finish().unwrap());
            let m = pipeline.run(&mut warm, &mut source, u64::MAX, true);
            (m, warm.hierarchy.l1i().accesses())
        }
        let (off, l1i_off) = run(false);
        let (on, l1i_on) = run(true);
        assert_eq!(off.instructions, on.instructions);
        assert!(l1i_on > l1i_off, "wrong-path fetch must add I-side traffic");
        let delta = (on.cpi() - off.cpi()).abs() / off.cpi();
        assert!(delta < 0.05, "wrong-path CPI delta {delta} should be small");
    }

    #[test]
    fn store_buffer_pressure_throttles_commit() {
        let cfg = MachineConfig::eight_way();
        // A burst of stores striding 1 MiB: every store misses, filling the
        // store buffer and MSHRs.
        let mut a = Asm::new();
        a.li(reg::S0, 0x100_0000);
        for i in 0..400 {
            a.sd(reg::T0, reg::S0, (i as i64) << 20);
        }
        a.halt();
        let m = run_program(a.finish().unwrap(), &cfg);
        // Store misses overlap through 8 MSHRs but still dominate runtime.
        assert!(m.cpi() > 2.0, "cpi = {}", m.cpi());
    }
}
