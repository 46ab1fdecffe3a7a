//! The warmable long-history microarchitectural state, and functional
//! warming of it.

use crate::bpred::BranchPredictor;
use crate::config::MachineConfig;
use crate::hierarchy::CacheHierarchy;
use crate::tlb::Tlb;
use smarts_isa::ExecRecord;

/// The long-history microarchitectural state SMARTS keeps warm between
/// sampling units: cache hierarchy, TLBs, and branch predictor.
///
/// During *functional warming* (Section 3.1), [`WarmState::warm_record`]
/// is applied to every instruction of the fast-forwarded stream, exactly
/// as SMARTSim maintains "the state of L1/L2 I/D caches, TLBs, and branch
/// predictors in a fashion similar to `sim-cache` and `sim-bpred`".
/// During detailed simulation the same structures are accessed (and thus
/// updated) by the pipeline, so there is a single source of truth for the
/// warmable state.
///
/// # Examples
///
/// ```
/// use smarts_uarch::{MachineConfig, WarmState};
///
/// let cfg = MachineConfig::eight_way();
/// let warm = WarmState::new(&cfg);
/// assert_eq!(warm.hierarchy.l1d().accesses(), 0);
/// ```
#[derive(Debug)]
pub struct WarmState {
    /// L1 I/D + unified L2 caches.
    pub hierarchy: CacheHierarchy,
    /// Instruction TLB.
    pub itlb: Tlb,
    /// Data TLB.
    pub dtlb: Tlb,
    /// Combined branch predictor, BTB, and RAS.
    pub bpred: BranchPredictor,
    last_fetch_line: u64,
    line_bytes: u64,
    // Shift fast path when the I-line size is a power of two (always for
    // the Table 3 machines): the per-instruction line computation in the
    // warming hot loop becomes one shift instead of a 64-bit divide.
    line_shift: Option<u32>,
}

/// `clone_from` copies field by field into the arrays `self` already
/// has, so a state recycled as the next unit's checkpoint allocates
/// nothing (a derived `clone_from` would reallocate every table). Any
/// geometry may be copied over any other.
impl Clone for WarmState {
    fn clone(&self) -> Self {
        WarmState {
            hierarchy: self.hierarchy.clone(),
            itlb: self.itlb.clone(),
            dtlb: self.dtlb.clone(),
            bpred: self.bpred.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let WarmState {
            hierarchy,
            itlb,
            dtlb,
            bpred,
            last_fetch_line,
            line_bytes,
            line_shift,
        } = self;
        hierarchy.clone_from(&source.hierarchy);
        itlb.clone_from(&source.itlb);
        dtlb.clone_from(&source.dtlb);
        bpred.clone_from(&source.bpred);
        (*last_fetch_line, *line_bytes) = (source.last_fetch_line, source.line_bytes);
        *line_shift = source.line_shift;
    }
}

/// The walk of [`WarmState::advance_to`] over the serialization: where the
/// structure being compared starts, and where the changed runs go.
pub(crate) struct StateDiff<'a> {
    pub(crate) at: usize,
    scratch: Vec<u64>,
    changed: &'a mut dyn FnMut(usize, &[u64]),
}

impl StateDiff<'_> {
    /// Reports the words `fill` appends as the new content `offset` words
    /// into the current structure.
    pub(crate) fn report(&mut self, offset: usize, fill: impl FnOnce(&mut Vec<u64>)) {
        self.scratch.clear();
        fill(&mut self.scratch);
        (self.changed)(self.at + offset, &self.scratch);
    }
}

impl WarmState {
    /// Creates cold (empty) warmable state for a machine configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        Self::with_hierarchy(CacheHierarchy::new(cfg), cfg)
    }

    fn with_hierarchy(hierarchy: CacheHierarchy, cfg: &MachineConfig) -> Self {
        WarmState {
            hierarchy,
            itlb: Tlb::new(cfg.itlb),
            dtlb: Tlb::new(cfg.dtlb),
            bpred: BranchPredictor::new(cfg.bpred),
            last_fetch_line: u64::MAX,
            line_bytes: cfg.l1i.line_bytes,
            line_shift: cfg
                .l1i
                .line_bytes
                .is_power_of_two()
                .then(|| cfg.l1i.line_bytes.trailing_zeros()),
        }
    }

    /// The I-cache line number of a fetch address.
    #[inline]
    pub(crate) fn fetch_line(&self, fetch_addr: u64) -> u64 {
        match self.line_shift {
            Some(shift) => fetch_addr >> shift,
            None => fetch_addr / self.line_bytes,
        }
    }

    /// Applies functional warming for one architecturally-executed
    /// instruction: touches the I-side for its fetch, the D-side for its
    /// data access (if any), and trains the branch predictor for control
    /// instructions.
    #[inline(always)]
    pub fn warm_record(&mut self, rec: &ExecRecord) {
        // Instruction side: one cache/TLB access per fetched line, as an
        // in-order front end would generate.
        let fetch_addr = rec.fetch_addr();
        let line = self.fetch_line(fetch_addr);
        if line != self.last_fetch_line {
            self.last_fetch_line = line;
            self.itlb.access(fetch_addr);
            let _ = self.hierarchy.access_instr(fetch_addr);
        }

        // Data side.
        if let Some(mem) = rec.mem {
            self.dtlb.access(mem.addr);
            let _ = self.hierarchy.access_data(mem.addr, mem.is_store);
        }

        // Control side.
        let class = rec.class();
        if class.is_control() {
            self.bpred.warm(rec.pc, class, rec.taken, rec.next_pc);
        }
    }

    /// Approximate bytes of warmable state (caches, TLBs, predictor),
    /// for checkpoint footprint accounting.
    pub fn approx_bytes(&self) -> usize {
        self.hierarchy.approx_bytes()
            + self.itlb.approx_bytes()
            + self.dtlb.approx_bytes()
            + self.bpred.approx_bytes()
    }

    /// Appends all warmable state as fixed-width words for the checkpoint
    /// store: hierarchy, both TLBs, the branch predictor, and the
    /// last-fetched-line filter (part of the warming stream's dynamic
    /// state — dropping it would double-count an I-access on resume).
    /// Config-derived fields are not written:
    /// [`WarmState::from_state`] derives them from the same config. The
    /// word count is a pure function of the machine geometry.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        self.hierarchy.save_state(out);
        self.itlb.save_state(out);
        self.dtlb.save_state(out);
        self.bpred.save_state(out);
        out.push(self.last_fetch_line);
    }

    /// Makes `self` serialize as `next` does, calling
    /// `changed(offset, words)` in ascending offset order with runs of
    /// [`WarmState::save_state`] words that cover every position where
    /// the two serializations differ. A cache, TLB or BTB set whose ways
    /// are equal is neither expanded nor reported, so a checkpoint writer
    /// that keeps the previous unit's state pays per changed set, not per
    /// word.
    ///
    /// # Panics
    ///
    /// Panics if the two states are of different machine geometry.
    pub fn advance_to(&mut self, next: &WarmState, mut changed: impl FnMut(usize, &[u64])) {
        let diff = &mut StateDiff {
            at: 0,
            scratch: Vec::new(),
            changed: &mut changed,
        };
        self.hierarchy.advance_to(&next.hierarchy, diff);
        self.itlb.advance_to(&next.itlb, diff);
        self.dtlb.advance_to(&next.dtlb, diff);
        self.bpred.advance_to(&next.bpred, diff);
        self.last_fetch_line = next.last_fetch_line;
        diff.report(0, |words| words.push(next.last_fetch_line));
    }

    /// Builds the warm state of machine `cfg` holding the state written
    /// by [`WarmState::save_state`], every structure packed straight from
    /// its words. Returns the state and the number of words consumed, or
    /// `None` if `words` is too short or holds a set, counter or stack
    /// position no warm state serializes to.
    pub fn from_state(cfg: &MachineConfig, words: &[u64]) -> Option<(Self, usize)> {
        let (hierarchy, mut used) = CacheHierarchy::from_state(cfg, words)?;
        let mut warm = Self::with_hierarchy(hierarchy, cfg);
        used += warm.itlb.load_state(words.get(used..)?)?;
        used += warm.dtlb.load_state(words.get(used..)?)?;
        used += warm.bpred.load_state(words.get(used..)?)?;
        warm.last_fetch_line = *words.get(used)?;
        Some((warm, used + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_isa::{Inst, MemAccess, OpClass, Opcode, Program};

    fn record(
        pc: u64,
        inst: Inst,
        mem: Option<MemAccess>,
        taken: bool,
        next_pc: u64,
    ) -> ExecRecord {
        ExecRecord::new(pc, inst, mem, taken, next_pc)
    }

    #[test]
    fn warming_touches_icache_per_line() {
        let cfg = MachineConfig::eight_way();
        let mut warm = WarmState::new(&cfg);
        // 16 sequential instructions share a 64-byte line (4 B each).
        for pc in 0..16 {
            warm.warm_record(&record(pc, Inst::nop(), None, false, pc + 1));
        }
        assert_eq!(warm.hierarchy.l1i().accesses(), 1);
        // Crossing the line boundary produces a second access.
        warm.warm_record(&record(16, Inst::nop(), None, false, 17));
        assert_eq!(warm.hierarchy.l1i().accesses(), 2);
    }

    #[test]
    fn warming_touches_dcache_and_dtlb() {
        let cfg = MachineConfig::eight_way();
        let mut warm = WarmState::new(&cfg);
        let ld = Inst::new(Opcode::Ld, 4, 5, 0, 0);
        let access = MemAccess {
            addr: 0x9000,
            size: 8,
            is_store: false,
        };
        warm.warm_record(&record(0, ld, Some(access), false, 1));
        assert_eq!(warm.hierarchy.l1d().accesses(), 1);
        assert_eq!(warm.dtlb.accesses(), 1);
        assert!(warm.hierarchy.l1d_resident(0x9000));
    }

    #[test]
    fn warming_trains_branch_predictor() {
        let cfg = MachineConfig::eight_way();
        let mut warm = WarmState::new(&cfg);
        let br = Inst::new(Opcode::Bne, 0, 4, 5, 40);
        for _ in 0..8 {
            warm.warm_record(&record(7, br, None, true, 40));
        }
        let p = warm.bpred.predict(7, OpClass::CondBranch, None);
        assert!(p.taken);
        assert_eq!(p.target, Some(40));
    }

    #[test]
    fn warming_is_idempotent_per_line_within_a_basic_block() {
        // Consecutive same-line fetches produce one access (the in-order
        // front-end model), so warming cost is per-line, not per-instr.
        let cfg = MachineConfig::eight_way();
        let mut warm = WarmState::new(&cfg);
        for pc in 0..160u64 {
            warm.warm_record(&record(pc, Inst::nop(), None, false, pc + 1));
        }
        // 160 × 4 B = 640 B = 10 lines.
        assert_eq!(warm.hierarchy.l1i().accesses(), 10);
    }

    #[test]
    fn warming_marks_store_lines_dirty_for_later_writeback() {
        let cfg = MachineConfig::eight_way();
        let mut warm = WarmState::new(&cfg);
        let st = Inst::new(Opcode::Sd, 0, 5, 6, 0);
        let access = MemAccess {
            addr: 0xA000,
            size: 8,
            is_store: true,
        };
        warm.warm_record(&record(0, st, Some(access), false, 1));
        // Evict the dirty line through its set; the eviction reports
        // write-back traffic, proving warming carried the dirty bit.
        let out1 = warm.hierarchy.access_data(0xA000 + 0x4000, false);
        let out2 = warm.hierarchy.access_data(0xA000 + 0x8000, false);
        assert!(
            out1.l2_accesses + out2.l2_accesses >= 3,
            "a write-back occurred"
        );
    }

    #[test]
    fn warm_state_approx_bytes_is_plausible() {
        // One 8-byte key per cache line, TLB entry and BTB way (plus its
        // target) and a byte per counter: what every instruction walks
        // and every unit clones. A field added per way blows the ceiling.
        for (cfg, ceiling_kib) in [
            (MachineConfig::eight_way(), 200),
            (MachineConfig::sixteen_way(), 400),
        ] {
            let bytes = WarmState::new(&cfg).approx_bytes();
            assert!(bytes > 100 * 1024, "{}: {bytes} B", cfg.name);
            assert!(bytes < ceiling_kib * 1024, "{}: {bytes} B", cfg.name);
        }
    }

    /// Warms `warm` with `count` pseudo-random records drawn from `seed`:
    /// fetches, loads and stores over a footprint larger than the L2,
    /// branches, calls and returns.
    fn warm_randomly(warm: &mut WarmState, mut seed: u64, count: usize) {
        for _ in 0..count {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let pc = seed % 50_000;
            let addr = 0x10_0000 + (seed >> 20) % (8 << 20);
            let mem = |is_store| {
                Some(MemAccess {
                    addr,
                    size: 8,
                    is_store,
                })
            };
            let (inst, mem, taken, next_pc) = match seed >> 61 {
                0 | 1 => (Inst::new(Opcode::Ld, 4, 5, 0, 0), mem(false), false, pc + 1),
                2 => (Inst::new(Opcode::Sd, 0, 5, 6, 0), mem(true), false, pc + 1),
                3 | 4 => {
                    let taken = seed & 1 == 1;
                    let target = seed % 997;
                    let next = if taken { target } else { pc + 1 };
                    (
                        Inst::new(Opcode::Bne, 0, 4, 5, target as i64),
                        None,
                        taken,
                        next,
                    )
                }
                5 => (Inst::new(Opcode::Jal, 1, 0, 0, 77), None, true, 77),
                6 => (Inst::new(Opcode::Jalr, 0, 1, 0, 0), None, true, pc / 2),
                _ => (Inst::nop(), None, false, pc + 1),
            };
            warm.warm_record(&record(pc, inst, mem, taken, next_pc));
        }
    }

    fn words(warm: &WarmState) -> Vec<u64> {
        let mut out = Vec::new();
        warm.save_state(&mut out);
        out
    }

    #[test]
    fn clone_from_is_clone_word_for_word() {
        // A spare with a history of its own — or of another geometry —
        // copied over by `clone_from` serializes exactly as a fresh
        // clone of the source does.
        let eight = MachineConfig::eight_way();
        let sixteen = MachineConfig::sixteen_way();
        for (seed, source_cfg, spare_cfg) in [
            (1, &eight, &eight),
            (2, &eight, &sixteen),
            (3, &sixteen, &eight),
            (4, &sixteen, &sixteen),
        ] {
            let mut source = WarmState::new(source_cfg);
            warm_randomly(&mut source, seed, 40_000);
            let mut spare = WarmState::new(spare_cfg);
            warm_randomly(&mut spare, seed + 100, 25_000);
            spare.clone_from(&source);
            assert_eq!(words(&spare), words(&source.clone()), "seed {seed}");
            assert_eq!(spare.approx_bytes(), source.approx_bytes());
            // And the copy goes on warming exactly as the source does.
            warm_randomly(&mut source, seed + 200, 5_000);
            warm_randomly(&mut spare, seed + 200, 5_000);
            assert_eq!(words(&spare), words(&source), "seed {seed} after warming");
            assert_eq!(
                spare.hierarchy.l2().misses(),
                source.hierarchy.l2().misses()
            );
        }
    }

    #[test]
    fn warm_state_reflects_fetch_addressing() {
        // The warmed I-line corresponds to the TEXT_BASE-relative address.
        let cfg = MachineConfig::eight_way();
        let mut warm = WarmState::new(&cfg);
        warm.warm_record(&record(0, Inst::nop(), None, false, 1));
        assert!(warm.hierarchy.l1i().probe(Program::fetch_addr(0)));
    }
}
