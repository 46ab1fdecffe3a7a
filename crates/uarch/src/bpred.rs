//! Combined (bimodal + gshare with meta chooser) branch predictor, branch
//! target buffer, and return address stack — the "Combined 2K tables"
//! predictor of Table 3.

use crate::config::PredictorConfig;
use crate::lru::LruSets;
use crate::warm::StateDiff;
use smarts_isa::OpClass;

/// A fetch-time branch prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction (always `true` for unconditional transfers).
    pub taken: bool,
    /// Predicted target instruction index, when the front end can supply
    /// one (BTB hit, RAS entry, or direct target known at decode).
    pub target: Option<u64>,
}

/// A 2-bit saturating counter moved by `step` (−1, 0 or +1), without a
/// host branch on simulated data.
#[inline]
fn counter_step(counter: u8, step: i8) -> u8 {
    (counter as i8 + step).clamp(0, 3) as u8
}

/// Copies the counters of `next` over `table`, reporting each run of 64
/// that differs as store words, and steps `diff` past the table.
fn advance_counters(table: &mut [u8], next: &[u8], diff: &mut StateDiff) {
    for (k, (mine, theirs)) in table.chunks_mut(64).zip(next.chunks(64)).enumerate() {
        if mine != theirs {
            mine.copy_from_slice(theirs);
            diff.report(64 * k, |words| {
                words.extend(theirs.iter().map(|&c| c as u64))
            });
        }
    }
    diff.at += table.len();
}

/// Combined branch predictor with BTB and return address stack.
///
/// Direction prediction follows SimpleScalar's "comb" predictor: a bimodal
/// table and a gshare (global-history XOR) table of 2-bit counters, with a
/// 2-bit meta chooser selecting between them per branch. Targets come from
/// a set-associative BTB; returns pop a circular return-address stack.
///
/// The same predictor instance is updated by functional warming between
/// sampling units and consulted by the detailed front end inside them —
/// this is exactly the state that SMARTS's functional warming keeps hot.
///
/// # Examples
///
/// ```
/// use smarts_uarch::{BranchPredictor, MachineConfig};
/// use smarts_isa::OpClass;
///
/// let mut bp = BranchPredictor::new(MachineConfig::eight_way().bpred);
/// // Train a strongly-taken branch at pc 100 targeting 5.
/// for _ in 0..4 {
///     bp.update(100, OpClass::CondBranch, true, 5);
/// }
/// let p = bp.predict(100, OpClass::CondBranch, None);
/// assert!(p.taken);
/// assert_eq!(p.target, Some(5));
/// ```
#[derive(Debug)]
pub struct BranchPredictor {
    cfg: PredictorConfig,
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    meta: Vec<u8>,
    history: u64,
    history_mask: u64,
    // Keyed by pc, each way's payload word its target.
    btb: LruSets,
    ras: Vec<u64>,
    ras_top: usize,
    ras_depth: usize,
    lookups: u64,
    cond_lookups: u64,
    cond_mispredicts: u64,
}

// Field-wise, so `clone_from` copies into the tables it already has.
impl Clone for BranchPredictor {
    fn clone(&self) -> Self {
        BranchPredictor {
            bimodal: self.bimodal.clone(),
            gshare: self.gshare.clone(),
            meta: self.meta.clone(),
            btb: self.btb.clone(),
            ras: self.ras.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let BranchPredictor {
            cfg,
            bimodal,
            gshare,
            meta,
            history,
            history_mask,
            btb,
            ras,
            ras_top,
            ras_depth,
            lookups,
            cond_lookups,
            cond_mispredicts,
        } = self;
        bimodal.clone_from(&source.bimodal);
        gshare.clone_from(&source.gshare);
        meta.clone_from(&source.meta);
        btb.clone_from(&source.btb);
        ras.clone_from(&source.ras);
        (*cfg, *history, *history_mask) = (source.cfg, source.history, source.history_mask);
        (*ras_top, *ras_depth) = (source.ras_top, source.ras_depth);
        (*lookups, *cond_lookups) = (source.lookups, source.cond_lookups);
        *cond_mispredicts = source.cond_mispredicts;
    }
}

impl BranchPredictor {
    /// Creates a predictor with all counters weakly not-taken and an empty
    /// RAS.
    ///
    /// # Panics
    ///
    /// Panics if any table size is zero, not a power of two (direction
    /// tables), or the BTB geometry does not divide evenly.
    pub fn new(cfg: PredictorConfig) -> Self {
        assert!(cfg.bimodal_entries.is_power_of_two());
        assert!(cfg.gshare_entries.is_power_of_two());
        assert!(cfg.meta_entries.is_power_of_two());
        assert!(cfg.ras_entries > 0);
        assert!(cfg.btb_assoc > 0 && cfg.btb_entries.is_multiple_of(cfg.btb_assoc));
        // Block size 1: a pc is an instruction index, and with two or more
        // sets any `u64` pc's tag fits beside the one (valid) flag bit.
        let btb_sets = (cfg.btb_entries / cfg.btb_assoc) as u64;
        BranchPredictor {
            bimodal: vec![1; cfg.bimodal_entries as usize],
            gshare: vec![1; cfg.gshare_entries as usize],
            meta: vec![1; cfg.meta_entries as usize],
            history: 0,
            history_mask: (cfg.gshare_entries as u64) - 1,
            btb: LruSets::new(btb_sets, cfg.btb_assoc, 1, 1, true),
            ras: vec![0; cfg.ras_entries as usize],
            ras_top: 0,
            ras_depth: 0,
            lookups: 0,
            cond_lookups: 0,
            cond_mispredicts: 0,
            cfg,
        }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// Total prediction lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Conditional-branch direction mispredicts recorded via
    /// [`BranchPredictor::update`].
    pub fn cond_mispredicts(&self) -> u64 {
        self.cond_mispredicts
    }

    /// Conditional-branch direction misprediction ratio.
    pub fn mispredict_ratio(&self) -> f64 {
        if self.cond_lookups == 0 {
            0.0
        } else {
            self.cond_mispredicts as f64 / self.cond_lookups as f64
        }
    }

    /// Approximate bytes of backing store (direction tables, BTB keys and
    /// targets, RAS), for checkpoint footprint accounting.
    pub fn approx_bytes(&self) -> usize {
        self.bimodal.len()
            + self.gshare.len()
            + self.meta.len()
            + self.btb.approx_bytes()
            + self.ras.len() * std::mem::size_of::<u64>()
    }

    /// Appends all predictor state (direction tables, global history,
    /// BTB, RAS, statistics) as fixed-width words for the checkpoint
    /// store. One word per 2-bit counter is wasteful as raw storage, but
    /// the store delta-encodes against the previous unit and run-length
    /// compresses, so unchanged counters cost ~nothing on disk.
    /// The emitted words are *canonical* (see
    /// [`crate::Cache::save_state`]): the direction tables, history, and
    /// BTB content are behaviour-determined already; the RAS is
    /// rewritten as if its observable frames (the values successive pops
    /// would return, oldest first) were pushed into a fresh stack, so
    /// stale slots beyond the live window and the absolute rotation of
    /// the circular buffer — both unobservable — never reach the store;
    /// the statistics counters are written as zeros.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        out.extend(self.bimodal.iter().map(|&c| c as u64));
        out.extend(self.gshare.iter().map(|&c| c as u64));
        out.extend(self.meta.iter().map(|&c| c as u64));
        out.push(self.history);
        self.btb.save_state(out);
        self.save_ras(out);
    }

    /// The canonical RAS words and the (zeroed) statistics that end
    /// [`BranchPredictor::save_state`].
    fn save_ras(&self, out: &mut Vec<u64>) {
        // Gather the observable frames newest-first, then replay them
        // oldest-first through the push rule into a fresh buffer.
        let len = self.ras.len();
        let mut frames = Vec::with_capacity(self.ras_depth);
        let mut idx = self.ras_top;
        for _ in 0..self.ras_depth {
            frames.push(self.ras[idx]);
            idx = (idx + len - 1) % len;
        }
        let mut canonical = vec![0u64; len];
        let mut top = 0usize;
        for &frame in frames.iter().rev() {
            top = (top + 1) % len;
            canonical[top] = frame;
        }
        out.extend_from_slice(&canonical);
        out.extend([top as u64, self.ras_depth as u64, 0, 0, 0]);
    }

    /// Restores state written by [`BranchPredictor::save_state`] into a
    /// predictor of the same configuration. Returns the number of words
    /// consumed, or `None` (the predictor is then unusable) if `words` is
    /// too short or holds what no predictor state serializes to: a
    /// counter above 3, history beyond its mask, an impossible BTB set, a
    /// RAS position outside the stack, or nonzero statistics.
    pub fn load_state(&mut self, words: &[u64]) -> Option<usize> {
        let mut used = 0;
        let mut widest = 0;
        for table in [&mut self.bimodal, &mut self.gshare, &mut self.meta] {
            let src = words.get(used..used + table.len())?;
            for (counter, &word) in table.iter_mut().zip(src) {
                widest |= word;
                *counter = word as u8;
            }
            used += table.len();
        }
        if widest > 3 {
            return None;
        }
        self.history = *words.get(used).filter(|&&h| h <= self.history_mask)?;
        used += 1;
        used += self.btb.load_state(words.get(used..)?)?;
        let len = self.ras.len();
        self.ras.copy_from_slice(words.get(used..used + len)?);
        used += len;
        let tail = words.get(used..used + 5)?;
        let depth = usize::try_from(tail[1]).ok().filter(|&d| d <= len)?;
        if tail[0] != (depth % len) as u64 || tail[2..] != [0, 0, 0] {
            return None;
        }
        self.ras_top = depth % len;
        self.ras_depth = depth;
        Some(used + 5)
    }

    /// Makes `self`'s predictor state equal to `next`'s, reporting the
    /// store words that differ (see `WarmState::advance_to`): tables and
    /// BTB sets where they changed, the few words around them whole.
    pub(crate) fn advance_to(&mut self, next: &BranchPredictor, diff: &mut StateDiff) {
        assert_eq!(self.cfg, next.cfg, "warm states of different geometry");
        advance_counters(&mut self.bimodal, &next.bimodal, diff);
        advance_counters(&mut self.gshare, &next.gshare, diff);
        advance_counters(&mut self.meta, &next.meta, diff);
        self.history = next.history;
        diff.report(0, |words| words.push(next.history));
        diff.at += 1;
        self.btb.advance_to(&next.btb, diff);
        self.ras.copy_from_slice(&next.ras);
        self.ras_top = next.ras_top;
        self.ras_depth = next.ras_depth;
        diff.report(0, |words| next.save_ras(words));
        diff.at += self.ras.len() + 5;
    }

    #[inline]
    fn bimodal_index(&self, pc: u64) -> usize {
        // Table sizes are asserted powers of two; mask instead of modulo.
        (pc & (self.bimodal.len() as u64 - 1)) as usize
    }

    #[inline]
    fn gshare_index(&self, pc: u64) -> usize {
        ((pc ^ self.history) & self.history_mask) as usize
    }

    #[inline]
    fn meta_index(&self, pc: u64) -> usize {
        (pc & (self.meta.len() as u64 - 1)) as usize
    }

    fn direction(&self, pc: u64) -> bool {
        let use_gshare = self.meta[self.meta_index(pc)] >= 2;
        if use_gshare {
            self.gshare[self.gshare_index(pc)] >= 2
        } else {
            self.bimodal[self.bimodal_index(pc)] >= 2
        }
    }

    /// Predicts the outcome of the control instruction at `pc`
    /// (an instruction index).
    ///
    /// `direct_target` supplies the statically-known target of direct
    /// jumps and calls (available at decode in a real front end); indirect
    /// transfers fall back to the BTB, and returns to the RAS. For calls,
    /// `pc + 1` is pushed onto the RAS.
    ///
    /// Non-control classes return a fall-through (not-taken) prediction.
    pub fn predict(&mut self, pc: u64, class: OpClass, direct_target: Option<u64>) -> Prediction {
        self.lookups += 1;
        match class {
            OpClass::CondBranch => {
                self.cond_lookups += 1;
                let taken = self.direction(pc);
                let target = if taken { self.btb.lookup(pc) } else { None };
                Prediction { taken, target }
            }
            OpClass::Jump => {
                let target = direct_target.or_else(|| self.btb.lookup(pc));
                Prediction {
                    taken: true,
                    target,
                }
            }
            OpClass::Call => {
                self.ras_push(pc + 1);
                let target = direct_target.or_else(|| self.btb.lookup(pc));
                Prediction {
                    taken: true,
                    target,
                }
            }
            OpClass::Return => {
                let target = self.ras_pop();
                Prediction {
                    taken: true,
                    target,
                }
            }
            _ => Prediction {
                taken: false,
                target: None,
            },
        }
    }

    /// Trains the predictor with the resolved outcome of the control
    /// instruction at `pc`.
    ///
    /// Functional warming calls this for every control instruction during
    /// fast-forwarding; detailed simulation calls it at commit.
    #[inline]
    pub fn update(&mut self, pc: u64, class: OpClass, taken: bool, target: u64) {
        match class {
            OpClass::CondBranch => {
                let bi = self.bimodal_index(pc);
                let gi = self.gshare_index(pc);
                let mi = self.meta_index(pc);
                // One load of each counter decides the prediction, the
                // mispredict and all three updates; nothing below branches
                // on a counter or on `taken` except the BTB fill.
                let (bimodal, gshare, meta) = (self.bimodal[bi], self.gshare[gi], self.meta[mi]);
                let bimodal_correct = (bimodal >= 2) == taken;
                let gshare_correct = (gshare >= 2) == taken;
                let predicted_correct = if meta >= 2 {
                    gshare_correct
                } else {
                    bimodal_correct
                };
                self.cond_mispredicts += !predicted_correct as u64;
                // Meta chooser trains toward whichever component was
                // right, and stays put when they agree.
                self.meta[mi] = counter_step(meta, gshare_correct as i8 - bimodal_correct as i8);
                let step = 2 * taken as i8 - 1;
                self.bimodal[bi] = counter_step(bimodal, step);
                self.gshare[gi] = counter_step(gshare, step);
                self.history = ((self.history << 1) | taken as u64) & self.history_mask;
                if taken {
                    self.btb.store(pc, target);
                }
            }
            OpClass::Jump | OpClass::Call => {
                self.btb.store(pc, target);
            }
            OpClass::Return => {}
            _ => {}
        }
    }

    /// Trains the predictor from an architectural execution record during
    /// functional warming: performs the RAS push/pop side effects of
    /// calls/returns and updates direction/target state.
    #[inline]
    pub fn warm(&mut self, pc: u64, class: OpClass, taken: bool, target: u64) {
        match class {
            OpClass::Call => {
                self.ras_push(pc + 1);
                self.btb.store(pc, target);
            }
            OpClass::Return => {
                let _ = self.ras_pop();
            }
            _ => self.update(pc, class, taken, target),
        }
    }

    fn ras_push(&mut self, return_pc: u64) {
        self.ras_top = (self.ras_top + 1) % self.ras.len();
        self.ras[self.ras_top] = return_pc;
        if self.ras_depth < self.ras.len() {
            self.ras_depth += 1;
        }
    }

    fn ras_pop(&mut self) -> Option<u64> {
        if self.ras_depth == 0 {
            return None;
        }
        let value = self.ras[self.ras_top];
        self.ras_top = (self.ras_top + self.ras.len() - 1) % self.ras.len();
        self.ras_depth -= 1;
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn predictor() -> BranchPredictor {
        BranchPredictor::new(MachineConfig::eight_way().bpred)
    }

    #[test]
    fn cold_predictor_predicts_not_taken() {
        let mut bp = predictor();
        let p = bp.predict(10, OpClass::CondBranch, None);
        assert!(!p.taken);
        assert_eq!(p.target, None);
    }

    #[test]
    fn trains_to_taken_with_btb_target() {
        let mut bp = predictor();
        for _ in 0..4 {
            bp.update(10, OpClass::CondBranch, true, 77);
        }
        let p = bp.predict(10, OpClass::CondBranch, None);
        assert!(p.taken);
        assert_eq!(p.target, Some(77));
    }

    #[test]
    fn trains_back_to_not_taken() {
        let mut bp = predictor();
        for _ in 0..4 {
            bp.update(10, OpClass::CondBranch, true, 77);
        }
        for _ in 0..4 {
            bp.update(10, OpClass::CondBranch, false, 0);
        }
        assert!(!bp.predict(10, OpClass::CondBranch, None).taken);
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        let mut bp = predictor();
        // Pattern T,N,T,N… is unlearnable by bimodal but trivial for
        // gshare once history differentiates the two contexts.
        let mut correct = 0;
        let mut total = 0;
        let mut taken = true;
        for i in 0..400 {
            let p = bp.predict(42, OpClass::CondBranch, None);
            if i >= 200 {
                total += 1;
                if p.taken == taken {
                    correct += 1;
                }
            }
            bp.update(42, OpClass::CondBranch, taken, 7);
            taken = !taken;
        }
        assert!(correct as f64 / total as f64 > 0.95, "{correct}/{total}");
    }

    #[test]
    fn call_return_pair_uses_ras() {
        let mut bp = predictor();
        // Call at pc 5 → RAS holds 6; return should predict 6.
        let _ = bp.predict(5, OpClass::Call, Some(100));
        let p = bp.predict(200, OpClass::Return, None);
        assert!(p.taken);
        assert_eq!(p.target, Some(6));
        // Empty RAS yields no target.
        let p2 = bp.predict(201, OpClass::Return, None);
        assert_eq!(p2.target, None);
    }

    #[test]
    fn nested_calls_unwind_in_order() {
        let mut bp = predictor();
        let _ = bp.predict(1, OpClass::Call, Some(10));
        let _ = bp.predict(11, OpClass::Call, Some(20));
        assert_eq!(bp.predict(21, OpClass::Return, None).target, Some(12));
        assert_eq!(bp.predict(12, OpClass::Return, None).target, Some(2));
    }

    #[test]
    fn ras_overflows_circularly() {
        let cfg = PredictorConfig {
            ras_entries: 2,
            ..MachineConfig::eight_way().bpred
        };
        let mut bp = BranchPredictor::new(cfg);
        let _ = bp.predict(1, OpClass::Call, None);
        let _ = bp.predict(2, OpClass::Call, None);
        let _ = bp.predict(3, OpClass::Call, None); // overwrites oldest
        assert_eq!(bp.predict(10, OpClass::Return, None).target, Some(4));
        assert_eq!(bp.predict(11, OpClass::Return, None).target, Some(3));
        // The overwritten frame returns a stale value (circular stack).
        assert_eq!(bp.predict(12, OpClass::Return, None).target, None);
    }

    #[test]
    fn direct_jump_uses_decode_target() {
        let mut bp = predictor();
        let p = bp.predict(9, OpClass::Jump, Some(55));
        assert!(p.taken);
        assert_eq!(p.target, Some(55));
    }

    #[test]
    fn indirect_jump_uses_btb() {
        let mut bp = predictor();
        assert_eq!(bp.predict(9, OpClass::Jump, None).target, None);
        bp.update(9, OpClass::Jump, true, 123);
        assert_eq!(bp.predict(9, OpClass::Jump, None).target, Some(123));
    }

    #[test]
    fn warm_matches_update_for_branches() {
        let mut a = predictor();
        let mut b = predictor();
        for i in 0..50 {
            let taken = i % 3 != 0;
            a.update(7, OpClass::CondBranch, taken, 99);
            b.warm(7, OpClass::CondBranch, taken, 99);
        }
        assert_eq!(
            a.predict(7, OpClass::CondBranch, None),
            b.predict(7, OpClass::CondBranch, None)
        );
    }

    #[test]
    fn mispredict_ratio_tracks_training() {
        let mut bp = predictor();
        for _ in 0..100 {
            let _ = bp.predict(3, OpClass::CondBranch, None);
            bp.update(3, OpClass::CondBranch, true, 4);
        }
        // After warm-up nearly everything predicts correctly.
        assert!(bp.mispredict_ratio() < 0.1);
    }
}
