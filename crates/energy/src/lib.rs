//! Activity-based energy model for SMARTS energy-per-instruction (EPI)
//! estimation.
//!
//! The original SMARTSim used the Wattch 1.02 extensions to SimpleScalar,
//! which derive per-access capacitances from Cacti-style circuit models.
//! Those capacitance tables are not reproducible here, so this crate
//! substitutes an *activity-event* model: the timing model counts events
//! per microarchitectural structure ([`ActivityCounters`]), and
//! [`EnergyModel`] converts the counts into nanojoules with per-event
//! energies plus a conditionally-clocked per-cycle base cost — the same
//! structure as Wattch's "clock-gated, 10% idle" accounting style.
//!
//! What matters for reproducing the paper's EPI results is not the
//! absolute nanojoule scale but that energy varies with activity the same
//! way: EPI variation tracks — but is damped relative to — CPI variation,
//! which is why the paper's Figure 7 confidence intervals are tighter than
//! Figure 6's.
//!
//! # Examples
//!
//! ```
//! use smarts_energy::{ActivityCounters, EnergyModel};
//!
//! let model = EnergyModel::eight_way();
//! let mut counters = ActivityCounters::default();
//! counters.commits = 1000;
//! counters.int_alu_ops = 800;
//! counters.l1d_accesses = 300;
//! let epi = model.energy_per_instruction(&counters, 1500);
//! assert!(epi > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Per-structure event counts accumulated by the timing model.
///
/// All counts are cumulative; the model is linear, so counters from
/// disjoint measurement windows can be added field-wise with
/// [`ActivityCounters::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing event counts
pub struct ActivityCounters {
    pub fetches: u64,
    pub decodes: u64,
    pub renames: u64,
    pub window_wakeups: u64,
    pub window_issues: u64,
    pub regfile_reads: u64,
    pub regfile_writes: u64,
    pub int_alu_ops: u64,
    pub int_mul_ops: u64,
    pub int_div_ops: u64,
    pub fp_alu_ops: u64,
    pub fp_mul_ops: u64,
    pub fp_div_ops: u64,
    pub l1i_accesses: u64,
    pub l1d_accesses: u64,
    pub l2_accesses: u64,
    pub mem_accesses: u64,
    pub itlb_accesses: u64,
    pub dtlb_accesses: u64,
    pub bpred_lookups: u64,
    pub bpred_updates: u64,
    pub btb_lookups: u64,
    pub lsq_searches: u64,
    pub store_buffer_ops: u64,
    pub commits: u64,
    /// Resolved conditional-branch direction mispredictions. Carries no
    /// energy weight; tracked here so per-unit sampling can estimate
    /// branch MPKI alongside EPI from the same counter set.
    pub branch_mispredicts: u64,
}

impl ActivityCounters {
    /// How many counters there are.
    pub const COUNT: usize = 26;

    /// Every counter, in declaration order — the order the canonical
    /// report and the unit-outcome files store them in.
    #[rustfmt::skip]
    fn fields_mut(&mut self) -> [&mut u64; Self::COUNT] {
        // Exhaustive on purpose: a new counter fails to compile here
        // instead of going unmerged or unsaved.
        let ActivityCounters {
            fetches, decodes, renames, window_wakeups, window_issues, regfile_reads,
            regfile_writes, int_alu_ops, int_mul_ops, int_div_ops, fp_alu_ops, fp_mul_ops,
            fp_div_ops, l1i_accesses, l1d_accesses, l2_accesses, mem_accesses, itlb_accesses,
            dtlb_accesses, bpred_lookups, bpred_updates, btb_lookups, lsq_searches,
            store_buffer_ops, commits, branch_mispredicts,
        } = self;
        [
            fetches, decodes, renames, window_wakeups, window_issues, regfile_reads,
            regfile_writes, int_alu_ops, int_mul_ops, int_div_ops, fp_alu_ops, fp_mul_ops,
            fp_div_ops, l1i_accesses, l1d_accesses, l2_accesses, mem_accesses, itlb_accesses,
            dtlb_accesses, bpred_lookups, bpred_updates, btb_lookups, lsq_searches,
            store_buffer_ops, commits, branch_mispredicts,
        ]
    }

    /// The counters in declaration order.
    pub fn to_array(&self) -> [u64; Self::COUNT] {
        let mut copy = *self;
        copy.fields_mut().map(|count| *count)
    }

    /// The counter set [`ActivityCounters::to_array`] lists.
    pub fn from_array(counts: [u64; Self::COUNT]) -> Self {
        let mut counters = ActivityCounters::default();
        for (field, count) in counters.fields_mut().into_iter().zip(counts) {
            *field = count;
        }
        counters
    }

    /// Adds another counter set field-wise.
    pub fn merge(&mut self, other: &ActivityCounters) {
        for (field, count) in self.fields_mut().into_iter().zip(other.to_array()) {
            *field += count;
        }
    }
}

/// Per-event energies in nanojoules, plus the per-cycle base cost.
///
/// The defaults are plausible 100 nm-generation magnitudes chosen so that
/// EPI lands in the tens-of-nJ range the paper's Figure 7 reports; the
/// *relative* weighting across structures (memory ≫ L2 ≫ L1 ≫ ALU)
/// follows Wattch's published breakdowns.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // field names mirror ActivityCounters
pub struct EnergyParams {
    pub fetch_nj: f64,
    pub decode_nj: f64,
    pub rename_nj: f64,
    pub window_wakeup_nj: f64,
    pub window_issue_nj: f64,
    pub regfile_read_nj: f64,
    pub regfile_write_nj: f64,
    pub int_alu_nj: f64,
    pub int_mul_nj: f64,
    pub int_div_nj: f64,
    pub fp_alu_nj: f64,
    pub fp_mul_nj: f64,
    pub fp_div_nj: f64,
    pub l1i_nj: f64,
    pub l1d_nj: f64,
    pub l2_nj: f64,
    pub mem_nj: f64,
    pub itlb_nj: f64,
    pub dtlb_nj: f64,
    pub bpred_lookup_nj: f64,
    pub bpred_update_nj: f64,
    pub btb_nj: f64,
    pub lsq_search_nj: f64,
    pub store_buffer_nj: f64,
    pub commit_nj: f64,
    /// Clock tree, leakage, and idle (conditionally-clocked) structures,
    /// charged every cycle regardless of activity.
    pub base_cycle_nj: f64,
}

impl EnergyParams {
    /// Parameters sized for the paper's 8-way baseline configuration.
    pub fn eight_way() -> Self {
        EnergyParams {
            fetch_nj: 0.10,
            decode_nj: 0.05,
            rename_nj: 0.08,
            window_wakeup_nj: 0.06,
            window_issue_nj: 0.10,
            regfile_read_nj: 0.05,
            regfile_write_nj: 0.06,
            int_alu_nj: 0.10,
            int_mul_nj: 0.30,
            int_div_nj: 0.50,
            fp_alu_nj: 0.25,
            fp_mul_nj: 0.35,
            fp_div_nj: 0.60,
            l1i_nj: 0.20,
            l1d_nj: 0.22,
            l2_nj: 0.90,
            mem_nj: 6.0,
            itlb_nj: 0.03,
            dtlb_nj: 0.03,
            bpred_lookup_nj: 0.04,
            bpred_update_nj: 0.04,
            btb_nj: 0.04,
            lsq_search_nj: 0.08,
            store_buffer_nj: 0.05,
            commit_nj: 0.05,
            base_cycle_nj: 1.2,
        }
    }

    /// Parameters sized for the 16-way aggressive configuration: wider
    /// datapath, larger window and caches — every structure costs more
    /// per access, and the clock network grows with the datapath.
    pub fn sixteen_way() -> Self {
        let base = EnergyParams::eight_way();
        EnergyParams {
            fetch_nj: base.fetch_nj * 1.6,
            decode_nj: base.decode_nj * 1.6,
            rename_nj: base.rename_nj * 1.8,
            window_wakeup_nj: base.window_wakeup_nj * 2.0,
            window_issue_nj: base.window_issue_nj * 2.0,
            regfile_read_nj: base.regfile_read_nj * 1.7,
            regfile_write_nj: base.regfile_write_nj * 1.7,
            int_alu_nj: base.int_alu_nj,
            int_mul_nj: base.int_mul_nj,
            int_div_nj: base.int_div_nj,
            fp_alu_nj: base.fp_alu_nj,
            fp_mul_nj: base.fp_mul_nj,
            fp_div_nj: base.fp_div_nj,
            l1i_nj: base.l1i_nj * 1.5,
            l1d_nj: base.l1d_nj * 1.5,
            l2_nj: base.l2_nj * 1.4,
            mem_nj: base.mem_nj,
            itlb_nj: base.itlb_nj,
            dtlb_nj: base.dtlb_nj,
            bpred_lookup_nj: base.bpred_lookup_nj * 1.5,
            bpred_update_nj: base.bpred_update_nj * 1.5,
            btb_nj: base.btb_nj * 1.5,
            lsq_search_nj: base.lsq_search_nj * 1.8,
            store_buffer_nj: base.store_buffer_nj * 1.5,
            commit_nj: base.commit_nj * 1.6,
            base_cycle_nj: base.base_cycle_nj * 2.2,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams::eight_way()
    }
}

/// Converts activity counts into energy.
///
/// # Examples
///
/// ```
/// use smarts_energy::{ActivityCounters, EnergyModel};
///
/// let model = EnergyModel::eight_way();
/// let idle = ActivityCounters::default();
/// // An idle cycle still burns clock/leakage energy.
/// assert!(model.total_energy(&idle, 1) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyModel {
    params: EnergyParams,
}

impl EnergyModel {
    /// A model with the given parameters.
    pub fn new(params: EnergyParams) -> Self {
        EnergyModel { params }
    }

    /// Model preset for the 8-way baseline machine.
    pub fn eight_way() -> Self {
        EnergyModel::new(EnergyParams::eight_way())
    }

    /// Model preset for the 16-way aggressive machine.
    pub fn sixteen_way() -> Self {
        EnergyModel::new(EnergyParams::sixteen_way())
    }

    /// The model's parameters.
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Total energy in nanojoules for the given activity over `cycles`.
    pub fn total_energy(&self, c: &ActivityCounters, cycles: u64) -> f64 {
        let p = &self.params;
        c.fetches as f64 * p.fetch_nj
            + c.decodes as f64 * p.decode_nj
            + c.renames as f64 * p.rename_nj
            + c.window_wakeups as f64 * p.window_wakeup_nj
            + c.window_issues as f64 * p.window_issue_nj
            + c.regfile_reads as f64 * p.regfile_read_nj
            + c.regfile_writes as f64 * p.regfile_write_nj
            + c.int_alu_ops as f64 * p.int_alu_nj
            + c.int_mul_ops as f64 * p.int_mul_nj
            + c.int_div_ops as f64 * p.int_div_nj
            + c.fp_alu_ops as f64 * p.fp_alu_nj
            + c.fp_mul_ops as f64 * p.fp_mul_nj
            + c.fp_div_ops as f64 * p.fp_div_nj
            + c.l1i_accesses as f64 * p.l1i_nj
            + c.l1d_accesses as f64 * p.l1d_nj
            + c.l2_accesses as f64 * p.l2_nj
            + c.mem_accesses as f64 * p.mem_nj
            + c.itlb_accesses as f64 * p.itlb_nj
            + c.dtlb_accesses as f64 * p.dtlb_nj
            + c.bpred_lookups as f64 * p.bpred_lookup_nj
            + c.bpred_updates as f64 * p.bpred_update_nj
            + c.btb_lookups as f64 * p.btb_nj
            + c.lsq_searches as f64 * p.lsq_search_nj
            + c.store_buffer_ops as f64 * p.store_buffer_nj
            + c.commits as f64 * p.commit_nj
            + cycles as f64 * p.base_cycle_nj
    }

    /// Energy per committed instruction in nanojoules.
    ///
    /// Returns 0 when no instructions committed.
    pub fn energy_per_instruction(&self, c: &ActivityCounters, cycles: u64) -> f64 {
        if c.commits == 0 {
            0.0
        } else {
            self.total_energy(c, cycles) / c.commits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_counters() -> ActivityCounters {
        ActivityCounters {
            fetches: 1200,
            decodes: 1100,
            renames: 1100,
            window_wakeups: 900,
            window_issues: 1000,
            regfile_reads: 1800,
            regfile_writes: 900,
            int_alu_ops: 700,
            int_mul_ops: 30,
            int_div_ops: 5,
            fp_alu_ops: 100,
            fp_mul_ops: 60,
            fp_div_ops: 10,
            l1i_accesses: 1200,
            l1d_accesses: 400,
            l2_accesses: 40,
            mem_accesses: 8,
            itlb_accesses: 1200,
            dtlb_accesses: 400,
            bpred_lookups: 200,
            bpred_updates: 150,
            btb_lookups: 200,
            lsq_searches: 350,
            store_buffer_ops: 120,
            commits: 1000,
            branch_mispredicts: 1,
        }
    }

    #[test]
    fn idle_cycles_cost_base_energy_only() {
        let model = EnergyModel::eight_way();
        let idle = ActivityCounters::default();
        let e = model.total_energy(&idle, 100);
        assert!((e - 100.0 * model.params().base_cycle_nj).abs() < 1e-9);
    }

    #[test]
    fn energy_is_linear_in_activity() {
        let model = EnergyModel::eight_way();
        let c = busy_counters();
        let mut doubled = c;
        doubled.merge(&c);
        let e1 = model.total_energy(&c, 1500);
        let e2 = model.total_energy(&doubled, 3000);
        assert!((e2 - 2.0 * e1).abs() < 1e-6);
    }

    #[test]
    fn epi_in_plausible_range() {
        let model = EnergyModel::eight_way();
        let epi = model.energy_per_instruction(&busy_counters(), 1500);
        // The paper's Figure 7 reports EPI on a nJ/instruction scale.
        assert!(epi > 1.0 && epi < 100.0, "epi = {epi}");
    }

    #[test]
    fn epi_zero_without_commits() {
        let model = EnergyModel::eight_way();
        assert_eq!(
            model.energy_per_instruction(&ActivityCounters::default(), 99),
            0.0
        );
    }

    #[test]
    fn sixteen_way_costs_more_per_cycle_and_access() {
        let p8 = EnergyParams::eight_way();
        let p16 = EnergyParams::sixteen_way();
        assert!(p16.base_cycle_nj > p8.base_cycle_nj);
        assert!(p16.window_issue_nj > p8.window_issue_nj);
        assert!(p16.l2_nj > p8.l2_nj);
        // FU op energy is per-op and unchanged.
        assert_eq!(p16.int_alu_nj, p8.int_alu_nj);
    }

    #[test]
    fn the_array_view_round_trips_in_declaration_order() {
        let c = busy_counters();
        let counts = c.to_array();
        let last = ActivityCounters::COUNT - 1;
        assert_eq!((counts[0], counts[last]), (c.fetches, c.branch_mispredicts));
        assert_eq!(ActivityCounters::from_array(counts), c);
    }

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = busy_counters();
        let b = busy_counters();
        a.merge(&b);
        assert_eq!(a.fetches, 2400);
        assert_eq!(a.branch_mispredicts, 2);
        assert_eq!(a.commits, 2000);
        assert_eq!(a.mem_accesses, 16);
        assert_eq!(a.fp_div_ops, 2 * 10);
    }

    #[test]
    fn memory_dominates_cache_hierarchy_energy() {
        let p = EnergyParams::eight_way();
        assert!(p.mem_nj > p.l2_nj && p.l2_nj > p.l1d_nj && p.l1d_nj > p.dtlb_nj);
    }
}
