//! Randomized tests of the microarchitectural structures: caches against
//! a reference LRU model, TLBs, the branch predictor, and pipeline timing
//! invariants. Cases come from the workload crate's `SplitMix64`, so the
//! suite needs no external crates and failures reproduce from the fixed
//! seeds.

use smarts_isa::{Cpu, ExecRecord};
use smarts_isa::{Inst, Memory, OpClass, Opcode, Program};
use smarts_uarch::{
    BranchPredictor, Cache, CacheConfig, MachineConfig, Pipeline, Tlb, TlbConfig, TraceSource,
    WarmState,
};
use smarts_workloads::SplitMix64;
use std::collections::VecDeque;

/// A straightforward reference model of a set-associative LRU cache.
struct RefLru {
    sets: Vec<VecDeque<u64>>, // most-recent at front
    assoc: usize,
    line: u64,
}

impl RefLru {
    fn new(cfg: CacheConfig) -> Self {
        RefLru {
            sets: (0..cfg.sets()).map(|_| VecDeque::new()).collect(),
            assoc: cfg.assoc as usize,
            line: cfg.line_bytes,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line;
        let set_index = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let set = &mut self.sets[set_index];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            set.remove(pos);
            set.push_front(tag);
            true
        } else {
            set.push_front(tag);
            set.truncate(self.assoc);
            false
        }
    }
}

fn addresses(rng: &mut SplitMix64, len_bound: u64, addr_bound: u64) -> Vec<u64> {
    let len = 1 + rng.below(len_bound);
    (0..len).map(|_| rng.below(addr_bound)).collect()
}

const CASES: u64 = 64;

#[test]
fn cache_matches_reference_lru() {
    let mut rng = SplitMix64::new(201);
    for _ in 0..CASES {
        let addrs = addresses(&mut rng, 499, 1u64 << 16);
        let cfg = CacheConfig {
            size_bytes: 2048,
            assoc: 2,
            line_bytes: 64,
            latency: 1,
        };
        let mut cache = Cache::new(cfg);
        let mut reference = RefLru::new(cfg);
        for &addr in &addrs {
            let got = cache.access(addr, false).hit;
            let want = reference.access(addr);
            assert_eq!(got, want, "divergence at address {addr:#x}");
        }
        assert_eq!(cache.accesses(), addrs.len() as u64);
    }
}

#[test]
fn cache_probe_agrees_with_access_hit() {
    let mut rng = SplitMix64::new(202);
    for _ in 0..CASES {
        let addrs = addresses(&mut rng, 299, 1u64 << 14);
        let cfg = CacheConfig {
            size_bytes: 1024,
            assoc: 4,
            line_bytes: 32,
            latency: 1,
        };
        let mut cache = Cache::new(cfg);
        for &addr in &addrs {
            let resident = cache.probe(addr);
            let hit = cache.access(addr, false).hit;
            assert_eq!(resident, hit);
        }
    }
}

#[test]
fn cache_stats_are_consistent() {
    let mut rng = SplitMix64::new(203);
    for _ in 0..CASES {
        let addrs = addresses(&mut rng, 299, 1u64 << 20);
        let cfg = MachineConfig::eight_way().l1d;
        let mut cache = Cache::new(cfg);
        for &addr in &addrs {
            cache.access(addr, addr % 3 == 0);
        }
        assert!(cache.misses() <= cache.accesses());
        assert!((0.0..=1.0).contains(&cache.miss_ratio()));
    }
}

#[test]
fn tlb_same_page_always_hits_after_fill() {
    let mut rng = SplitMix64::new(204);
    for _ in 0..CASES {
        let pages = addresses(&mut rng, 99, 256);
        let mut tlb = Tlb::new(TlbConfig {
            entries: 64,
            assoc: 4,
            page_bytes: 4096,
            miss_penalty: 200,
        });
        for &p in &pages {
            let addr = p * 4096;
            tlb.access(addr);
            // Immediately after a fill, the same page must hit.
            assert!(tlb.access(addr + 123));
        }
    }
}

#[test]
fn predictor_converges_on_any_fixed_direction() {
    let mut rng = SplitMix64::new(205);
    for _ in 0..CASES {
        let pc = rng.below(1_000_000);
        let taken = rng.next_u64() & 1 == 1;
        let mut bp = BranchPredictor::new(MachineConfig::eight_way().bpred);
        for _ in 0..8 {
            bp.update(pc, OpClass::CondBranch, taken, pc + 5);
        }
        let p = bp.predict(pc, OpClass::CondBranch, None);
        assert_eq!(p.taken, taken);
    }
}

#[test]
fn ras_is_lifo_within_capacity() {
    for depth in 1usize..12 {
        let mut bp = BranchPredictor::new(MachineConfig::eight_way().bpred);
        for i in 0..depth as u64 {
            let _ = bp.predict(i * 10, OpClass::Call, Some(500 + i));
        }
        for i in (0..depth as u64).rev() {
            let p = bp.predict(999, OpClass::Return, None);
            assert_eq!(p.target, Some(i * 10 + 1));
        }
    }
}

/// A deterministic synthetic trace source for pipeline properties.
struct SyntheticTrace {
    records: Vec<ExecRecord>,
    at: usize,
}

impl TraceSource for SyntheticTrace {
    fn next_record(&mut self) -> Option<ExecRecord> {
        let rec = self.records.get(self.at).copied();
        self.at += 1;
        rec
    }
}

fn straightline_trace(ops: &[Opcode]) -> SyntheticTrace {
    let records = ops
        .iter()
        .enumerate()
        .map(|(pc, &op)| {
            let inst = Inst::new(op, 5, 6, 7, 64);
            ExecRecord::new(pc as u64, inst, None, false, pc as u64 + 1)
        })
        .collect();
    SyntheticTrace { records, at: 0 }
}

const EXEC_OPS: [Opcode; 7] = [
    Opcode::Add,
    Opcode::Mul,
    Opcode::Div,
    Opcode::FAdd,
    Opcode::FMul,
    Opcode::FDiv,
    Opcode::Nop,
];

fn exec_ops(rng: &mut SplitMix64, lo: u64, hi: u64) -> Vec<Opcode> {
    let len = lo + rng.below(hi - lo);
    (0..len)
        .map(|_| EXEC_OPS[rng.below(EXEC_OPS.len() as u64) as usize])
        .collect()
}

const PIPE_CASES: u64 = 32;

#[test]
fn pipeline_commits_exactly_the_trace() {
    let mut rng = SplitMix64::new(206);
    for _ in 0..PIPE_CASES {
        let ops = exec_ops(&mut rng, 1, 400);
        let cfg = MachineConfig::eight_way();
        let mut warm = WarmState::new(&cfg);
        let mut pipeline = Pipeline::new(&cfg);
        let mut source = straightline_trace(&ops);
        let m = pipeline.run(&mut warm, &mut source, u64::MAX, true);
        assert_eq!(m.instructions, ops.len() as u64);
        assert_eq!(m.counters.commits, ops.len() as u64);
        assert!(m.cycles >= m.instructions / cfg.commit_width as u64);
    }
}

#[test]
fn cycle_count_is_additive_across_run_boundaries() {
    let mut rng = SplitMix64::new(207);
    for _ in 0..PIPE_CASES {
        let ops = exec_ops(&mut rng, 20, 300);
        let split = 1 + rng.below(18);
        let cfg = MachineConfig::eight_way();
        let whole = {
            let mut warm = WarmState::new(&cfg);
            let mut pipeline = Pipeline::new(&cfg);
            let mut source = straightline_trace(&ops);
            pipeline.run(&mut warm, &mut source, u64::MAX, true).cycles
        };
        let split_total = {
            let mut warm = WarmState::new(&cfg);
            let mut pipeline = Pipeline::new(&cfg);
            let mut source = straightline_trace(&ops);
            let a = pipeline.run(&mut warm, &mut source, split, true);
            let b = pipeline.run(&mut warm, &mut source, u64::MAX, true);
            assert_eq!(a.instructions, split);
            a.cycles + b.cycles
        };
        assert_eq!(whole, split_total);
    }
}

#[test]
fn unpipelined_dividers_bound_throughput() {
    let mut rng = SplitMix64::new(208);
    for _ in 0..PIPE_CASES {
        // n dependent-free divides on 2 unpipelined units of latency 20:
        // at least n/2 × 20 cycles.
        let n_divs = 10 + rng.below(90);
        let cfg = MachineConfig::eight_way();
        let mut warm = WarmState::new(&cfg);
        let mut pipeline = Pipeline::new(&cfg);
        // Use distinct destination registers to remove data dependences.
        let records: Vec<ExecRecord> = (0..n_divs)
            .map(|pc| {
                let inst = Inst::new(Opcode::Div, (pc % 24) as u8 + 4, 1, 2, 0);
                ExecRecord::new(pc, inst, None, false, pc + 1)
            })
            .collect();
        let mut source = SyntheticTrace { records, at: 0 };
        let m = pipeline.run(&mut warm, &mut source, u64::MAX, true);
        let lower_bound = n_divs.div_ceil(2) * cfg.latencies.int_div - cfg.latencies.int_div;
        assert!(
            m.cycles >= lower_bound,
            "{n_divs} divides took only {} cycles (bound {lower_bound})",
            m.cycles
        );
    }
}

#[test]
fn pipeline_trace_source_from_cpu_is_equivalent_to_vec_replay() {
    // Feeding records live from the CPU or replaying a pre-recorded vector
    // must produce identical timing.
    let bench = smarts_workloads::find("branchy-1").unwrap().scaled(0.01);
    let cfg = MachineConfig::eight_way();

    let loaded = bench.load();
    let mut cpu = Cpu::new();
    let mut mem: Memory = loaded.memory.clone();
    let program: Program = loaded.program.clone();
    let mut records = Vec::new();
    while !cpu.halted() {
        records.push(cpu.step(&program, &mut mem).unwrap());
    }

    let live = {
        let mut warm = WarmState::new(&cfg);
        let mut pipeline = Pipeline::new(&cfg);
        let loaded = bench.load();
        let mut cpu = Cpu::new();
        let mut mem = loaded.memory;
        let program = loaded.program;
        let mut source = move || {
            if cpu.halted() {
                None
            } else {
                cpu.step(&program, &mut mem).ok()
            }
        };
        pipeline.run(&mut warm, &mut source, u64::MAX, true)
    };
    let replay = {
        let mut warm = WarmState::new(&cfg);
        let mut pipeline = Pipeline::new(&cfg);
        let mut source = SyntheticTrace { records, at: 0 };
        pipeline.run(&mut warm, &mut source, u64::MAX, true)
    };
    assert_eq!(live.cycles, replay.cycles);
    assert_eq!(live.instructions, replay.instructions);
}
