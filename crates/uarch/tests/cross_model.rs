//! Cross-model equivalence: the event-driven [`Pipeline`] must be
//! bit-identical to the scan-based reference [`ScanPipeline`] — same
//! cycles, same committed instructions, same activity counters, and the
//! same warm-state mutations (cache/TLB/predictor traffic happens in the
//! same order, so every derived statistic matches exactly).
//!
//! Programs are SplitMix64-random (assembled control flow, dependent ALU
//! chains, unpipelined divides, strided and chasing memory traffic,
//! data-dependent branches) and run on 2-, 4-, and 8-wide machines so
//! narrow structural hazards (single cache port, two MSHRs, tiny store
//! buffer) and wide ones are both covered. Failures reproduce from the
//! fixed seeds. Two hand-built programs then pin the next-event jump:
//! it must engage, and never overshoot an event the scan would see.

#[path = "oracles/scan.rs"]
mod scan;

use scan::ScanPipeline;
use smarts_isa::{reg, Asm, Cpu, ExecRecord, Memory, Program};
use smarts_uarch::{MachineConfig, Pipeline, TraceSource, UnitMeasurement, WarmState};
use smarts_workloads::SplitMix64;

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

/// A random but always-terminating program: an outer counted loop whose
/// body mixes ALU chains, multiplies/divides, forward data-dependent
/// branches, and loads/stores walking a strided region. Register roles:
/// S0 = data base, S1 = loop counter, S2 = iteration bound, S3 = LCG
/// state; T0..T6 are scratch for the random body.
fn random_program(rng: &mut SplitMix64) -> Program {
    let mut a = Asm::new();
    let iters = 8 + rng.below(48) as i64;
    let body_len = 6 + rng.below(24);
    // Stride picks cover same-line hits, L1/L2 conflicts, and full misses.
    let stride = [0i64, 8, 64, 4096, 1 << 14, 1 << 20][rng.below(6) as usize];
    a.li(reg::S0, 0x4_0000);
    a.li(reg::S1, 0);
    a.li(reg::S2, iters);
    a.li(reg::S3, 0x9E37_79B9_7F4A_7C15u64 as i64);
    let top = a.label();
    a.bind(top).unwrap();
    for _ in 0..body_len {
        let t = |r: u64| reg::T0 + (r % 7) as u8;
        match rng.below(10) {
            0 => {
                a.add(t(rng.next_u64()), t(rng.next_u64()), t(rng.next_u64()));
            }
            1 => {
                a.addi(t(rng.next_u64()), t(rng.next_u64()), rng.below(100) as i64);
            }
            2 => {
                a.mul(t(rng.next_u64()), t(rng.next_u64()), t(rng.next_u64()));
            }
            3 => {
                // Unpipelined divider: stresses FU structural hazards.
                a.div(t(rng.next_u64()), t(rng.next_u64()), t(rng.next_u64()));
            }
            4 => {
                a.xor(t(rng.next_u64()), t(rng.next_u64()), t(rng.next_u64()));
            }
            5 | 6 => {
                let disp = (rng.below(512) * 8) as i64;
                a.ld(t(rng.next_u64()), reg::S0, disp);
            }
            7 => {
                let disp = (rng.below(512) * 8) as i64;
                a.sd(t(rng.next_u64()), reg::S0, disp);
            }
            8 => {
                // Data-dependent forward branch over a one-instruction
                // shadow: mispredicts pseudo-randomly.
                let skip = a.label();
                a.mul(reg::S3, reg::S3, reg::S3);
                a.addi(reg::S3, reg::S3, 0x6b5f);
                a.srli(reg::T6, reg::S3, 63);
                a.beqz(reg::T6, skip);
                a.addi(reg::T5, reg::T5, 1);
                a.bind(skip).unwrap();
            }
            _ => {
                a.nop();
            }
        }
    }
    if stride != 0 {
        a.addi(reg::S0, reg::S0, stride);
    }
    a.addi(reg::S1, reg::S1, 1);
    a.blt(reg::S1, reg::S2, top);
    a.halt();
    a.finish().unwrap()
}

/// The Table 3 8-way machine, narrowed to `width` with proportionally
/// shrunk window, queues, ports, MSHRs, and unit counts — small enough
/// that every structural stall path fires routinely.
fn machine(width: u32) -> MachineConfig {
    let mut cfg = MachineConfig::eight_way();
    if width == 8 {
        return cfg;
    }
    cfg.fetch_width = width;
    cfg.decode_width = width;
    cfg.issue_width = width;
    cfg.commit_width = width;
    cfg.ruu_size = 16 * width;
    cfg.lsq_size = 8 * width;
    cfg.store_buffer = 2 * width;
    cfg.ifq_size = 2 * width;
    cfg.int_alu_units = width;
    cfg.int_muldiv_units = (width / 2).max(1);
    cfg.fp_alu_units = (width / 2).max(1);
    cfg.fp_muldiv_units = 1;
    cfg.l1d_ports = (width / 4).max(1);
    cfg.mshrs = width;
    cfg
}

/// Warm-state statistics that depend on the exact access sequence.
#[derive(Debug, PartialEq)]
struct WarmStats {
    l1i: (u64, u64),
    l1d: (u64, u64),
    l2: (u64, u64),
    itlb: (u64, u64),
    dtlb: (u64, u64),
    cond_mispredicts: u64,
}

fn warm_stats(warm: &WarmState) -> WarmStats {
    WarmStats {
        l1i: (
            warm.hierarchy.l1i().accesses(),
            warm.hierarchy.l1i().misses(),
        ),
        l1d: (
            warm.hierarchy.l1d().accesses(),
            warm.hierarchy.l1d().misses(),
        ),
        l2: (warm.hierarchy.l2().accesses(), warm.hierarchy.l2().misses()),
        itlb: (warm.itlb.accesses(), warm.itlb.misses()),
        dtlb: (warm.dtlb.accesses(), warm.dtlb.misses()),
        cond_mispredicts: warm.bpred.cond_mispredicts(),
    }
}

/// Runs `program` to completion on both models, split into two `run`
/// calls at `split` commits (state must carry across the boundary), and
/// asserts measurement + warm-state equality segment by segment.
fn assert_models_agree(program: Program, cfg: &MachineConfig, split: u64, case: u64) {
    let (event_a, event_b, event_warm, event_skipped) = {
        let mut warm = WarmState::new(cfg);
        let mut pipeline = Pipeline::new(cfg);
        let mut source = CpuSource::new(program.clone());
        let a = pipeline.run(&mut warm, &mut source, split, true);
        let b = pipeline.run(&mut warm, &mut source, u64::MAX, true);
        (a, b, warm_stats(&warm), pipeline.skipped_cycles())
    };
    let (scan_a, scan_b, scan_warm) = {
        let mut warm = WarmState::new(cfg);
        let mut pipeline = ScanPipeline::new(cfg);
        let mut source = CpuSource::new(program);
        let a = pipeline.run(&mut warm, &mut source, split, true);
        let b = pipeline.run(&mut warm, &mut source, u64::MAX, true);
        (a, b, warm_stats(&warm))
    };
    let ctx = |seg: &str, e: &UnitMeasurement, s: &UnitMeasurement| {
        format!(
            "case {case} ({}) segment {seg}: event {{cycles: {}, instrs: {}}} vs scan \
             {{cycles: {}, instrs: {}}} (skipped {event_skipped})",
            cfg.name, e.cycles, e.instructions, s.cycles, s.instructions
        )
    };
    assert_eq!(event_a, scan_a, "{}", ctx("A", &event_a, &scan_a));
    assert_eq!(event_b, scan_b, "{}", ctx("B", &event_b, &scan_b));
    assert_eq!(
        event_warm, scan_warm,
        "case {case} ({}) warm state",
        cfg.name
    );
}

#[test]
fn event_driven_matches_scan_reference_on_random_programs() {
    for width in [2u32, 4, 8] {
        let cfg = machine(width);
        let mut rng = SplitMix64::new(0xC0DE + width as u64);
        for case in 0..24 {
            let program = random_program(&mut rng);
            let split = 1 + rng.below(400);
            assert_models_agree(program, &cfg, split, case);
        }
    }
}

#[test]
fn event_driven_matches_scan_on_detailed_warming_intervals() {
    // measure == false intervals (detailed warming) advance state without
    // counters; the models must stay in lockstep there too.
    let cfg = machine(4);
    let mut rng = SplitMix64::new(0xFACE);
    for case in 0..8 {
        let program = random_program(&mut rng);
        let warm_commits = 1 + rng.below(300);

        let (event_m, event_warm) = {
            let mut warm = WarmState::new(&cfg);
            let mut pipeline = Pipeline::new(&cfg);
            let mut source = CpuSource::new(program.clone());
            let w = pipeline.run(&mut warm, &mut source, warm_commits, false);
            assert_eq!(
                w.counters,
                Default::default(),
                "case {case}: warming counted"
            );
            let m = pipeline.run(&mut warm, &mut source, u64::MAX, true);
            (m, warm_stats(&warm))
        };
        let (scan_m, scan_warm) = {
            let mut warm = WarmState::new(&cfg);
            let mut pipeline = ScanPipeline::new(&cfg);
            let mut source = CpuSource::new(program);
            pipeline.run(&mut warm, &mut source, warm_commits, false);
            let m = pipeline.run(&mut warm, &mut source, u64::MAX, true);
            (m, warm_stats(&warm))
        };
        assert_eq!(event_m, scan_m, "case {case} measured interval");
        assert_eq!(event_warm, scan_warm, "case {case} warm state");
    }
}

/// Runs `program` through the scan reference model.
fn run_scan(program: Program, cfg: &MachineConfig) -> UnitMeasurement {
    let mut warm = WarmState::new(cfg);
    let mut pipeline = ScanPipeline::new(cfg);
    let mut source = CpuSource::new(program);
    pipeline.run(&mut warm, &mut source, u64::MAX, true)
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
fn cycle_skipping_engages_and_matches_scan_on_memory_stalls() {
    // A miss-every-iteration load loop spends most of its cycles
    // stalled on memory: the next-event jump must engage, and the
    // total must stay bit-identical to the scan reference.
    let cfg = MachineConfig::eight_way();
    let program = load_loop(400, 1 << 20);

    let mut warm = WarmState::new(&cfg);
    let mut pipeline = Pipeline::new(&cfg);
    let mut source = CpuSource::new(program.clone());
    let event = pipeline.run(&mut warm, &mut source, u64::MAX, true);
    assert!(
        pipeline.skipped_cycles() > event.cycles / 4,
        "skipped {} of {} cycles",
        pipeline.skipped_cycles(),
        event.cycles
    );

    let scanned = run_scan(program, &cfg);
    assert_eq!(event, scanned);
}

#[test]
fn skip_never_jumps_past_fetch_refill_or_store_drain() {
    // Store bursts keep the store buffer draining through MSHRs while
    // strided code misses the I-cache, so the quiescent spans are
    // bounded by store-drain, MSHR-release, and fetch-refill events.
    // Bit-equality with the scan model (which steps every cycle)
    // while skipping engaged proves no jump overshot an event.
    let cfg = MachineConfig::eight_way();
    let mut a = Asm::new();
    a.li(reg::S0, 0x100_0000);
    for i in 0..200 {
        a.sd(reg::T0, reg::S0, (i as i64) << 20);
        // Pad with dependent adds so commit outruns the drain and the
        // buffer alternates between full and empty.
        for _ in 0..8 {
            a.addi(reg::T1, reg::T1, 1);
        }
    }
    a.halt();
    let program = a.finish().unwrap();

    let mut warm = WarmState::new(&cfg);
    let mut pipeline = Pipeline::new(&cfg);
    let mut source = CpuSource::new(program.clone());
    let event = pipeline.run(&mut warm, &mut source, u64::MAX, true);
    assert!(pipeline.skipped_cycles() > 0, "skipping never engaged");

    let scanned = run_scan(program, &cfg);
    assert_eq!(event.cycles, scanned.cycles);
    assert_eq!(event, scanned);
}
