//! Golden-state equivalence against the historical parallel-Vec layouts.
//!
//! The recency-ordered `Cache`/`Tlb`/BTB set arrays must be
//! *bit-identical* in behaviour to the original layout (separate
//! tags/valid/dirty/lru arrays with per-way timestamps, divide-based
//! indexing): same hit/miss outcomes, same write-backs, same victims,
//! same predictor decisions — and the same canonical store words. These
//! tests re-implement the original structures verbatim as reference
//! models and drive both through long random and benchmark-derived
//! access streams; after each stream the serialized state is checked
//! against the reference's, for the layout invariants (occupied ways a
//! prefix, ranks counting down, no tag twice), and for an exact
//! save → load → save round trip that then behaves identically.

use smarts_isa::{Cpu, OpClass};
use smarts_uarch::{
    BranchPredictor, Cache, CacheConfig, CacheOutcome, MachineConfig, PredictorConfig, Tlb,
    TlbConfig,
};

/// Deterministic xorshift64* stream so failures reproduce exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

// --- Reference cache: the pre-optimisation four-parallel-Vec layout. ---

struct RefCache {
    cfg: CacheConfig,
    tags: Vec<u64>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    lru: Vec<u64>,
    tick: u64,
    sets: u64,
    assoc: usize,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let lines = (sets * cfg.assoc as u64) as usize;
        RefCache {
            cfg,
            tags: vec![0; lines],
            valid: vec![false; lines],
            dirty: vec![false; lines],
            lru: vec![0; lines],
            tick: 0,
            sets,
            assoc: cfg.assoc as usize,
        }
    }

    fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        self.tick += 1;
        let line = addr / self.cfg.line_bytes;
        let set = line % self.sets;
        let tag = line / self.sets;
        let base = set as usize * self.assoc;
        for way in base..base + self.assoc {
            if self.valid[way] && self.tags[way] == tag {
                self.lru[way] = self.tick;
                self.dirty[way] |= is_write;
                return CacheOutcome {
                    hit: true,
                    writeback: false,
                };
            }
        }
        let mut victim = base;
        let mut best = u64::MAX;
        for way in base..base + self.assoc {
            if !self.valid[way] {
                victim = way;
                break;
            }
            if self.lru[way] < best {
                best = self.lru[way];
                victim = way;
            }
        }
        let writeback = self.valid[victim] && self.dirty[victim];
        self.tags[victim] = tag;
        self.valid[victim] = true;
        self.dirty[victim] = is_write;
        self.lru[victim] = self.tick;
        CacheOutcome {
            hit: false,
            writeback,
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let line = addr / self.cfg.line_bytes;
        let set = line % self.sets;
        let tag = line / self.sets;
        let base = set as usize * self.assoc;
        (base..base + self.assoc).any(|way| self.valid[way] && self.tags[way] == tag)
    }

    fn flush(&mut self) {
        self.valid.fill(false);
        self.dirty.fill(false);
        self.lru.fill(0);
        self.tick = 0;
    }

    /// `Cache::save_state` as the timestamp layout wrote it.
    fn canonical_words(&self) -> Vec<u64> {
        let mut out = Vec::new();
        canonical_sets(
            &mut out,
            (self.sets as usize, self.assoc, 3),
            &self.valid,
            &self.lru,
            |way, out| out.push(self.tags[way]),
            |way| 1 | (self.dirty[way] as u64) << 1,
        );
        out.extend([0, 0]);
        out
    }
}

/// The canonical serialization of a timestamp-LRU set array, by sorting:
/// per set the valid ways most-recent-first as `lead words, rank, flags`
/// (rank = valid ways for the most recent, 1 for the least), zero words
/// for the rest; then one zero per set and the associativity.
fn canonical_sets(
    out: &mut Vec<u64>,
    (sets, assoc, per_way): (usize, usize, usize),
    valid: &[bool],
    lru: &[u64],
    lead: impl Fn(usize, &mut Vec<u64>),
    flags: impl Fn(usize) -> u64,
) {
    for set in 0..sets {
        let base = set * assoc;
        let mut order: Vec<usize> = (base..base + assoc).filter(|&w| valid[w]).collect();
        order.sort_by_key(|&w| std::cmp::Reverse(lru[w]));
        let start = out.len();
        for (rank, &way) in order.iter().enumerate() {
            lead(way, out);
            out.push((order.len() - rank) as u64);
            out.push(flags(way));
        }
        out.resize(start + per_way * assoc, 0);
    }
    out.resize(out.len() + sets, 0);
    out.push(assoc as u64);
}

/// The layout invariants of a serialized set array (`per_way` words per
/// way, `assoc` ways per set): occupied ways first, ranks counting down
/// from the number of occupied ways to 1, no tag twice, empty ways all
/// zero; then zero hints and the associativity.
fn assert_sets_well_formed(words: &[u64], sets: usize, assoc: usize, per_way: usize) {
    for set in 0..sets {
        let ways: Vec<&[u64]> = words[set * assoc * per_way..][..assoc * per_way]
            .chunks(per_way)
            .collect();
        let present = ways.iter().take_while(|w| w[per_way - 1] != 0).count();
        for (pos, way) in ways.iter().enumerate() {
            if pos < present {
                assert_eq!(way[per_way - 2], (present - pos) as u64, "set {set} rank");
                assert_eq!(way[per_way - 1] & 1, 1, "set {set} valid bit");
                assert!(
                    ways[..pos].iter().all(|other| other[0] != way[0]),
                    "set {set} holds tag {:#x} twice",
                    way[0]
                );
            } else {
                assert!(way.iter().all(|&w| w == 0), "set {set} way {pos} not empty");
            }
        }
    }
    let tail = &words[sets * assoc * per_way..][..sets + 1];
    assert!(tail[..sets].iter().all(|&w| w == 0));
    assert_eq!(tail[sets], assoc as u64);
}

// --- Reference TLB: parallel Vecs, divide-based indexing. ---

struct RefTlb {
    cfg: TlbConfig,
    tags: Vec<u64>,
    valid: Vec<bool>,
    lru: Vec<u64>,
    tick: u64,
    sets: u64,
    assoc: usize,
    misses: u64,
}

impl RefTlb {
    fn new(cfg: TlbConfig) -> Self {
        let sets = (cfg.entries / cfg.assoc) as u64;
        let slots = cfg.entries as usize;
        RefTlb {
            cfg,
            tags: vec![0; slots],
            valid: vec![false; slots],
            lru: vec![0; slots],
            tick: 0,
            sets,
            assoc: cfg.assoc as usize,
            misses: 0,
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let vpn = addr / self.cfg.page_bytes;
        let set = vpn % self.sets;
        let tag = vpn / self.sets;
        let base = set as usize * self.assoc;
        (base..base + self.assoc).any(|way| self.valid[way] && self.tags[way] == tag)
    }

    fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let vpn = addr / self.cfg.page_bytes;
        let set = vpn % self.sets;
        let tag = vpn / self.sets;
        let base = set as usize * self.assoc;
        for way in base..base + self.assoc {
            if self.valid[way] && self.tags[way] == tag {
                self.lru[way] = self.tick;
                return true;
            }
        }
        self.misses += 1;
        let mut victim = base;
        let mut best = u64::MAX;
        for way in base..base + self.assoc {
            if !self.valid[way] {
                victim = way;
                break;
            }
            if self.lru[way] < best {
                best = self.lru[way];
                victim = way;
            }
        }
        self.tags[victim] = tag;
        self.valid[victim] = true;
        self.lru[victim] = self.tick;
        false
    }

    /// `Tlb::save_state` as the timestamp layout wrote it.
    fn canonical_words(&self) -> Vec<u64> {
        let mut out = Vec::new();
        canonical_sets(
            &mut out,
            (self.sets as usize, self.assoc, 3),
            &self.valid,
            &self.lru,
            |way, out| out.push(self.tags[way]),
            |_| 1,
        );
        out.extend([0, 0]);
        out
    }
}

// --- Cache equivalence ---

/// The serializer and layout checks run after every cache stream: the
/// words are the reference's, well formed, and load back into a cache
/// that serializes the same and stays in lockstep on a further stream.
fn check_cache_state(
    packed: &mut Cache,
    reference: &mut RefCache,
    cfg: CacheConfig,
    mask: u64,
    seed: u64,
) {
    let mut words = Vec::new();
    packed.save_state(&mut words);
    assert_eq!(words, reference.canonical_words(), "canonical words");
    assert_sets_well_formed(&words, cfg.sets() as usize, cfg.assoc as usize, 3);
    let (mut restored, used) = Cache::from_state(cfg, &words).expect("own words load");
    assert_eq!(used, words.len());
    let mut again = Vec::new();
    restored.save_state(&mut again);
    assert_eq!(again, words, "save -> load -> save");
    let mut rng = Rng(seed ^ 0xC0FF_EE00_C0FF_EE00);
    for i in 0..20_000 {
        let word = rng.next();
        let (addr, is_write) = (word & mask, word >> 63 == 1);
        let want = reference.access(addr, is_write);
        assert_eq!(packed.access(addr, is_write), want, "continuation #{i}");
        assert_eq!(restored.access(addr, is_write), want, "restored #{i}");
    }
    let (mut a, mut b) = (Vec::new(), Vec::new());
    packed.save_state(&mut a);
    restored.save_state(&mut b);
    assert_eq!(a, b);
    assert_eq!(a, reference.canonical_words());
}

fn drive_cache_pair(cfg: CacheConfig, accesses: usize, addr_bits: u32, seed: u64) {
    let mut packed = Cache::new(cfg);
    let mut reference = RefCache::new(cfg);
    let mut rng = Rng(seed);
    let mask = (1u64 << addr_bits) - 1;
    for i in 0..accesses {
        if i == accesses / 2 {
            // Mid-stream cold restart, checked while the sets refill.
            check_cache_state(&mut packed, &mut reference, cfg, mask, seed);
            packed.flush();
            reference.flush();
        }
        let word = rng.next();
        let addr = word & mask;
        let is_write = word >> 63 == 1;
        let got = packed.access(addr, is_write);
        let want = reference.access(addr, is_write);
        assert_eq!(got, want, "access #{i} addr {addr:#x} write={is_write}");
    }
    // Final residency must agree everywhere the stream could have touched.
    let mut rng = Rng(seed ^ 0xDEAD_BEEF);
    for _ in 0..1_000 {
        let addr = rng.next() & mask;
        assert_eq!(packed.probe(addr), reference.probe(addr), "probe {addr:#x}");
    }
    check_cache_state(&mut packed, &mut reference, cfg, mask, seed);
}

#[test]
fn cache_matches_parallel_vec_reference_on_random_streams() {
    // Pow-2 geometry (shift/mask fast path) with a hot footprint so hits
    // land on way 0 and behind it constantly.
    let l1 = CacheConfig {
        size_bytes: 32 * 1024,
        assoc: 2,
        line_bytes: 64,
        latency: 1,
    };
    drive_cache_pair(l1, 200_000, 17, 0x1234_5678_9ABC_DEF1);
    // High associativity.
    let l2ish = CacheConfig {
        size_bytes: 64 * 1024,
        assoc: 8,
        line_bytes: 128,
        latency: 12,
    };
    drive_cache_pair(l2ish, 200_000, 18, 0x0F0F_F0F0_1234_4321);
    // Non-power-of-two set count: exercises the divide path.
    let odd = CacheConfig {
        size_bytes: 5 * 2 * 64,
        assoc: 2,
        line_bytes: 64,
        latency: 1,
    };
    drive_cache_pair(odd, 100_000, 12, 0xFEED_FACE_CAFE_BEEF);
    // Both Table 3 machines' L1 and L2 geometries, with footprints that
    // fill some sets and leave others part empty.
    for machine in [MachineConfig::eight_way(), MachineConfig::sixteen_way()] {
        drive_cache_pair(machine.l1d, 100_000, 17, 0x7AB1_E300_0000_0001);
        drive_cache_pair(machine.l2, 150_000, 22, 0x7AB1_E300_0000_0002);
    }
}

#[test]
fn cache_way_zero_hits_equal_rotating_hits_in_recency() {
    // A stream engineered to alternate between hits at way 0 (nothing
    // moves) and hits behind it (a rotation) must leave recency state
    // (observed through victim choices) identical to the reference model,
    // which stamps every hit alike.
    let cfg = CacheConfig {
        size_bytes: 4 * 2 * 64, // 4 sets × 2 ways
        assoc: 2,
        line_bytes: 64,
        latency: 1,
    };
    let mut packed = Cache::new(cfg);
    let mut reference = RefCache::new(cfg);
    let mut rng = Rng(42);
    // Small footprint: 8 lines over 8 slots → constant hits, frequent
    // evictions, every hit position taken thousands of times.
    for i in 0..50_000 {
        let line = rng.next() % 12; // 12 lines over 8 slots
        let addr = line * 64;
        let is_write = line.is_multiple_of(3);
        let got = packed.access(addr, is_write);
        let want = reference.access(addr, is_write);
        assert_eq!(got, want, "access #{i} line {line}");
    }
    for line in 0..12u64 {
        assert_eq!(packed.probe(line * 64), reference.probe(line * 64));
    }
}

#[test]
fn cache_equivalence_on_benchmark_stream() {
    // Replay a real benchmark's data stream through both models: the
    // exact address mix functional warming sees (hash probes, strides).
    let loaded = smarts_workloads::find("hashp-2")
        .expect("suite benchmark")
        .scaled(0.05)
        .load();
    let mut cpu = Cpu::new();
    let program = loaded.program;
    let mut mem_state = loaded.memory;
    let cfg = MachineConfig::eight_way();
    let mut packed = Cache::new(cfg.l1d);
    let mut reference = RefCache::new(cfg.l1d);
    let mut packed_tlb = Tlb::new(cfg.dtlb);
    let mut reference_tlb = RefTlb::new(cfg.dtlb);
    let mut streamed = 0u64;
    let _ = cpu
        .step_block(&program, &mut mem_state, 300_000, |rec| {
            if let Some(access) = rec.mem {
                streamed += 1;
                let got = packed.access(access.addr, access.is_store);
                let want = reference.access(access.addr, access.is_store);
                assert_eq!(got, want, "data access {:#x}", access.addr);
                assert_eq!(
                    packed_tlb.access(access.addr),
                    reference_tlb.access(access.addr),
                    "dtlb access {:#x}",
                    access.addr
                );
            }
        })
        .expect("benchmark executes");
    assert!(streamed > 10_000, "stream exercised the models");
    assert_eq!(packed_tlb.misses(), reference_tlb.misses);
}

// --- TLB equivalence ---

/// Serializer, layout and round-trip checks after a TLB stream (the TLB
/// twin of `check_cache_state`).
fn check_tlb_state(packed: &mut Tlb, reference: &mut RefTlb, cfg: TlbConfig, mask: u64) {
    let mut words = Vec::new();
    packed.save_state(&mut words);
    assert_eq!(words, reference.canonical_words(), "canonical words");
    let sets = (cfg.entries / cfg.assoc) as usize;
    assert_sets_well_formed(&words, sets, cfg.assoc as usize, 3);
    let mut restored = Tlb::new(cfg);
    assert_eq!(restored.load_state(&words), Some(words.len()));
    let mut again = Vec::new();
    restored.save_state(&mut again);
    assert_eq!(again, words, "save -> load -> save");
    let mut rng = Rng(0x71B0_71B0_71B0_71B0);
    for i in 0..20_000 {
        let addr = rng.next() & mask;
        let want = reference.access(addr);
        assert_eq!(packed.access(addr), want, "continuation #{i}");
        assert_eq!(restored.access(addr), want, "restored #{i}");
    }
    let (mut a, mut b) = (Vec::new(), Vec::new());
    packed.save_state(&mut a);
    restored.save_state(&mut b);
    assert_eq!(a, b);
    assert_eq!(a, reference.canonical_words());
}

#[test]
fn tlb_matches_parallel_vec_reference_on_random_streams() {
    let cfg = TlbConfig {
        entries: 64,
        assoc: 4,
        page_bytes: 4096,
        miss_penalty: 30,
    };
    let mut packed = Tlb::new(cfg);
    let mut reference = RefTlb::new(cfg);
    let mut rng = Rng(0xABCD_EF01_2345_6789);
    for i in 0..200_000 {
        // 22-bit addresses → 1024 pages over 64 entries: constant churn.
        let addr = rng.next() & ((1 << 22) - 1);
        assert_eq!(
            packed.access(addr),
            reference.access(addr),
            "access #{i} addr {addr:#x}"
        );
    }
    assert_eq!(packed.misses(), reference.misses);
    let mut rng = Rng(7);
    for _ in 0..1_000 {
        let addr = rng.next() & ((1 << 22) - 1);
        assert_eq!(packed.probe(addr), reference.probe(addr));
    }
    check_tlb_state(&mut packed, &mut reference, cfg, (1 << 22) - 1);
}

#[test]
fn tlb_state_words_match_the_reference_on_table3_and_odd_geometries() {
    let table3 = MachineConfig::sixteen_way();
    let odd = TlbConfig {
        entries: 12, // 3 sets: the divide path
        assoc: 4,
        page_bytes: 4096,
        miss_penalty: 30,
    };
    for (cfg, addr_bits) in [(table3.itlb, 20), (table3.dtlb, 21), (odd, 17)] {
        let mut packed = Tlb::new(cfg);
        let mut reference = RefTlb::new(cfg);
        let mask = (1u64 << addr_bits) - 1;
        // A short stream leaves sets part empty; the check's continuation
        // then fills and churns them.
        let mut rng = Rng(0x0DD5_0E75 ^ cfg.entries as u64);
        for _ in 0..150 {
            let addr = rng.next() & mask;
            assert_eq!(packed.access(addr), reference.access(addr));
        }
        check_tlb_state(&mut packed, &mut reference, cfg, mask);
    }
}

// --- Branch predictor (incl. BTB) equivalence ---

/// Reference combined predictor with the original parallel-Vec BTB.
#[derive(Clone)]
struct RefBpred {
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    meta: Vec<u8>,
    history: u64,
    history_mask: u64,
    btb_tags: Vec<u64>,
    btb_targets: Vec<u64>,
    btb_valid: Vec<bool>,
    btb_lru: Vec<u64>,
    btb_tick: u64,
    btb_sets: u64,
    btb_assoc: usize,
    ras: Vec<u64>,
    ras_top: usize,
    ras_depth: usize,
    cond_mispredicts: u64,
}

impl RefBpred {
    fn new(cfg: PredictorConfig) -> Self {
        let sets = (cfg.btb_entries / cfg.btb_assoc) as u64;
        RefBpred {
            bimodal: vec![1; cfg.bimodal_entries as usize],
            gshare: vec![1; cfg.gshare_entries as usize],
            meta: vec![1; cfg.meta_entries as usize],
            history: 0,
            history_mask: (cfg.gshare_entries as u64) - 1,
            btb_tags: vec![0; cfg.btb_entries as usize],
            btb_targets: vec![0; cfg.btb_entries as usize],
            btb_valid: vec![false; cfg.btb_entries as usize],
            btb_lru: vec![0; cfg.btb_entries as usize],
            btb_tick: 0,
            btb_sets: sets,
            btb_assoc: cfg.btb_assoc as usize,
            ras: vec![0; cfg.ras_entries as usize],
            ras_top: 0,
            ras_depth: 0,
            cond_mispredicts: 0,
        }
    }

    fn counter(c: &mut u8, taken: bool) {
        if taken {
            if *c < 3 {
                *c += 1;
            }
        } else if *c > 0 {
            *c -= 1;
        }
    }

    fn btb_lookup(&mut self, pc: u64) -> Option<u64> {
        self.btb_tick += 1;
        let set = pc % self.btb_sets;
        let tag = pc / self.btb_sets;
        let base = set as usize * self.btb_assoc;
        for way in base..base + self.btb_assoc {
            if self.btb_valid[way] && self.btb_tags[way] == tag {
                self.btb_lru[way] = self.btb_tick;
                return Some(self.btb_targets[way]);
            }
        }
        None
    }

    fn btb_update(&mut self, pc: u64, target: u64) {
        self.btb_tick += 1;
        let set = pc % self.btb_sets;
        let tag = pc / self.btb_sets;
        let base = set as usize * self.btb_assoc;
        for way in base..base + self.btb_assoc {
            if self.btb_valid[way] && self.btb_tags[way] == tag {
                self.btb_targets[way] = target;
                self.btb_lru[way] = self.btb_tick;
                return;
            }
        }
        let mut victim = base;
        let mut best = u64::MAX;
        for way in base..base + self.btb_assoc {
            if !self.btb_valid[way] {
                victim = way;
                break;
            }
            if self.btb_lru[way] < best {
                best = self.btb_lru[way];
                victim = way;
            }
        }
        self.btb_valid[victim] = true;
        self.btb_tags[victim] = tag;
        self.btb_targets[victim] = target;
        self.btb_lru[victim] = self.btb_tick;
    }

    fn direction(&self, pc: u64) -> bool {
        let mi = (pc & (self.meta.len() as u64 - 1)) as usize;
        if self.meta[mi] >= 2 {
            self.gshare[((pc ^ self.history) & self.history_mask) as usize] >= 2
        } else {
            self.bimodal[(pc & (self.bimodal.len() as u64 - 1)) as usize] >= 2
        }
    }

    fn predict(
        &mut self,
        pc: u64,
        class: OpClass,
        direct_target: Option<u64>,
    ) -> (bool, Option<u64>) {
        match class {
            OpClass::CondBranch => {
                let taken = self.direction(pc);
                let target = if taken { self.btb_lookup(pc) } else { None };
                (taken, target)
            }
            OpClass::Jump => (true, direct_target.or_else(|| self.btb_lookup(pc))),
            OpClass::Call => {
                self.ras_push(pc + 1);
                (true, direct_target.or_else(|| self.btb_lookup(pc)))
            }
            OpClass::Return => (true, self.ras_pop()),
            _ => (false, None),
        }
    }

    fn update(&mut self, pc: u64, class: OpClass, taken: bool, target: u64) {
        match class {
            OpClass::CondBranch => {
                let bi = (pc & (self.bimodal.len() as u64 - 1)) as usize;
                let gi = ((pc ^ self.history) & self.history_mask) as usize;
                let mi = (pc & (self.meta.len() as u64 - 1)) as usize;
                let bimodal_correct = (self.bimodal[bi] >= 2) == taken;
                let gshare_correct = (self.gshare[gi] >= 2) == taken;
                if self.direction(pc) != taken {
                    self.cond_mispredicts += 1;
                }
                if gshare_correct != bimodal_correct {
                    Self::counter(&mut self.meta[mi], gshare_correct);
                }
                Self::counter(&mut self.bimodal[bi], taken);
                Self::counter(&mut self.gshare[gi], taken);
                self.history = ((self.history << 1) | taken as u64) & self.history_mask;
                if taken {
                    self.btb_update(pc, target);
                }
            }
            OpClass::Jump | OpClass::Call => self.btb_update(pc, target),
            _ => {}
        }
    }

    fn warm(&mut self, pc: u64, class: OpClass, taken: bool, target: u64) {
        match class {
            OpClass::Call => {
                self.ras_push(pc + 1);
                self.btb_update(pc, target);
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

    /// Where the BTB's words start in the serialization.
    fn btb_offset(&self) -> usize {
        self.bimodal.len() + self.gshare.len() + self.meta.len() + 1
    }

    /// `BranchPredictor::save_state` as the timestamp layout wrote it:
    /// tables, history, the BTB's sorted sets, then the RAS as its live
    /// frames pushed oldest-first into a fresh stack, and zero statistics.
    fn canonical_words(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for table in [&self.bimodal, &self.gshare, &self.meta] {
            out.extend(table.iter().map(|&c| c as u64));
        }
        out.push(self.history);
        canonical_sets(
            &mut out,
            (self.btb_sets as usize, self.btb_assoc, 4),
            &self.btb_valid,
            &self.btb_lru,
            |way, out| out.extend([self.btb_tags[way], self.btb_targets[way]]),
            |_| 1,
        );
        let len = self.ras.len();
        let mut fresh = vec![0u64; len];
        let mut top = 0;
        for age in (0..self.ras_depth).rev() {
            top = (top + 1) % len;
            fresh[top] = self.ras[(self.ras_top + len - age) % len];
        }
        out.extend(fresh);
        out.extend([top as u64, self.ras_depth as u64, 0, 0, 0]);
        out
    }
}

/// One random warming update or prediction applied to both predictors.
fn step_predictors(packed: &mut BranchPredictor, reference: &mut RefBpred, word: u64, i: usize) {
    let pc = word % 4096;
    let class = match (word >> 16) % 10 {
        0 => OpClass::Jump,
        1 => OpClass::Call,
        2 => OpClass::Return,
        _ => OpClass::CondBranch,
    };
    let taken = (word >> 32) & 1 == 1;
    let target = (word >> 33) % 4096;
    if (word >> 48).is_multiple_of(4) {
        // Mixed-in predictions exercise BTB lookup ticks and RAS in
        // exactly the interleaving detailed simulation produces.
        let direct = ((word >> 50) & 1 == 1).then_some(target);
        let got = packed.predict(pc, class, direct);
        let want = reference.predict(pc, class, direct);
        assert_eq!(
            (got.taken, got.target),
            want,
            "predict #{i} pc={pc} class={class:?}"
        );
    } else {
        packed.warm(pc, class, taken, target);
        reference.warm(pc, class, taken, target);
    }
}

#[test]
fn branch_predictor_matches_parallel_vec_reference() {
    let cfg = MachineConfig::eight_way().bpred;
    let mut packed = BranchPredictor::new(cfg);
    let mut reference = RefBpred::new(cfg);
    let mut rng = Rng(0x5EED_5EED_5EED_5EED);
    // Interleave warming updates and predictions over a working set of
    // branch pcs large enough to churn the BTB sets.
    for i in 0..200_000 {
        step_predictors(&mut packed, &mut reference, rng.next(), i);
    }
    // Final predictions across the full pc range must agree.
    for pc in 0..4096 {
        let got = packed.predict(pc, OpClass::CondBranch, None);
        let want = reference.predict(pc, OpClass::CondBranch, None);
        assert_eq!((got.taken, got.target), want, "final pc={pc}");
    }
    assert_eq!(packed.cond_mispredicts(), reference.cond_mispredicts);
}

#[test]
fn branch_predictor_state_words_match_the_reference_and_round_trip() {
    for cfg in [
        MachineConfig::eight_way().bpred,
        MachineConfig::sixteen_way().bpred,
        PredictorConfig {
            btb_entries: 12, // 3 sets: the divide path
            ..MachineConfig::eight_way().bpred
        },
    ] {
        let mut packed = BranchPredictor::new(cfg);
        let mut reference = RefBpred::new(cfg);
        let mut rng = Rng(0xB7B0_0000_0000_0001 ^ cfg.btb_entries as u64);
        // Checked early (BTB sets part empty, RAS shallow) and late.
        for round in [300usize, 100_000] {
            for i in 0..round {
                step_predictors(&mut packed, &mut reference, rng.next(), i);
            }
            let mut words = Vec::new();
            packed.save_state(&mut words);
            assert_eq!(words, reference.canonical_words(), "canonical words");
            assert_sets_well_formed(
                &words[reference.btb_offset()..],
                reference.btb_sets as usize,
                reference.btb_assoc,
                4,
            );
            let mut restored = BranchPredictor::new(cfg);
            assert_eq!(restored.load_state(&words), Some(words.len()));
            let mut again = Vec::new();
            restored.save_state(&mut again);
            assert_eq!(again, words, "save -> load -> save");
            // The restored predictor stays in lockstep with the live one.
            let mut twin = reference.clone();
            let mut fork = Rng(rng.0);
            for i in 0..20_000 {
                step_predictors(&mut restored, &mut twin, fork.next(), i);
                step_predictors(&mut packed, &mut reference, rng.next(), i);
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            packed.save_state(&mut a);
            restored.save_state(&mut b);
            assert_eq!(a, b);
            assert_eq!(a, reference.canonical_words());
        }
    }
}
