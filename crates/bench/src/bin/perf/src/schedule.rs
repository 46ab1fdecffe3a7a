//! Seed → inputs. The `--seed` argument drives a SplitMix64 that picks
//! systematic offsets, sampler seeds and the served job schedule; the
//! simulator only ever sees the flags and job specs generated here.
//! The same seed gives the same inputs, whatever the host speed.

/// Builtin-frontend probes: hashing (large pages), a tight loop,
/// pointer chasing and a branchy kernel — four different warm/detail
/// cost mixes.
pub const BUILTIN_BENCHES: [&str; 4] = ["hashp-2", "loopy-1", "chase-2", "branchy-1"];
/// Probes the compact-RISC frontend can encode at scale 1.
pub const RISC_BENCHES: [&str; 3] = ["chase-2", "loopy-1", "rle-1"];

/// Distinct rounds a CLI workload cycles through. Every job spec in
/// them gets a golden line in setup, so every measured job is checked.
pub const DISTINCT_ROUNDS: usize = 3;
/// Unmeasured ops before the measured phase.
pub const WARMUP_ROUNDS: u64 = 3;
/// Store hits per served round.
pub const HITS_PER_ROUND: usize = 3;
/// Exact repeats (results-cache hits) per served round.
pub const REPEATS_PER_ROUND: usize = 12;
/// Served rounds per lap. A lap is the served op: its first round is
/// raced (both clients submit the same cold spec at the same time) and
/// its rounds together give every client one cold job per probe and
/// the same mix of store hits, so all laps do the same work.
pub const LAP_ROUNDS: u64 = BUILTIN_BENCHES.len() as u64;
/// Detailed warming `W` of the 8-way machine; served cold specs step it
/// once every offset of a probe has been used.
pub const BASE_W: u64 = 2000;

#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Stream `stream` of seed `seed`: each consumer of the seed draws
    /// from its own stream, so adding a draw to one leaves the others.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `0..n` in random order.
    fn shuffled(&mut self, n: u64) -> Vec<u64> {
        let mut values: Vec<u64> = (0..n).collect();
        for i in (1..values.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            values.swap(i, j);
        }
        values
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampler {
    Systematic,
    Stratified(u64),
    Adaptive(u64),
}

/// One sampling job, as both the CLI and the server can be asked it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    pub bench: &'static str,
    pub risc: bool,
    pub n: u64,
    pub offset: u64,
    pub w: u64,
    pub sampler: Sampler,
}

impl Spec {
    fn new(bench: &'static str, risc: bool, n: u64, offset: u64) -> Self {
        Spec {
            bench,
            risc,
            n,
            offset,
            w: BASE_W,
            sampler: Sampler::Systematic,
        }
    }

    pub fn with_sampler(&self, sampler: Sampler) -> Self {
        Spec {
            sampler,
            ..self.clone()
        }
    }

    /// Whether the accuracy metrics are taken over this job: the
    /// systematic design at `ANCHOR_OFFSET`, the same for every seed.
    pub fn is_anchor(&self) -> bool {
        self.offset == ANCHOR_OFFSET && self.sampler == Sampler::Systematic
    }

    /// Identity of the job: equal keys must produce equal report bytes.
    pub fn key(&self) -> String {
        let isa = if self.risc { "risc" } else { "builtin" };
        let sampler = match self.sampler {
            Sampler::Systematic => "systematic".to_string(),
            Sampler::Stratified(seed) => format!("stratified-{seed}"),
            Sampler::Adaptive(seed) => format!("adaptive-{seed}"),
        };
        format!(
            "{isa}/{}/n{}/j{}/w{}/{sampler}",
            self.bench, self.n, self.offset, self.w
        )
    }

    /// `--isa` and `--sampler/--seed`: the flags a store replay shares
    /// with a cold run.
    pub fn selection_flags(&self) -> Vec<String> {
        let mut flags = Vec::new();
        if self.risc {
            flags.extend(["--isa".to_string(), "risc".to_string()]);
        }
        let (kind, seed) = match self.sampler {
            Sampler::Systematic => return flags,
            Sampler::Stratified(seed) => ("stratified", seed),
            Sampler::Adaptive(seed) => ("adaptive", seed),
        };
        flags.extend([
            "--sampler".to_string(),
            kind.to_string(),
            "--seed".to_string(),
            seed.to_string(),
        ]);
        flags
    }

    /// `smarts sample` arguments for a cold run of this spec.
    pub fn sample_args(&self) -> Vec<String> {
        let mut args: Vec<String> = [
            "sample",
            "--bench",
            self.bench,
            "--n",
            &self.n.to_string(),
            "--offset",
            &self.offset.to_string(),
            "--w",
            &self.w.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        args.extend(self.selection_flags());
        args.push("--json".to_string());
        args
    }
}

/// `DISTINCT_ROUNDS` rounds of one systematic cold job per probe, each
/// probe at a different offset in each round: `ANCHOR_OFFSET` in round
/// 0, seed-chosen ones after it.
fn cold_rounds(
    seed: u64,
    benches: &[&'static str],
    risc: bool,
    n: u64,
    intervals: &[u64],
) -> Vec<Vec<Spec>> {
    assert_eq!(benches.len(), intervals.len());
    let mut rng = SplitMix64::new(seed, 1);
    let offsets: Vec<Vec<u64>> = intervals
        .iter()
        .map(|&k| {
            assert!(
                k as usize >= DISTINCT_ROUNDS,
                "a probe needs an offset per round"
            );
            let mut offsets = rng.shuffled(k);
            offsets.retain(|&offset| offset != ANCHOR_OFFSET);
            offsets.insert(0, ANCHOR_OFFSET);
            offsets
        })
        .collect();
    (0..DISTINCT_ROUNDS)
        .map(|round| {
            benches
                .iter()
                .zip(&offsets)
                .map(|(bench, offs)| Spec::new(bench, risc, n, offs[round]))
                .collect()
        })
        .collect()
}

/// `cold_sample`: `intervals[i]` is the sampling interval of
/// `BUILTIN_BENCHES[i]` at n = 100.
pub fn cold_sample(seed: u64, intervals: &[u64]) -> Vec<Vec<Spec>> {
    cold_rounds(seed, &BUILTIN_BENCHES, false, 100, intervals)
}

/// `risc_warm_store`: as [`cold_sample`] over `RISC_BENCHES` through
/// the risc frontend.
pub fn risc_warm_store(seed: u64, intervals: &[u64]) -> Vec<Vec<Spec>> {
    cold_rounds(seed, &RISC_BENCHES, true, 100, intervals)
}

/// Offset of the *anchor* jobs, whatever the seed: every store written
/// in setup (`store_sweep`'s stores, `served_mix`'s base stores) and
/// round 0 of the cold workloads. Two things need a seed-independent
/// offset. A store's replay cost follows its offset — `chase-2` at
/// n = 200 replays in 142 to 200 ms depending on it — and with one
/// store per probe a seeded offset put the seed, not the code, into the
/// op latency (±8% between seeds). And the accuracy of an estimate
/// follows its offset (over seeded offsets the mean error spread 13–22%
/// between seeds, the mean half-width 4–9%), so `cpi_err_pct` and
/// `ci_halfwidth_pct` are taken over the anchor jobs only: they read
/// the same for every seed and move only when the simulator's numbers
/// do. The seed still picks every sampler seed and every other cold
/// offset.
pub const ANCHOR_OFFSET: u64 = 0;

/// `store_sweep`: the stores written in setup (one per probe, n = 200)
/// and the rounds replayed against them. A round replays each store's
/// full grid, then a stratified subset under one of `DISTINCT_ROUNDS`
/// seed-chosen sampler seeds.
pub fn store_sweep(seed: u64) -> (Vec<Spec>, Vec<Vec<Spec>>) {
    let mut rng = SplitMix64::new(seed, 2);
    let stores: Vec<Spec> = BUILTIN_BENCHES
        .iter()
        .map(|bench| Spec::new(bench, false, 200, ANCHOR_OFFSET))
        .collect();
    let rounds = (0..DISTINCT_ROUNDS)
        .map(|_| {
            stores
                .iter()
                .flat_map(|store| {
                    let seed = rng.next_u64() % 1_000_000;
                    [store.clone(), store.with_sampler(Sampler::Stratified(seed))]
                })
                .collect()
        })
        .collect();
    (stores, rounds)
}

/// What one client submits in one served round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedRound {
    /// A spec no earlier round used: fresh offset ⇒ fresh fingerprint.
    pub cold: Spec,
    /// Sampled replays of a pre-warmed base store under fresh seeds.
    pub hits: Vec<Spec>,
    /// Exact repeats of this round's own jobs: `0` is the cold job,
    /// `1..` the hits.
    pub repeats: Vec<usize>,
    /// Both clients submit this round's cold spec together.
    pub raced: bool,
}

/// `served_mix`: base stores pre-warmed in setup plus an endless,
/// seed-determined stream of rounds per client.
#[derive(Debug, Clone)]
pub struct ServedSchedule {
    seed: u64,
    /// One pre-warmed store per probe (n = 100, at `ANCHOR_OFFSET`).
    pub base: Vec<Spec>,
    /// Per probe, every offset but the base store's, shuffled.
    offsets: Vec<Vec<u64>>,
}

impl ServedSchedule {
    /// `intervals[i]` is the interval of `BUILTIN_BENCHES[i]` at n = 100.
    pub fn new(seed: u64, intervals: &[u64]) -> Self {
        assert_eq!(BUILTIN_BENCHES.len(), intervals.len());
        let mut rng = SplitMix64::new(seed, 3);
        let mut base = Vec::new();
        let mut offsets = Vec::new();
        for (bench, &k) in BUILTIN_BENCHES.iter().zip(intervals) {
            assert!(k >= 2, "a probe needs an offset besides its base store's");
            base.push(Spec::new(bench, false, 100, ANCHOR_OFFSET));
            let mut shuffled = rng.shuffled(k);
            shuffled.retain(|&offset| offset != ANCHOR_OFFSET);
            offsets.push(shuffled);
        }
        ServedSchedule {
            seed,
            base,
            offsets,
        }
    }

    /// The `slot`-th cold spec of probe `probe`, walking the probe's
    /// shuffled offsets; when they run out, `W` steps by one, which is a
    /// new sampling design and so a new store.
    fn cold(&self, probe: usize, slot: u64) -> Spec {
        let offsets = &self.offsets[probe];
        let mut spec = Spec::new(
            BUILTIN_BENCHES[probe],
            false,
            100,
            offsets[(slot % offsets.len() as u64) as usize],
        );
        spec.w = BASE_W + slot / offsets.len() as u64;
        spec
    }

    /// Round `round` (counted from the first warm-up round) of client
    /// `client` out of `clients`. The `WARMUP_ROUNDS` warm-up rounds are
    /// the tail of lap 0; every later lap starts with its raced round.
    pub fn round(&self, client: u64, clients: u64, round: u64) -> ServedRound {
        let probes = BUILTIN_BENCHES.len() as u64;
        let lap = (round + LAP_ROUNDS - WARMUP_ROUNDS) / LAP_ROUNDS;
        let position = (round + LAP_ROUNDS - WARMUP_ROUNDS) % LAP_ROUNDS;
        let raced = position == 0;
        // The raced probe rotates lap by lap; the other rounds of the
        // lap take the other probes, in an order rotated per client.
        let raced_probe = lap % probes;
        let (probe, slot) = if raced {
            (raced_probe, lap * clients)
        } else {
            let turn = (position - 1 + client) % (probes - 1);
            ((raced_probe + 1 + turn) % probes, lap * clients + client)
        };
        let mut rng = SplitMix64::new(self.seed, 4 + round * clients + client);
        let hits = (0..HITS_PER_ROUND as u64)
            .map(|hit| {
                // Over a lap every base store is hit equally often, and
                // by the same kinds of sampler.
                let base = &self.base[((lap + position + hit) % probes) as usize];
                let seed = rng.next_u64() % 1_000_000;
                base.with_sampler(if hit % 2 == 0 {
                    Sampler::Stratified(seed)
                } else {
                    Sampler::Adaptive(seed)
                })
            })
            .collect();
        ServedRound {
            cold: self.cold(probe as usize, slot),
            hits,
            repeats: (0..REPEATS_PER_ROUND)
                .map(|i| i % (1 + HITS_PER_ROUND))
                .collect(),
            raced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K100: [u64; 4] = [39, 36, 30, 41];

    #[test]
    fn same_seed_gives_identical_flags_and_job_specs() {
        for seed in [0, 1, 0xDEAD_BEEF] {
            assert_eq!(cold_sample(seed, &K100), cold_sample(seed, &K100));
            assert_eq!(store_sweep(seed), store_sweep(seed));
            assert_eq!(
                risc_warm_store(seed, &K100[..3]),
                risc_warm_store(seed, &K100[..3])
            );
            let a = ServedSchedule::new(seed, &K100);
            let b = ServedSchedule::new(seed, &K100);
            assert_eq!(a.base, b.base);
            for round in 0..40 {
                for client in 0..2 {
                    assert_eq!(a.round(client, 2, round), b.round(client, 2, round));
                }
            }
            let args: Vec<Vec<String>> = cold_sample(seed, &K100)
                .concat()
                .iter()
                .map(Spec::sample_args)
                .collect();
            let again: Vec<Vec<String>> = cold_sample(seed, &K100)
                .concat()
                .iter()
                .map(Spec::sample_args)
                .collect();
            assert_eq!(args, again);
        }
        assert_ne!(cold_sample(1, &K100), cold_sample(2, &K100));
    }

    #[test]
    fn cli_rounds_stay_inside_their_designs() {
        let rounds = cold_sample(7, &K100);
        assert_eq!(rounds.len(), DISTINCT_ROUNDS);
        for round in &rounds {
            assert_eq!(round.len(), BUILTIN_BENCHES.len());
            for (spec, k) in round.iter().zip(K100) {
                assert!(spec.offset < k);
                assert_eq!((spec.n, spec.w, spec.risc), (100, BASE_W, false));
            }
        }
        // Round 0 is the anchor round, whatever the seed; the seed picks
        // the rest.
        assert_eq!(rounds[0], cold_sample(8, &K100)[0]);
        assert!(rounds[0].iter().all(Spec::is_anchor));
        assert!(!rounds[1..].concat().iter().any(Spec::is_anchor));
        // A probe never repeats an offset across the distinct rounds.
        for probe in 0..BUILTIN_BENCHES.len() {
            let mut offs: Vec<u64> = rounds.iter().map(|r| r[probe].offset).collect();
            offs.sort_unstable();
            offs.dedup();
            assert_eq!(offs.len(), DISTINCT_ROUNDS);
        }
        assert!(risc_warm_store(7, &K100[..3])
            .concat()
            .iter()
            .all(|s| s.risc));

        let (stores, rounds) = store_sweep(7);
        assert_ne!(rounds, store_sweep(8).1);
        for store in &stores {
            assert_eq!((store.offset, store.n), (ANCHOR_OFFSET, 200));
        }
        for round in &rounds {
            assert_eq!(round.len(), 2 * stores.len());
            for (pair, store) in round.chunks(2).zip(&stores) {
                assert_eq!(&pair[0], store);
                assert!(pair[0].is_anchor() && !pair[1].is_anchor());
                assert!(matches!(pair[1].sampler, Sampler::Stratified(_)));
                assert_eq!(pair[1].with_sampler(Sampler::Systematic), *store);
            }
        }
    }

    #[test]
    fn sample_args_spell_the_spec() {
        let spec = Spec {
            bench: "rle-1",
            risc: true,
            n: 100,
            offset: 5,
            w: 2001,
            sampler: Sampler::Adaptive(9),
        };
        assert_eq!(
            spec.sample_args().join(" "),
            "sample --bench rle-1 --n 100 --offset 5 --w 2001 --isa risc \
             --sampler adaptive --seed 9 --json"
        );
        assert_eq!(spec.key(), "risc/rle-1/n100/j5/w2001/adaptive-9");
        let plain = Spec::new("loopy-1", false, 100, 0);
        assert!(plain.selection_flags().is_empty());
    }

    #[test]
    fn served_cold_specs_are_fresh_and_races_are_shared() {
        let schedule = ServedSchedule::new(11, &K100);
        let mut seen = std::collections::BTreeSet::new();
        for base in &schedule.base {
            assert!(seen.insert(base.key()));
        }
        // Far more rounds than one run submits: a cold spec repeats only
        // where the two clients race it.
        for round in 0..1000 {
            let a = schedule.round(0, 2, round);
            let b = schedule.round(1, 2, round);
            assert_eq!(a.raced, round % LAP_ROUNDS == WARMUP_ROUNDS % LAP_ROUNDS);
            assert_eq!(a.raced, a.cold == b.cold);
            assert!(
                seen.insert(a.cold.key()),
                "round {round} repeats a cold spec"
            );
            assert!(a.raced || seen.insert(b.cold.key()));
            assert!(!a.cold.is_anchor() && !b.cold.is_anchor());
            for spec in [&a.cold, &b.cold] {
                let probe = BUILTIN_BENCHES
                    .iter()
                    .position(|b| *b == spec.bench)
                    .unwrap();
                assert!(spec.offset < K100[probe]);
            }
            assert_eq!(a.hits.len(), HITS_PER_ROUND);
            assert_eq!(a.repeats.len(), REPEATS_PER_ROUND);
            for hit in &a.hits {
                assert!(schedule
                    .base
                    .contains(&hit.with_sampler(Sampler::Systematic)));
                assert_ne!(hit.sampler, Sampler::Systematic);
            }
            assert_ne!(a.hits, b.hits);
        }
    }

    #[test]
    fn every_served_lap_does_the_same_work() {
        let schedule = ServedSchedule::new(5, &K100);
        let work = |client: u64, lap: u64| {
            let first = WARMUP_ROUNDS + lap * LAP_ROUNDS;
            let mut colds = Vec::new();
            let mut hits = Vec::new();
            for round in first..first + LAP_ROUNDS {
                let plan = schedule.round(client, 2, round);
                assert_eq!(plan.raced, round == first);
                colds.push(plan.cold.bench);
                for hit in plan.hits {
                    hits.push((hit.bench, matches!(hit.sampler, Sampler::Adaptive(_))));
                }
            }
            colds.sort_unstable();
            hits.sort_unstable();
            (colds, hits)
        };
        let reference = work(0, 0);
        let mut probes = BUILTIN_BENCHES.to_vec();
        probes.sort_unstable();
        assert_eq!(reference.0, probes);
        for lap in 0..12 {
            for client in 0..2 {
                assert_eq!(work(client, lap), reference, "lap {lap} client {client}");
            }
        }
    }
}
