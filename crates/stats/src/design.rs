use crate::{SplitMix64, StatsError};

/// A simple-random sampling design over an ordered population of
/// `population` units of `unit_size` instructions each.
///
/// SMARTS itself uses systematic sampling (simpler in execution-driven
/// simulators; its design is `smarts_core::SamplingParams`), but random
/// sampling is the theoretical reference the paper appeals to; this
/// design exists for the systematic-vs-random ablation.
///
/// Unit indices are drawn without replacement by a deterministic
/// splitmix64-based shuffle seeded by the caller, so designs are
/// reproducible.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RandomDesign {
    unit_size: u64,
    population: u64,
    indices: Vec<u64>,
}

impl RandomDesign {
    /// Draws `n` distinct unit indices uniformly at random.
    ///
    /// # Errors
    ///
    /// Returns an error when `unit_size` or `population` is zero, or when
    /// `n` is zero or exceeds the population.
    pub fn draw(unit_size: u64, population: u64, n: u64, seed: u64) -> Result<Self, StatsError> {
        if unit_size == 0 {
            return Err(StatsError::ZeroDesignParameter("unit_size"));
        }
        if population == 0 {
            return Err(StatsError::ZeroDesignParameter("population"));
        }
        if n == 0 {
            return Err(StatsError::ZeroDesignParameter("n"));
        }
        if n > population {
            return Err(StatsError::InsufficientSample {
                required: n,
                actual: population,
            });
        }
        // Floyd's algorithm for sampling without replacement, driven by
        // the crate's splitmix64 (started one step past `seed`).
        let mut rng = SplitMix64::new(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let mut chosen = std::collections::HashSet::with_capacity(n as usize);
        for j in (population - n)..population {
            let t = rng.next_u64() % (j + 1);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        let mut indices: Vec<u64> = chosen.into_iter().collect();
        indices.sort_unstable();
        Ok(RandomDesign {
            unit_size,
            population,
            indices,
        })
    }

    /// Sampling-unit size `U` in instructions.
    pub fn unit_size(&self) -> u64 {
        self.unit_size
    }

    /// Population size `N` in units.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Number of selected units.
    pub fn sample_size(&self) -> u64 {
        self.indices.len() as u64
    }

    /// Selected unit indices in increasing order.
    pub fn unit_indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.indices.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_design_is_distinct_sorted_reproducible() {
        let a = RandomDesign::draw(1000, 10_000, 500, 42).unwrap();
        let b = RandomDesign::draw(1000, 10_000, 500, 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.sample_size(), 500);
        let idx: Vec<u64> = a.unit_indices().collect();
        let mut dedup = idx.clone();
        dedup.dedup();
        assert_eq!(idx, dedup, "indices are distinct and sorted");
        assert!(idx.iter().all(|&i| i < 10_000));
        let c = RandomDesign::draw(1000, 10_000, 500, 43).unwrap();
        assert_ne!(a, c, "different seeds give different samples");
    }

    #[test]
    fn random_design_full_population() {
        let d = RandomDesign::draw(10, 100, 100, 7).unwrap();
        let idx: Vec<u64> = d.unit_indices().collect();
        assert_eq!(idx, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn random_design_rejects_bad_arguments() {
        assert!(RandomDesign::draw(0, 10, 5, 1).is_err());
        assert!(RandomDesign::draw(10, 0, 5, 1).is_err());
        assert!(RandomDesign::draw(10, 10, 0, 1).is_err());
        assert!(RandomDesign::draw(10, 10, 11, 1).is_err());
    }
}
