use crate::StatsError;
use std::fmt;

/// A systematic sampling design over an ordered population of sampling
/// units (Section 3.1, Figure 1 of the paper).
///
/// The population consists of `population` units of `unit_size`
/// instructions each. The design selects every `interval`-th unit starting
/// at unit index `offset`, i.e. units `j, j+k, j+2k, …`.
///
/// # Examples
///
/// ```
/// use smarts_stats::SystematicDesign;
///
/// # fn main() -> Result<(), smarts_stats::StatsError> {
/// // 1M-instruction stream, U = 1000, want n = 100 units.
/// let design = SystematicDesign::for_sample_size(1000, 1_000, 100, 0)?;
/// assert_eq!(design.interval(), 10);
/// assert_eq!(design.sample_size(), 100);
/// assert_eq!(design.unit_indices().next(), Some(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystematicDesign {
    unit_size: u64,
    population: u64,
    interval: u64,
    offset: u64,
}

impl SystematicDesign {
    /// Creates a design from an explicit sampling interval `k`.
    ///
    /// # Errors
    ///
    /// Returns an error when `unit_size`, `population`, or `interval` is
    /// zero, or when `offset ≥ interval`.
    pub fn new(
        unit_size: u64,
        population: u64,
        interval: u64,
        offset: u64,
    ) -> Result<Self, StatsError> {
        if unit_size == 0 {
            return Err(StatsError::ZeroDesignParameter("unit_size"));
        }
        if population == 0 {
            return Err(StatsError::ZeroDesignParameter("population"));
        }
        if interval == 0 {
            return Err(StatsError::ZeroDesignParameter("interval"));
        }
        if offset >= interval {
            return Err(StatsError::OffsetOutOfRange { offset, interval });
        }
        Ok(SystematicDesign {
            unit_size,
            population,
            interval,
            offset,
        })
    }

    /// Creates a design targeting a sample of `n` units: `k = ⌊N/n⌋`
    /// (clamped to at least 1, i.e. measure-everything when `n ≥ N`).
    ///
    /// # Errors
    ///
    /// Returns an error when `unit_size`, `population`, or `n` is zero, or
    /// when `offset` is not below the resulting interval.
    pub fn for_sample_size(
        unit_size: u64,
        population: u64,
        n: u64,
        offset: u64,
    ) -> Result<Self, StatsError> {
        if n == 0 {
            return Err(StatsError::ZeroDesignParameter("n"));
        }
        if population == 0 {
            return Err(StatsError::ZeroDesignParameter("population"));
        }
        let interval = (population / n).max(1);
        SystematicDesign::new(unit_size, population, interval, offset)
    }

    /// Sampling-unit size `U` in instructions.
    pub fn unit_size(&self) -> u64 {
        self.unit_size
    }

    /// Population size `N` in units.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Systematic sampling interval `k` in units.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Phase offset `j` (index of the first selected unit), `0 ≤ j < k`.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Returns a copy of this design with a different phase offset.
    ///
    /// # Errors
    ///
    /// Returns an error when `offset ≥ interval`.
    pub fn with_offset(&self, offset: u64) -> Result<Self, StatsError> {
        SystematicDesign::new(self.unit_size, self.population, self.interval, offset)
    }

    /// Number of units the design selects: `⌈(N − j) / k⌉`.
    pub fn sample_size(&self) -> u64 {
        if self.offset >= self.population {
            0
        } else {
            (self.population - self.offset).div_ceil(self.interval)
        }
    }

    /// Total instructions measured in detail: `n · U`.
    pub fn measured_instructions(&self) -> u64 {
        self.sample_size() * self.unit_size
    }

    /// Indices (in units) of the selected sampling units: `j, j+k, …`.
    pub fn unit_indices(&self) -> impl Iterator<Item = u64> + '_ {
        (self.offset..self.population).step_by(self.interval as usize)
    }
}

impl fmt::Display for SystematicDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "U={} N={} k={} j={} (n={})",
            self.unit_size,
            self.population,
            self.interval,
            self.offset,
            self.sample_size()
        )
    }
}

/// A simple-random sampling design over the same population abstraction.
///
/// SMARTS itself uses systematic sampling (simpler in execution-driven
/// simulators), but random sampling is the theoretical reference the paper
/// appeals to; this design exists for the systematic-vs-random ablation.
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
        // splitmix64 so no external RNG dependency is needed here.
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut chosen = std::collections::HashSet::with_capacity(n as usize);
        for j in (population - n)..population {
            let t = next() % (j + 1);
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
    fn systematic_selects_expected_indices() {
        let d = SystematicDesign::new(1000, 20, 5, 2).unwrap();
        let idx: Vec<u64> = d.unit_indices().collect();
        assert_eq!(idx, vec![2, 7, 12, 17]);
        assert_eq!(d.sample_size(), 4);
        assert_eq!(d.measured_instructions(), 4000);
    }

    #[test]
    fn for_sample_size_computes_interval() {
        let d = SystematicDesign::for_sample_size(1000, 10_000, 100, 0).unwrap();
        assert_eq!(d.interval(), 100);
        assert_eq!(d.sample_size(), 100);
    }

    #[test]
    fn oversized_n_clamps_to_measure_everything() {
        let d = SystematicDesign::for_sample_size(10, 50, 1_000, 0).unwrap();
        assert_eq!(d.interval(), 1);
        assert_eq!(d.sample_size(), 50);
        assert_eq!(d.measured_instructions(), 500);
    }

    #[test]
    fn invalid_designs_rejected() {
        assert!(SystematicDesign::new(0, 10, 2, 0).is_err());
        assert!(SystematicDesign::new(10, 0, 2, 0).is_err());
        assert!(SystematicDesign::new(10, 10, 0, 0).is_err());
        assert!(SystematicDesign::new(10, 10, 2, 2).is_err());
        assert!(SystematicDesign::for_sample_size(10, 10, 0, 0).is_err());
    }

    #[test]
    fn with_offset_preserves_other_fields() {
        let d = SystematicDesign::new(1000, 100, 10, 0).unwrap();
        let shifted = d.with_offset(3).unwrap();
        assert_eq!(shifted.offset(), 3);
        assert_eq!(shifted.interval(), 10);
        assert_eq!(shifted.population(), 100);
    }

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
