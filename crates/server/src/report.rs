//! Canonical, bit-exact [`SampleReport`] serialization.
//!
//! The server's results cache and the `--json` CLI path both need a
//! representation of a report that (a) round-trips every `f64` exactly
//! and (b) serializes the *same* report to the *same* bytes every time,
//! so "bit-identical results" can be asserted with a plain string
//! comparison. Floats are therefore encoded as 16-hex-digit IEEE-754
//! bit strings (not decimal), counters as a fixed-order array, and wall
//! times are excluded entirely — they measure the host, not the sampled
//! machine, and are never bit-stable across runs.

use std::time::Duration;

use smarts_core::{
    ModeInstructions, SampleReport, SamplerSpec, SamplingParams, UnitSample, Warming,
};
use smarts_energy::ActivityCounters;
use smarts_exec::Estimate;
use smarts_stats::{SamplerEstimate, StopReason};

use crate::json::Json;

/// Encodes an `f64` as its exact IEEE-754 bit pattern, zero-padded hex.
fn f64_bits(value: f64) -> Json {
    Json::Str(format!("{:016x}", value.to_bits()))
}

/// Decodes an [`f64_bits`] string.
fn bits_f64(value: &Json) -> Result<f64, String> {
    let text = value.as_str().ok_or("expected a hex bit string")?;
    if text.len() != 16 {
        return Err(format!("bad f64 bit string `{text}`"));
    }
    let bits = u64::from_str_radix(text, 16).map_err(|e| format!("bad f64 bit string: {e}"))?;
    Ok(f64::from_bits(bits))
}

fn counters_to_json(c: &ActivityCounters) -> Json {
    // Fixed declaration order; a counter added to ActivityCounters
    // lengthens the array, which an older reader's length check refuses.
    Json::Arr(c.to_array().iter().map(|&v| Json::U64(v)).collect())
}

fn counters_from_json(value: &Json) -> Result<ActivityCounters, String> {
    let arr = value.as_arr().ok_or("counters must be an array")?;
    let want = ActivityCounters::COUNT;
    if arr.len() != want {
        return Err(format!(
            "counters array has {} entries, want {want}",
            arr.len()
        ));
    }
    let mut v = [0u64; ActivityCounters::COUNT];
    for (slot, entry) in v.iter_mut().zip(arr) {
        *slot = entry.as_u64().ok_or("counters entries must be u64")?;
    }
    Ok(ActivityCounters::from_array(v))
}

/// Serializes a report to its canonical JSON value.
pub fn report_to_json(report: &SampleReport) -> Json {
    Json::obj(report_fields(report))
}

/// The fields of [`report_to_json`]'s object, in order.
fn report_fields(report: &SampleReport) -> Vec<(&'static str, Json)> {
    let p = &report.params;
    let params = Json::obj(vec![
        ("unit_size", Json::U64(p.unit_size)),
        ("detailed_warming", Json::U64(p.detailed_warming)),
        (
            "warming",
            Json::Str(
                match p.warming {
                    Warming::None => "none",
                    Warming::Functional => "functional",
                }
                .to_string(),
            ),
        ),
        ("interval", Json::U64(p.interval)),
        ("offset", Json::U64(p.offset)),
        // No design is capped: a constant, as `fast_forwarded` is 0.
        ("max_units", Json::Null),
    ]);
    let instructions = Json::obj(vec![
        (
            "fast_forwarded",
            Json::U64(report.instructions.fast_forwarded),
        ),
        (
            "detailed_warmed",
            Json::U64(report.instructions.detailed_warmed),
        ),
        ("measured", Json::U64(report.instructions.measured)),
    ]);
    let units = Json::Arr(
        report
            .units
            .iter()
            .map(|u| {
                Json::obj(vec![
                    ("start_instr", Json::U64(u.start_instr)),
                    ("cycles", Json::U64(u.cycles)),
                    ("instructions", Json::U64(u.instructions)),
                    ("cpi_bits", f64_bits(u.cpi)),
                    ("epi_bits", f64_bits(u.epi)),
                    ("counters", counters_to_json(&u.counters)),
                ])
            })
            .collect(),
    );
    vec![
        ("params", params),
        ("instructions", instructions),
        // Aggregate means are derivable from the units, but carrying
        // their bit patterns lets the reader verify its re-accumulation
        // reproduced the writer's exact floats.
        ("cpi_mean_bits", f64_bits(report.cpi().mean())),
        ("epi_mean_bits", f64_bits(report.epi().mean())),
        ("units", units),
    ]
}

/// Serializes a report to its canonical single-line string form — the
/// unit of byte-identity comparison across cold, store-hit, and
/// cache-hit paths.
pub fn canonical_report_line(report: &SampleReport) -> String {
    report_to_json(report).to_line()
}

/// The line a run's estimate is served and printed as — by the server's
/// workers and by `smarts sample --json`, whichever entry point ran it:
/// [`canonical_report_line`] for the systematic estimator,
/// [`sampled_report_line`] for a sampler's.
pub fn estimate_line(estimate: &Estimate) -> String {
    match estimate {
        Estimate::Systematic(run) => canonical_report_line(&run.report),
        Estimate::Sampled(sampled) => sampled_report_line(sampled),
    }
}

/// Serializes a sampled (non-systematic) run: the canonical report
/// object extended with a trailing `sampler` section carrying the spec,
/// the sampler's estimate (as exact bit patterns), and the measured
/// record indices.
///
/// Systematic jobs never pass through here — their lines stay
/// byte-identical to [`canonical_report_line`] output, golden
/// fingerprints included. Sampled lines are deterministic for a fixed
/// (store, spec) pair, so cold, store-hit, and cache-hit paths compare
/// byte-equal exactly as systematic ones do.
pub fn sampled_report_line(sampled: &smarts_exec::SampledReplay) -> String {
    let section = sampler_to_json(&sampled.spec, &sampled.estimate, &sampled.measured);
    let mut fields = report_fields(&sampled.report.report);
    fields.push(("sampler", section));
    Json::obj(fields).to_line()
}

/// The `sampler` section of a [`sampled_report_line`].
fn sampler_to_json(spec: &SamplerSpec, est: &SamplerEstimate, measured: &[u64]) -> Json {
    Json::obj(vec![
        ("kind", Json::Str(spec.kind.tag().to_string())),
        ("seed", Json::U64(spec.seed)),
        ("strata", Json::U64(spec.strata as u64)),
        ("pilot", Json::U64(spec.pilot)),
        ("epsilon_bits", f64_bits(spec.epsilon)),
        ("confidence_bits", f64_bits(spec.confidence)),
        ("mean_bits", f64_bits(est.mean)),
        ("half_width_bits", f64_bits(est.half_width)),
        ("n", Json::U64(est.n)),
        ("pool", Json::U64(est.pool)),
        ("strata_used", Json::U64(est.strata as u64)),
        ("rounds", Json::U64(est.rounds as u64)),
        ("target_met", Json::Bool(est.target_met)),
        ("stop", Json::Str(est.stop.tag().to_string())),
        (
            "measured",
            Json::Arr(measured.iter().map(|&i| Json::U64(i)).collect()),
        ),
    ])
}

/// Reads the spec and estimate back from the `sampler` section of a
/// [`sampled_report_line`] — what a served sampled job prints beside its
/// report.
///
/// # Errors
///
/// Returns a message on a missing or ill-typed field.
pub fn sampler_from_json(section: &Json) -> Result<(SamplerSpec, SamplerEstimate), String> {
    let count = |name: &str| {
        (section.get(name).and_then(Json::as_u64)).ok_or_else(|| format!("missing u64 `{name}`"))
    };
    let bits = |name: &str| bits_f64(section.get(name).ok_or(format!("missing `{name}`"))?);
    let tag = |name: &str| {
        (section.get(name).and_then(Json::as_str)).ok_or_else(|| format!("missing `{name}`"))
    };
    let narrow = |n: u64| u32::try_from(n).map_err(|e| e.to_string());
    let stop = tag("stop")?;
    let stop = StopReason::from_tag(stop).ok_or_else(|| format!("bad stop reason `{stop}`"))?;
    let spec = SamplerSpec {
        kind: tag("kind")?.parse()?,
        seed: count("seed")?,
        strata: narrow(count("strata")?)?,
        pilot: count("pilot")?,
        epsilon: bits("epsilon_bits")?,
        confidence: bits("confidence_bits")?,
    };
    let estimate = SamplerEstimate {
        mean: bits("mean_bits")?,
        half_width: bits("half_width_bits")?,
        n: count("n")?,
        pool: count("pool")?,
        strata: count("strata_used")? as usize,
        rounds: narrow(count("rounds")?)?,
        target_met: section
            .get("target_met")
            .and_then(Json::as_bool)
            .ok_or("missing `target_met`")?,
        stop,
    };
    Ok((spec, estimate))
}

/// Rebuilds a report from its canonical JSON value.
///
/// The returned report's wall times are zero (they are not part of the
/// canonical form). The aggregate CPI/EPI means re-accumulated from the
/// units are checked against the serialized bit patterns.
///
/// # Errors
///
/// Returns a message on a missing/ill-typed field or on an aggregate
/// integrity mismatch.
pub fn report_from_json(value: &Json) -> Result<SampleReport, String> {
    let pv = value.get("params").ok_or("missing `params`")?;
    let field = |obj: &Json, name: &str| -> Result<u64, String> {
        obj.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing u64 `{name}`"))
    };
    let params = SamplingParams {
        unit_size: field(pv, "unit_size")?,
        detailed_warming: field(pv, "detailed_warming")?,
        warming: match pv.get("warming").and_then(Json::as_str) {
            Some("none") => Warming::None,
            Some("functional") => Warming::Functional,
            other => return Err(format!("bad warming mode {other:?}")),
        },
        interval: field(pv, "interval")?,
        offset: field(pv, "offset")?,
    };
    // A number would claim a capped design, which no run produces.
    if !matches!(pv.get("max_units"), Some(Json::Null)) {
        return Err("`max_units` must be null: no design is capped".to_string());
    }
    let iv = value.get("instructions").ok_or("missing `instructions`")?;
    let instructions = ModeInstructions {
        fast_forwarded: field(iv, "fast_forwarded")?,
        detailed_warmed: field(iv, "detailed_warmed")?,
        measured: field(iv, "measured")?,
    };
    let units_json = value
        .get("units")
        .and_then(Json::as_arr)
        .ok_or("missing `units` array")?;
    let mut units = Vec::with_capacity(units_json.len());
    for uv in units_json {
        units.push(UnitSample {
            start_instr: field(uv, "start_instr")?,
            cycles: field(uv, "cycles")?,
            instructions: field(uv, "instructions")?,
            cpi: bits_f64(uv.get("cpi_bits").ok_or("missing `cpi_bits`")?)?,
            epi: bits_f64(uv.get("epi_bits").ok_or("missing `epi_bits`")?)?,
            counters: counters_from_json(uv.get("counters").ok_or("missing `counters`")?)?,
        });
    }
    let report =
        SampleReport::from_units(params, units, instructions, Duration::ZERO, Duration::ZERO);
    let cpi_bits = bits_f64(
        value
            .get("cpi_mean_bits")
            .ok_or("missing `cpi_mean_bits`")?,
    )?;
    let epi_bits = bits_f64(
        value
            .get("epi_mean_bits")
            .ok_or("missing `epi_mean_bits`")?,
    )?;
    if report.cpi().mean().to_bits() != cpi_bits.to_bits()
        || report.epi().mean().to_bits() != epi_bits.to_bits()
    {
        return Err("aggregate mean bits do not match re-accumulated units".to_string());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SampleReport {
        let params = SamplingParams {
            unit_size: 10,
            detailed_warming: 20,
            warming: Warming::Functional,
            interval: 5,
            offset: 1,
        };
        let counters = ActivityCounters {
            fetches: 17,
            branch_mispredicts: 3,
            ..ActivityCounters::default()
        };
        let units = vec![
            UnitSample {
                start_instr: 10,
                cycles: 13,
                instructions: 10,
                cpi: 1.3,
                epi: 0.1 + 0.2, // deliberately not exactly 0.3
                counters,
            },
            UnitSample {
                start_instr: 60,
                cycles: 29,
                instructions: 10,
                cpi: 2.9,
                epi: 1.0 / 3.0,
                counters: ActivityCounters::default(),
            },
        ];
        let instructions = ModeInstructions {
            fast_forwarded: 80,
            detailed_warmed: 40,
            measured: 20,
        };
        SampleReport::from_units(
            params,
            units,
            instructions,
            Duration::from_millis(5),
            Duration::from_millis(7),
        )
    }

    #[test]
    fn canonical_line_round_trips_bit_exactly() {
        let report = sample_report();
        let line = canonical_report_line(&report);
        let parsed = crate::json::parse(&line).unwrap();
        let rebuilt = report_from_json(&parsed).unwrap();
        assert_eq!(canonical_report_line(&rebuilt), line);
        assert_eq!(
            rebuilt.cpi().mean().to_bits(),
            report.cpi().mean().to_bits()
        );
        assert_eq!(
            rebuilt.epi().mean().to_bits(),
            report.epi().mean().to_bits()
        );
        assert_eq!(rebuilt.units.len(), report.units.len());
        assert_eq!(rebuilt.units[0].counters, report.units[0].counters);
        assert_eq!(rebuilt.params, report.params);
        assert_eq!(rebuilt.instructions, report.instructions);
    }

    #[test]
    fn serialization_is_deterministic() {
        let report = sample_report();
        assert_eq!(
            canonical_report_line(&report),
            canonical_report_line(&report)
        );
    }

    #[test]
    fn tampered_aggregate_bits_are_rejected() {
        let report = sample_report();
        let line = canonical_report_line(&report);
        let mut value = crate::json::parse(&line).unwrap();
        if let Json::Obj(pairs) = &mut value {
            for (key, slot) in pairs.iter_mut() {
                if key == "cpi_mean_bits" {
                    *slot = f64_bits(999.0);
                }
            }
        }
        let err = report_from_json(&value).unwrap_err();
        assert!(err.contains("aggregate"), "unexpected error: {err}");
    }

    #[test]
    fn a_capped_design_is_refused() {
        let line = canonical_report_line(&sample_report());
        assert!(line.contains(r#""max_units":null"#), "{line}");
        for cap in [Json::U64(3), Json::Str("3".to_string())] {
            let mut value = crate::json::parse(&line).unwrap();
            if let Json::Obj(fields) = &mut value {
                if let Some((_, Json::Obj(params))) = fields.iter_mut().find(|(k, _)| k == "params")
                {
                    let slot = params.iter_mut().find(|(k, _)| k == "max_units").unwrap();
                    slot.1 = cap;
                }
            }
            let err = report_from_json(&value).unwrap_err();
            assert!(err.contains("max_units"), "unexpected error: {err}");
        }
    }

    #[test]
    fn sampler_section_round_trips_bit_exactly() {
        let spec = SamplerSpec {
            kind: smarts_core::SamplerKind::Adaptive,
            seed: u64::MAX,
            strata: 7,
            pilot: 40,
            epsilon: 0.1 + 0.2, // deliberately not exactly 0.3
            confidence: 0.95,
        };
        for stop in [
            StopReason::BudgetSpent,
            StopReason::TargetMet,
            StopReason::PoolExhausted,
        ] {
            let estimate = SamplerEstimate {
                mean: 1.0 / 3.0,
                half_width: f64::INFINITY,
                n: 61,
                pool: 183,
                strata: 3,
                rounds: 4,
                target_met: stop == StopReason::TargetMet,
                stop,
            };
            let line = sampler_to_json(&spec, &estimate, &[0, 5, 182]).to_line();
            let parsed = sampler_from_json(&crate::json::parse(&line).unwrap()).unwrap();
            assert_eq!(parsed, (spec, estimate));
            let (spec, estimate) = parsed;
            assert_eq!(
                sampler_to_json(&spec, &estimate, &[0, 5, 182]).to_line(),
                line
            );
        }
    }

    #[test]
    fn wall_times_are_excluded_from_the_canonical_form() {
        let report = sample_report();
        let mut other = sample_report();
        other.wall_functional = Duration::from_secs(1234);
        other.wall_detailed = Duration::from_secs(9876);
        assert_eq!(
            canonical_report_line(&report),
            canonical_report_line(&other)
        );
    }
}
