//! The wire protocol: newline-delimited JSON over TCP.
//!
//! One request per line, one (or, for `watch`, many) response line(s)
//! back. The grammar is deliberately tiny — every message is a JSON
//! object, requests carry a `"cmd"` discriminator, responses carry
//! `"ok"` (and `"error"` when `false`); `watch` responses carry
//! `"event"` instead. See DESIGN.md §3.6d for the full grammar.
//!
//! Request lines are bounded by [`MAX_LINE`]: a peer that streams an
//! unbounded line cannot make the server buffer unbounded memory — the
//! connection is answered with an error and closed.

use crate::json::Json;
use smarts_ckpt::IsaId;
use smarts_core::{SamplerKind, SamplerSpec};
use smarts_exec::{ExecError, MAX_JOBS};
pub use smarts_stats::FieldError;

/// Longest request line the server will buffer, in bytes. Submit
/// requests are a few hundred bytes; the bound exists to keep a hostile
/// peer from ballooning connection memory.
pub const MAX_LINE: usize = 64 * 1024;

/// A sampling job: workload × machine config × sampling design ×
/// sampler × per-job pipeline parallelism. The one statement of a job
/// for both front doors: a submit line parses into one, and so do the
/// `smarts` CLI's flags, whether it runs the job or submits it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Benchmark name (see `smarts list`).
    pub bench: String,
    /// Instruction-set frontend the workload resolves under: `builtin`
    /// (the default) or `risc`. Trace jobs are refused at submit — a
    /// trace file lives on the client's filesystem, not the server's.
    pub isa: IsaId,
    /// Machine configuration: 8 or 16.
    pub config: u32,
    /// Benchmark length multiplier.
    pub scale: f64,
    /// Target sample size `n`.
    pub n: u64,
    /// Sampling unit size `U`.
    pub unit: u64,
    /// Detailed warming `W` (`None` = the machine's recommendation).
    pub warming_len: Option<u64>,
    /// Systematic phase offset `j`.
    pub offset: u64,
    /// Replay worker threads inside this job's pipeline.
    pub jobs: usize,
    /// Unit-selection strategy: systematic (the default), stratified,
    /// or adaptive.
    pub sampler: SamplerKind,
    /// Seed for the sampler's randomized phases (ignored by
    /// systematic).
    pub seed: u64,
    /// Stratum count for the stratified/adaptive strategies.
    pub strata: u32,
    /// Pilot size in units; 0 selects the automatic size.
    pub pilot: u64,
    /// Relative CI half-width target for the stratified/adaptive
    /// strategies.
    pub epsilon: f64,
    /// Confidence level of the `(±ε, confidence)` target.
    pub confidence: f64,
}

impl Default for JobSpec {
    fn default() -> Self {
        let sampler = SamplerSpec::default();
        JobSpec {
            bench: String::new(),
            isa: IsaId::Builtin,
            config: 8,
            scale: 1.0,
            n: 100,
            unit: 1000,
            warming_len: None,
            offset: 0,
            jobs: 1,
            sampler: sampler.kind,
            seed: sampler.seed,
            strata: sampler.strata,
            pilot: sampler.pilot,
            epsilon: sampler.epsilon,
            confidence: sampler.confidence,
        }
    }
}

impl JobSpec {
    /// The sampler specification this job's fields describe.
    pub fn sampler_spec(&self) -> SamplerSpec {
        SamplerSpec {
            kind: self.sampler,
            seed: self.seed,
            strata: self.strata,
            pilot: self.pilot,
            epsilon: self.epsilon,
            confidence: self.confidence,
        }
    }

    /// Serializes the spec as the `submit` request's field set.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bench", Json::Str(self.bench.clone())),
            ("isa", Json::Str(self.isa.name().to_string())),
            ("config", Json::U64(self.config as u64)),
            ("scale", Json::F64(self.scale)),
            ("n", Json::U64(self.n)),
            ("unit", Json::U64(self.unit)),
            (
                "warming_len",
                match self.warming_len {
                    None => Json::Null,
                    Some(w) => Json::U64(w),
                },
            ),
            ("offset", Json::U64(self.offset)),
            ("jobs", Json::U64(self.jobs as u64)),
            ("sampler", Json::Str(self.sampler.tag().to_string())),
            ("seed", Json::U64(self.seed)),
            ("strata", Json::U64(self.strata as u64)),
            ("pilot", Json::U64(self.pilot)),
            ("epsilon", Json::F64(self.epsilon)),
            ("confidence", Json::F64(self.confidence)),
        ])
    }

    /// Refuses a job with a field out of its range. This is every job
    /// rule, in one place: both doors — the wire's [`JobSpec::from_json`]
    /// and the CLI's flag parser — read types only, then call this, and
    /// each names the field the way its user wrote it. The sampler
    /// fields' rules are [`SamplerSpec::validate`]'s, which a library
    /// run checks too.
    ///
    /// # Errors
    ///
    /// The first field out of range.
    pub fn validate(&self) -> Result<(), FieldError> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let at_least_one = "takes a count of at least 1";
        let finite_positive = "takes a finite positive number";
        let check = |field, ok, rule: &dyn std::fmt::Display| match ok {
            true => Ok(()),
            false => Err(FieldError {
                field,
                rule: rule.to_string(),
            }),
        };
        check("config", matches!(self.config, 8 | 16), &"takes 8 or 16")?;
        check("scale", positive(self.scale), &finite_positive)?;
        check("n", self.n > 0, &at_least_one)?;
        check("unit", self.unit > 0, &at_least_one)?;
        let jobs = format!("takes a worker count in 1..={MAX_JOBS}");
        check("jobs", (1..=MAX_JOBS).contains(&self.jobs), &jobs)?;
        self.sampler_spec().validate()
    }

    /// Reads a spec from a request object: defaults for absent fields,
    /// types checked here, ranges by [`JobSpec::validate`]. What a
    /// server cannot run is refused here too: a trace job (the file is
    /// the client's), a job without a `bench`, and
    /// `"functional_warming": false` (every served job warms
    /// functionally).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn from_json(value: &Json) -> Result<JobSpec, String> {
        let mut spec = JobSpec {
            bench: value
                .get("bench")
                .and_then(Json::as_str)
                .ok_or("submit requires a string `bench`")?
                .to_string(),
            ..JobSpec::default()
        };
        if let Some(Json::Bool(false)) = value.get("functional_warming") {
            return Err(ExecError::NoFunctionalWarming.to_string());
        }
        if let Some(v) = value.get("isa") {
            let isa = v
                .as_str()
                .and_then(IsaId::from_name)
                .ok_or("`isa` takes builtin or risc")?;
            if isa == IsaId::Trace {
                return Err("trace workloads are client-local files; replay them with \
                     `smarts sample --trace` instead of the server"
                    .to_string());
            }
            spec.isa = isa;
        }
        if let Some(v) = value.get("sampler") {
            spec.sampler = v.as_str().ok_or("`sampler` takes a string")?.parse()?;
        }
        let count = |name: &str| {
            let read = |v: &Json| v.as_u64().ok_or(format!("`{name}` takes a count"));
            value.get(name).map(read).transpose()
        };
        let number = |name: &str| {
            let read = |v: &Json| v.as_f64().ok_or(format!("`{name}` takes a number"));
            value.get(name).map(read).transpose()
        };
        // A count too wide for its field saturates, so `validate` names
        // the rule it breaks.
        let narrow = |n: u64| u32::try_from(n).unwrap_or(u32::MAX);
        spec.config = count("config")?.map_or(spec.config, narrow);
        spec.scale = number("scale")?.unwrap_or(spec.scale);
        spec.n = count("n")?.unwrap_or(spec.n);
        spec.unit = count("unit")?.unwrap_or(spec.unit);
        if value.get("warming_len") != Some(&Json::Null) {
            spec.warming_len = count("warming_len")?;
        }
        spec.offset = count("offset")?.unwrap_or(spec.offset);
        let wide = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
        spec.jobs = count("jobs")?.map_or(spec.jobs, wide);
        spec.seed = count("seed")?.unwrap_or(spec.seed);
        spec.strata = count("strata")?.map_or(spec.strata, narrow);
        spec.pilot = count("pilot")?.unwrap_or(spec.pilot);
        spec.epsilon = number("epsilon")?.unwrap_or(spec.epsilon);
        spec.confidence = number("confidence")?.unwrap_or(spec.confidence);
        spec.validate()
            .map_err(|e| format!("`{}` {}", e.field, e.rule))?;
        Ok(spec)
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Enqueue a sampling job.
    Submit(JobSpec),
    /// One job's status (`Some`) or a summary of every job (`None`).
    Status(Option<String>),
    /// A finished job's full canonical report.
    Result(String),
    /// Stream state/progress events until the job reaches a terminal
    /// state.
    Watch(String),
    /// Request cancellation of a queued or running job.
    Cancel(String),
    /// Server counters: warm passes, store hits, cache hits.
    Stats,
    /// Begin graceful shutdown: drain in-flight jobs, refuse new ones.
    Shutdown,
}

impl Request {
    /// The request as a line (without the trailing newline): the inverse
    /// of [`parse_request`].
    pub fn to_line(&self) -> String {
        let (cmd, job) = match self {
            Request::Ping => ("ping", None),
            Request::Submit(_) => ("submit", None),
            Request::Status(job) => ("status", job.as_deref()),
            Request::Result(job) => ("result", Some(job.as_str())),
            Request::Watch(job) => ("watch", Some(job.as_str())),
            Request::Cancel(job) => ("cancel", Some(job.as_str())),
            Request::Stats => ("stats", None),
            Request::Shutdown => ("shutdown", None),
        };
        let mut fields = vec![("cmd".to_string(), Json::Str(cmd.to_string()))];
        if let Some(job) = job {
            fields.push(("job".to_string(), Json::Str(job.to_string())));
        }
        if let Request::Submit(spec) = self {
            if let Json::Obj(spec) = spec.to_json() {
                fields.extend(spec);
            }
        }
        Json::Obj(fields).to_line()
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a message suitable for the `error` field of a refusal
/// response: malformed JSON, a missing/unknown `cmd`, or bad fields.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = crate::json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let cmd = value
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("request needs a string `cmd` field")?;
    let job_field = || -> Result<String, String> {
        Ok(value
            .get("job")
            .and_then(Json::as_str)
            .ok_or("a string `job` id is required")?
            .to_string())
    };
    match cmd {
        "ping" => Ok(Request::Ping),
        "submit" => Ok(Request::Submit(JobSpec::from_json(&value)?)),
        "status" => match value.get("job") {
            None | Some(Json::Null) => Ok(Request::Status(None)),
            Some(v) => Ok(Request::Status(Some(
                v.as_str().ok_or("`job` takes a string id")?.to_string(),
            ))),
        },
        "result" => Ok(Request::Result(job_field()?)),
        "watch" => Ok(Request::Watch(job_field()?)),
        "cancel" => Ok(Request::Cancel(job_field()?)),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown cmd `{other}`")),
    }
}

/// Builds a success response line (without the trailing newline).
pub fn ok_response(fields: Vec<(&str, Json)>) -> String {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.extend(fields);
    Json::obj(pairs).to_line()
}

/// Builds a refusal response line (without the trailing newline).
pub fn err_response(message: &str) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
    ])
    .to_line()
}

/// Builds a typed refusal: a [`err_response`] whose `code` names what a
/// client can do about it — `busy` (retry later) or `evicted` (the job's
/// record or report is gone; resubmit the spec).
pub fn coded_err_response(code: &str, message: &str) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
        ("code", Json::Str(code.to_string())),
    ])
    .to_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_through_json() {
        let spec = JobSpec {
            bench: "hashp-2".into(),
            isa: IsaId::Risc,
            config: 16,
            scale: 0.25,
            n: 42,
            unit: 500,
            warming_len: Some(3000),
            offset: 2,
            jobs: 3,
            sampler: SamplerKind::Stratified,
            seed: 77,
            strata: 6,
            pilot: 40,
            epsilon: 0.05,
            confidence: 0.95,
        };
        let submit = Request::Submit(spec);
        assert!(submit
            .to_line()
            .starts_with(r#"{"cmd":"submit","bench":"hashp-2","#));
        // Every request, not only a submit, is its line's parse.
        let job = || "j-7".to_string();
        for request in [
            submit,
            Request::Submit(JobSpec::default()),
            Request::Ping,
            Request::Status(None),
            Request::Status(Some(job())),
            Request::Result(job()),
            Request::Watch(job()),
            Request::Cancel(job()),
            Request::Stats,
            Request::Shutdown,
        ] {
            assert_eq!(parse_request(&request.to_line()), Ok(request));
        }
    }

    #[test]
    fn submit_applies_defaults() {
        let request = parse_request(r#"{"cmd":"submit","bench":"loopy-1"}"#).unwrap();
        // The removed knobs are unknown keys like any other: ignored on
        // the way in, never written on the way out.
        let stale = r#"{"cmd":"submit","bench":"loopy-1","warm_jobs":3,"depth":9}"#;
        assert_eq!(parse_request(stale).unwrap(), request);
        let line = JobSpec::default().to_json().to_line();
        assert!(!line.contains("warm_jobs") && !line.contains("depth"));
        match request {
            Request::Submit(spec) => {
                assert_eq!(spec.bench, "loopy-1");
                assert_eq!(spec.isa, IsaId::Builtin);
                assert_eq!(spec.config, 8);
                assert_eq!(spec.n, 100);
                assert_eq!(spec.warming_len, None);
                assert_eq!(spec.jobs, 1);
                assert_eq!(spec.sampler, SamplerKind::Systematic);
                assert_eq!(spec.seed, 0);
                assert_eq!(spec.strata, 4);
                assert_eq!(spec.pilot, 0);
            }
            other => panic!("unexpected request {other:?}"),
        }
    }

    /// The library door refuses what the wire and the CLI refuse: each
    /// sampler-field value `JobSpec::validate` refuses, `exec::sample`
    /// refuses under the matching spec, naming the same field, whatever
    /// the sampler kind.
    #[test]
    fn the_library_refuses_the_sampler_fields_the_doors_refuse() {
        use smarts_core::{SamplingParams, SmartsError, SmartsSim, Warming};
        use smarts_exec::{sample, Executor};
        use smarts_stats::StatsError;

        let sim = SmartsSim::new(crate::machine_for(8));
        let params =
            SamplingParams::for_sample_size(36_000, 1000, 0, Warming::Functional, 4, 0).unwrap();
        let executor = Executor::new(1).unwrap();
        type Refuse = fn(&mut JobSpec);
        let refused: [(&str, Refuse); 8] = [
            ("strata", |job| job.strata = 0),
            ("strata", |job| job.strata = 4097),
            ("epsilon", |job| job.epsilon = -1.0),
            ("epsilon", |job| job.epsilon = 0.0),
            ("epsilon", |job| job.epsilon = f64::NAN),
            ("confidence", |job| job.confidence = 0.0),
            ("confidence", |job| job.confidence = 1.0),
            ("confidence", |job| job.confidence = f64::NAN),
        ];
        for (field, refuse) in refused {
            for sampler in [SamplerKind::Systematic, SamplerKind::Adaptive] {
                let mut job = JobSpec {
                    bench: "loopy-1".into(),
                    sampler,
                    ..JobSpec::default()
                };
                refuse(&mut job);
                let what = format!("{field} under {job:?}");
                assert_eq!(job.validate().map_err(|e| e.field), Err(field), "{what}");
                let spec = job.sampler_spec();
                match sample::<smarts_isa::BuiltinIsa>(
                    &executor, &sim, "loopy-1", 0.01, &params, &spec, None,
                ) {
                    Err(ExecError::Smarts(SmartsError::Stats(StatsError::Field(e)))) => {
                        assert_eq!(e.field, field, "{what}")
                    }
                    Err(other) => panic!("{what}: refused as {other}"),
                    Ok(_) => panic!("{what}: the library ran it"),
                }
            }
        }
    }

    #[test]
    fn sampler_fields_parse_and_are_validated() {
        let request = parse_request(
            r#"{"cmd":"submit","bench":"loopy-1","sampler":"adaptive","seed":9,"strata":3,"pilot":32,"epsilon":0.05,"confidence":0.95}"#,
        )
        .unwrap();
        match request {
            Request::Submit(spec) => {
                assert_eq!(spec.sampler, SamplerKind::Adaptive);
                assert_eq!(spec.seed, 9);
                assert_eq!(spec.strata, 3);
                assert_eq!(spec.pilot, 32);
                assert!((spec.epsilon - 0.05).abs() < 1e-12);
                assert!(!spec.sampler_spec().is_systematic());
            }
            other => panic!("unexpected request {other:?}"),
        }
        assert!(parse_request(r#"{"cmd":"submit","bench":"x","sampler":"bogus"}"#).is_err());
        assert!(parse_request(
            r#"{"cmd":"submit","bench":"x","sampler":"stratified","epsilon":-1}"#
        )
        .is_err());
        assert!(
            parse_request(r#"{"cmd":"submit","bench":"x","sampler":"adaptive","strata":0}"#)
                .is_err()
        );
        assert!(parse_request(
            r#"{"cmd":"submit","bench":"x","sampler":"adaptive","confidence":1.5}"#
        )
        .is_err());
    }

    #[test]
    fn command_forms_parse() {
        assert_eq!(parse_request(r#"{"cmd":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"cmd":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request(r#"{"cmd":"status"}"#).unwrap(),
            Request::Status(None)
        );
        assert_eq!(
            parse_request(r#"{"cmd":"status","job":"j-1"}"#).unwrap(),
            Request::Status(Some("j-1".into()))
        );
        assert_eq!(
            parse_request(r#"{"cmd":"cancel","job":"j-9"}"#).unwrap(),
            Request::Cancel("j-9".into())
        );
        assert_eq!(
            parse_request(r#"{"cmd":"watch","job":"j-2"}"#).unwrap(),
            Request::Watch("j-2".into())
        );
    }

    #[test]
    fn malformed_requests_are_refused_with_reasons() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{}").is_err());
        assert!(parse_request(r#"{"cmd":"frobnicate"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"cancel"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"submit"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"submit","bench":"x","config":12}"#).is_err());
        assert!(parse_request(r#"{"cmd":"submit","bench":"x","scale":-1}"#).is_err());
        assert!(parse_request(r#"{"cmd":"submit","bench":"x","jobs":0}"#).is_err());
        assert_eq!(
            parse_request(r#"{"cmd":"submit","bench":"x","functional_warming":false}"#),
            Err(ExecError::NoFunctionalWarming.to_string())
        );
    }

    #[test]
    fn isa_field_parses_and_is_validated() {
        let request = parse_request(r#"{"cmd":"submit","bench":"loopy-1","isa":"risc"}"#).unwrap();
        match request {
            Request::Submit(spec) => assert_eq!(spec.isa, IsaId::Risc),
            other => panic!("unexpected request {other:?}"),
        }
        // Unknown names are refused with the field's message; trace is a
        // known frontend but deliberately not servable.
        let err = parse_request(r#"{"cmd":"submit","bench":"x","isa":"mips"}"#).unwrap_err();
        assert!(err.contains("builtin or risc"), "got: {err}");
        let err = parse_request(r#"{"cmd":"submit","bench":"x","isa":"trace"}"#).unwrap_err();
        assert!(err.contains("--trace"), "got: {err}");
    }

    #[test]
    fn response_builders_emit_protocol_shapes() {
        assert_eq!(
            ok_response(vec![("job", Json::Str("j-1".into()))]),
            r#"{"ok":true,"job":"j-1"}"#
        );
        assert_eq!(err_response("nope"), r#"{"ok":false,"error":"nope"}"#);
        assert_eq!(
            coded_err_response("busy", "later"),
            r#"{"ok":false,"error":"later","code":"busy"}"#
        );
    }
}
