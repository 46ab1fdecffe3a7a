//! The result of one run and its JSON line — the one machine-readable
//! output of the benchmark (last line of standard output).

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One run of one workload: either the end-to-end metrics (untraced)
/// or the per-layer metrics (traced).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// No job exited non-zero, ended in another state than `done`, or
    /// printed a report line that differs from its golden line.
    pub correct: bool,
    /// Jobs run in the measured phase (CLI invocations or served jobs).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The contract line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, every value with all its digits.
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&metric.name),
                number(metric.value),
                quote(metric.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: the shortest decimal that reads back as the same
/// `f64` (Rust never prints an exponent); JSON has no NaN or infinity,
/// so those print as 0.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "op_ms_p50".into(),
                    value: 431.287_391_2,
                    unit: "ms",
                },
                Metric {
                    name: "setup_s".into(),
                    value: 1.5,
                    unit: "s",
                },
            ],
        };
        assert_eq!(
            result.to_json_line(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"op_ms_p50\": {\"value\": 431.2873912, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_valid_json() {
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(1e21), "1000000000000000000000");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
