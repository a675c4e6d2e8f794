//! The run's output: human-readable `#` lines, then one JSON object as the
//! last line of standard output.

use std::fmt::Write as _;

/// Whether `name` is a valid metric name: 1 to 64 ASCII letters, digits,
/// `_`, `.` and `-`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `unit` is a valid unit: 1 to 16 ASCII letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Collects the run's metrics in declaration order.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// # Panics
    ///
    /// Panics on an invalid name or unit, a repeated name, or a value that
    /// is not finite — all bugs in the benchmark itself.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} for {name}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        assert!(
            self.items.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.items.push(Metric { name, unit, value });
    }

    pub fn items(&self) -> &[Metric] {
        &self.items
    }
}

/// The final result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    )
    .expect("write to String");
    for (i, m) in metrics.items().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest representation that round-trips, so
        // every measured digit survives.
        write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_letters_digits_underscore_dot_dash() {
        for ok in [
            "samples_per_s",
            "step_ms_p90",
            "scan.k2_vs_k1",
            "kernel.auto-gflops",
            "9lives",
            &"a".repeat(64),
        ] {
            assert!(valid_metric_name(ok), "{ok:?} should be valid");
        }
        for bad in [
            "",
            "_leading",
            ".leading",
            "-leading",
            "has space",
            "slash/name",
            "pct%",
            "ünïcode",
            "quote\"",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn units_allow_slash_and_percent() {
        for ok in ["ms", "s", "1/s", "%", "GFLOP/s", "samples/s", "count"] {
            assert!(valid_unit(ok), "{ok:?}");
        }
        for bad in ["", "two words", "much-too-long-unit"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("latency_ms_p50", "ms", 1.2034567890123);
        m.push("setup_s", "s", 2.0);
        let line = result_json(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms_p50\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_is_a_bug() {
        let mut m = Metrics::default();
        m.push("setup_s", "s", 1.0);
        m.push("setup_s", "s", 1.0);
    }
}
