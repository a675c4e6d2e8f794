//! `perfbench` — end-to-end and per-layer benchmark of the BPPSA workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it runs the traced layer ladder instead. Every line but the
//! last starts with `#`; the last is the JSON result. See README.md.

mod inputs;
mod probes;
mod report;
mod serve;
mod stats;
mod trace;
mod train;
mod workloads;

use report::{result_json, Metrics};
use stats::Spread;
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::Workload;

/// The end-to-end metrics, in report order, with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("samples_per_s", "samples/s"),
    ("requests_per_s", "req/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("backward_ms_p50", "ms"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The traced run's per-layer metrics, in report order, with their units.
/// A layer that is not on a workload's path reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("models.forward_ms", "ms"),
    ("models.backward_ms", "ms"),
    ("models.backward_self_ms", "ms"),
    ("models.optimizer_ms", "ms"),
    ("models.bptt_ratio", "ratio"),
    ("serve.submit_us_p50", "us"),
    ("serve.batch_mean", "requests"),
    ("serve.deadline_flush_pct", "%"),
    ("serve.flush_us_ewma", "us"),
    ("serve.warmup_ms", "ms"),
    ("serve.overhead_ratio", "ratio"),
    ("serve.scan_share_pct", "%"),
    ("batched.execute_ms", "ms"),
    ("batched.cap1_vs_serial", "ratio"),
    ("batched.default_vs_serial", "ratio"),
    ("scan.execute_us", "us"),
    ("scan.gflops", "GFLOP/s"),
    ("scan.plan_ms", "ms"),
    ("scan.products", "count"),
    ("scan.flops", "FLOP"),
    ("scan.kernel_dense", "count"),
    ("scan.kernel_gustavson", "count"),
    ("scan.kernel_gather", "count"),
    ("scan.workspace_kb", "KiB"),
    ("scan.segments", "count"),
    ("scan.k2_vs_k1", "ratio"),
    ("diag.execute_us", "us"),
    ("diag.log_kernel", "bool"),
    ("diag.log_vs_linear", "ratio"),
    ("kernel.auto_gflops", "GFLOP/s"),
    ("kernel.dense_gflops", "GFLOP/s"),
    ("kernel.gustavson_gflops", "GFLOP/s"),
    ("kernel.gather_gflops", "GFLOP/s"),
    ("axpy.gflops", "GFLOP/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.rounds", "count"),
    ("env.parallelism", "threads"),
];

/// A seed no tuning run used, kept for re-checking claims.
pub const HELD_OUT_SEED: u64 = 7919;
/// The traced run always completes at least this many rounds.
pub const MIN_ROUNDS: u64 = 5;

/// What a run measured: one value per end-to-end metric, one per round for
/// traced metrics, plus notes for the human-readable report.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, Vec<f64>>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Self {
            attempted,
            failed,
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Adds one round's sample of a traced metric.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    /// Sets a metric measured once per run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.values.insert(name, vec![value]).is_none(),
            "{name} set twice"
        );
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The metrics of `list` in order, printing each one's spread. Missing
    /// traced metrics are layers off the workload's path and read 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric is missing or a measured value is not
    /// in `list` (both bugs in the benchmark).
    fn metrics(&self, list: &[(&'static str, &'static str)], traced: bool) -> Metrics {
        for name in self.values.keys() {
            assert!(
                list.iter().any(|(n, _)| n == name),
                "{name} is not declared"
            );
        }
        let mut metrics = Metrics::default();
        for &(name, unit) in list {
            let value = match self.values.get(name) {
                Some(v) if v.len() > 1 => {
                    let s = Spread::of(v);
                    println!(
                        "# {name}: min {:.6} median {:.6} max {:.6} {unit} over {} rounds",
                        s.min,
                        s.median,
                        s.max,
                        v.len()
                    );
                    s.median
                }
                Some(v) => {
                    println!("# {name}: {} {unit}", v[0]);
                    v[0]
                }
                None if traced => {
                    println!("# {name}: not on this workload's path, reported as 0");
                    0.0
                }
                None => panic!("end-to-end metric {name} was not measured"),
            };
            metrics.push(name, unit, value);
        }
        metrics
    }
}

/// The number of calls for which `run(calls)` takes about 2 ms, so a
/// micro-probe's timing stays far above the clock's resolution.
pub fn calibrate_reps(mut run: impl FnMut(usize) -> f64) -> usize {
    const TARGET_S: f64 = 2e-3;
    let mut reps = 1;
    loop {
        let secs = run(reps);
        if secs >= TARGET_S / 10.0 || reps >= 1 << 24 {
            return ((reps as f64 * TARGET_S / secs).round() as usize).max(1);
        }
        reps *= 4;
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("a duration"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err(bad("between 0 and 120 seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(workload) = workloads::lookup(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let fingerprint = match &workload {
        Workload::Train(spec) => {
            inputs::train_fingerprint(spec, &inputs::train_inputs(spec, args.seed))
        }
        Workload::Serve(spec) => {
            inputs::serve_fingerprint(&inputs::serve_inputs(spec, args.seed), 1 << 16)
        }
    };
    println!(
        "# workload {} seed {} (held-out seed {HELD_OUT_SEED}) seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# available_parallelism {parallelism}; input fingerprint {fingerprint:016x}");

    let started = Instant::now();
    let mut outcome = match (workload, args.trace) {
        (Workload::Train(spec), false) => train::end_to_end(&spec, args.seed, args.seconds),
        (Workload::Train(spec), true) => train::traced(&spec, args.seed, args.seconds),
        (Workload::Serve(spec), false) => serve::end_to_end(&spec, args.seed, args.seconds),
        (Workload::Serve(spec), true) => serve::traced(&spec, args.seed, args.seconds),
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    let metrics = if args.trace {
        outcome.set("env.parallelism", parallelism as f64);
        outcome.metrics(&PER_LAYER, true)
    } else {
        outcome.metrics(&END_TO_END, false)
    };
    println!(
        "# attempted {} failed {} in {:.1} s",
        outcome.attempted,
        outcome.failed,
        started.elapsed().as_secs_f64()
    );
    println!(
        "{}",
        result_json(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &metrics
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (i, name) in all.iter().enumerate() {
            assert!(report::valid_metric_name(name), "{name}");
            assert!(!all[..i].contains(name), "{name} declared twice");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(report::valid_unit(unit), "{name}: {unit}");
        }
    }

    /// The workloads `BENCHMARK.json` gates on. `rnn_t16384` runs by name
    /// but is not gated (see README.md).
    const GATED: [&str; 3] = ["rnn_t1000", "ssm_t32768", "serve_mix"];

    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            GATED.len() + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares a different number of names"
        );
        for name in GATED {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let argv = |s: &str| {
            s.split(' ')
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let a = Args::parse(argv("--workload serve_mix --seed 3 --seconds 10 --trace 1"))
            .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mix", 3, 10.0, true)
        );
        assert!(Args::parse(argv("--workload x --seed -1 --seconds 10 --trace 0")).is_err());
        assert!(Args::parse(argv("--workload x --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(Args::parse(argv("--workload x --seed 1 --seconds 10")).is_err());
        for name in workloads::NAMES {
            assert!(workloads::lookup(name).is_some(), "{name}");
        }
    }

    #[test]
    fn calibration_targets_two_milliseconds() {
        // A fake probe costing 1 µs per call.
        let reps = calibrate_reps(|n| n as f64 * 1e-6);
        assert_eq!(reps, 2000);
    }
}
