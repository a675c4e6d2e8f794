//! The serving workload: one client thread keeps a fixed number of requests
//! in flight on a `BppsaService<f64>` and resubmits each completion as a
//! seeded-random pick among the hot shapes (a closed loop).

use crate::inputs::{picks, serve_inputs, ServeInputs};
use crate::probes::{
    batched_execute, batched_mismatches, push_kernel_round, same_bits, AxpyProbe, KernelProbe,
    SerialScan,
};
use crate::stats::{median, min_samples_for, percentile};
use crate::trace::Trace;
use crate::workloads::ServeSpec;
use crate::{calibrate_reps, peak_rss_mb, Outcome};
use bppsa_core::{BackwardResult, BatchedBackward, JacobianChain, PlannedScan};
use bppsa_serve::{lane_plan_options, BppsaService, LaneMetricsSnapshot, ServeConfig, Ticket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The latency tail the serving workload reports (p99).
pub const TAIL: u32 = 990;
/// Blocks the timed phase is cut into; fresh services are set up before
/// each, so that set-up is sampled across the whole run.
const BLOCKS: usize = 10;
/// Fresh services set up before each block; set-up is the median of these
/// and of the measured service's own.
const SETUPS_PER_BLOCK: usize = 5;
/// Closed-loop time before measuring, so lanes and caches settle.
const WARMUP: Duration = Duration::from_millis(500);
/// The windows a timed phase is cut into; each timing is the median over
/// windows of that window's statistic.
const WINDOW: Duration = Duration::from_millis(250);
/// Completions per traced round's wave.
const WAVE_REQUESTS: u64 = 512;
/// How long the client sleeps on the oldest request before re-checking
/// every ticket: the bound on how late it observes other completions.
const POLL: Duration = Duration::from_micros(50);

fn config(spec: &ServeSpec) -> ServeConfig {
    ServeConfig {
        max_batch: spec.max_batch,
        max_delay: spec.max_delay,
        queue_cap: spec.queue_cap,
        ..ServeConfig::default()
    }
}

/// Each slot's chain of each shape, run through a serial planned scan
/// with the plan options its lane uses: the bits a served request must
/// reproduce. Computed before anything is timed.
fn expected_results(inputs: &ServeInputs) -> Vec<Vec<BackwardResult<f64>>> {
    let mut scans: Vec<SerialScan<f64>> = inputs
        .templates
        .iter()
        .map(|t| {
            let opts = lane_plan_options(t.num_layers());
            SerialScan::new(Arc::new(PlannedScan::plan(t, opts)))
        })
        .collect();
    inputs
        .slots
        .iter()
        .map(|chains| {
            chains
                .iter()
                .zip(&mut scans)
                .map(|(chain, scan)| scan.results(std::slice::from_ref(chain)).remove(0))
                .collect()
        })
        .collect()
}

struct Slot {
    ticket: Ticket<f64>,
    /// The slot's chain of each shape while at rest.
    chains: Vec<Option<JacobianChain<f64>>>,
    shape: usize,
    /// When the in-flight request was submitted; `None` when idle.
    submitted: Option<Instant>,
}

enum Stop {
    /// Run this long, in windows of [`WINDOW`].
    For(Duration),
    /// Run until this many completions, as one window.
    After(u64),
}

/// Samples of the window being filled. The buffers are reused, so the
/// client's memory does not grow with the number of requests it sees.
#[derive(Default)]
struct Samples {
    latency_ms: Vec<f64>,
    wave_ms: Vec<f64>,
    flush_ms: Vec<f64>,
}

/// One closed window of a phase. A percentile is `None` when the window
/// has too few samples to support it.
struct Window {
    completions: usize,
    wave_p50: Option<f64>,
    wave_p90: Option<f64>,
    flush_p50: Option<f64>,
    latency_p50: Option<f64>,
    latency_tail: Option<f64>,
}

impl Samples {
    fn close(&mut self) -> Window {
        let at = |v: &mut Vec<f64>, p| {
            v.sort_by(f64::total_cmp);
            (v.len() >= min_samples_for(p)).then(|| percentile(v, p))
        };
        let window = Window {
            completions: self.latency_ms.len(),
            wave_p50: at(&mut self.wave_ms, 500),
            wave_p90: at(&mut self.wave_ms, 900),
            flush_p50: at(&mut self.flush_ms, 500),
            latency_p50: at(&mut self.latency_ms, 500),
            latency_tail: at(&mut self.latency_ms, TAIL),
        };
        self.latency_ms.clear();
        self.wave_ms.clear();
        self.flush_ms.clear();
        window
    }
}

/// What one closed-loop phase measured.
#[derive(Default)]
struct Phase {
    completed: u64,
    wall_s: f64,
    windows: Vec<Window>,
    /// Submit-call times, traced phases only.
    submit_us: Vec<f64>,
}

impl Phase {
    /// The median of one window percentile over the windows that support
    /// it, and how many do.
    ///
    /// # Panics
    ///
    /// Panics when no window supports it: the run was sized too small.
    fn median_of(&self, f: impl Fn(&Window) -> Option<f64>) -> (f64, usize) {
        let values: Vec<f64> = self.windows.iter().filter_map(f).collect();
        assert!(!values.is_empty(), "no window supports the percentile");
        (median(&values), values.len())
    }
}

struct Client {
    slots: Vec<Slot>,
    expected: Vec<Vec<BackwardResult<f64>>>,
    pick: Box<dyn FnMut(usize) -> usize>,
    shapes: usize,
    attempted: u64,
    failed: u64,
}

impl Client {
    fn new(inputs: ServeInputs, expected: Vec<Vec<BackwardResult<f64>>>) -> Self {
        let shapes = inputs.templates.len();
        let slots = inputs
            .slots
            .into_iter()
            .map(|chains| Slot {
                ticket: Ticket::new(),
                chains: chains.into_iter().map(Some).collect(),
                shape: 0,
                submitted: None,
            })
            .collect();
        Self {
            slots,
            expected,
            pick: Box::new(picks(inputs.picks_seed)),
            shapes,
            attempted: 0,
            failed: 0,
        }
    }

    /// Submits slot `k`'s chain of `shape`; returns the submit call's time.
    fn submit(&mut self, svc: &BppsaService<f64>, k: usize, shape: usize) -> Duration {
        let slot = &mut self.slots[k];
        let chain = slot.chains[shape].take().expect("chain at rest");
        self.attempted += 1;
        let start = Instant::now();
        let refused = svc.submit(chain, &slot.ticket).err();
        let took = start.elapsed();
        match refused {
            None => {
                slot.shape = shape;
                slot.submitted = Some(start);
            }
            Some(refusal) => {
                self.failed += 1;
                slot.chains[shape] = Some(refusal.into_chain());
            }
        }
        took
    }

    /// Checks slot `k`'s finished request bit for bit, puts its chain back
    /// and returns its latency.
    fn complete(&mut self, k: usize, now: Instant) -> Duration {
        let slot = &mut self.slots[k];
        let submitted = slot.submitted.take().expect("request in flight");
        let expected = &self.expected[k][slot.shape];
        let ok = match slot.ticket.wait() {
            Ok(()) => slot.ticket.with_result(|r| same_bits(r, expected)),
            Err(_) => false,
        };
        self.failed += u64::from(!ok);
        slot.chains[slot.shape] = Some(slot.ticket.take_chain());
        now - submitted
    }

    /// One request of every shape on a fresh service: the set-up unit.
    fn serve_each_shape_once(&mut self, svc: &BppsaService<f64>) {
        for shape in 0..self.shapes {
            self.submit(svc, shape, shape);
        }
        for k in 0..self.shapes {
            if self.slots[k].submitted.is_some() {
                self.slots[k].ticket.wait().ok();
                self.complete(k, Instant::now());
            }
        }
    }

    /// Runs the closed loop until `stop`, then drains what is in flight.
    /// Completions are observed as they happen: the client sleeps on the
    /// oldest request for at most [`POLL`] and then checks every ticket.
    fn run(
        &mut self,
        svc: &BppsaService<f64>,
        stop: Stop,
        mut trace: Option<(&mut Trace, u64)>,
    ) -> Phase {
        let mut phase = Phase::default();
        let mut samples = Samples::default();
        let wave = self.slots.len() as u64;
        let (window_s, windows) = match stop {
            Stop::For(d) => (
                WINDOW.as_secs_f64(),
                ((d.as_secs_f64() / WINDOW.as_secs_f64()).round() as usize).max(1),
            ),
            Stop::After(_) => (f64::INFINITY, 1),
        };
        let start = Instant::now();
        let mut wave_start = start;
        let mut running = true;
        loop {
            let mut progressed = false;
            for k in 0..self.slots.len() {
                let slot = &self.slots[k];
                if slot.submitted.is_some() && slot.ticket.is_done() {
                    let now = Instant::now();
                    let latency = self.complete(k, now);
                    progressed = true;
                    if running {
                        let at = (now - start).as_secs_f64();
                        while at >= (phase.windows.len() + 1) as f64 * window_s
                            && phase.windows.len() + 1 < windows
                        {
                            phase.windows.push(samples.close());
                        }
                        phase.completed += 1;
                        samples.latency_ms.push(latency.as_secs_f64() * 1e3);
                        if phase.completed % wave == 0 {
                            samples.wave_ms.push((now - wave_start).as_secs_f64() * 1e3);
                            samples.flush_ms.push(mean_flush_ms(&svc.metrics()));
                            wave_start = now;
                        }
                    }
                }
                if running && self.slots[k].submitted.is_none() {
                    let shape = (self.pick)(self.shapes);
                    let span = trace
                        .as_mut()
                        .map(|(t, unit)| t.open("serve.submit", None, *unit));
                    let took = self.submit(svc, k, shape);
                    if let (Some((t, _)), Some(id)) = (trace.as_mut(), span) {
                        t.close(id);
                        phase.submit_us.push(took.as_secs_f64() * 1e6);
                    }
                }
            }
            if running {
                let done = match stop {
                    Stop::For(d) => start.elapsed() >= d,
                    Stop::After(n) => phase.completed >= n,
                };
                if done {
                    running = false;
                    phase.wall_s = start.elapsed().as_secs_f64();
                    phase.windows.push(samples.close());
                }
            }
            let oldest = self
                .slots
                .iter()
                .filter_map(|s| s.submitted.map(|t| (t, &s.ticket)))
                .min_by_key(|(t, _)| *t);
            match oldest {
                None if !running => break,
                Some((_, ticket)) if !progressed => {
                    ticket.wait_timeout(POLL);
                }
                _ => {}
            }
        }
        phase
    }
}

/// The flush-weighted mean of the lanes' flush-latency estimates.
fn mean_flush_ms(lanes: &[LaneMetricsSnapshot]) -> f64 {
    let (sum, weight) =
        lanes
            .iter()
            .filter(|l| l.flush_samples > 0)
            .fold((0.0, 0.0), |(s, w), l| {
                let f = l.flushes() as f64;
                (s + l.ewma_flush_latency.as_secs_f64() * 1e3 * f, w + f)
            });
    sum / weight
}

/// Sums over lanes: `(requests flushed, flushes, deadline flushes)`.
fn flush_totals(lanes: &[LaneMetricsSnapshot]) -> (u64, u64, u64) {
    lanes.iter().fold((0, 0, 0), |(r, f, d), l| {
        (
            r + l.requests_flushed(),
            f + l.flushes(),
            d + l.deadline_flushes,
        )
    })
}

/// Builds a fresh service and runs it until every shape has been served
/// once; returns the seconds that took and the service.
fn set_up(spec: &ServeSpec, client: &mut Client) -> (f64, BppsaService<f64>) {
    let start = Instant::now();
    let svc = BppsaService::new(config(spec));
    client.serve_each_shape_once(&svc);
    (start.elapsed().as_secs_f64(), svc)
}

pub fn end_to_end(spec: &ServeSpec, seed: u64, seconds: f64) -> Outcome {
    let inputs = serve_inputs(spec, seed);
    let expected = expected_results(&inputs);
    let mut client = Client::new(inputs, expected);
    let (first_setup, svc) = set_up(spec, &mut client);
    let mut setups = vec![first_setup];
    client.run(&svc, Stop::For(WARMUP), None);
    let block = Duration::from_secs_f64(seconds / BLOCKS as f64);
    let mut timed = Phase::default();
    for _ in 0..BLOCKS {
        for _ in 0..SETUPS_PER_BLOCK {
            let (secs, fresh) = set_up(spec, &mut client);
            fresh.shutdown();
            setups.push(secs);
        }
        let phase = client.run(&svc, Stop::For(block), None);
        timed.completed += phase.completed;
        timed.wall_s += phase.wall_s;
        timed.windows.extend(phase.windows);
    }
    let rss_mb = peak_rss_mb();
    svc.shutdown();

    // Each timing is the median over windows of that window's statistic,
    // so a burst of load from outside the process moves a few windows,
    // not the result.
    let fewest = timed
        .windows
        .iter()
        .map(|w| w.completions)
        .min()
        .unwrap_or(0);
    let (latency_tail, tail_windows) = timed.median_of(|w| w.latency_tail);
    let rate = timed.completed as f64 / timed.wall_s;
    let mut out = Outcome::new(client.attempted, client.failed);
    out.note(format!(
        "timed completions: {} in {:.3} s, {} windows of {} s, the fewest {fewest}; \
         p99 (>= {} completions) supported in {tail_windows} windows; set-up samples: {}",
        timed.completed,
        timed.wall_s,
        timed.windows.len(),
        WINDOW.as_secs_f64(),
        min_samples_for(TAIL),
        setups.len()
    ));
    out.set("samples_per_s", rate);
    out.set("requests_per_s", rate);
    out.set("step_ms_p50", timed.median_of(|w| w.wave_p50).0);
    out.set("step_ms_p90", timed.median_of(|w| w.wave_p90).0);
    out.set("backward_ms_p50", timed.median_of(|w| w.flush_p50).0);
    out.set("latency_ms_p50", timed.median_of(|w| w.latency_p50).0);
    out.set("latency_ms_tail", latency_tail);
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", rss_mb);
    out
}

/// One shape's lower-layer probes at the observed mean batch.
struct ShapeProbe {
    chains: Vec<JacobianChain<f64>>,
    default: BatchedBackward<f64>,
    cap1: BatchedBackward<f64>,
    serial: SerialScan<f64>,
}

pub fn traced(spec: &ServeSpec, seed: u64, seconds: f64) -> Outcome {
    let inputs = serve_inputs(spec, seed);
    let expected = expected_results(&inputs);
    let templates = inputs.templates.clone();
    let probe_chains: Vec<Vec<JacobianChain<f64>>> = (0..templates.len())
        .map(|s| inputs.slots.iter().map(|c| c[s].clone()).collect())
        .collect();
    let probe_expected: Vec<Vec<BackwardResult<f64>>> = (0..templates.len())
        .map(|s| expected.iter().map(|e| e[s].clone()).collect())
        .collect();
    let mut client = Client::new(inputs, expected);
    let (_, svc) = set_up(spec, &mut client);
    client.run(&svc, Stop::For(WARMUP), None);
    let (flushed, flushes, _) = flush_totals(&svc.metrics());
    let width = ((flushed as f64 / flushes as f64).round() as usize).clamp(1, spec.max_batch);

    let mut shapes: Vec<ShapeProbe> = templates
        .iter()
        .zip(probe_chains)
        .map(|(t, mut chains)| {
            chains.truncate(width);
            let plan = Arc::new(PlannedScan::plan(t, lane_plan_options(t.num_layers())));
            let default = BatchedBackward::new(Arc::clone(&plan));
            let cap1 = BatchedBackward::with_capacity(Arc::clone(&plan), 1);
            default.prewarm(width);
            cap1.prewarm(1);
            ShapeProbe {
                chains,
                default,
                cap1,
                serial: SerialScan::new(plan),
            }
        })
        .collect();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (probe, expected) in shapes.iter().zip(&probe_expected) {
        attempted += 2 * width as u64;
        failed += batched_mismatches(&probe.default, &probe.chains, expected) as u64;
        failed += batched_mismatches(&probe.cap1, &probe.chains, expected) as u64;
    }
    let mut kernels: Vec<(KernelProbe<f64>, usize)> = templates
        .iter()
        .map(|t| {
            let mut k = KernelProbe::new(t);
            attempted += 1;
            failed += u64::from(!k.modes_agree());
            let reps = calibrate_reps(|reps| k.run(0, reps)).div_ceil(templates.len());
            (k, reps)
        })
        .collect();
    let mut axpy = AxpyProbe::<f64>::new(spec.width);
    let axpy_reps = calibrate_reps(|reps| axpy.run(reps));

    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut trace = Trace::new();
    let mut out = Outcome::new(0, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    while round < crate::MIN_ROUNDS || Instant::now() < deadline {
        let before = flush_totals(&svc.metrics());
        // Which wave goes first alternates, as in the training ladder.
        let (traced, untraced) = if round.is_multiple_of(2) {
            let t = client.run(&svc, Stop::After(WAVE_REQUESTS), Some((&mut trace, round)));
            (t, client.run(&svc, Stop::After(WAVE_REQUESTS), None))
        } else {
            let u = client.run(&svc, Stop::After(WAVE_REQUESTS), None);
            (
                client.run(&svc, Stop::After(WAVE_REQUESTS), Some((&mut trace, round))),
                u,
            )
        };
        let lanes = svc.metrics();
        let after = flush_totals(&lanes);
        let per_request = |p: &Phase| p.wall_s / p.completed as f64;
        let served_s = per_request(&untraced);
        out.push("serve.submit_us_p50", median(&traced.submit_us));
        out.push(
            "serve.batch_mean",
            (after.0 - before.0) as f64 / (after.1 - before.1) as f64,
        );
        out.push(
            "serve.deadline_flush_pct",
            100.0 * (after.2 - before.2) as f64 / (after.1 - before.1) as f64,
        );
        out.push("serve.flush_us_ewma", mean_flush_ms(&lanes) * 1e3);
        out.push("trace.overhead_ratio", per_request(&traced) / served_s);

        let (mut default_s, mut cap1_s, mut serial_s, mut flops) = (0.0, 0.0, 0.0, 0.0);
        for probe in &mut shapes {
            default_s += batched_execute(&probe.default, &probe.chains);
            cap1_s += batched_execute(&probe.cap1, &probe.chains);
            serial_s += probe.serial.run(&probe.chains);
            flops += probe.serial.plan.spgemm_flops() as f64 * probe.chains.len() as f64;
        }
        let chains = (shapes.len() * width) as f64;
        let batched_per_chain_s = default_s / chains;
        out.push("batched.execute_ms", default_s * 1e3);
        out.push("batched.cap1_vs_serial", cap1_s / serial_s);
        out.push("batched.default_vs_serial", default_s / serial_s);
        out.push("serve.overhead_ratio", served_s / batched_per_chain_s);
        // Scan work per request against the core time the machine spent
        // per served request.
        let scan_per_request_s = serial_s / chains;
        out.push(
            "serve.scan_share_pct",
            100.0 * scan_per_request_s / (served_s * parallelism as f64),
        );
        out.push("scan.execute_us", serial_s * 1e6 / chains);
        out.push("scan.gflops", flops / serial_s / 1e9);
        push_kernel_round(&mut kernels, &mut out);
        axpy.push_round(&mut out, axpy_reps);
        round += 1;
    }
    let lanes = svc.metrics();
    svc.shutdown();
    out.note(format!(
        "rounds: {round}; waves of {WAVE_REQUESTS} completions; fan-out width = observed mean \
         batch {width}"
    ));

    let plans: Vec<&PlannedScan> = shapes.iter().map(|p| p.serial.plan.as_ref()).collect();
    let sum = |f: &dyn Fn(&PlannedScan) -> f64| plans.iter().map(|p| f(p)).sum::<f64>();
    out.set("trace.rounds", round as f64);
    out.set(
        "serve.warmup_ms",
        lanes
            .iter()
            .map(|l| l.warmup_time.as_secs_f64() * 1e3)
            .sum::<f64>()
            / lanes.len() as f64,
    );
    out.set("scan.plan_ms", sum(&|p| p.build_time().as_secs_f64() * 1e3));
    out.set(
        "scan.workspace_kb",
        sum(&|p| p.workspace_bytes::<f64>() as f64 / 1024.0),
    );
    out.set(
        "scan.segments",
        sum(&|p| p.segments() as f64) / plans.len() as f64,
    );
    out.set("scan.products", sum(&|p| p.planned_products() as f64));
    out.set("scan.flops", sum(&|p| p.spgemm_flops() as f64));
    out.set(
        "scan.kernel_dense",
        sum(&|p| p.kernel_counts().dense as f64),
    );
    out.set(
        "scan.kernel_gustavson",
        sum(&|p| p.kernel_counts().gustavson as f64),
    );
    out.set(
        "scan.kernel_gather",
        sum(&|p| p.kernel_counts().gather as f64),
    );
    out.attempted = attempted + client.attempted;
    out.failed = failed + client.failed;
    out
}
