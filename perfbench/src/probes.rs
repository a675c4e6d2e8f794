//! Direct calls into the lower layers on a workload's own chains: the
//! batched fan-out, the serial planned scan, the numeric SpGEMM kernels and
//! the SIMD axpy. Each probe returns seconds; the caller wraps it in a span.

use crate::Outcome;
use bppsa_core::{
    BackwardResult, BatchedBackward, JacobianChain, KernelMode, PlannedScan, ScanElement,
};
use bppsa_sparse::{Csr, KernelScratch, SymbolicProduct};
use bppsa_tensor::Scalar;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Whether two results hold bit-identical gradients.
pub fn same_bits<S: Scalar>(a: &BackwardResult<S>, b: &BackwardResult<S>) -> bool {
    a.grads().len() == b.grads().len()
        && a.grads().iter().zip(b.grads()).all(|(x, y)| {
            x.len() == y.len()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_f64().to_bits() == q.to_f64().to_bits())
        })
}

/// One fan-out of `chains` over `batched`; returns seconds.
pub fn batched_execute<S: Scalar>(
    batched: &BatchedBackward<S>,
    chains: &[JacobianChain<S>],
) -> f64 {
    let t = Instant::now();
    batched.execute(chains, &|_, result| {
        black_box(result.grads().len());
    });
    t.elapsed().as_secs_f64()
}

/// How many of `batched`'s results differ in any bit from `expected`.
pub fn batched_mismatches<S: Scalar>(
    batched: &BatchedBackward<S>,
    chains: &[JacobianChain<S>],
    expected: &[BackwardResult<S>],
) -> usize {
    let bad = AtomicUsize::new(0);
    batched.execute(chains, &|i, result| {
        if !same_bits(result, &expected[i]) {
            bad.fetch_add(1, Ordering::Relaxed);
        }
    });
    bad.into_inner()
}

/// A serial `execute_with` loop over `chains` on one reused workspace.
pub struct SerialScan<S> {
    pub plan: Arc<PlannedScan>,
    workspace: bppsa_core::ScanWorkspace<S>,
}

impl<S: Scalar> SerialScan<S> {
    pub fn new(plan: Arc<PlannedScan>) -> Self {
        let workspace = plan.workspace();
        Self { plan, workspace }
    }

    /// Seconds for one pass over `chains`.
    pub fn run(&mut self, chains: &[JacobianChain<S>]) -> f64 {
        let t = Instant::now();
        for chain in chains {
            black_box(self.plan.execute_with(chain, &mut self.workspace));
        }
        t.elapsed().as_secs_f64()
    }

    /// Each chain's gradients (for bit-for-bit checks).
    pub fn results(&mut self, chains: &[JacobianChain<S>]) -> Vec<BackwardResult<S>> {
        chains
            .iter()
            .map(|c| self.plan.execute_with(c, &mut self.workspace).clone())
            .collect()
    }
}

/// The kernel modes the kernel probe forces, with the metric each reports.
pub const KERNEL_MODES: [(KernelMode, &str); 4] = [
    (KernelMode::Auto, "kernel.auto_gflops"),
    (KernelMode::Dense, "kernel.dense_gflops"),
    (KernelMode::Gustavson, "kernel.gustavson_gflops"),
    (KernelMode::Gather, "kernel.gather_gflops"),
];

/// Records one round of GFLOP/s per forced kernel mode, over every
/// `(probe, calls)` pair.
pub fn push_kernel_round<S: Scalar>(probes: &mut [(KernelProbe<S>, usize)], out: &mut Outcome) {
    for (mode, (_, name)) in KERNEL_MODES.iter().enumerate() {
        let (mut flops, mut secs) = (0.0, 0.0);
        for (probe, reps) in probes.iter_mut() {
            secs += probe.run(mode, *reps);
            flops += probe.flops() as f64 * *reps as f64;
        }
        out.push(name, flops / secs / 1e9);
    }
}

/// `SymbolicProduct::execute_into_with` on a chain's first-level product
/// (its first two Jacobians), once planned per forced kernel mode.
pub struct KernelProbe<S> {
    a: Csr<S>,
    b: Csr<S>,
    modes: Vec<(SymbolicProduct, KernelScratch<S>, Csr<S>)>,
}

impl<S: Scalar> KernelProbe<S> {
    pub fn new(chain: &JacobianChain<S>) -> Self {
        let csr = |i: usize| match &chain.jacobians()[i] {
            ScanElement::Sparse(m) => m.clone(),
            other => panic!("kernel probe needs CSR Jacobians, found {other}"),
        };
        let (a, b) = (csr(0), csr(1));
        let modes = KERNEL_MODES
            .iter()
            .map(|&(mode, _)| {
                let plan = SymbolicProduct::plan_with_mode(&a.pattern(), &b.pattern(), mode);
                let scratch = plan.scratch(1);
                let out = Csr::from_pattern(Arc::clone(plan.out_pattern()));
                (plan, scratch, out)
            })
            .collect();
        Self { a, b, modes }
    }

    /// Structural FLOPs of one product.
    pub fn flops(&self) -> u64 {
        self.modes[0].0.flops()
    }

    /// Seconds for `reps` products under `KERNEL_MODES[mode]`.
    pub fn run(&mut self, mode: usize, reps: usize) -> f64 {
        let (plan, scratch, out) = &mut self.modes[mode];
        let t = Instant::now();
        for _ in 0..reps {
            plan.execute_into_with(black_box(&self.a), &self.b, out, scratch);
            black_box(out.data());
        }
        t.elapsed().as_secs_f64()
    }

    /// Whether every forced mode computes the same bits.
    pub fn modes_agree(&mut self) -> bool {
        for i in 0..self.modes.len() {
            self.run(i, 1);
        }
        let first: Vec<u64> = self.modes[0]
            .2
            .data()
            .iter()
            .map(|v| v.to_f64().to_bits())
            .collect();
        self.modes.iter().all(|(_, _, out)| {
            out.data()
                .iter()
                .map(|v| v.to_f64().to_bits())
                .eq(first.iter().copied())
        })
    }
}

/// `slice_axpy4` at one row width.
pub struct AxpyProbe<S> {
    dst: Vec<S>,
    src: [Vec<S>; 4],
}

impl<S: Scalar> AxpyProbe<S> {
    pub fn new(width: usize) -> Self {
        let row = |k: usize| {
            (0..width)
                .map(|i| S::from_f64(((i + k) % 7) as f64 * 0.125))
                .collect()
        };
        Self {
            dst: vec![S::ZERO; width],
            src: [row(1), row(2), row(3), row(4)],
        }
    }

    /// FLOPs of one call (four multiply–adds per element).
    pub fn flops(&self) -> u64 {
        8 * self.dst.len() as u64
    }

    /// Records one round's GFLOP/s over `reps` calls.
    pub fn push_round(&mut self, out: &mut Outcome, reps: usize) {
        let secs = self.run(reps);
        out.push(
            "axpy.gflops",
            self.flops() as f64 * reps as f64 / secs / 1e9,
        );
    }

    /// Seconds for `reps` calls. The coefficients alternate sign so the
    /// accumulator stays bounded.
    pub fn run(&mut self, reps: usize) -> f64 {
        let (p, m) = (S::from_f64(0.5), S::from_f64(-0.5));
        let [s1, s2, s3, s4] = &self.src;
        let t = Instant::now();
        for r in 0..reps {
            let a = if r % 2 == 0 { p } else { m };
            S::slice_axpy4(black_box(&mut self.dst), a, s1, a, s2, a, s3, a, s4);
        }
        black_box(&self.dst);
        t.elapsed().as_secs_f64()
    }
}
