//! Whole-scan symbolic planning — §3.3 taken to its conclusion.
//!
//! The paper observes that generic sparse libraries (cuSPARSE) redo symbolic
//! work (non-zero counting, index merging) on every multiplication, and that
//! BPPSA's deterministic Jacobian patterns let that work be "performed prior
//! to training and removed from a generic sparse matrix multiplication
//! routine". [`SymbolicProduct`](bppsa_sparse::SymbolicProduct) hoists one
//! product's symbolic phase; [`PlannedScan`] hoists **the entire backward
//! pass**: it simulates the scan schedule once over sparsity patterns and
//! compiles it into a straight-line program of numeric-only kernels over a
//! fixed set of buffers.
//!
//! # Plan once, execute many
//!
//! The intended steady-state training-loop lifecycle is:
//!
//! 1. **Plan** (once, before training): [`PlannedScan::plan`] simulates the
//!    schedule over the chain's patterns. Every up-sweep matrix–matrix
//!    combine becomes a numeric-only [`SymbolicProduct`]; every SpMV's
//!    output length is recorded; identity combines are resolved at plan time
//!    and vanish from the program entirely. Each instruction writes a fresh
//!    single-assignment buffer whose exact size/pattern is known now.
//! 2. **Allocate** (once): [`PlannedScan::workspace`] materializes every
//!    buffer the program will ever touch — intermediate matrices (sharing
//!    the plan's `Arc` patterns), staging vectors for the middle/down
//!    sweeps, and the gradient output vectors.
//! 3. **Execute** (every iteration): [`PlannedScan::execute_with`] runs the
//!    compiled program over a chain with the same patterns and the reused
//!    workspace. The steady state performs **zero heap allocations** with
//!    the serial executor, and only the worker pool's one batch header per
//!    parallel level otherwise.
//!
//! ```
//! use bppsa_core::{BppsaOptions, JacobianChain, PlannedScan, ScanElement};
//! use bppsa_sparse::Csr;
//! use bppsa_tensor::Vector;
//!
//! let mut chain = JacobianChain::new(Vector::from_vec(vec![1.0_f64, 2.0]));
//! chain.push(ScanElement::Sparse(Csr::from_diagonal(&[3.0, 4.0])));
//! chain.push(ScanElement::Sparse(Csr::from_diagonal(&[5.0, 6.0])));
//!
//! let plan = PlannedScan::plan(&chain, BppsaOptions::serial());
//! let mut ws = plan.workspace::<f64>();
//! for _ in 0..3 {
//!     // … forward pass refreshes the chain's Jacobian *values* …
//!     let grads = plan.execute_with(&chain, &mut ws);
//!     assert_eq!(grads.grads().len(), 2);
//! }
//! ```
//!
//! Valid because the paper's premise holds by construction here: operators
//! generate Jacobians with input-independent *guaranteed* patterns (explicit
//! zeros kept), so the pattern of every intermediate product is the same at
//! every iteration.
//!
//! # Cost-aware parallelism
//!
//! Instead of a hardcoded pairs-per-level cutoff, the executor prices each
//! compiled stage with its planned FLOPs: a stage fans its instructions out
//! across the shared [`WorkerPool`](bppsa_scan::WorkerPool) only when the
//! stage is heavy enough to amortize a pool wakeup *and* each task gets a
//! meaningful slice; a single heavy SpGEMM instead runs **row-chunk
//! parallel** through
//! [`SymbolicProduct::execute_into_parallel`](bppsa_sparse::SymbolicProduct::execute_into_parallel).

use crate::backward::{BackwardResult, BppsaOptions};
use crate::chain::JacobianChain;
use crate::diagonal::{DiagonalKernel, DiagonalScanPlan, DiagonalWorkspace};
use crate::element::ScanElement;
use crate::segmented::{balanced_cuts, segments_from_cuts, SegmentSlice, SegmentedPlan};
use bppsa_scan::{global_pool, Executor, Pair, PhaseKind, ScanSchedule, SendPtr, WorkerGroup};
use bppsa_sparse::{
    Csr, KernelMode, KernelScratch, NumericKernel, SparsityPattern, SymbolicProduct,
};
use bppsa_tensor::{Scalar, Vector};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum planned FLOPs before a stage is worth a pool wakeup at all.
const STAGE_PARALLEL_MIN_FLOPS: u64 = 32_768;
/// Minimum planned FLOPs per pool task; below this, fan-out overhead wins.
const TASK_MIN_FLOPS: u64 = 8_192;
/// Minimum planned FLOPs before a single SpGEMM runs row-chunk parallel.
const ROW_PARALLEL_MIN_FLOPS: u64 = 32_768;

/// Where a value lives during compiled execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// The chain's seed gradient `∇x_n l`.
    Seed,
    /// The chain's `jacobians()[i]` (layer order).
    Jacobian(usize),
    /// Workspace buffer `i`.
    Buf(usize),
}

/// Shape of one single-assignment workspace buffer, fixed at plan time.
#[derive(Debug, Clone)]
enum BufferSpec {
    /// A gradient-vector intermediate of the given length.
    Vector(usize),
    /// A matrix-fold intermediate with the given (shared) pattern.
    Matrix(Arc<SparsityPattern>),
}

/// One numeric instruction of the compiled program.
#[derive(Debug, Clone)]
enum Instr {
    /// `buf[dst] ← mat · vec` (numeric SpMV).
    Spmv { mat: Loc, vec: Loc, dst: usize },
    /// `buf[dst] ← lhs · rhs` through `spgemm_plans[plan]` (numeric-only).
    Spgemm {
        plan: usize,
        lhs: Loc,
        rhs: Loc,
        dst: usize,
    },
}

/// A group of instructions with a shared synchronization barrier (one scan
/// level, or the serial middle phase).
#[derive(Debug, Clone)]
struct Stage {
    instrs: Vec<Instr>,
    /// Whether the schedule permits running the instructions concurrently.
    parallel: bool,
    /// Total planned FLOPs of the stage (drives the parallelization choice).
    flops: u64,
    /// Planned FLOPs of the single heaviest instruction: a stage dominated
    /// by one combine is better served by row-parallelism inside that
    /// combine than by fanning the instruction list out.
    max_instr_flops: u64,
    /// Planned FLOPs of each instruction, parallel to `instrs` (segment
    /// slices price their share of a stage from these).
    instr_flops: Vec<u64>,
    /// Schedule block each instruction belongs to, parallel to `instrs` and
    /// nondecreasing (instructions ascend by written scan position), so a
    /// segment's share of a stage is a contiguous slice found by
    /// `partition_point`. Middle-stage instructions carry the block of the
    /// root they fold — informational only; the middle always runs serially.
    blocks: Vec<usize>,
    /// Which scan phase the stage came from: segmentation partitions
    /// up/down stages per segment and pins the middle to the caller.
    phase: PhaseKind,
}

/// Pattern-level value tracked while simulating the schedule.
#[derive(Debug, Clone)]
enum Sim {
    Identity,
    Vec { len: usize, loc: Loc },
    Mat { pat: Arc<SparsityPattern>, loc: Loc },
}

/// A fully-planned BPPSA backward pass for one chain *shape*: reusable
/// across iterations as long as every Jacobian keeps its guaranteed pattern.
///
/// See the source module's docs for the plan/workspace/execute lifecycle.
///
/// # Examples
///
/// ```
/// use bppsa_core::{bppsa_backward, BppsaOptions, JacobianChain, PlannedScan, ScanElement};
/// use bppsa_sparse::Csr;
/// use bppsa_tensor::Vector;
///
/// let mut chain = JacobianChain::new(Vector::from_vec(vec![1.0_f64, 2.0]));
/// chain.push(ScanElement::Sparse(Csr::from_diagonal(&[3.0, 4.0])));
/// chain.push(ScanElement::Sparse(Csr::from_diagonal(&[5.0, 6.0])));
///
/// let plan = PlannedScan::plan(&chain, BppsaOptions::serial());
/// let planned = plan.execute(&chain);
/// let unplanned = bppsa_backward(&chain, BppsaOptions::serial());
/// assert!(planned.max_abs_diff(&unplanned) < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct PlannedScan {
    schedule: ScanSchedule,
    /// Expected operand patterns, layer order (`jacobians()[i]`).
    input_patterns: Vec<Arc<SparsityPattern>>,
    seed_len: usize,
    /// The compiled numeric program (plan-kind selected at plan time).
    program: Program,
    /// Plan-time chain segmentation (`None` = unsegmented): contiguous
    /// block runs whose up/down instruction slices execute concurrently on
    /// carved worker groups, stitched through the serial middle. Exact —
    /// same instruction multiset, same buffers, bit-for-bit results.
    segmented: Option<SegmentedPlan>,
    parallel: bool,
    /// Wall-clock cost of the symbolic phase that built this plan — the
    /// observability hook serving-layer lane bring-up reports.
    build_time: Duration,
    /// Identity token tying workspaces to the plan they were built from.
    token: Arc<()>,
}

/// The two program kinds a plan compiles to. Selection happens once, at
/// plan time, from the chain's *patterns* (value-independent): all-diagonal
/// chains get the dense elementwise program of [`crate::diagonal`] (unless
/// [`crate::DiagonalMode::Disabled`]), everything else the generic CSR SSA
/// program. Both run under the identical schedule, workspace lifecycle, and
/// zero-allocation steady state.
#[derive(Debug, Clone)]
enum Program {
    /// Generic sparse SSA program: hoisted symbolic products + SpMVs over
    /// single-assignment CSR/vector buffers.
    Csr(CsrProgram),
    /// All-diagonal elementwise program over dense `(n + 2) × width` planes.
    Diagonal(DiagonalScanPlan),
}

/// The program kind a [`PlannedScan`] compiled to — the public view of the
/// plan-time selection (see [`PlannedScan::plan_kind`]). `bppsa-serve`
/// surfaces it per lane through the lane metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Generic sparse SSA program (hoisted symbolic products + SpMVs).
    Csr,
    /// All-diagonal elementwise fast path.
    Diagonal,
}

/// Per-kernel counts over a plan's hoisted symbolic products — how many
/// combines resolved to each [`NumericKernel`] (see
/// [`PlannedScan::kernel_counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCounts {
    /// Combines running the precomputed gather program.
    pub gather: usize,
    /// Combines running the planned row-by-row Gustavson kernel.
    pub gustavson: usize,
    /// Combines running the register-tiled dense-panel microkernel.
    pub dense: usize,
}

impl KernelCounts {
    /// Total planned matrix–matrix combines.
    pub fn total(&self) -> usize {
        self.gather + self.gustavson + self.dense
    }
}

/// The generic sparse compiled program (the original `PlannedScan` body).
#[derive(Debug, Clone)]
struct CsrProgram {
    /// Single-assignment buffer shapes, indexed by `Loc::Buf`.
    buffers: Vec<BufferSpec>,
    /// Hoisted symbolic products, referenced by `Instr::Spgemm::plan`.
    spgemm_plans: Vec<SymbolicProduct>,
    /// The compiled program: up levels, middle, down levels, in order.
    stages: Vec<Stage>,
    /// Gradient sources: `outputs[i]` holds `∇x_{i+1}` after execution.
    outputs: Vec<Loc>,
    /// FLOPs of all planned matrix–matrix combines (numeric phase).
    spgemm_flops: u64,
}

/// Caller-owned buffers for [`PlannedScan::execute_with`]: every
/// intermediate the compiled program writes, pre-sized at plan time, plus
/// the gradient output vectors. Reusing one workspace across iterations
/// makes the steady-state backward pass allocation-free.
#[derive(Debug)]
pub struct ScanWorkspace<S> {
    body: WsBody<S>,
    result: BackwardResult<S>,
    token: Arc<()>,
}

/// Kind-matched buffer storage: CSR programs use the SSA buffer list,
/// diagonal programs the dense planes. The token check in
/// [`PlannedScan::execute_with`] guarantees the body matches the program.
#[derive(Debug)]
enum WsBody<S> {
    Csr {
        bufs: Vec<WorkBuf<S>>,
        /// Per-product numeric scratch, indexed like the program's
        /// `spgemm_plans` (each `Spgemm` instruction references a unique
        /// plan, so instruction-parallel stages touch disjoint scratches).
        scratches: Vec<KernelScratch<S>>,
    },
    Diagonal(DiagonalWorkspace<S>),
}

#[derive(Debug)]
enum WorkBuf<S> {
    Vec(Vector<S>),
    Mat(Csr<S>),
}

impl PlannedScan {
    /// Runs the symbolic phase for the whole scan induced by `opts` over the
    /// chain's patterns, compiling every combine the schedule will ever
    /// perform into a numeric-only instruction.
    ///
    /// # Panics
    ///
    /// Panics if the chain is invalid or contains non-CSR elements (dense
    /// chains have no symbolic work to hoist).
    pub fn plan<S: Scalar>(chain: &JacobianChain<S>, opts: BppsaOptions) -> Self {
        let build_start = Instant::now();
        chain.validate();
        let n = chain.num_layers();
        let input_patterns: Vec<Arc<SparsityPattern>> = chain
            .jacobians()
            .iter()
            .map(|jt| match jt {
                ScanElement::Sparse(m) => m.pattern(),
                other => panic!("PlannedScan: chain must be all-CSR, found {other}"),
            })
            .collect();
        let seed_len = chain.seed().len();
        let schedule = opts.schedule(n + 1);

        // Plan-kind selection: all-diagonal chains take the elementwise
        // fast path (same schedule, dense planes); everything else gets the
        // generic CSR SSA program.
        let program = match opts.diagonal.select(n, seed_len, &input_patterns) {
            Some(kernel) => {
                Program::Diagonal(DiagonalScanPlan::compile(n, seed_len, kernel, &schedule))
            }
            None => Program::Csr(CsrProgram::compile(
                &schedule,
                &input_patterns,
                seed_len,
                opts.kernel,
            )),
        };

        // Segmentation slices the compiled CSR program at block boundaries
        // (diagonal programs stay unsegmented: their levels are elementwise
        // over dense planes and already fan out width-wise).
        let segmented = match &program {
            Program::Csr(p) if opts.segments > 1 => {
                build_segmentation(p, &schedule, &input_patterns, seed_len, opts.segments)
            }
            _ => None,
        };

        Self {
            schedule,
            input_patterns,
            seed_len,
            program,
            segmented,
            parallel: !matches!(opts.executor, Executor::Serial),
            build_time: build_start.elapsed(),
            token: Arc::new(()),
        }
    }

    /// Wall-clock time the symbolic phase took to build this plan.
    ///
    /// Planning is the one expensive, allocation-heavy step of the
    /// plan→workspace→execute lifecycle; callers that build plans on demand
    /// (the `bppsa-serve` lane bring-up, the `BackwardEngine` of
    /// `bppsa-models`) report it for cold-start observability.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// The schedule this plan executes.
    pub fn schedule(&self) -> &ScanSchedule {
        &self.schedule
    }

    /// Total FLOPs of the planned numeric SpGEMM work per execution.
    /// Diagonal programs plan no symbolic products and report `0`; their
    /// elementwise work is [`PlannedScan::elementwise_flops`].
    pub fn spgemm_flops(&self) -> u64 {
        match &self.program {
            Program::Csr(p) => p.spgemm_flops,
            Program::Diagonal(_) => 0,
        }
    }

    /// Total elementwise multiplies per execution of a diagonal program
    /// (`0` for CSR programs, whose work is [`PlannedScan::spgemm_flops`]).
    pub fn elementwise_flops(&self) -> u64 {
        match &self.program {
            Program::Csr(_) => 0,
            Program::Diagonal(d) => d.flops(),
        }
    }

    /// Which diagonal kernel this plan compiled to, or `None` when the
    /// chain was not all-diagonal (or the fast path was
    /// [`crate::DiagonalMode::Disabled`]).
    pub fn diagonal_kernel(&self) -> Option<DiagonalKernel> {
        match &self.program {
            Program::Csr(_) => None,
            Program::Diagonal(d) => Some(d.kernel()),
        }
    }

    /// Which program kind this plan compiled to — the public, serve-facing
    /// view of the internal program enum (`bppsa-serve` lane metrics report
    /// it per lane).
    pub fn plan_kind(&self) -> PlanKind {
        match &self.program {
            Program::Csr(_) => PlanKind::Csr,
            Program::Diagonal(_) => PlanKind::Diagonal,
        }
    }

    /// Per-kernel counts over this plan's hoisted symbolic products — the
    /// kernel-mode mix a [`KernelMode`] resolved to across the program's
    /// combines. Diagonal programs plan no products and report all zeros.
    pub fn kernel_counts(&self) -> KernelCounts {
        let mut counts = KernelCounts::default();
        if let Program::Csr(p) = &self.program {
            for plan in &p.spgemm_plans {
                match plan.kernel() {
                    NumericKernel::Gather => counts.gather += 1,
                    NumericKernel::Gustavson => counts.gustavson += 1,
                    NumericKernel::Dense => counts.dense += 1,
                }
            }
        }
        counts
    }

    /// Accumulator lanes each combine's [`KernelScratch`] is sized for:
    /// one per row chunk the parallel executor could fan out to, or a
    /// single lane under the serial executor. Segmented plans never
    /// row-parallelize a single combine (the pool's workers are carved
    /// into per-segment groups instead), so one lane suffices — the
    /// workspace shrinks accordingly.
    fn scratch_lanes(&self) -> usize {
        if self.parallel && self.segmented.is_none() {
            global_pool().size() + 1
        } else {
            1
        }
    }

    /// Number of concurrently-scanned chain segments this plan executes
    /// (`1` = unsegmented).
    pub fn segments(&self) -> usize {
        self.segmented.as_ref().map_or(1, SegmentedPlan::segments)
    }

    /// The plan's segmentation — block ownership, interface widths — or
    /// `None` when the plan is unsegmented (a one-segment request, a
    /// diagonal program, or a schedule with too few blocks).
    pub fn segmentation(&self) -> Option<&SegmentedPlan> {
        self.segmented.as_ref()
    }

    /// For diagonal plans: the largest pool fan-out any level would request
    /// from a `workers`-wide pool (`None` for CSR plans). Exposes the
    /// width-gated chunking policy ([`crate::diagonal_level_tasks`]) at the
    /// plan level, so tests can pin that a `width = 1` chain of any length
    /// never leaves the submitting thread.
    pub fn diagonal_level_fanout(&self, workers: usize) -> Option<usize> {
        match &self.program {
            Program::Csr(_) => None,
            Program::Diagonal(d) => Some(d.max_level_tasks(workers)),
        }
    }

    /// Number of matrix–matrix combines that were symbolically planned
    /// (`0` for diagonal programs — avoiding them is the point).
    pub fn planned_products(&self) -> usize {
        match &self.program {
            Program::Csr(p) => p.spgemm_plans.len(),
            Program::Diagonal(_) => 0,
        }
    }

    /// Number of planned SpMV combines (`0` for diagonal programs).
    pub fn planned_spmvs(&self) -> usize {
        match &self.program {
            Program::Csr(p) => p
                .stages
                .iter()
                .flat_map(|s| &s.instrs)
                .filter(|i| matches!(i, Instr::Spmv { .. }))
                .count(),
            Program::Diagonal(_) => 0,
        }
    }

    /// Total bytes of workspace buffer payload an execution reuses.
    pub fn workspace_bytes<S: Scalar>(&self) -> usize {
        match &self.program {
            Program::Csr(p) => {
                let lanes = self.scratch_lanes();
                p.buffers
                    .iter()
                    .map(|spec| match spec {
                        BufferSpec::Vector(len) => len * std::mem::size_of::<S>(),
                        BufferSpec::Matrix(pat) => pat.nnz() * std::mem::size_of::<S>(),
                    })
                    .sum::<usize>()
                    + p.spgemm_plans
                        .iter()
                        .map(|plan| plan.scratch_bytes::<S>(lanes))
                        .sum::<usize>()
            }
            Program::Diagonal(d) => d.workspace_bytes::<S>(),
        }
    }

    /// Allocates the workspace this plan's program executes over: every
    /// intermediate buffer plus the gradient outputs, fully pre-sized.
    pub fn workspace<S: Scalar>(&self) -> ScanWorkspace<S> {
        let (body, grads): (WsBody<S>, Vec<Vector<S>>) = match &self.program {
            Program::Csr(p) => {
                let bufs = p
                    .buffers
                    .iter()
                    .map(|spec| match spec {
                        BufferSpec::Vector(len) => WorkBuf::Vec(Vector::zeros(*len)),
                        BufferSpec::Matrix(pat) => WorkBuf::Mat(Csr::from_pattern(Arc::clone(pat))),
                    })
                    .collect();
                let grads = p
                    .outputs
                    .iter()
                    .map(|loc| match loc {
                        Loc::Seed => Vector::zeros(self.seed_len),
                        Loc::Buf(j) => match &p.buffers[*j] {
                            BufferSpec::Vector(len) => Vector::zeros(*len),
                            BufferSpec::Matrix(_) => {
                                unreachable!("gradient output is a matrix buffer")
                            }
                        },
                        Loc::Jacobian(_) => unreachable!("gradient output is a Jacobian"),
                    })
                    .collect();
                // One scratch per hoisted product, pre-sized for the widest
                // row-chunk fan-out the executor could request — the dense
                // panels and accumulator lanes are part of the workspace, so
                // the steady state stays allocation-free for every kernel.
                let lanes = self.scratch_lanes();
                let scratches = p
                    .spgemm_plans
                    .iter()
                    .map(|plan| plan.scratch::<S>(lanes))
                    .collect();
                (WsBody::Csr { bufs, scratches }, grads)
            }
            Program::Diagonal(d) => {
                // Diagonal outputs are all seed-width vectors.
                let grads = (0..self.input_patterns.len())
                    .map(|_| Vector::zeros(self.seed_len))
                    .collect();
                (WsBody::Diagonal(d.workspace()), grads)
            }
        };
        ScanWorkspace {
            body,
            result: BackwardResult::from_grads(grads),
            token: Arc::clone(&self.token),
        }
    }

    /// Executes the numeric-only backward pass over a chain with the same
    /// patterns this plan was built from (convenience wrapper that allocates
    /// a throwaway workspace; training loops should reuse one via
    /// [`PlannedScan::execute_with`]).
    ///
    /// # Panics
    ///
    /// As [`PlannedScan::execute_with`].
    pub fn execute<S: Scalar>(&self, chain: &JacobianChain<S>) -> BackwardResult<S> {
        let mut ws = self.workspace();
        self.execute_with(chain, &mut ws).clone()
    }

    /// Executes the compiled numeric program over `chain` using the reused
    /// `workspace`, returning the gradients stored in the workspace.
    ///
    /// After the first call warms the buffers, subsequent calls perform zero
    /// heap allocations under the serial executor (and only the worker
    /// pool's per-level batch header otherwise).
    ///
    /// # Panics
    ///
    /// Panics if the chain's length or any operand's shape does not match
    /// the plan, if the workspace was built from a different plan, or (in
    /// debug builds) if any operand's *pattern* deviates from the planned
    /// pattern.
    pub fn execute_with<'w, S: Scalar>(
        &self,
        chain: &JacobianChain<S>,
        workspace: &'w mut ScanWorkspace<S>,
    ) -> &'w BackwardResult<S> {
        self.check_chain(chain);
        assert!(
            Arc::ptr_eq(&self.token, &workspace.token),
            "PlannedScan: workspace was built from a different plan"
        );

        match (&self.program, &mut workspace.body) {
            (
                Program::Csr(p),
                WsBody::Csr {
                    bufs: ws_bufs,
                    scratches,
                },
            ) => {
                debug_assert_eq!(scratches.len(), p.spgemm_plans.len());
                let bufs: *mut WorkBuf<S> = ws_bufs.as_mut_ptr();
                let scratch: *mut KernelScratch<S> = scratches.as_mut_ptr();
                if let Some(seg) = &self.segmented {
                    p.run_segmented(seg, chain, bufs, ws_bufs.len(), scratch, self.parallel);
                } else {
                    for stage in &p.stages {
                        p.run_stage(stage, chain, bufs, ws_bufs.len(), scratch, self.parallel);
                    }
                }

                // Copy gradients into the workspace-owned result buffers.
                for (i, loc) in p.outputs.iter().enumerate() {
                    let src: &Vector<S> = match loc {
                        Loc::Seed => chain.seed(),
                        Loc::Buf(j) => match &ws_bufs[*j] {
                            WorkBuf::Vec(v) => v,
                            WorkBuf::Mat(_) => unreachable!("output buffer is a matrix"),
                        },
                        Loc::Jacobian(_) => unreachable!("output is a Jacobian"),
                    };
                    workspace.result.grads_mut()[i]
                        .as_mut_slice()
                        .copy_from_slice(src.as_slice());
                }
            }
            (Program::Diagonal(d), WsBody::Diagonal(planes)) => {
                let jacobians = chain.jacobians();
                d.execute(
                    chain.seed().as_slice(),
                    |p| match &jacobians[p] {
                        ScanElement::Sparse(m) => m.data(),
                        other => unreachable!("diagonal plan operand is {other}"),
                    },
                    planes,
                    self.parallel,
                    workspace.result.grads_mut(),
                );
            }
            // The token identity check above makes a kind mismatch
            // impossible: a workspace's body is built from its plan's
            // program.
            _ => unreachable!("workspace body does not match the plan's program kind"),
        }
        &workspace.result
    }

    /// Whether `chain` has exactly the structure this plan was built from:
    /// same length, seed width, and per-layer sparsity patterns (`Arc`
    /// pointer fast path, content compare otherwise). Allocation-free.
    pub fn matches<S: Scalar>(&self, chain: &JacobianChain<S>) -> bool {
        chain_matches_shape(chain, self.seed_len, &self.input_patterns)
    }

    /// Validates chain length and operand shapes against the plan; debug
    /// builds compare the full patterns (with an `Arc` pointer fast path),
    /// so a wrong-pattern operand of the right shape cannot slip through.
    fn check_chain<S: Scalar>(&self, chain: &JacobianChain<S>) {
        assert_eq!(
            chain.num_layers() + 1,
            self.schedule.len(),
            "PlannedScan: chain length does not match the plan"
        );
        assert_eq!(
            chain.seed().len(),
            self.seed_len,
            "PlannedScan: seed length does not match the plan"
        );
        for (i, jt) in chain.jacobians().iter().enumerate() {
            let expected = &self.input_patterns[i];
            match jt {
                ScanElement::Sparse(m) => {
                    assert_eq!(
                        m.shape(),
                        expected.shape(),
                        "PlannedScan: Jacobian {i} shape does not match the plan"
                    );
                    debug_assert!(
                        Arc::ptr_eq(m.pattern_ref(), expected) || *m.pattern_ref() == *expected,
                        "PlannedScan: Jacobian {i} pattern does not match the plan"
                    );
                }
                other => panic!("PlannedScan: chain must be all-CSR, found {other}"),
            }
        }
    }
}

impl CsrProgram {
    /// The original whole-scan symbolic compilation: simulates the schedule
    /// over the chain's patterns, hoisting every matrix–matrix combine into
    /// a [`SymbolicProduct`] and resolving identities at plan time.
    fn compile(
        schedule: &ScanSchedule,
        input_patterns: &[Arc<SparsityPattern>],
        seed_len: usize,
        kernel: KernelMode,
    ) -> Self {
        let n = input_patterns.len();

        // Scan-array layout (Equation 5): [seed, J_n^T, …, J_1^T].
        let mut slots: Vec<Sim> = Vec::with_capacity(n + 1);
        slots.push(Sim::Vec {
            len: seed_len,
            loc: Loc::Seed,
        });
        for p in (0..n).rev() {
            slots.push(Sim::Mat {
                pat: Arc::clone(&input_patterns[p]),
                loc: Loc::Jacobian(p),
            });
        }

        let mut compiler = Compiler {
            kernel,
            ..Compiler::default()
        };

        // Up-sweep: a[r] ← a[l] ⊙ a[r] = a[r] · a[l]. Every pair lies
        // within one schedule block (pinned in `bppsa-scan`), so the
        // emitted instruction is attributed to the block of its written
        // position `r` — the basis for segment slicing.
        for level in schedule.up_levels() {
            let mut stage = compiler.open_stage(true, PhaseKind::UpSweep);
            for &Pair { l, r } in level {
                let before = stage.instrs.len();
                let folded = compiler.combine(&mut stage, &slots[l], &slots[r]);
                slots[r] = folded;
                if stage.instrs.len() > before {
                    stage.blocks.push(schedule.block_of(r));
                }
            }
            compiler.push_stage(stage);
        }

        // Middle: serial exclusive scan over block roots.
        {
            let mut stage = compiler.open_stage(false, PhaseKind::Middle);
            let mut running = Sim::Identity;
            for &root in schedule.block_roots() {
                let before = stage.instrs.len();
                let old = std::mem::replace(&mut slots[root], Sim::Identity);
                let next = compiler.combine(&mut stage, &running, &old);
                slots[root] = std::mem::replace(&mut running, next);
                if stage.instrs.len() > before {
                    stage.blocks.push(schedule.block_of(root));
                }
            }
            compiler.push_stage(stage);
        }

        // Down-sweep: t ← a[l]; a[l] ← a[r]; a[r] ← a[r] ⊙ t. Identity
        // combines emit nothing; emitted instructions again belong to the
        // block of the written position `r` (same-block invariant).
        for level in schedule.down_levels() {
            let mut stage = compiler.open_stage(true, PhaseKind::DownSweep);
            for &Pair { l, r } in level {
                let before = stage.instrs.len();
                let t = std::mem::replace(&mut slots[l], Sim::Identity);
                let r_val = std::mem::replace(&mut slots[r], Sim::Identity);
                let folded = compiler.combine(&mut stage, &r_val, &t);
                slots[l] = r_val;
                slots[r] = folded;
                if stage.instrs.len() > before {
                    stage.blocks.push(schedule.block_of(r));
                }
            }
            compiler.push_stage(stage);
        }

        // Post-scan array must be [I, ∇x_n, …, ∇x_1]; record where each
        // gradient ended up: g[i] = slot[n − i].
        assert!(
            matches!(slots.first(), Some(Sim::Identity) | None),
            "planned scan must leave the identity at position 0"
        );
        let outputs: Vec<Loc> = (0..n)
            .map(|i| match &slots[n - i] {
                Sim::Vec { loc, .. } => *loc,
                other => panic!("planned scan slot {} is not a vector: {other:?}", n - i),
            })
            .collect();

        Self {
            buffers: compiler.buffers,
            spgemm_plans: compiler.plans,
            stages: compiler.stages,
            outputs,
            spgemm_flops: compiler.spgemm_flops,
        }
    }

    /// Runs one stage, choosing serial / instruction-parallel / row-parallel
    /// execution from the stage's planned FLOPs.
    fn run_stage<S: Scalar>(
        &self,
        stage: &Stage,
        chain: &JacobianChain<S>,
        bufs: *mut WorkBuf<S>,
        bufs_len: usize,
        scratch: *mut KernelScratch<S>,
        parallel: bool,
    ) {
        // A stage dominated by one heavy combine gains more from
        // row-parallelism inside that combine (the serial branch below)
        // than from a 2-way instruction fan-out that strands the heavy
        // product on a single worker.
        let skewed = stage.max_instr_flops >= ROW_PARALLEL_MIN_FLOPS
            && 2 * stage.max_instr_flops >= stage.flops;
        let instr_parallel = parallel
            && stage.parallel
            && !skewed
            && stage.instrs.len() >= 2
            && stage.flops >= STAGE_PARALLEL_MIN_FLOPS
            && stage.flops / stage.instrs.len() as u64 >= TASK_MIN_FLOPS;
        if instr_parallel {
            let bufs = SendPtr(bufs);
            let scratch = SendPtr(scratch);
            global_pool().run_indexed(stage.instrs.len(), &|i| {
                let bufs: SendPtr<WorkBuf<S>> = bufs;
                let scratch: SendPtr<KernelScratch<S>> = scratch;
                // SAFETY: instructions within a stage write pairwise-distinct
                // single-assignment buffers and read only buffers written in
                // earlier stages (schedule disjointness + SSA construction),
                // so no two tasks alias a destination; every Spgemm
                // instruction references a unique plan index, so per-plan
                // scratches are exclusively owned too; the pool barrier
                // orders the writes against later stages.
                unsafe {
                    self.exec_instr(&stage.instrs[i], chain, bufs.0, bufs_len, scratch.0, false)
                };
            });
        } else {
            for instr in &stage.instrs {
                // SAFETY: single-threaded here; aliasing argument as above.
                unsafe { self.exec_instr(instr, chain, bufs, bufs_len, scratch, parallel) };
            }
        }
    }

    /// Runs the compiled program segment-parallel: each segment's up-sweep
    /// slices execute concurrently on the pool (one driver task per
    /// segment, heavy slices fanning out further across that segment's
    /// carved worker group), the middle runs serially on the caller, then
    /// the down-sweep slices execute concurrently again.
    ///
    /// Exactness: this runs the *same instruction multiset* as the
    /// unsegmented stage loop. Up/down pairs never cross block boundaries
    /// (pinned in `bppsa-scan`), segments own disjoint contiguous block
    /// runs, every instruction writes a fresh single-assignment buffer, and
    /// the two `run_indexed` barriers order each phase against the serial
    /// middle — so no instruction can observe an operand in a different
    /// state than under the serial order, and results are bit-for-bit
    /// identical.
    fn run_segmented<S: Scalar>(
        &self,
        seg: &SegmentedPlan,
        chain: &JacobianChain<S>,
        bufs: *mut WorkBuf<S>,
        bufs_len: usize,
        scratch: *mut KernelScratch<S>,
        parallel: bool,
    ) {
        let k = seg.up.len();
        if parallel {
            let pool = global_pool();
            let size = pool.size();
            let bufs = SendPtr(bufs);
            let scratch = SendPtr(scratch);
            let run_phase = |slices_per_seg: &[Vec<SegmentSlice>]| {
                pool.run_indexed(k, &|g| {
                    let bufs: SendPtr<WorkBuf<S>> = bufs;
                    let scratch: SendPtr<KernelScratch<S>> = scratch;
                    // Contiguous worker carve, computed arithmetically so
                    // the steady state allocates nothing. Empty groups
                    // (more segments than workers) degrade to driver-only
                    // inline execution.
                    let group = pool.group(g * size / k, (g + 1) * size / k);
                    // SAFETY: segments own disjoint blocks; see the method
                    // docs for the aliasing argument. The per-plan scratch
                    // exclusivity of `exec_instr` carries over unchanged
                    // (plan indices stay unique per instruction).
                    unsafe {
                        self.run_slices(
                            &slices_per_seg[g],
                            group,
                            chain,
                            bufs.0,
                            bufs_len,
                            scratch.0,
                        )
                    };
                });
            };
            run_phase(&seg.up);
            if let Some(mid) = seg.middle {
                // The middle is the one inherently serial stitch: a short
                // chain of SpMVs threading the running prefix through every
                // block root, cross-segment by construction.
                self.run_stage(&self.stages[mid], chain, bufs.0, bufs_len, scratch.0, false);
            }
            run_phase(&seg.down);
        } else {
            // Serial executor: loop the segments in order. Exercises the
            // identical slice decomposition (same instruction multiset,
            // same per-instruction arguments), deterministically.
            for g in 0..k {
                for slice in &seg.up[g] {
                    let stage = &self.stages[slice.stage];
                    for instr in &stage.instrs[slice.lo..slice.hi] {
                        // SAFETY: single-threaded; SSA aliasing argument as
                        // in `run_stage`.
                        unsafe { self.exec_instr(instr, chain, bufs, bufs_len, scratch, false) };
                    }
                }
            }
            if let Some(mid) = seg.middle {
                self.run_stage(&self.stages[mid], chain, bufs, bufs_len, scratch, false);
            }
            for g in 0..k {
                for slice in &seg.down[g] {
                    let stage = &self.stages[slice.stage];
                    for instr in &stage.instrs[slice.lo..slice.hi] {
                        // SAFETY: as above.
                        unsafe { self.exec_instr(instr, chain, bufs, bufs_len, scratch, false) };
                    }
                }
            }
        }
    }

    /// Runs one segment's slices in stage order on the segment's driver
    /// task, fanning a heavy slice out across the segment's worker group
    /// (instruction-level, priced like `run_stage`; row-parallelism stays
    /// off — the pool is already carved).
    ///
    /// # Safety
    ///
    /// As `exec_instr`, plus: no other segment may concurrently touch this
    /// segment's blocks (guaranteed by the disjoint block partition and the
    /// same-block pair invariant).
    unsafe fn run_slices<S: Scalar>(
        &self,
        slices: &[SegmentSlice],
        group: WorkerGroup<'_>,
        chain: &JacobianChain<S>,
        bufs: *mut WorkBuf<S>,
        bufs_len: usize,
        scratch: *mut KernelScratch<S>,
    ) {
        for slice in slices {
            let stage = &self.stages[slice.stage];
            let count = slice.hi - slice.lo;
            let flops: u64 = stage.instr_flops[slice.lo..slice.hi].iter().sum();
            let fan_out = stage.parallel
                && group.workers() > 0
                && count >= 2
                && flops >= STAGE_PARALLEL_MIN_FLOPS
                && flops / count as u64 >= TASK_MIN_FLOPS;
            if fan_out {
                let bufs = SendPtr(bufs);
                let scratch = SendPtr(scratch);
                group.run_indexed(count, &|i| {
                    let bufs: SendPtr<WorkBuf<S>> = bufs;
                    let scratch: SendPtr<KernelScratch<S>> = scratch;
                    // SAFETY: within-stage instructions write distinct SSA
                    // buffers (as in `run_stage`); the nested publish lands
                    // on a free pool header (or runs inline), and the group
                    // barrier orders the writes against the next slice.
                    unsafe {
                        self.exec_instr(
                            &stage.instrs[slice.lo + i],
                            chain,
                            bufs.0,
                            bufs_len,
                            scratch.0,
                            false,
                        )
                    };
                });
            } else {
                for instr in &stage.instrs[slice.lo..slice.hi] {
                    // SAFETY: caller contract; instructions of one segment
                    // run here sequentially.
                    unsafe { self.exec_instr(instr, chain, bufs, bufs_len, scratch, false) };
                }
            }
        }
    }

    /// Executes one instruction. `row_parallel` permits a heavy SpGEMM to
    /// fan its numeric phase out across the pool by row chunks.
    ///
    /// # Safety
    ///
    /// `bufs` must point to `bufs_len` initialized buffers matching the
    /// plan's specs, the instruction's `dst` must not be concurrently
    /// accessed, and its source buffers must not be concurrently written.
    /// `scratch` must point to one [`KernelScratch`] per entry of
    /// `spgemm_plans` (in order), and no other instruction referencing the
    /// same plan index may run concurrently (guaranteed: each `Spgemm`
    /// instruction holds a unique plan index by construction).
    unsafe fn exec_instr<S: Scalar>(
        &self,
        instr: &Instr,
        chain: &JacobianChain<S>,
        bufs: *mut WorkBuf<S>,
        bufs_len: usize,
        scratch: *mut KernelScratch<S>,
        row_parallel: bool,
    ) {
        match instr {
            Instr::Spmv { mat, vec, dst } => {
                let m = resolve_mat(*mat, chain, bufs, bufs_len);
                let v = resolve_vec(*vec, chain, bufs, bufs_len);
                debug_assert!(*dst < bufs_len);
                match &mut *bufs.add(*dst) {
                    WorkBuf::Vec(out) => m.spmv_into(v, out),
                    WorkBuf::Mat(_) => unreachable!("spmv destination is a matrix buffer"),
                }
            }
            Instr::Spgemm {
                plan,
                lhs,
                rhs,
                dst,
            } => {
                let p = &self.spgemm_plans[*plan];
                let a = resolve_mat(*lhs, chain, bufs, bufs_len);
                let b = resolve_mat(*rhs, chain, bufs, bufs_len);
                debug_assert!(*dst < bufs_len);
                let out = match &mut *bufs.add(*dst) {
                    WorkBuf::Mat(out) => out,
                    WorkBuf::Vec(_) => unreachable!("spgemm destination is a vector buffer"),
                };
                // SAFETY (caller contract): `plan` indexes are unique per
                // instruction, so this scratch is exclusively ours.
                let scratch = &mut *scratch.add(*plan);
                if row_parallel && p.execute_flops() >= ROW_PARALLEL_MIN_FLOPS {
                    p.execute_into_parallel_with(a, b, out, global_pool(), scratch);
                } else {
                    p.execute_into_with(a, b, out, scratch);
                }
            }
        }
    }
}

/// Builds the segmentation of a compiled CSR program: clamps `k` to the
/// schedule's block count, places the cuts with
/// [`balanced_cuts`] (planned per-block FLOPs as weights, preferring
/// naturally narrow interfaces), and slices every up/down stage's
/// instruction list per segment by `partition_point` over the recorded
/// block attribution. Returns `None` when fewer than two segments survive
/// the clamp (single-block schedules — e.g. full Blelloch — cannot split).
fn build_segmentation(
    p: &CsrProgram,
    schedule: &ScanSchedule,
    input_patterns: &[Arc<SparsityPattern>],
    seed_len: usize,
    k: usize,
) -> Option<SegmentedPlan> {
    let roots = schedule.block_roots();
    let num_blocks = roots.len();
    let k = k.min(num_blocks);
    if k < 2 {
        return None;
    }

    // Per-block planned cost over the parallel phases (the middle is
    // caller-serial regardless of where the cuts land).
    let mut weights = vec![0u64; num_blocks];
    for stage in &p.stages {
        if matches!(stage.phase, PhaseKind::Middle) {
            continue;
        }
        for (block, flops) in stage.blocks.iter().zip(&stage.instr_flops) {
            weights[*block] += flops;
        }
    }

    // Interface width at the boundary after block `b`: the row count of the
    // fold block `b` hands the middle — the rows of its root slot's operand
    // (slot `j ≥ 1` holds `J_{n−j+1}ᵀ`, i.e. `input_patterns[n − j]`).
    let n = input_patterns.len();
    let interfaces: Vec<usize> = roots[..num_blocks - 1]
        .iter()
        .map(|&root| {
            if root == 0 {
                seed_len
            } else {
                input_patterns[n - root].rows()
            }
        })
        .collect();

    let cuts = balanced_cuts(&weights, &interfaces, k);
    let segment_blocks = segments_from_cuts(&cuts, num_blocks);
    let interface_widths: Vec<usize> = cuts.iter().map(|&c| interfaces[c - 1]).collect();

    let mut up: Vec<Vec<SegmentSlice>> = vec![Vec::new(); k];
    let mut down: Vec<Vec<SegmentSlice>> = vec![Vec::new(); k];
    let mut middle = None;
    for (s, stage) in p.stages.iter().enumerate() {
        let per_segment = match stage.phase {
            PhaseKind::UpSweep => &mut up,
            PhaseKind::DownSweep => &mut down,
            PhaseKind::Middle => {
                middle = Some(s);
                continue;
            }
        };
        debug_assert_eq!(stage.blocks.len(), stage.instrs.len());
        for (g, blocks) in segment_blocks.iter().enumerate() {
            let lo = stage.blocks.partition_point(|&b| b < blocks.start);
            let hi = stage.blocks.partition_point(|&b| b < blocks.end);
            if hi > lo {
                per_segment[g].push(SegmentSlice { stage: s, lo, hi });
            }
        }
    }

    Some(SegmentedPlan::new(
        up,
        down,
        middle,
        segment_blocks,
        interface_widths,
    ))
}

/// Whether `chain` has exactly the given structure: a `seed_len`-wide seed
/// gradient and one all-CSR layer per entry of `patterns`, in layer order
/// (`Arc`-pointer fast path, content compare otherwise). Allocation-free.
///
/// This is *the* shape predicate of the workspace: [`PlannedScan::matches`]
/// and the `bppsa-serve` router's lane shape keys both delegate here, so
/// plan compatibility and request routing cannot drift apart.
pub fn chain_matches_shape<S: Scalar>(
    chain: &JacobianChain<S>,
    seed_len: usize,
    patterns: &[Arc<SparsityPattern>],
) -> bool {
    chain.num_layers() == patterns.len()
        && chain.seed().len() == seed_len
        && chain
            .jacobians()
            .iter()
            .zip(patterns)
            .all(|(jt, expected)| match jt {
                ScanElement::Sparse(m) => {
                    Arc::ptr_eq(m.pattern_ref(), expected) || *m.pattern_ref() == *expected
                }
                _ => false,
            })
}

/// How many distinct chain structures a plan cache retains — the default
/// capacity of [`Mru`], used by the `BackwardEngine` of `bppsa-models`
/// and as the default lane cap of `bppsa-serve`. Training loops see at
/// most a handful of shapes (the full mini-batch shape plus the epoch-end
/// remainder); the least recently used entry is evicted beyond this.
pub const PLAN_CACHE_CAPACITY: usize = 8;

/// A tiny bounded most-recently-used store: linear predicate lookup, hit
/// moves the entry to the back, miss inserts (evicting the front when
/// full). Shared by the `BackwardEngine` of `bppsa-models` (plans, chains
/// and executors per route and shape) and the lane router of
/// `bppsa-serve`, so their recency and eviction behavior cannot drift
/// apart.
#[derive(Debug)]
pub struct Mru<T> {
    entries: Vec<T>,
    capacity: usize,
}

impl<T> Mru<T> {
    /// An empty store evicting beyond `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Mru: capacity must be non-zero");
        Self {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Finds the entry matching `pred` (moving it to the back) or inserts
    /// `make()` (evicting the least recently used entry when full).
    /// Returns the entry and whether it was just inserted.
    pub fn find_or_insert_with(
        &mut self,
        pred: impl Fn(&T) -> bool,
        make: impl FnOnce() -> T,
    ) -> (&mut T, bool) {
        let (entry, inserted, _evicted) = self.find_or_insert_with_evicted(pred, make);
        (entry, inserted)
    }

    /// [`Mru::find_or_insert_with`] that additionally hands back the entry
    /// evicted to make room (`None` on a hit, or when still under
    /// capacity), so callers owning live resources — threads, queues,
    /// serving lanes — can shut the evicted entry down instead of silently
    /// dropping it.
    pub fn find_or_insert_with_evicted(
        &mut self,
        pred: impl Fn(&T) -> bool,
        make: impl FnOnce() -> T,
    ) -> (&mut T, bool, Option<T>) {
        let (inserted, evicted) = match self.entries.iter().position(&pred) {
            Some(hit) => {
                let entry = self.entries.remove(hit);
                self.entries.push(entry);
                (false, None)
            }
            None => {
                let evicted = if self.entries.len() >= self.capacity {
                    Some(self.entries.remove(0))
                } else {
                    None
                };
                self.entries.push(make());
                (true, evicted)
            }
        };
        (
            self.entries.last_mut().expect("entry present"),
            inserted,
            evicted,
        )
    }

    /// Finds the entry matching `pred`, moving it to the back (most
    /// recently used) — a hit-only [`Mru::find_or_insert_with`], for
    /// callers whose insertion path must run (fallible or panicky
    /// construction) *before* any entry is evicted.
    pub fn find(&mut self, pred: impl Fn(&T) -> bool) -> Option<&mut T> {
        let hit = self.entries.iter().position(pred)?;
        let entry = self.entries.remove(hit);
        self.entries.push(entry);
        self.entries.last_mut()
    }

    /// Removes and yields every entry, least recently used first (for
    /// owners that must shut stored resources down, e.g. at service
    /// shutdown).
    pub fn drain(&mut self) -> std::vec::Drain<'_, T> {
        self.entries.drain(..)
    }

    /// Removes and returns every entry matching `pred` (LRU order among
    /// the removed; recency order of the survivors preserved). Returns an
    /// empty, non-allocated `Vec` when nothing matches, so callers may run
    /// it on hot paths as a guard against dead entries (e.g. a serving
    /// lane whose background warm-up failed and that must not keep
    /// matching requests).
    pub fn extract(&mut self, pred: impl Fn(&T) -> bool) -> Vec<T> {
        let mut removed = Vec::new();
        let mut i = 0;
        while i < self.entries.len() {
            if pred(&self.entries[i]) {
                removed.push(self.entries.remove(i));
            } else {
                i += 1;
            }
        }
        removed
    }

    /// Iterates the entries, least recently used first, without touching
    /// recency order (for observers — supervisors, metrics scrapers — that
    /// must not perturb eviction behavior).
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.entries.iter()
    }

    /// Removes and returns the least recently used entry matching `pred`
    /// (`None` when nothing matches), preserving the recency order of the
    /// survivors. This is the voluntary-eviction entry point: callers
    /// under resource pressure shed the coldest evictable entry instead
    /// of overcommitting.
    pub fn pop_lru(&mut self, pred: impl Fn(&T) -> bool) -> Option<T> {
        let hit = self.entries.iter().position(pred)?;
        Some(self.entries.remove(hit))
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The most recently used entry, if any.
    pub fn last(&self) -> Option<&T> {
        self.entries.last()
    }
}

impl<T> Default for Mru<T> {
    fn default() -> Self {
        Self::new(PLAN_CACHE_CAPACITY)
    }
}

/// Plan-time program builder state.
#[derive(Default)]
struct Compiler {
    buffers: Vec<BufferSpec>,
    plans: Vec<SymbolicProduct>,
    stages: Vec<Stage>,
    spgemm_flops: u64,
    /// How each matrix-fold combine resolves its numeric kernel.
    kernel: KernelMode,
}

impl Compiler {
    fn open_stage(&self, parallel: bool, phase: PhaseKind) -> Stage {
        Stage {
            instrs: Vec::new(),
            parallel,
            flops: 0,
            max_instr_flops: 0,
            instr_flops: Vec::new(),
            blocks: Vec::new(),
            phase,
        }
    }

    fn push_stage(&mut self, stage: Stage) {
        if !stage.instrs.is_empty() {
            self.stages.push(stage);
        }
    }

    fn alloc(&mut self, spec: BufferSpec) -> usize {
        self.buffers.push(spec);
        self.buffers.len() - 1
    }

    /// Simulates `a ⊙ b = b·a` at the pattern level, emitting the numeric
    /// instruction (if any) into `stage` and returning the folded value.
    fn combine(&mut self, stage: &mut Stage, a: &Sim, b: &Sim) -> Sim {
        match (a, b) {
            // Identity short-circuits are resolved now and cost nothing at
            // run time.
            (Sim::Identity, x) | (x, Sim::Identity) => x.clone(),
            // Gradient-vector fold: ⊙ = SpMV through the matrix.
            (Sim::Vec { len, loc: vec_loc }, Sim::Mat { pat, loc: mat_loc }) => {
                assert_eq!(pat.cols(), *len, "plan: spmv dimension mismatch");
                let dst = self.alloc(BufferSpec::Vector(pat.rows()));
                let flops = 2 * pat.nnz() as u64;
                stage.flops += flops;
                stage.max_instr_flops = stage.max_instr_flops.max(flops);
                stage.instr_flops.push(flops);
                stage.instrs.push(Instr::Spmv {
                    mat: *mat_loc,
                    vec: *vec_loc,
                    dst,
                });
                Sim::Vec {
                    len: pat.rows(),
                    loc: Loc::Buf(dst),
                }
            }
            // Matrix fold: a ⊙ b = b·a through a hoisted symbolic product.
            (Sim::Mat { pat: pa, loc: la }, Sim::Mat { pat: pb, loc: lb }) => {
                let product = SymbolicProduct::plan_with_mode(pb, pa, self.kernel);
                let out_pat = Arc::clone(product.out_pattern());
                // Accounting keeps the kernel-independent *structural* FLOPs
                // (the mathematical work); stage pricing uses the FLOPs the
                // resolved kernel actually executes, so fan-out decisions
                // see the dense panel kernel's true cost.
                self.spgemm_flops += product.flops();
                let flops = product.execute_flops();
                stage.flops += flops;
                stage.max_instr_flops = stage.max_instr_flops.max(flops);
                stage.instr_flops.push(flops);
                let plan = self.plans.len();
                self.plans.push(product);
                let dst = self.alloc(BufferSpec::Matrix(Arc::clone(&out_pat)));
                stage.instrs.push(Instr::Spgemm {
                    plan,
                    lhs: *lb,
                    rhs: *la,
                    dst,
                });
                Sim::Mat {
                    pat: out_pat,
                    loc: Loc::Buf(dst),
                }
            }
            (Sim::Mat { .. }, Sim::Vec { .. }) | (Sim::Vec { .. }, Sim::Vec { .. }) => {
                unreachable!("plan: a vector may only appear as the left operand of ⊙")
            }
        }
    }
}

/// Resolves a matrix operand location.
///
/// # Safety
///
/// `bufs` validity and non-aliasing as in `exec_instr`.
unsafe fn resolve_mat<S: Scalar>(
    loc: Loc,
    chain: &JacobianChain<S>,
    bufs: *const WorkBuf<S>,
    bufs_len: usize,
) -> &Csr<S> {
    match loc {
        Loc::Jacobian(i) => match &chain.jacobians()[i] {
            ScanElement::Sparse(m) => m,
            other => unreachable!("planned matrix operand is {other}"),
        },
        Loc::Buf(j) => {
            debug_assert!(j < bufs_len);
            match &*bufs.add(j) {
                WorkBuf::Mat(m) => m,
                WorkBuf::Vec(_) => unreachable!("matrix operand resolves to a vector buffer"),
            }
        }
        Loc::Seed => unreachable!("matrix operand resolves to the seed"),
    }
}

/// Resolves a vector operand location.
///
/// # Safety
///
/// `bufs` validity and non-aliasing as in `exec_instr`.
unsafe fn resolve_vec<S: Scalar>(
    loc: Loc,
    chain: &JacobianChain<S>,
    bufs: *const WorkBuf<S>,
    bufs_len: usize,
) -> &Vector<S> {
    match loc {
        Loc::Seed => chain.seed(),
        Loc::Buf(j) => {
            debug_assert!(j < bufs_len);
            match &*bufs.add(j) {
                WorkBuf::Vec(v) => v,
                WorkBuf::Mat(_) => unreachable!("vector operand resolves to a matrix buffer"),
            }
        }
        Loc::Jacobian(_) => unreachable!("vector operand resolves to a Jacobian"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::{bppsa_backward, linear_backward};
    use bppsa_tensor::init::{seeded_rng, uniform_vector};
    use rand::Rng;

    /// Random sparse chain with ~40% density and varying widths.
    fn sparse_chain(n: usize, seed: u64) -> JacobianChain<f64> {
        let mut rng = seeded_rng(seed);
        let dims: Vec<usize> = (0..=n).map(|i| 3 + (i * 2 + seed as usize) % 4).collect();
        let mut chain = JacobianChain::new(uniform_vector(&mut rng, dims[n], 1.0));
        for i in 0..n {
            let dense = bppsa_tensor::Matrix::from_fn(dims[i], dims[i + 1], |_, _| {
                if rng.random_range(0.0..1.0) < 0.4 {
                    rng.random_range(-1.0..1.0)
                } else {
                    0.0
                }
            });
            chain.push(ScanElement::Sparse(Csr::from_dense(&dense)));
        }
        chain
    }

    #[test]
    fn planned_matches_unplanned_various_lengths() {
        for n in [1usize, 2, 3, 7, 8, 15, 33] {
            let chain = sparse_chain(n, n as u64);
            let plan = PlannedScan::plan(&chain, BppsaOptions::serial());
            let planned = plan.execute(&chain);
            let reference = bppsa_backward(&chain, BppsaOptions::serial());
            let diff = planned.max_abs_diff(&reference);
            assert!(diff < 1e-12, "n={n}: diff {diff}");
        }
    }

    #[test]
    fn planned_hybrid_matches_linear_reference() {
        let chain = sparse_chain(21, 4);
        let reference = linear_backward(&chain);
        for k in 0..5 {
            let plan = PlannedScan::plan(&chain, BppsaOptions::serial().hybrid(k));
            let diff = plan.execute(&chain).max_abs_diff(&reference);
            assert!(diff < 1e-10, "k={k}: diff {diff}");
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_execution() {
        let chain = sparse_chain(17, 23);
        let plan = PlannedScan::plan(&chain, BppsaOptions::serial());
        let mut ws = plan.workspace::<f64>();
        let reference = bppsa_backward(&chain, BppsaOptions::serial());
        for round in 0..4 {
            let out = plan.execute_with(&chain, &mut ws);
            let diff = out.max_abs_diff(&reference);
            assert!(diff < 1e-12, "round {round}: diff {diff}");
        }
    }

    #[test]
    fn workspace_reuse_tracks_value_changes() {
        // The whole point: same patterns, new values, same plan + workspace.
        let chain = sparse_chain(12, 9);
        let plan = PlannedScan::plan(&chain, BppsaOptions::serial());
        let mut ws = plan.workspace::<f64>();
        let _ = plan.execute_with(&chain, &mut ws);
        let mut chain2 = JacobianChain::new(chain.seed().scaled(2.0));
        for jt in chain.jacobians() {
            if let ScanElement::Sparse(m) = jt {
                chain2.push(ScanElement::Sparse(m.map_values(|v| v * 0.5 - 0.1)));
            }
        }
        let planned = plan.execute_with(&chain2, &mut ws).clone();
        let reference = bppsa_backward(&chain2, BppsaOptions::serial());
        assert!(planned.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn pooled_execution_matches_serial() {
        let chain = sparse_chain(40, 11);
        let serial_plan = PlannedScan::plan(&chain, BppsaOptions::serial());
        let pooled_plan = PlannedScan::plan(&chain, BppsaOptions::pooled());
        let diff = serial_plan
            .execute(&chain)
            .max_abs_diff(&pooled_plan.execute(&chain));
        assert!(diff < 1e-12);
    }

    /// The generic program of a plan (these chains are never all-diagonal).
    fn csr_program(plan: &PlannedScan) -> &CsrProgram {
        match &plan.program {
            Program::Csr(p) => p,
            Program::Diagonal(_) => panic!("expected a CSR program"),
        }
    }

    #[test]
    fn plan_accounting_is_consistent() {
        let chain = sparse_chain(15, 13);
        let plan = PlannedScan::plan(&chain, BppsaOptions::serial());
        let schedule = plan.schedule();
        let prog = csr_program(&plan);
        // Up-sweep: exactly one instruction per schedule pair (identities
        // never appear there), and matrix products occur *only* there.
        let up_pairs: usize = schedule.up_levels().iter().map(Vec::len).sum();
        let up_instrs: usize = prog
            .stages
            .iter()
            .filter(|st| matches!(st.phase, PhaseKind::UpSweep))
            .map(|st| st.instrs.len())
            .sum();
        assert_eq!(up_instrs, up_pairs);
        let up_products: usize = prog
            .stages
            .iter()
            .filter(|st| matches!(st.phase, PhaseKind::UpSweep))
            .flat_map(|st| &st.instrs)
            .filter(|i| matches!(i, Instr::Spgemm { .. }))
            .count();
        assert_eq!(up_products, plan.planned_products());
        // Every instruction writes exactly one fresh buffer (SSA).
        let total_instrs: usize = prog.stages.iter().map(|st| st.instrs.len()).sum();
        assert_eq!(total_instrs, prog.buffers.len());
        assert_eq!(total_instrs, plan.planned_products() + plan.planned_spmvs());
        assert!(plan.spgemm_flops() > 0);
        assert_eq!(plan.elementwise_flops(), 0);
        assert!(plan.diagonal_kernel().is_none());
        assert!(plan.workspace_bytes::<f64>() > 0);
        assert!(
            plan.build_time() > Duration::ZERO,
            "symbolic planning must report its wall-clock cost"
        );
    }

    #[test]
    fn diagonal_chain_takes_the_fast_path_and_matches_generic() {
        use crate::diagonal::DiagonalMode;
        let mut rng = seeded_rng(77);
        for n in [1usize, 2, 3, 7, 8, 31, 64] {
            let w = 5;
            let mut chain = JacobianChain::new(uniform_vector(&mut rng, w, 1.0));
            for _ in 0..n {
                let diag: Vec<f64> = (0..w).map(|_| rng.random_range(-1.5..1.5)).collect();
                chain.push(ScanElement::Sparse(Csr::from_diagonal(&diag)));
            }
            let fast = PlannedScan::plan(&chain, BppsaOptions::serial());
            assert_eq!(
                fast.diagonal_kernel(),
                Some(crate::diagonal::DiagonalKernel::Linear),
                "n={n}"
            );
            assert_eq!(fast.planned_products(), 0);
            assert!(fast.elementwise_flops() > 0);
            let generic = PlannedScan::plan(
                &chain,
                BppsaOptions::serial().diagonal(DiagonalMode::Disabled),
            );
            assert!(generic.diagonal_kernel().is_none());
            let diff = fast
                .execute(&chain)
                .max_abs_diff(&generic.execute(&chain))
                .abs();
            assert_eq!(diff, 0.0, "n={n}: diagonal kernel must be bit-for-bit");
        }
    }

    #[test]
    fn mru_extract_removes_matching_entries_preserving_order() {
        let mut mru: Mru<u32> = Mru::new(4);
        for v in [1u32, 2, 3, 4] {
            let _ = mru.find_or_insert_with(|e| *e == v, || v);
        }
        let removed = mru.extract(|v| v % 2 == 0);
        assert_eq!(removed, vec![2, 4], "matching entries, LRU order");
        assert_eq!(mru.len(), 2);
        assert_eq!(mru.drain().collect::<Vec<_>>(), vec![1, 3]);

        let mut empty: Mru<u32> = Mru::new(2);
        assert!(empty.extract(|_| true).is_empty());
    }

    #[test]
    #[should_panic(expected = "all-CSR")]
    fn dense_chain_is_rejected() {
        let mut chain = JacobianChain::new(Vector::<f64>::zeros(2));
        chain.push(ScanElement::Dense(bppsa_tensor::Matrix::identity(2)));
        let _ = PlannedScan::plan(&chain, BppsaOptions::serial());
    }

    #[test]
    #[should_panic(expected = "does not match the plan")]
    fn wrong_length_chain_is_rejected() {
        let chain = sparse_chain(8, 17);
        let plan = PlannedScan::plan(&chain, BppsaOptions::serial());
        let other = sparse_chain(9, 18);
        let _ = plan.execute(&other);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pattern does not match the plan")]
    fn wrong_pattern_same_shape_chain_is_rejected_in_debug() {
        // Same shapes, different sparsity pattern: the shape-only check of
        // the old `pattern_matches` used to accept this silently.
        let mut chain = JacobianChain::new(Vector::from_vec(vec![1.0f64, 2.0]));
        chain.push(ScanElement::Sparse(Csr::from_dense(
            &bppsa_tensor::Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]),
        )));
        let plan = PlannedScan::plan(&chain, BppsaOptions::serial());
        let mut other = JacobianChain::new(Vector::from_vec(vec![1.0f64, 2.0]));
        other.push(ScanElement::Sparse(Csr::from_dense(
            &bppsa_tensor::Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]),
        )));
        let _ = plan.execute(&other);
    }

    #[test]
    #[should_panic(expected = "different plan")]
    fn workspace_from_another_plan_is_rejected() {
        let chain = sparse_chain(6, 31);
        let plan_a = PlannedScan::plan(&chain, BppsaOptions::serial());
        let plan_b = PlannedScan::plan(&chain, BppsaOptions::serial());
        let mut ws = plan_b.workspace::<f64>();
        let _ = plan_a.execute_with(&chain, &mut ws);
    }

    #[test]
    fn segmented_serial_is_bit_identical_to_unsegmented() {
        for (n, up, k) in [
            (40usize, 3usize, 2usize),
            (40, 3, 4),
            (64, 2, 4),
            (33, 0, 3),
        ] {
            let chain = sparse_chain(n, n as u64 + 7);
            let base = BppsaOptions::serial().hybrid(up);
            let seg_plan = PlannedScan::plan(&chain, base.segmented(k));
            let ref_plan = PlannedScan::plan(&chain, base);
            assert!(
                seg_plan.segments() >= 2,
                "n={n} up={up} k={k}: expected a real segmentation"
            );
            let diff = seg_plan
                .execute(&chain)
                .max_abs_diff(&ref_plan.execute(&chain));
            assert_eq!(diff, 0.0, "n={n} up={up} k={k}: must be bit-for-bit");
        }
    }

    #[test]
    fn segmented_pooled_is_bit_identical_to_unsegmented_serial() {
        for k in [2usize, 4] {
            let chain = sparse_chain(48, 91);
            let base = BppsaOptions::serial().hybrid(3);
            let seg = PlannedScan::plan(&chain, BppsaOptions::pooled().hybrid(3).segmented(k));
            let reference = PlannedScan::plan(&chain, base);
            let mut ws = seg.workspace::<f64>();
            for round in 0..3 {
                let diff = seg
                    .execute_with(&chain, &mut ws)
                    .max_abs_diff(&reference.execute(&chain));
                assert_eq!(diff, 0.0, "k={k} round={round}: must be bit-for-bit");
            }
        }
    }

    #[test]
    fn segmentation_structure_is_consistent() {
        let chain = sparse_chain(64, 5);
        let plan = PlannedScan::plan(&chain, BppsaOptions::serial().hybrid(3).segmented(4));
        let seg = plan.segmentation().expect("segmented");
        let num_blocks = plan.schedule().block_roots().len();
        assert_eq!(seg.segments(), 4);
        assert_eq!(seg.interface_widths().len(), 3);
        // Block ranges are contiguous, disjoint, non-empty, and cover.
        let blocks = seg.segment_blocks();
        assert_eq!(blocks.first().unwrap().start, 0);
        assert_eq!(blocks.last().unwrap().end, num_blocks);
        for w in blocks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert!(!w[0].is_empty() && !w[1].is_empty());
        }
        // The slices partition every up/down stage's instruction list.
        let prog = csr_program(&plan);
        for (s, st) in prog.stages.iter().enumerate() {
            assert_eq!(st.blocks.len(), st.instrs.len(), "stage {s}");
            assert_eq!(st.instr_flops.len(), st.instrs.len(), "stage {s}");
            assert!(st.blocks.windows(2).all(|w| w[0] <= w[1]), "stage {s}");
            let sliced: usize = match st.phase {
                PhaseKind::Middle => continue,
                PhaseKind::UpSweep => &seg.up,
                PhaseKind::DownSweep => &seg.down,
            }
            .iter()
            .flatten()
            .filter(|sl| sl.stage == s)
            .map(|sl| sl.hi - sl.lo)
            .sum();
            assert_eq!(sliced, st.instrs.len(), "stage {s} not fully sliced");
        }
    }

    #[test]
    fn segmentation_derives_a_hybrid_schedule_when_unspecified() {
        let chain = sparse_chain(64, 3);
        let opts = BppsaOptions::serial().segmented(4);
        let plan = PlannedScan::plan(&chain, opts);
        let derived = opts.segmented_up_levels(65);
        assert_eq!(
            *plan.schedule(),
            bppsa_scan::ScanSchedule::with_up_levels(65, derived)
        );
        assert!(
            plan.schedule().block_roots().len() >= 16,
            "need ≥ 4 blocks per segment, got {}",
            plan.schedule().block_roots().len()
        );
        assert_eq!(plan.segments(), 4);
        // The equivalent unsegmented reference pins the same depth.
        let reference = PlannedScan::plan(&chain, BppsaOptions::serial().hybrid(derived));
        let diff = plan
            .execute(&chain)
            .max_abs_diff(&reference.execute(&chain));
        assert_eq!(diff, 0.0);
    }

    #[test]
    fn segmentation_clamps_to_available_blocks() {
        // An over-deep hybrid clamps to the 2-block ceiling of
        // `with_up_levels` (`ceil_log2(len) − 1`), so a 4-segment request
        // clamps down to 2 segments — and stays exact.
        let chain = sparse_chain(16, 41);
        let plan = PlannedScan::plan(&chain, BppsaOptions::serial().hybrid(64).segmented(4));
        let num_blocks = plan.schedule().block_roots().len();
        assert_eq!(num_blocks, 2);
        assert_eq!(plan.segments(), 2);
        let reference = PlannedScan::plan(&chain, BppsaOptions::serial().hybrid(64));
        let diff = plan
            .execute(&chain)
            .max_abs_diff(&reference.execute(&chain));
        assert_eq!(diff, 0.0);

        // More segments than blocks: clamp to the block count, still exact.
        let plan = PlannedScan::plan(&chain, BppsaOptions::serial().hybrid(2).segmented(64));
        let num_blocks = plan.schedule().block_roots().len();
        assert_eq!(plan.segments(), num_blocks.min(64));
        let reference = PlannedScan::plan(&chain, BppsaOptions::serial().hybrid(2));
        let diff = plan
            .execute(&chain)
            .max_abs_diff(&reference.execute(&chain));
        assert_eq!(diff, 0.0);

        // Diagonal programs never segment (the fast path fans out
        // width-wise already).
        let mut diag = JacobianChain::new(Vector::from_vec(vec![1.0f64, 2.0]));
        for _ in 0..8 {
            diag.push(ScanElement::Sparse(Csr::from_diagonal(&[0.5, -0.25])));
        }
        let plan = PlannedScan::plan(&diag, BppsaOptions::serial().segmented(4));
        assert_eq!(plan.plan_kind(), PlanKind::Diagonal);
        assert_eq!(plan.segments(), 1);
    }

    #[test]
    fn degenerate_lengths_survive_segmentation() {
        // len=1 and len=2 scans (0 or 1 combines) are routine short tails
        // for the stitcher; every executor × segment request must agree.
        for n in [1usize, 2] {
            let chain = sparse_chain(n, 100 + n as u64);
            let reference = bppsa_backward(&chain, BppsaOptions::serial());
            for k in [1usize, 2, 4, 64] {
                for opts in [
                    BppsaOptions::serial().segmented(k),
                    BppsaOptions::pooled().segmented(k),
                    BppsaOptions::serial().hybrid(0).segmented(k),
                ] {
                    let plan = PlannedScan::plan(&chain, opts);
                    let diff = plan.execute(&chain).max_abs_diff(&reference);
                    assert!(diff < 1e-12, "n={n} k={k}: diff {diff}");
                }
            }
        }
    }

    #[test]
    fn segmented_workspace_is_single_lane() {
        let chain = sparse_chain(48, 77);
        let seg = PlannedScan::plan(&chain, BppsaOptions::pooled().hybrid(3).segmented(2));
        let unseg = PlannedScan::plan(&chain, BppsaOptions::pooled().hybrid(3));
        // Segments never row-parallelize a combine, so the segmented
        // workspace must not pay for per-lane scratch accumulators.
        assert!(seg.workspace_bytes::<f64>() <= unseg.workspace_bytes::<f64>());
        assert_eq!(seg.scratch_lanes(), 1);
    }

    #[test]
    fn single_layer_chain_returns_seed() {
        let mut chain = JacobianChain::new(Vector::from_vec(vec![2.0f64, -1.0]));
        chain.push(ScanElement::Sparse(Csr::from_diagonal(&[3.0, 4.0])));
        let plan = PlannedScan::plan(&chain, BppsaOptions::serial());
        let mut ws = plan.workspace::<f64>();
        let out = plan.execute_with(&chain, &mut ws);
        assert_eq!(out.grads().len(), 1);
        assert_eq!(out.grad_x(1).as_slice(), &[2.0, -1.0]);
    }
}
