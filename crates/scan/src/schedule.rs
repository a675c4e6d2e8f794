//! Level-synchronous schedules for the (modified, possibly truncated)
//! Blelloch scan.
//!
//! A [`ScanSchedule`] is a pure description of *which index pairs are
//! combined at which level* — independent of the element type, the operator,
//! and the execution substrate. The same schedule is consumed by:
//!
//! * the in-process executors ([`crate::execute_in_place`]), serially or with
//!   a thread per chunk of pairs (one CUDA-kernel launch per level in the
//!   paper's implementation);
//! * the PRAM simulator (`bppsa-pram`), which prices each level against a
//!   device profile;
//! * the FLOP analyzer (`bppsa-core`), which reproduces Figure 11.
//!
//! `with_up_levels(len, k)` generalizes Algorithm 1 into the paper's §5.2
//! hybrid: up-sweep levels `0..k`, a serial exclusive scan across the block
//! roots, then down-sweep levels `k-1..0`. `k = 0` degenerates to the linear
//! scan; `k = ⌈log₂ len⌉ − 1` is exactly Algorithm 1 (its `a[n] ← I` line and
//! top down-sweep level are the two-block middle scan).

use std::fmt;

/// One combine in a level: `a[r] ← a[l] ⊕ a[r]` during the up-sweep,
/// `t ← a[l]; a[l] ← a[r]; a[r] ← a[r] ⊕ t` during the down-sweep
/// (the paper's reversed-operand modification on line 13 of Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pair {
    /// Left index (the earlier segment's fold).
    pub l: usize,
    /// Right index (updated in place).
    pub r: usize,
}

/// Which phase of the scan a level belongs to (for cost accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// An up-sweep level: pairs run in parallel, matrix–matrix heavy.
    UpSweep,
    /// The serial exclusive scan over block roots (length = #blocks).
    Middle,
    /// A down-sweep level: pairs run in parallel.
    DownSweep,
}

/// Cost-accounting view of one step group of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseInfo {
    /// The phase this group belongs to.
    pub kind: PhaseKind,
    /// Level index within its sweep (`0` for the middle phase).
    pub level: usize,
    /// Number of combines in the group.
    pub ops: usize,
    /// Whether the combines may run concurrently (`false` only for Middle).
    pub parallel: bool,
}

/// A complete level-synchronous schedule for an exclusive scan over `len`
/// elements.
///
/// # Examples
///
/// ```
/// use bppsa_scan::ScanSchedule;
///
/// let s = ScanSchedule::full(8);
/// assert_eq!(s.len(), 8);
/// // Blelloch on 8 elements: up levels d=0,1 then a 2-block middle scan
/// // then down levels d=1,0.
/// assert_eq!(s.up_levels().len(), 2);
/// assert_eq!(s.down_levels().len(), 2);
/// assert_eq!(s.block_roots().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanSchedule {
    len: usize,
    up_levels: Vec<Vec<Pair>>,
    block_roots: Vec<usize>,
    down_levels: Vec<Vec<Pair>>,
}

/// `⌈log₂ m⌉` with the convention `ceil_log2(0) = ceil_log2(1) = 0`.
pub fn ceil_log2(m: usize) -> u32 {
    if m <= 1 {
        0
    } else {
        usize::BITS - (m - 1).leading_zeros()
    }
}

fn level_pairs(n: usize, d: u32) -> Vec<Pair> {
    // Algorithm 1: for all i ← 0 to (n − 2^d) by 2^(d+1).
    let step = 1usize << (d + 1);
    let half = 1usize << d;
    let mut pairs = Vec::new();
    if half > n {
        return pairs;
    }
    let mut i = 0usize;
    while i <= n - half {
        pairs.push(Pair {
            l: i + half - 1,
            r: (i + step - 1).min(n),
        });
        i += step;
    }
    pairs
}

impl ScanSchedule {
    /// The full modified Blelloch schedule of Algorithm 1: up-sweep levels
    /// `0..⌈log₂ len⌉ − 1`, then the two-block middle (equivalent to the
    /// paper's `a[n] ← I` plus top down-sweep level), then the remaining
    /// down-sweep levels.
    pub fn full(len: usize) -> Self {
        Self::with_up_levels(len, (ceil_log2(len).saturating_sub(1)) as usize)
    }

    /// The degenerate schedule with no tree levels: a pure serial exclusive
    /// scan (the paper's "linear scan" baseline, same step count as BP).
    pub fn linear(len: usize) -> Self {
        Self::with_up_levels(len, 0)
    }

    /// The §5.2 hybrid: up-sweep levels `0..k`, serial scan over the
    /// `⌈len / 2^k⌉` block roots, down-sweep levels `k-1..0`.
    ///
    /// `k` is clamped to `⌈log₂ len⌉ − 1` (larger `k` only adds a wasted
    /// total-aggregate combine that the exclusive scan overwrites).
    pub fn with_up_levels(len: usize, k: usize) -> Self {
        if len == 0 {
            return Self {
                len,
                up_levels: Vec::new(),
                block_roots: Vec::new(),
                down_levels: Vec::new(),
            };
        }
        let n = len - 1;
        let k = k.min(ceil_log2(len).saturating_sub(1) as usize) as u32;

        let up_levels: Vec<Vec<Pair>> = (0..k).map(|d| level_pairs(n, d)).collect();

        let block = 1usize << k;
        let num_blocks = len.div_ceil(block);
        let block_roots: Vec<usize> = (0..num_blocks)
            .map(|b| ((b + 1) * block - 1).min(n))
            .collect();

        let down_levels: Vec<Vec<Pair>> = (0..k).rev().map(|d| level_pairs(n, d)).collect();

        Self {
            len,
            up_levels,
            block_roots,
            down_levels,
        }
    }

    /// Number of elements the schedule scans.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the schedule is for an empty array.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Up-sweep levels in execution order (`d = 0, 1, …`).
    pub fn up_levels(&self) -> &[Vec<Pair>] {
        &self.up_levels
    }

    /// Positions holding block folds after the up-sweep, in ascending order.
    pub fn block_roots(&self) -> &[usize] {
        &self.block_roots
    }

    /// The index of the up-sweep block containing scan position `pos`
    /// (blocks are the `2^k`-sized tiles whose roots are
    /// [`ScanSchedule::block_roots`]; block `b` covers the positions up to
    /// and including `block_roots[b]`).
    ///
    /// Every up- and down-sweep pair of the schedule has both of its
    /// positions inside a single block — cross-block dataflow happens only
    /// through the serial middle scan. That containment (pinned by the
    /// `pairs_never_cross_block_boundaries` test) is what lets a segmented
    /// executor run disjoint block ranges concurrently and still be
    /// bit-for-bit with the sequential order.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len` (such a position is on no block).
    pub fn block_of(&self, pos: usize) -> usize {
        assert!(pos < self.len, "block_of: position {pos} out of range");
        self.block_roots.partition_point(|&r| r < pos)
    }

    /// Down-sweep levels in execution order (`d = k−1, …, 0`).
    pub fn down_levels(&self) -> &[Vec<Pair>] {
        &self.down_levels
    }

    /// Total number of `⊕` combines the schedule performs (work complexity;
    /// the paper's `W_Blelloch(n) = Θ(n)`, Equation 7).
    pub fn combine_count(&self) -> usize {
        let tree: usize = self
            .up_levels
            .iter()
            .chain(&self.down_levels)
            .map(Vec::len)
            .sum();
        // The middle serial scan folds each block root into the running
        // prefix once.
        tree + self.block_roots.len()
    }

    /// Number of dependent steps on the critical path assuming unbounded
    /// parallel workers: one per tree level plus the serial middle (the
    /// paper's `S_Blelloch(n) = Θ(log n)`, Equation 6, when `k` is maximal).
    pub fn step_count(&self) -> usize {
        self.up_levels.len() + self.block_roots.len() + self.down_levels.len()
    }

    /// Flattened cost-accounting view: one entry per level, plus the middle.
    pub fn phases(&self) -> Vec<PhaseInfo> {
        let mut phases = Vec::with_capacity(self.up_levels.len() + 1 + self.down_levels.len());
        for (d, level) in self.up_levels.iter().enumerate() {
            phases.push(PhaseInfo {
                kind: PhaseKind::UpSweep,
                level: d,
                ops: level.len(),
                parallel: true,
            });
        }
        phases.push(PhaseInfo {
            kind: PhaseKind::Middle,
            level: 0,
            ops: self.block_roots.len(),
            parallel: false,
        });
        let k = self.down_levels.len();
        for (idx, level) in self.down_levels.iter().enumerate() {
            phases.push(PhaseInfo {
                kind: PhaseKind::DownSweep,
                level: k - 1 - idx,
                ops: level.len(),
                parallel: true,
            });
        }
        phases
    }

    /// Verifies that every level touches each array index at most once —
    /// the disjointness invariant the pooled executor's safety relies on.
    pub fn assert_levels_disjoint(&self) {
        for level in self.up_levels.iter().chain(&self.down_levels) {
            let mut seen = std::collections::HashSet::new();
            for p in level {
                assert!(p.l < self.len && p.r < self.len, "pair out of range");
                assert!(p.l < p.r, "pair must have l < r");
                assert!(seen.insert(p.l), "index {} repeated in level", p.l);
                assert!(seen.insert(p.r), "index {} repeated in level", p.r);
            }
        }
    }
}

impl fmt::Display for ScanSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ScanSchedule(len={}, up_levels={}, blocks={}, down_levels={}, combines={})",
            self.len,
            self.up_levels.len(),
            self.block_roots.len(),
            self.down_levels.len(),
            self.combine_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn full_schedule_power_of_two() {
        let s = ScanSchedule::full(8);
        // Up: d=0 → 4 pairs, d=1 → 2 pairs. Middle: 2 blocks. Down: d=1,0.
        assert_eq!(s.up_levels().len(), 2);
        assert_eq!(s.up_levels()[0].len(), 4);
        assert_eq!(s.up_levels()[1].len(), 2);
        assert_eq!(s.block_roots(), &[3, 7]);
        assert_eq!(s.down_levels().len(), 2);
        assert_eq!(s.down_levels()[0].len(), 2); // d=1
        assert_eq!(s.down_levels()[1].len(), 4); // d=0
        s.assert_levels_disjoint();
    }

    #[test]
    fn full_schedule_matches_algorithm1_pairs_m4() {
        // Hand-traced in the design: m=4 up-sweep d=0 has (0,1), (2,3).
        let s = ScanSchedule::full(4);
        assert_eq!(
            s.up_levels()[0],
            vec![Pair { l: 0, r: 1 }, Pair { l: 2, r: 3 }]
        );
        assert_eq!(s.block_roots(), &[1, 3]);
        assert_eq!(
            s.down_levels()[0],
            vec![Pair { l: 0, r: 1 }, Pair { l: 2, r: 3 }]
        );
    }

    #[test]
    fn clamped_pair_accumulates_partial_block() {
        // m=7, k=2: the level-1 pair (5, min(7,6)=6) folds the partial block.
        let s = ScanSchedule::with_up_levels(7, 2);
        assert!(s.up_levels()[1].contains(&Pair { l: 5, r: 6 }));
        assert_eq!(s.block_roots(), &[3, 6]);
        s.assert_levels_disjoint();
    }

    #[test]
    fn linear_schedule_is_pure_middle() {
        let s = ScanSchedule::linear(10);
        assert!(s.up_levels().is_empty());
        assert!(s.down_levels().is_empty());
        assert_eq!(s.block_roots().len(), 10);
        assert_eq!(s.combine_count(), 10);
        assert_eq!(s.step_count(), 10);
    }

    #[test]
    fn oversized_k_is_clamped_to_full() {
        assert_eq!(ScanSchedule::with_up_levels(16, 99), ScanSchedule::full(16));
    }

    #[test]
    fn empty_and_singleton_schedules() {
        let e = ScanSchedule::full(0);
        assert!(e.is_empty());
        assert_eq!(e.combine_count(), 0);
        let s = ScanSchedule::full(1);
        assert_eq!(s.block_roots(), &[0]);
        assert_eq!(s.combine_count(), 1);
    }

    #[test]
    fn work_complexity_is_linear() {
        // Equation 7: W_Blelloch(n) = Θ(n). For power-of-two m the exact
        // count is 2(m-1) - m/2 + ... — just check 1x-3x bounds.
        for m in [16usize, 64, 256, 1024] {
            let s = ScanSchedule::full(m);
            let w = s.combine_count();
            assert!(w >= m - 1, "work {w} too small for m={m}");
            assert!(w <= 2 * m, "work {w} too large for m={m}");
        }
    }

    #[test]
    fn step_complexity_is_logarithmic_for_full() {
        // Equation 6: S_Blelloch = Θ(log n) — up + down levels ≈ 2 log m,
        // middle contributes the 2-block serial scan.
        let s = ScanSchedule::full(1 << 12);
        assert_eq!(s.up_levels().len(), 11);
        assert_eq!(s.down_levels().len(), 11);
        assert_eq!(s.step_count(), 11 + 2 + 11);
    }

    #[test]
    fn phases_cover_all_combines() {
        for len in [1usize, 2, 3, 5, 8, 13, 21, 64] {
            for k in 0..8 {
                let s = ScanSchedule::with_up_levels(len, k);
                let total: usize = s.phases().iter().map(|p| p.ops).sum();
                assert_eq!(total, s.combine_count(), "len={len} k={k}");
            }
        }
    }

    #[test]
    fn all_levels_disjoint_across_sizes() {
        for len in 0..130 {
            for k in 0..9 {
                ScanSchedule::with_up_levels(len, k).assert_levels_disjoint();
            }
        }
    }

    #[test]
    fn display_mentions_len() {
        assert!(format!("{}", ScanSchedule::full(8)).contains("len=8"));
    }

    #[test]
    fn pairs_never_cross_block_boundaries() {
        // The segmentation exactness invariant: every up/down pair lies
        // entirely within one 2^k block, so partitioning the instruction
        // stream at block boundaries reorders only independent work. The
        // `.min(n)` clamp in level_pairs stays inside the last block.
        for len in 1..130usize {
            for k in 0..9 {
                let s = ScanSchedule::with_up_levels(len, k);
                for level in s.up_levels().iter().chain(s.down_levels()) {
                    for p in level {
                        assert_eq!(
                            s.block_of(p.l),
                            s.block_of(p.r),
                            "len={len} k={k} pair {p:?} crosses blocks"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_of_matches_roots() {
        let s = ScanSchedule::with_up_levels(11, 2); // blocks of 4: roots 3,7,10
        assert_eq!(s.block_roots(), &[3, 7, 10]);
        for (pos, want) in [(0, 0), (3, 0), (4, 1), (7, 1), (8, 2), (10, 2)] {
            assert_eq!(s.block_of(pos), want, "pos={pos}");
        }
    }

    #[test]
    fn degenerate_lengths_are_pure_linear() {
        // len=1: ceil_log2(1)=0 → k clamps to 0 whatever was asked; one
        // block root at position 0 and no tree levels.
        for k in [0usize, 1, 4, 64] {
            let s = ScanSchedule::with_up_levels(1, k);
            assert!(s.up_levels().is_empty() && s.down_levels().is_empty());
            assert_eq!(s.block_roots(), &[0]);
            assert_eq!(s.combine_count(), 1);
            assert_eq!(s.block_of(0), 0);
        }
        // len=2: ceil_log2(2)−1 = 0 clamps every k to 0, so even "full" is
        // the two-root linear middle with no tree levels.
        for k in [0usize, 1, 4, 64] {
            let s = ScanSchedule::with_up_levels(2, k);
            assert!(s.up_levels().is_empty() && s.down_levels().is_empty());
            assert_eq!(s.block_roots(), &[0, 1]);
            assert_eq!(s.combine_count(), 2);
        }
        assert_eq!(ScanSchedule::full(2), ScanSchedule::linear(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_of_past_len_panics() {
        let _ = ScanSchedule::full(4).block_of(4);
    }
}
