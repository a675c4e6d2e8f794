//! Property-based tests: every schedule × executor combination must agree
//! with the serial left-fold oracle, for commutative and non-commutative
//! operators alike.

use bppsa_scan::{
    execute_in_place, hillis_steele_exclusive, hillis_steele_inclusive, serial_exclusive_scan,
    serial_inclusive_scan, Executor, ScanOp, ScanSchedule,
};
use proptest::prelude::*;

struct Concat;
impl ScanOp<String> for Concat {
    fn combine(&self, a: &String, b: &String) -> String {
        format!("{a}{b}")
    }
    fn identity(&self) -> String {
        String::new()
    }
}

struct Affine;
impl ScanOp<(i64, i64)> for Affine {
    fn combine(&self, f: &(i64, i64), g: &(i64, i64)) -> (i64, i64) {
        (
            g.0.wrapping_mul(f.0),
            g.0.wrapping_mul(f.1).wrapping_add(g.1),
        )
    }
    fn identity(&self) -> (i64, i64) {
        (1, 0)
    }
}

/// Wrapping 2×2 integer matrices under multiplication: associative,
/// non-commutative, exact — a miniature of BPPSA's Jacobian elements.
#[derive(Debug, Clone, PartialEq)]
struct M2([i64; 4]);
struct MatMul;
impl ScanOp<M2> for MatMul {
    fn combine(&self, a: &M2, b: &M2) -> M2 {
        let (x, y) = (&a.0, &b.0);
        M2([
            x[0].wrapping_mul(y[0])
                .wrapping_add(x[1].wrapping_mul(y[2])),
            x[0].wrapping_mul(y[1])
                .wrapping_add(x[1].wrapping_mul(y[3])),
            x[2].wrapping_mul(y[0])
                .wrapping_add(x[3].wrapping_mul(y[2])),
            x[2].wrapping_mul(y[1])
                .wrapping_add(x[3].wrapping_mul(y[3])),
        ])
    }
    fn identity(&self) -> M2 {
        M2([1, 0, 0, 1])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn full_blelloch_equals_oracle_strings(items in proptest::collection::vec("[a-c]{0,2}", 0..70)) {
        let items: Vec<String> = items;
        let expect = serial_exclusive_scan(&Concat, &items);
        let mut a = items.clone();
        execute_in_place(&ScanSchedule::full(items.len()), &Concat, &mut a, Executor::Serial);
        prop_assert_eq!(a, expect);
    }

    #[test]
    fn hybrid_equals_oracle_affine(
        items in proptest::collection::vec((-9i64..9, -9i64..9), 0..70),
        k in 0usize..8,
    ) {
        let expect = serial_exclusive_scan(&Affine, &items);
        let mut a = items.clone();
        let schedule = ScanSchedule::with_up_levels(items.len(), k);
        execute_in_place(&schedule, &Affine, &mut a, Executor::Serial);
        prop_assert_eq!(a, expect);
    }

    #[test]
    fn threaded_equals_oracle_matrices(
        items in proptest::collection::vec(
            proptest::array::uniform4(-5i64..5).prop_map(M2), 0..60),
    ) {
        let expect = serial_exclusive_scan(&MatMul, &items);
        let mut a = items.clone();
        execute_in_place(
            &ScanSchedule::full(items.len()),
            &MatMul,
            &mut a,
            Executor::Pooled,
        );
        prop_assert_eq!(a, expect);
    }

    #[test]
    fn hillis_steele_equals_oracles(items in proptest::collection::vec("[a-c]{0,2}", 0..50)) {
        let items: Vec<String> = items;
        let mut inc = items.clone();
        hillis_steele_inclusive(&Concat, &mut inc);
        prop_assert_eq!(inc, serial_inclusive_scan(&Concat, &items));

        let mut exc = items.clone();
        hillis_steele_exclusive(&Concat, &mut exc);
        prop_assert_eq!(exc, serial_exclusive_scan(&Concat, &items));
    }

    #[test]
    fn schedule_invariants_hold(len in 0usize..200, k in 0usize..10) {
        let s = ScanSchedule::with_up_levels(len, k);
        s.assert_levels_disjoint();
        if len > 0 {
            // Combine count is linear in len for any cutoff: W = Θ(n), Eq. 7.
            prop_assert!(s.combine_count() <= 2 * len);
            prop_assert!(s.combine_count() + 1 >= len);
            // Block roots are strictly ascending and end at n.
            let roots = s.block_roots();
            prop_assert!(roots.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(*roots.last().unwrap(), len - 1);
        }
    }

    #[test]
    fn exclusive_scan_prefix_property(
        items in proptest::collection::vec((-9i64..9, -9i64..9), 1..50),
    ) {
        // output[i+1] == combine(output[i], items[i]) — the defining relation.
        let out = serial_exclusive_scan(&Affine, &items);
        for i in 0..items.len() - 1 {
            prop_assert_eq!(out[i + 1], Affine.combine(&out[i], &items[i]));
        }
        prop_assert_eq!(out[0], Affine.identity());
    }
}
