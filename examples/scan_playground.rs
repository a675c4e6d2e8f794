//! The scan framework on its own: exclusive scans with commutative and
//! non-commutative operators, full/hybrid/linear schedules, and the
//! work/step counts behind the paper's Equations 6–7.
//!
//! Run: `cargo run --example scan_playground`

use bppsa::prelude::*;
use bppsa::scan::{hillis_steele_steps, hillis_steele_work};

/// Affine-map composition — associative, non-commutative (like ⊙).
struct Compose;
impl ScanOp<(f64, f64)> for Compose {
    fn combine(&self, f: &(f64, f64), g: &(f64, f64)) -> (f64, f64) {
        (g.0 * f.0, g.0 * f.1 + g.1)
    }
    fn identity(&self) -> (f64, f64) {
        (1.0, 0.0)
    }
}

fn main() {
    // Exclusive prefix sums, the classic.
    struct Add;
    impl ScanOp<i64> for Add {
        fn combine(&self, a: &i64, b: &i64) -> i64 {
            a + b
        }
        fn identity(&self) -> i64 {
            0
        }
    }
    let mut xs: Vec<i64> = (1..=8).collect();
    execute_in_place(&ScanSchedule::full(8), &Add, &mut xs, Executor::Serial);
    println!("exclusive prefix sums of 1..=8: {xs:?}");

    // Non-commutative: composing affine maps x ↦ a·x + b in order.
    let maps = vec![(2.0, 1.0), (0.5, 0.0), (1.0, -3.0), (3.0, 2.0)];
    let serial = serial_exclusive_scan(&Compose, &maps);
    let mut parallel = maps.clone();
    execute_in_place(
        &ScanSchedule::full(4),
        &Compose,
        &mut parallel,
        Executor::Pooled,
    );
    assert_eq!(serial, parallel);
    println!("affine-map prefix compositions: {parallel:?}");

    // Work/step complexity across schedules (Equations 6 and 7).
    println!("\nn = 1024 elements:");
    for (name, schedule) in [
        ("linear scan   ", ScanSchedule::linear(1024)),
        ("hybrid (k = 5)", ScanSchedule::with_up_levels(1024, 5)),
        ("full Blelloch ", ScanSchedule::full(1024)),
    ] {
        println!(
            "  {name}: {:4} combines (work), {:4} steps (critical path)",
            schedule.combine_count(),
            schedule.step_count()
        );
    }
    println!(
        "  Hillis–Steele : {:4} combines (work), {:4} steps — step-optimal but Θ(n log n) work",
        hillis_steele_work(1024),
        hillis_steele_steps(1024)
    );
    println!("\nthe paper picks Blelloch: Θ(n) work like BP itself, Θ(log n) steps.");
}
