//! **Figure 10 (a–d)**: backward and overall speedups of BPPSA over the
//! baseline as functions of sequence length `T` (a, b) and batch size `B`
//! (c, d), on the RTX 2070 and RTX 2080 Ti PRAM profiles.
//!
//! Run: `cargo run -p bppsa-bench --bin fig10_sweeps --release`
//!
//! A real-execution CPU validation sweep is included: it executes the actual
//! scan serially and on the persistent worker pool on two small workloads
//! and checks whether the workers shorten the backward pass (the mechanism
//! behind the figure).

use bppsa_bench::write_csv;
use bppsa_core::{bppsa_backward, BppsaOptions};
use bppsa_pram::{simulate_speedups, DeviceProfile, RnnWorkload};
use bppsa_tensor::init::seeded_rng;
use std::time::Instant;

const T_SWEEP: [usize; 8] = [10, 30, 100, 300, 1000, 3000, 10000, 30000];
const B_SWEEP: [usize; 8] = [256, 128, 64, 32, 16, 8, 4, 2];

fn main() {
    let devices = [DeviceProfile::rtx_2070(), DeviceProfile::rtx_2080ti()];
    let mut rows = Vec::new();

    println!("Figure 10a/10b — speedup vs sequence length T (B = 16)");
    println!(
        "{:>8}  {:>16} {:>10}  {:>16} {:>10}",
        "T", "2070 bwd", "overall", "2080Ti bwd", "overall"
    );
    for &t in &T_SWEEP {
        let w = RnnWorkload {
            seq_len: t,
            batch: 16,
            hidden: 20,
        };
        let s: Vec<_> = devices.iter().map(|d| simulate_speedups(&w, d)).collect();
        println!(
            "{:>8}  {:>15.2}x {:>9.2}x  {:>15.2}x {:>9.2}x",
            t, s[0].backward, s[0].overall, s[1].backward, s[1].overall
        );
        for (d, sp) in devices.iter().zip(&s) {
            rows.push(vec![
                "T".into(),
                d.name.clone(),
                t.to_string(),
                "16".into(),
                format!("{:.4}", sp.backward),
                format!("{:.4}", sp.overall),
            ]);
        }
    }
    println!("paper: rises while T is comparable to p, then bounded by p;");
    println!("       2070 peaks ≈4.5–5.5x bwd / ≈2.2x overall; 2080Ti higher and later.\n");

    println!("Figure 10c/10d — speedup vs batch size B (T = 1000)");
    println!(
        "{:>8}  {:>16} {:>10}  {:>16} {:>10}",
        "B", "2070 bwd", "overall", "2080Ti bwd", "overall"
    );
    for &b in &B_SWEEP {
        let w = RnnWorkload {
            seq_len: 1000,
            batch: b,
            hidden: 20,
        };
        let s: Vec<_> = devices.iter().map(|d| simulate_speedups(&w, d)).collect();
        println!(
            "{:>8}  {:>15.2}x {:>9.2}x  {:>15.2}x {:>9.2}x",
            b, s[0].backward, s[0].overall, s[1].backward, s[1].overall
        );
        for (d, sp) in devices.iter().zip(&s) {
            rows.push(vec![
                "B".into(),
                d.name.clone(),
                "1000".into(),
                b.to_string(),
                format!("{:.4}", sp.backward),
                format!("{:.4}", sp.overall),
            ]);
        }
    }
    println!("paper: speedup grows as B shrinks (more effective workers per scan);");
    println!("       max backward speedup 8.8x on 2080Ti (abstract).\n");

    let path = write_csv(
        "fig10_sweeps.csv",
        &[
            "sweep",
            "device",
            "seq_len",
            "batch",
            "backward_speedup",
            "overall_speedup",
        ],
        &rows,
    );
    println!("wrote {}", path.display());

    // Real execution validation: the actual scan gets faster with a worker
    // pool once the per-combine work is large enough to amortize
    // synchronization — the p-vs-per-step-cost trade-off of §3.6 on a CPU.
    println!("\nreal-execution validation (serial vs persistent worker pool):");
    let mut timings = Vec::new();
    for (label, h, t) in [
        ("RNN-sized (h=20, T=512)", 20usize, 512usize),
        ("wide (h=64, T=256)", 64, 256),
    ] {
        let mut rng = seeded_rng(3);
        let mut chain = bppsa_core::JacobianChain::new(bppsa_tensor::init::uniform_vector::<f32>(
            &mut rng, h, 1.0,
        ));
        for _ in 0..t {
            chain.push(bppsa_core::ScanElement::Dense(
                bppsa_tensor::init::uniform_matrix(&mut rng, h, h, 0.2),
            ));
        }
        let best_for = |opts: BppsaOptions| {
            let _ = bppsa_backward(&chain, opts);
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(bppsa_backward(&chain, opts));
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let serial = best_for(BppsaOptions::serial());
        let pooled = best_for(BppsaOptions::pooled());
        println!(
            "  {label}: serial {:.2} ms vs pooled {:.2} ms ({:.2}x)",
            serial * 1e3,
            pooled * 1e3,
            serial / pooled
        );
        timings.push((serial, pooled));
    }
    if timings.iter().any(|&(s, p)| p < s) {
        println!("PASS: real parallel execution shortens the scan where per-step work");
        println!("amortizes synchronization; the PRAM sweep models GPU-scale workers.");
    } else {
        println!("NOTE: CPU worker counts are far below the GPU scale the figure needs;");
        println!("the PRAM sweep above supplies that scale.");
    }
}
