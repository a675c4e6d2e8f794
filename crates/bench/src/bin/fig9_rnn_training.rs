//! **Figure 9**: RNN training loss versus wall-clock time — BPPSA against
//! the BPTT baseline.
//!
//! Run: `cargo run -p bppsa-bench --bin fig9_rnn_training --release [--full]`
//!
//! Two parts:
//!
//! 1. **Real execution** (scaled down): trains the Equation-9 RNN on the
//!    bitstream task twice from identical seeds — BPTT vs BPPSA on the
//!    pooled scan executor — and reports the measured loss-vs-time curves.
//!    On a CPU the thread count is far below a GPU's worker count, so the
//!    real-execution speedup is modest or below 1; the point of this part is
//!    the *overlap of loss trajectories* and the correctness of the plumbing.
//! 2. **PRAM simulation** (paper scale: T = 1000, B = 16, 50 epochs of
//!    32000 samples on the RTX 2070 profile): maps the per-iteration loss
//!    sequence onto simulated wall-clock, reproducing the figure's "same
//!    curve, compressed time axis" shape (paper: 2.17× overall).

use bppsa_bench::{is_full_run, write_csv};
use bppsa_models::train::{train_rnn, BackwardMethod};
use bppsa_models::{Adam, BitstreamDataset, VanillaRnn};
use bppsa_pram::{simulate_baseline, simulate_bppsa, DeviceProfile, RnnWorkload};
use bppsa_tensor::init::seeded_rng;

fn main() {
    let full = is_full_run();
    // Real-execution scale (paper: T=1000, B=16, 32000 samples, 50 epochs).
    let (t, b, n, epochs) = if full {
        (1000, 16, 320, 3)
    } else {
        (100, 8, 64, 3)
    };

    println!("Figure 9 — RNN training loss vs wall-clock (BPPSA vs BPTT baseline)");
    println!("part 1: real execution at T={t}, B={b}, {n} samples, {epochs} epochs\n");

    let data = BitstreamDataset::<f32>::generate(n, t, 2024);
    let run = |method: BackwardMethod| {
        let mut rnn = VanillaRnn::<f32>::new(1, 20, 10, &mut seeded_rng(7));
        let mut opt = Adam::new(3e-5);
        train_rnn(&mut rnn, &data, &mut opt, method, b, epochs, None)
    };

    let bptt = run(BackwardMethod::Bp);
    let threads = std::thread::available_parallelism().map_or(4, |p| p.get());
    let _ = threads;
    let scan = run(BackwardMethod::bppsa_pooled());

    println!("iter   loss(BPTT)  t(BPTT)s   loss(BPPSA)  t(BPPSA)s");
    let stride = (bptt.records.len() / 10).max(1);
    for (a, c) in bptt.records.iter().zip(&scan.records).step_by(stride) {
        println!(
            "{:>4}   {:<10.6}  {:<9.3}  {:<11.6}  {:<9.3}",
            a.iteration, a.loss, a.wall_s, c.loss, c.wall_s
        );
    }
    let gap = bptt.max_loss_gap(&scan);
    println!("\nmax per-iteration loss gap: {gap:.3e} (identical trajectories expected)");
    println!(
        "real CPU backward time: BPTT {:.3}s vs BPPSA({threads} threads) {:.3}s",
        bptt.backward_s(),
        scan.backward_s()
    );

    let rows: Vec<Vec<String>> = bptt
        .records
        .iter()
        .zip(&scan.records)
        .map(|(a, c)| {
            vec![
                a.iteration.to_string(),
                format!("{:.6}", a.loss),
                format!("{:.4}", a.wall_s),
                format!("{:.6}", c.loss),
                format!("{:.4}", c.wall_s),
            ]
        })
        .collect();
    write_csv(
        "fig9_real.csv",
        &[
            "iteration",
            "loss_bptt",
            "wall_bptt_s",
            "loss_bppsa",
            "wall_bppsa_s",
        ],
        &rows,
    );

    // Part 2: paper-scale wall-clock from the PRAM cost model.
    println!("\npart 2: PRAM-simulated wall-clock at paper scale (T=1000, B=16, RTX 2070)");
    let wl = RnnWorkload::paper_default();
    let dev = DeviceProfile::rtx_2070();
    let base = simulate_baseline(&wl, &dev);
    let ours = simulate_bppsa(&wl, &dev, None);
    let iters_per_epoch = 32000 / wl.batch;
    let epochs_total = 50;
    let total_iters = iters_per_epoch * epochs_total;
    println!(
        "per-iteration: baseline {:.1}µs (fwd {:.1} + bwd {:.1}) vs BPPSA {:.1}µs (fwd {:.1} + bwd {:.1} + prep {:.1})",
        base.total_s() * 1e6,
        base.forward_s * 1e6,
        base.backward_s * 1e6,
        ours.total_s() * 1e6,
        ours.forward_s * 1e6,
        ours.backward_s * 1e6,
        ours.prep_s * 1e6
    );
    println!(
        "50-epoch training: baseline {:.0}s vs BPPSA {:.0}s → overall speedup {:.2}x (paper: 2.17x);",
        base.total_s() * total_iters as f64,
        ours.total_s() * total_iters as f64,
        base.total_s() / ours.total_s()
    );
    println!(
        "backward speedup {:.2}x (paper: 4.53x)",
        base.backward_s / (ours.backward_s + ours.prep_s)
    );
    println!("the loss-vs-time curve is the baseline curve scaled down on the time axis,");
    println!("exactly the Figure 9 relationship (loss sequences are identical; see part 1).");

    let sim_rows = vec![vec![
        format!("{:.6e}", base.total_s()),
        format!("{:.6e}", ours.total_s()),
        format!("{:.4}", base.total_s() / ours.total_s()),
        format!("{:.4}", base.backward_s / (ours.backward_s + ours.prep_s)),
    ]];
    let path = write_csv(
        "fig9_simulated.csv",
        &[
            "baseline_iter_s",
            "bppsa_iter_s",
            "overall_speedup",
            "backward_speedup",
        ],
        &sim_rows,
    );
    println!("\nwrote {}", path.display());

    assert!(gap < 1e-2, "loss trajectories diverged: {gap}");
    println!("PASS: identical training curves; simulated time axis compressed.");
}
