//! Quickstart: back-propagation as a parallel scan, end to end.
//!
//! Builds a small CNN, computes gradients with classic BP and with BPPSA
//! (sparse Jacobians + modified Blelloch scan), verifies they match, and
//! prints what the scan actually did.
//!
//! Run: `cargo run --example quickstart --release`

use bppsa::prelude::*;

fn main() {
    // 1. A small CNN in the paper's Equation-1 form: f = f1 ∘ … ∘ fn.
    let mut rng = seeded_rng(42);
    let mut net = Network::<f64>::new();
    net.push(Box::new(Conv2d::new(
        Conv2dConfig::vgg_style(1, 4, (8, 8)),
        &mut rng,
    )));
    net.push(Box::new(Relu::new(vec![4, 8, 8])));
    net.push(Box::new(MaxPool2d::new(4, (2, 2), (2, 2), (8, 8))));
    net.push(Box::new(Flatten::new(vec![4, 4, 4])));
    net.push(Box::new(Linear::new(64, 10, &mut rng)));
    println!(
        "network: {} layers, {} parameters",
        net.num_layers(),
        net.num_params()
    );

    // 2. Forward pass, recording the tape of activations x0 … xn.
    let image = bppsa::tensor::init::uniform_tensor(&mut rng, vec![1, 8, 8], 1.0);
    let tape = net.forward(&image);

    // 3. A loss gradient seeds the backward pass (∇x_n in Equation 5).
    let logits = tape.output().to_vector();
    let (loss, seed) = SoftmaxCrossEntropy::loss_and_grad(&logits, 3);
    println!("loss = {loss:.4}");

    // 4. Classic BP: sequential VJPs (the strong dependency of Equation 3).
    let baseline = net.backward_bp(&tape, &seed);

    // 5. BPPSA: transposed Jacobians in CSR, scanned in Θ(log n) steps.
    let scanned = net.backward_bppsa(&tape, &seed, JacobianRepr::Sparse, BppsaOptions::pooled());

    // 6. §3.5: BPPSA is a reconstruction of BP, not an approximation.
    let diff = baseline.max_abs_diff(&scanned);
    println!("max |BP − BPPSA| over all gradients: {diff:.3e}");
    assert!(diff < 1e-10);

    // 7. What the scan did: inspect the chain and schedule.
    let chain = net.build_chain(&tape, &seed, JacobianRepr::Sparse);
    let schedule = ScanSchedule::full(chain.num_layers() + 1);
    println!(
        "scan array: {} elements; schedule: {} combines over {} steps (linear scan: {} steps)",
        chain.num_layers() + 1,
        schedule.combine_count(),
        schedule.step_count(),
        chain.num_layers() + 1,
    );
    for (i, jt) in chain.jacobians().iter().enumerate() {
        println!("  J{}ᵀ = {jt}", i + 1);
    }
    println!("OK: gradients agree; see examples/rnn_training.rs for the paper's benchmark.");
}
