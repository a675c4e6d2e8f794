//! Cross-crate integration tests for the paper's central claim (§3.5):
//! BPPSA is a *reconstruction* of back-propagation — same gradients, up to
//! floating-point reassociation — across model families, Jacobian
//! representations, executors, and schedules.

use bppsa::models::train::BackwardMethod;
use bppsa::prelude::*;

fn mlp(seed: u64) -> Network<f64> {
    let mut rng = seeded_rng(seed);
    let mut net = Network::new();
    net.push(Box::new(Linear::new(12, 32, &mut rng)));
    net.push(Box::new(Tanh::new(vec![32])));
    net.push(Box::new(Linear::new(32, 24, &mut rng)));
    net.push(Box::new(Relu::new(vec![24])));
    net.push(Box::new(Linear::new(24, 16, &mut rng)));
    net.push(Box::new(Relu::new(vec![16])));
    net.push(Box::new(Linear::new(16, 5, &mut rng)));
    net
}

fn cnn(seed: u64) -> Network<f64> {
    let mut rng = seeded_rng(seed);
    let mut net = Network::new();
    net.push(Box::new(Conv2d::new(
        Conv2dConfig::vgg_style(2, 6, (10, 10)),
        &mut rng,
    )));
    net.push(Box::new(Relu::new(vec![6, 10, 10])));
    net.push(Box::new(MaxPool2d::new(6, (2, 2), (2, 2), (10, 10))));
    net.push(Box::new(Conv2d::new(
        Conv2dConfig {
            in_channels: 6,
            out_channels: 8,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (0, 0),
            input_hw: (5, 5),
        },
        &mut rng,
    )));
    net.push(Box::new(Relu::new(vec![8, 3, 3])));
    net.push(Box::new(AvgPool2d::new(8, (3, 3), (3, 3), (3, 3))));
    net.push(Box::new(Flatten::new(vec![8, 1, 1])));
    net.push(Box::new(Linear::new(8, 4, &mut rng)));
    net
}

fn check_all_paths(net: &Network<f64>, input_shape: Vec<usize>, out_len: usize, seed: u64) {
    let mut rng = seeded_rng(seed);
    let x = bppsa::tensor::init::uniform_tensor(&mut rng, input_shape, 1.0);
    let tape = net.forward(&x);
    let g = bppsa::tensor::init::uniform_vector(&mut rng, out_len, 1.0);
    let reference = net.backward_bp(&tape, &g);

    for repr in [JacobianRepr::Sparse, JacobianRepr::Dense] {
        for opts in [
            BppsaOptions::serial(),
            BppsaOptions::pooled(),
            BppsaOptions::serial().hybrid(0),
            BppsaOptions::serial().hybrid(1),
            BppsaOptions::serial().hybrid(2),
            BppsaOptions::pooled().hybrid(2),
        ] {
            let scanned = net.backward_bppsa(&tape, &g, repr, opts);
            let diff = reference.max_abs_diff(&scanned);
            assert!(
                diff < 1e-9,
                "{repr:?} / {opts:?}: gradients differ by {diff}"
            );
        }
    }
}

#[test]
fn mlp_gradients_exact_across_all_paths() {
    check_all_paths(&mlp(1), vec![12], 5, 2);
}

#[test]
fn cnn_gradients_exact_across_all_paths() {
    check_all_paths(&cnn(3), vec![2, 10, 10], 4, 4);
}

#[test]
fn rnn_gradients_exact_at_length_1000() {
    // The paper's T = 1000 headline configuration, single sample.
    let rnn = VanillaRnn::<f64>::new(1, 20, 10, &mut seeded_rng(5));
    let data = BitstreamDataset::<f64>::generate(1, 1000, 6);
    let s = data.sample(0);
    let states = rnn.forward(&s.bits);
    let (_, seed, g_logits) = rnn.loss_and_seed(&states, s.label);
    let bptt = rnn.backward_bptt(&s.bits, &states, &seed, &g_logits);
    let scan = rnn.backward_bppsa(&s.bits, &states, &seed, &g_logits, BppsaOptions::pooled());
    let diff = bptt.max_abs_diff(&scan);
    // 1000 matrix products reassociated: allow generous fp headroom.
    assert!(diff < 1e-8, "T=1000 gradients differ by {diff}");
}

#[test]
fn f32_precision_stays_trainable() {
    // The convergence experiments run in f32; the reassociation error must
    // stay far below gradient magnitudes.
    let mut rng = seeded_rng(7);
    let mut net = Network::<f32>::new();
    net.push(Box::new(Linear::new(10, 20, &mut rng)));
    net.push(Box::new(Relu::new(vec![20])));
    net.push(Box::new(Linear::new(20, 10, &mut rng)));
    let x = bppsa::tensor::init::uniform_tensor(&mut rng, vec![10], 1.0);
    let tape = net.forward(&x);
    let g = bppsa::tensor::init::uniform_vector(&mut rng, 10, 1.0);
    let bp = net.backward_bp(&tape, &g);
    let scan = net.backward_bppsa(&tape, &g, JacobianRepr::Sparse, BppsaOptions::serial());
    assert!(bp.max_abs_diff(&scan) < 1e-4);
}

#[test]
fn scan_output_positions_match_equation4() {
    // Hand-check the scan output layout against Equation 4's array.
    let mut chain = JacobianChain::new(Vector::from_vec(vec![2.0f64])); // ∇x_2
    let j1t = Matrix::from_rows(&[&[3.0], &[5.0]]); // J1ᵀ: d0=2 × d1=1
    let j2t = Matrix::from_rows(&[&[7.0]]); // J2ᵀ: d1=1 × d2=1
    chain.push(ScanElement::Dense(j1t));
    chain.push(ScanElement::Dense(j2t));
    let res = bppsa_backward(&chain, BppsaOptions::serial());
    // ∇x_2 = seed = [2]; ∇x_1 = J2ᵀ ∇x_2 = [14].
    assert_eq!(res.grad_x(2).as_slice(), &[2.0]);
    assert_eq!(res.grad_x(1).as_slice(), &[14.0]);
    // And the linear baseline agrees.
    let lin = linear_backward(&chain);
    assert_eq!(lin.grad_x(1).as_slice(), &[14.0]);
}

#[test]
fn batched_training_step_gradients_match() {
    // The full batched path (losses, seeds scaled by 1/B, accumulation)
    // produces identical parameter gradients under both methods.
    let data = SyntheticCifar::<f64>::generate(8, 8, 0.2, 8);
    let net = lenet_tiny::<f64>(&mut seeded_rng(9));
    let batch: Vec<(&Tensor<f64>, usize)> = (0..8)
        .map(|i| {
            let s = data.sample(i);
            (&s.image, s.label)
        })
        .collect();
    let (loss_bp, grads_bp, _) =
        bppsa::models::train::network_batch_step(&net, &batch, BackwardMethod::Bp);
    let (loss_scan, grads_scan, _) = bppsa::models::train::network_batch_step(
        &net,
        &batch,
        BackwardMethod::Bppsa {
            opts: BppsaOptions::serial(),
            repr: JacobianRepr::Sparse,
        },
    );
    assert!((loss_bp - loss_scan).abs() < 1e-12);
    for (a, b) in grads_bp.iter().zip(&grads_scan) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}
