//! Integration tests for the §3.5 convergence claim: training *via BPPSA*
//! follows the baseline's trajectory exactly, on both model families, and
//! the losses actually go down (the experiment is meaningful).

use bppsa::models::train::{
    evaluate_network, evaluate_rnn, train_network_classifier, train_rnn, BackwardMethod,
};
use bppsa::prelude::*;

#[test]
fn lenet_trajectories_overlap_and_descend() {
    let data = SyntheticCifar::<f32>::generate(48, 8, 0.15, 21);
    let run = |method: BackwardMethod| {
        let mut net = lenet_tiny::<f32>(&mut seeded_rng(22));
        let mut opts = bppsa::models::train::sgd_per_layer(&net, 0.03, 0.9);
        let log = train_network_classifier(&mut net, &data, &mut opts, method, 12, 15, None);
        (log, evaluate_network(&net, &data))
    };
    let (bp_log, bp_acc) = run(BackwardMethod::Bp);
    let (scan_log, scan_acc) = run(BackwardMethod::Bppsa {
        opts: BppsaOptions::serial(),
        repr: JacobianRepr::Sparse,
    });

    // Figure 7's two claims: curves overlap, and learning happens.
    let gap = bp_log.max_loss_gap(&scan_log);
    assert!(gap < 1e-3, "curves diverged: {gap}");
    assert!(
        bp_log.final_loss() < bp_log.records[0].loss * 0.9,
        "no learning: {} → {}",
        bp_log.records[0].loss,
        bp_log.final_loss()
    );
    assert!((bp_acc - scan_acc).abs() < 0.05, "{bp_acc} vs {scan_acc}");
}

#[test]
fn rnn_trajectories_overlap_with_adam() {
    // §2.2: BPPSA is optimizer-agnostic because gradients are exact — the
    // paper's RNN uses Adam, whose momentum would amplify any staleness.
    let data = BitstreamDataset::<f32>::generate(32, 48, 23);
    let run = |method: BackwardMethod| {
        let mut rnn = VanillaRnn::<f32>::new(1, 16, 10, &mut seeded_rng(24));
        let mut opt = Adam::new(2e-3);
        train_rnn(&mut rnn, &data, &mut opt, method, 8, 6, None)
    };
    let bptt = run(BackwardMethod::Bp);
    let scan = run(BackwardMethod::bppsa_pooled());
    assert!(bptt.max_loss_gap(&scan) < 1e-3);
}

#[test]
fn rnn_learns_the_bitstream_task() {
    // The Equation-8 task is learnable: a trained RNN clears chance (10%)
    // comfortably on its training set.
    let data = BitstreamDataset::<f32>::generate(80, 96, 25);
    let mut rnn = VanillaRnn::<f32>::new(1, 20, 10, &mut seeded_rng(26));
    let mut opt = Adam::new(5e-3);
    let log = train_rnn(&mut rnn, &data, &mut opt, BackwardMethod::Bp, 16, 40, None);
    let acc = evaluate_rnn(&rnn, &data);
    assert!(
        acc > 0.3,
        "accuracy {acc} too close to chance (loss {} → {})",
        log.records[0].loss,
        log.final_loss()
    );
}

#[test]
fn sgd_momentum_training_is_deterministic() {
    // Identical seeds → bit-identical logs (required for Figure 7's overlap
    // to be meaningful rather than coincidental).
    let data = SyntheticCifar::<f32>::generate(16, 8, 0.2, 27);
    let run = || {
        let mut net = lenet_tiny::<f32>(&mut seeded_rng(28));
        let mut opts = bppsa::models::train::sgd_per_layer(&net, 0.01, 0.9);
        train_network_classifier(&mut net, &data, &mut opts, BackwardMethod::Bp, 8, 2, None)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.loss, y.loss);
    }
}
