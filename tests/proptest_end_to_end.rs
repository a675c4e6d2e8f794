//! Property-based end-to-end tests: random networks and random chains must
//! satisfy BP ≡ BPPSA under every schedule, and the FLOP analysis must be
//! consistent with execution.

use bppsa::core::flops::{analyze_scan_flops, total_flops};
use bppsa::prelude::*;
use proptest::prelude::*;

/// A random dense Jacobian chain with arbitrary layer widths.
fn arb_chain() -> impl Strategy<Value = JacobianChain<f64>> {
    (
        proptest::collection::vec(1usize..6, 1..20),
        proptest::num::u64::ANY,
    )
        .prop_map(|(dims_tail, seed)| {
            let mut rng = seeded_rng(seed);
            let mut dims = vec![3usize];
            dims.extend(dims_tail);
            let n = dims.len() - 1;
            let mut chain =
                JacobianChain::new(bppsa::tensor::init::uniform_vector(&mut rng, dims[n], 1.0));
            for i in 0..n {
                chain.push(ScanElement::Dense(bppsa::tensor::init::uniform_matrix(
                    &mut rng,
                    dims[i],
                    dims[i + 1],
                    1.0,
                )));
            }
            chain
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_chains_scan_equals_linear(chain in arb_chain(), k in 0usize..6, pooled in any::<bool>()) {
        let reference = linear_backward(&chain);
        let opts = BppsaOptions {
            executor: if pooled { Executor::Pooled } else { Executor::Serial },
            ..BppsaOptions::serial().hybrid(k)
        };
        let scanned = bppsa_backward(&chain, opts);
        let diff = reference.max_abs_diff(&scanned);
        prop_assert!(diff < 1e-8, "diff {diff}");
    }

    #[test]
    fn flop_analysis_is_schedule_consistent(chain in arb_chain(), k in 0usize..6) {
        // The analyzer's record count never exceeds the schedule's combines,
        // every record has flops ≤ 2·dense m·n·k, and per-level criticals
        // exist whenever the level recorded anything.
        let opts = BppsaOptions::serial().hybrid(k);
        let records = analyze_scan_flops(&chain, opts);
        let schedule = opts.schedule(chain.num_layers() + 1);
        prop_assert!(records.len() <= schedule.combine_count());
        for r in &records {
            prop_assert!(r.flops <= 2 * r.dense_mnk, "flops {} > 2*mnk {}", r.flops, r.dense_mnk);
        }
        // Dense chains: FLOPs are exactly 2·mnk for every step.
        prop_assert_eq!(
            total_flops(&records),
            records.iter().map(|r| 2 * r.dense_mnk).sum::<u64>()
        );
    }

    #[test]
    fn sparse_and_dense_representations_agree(chain in arb_chain()) {
        // Convert the dense chain to CSR; both must produce the same result.
        let mut sparse = JacobianChain::new(chain.seed().clone());
        for jt in chain.jacobians() {
            if let ScanElement::Dense(m) = jt {
                sparse.push(ScanElement::Sparse(Csr::from_dense(m)));
            }
        }
        let gd = bppsa_backward(&chain, BppsaOptions::serial());
        let gs = bppsa_backward(&sparse, BppsaOptions::serial());
        prop_assert!(gd.max_abs_diff(&gs) < 1e-9);
    }

    #[test]
    fn random_mlp_bp_equals_bppsa(
        widths in proptest::collection::vec(1usize..10, 1..6),
        seed in proptest::num::u64::ANY,
    ) {
        let mut rng = seeded_rng(seed);
        let mut net = Network::<f64>::new();
        let mut prev = 4usize;
        for (i, &w) in widths.iter().enumerate() {
            net.push(Box::new(Linear::new(prev, w, &mut rng)));
            if i % 2 == 0 {
                net.push(Box::new(Relu::new(vec![w])));
            } else {
                net.push(Box::new(Tanh::new(vec![w])));
            }
            prev = w;
        }
        let x = bppsa::tensor::init::uniform_tensor(&mut rng, vec![4], 1.0);
        let tape = net.forward(&x);
        let g = bppsa::tensor::init::uniform_vector(&mut rng, prev, 1.0);
        let bp = net.backward_bp(&tape, &g);
        let scan = net.backward_bppsa(&tape, &g, JacobianRepr::Sparse, BppsaOptions::serial());
        let diff = bp.max_abs_diff(&scan);
        prop_assert!(diff < 1e-9, "diff {diff}");
    }
}
