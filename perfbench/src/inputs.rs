//! Seeded input generation. Every input a workload feeds the library comes
//! from here and from the workload seed alone.

use crate::workloads::{Model, ServeSpec, TrainSpec, CLASSES};
use bppsa_core::{JacobianChain, ScanElement};
use bppsa_models::{BitstreamDataset, DiagonalSsm, VanillaRnn};
use bppsa_sparse::Csr;
use bppsa_tensor::init::seeded_rng;
use bppsa_tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// SplitMix64 finalizer: decorrelates nearby seeds.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An independent sub-seed of `seed` for one kind of input.
pub fn derive(seed: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ stream)
}

pub struct TrainInputs {
    pub data: BitstreamDataset<f32>,
    /// Seeds the model's initial weights.
    pub model_seed: u64,
}

pub fn train_inputs(spec: &TrainSpec, seed: u64) -> TrainInputs {
    TrainInputs {
        data: BitstreamDataset::generate(spec.samples(), spec.seq_len, derive(seed, 1)),
        model_seed: derive(seed, 2),
    }
}

/// The model's initial parameters (construction is timed as set-up, so the
/// benchmark builds models itself; this is for fingerprinting).
pub fn initial_params(spec: &TrainSpec, model_seed: u64) -> Vec<f32> {
    let mut rng = seeded_rng(model_seed);
    match spec.model {
        Model::Rnn => VanillaRnn::<f32>::new(1, spec.hidden, CLASSES, &mut rng).params(),
        Model::Ssm => DiagonalSsm::<f32>::new(spec.hidden, CLASSES, &mut rng).params(),
    }
}

pub struct ServeInputs {
    /// One chain per hot shape; its patterns define the shape.
    pub templates: Vec<JacobianChain<f64>>,
    /// `slots[k][s]`: client slot `k`'s own chain of shape `s` (the
    /// template's patterns, fresh values).
    pub slots: Vec<Vec<JacobianChain<f64>>>,
    /// Seeds the sequence of shapes the client resubmits.
    pub picks_seed: u64,
}

pub fn serve_inputs(spec: &ServeSpec, seed: u64) -> ServeInputs {
    let mut rng = seeded_rng(derive(seed, 3));
    let templates: Vec<JacobianChain<f64>> = spec
        .layers
        .iter()
        .map(|&n| {
            let mut chain = JacobianChain::new(uniform(&mut rng, spec.width));
            for _ in 0..n {
                chain.push(ScanElement::Sparse(random_csr(
                    &mut rng,
                    spec.width,
                    spec.density,
                )));
            }
            chain
        })
        .collect();
    let slots = (0..spec.outstanding)
        .map(|_| templates.iter().map(|t| revalue(t, &mut rng)).collect())
        .collect();
    ServeInputs {
        templates,
        slots,
        picks_seed: derive(seed, 4),
    }
}

/// The shape sequence a client resubmits with.
pub fn picks(seed: u64) -> impl FnMut(usize) -> usize {
    let mut rng = seeded_rng(seed);
    move |shapes| rng.random_range(0..shapes)
}

fn uniform(rng: &mut StdRng, len: usize) -> bppsa_tensor::Vector<f64> {
    bppsa_tensor::Vector::from_fn(len, |_| rng.random_range(-1.0..1.0))
}

/// A square `width × width` CSR matrix, each cell nonzero with probability
/// `density`, values uniform in `(-1, 1)`.
fn random_csr(rng: &mut StdRng, width: usize, density: f64) -> Csr<f64> {
    Csr::from_dense(&Matrix::from_fn(width, width, |_, _| {
        if rng.random_range(0.0..1.0) < density {
            rng.random_range(-1.0..1.0)
        } else {
            0.0
        }
    }))
}

/// Same patterns (shared `Arc`s) as `template`, fresh values and seed.
fn revalue(template: &JacobianChain<f64>, rng: &mut StdRng) -> JacobianChain<f64> {
    let mut out = JacobianChain::new(uniform(rng, template.seed().len()));
    for element in template.jacobians() {
        let ScanElement::Sparse(m) = element else {
            unreachable!("serve templates are all-CSR")
        };
        out.push(ScanElement::Sparse(
            m.map_values(|_| rng.random_range(-1.0..1.0)),
        ));
    }
    out
}

/// FNV-1a over 64-bit words: a fingerprint of generated inputs, printed
/// with every run so two runs can be checked to have seen the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

pub fn train_fingerprint(spec: &TrainSpec, inputs: &TrainInputs) -> u64 {
    let mut f = Fingerprint::new();
    for i in 0..inputs.data.len() {
        let s = inputs.data.sample(i);
        f.word(s.label as u64);
        s.bits.iter().for_each(|b| f.word(u64::from(b.to_bits())));
    }
    for p in initial_params(spec, inputs.model_seed) {
        f.word(u64::from(p.to_bits()));
    }
    f.value()
}

pub fn serve_fingerprint(inputs: &ServeInputs, picks_drawn: usize) -> u64 {
    let mut f = Fingerprint::new();
    let chains = inputs.templates.iter().chain(inputs.slots.iter().flatten());
    for chain in chains {
        chain
            .seed()
            .as_slice()
            .iter()
            .for_each(|v| f.word(v.to_bits()));
        for element in chain.jacobians() {
            let ScanElement::Sparse(m) = element else {
                unreachable!("serve chains are all-CSR")
            };
            m.pattern().indptr().iter().for_each(|&p| f.word(p as u64));
            m.pattern()
                .indices()
                .iter()
                .for_each(|&j| f.word(u64::from(j)));
            m.data().iter().for_each(|v| f.word(v.to_bits()));
        }
    }
    let mut pick = picks(inputs.picks_seed);
    for _ in 0..picks_drawn {
        f.word(pick(inputs.templates.len()) as u64);
    }
    f.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{lookup, Workload};

    fn train_spec(name: &str) -> TrainSpec {
        match lookup(name) {
            Some(Workload::Train(spec)) => spec,
            _ => panic!("{name} is a training workload"),
        }
    }

    #[test]
    fn same_seed_gives_bit_identical_training_inputs() {
        // A short sequence keeps the test fast; the generator is the same.
        let spec = TrainSpec {
            seq_len: 64,
            ..train_spec("rnn_t1000")
        };
        let a = train_fingerprint(&spec, &train_inputs(&spec, 7));
        let b = train_fingerprint(&spec, &train_inputs(&spec, 7));
        let c = train_fingerprint(&spec, &train_inputs(&spec, 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let ssm = TrainSpec {
            seq_len: 64,
            ..train_spec("ssm_t32768")
        };
        assert_eq!(
            train_fingerprint(&ssm, &train_inputs(&ssm, 7)),
            train_fingerprint(&ssm, &train_inputs(&ssm, 7))
        );
    }

    #[test]
    fn same_seed_gives_bit_identical_serving_inputs() {
        let spec = ServeSpec::MIX;
        let a = serve_fingerprint(&serve_inputs(&spec, 11), 1000);
        let b = serve_fingerprint(&serve_inputs(&spec, 11), 1000);
        let c = serve_fingerprint(&serve_inputs(&spec, 12), 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn slot_chains_share_their_shape_patterns() {
        let inputs = serve_inputs(&ServeSpec::MIX, 3);
        for slot in &inputs.slots {
            for (chain, template) in slot.iter().zip(&inputs.templates) {
                for (x, t) in chain.jacobians().iter().zip(template.jacobians()) {
                    let (ScanElement::Sparse(x), ScanElement::Sparse(t)) = (x, t) else {
                        unreachable!()
                    };
                    assert!(std::sync::Arc::ptr_eq(&x.pattern(), &t.pattern()));
                }
            }
        }
    }

    #[test]
    fn derived_streams_differ() {
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_eq!(derive(5, 3), derive(5, 3));
    }
}
