//! A small multi-layer perceptron with Adam, from scratch.
//!
//! Stands in for the CNN in Sinan's latency predictor and the actor/critic
//! networks in Firm: the baselines' behaviour the paper analyzes (data
//! hunger, inference cost on the decision path) depends on having a *real*
//! trained neural model of comparable capacity, not on the exact
//! architecture. Dense layers with ReLU/tanh hidden activations and a
//! linear (or sigmoid) output head cover both uses.

use ursa_stats::rng::Rng;

/// Hidden-layer activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    #[inline]
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
        }
    }
    #[inline]
    fn grad(self, y: f64) -> f64 {
        // Gradient expressed in terms of the activation output y.
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
        }
    }
}

/// Output head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// Identity output (regression).
    Linear,
    /// Sigmoid output (probability; pair with BCE-style targets in `[0, 1]`).
    Sigmoid,
}

#[derive(Debug, Clone)]
struct Layer {
    inp: usize,
    out: usize,
    w: Vec<f64>,
    b: Vec<f64>,
    // Adam moments.
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Layer {
    fn new(inp: usize, out: usize, rng: &mut Rng) -> Self {
        let scale = (2.0 / (inp + out) as f64).sqrt();
        let w = (0..inp * out)
            .map(|_| (rng.next_f64() * 2.0 - 1.0) * scale)
            .collect();
        Layer {
            inp,
            out,
            w,
            b: vec![0.0; out],
            mw: vec![0.0; inp * out],
            vw: vec![0.0; inp * out],
            mb: vec![0.0; out],
            vb: vec![0.0; out],
        }
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.out);
        for o in 0..self.out {
            let mut acc = self.b[o];
            let row = &self.w[o * self.inp..(o + 1) * self.inp];
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            out.push(acc);
        }
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// A dense feed-forward network trained with Adam on squared error.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
    act: Activation,
    output: Output,
    t: u64,
}

const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const ADAM_EPS: f64 = 1e-8;

impl Mlp {
    /// Creates a network with the given layer widths, e.g. `[8, 32, 32, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given or any dim is zero.
    pub fn new(dims: &[usize], act: Activation, output: Output, seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
        let mut rng = Rng::seed_from(seed);
        let layers = dims
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();
        Mlp {
            layers,
            act,
            output,
            t: 0,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().expect("non-empty").inp
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Runs the network forward.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        self.predict_into(x, &mut out, &mut scratch);
        out
    }

    /// [`predict`](Self::predict) into caller-owned buffers, for callers
    /// on a decision path that predict in a loop: the output is left in
    /// `out`, `scratch` holds the hidden activations, and neither
    /// allocates once it has grown to the widest layer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn predict_into(&self, x: &[f64], out: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        // Layers alternate between the two buffers; start on the one that
        // makes the last layer land in `out`.
        let (mut dst, mut src) = if self.layers.len() % 2 == 1 {
            (out, scratch)
        } else {
            (scratch, out)
        };
        for li in 0..self.layers.len() {
            self.layers[li].forward(if li == 0 { x } else { src }, dst);
            self.activate(li, dst);
            std::mem::swap(&mut dst, &mut src);
        }
    }

    /// Applies layer `li`'s activation in place: the hidden activation,
    /// or the output head on the last layer.
    fn activate(&self, li: usize, values: &mut [f64]) {
        if li < self.layers.len() - 1 {
            for v in values {
                *v = self.act.apply(*v);
            }
        } else if self.output == Output::Sigmoid {
            for v in values {
                *v = 1.0 / (1.0 + (-*v).exp());
            }
        }
    }

    /// One Adam step on a mini-batch with squared-error loss; returns the
    /// mean loss over the batch. Rows may be owned (`Vec<f64>`) or
    /// borrowed (`&[f64]`), so a caller sampling from a dataset or replay
    /// buffer need not copy them.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or shapes mismatch.
    pub fn train_batch<X, Y>(&mut self, xs: &[X], ys: &[Y], lr: f64) -> f64
    where
        X: AsRef<[f64]>,
        Y: AsRef<[f64]>,
    {
        assert!(!xs.is_empty() && xs.len() == ys.len(), "bad batch");
        let n_layers = self.layers.len();
        let mut grad_w: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut grad_b: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        let mut loss = 0.0;
        // Per-sample buffers, allocated once per batch: `acts[l]` is layer
        // `l`'s output, `delta`/`prev` the back-propagated gradients.
        let mut acts: Vec<Vec<f64>> = vec![Vec::new(); n_layers];
        let (mut delta, mut prev) = (Vec::new(), Vec::new());

        for (x, y) in xs.iter().zip(ys) {
            let (x, y) = (x.as_ref(), y.as_ref());
            // Forward with cached activations.
            for li in 0..n_layers {
                let (done, rest) = acts.split_at_mut(li);
                let input = if li == 0 { x } else { &done[li - 1] };
                self.layers[li].forward(input, &mut rest[0]);
                self.activate(li, &mut rest[0]);
            }
            let out = &acts[n_layers - 1];
            assert_eq!(out.len(), y.len(), "target dimension mismatch");
            // d(loss)/d(pre-activation) of the output layer. For sigmoid
            // output with squared error we fold in the sigmoid gradient.
            delta.clear();
            delta.extend(out.iter().zip(y).map(|(o, t)| {
                loss += (o - t) * (o - t);
                let mut d = 2.0 * (o - t);
                if self.output == Output::Sigmoid {
                    d *= o * (1.0 - o);
                }
                d
            }));
            // Backward.
            for li in (0..n_layers).rev() {
                let layer = &self.layers[li];
                let input = if li == 0 { x } else { &acts[li - 1] };
                for o in 0..layer.out {
                    grad_b[li][o] += delta[o];
                    let row = &mut grad_w[li][o * layer.inp..(o + 1) * layer.inp];
                    for (g, xi) in row.iter_mut().zip(input) {
                        *g += delta[o] * xi;
                    }
                }
                if li > 0 {
                    prev.clear();
                    prev.resize(layer.inp, 0.0);
                    for (o, &d) in delta.iter().enumerate() {
                        let row = &layer.w[o * layer.inp..(o + 1) * layer.inp];
                        for (p, wi) in prev.iter_mut().zip(row) {
                            *p += d * wi;
                        }
                    }
                    // Apply hidden activation gradient (in terms of output).
                    for (p, a) in prev.iter_mut().zip(input) {
                        *p *= self.act.grad(*a);
                    }
                    std::mem::swap(&mut delta, &mut prev);
                }
            }
        }

        // Adam update.
        let scale = 1.0 / xs.len() as f64;
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for (i, g) in grad_w[li].iter().enumerate() {
                let g = g * scale;
                layer.mw[i] = BETA1 * layer.mw[i] + (1.0 - BETA1) * g;
                layer.vw[i] = BETA2 * layer.vw[i] + (1.0 - BETA2) * g * g;
                let mhat = layer.mw[i] / bc1;
                let vhat = layer.vw[i] / bc2;
                layer.w[i] -= lr * mhat / (vhat.sqrt() + ADAM_EPS);
            }
            for (i, g) in grad_b[li].iter().enumerate() {
                let g = g * scale;
                layer.mb[i] = BETA1 * layer.mb[i] + (1.0 - BETA1) * g;
                layer.vb[i] = BETA2 * layer.vb[i] + (1.0 - BETA2) * g * g;
                let mhat = layer.mb[i] / bc1;
                let vhat = layer.vb[i] / bc2;
                layer.b[i] -= lr * mhat / (vhat.sqrt() + ADAM_EPS);
            }
        }
        loss / (xs.len() as f64)
    }

    /// Copies another network's parameters into this one (target networks).
    ///
    /// # Panics
    ///
    /// Panics if architectures differ.
    pub fn copy_params_from(&mut self, other: &Mlp) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "architecture mismatch"
        );
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            assert_eq!(a.w.len(), b.w.len(), "architecture mismatch");
            a.w.copy_from_slice(&b.w);
            a.b.copy_from_slice(&b.b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_params() {
        let net = Mlp::new(&[3, 8, 2], Activation::Relu, Output::Linear, 1);
        assert_eq!(net.input_dim(), 3);
        assert_eq!(net.output_dim(), 2);
        assert_eq!(net.param_count(), 3 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(net.predict(&[0.0, 0.0, 0.0]).len(), 2);
    }

    #[test]
    fn learns_xor() {
        let xs: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let ys: Vec<Vec<f64>> = vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]];
        let mut net = Mlp::new(&[2, 16, 1], Activation::Tanh, Output::Sigmoid, 3);
        for _ in 0..2000 {
            net.train_batch(&xs, &ys, 0.02);
        }
        for (x, y) in xs.iter().zip(&ys) {
            let p = net.predict(x)[0];
            assert!((p - y[0]).abs() < 0.2, "xor({x:?}) = {p}, want {}", y[0]);
        }
    }

    #[test]
    fn learns_sine_regression() {
        use ursa_stats::rng::Rng;
        let mut rng = Rng::seed_from(5);
        let xs: Vec<Vec<f64>> = (0..256).map(|_| vec![rng.next_f64() * 2.0 - 1.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![(x[0] * 3.0).sin()]).collect();
        let mut net = Mlp::new(&[1, 32, 32, 1], Activation::Tanh, Output::Linear, 7);
        let mut last = f64::INFINITY;
        for _ in 0..800 {
            last = net.train_batch(&xs, &ys, 0.01);
        }
        assert!(last < 0.01, "final loss {last}");
    }

    #[test]
    fn training_reduces_loss_monotonically_enough() {
        let xs: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64 / 32.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![2.0 * x[0] + 0.5]).collect();
        let mut net = Mlp::new(&[1, 8, 1], Activation::Relu, Output::Linear, 11);
        let first = net.train_batch(&xs, &ys, 0.01);
        for _ in 0..300 {
            net.train_batch(&xs, &ys, 0.01);
        }
        let last = net.train_batch(&xs, &ys, 0.01);
        assert!(last < first * 0.1, "{first} -> {last}");
    }

    #[test]
    fn copy_params_matches_outputs() {
        let src = Mlp::new(&[2, 4, 1], Activation::Relu, Output::Linear, 13);
        let mut dst = Mlp::new(&[2, 4, 1], Activation::Relu, Output::Linear, 14);
        let x = [0.3, -0.7];
        assert_ne!(src.predict(&x), dst.predict(&x));
        dst.copy_params_from(&src);
        assert_eq!(src.predict(&x), dst.predict(&x));
    }

    #[test]
    fn deterministic_init() {
        let a = Mlp::new(&[2, 4, 1], Activation::Relu, Output::Linear, 21);
        let b = Mlp::new(&[2, 4, 1], Activation::Relu, Output::Linear, 21);
        assert_eq!(a.predict(&[0.1, 0.2]), b.predict(&[0.1, 0.2]));
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn predict_checks_dims() {
        Mlp::new(&[2, 2], Activation::Relu, Output::Linear, 1).predict(&[1.0]);
    }
}
