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
    /// Weights, output-major: row `o` holds output `o`'s weights.
    w: Vec<f64>,
    /// The same weights input-major (`w[o * inp + i]` at `wt[i * out + o]`),
    /// for the one-row pass; rewritten wherever `w` changes.
    wt: Vec<f64>,
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
        let mut layer = Layer {
            inp,
            out,
            w,
            wt: vec![0.0; inp * out],
            b: vec![0.0; out],
            mw: vec![0.0; inp * out],
            vw: vec![0.0; inp * out],
            mb: vec![0.0; out],
            vb: vec![0.0; out],
        };
        layer.transpose();
        layer
    }

    /// Rewrites `wt` from `w`.
    fn transpose(&mut self) {
        for (o, row) in self.w.chunks_exact(self.inp).enumerate() {
            for (slot, &wi) in self.wt[o..].iter_mut().step_by(self.out).zip(row) {
                *slot = wi;
            }
        }
    }

    /// The forward kernel, and the only one: `out` becomes `W·x + b` for
    /// each of the `batch` columns of `x`. Both are feature-major — value
    /// `i` of column `c` sits at `i * batch + c` — so a row of `W` meets a
    /// run of neighbouring columns at once.
    ///
    /// Each column still starts from its bias and adds the inputs' products
    /// in input order, as a dot product would, so a column's value does not
    /// depend on the batch it rides in. `LANES` columns are accumulated
    /// together to overlap their adds; what is left over goes one by one.
    /// A batch of one overlaps its outputs' adds instead, `BLOCK` outputs
    /// at a time from the input-major weights; the outputs left over are
    /// dot products of their rows.
    fn forward(&self, x: &[f64], batch: usize, out: &mut Vec<f64>) {
        debug_assert_eq!(x.len(), self.inp * batch);
        out.clear();
        out.resize(self.out * batch, 0.0);
        if batch == 1 {
            let blocked = self.out - self.out % BLOCK;
            for (first, dst) in (0..blocked).step_by(BLOCK).zip(out.chunks_exact_mut(BLOCK)) {
                let mut acc: [f64; BLOCK] =
                    self.b[first..first + BLOCK].try_into().expect("a block");
                for (&xv, column) in x.iter().zip(self.wt.chunks_exact(self.out)) {
                    for (a, &wi) in acc.iter_mut().zip(&column[first..first + BLOCK]) {
                        *a += wi * xv;
                    }
                }
                dst.copy_from_slice(&acc);
            }
            for o in blocked..self.out {
                out[o] = dot(
                    self.b[o],
                    &self.w[o * self.inp..(o + 1) * self.inp],
                    x.iter().copied(),
                );
            }
            return;
        }
        let rows = || self.w.chunks_exact(self.inp).zip(&self.b);
        let blocked = batch - batch % LANES;
        for c in (0..blocked).step_by(LANES) {
            for (dst, (row, &bias)) in out.chunks_exact_mut(batch).zip(rows()) {
                let mut acc = [bias; LANES];
                for (&wi, xi) in row.iter().zip(x.chunks_exact(batch)) {
                    for (a, &xv) in acc.iter_mut().zip(&xi[c..c + LANES]) {
                        *a += wi * xv;
                    }
                }
                dst[c..c + LANES].copy_from_slice(&acc);
            }
        }
        for c in blocked..batch {
            for (o, (row, &bias)) in rows().enumerate() {
                out[o * batch + c] = dot(bias, row, column(x, batch, c));
            }
        }
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// Columns the forward kernel accumulates together.
const LANES: usize = 8;

/// Outputs a one-row pass accumulates together.
const BLOCK: usize = 16;

/// What a training step works in, kept between steps: the batch as columns,
/// every layer's output, the back-propagated gradients and one sample's
/// activations.
#[derive(Debug, Default)]
struct TrainScratch {
    /// The batch's inputs and targets, feature-major.
    x: Vec<f64>,
    y: Vec<f64>,
    /// `acts[l]`: layer `l`'s activated output, feature-major.
    acts: Vec<Vec<f64>>,
    /// `inputs[l]`: the input layer `l` saw for the sample being
    /// back-propagated, gathered from its column.
    inputs: Vec<Vec<f64>>,
    delta: Vec<f64>,
    prev: Vec<f64>,
    grad_w: Vec<Vec<f64>>,
    grad_b: Vec<Vec<f64>>,
}

/// A copy starts empty: a step rewrites every buffer before it reads it, so
/// copying a network need not copy them.
impl Clone for TrainScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// A dense feed-forward network trained with Adam on squared error.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
    act: Activation,
    output: Output,
    t: u64,
    train: TrainScratch,
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
            train: TrainScratch::default(),
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
    /// allocates once it has grown to the widest layer. A batch of one.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn predict_into(&self, x: &[f64], out: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        self.predict_batch(x, 1, out, scratch);
    }

    /// Runs the network forward on `batch` inputs at once. `xs` holds them
    /// feature-major (input `i` of sample `c` at `i * batch + c`) and the
    /// outputs are left in `out` the same way; every output has the bits
    /// [`predict`](Self::predict) gives its sample alone. `scratch` holds
    /// the hidden activations; neither buffer allocates once grown.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `xs.len()` is not `batch` times the
    /// input dimension.
    pub fn predict_batch(
        &self,
        xs: &[f64],
        batch: usize,
        out: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
    ) {
        assert!(batch > 0, "empty batch");
        assert_eq!(
            xs.len(),
            self.input_dim() * batch,
            "input dimension mismatch"
        );
        // Layers alternate between the two buffers; start on the one that
        // makes the last layer land in `out`.
        let (mut dst, mut src) = if self.layers.len() % 2 == 1 {
            (out, scratch)
        } else {
            (scratch, out)
        };
        for li in 0..self.layers.len() {
            self.layers[li].forward(if li == 0 { xs } else { src }, batch, dst);
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
        let (mut x, mut y) = (
            std::mem::take(&mut self.train.x),
            std::mem::take(&mut self.train.y),
        );
        let (inp, out) = (self.input_dim(), self.output_dim());
        to_columns(
            xs.iter().map(AsRef::as_ref),
            inp,
            &mut x,
            "input dimension mismatch",
        );
        to_columns(
            ys.iter().map(AsRef::as_ref),
            out,
            &mut y,
            "target dimension mismatch",
        );
        let loss = self.train_columns(&x, &y, xs.len(), lr);
        (self.train.x, self.train.y) = (x, y);
        loss
    }

    /// [`train_batch`](Self::train_batch) on a batch already laid out
    /// feature-major, as [`predict_batch`](Self::predict_batch) takes it:
    /// `xs` holds the inputs, `ys` the targets. The batch goes forward
    /// through the forward kernel, then each sample is back-propagated on
    /// its own, in batch order, so every gradient sums its samples' terms in
    /// the order it always has.
    pub(crate) fn train_columns(&mut self, xs: &[f64], ys: &[f64], batch: usize, lr: f64) -> f64 {
        assert!(batch > 0, "bad batch");
        assert_eq!(
            xs.len(),
            self.input_dim() * batch,
            "input dimension mismatch"
        );
        assert_eq!(
            ys.len(),
            self.output_dim() * batch,
            "target dimension mismatch"
        );
        let n_layers = self.layers.len();
        let mut t = std::mem::take(&mut self.train);
        let TrainScratch {
            acts,
            inputs,
            delta,
            prev,
            grad_w,
            grad_b,
            ..
        } = &mut t;
        acts.resize_with(n_layers, Vec::new);
        inputs.resize_with(n_layers, Vec::new);
        grad_w.resize_with(n_layers, Vec::new);
        grad_b.resize_with(n_layers, Vec::new);
        for (li, layer) in self.layers.iter().enumerate() {
            grad_w[li].clear();
            grad_w[li].resize(layer.w.len(), 0.0);
            grad_b[li].clear();
            grad_b[li].resize(layer.b.len(), 0.0);
        }
        // Forward, keeping every layer's output.
        for li in 0..n_layers {
            let (done, rest) = acts.split_at_mut(li);
            let input = if li == 0 { xs } else { &done[li - 1] };
            self.layers[li].forward(input, batch, &mut rest[0]);
            self.activate(li, &mut rest[0]);
        }
        let mut loss = 0.0;
        for c in 0..batch {
            // This sample's column of every layer's input.
            for (li, input) in inputs.iter_mut().enumerate() {
                input.clear();
                input.extend(column(if li == 0 { xs } else { &acts[li - 1] }, batch, c));
            }
            // d(loss)/d(pre-activation) of the output layer. For sigmoid
            // output with squared error we fold in the sigmoid gradient.
            delta.clear();
            let (out, y) = (column(&acts[n_layers - 1], batch, c), column(ys, batch, c));
            delta.extend(out.zip(y).map(|(o, t)| {
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
                let input = &inputs[li];
                let rows = grad_w[li].chunks_exact_mut(layer.inp);
                for ((row, gb), &d) in rows.zip(&mut grad_b[li]).zip(delta.iter()) {
                    *gb += d;
                    for (g, xi) in row.iter_mut().zip(input) {
                        *g += d * xi;
                    }
                }
                if li > 0 {
                    prev.clear();
                    prev.resize(layer.inp, 0.0);
                    for (&d, row) in delta.iter().zip(layer.w.chunks_exact(layer.inp)) {
                        for (p, wi) in prev.iter_mut().zip(row) {
                            *p += d * wi;
                        }
                    }
                    // Apply hidden activation gradient (in terms of output).
                    for (p, a) in prev.iter_mut().zip(input) {
                        *p *= self.act.grad(*a);
                    }
                    std::mem::swap(delta, prev);
                }
            }
        }

        // Adam update.
        let scale = 1.0 / batch as f64;
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
            layer.transpose();
        }
        self.train = t;
        loss / (batch as f64)
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
            a.wt.copy_from_slice(&b.wt);
            a.b.copy_from_slice(&b.b);
        }
    }
}

/// `bias` plus the products of `row` and `x`, added in order.
#[inline]
fn dot(bias: f64, row: &[f64], x: impl Iterator<Item = f64>) -> f64 {
    let mut acc = bias;
    for (&wi, xv) in row.iter().zip(x) {
        acc += wi * xv;
    }
    acc
}

/// Column `c` of a feature-major batch of `batch`.
fn column(values: &[f64], batch: usize, c: usize) -> impl Iterator<Item = f64> + '_ {
    values.chunks_exact(batch).map(move |v| v[c])
}

/// Lays `rows`, each `width` long, out feature-major in `out`: the batch
/// layout of [`Mlp::predict_batch`].
///
/// # Panics
///
/// Panics with `mismatch` if a row is not `width` long.
pub(crate) fn to_columns<'r>(
    rows: impl ExactSizeIterator<Item = &'r [f64]>,
    width: usize,
    out: &mut Vec<f64>,
    mismatch: &str,
) {
    let batch = rows.len();
    out.clear();
    out.resize(width * batch, 0.0);
    for (c, row) in rows.enumerate() {
        assert_eq!(row.len(), width, "{mismatch}");
        for (slot, &v) in out[c..].iter_mut().step_by(batch).zip(row) {
            *slot = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One layer's pre-activation outputs for one row, each a dot product
    /// started from its bias.
    fn layer_row(layer: &Layer, x: &[f64]) -> Vec<f64> {
        (0..layer.out)
            .map(|o| {
                let mut acc = layer.b[o];
                for (wi, xi) in layer.w[o * layer.inp..(o + 1) * layer.inp].iter().zip(x) {
                    acc += wi * xi;
                }
                acc
            })
            .collect()
    }

    /// One row through the network the textbook way, layer by layer: every
    /// layer's activated output, the last being the network's. The scalar
    /// reference the batched kernel must match bit for bit.
    fn forward_row(net: &Mlp, x: &[f64]) -> Vec<Vec<f64>> {
        let mut acts: Vec<Vec<f64>> = Vec::new();
        for (li, layer) in net.layers.iter().enumerate() {
            let mut out = layer_row(layer, acts.last().map_or(x, Vec::as_slice));
            net.activate(li, &mut out);
            acts.push(out);
        }
        acts
    }

    /// One Adam step the way it was taken before training went through the
    /// batched kernel: every sample forward on its own, then back.
    fn train_rows(net: &mut Mlp, xs: &[Vec<f64>], ys: &[Vec<f64>], lr: f64) -> f64 {
        let n_layers = net.layers.len();
        let mut grad_w: Vec<Vec<f64>> = net.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut grad_b: Vec<Vec<f64>> = net.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        let mut loss = 0.0;
        for (x, y) in xs.iter().zip(ys) {
            // acts[l]: layer l's input; acts[n_layers]: the output.
            let mut acts = vec![x.clone()];
            acts.extend(forward_row(net, x));
            let mut delta: Vec<f64> = acts[n_layers]
                .iter()
                .zip(y)
                .map(|(o, t)| {
                    loss += (o - t) * (o - t);
                    let mut d = 2.0 * (o - t);
                    if net.output == Output::Sigmoid {
                        d *= o * (1.0 - o);
                    }
                    d
                })
                .collect();
            for li in (0..n_layers).rev() {
                let layer = &net.layers[li];
                let input = &acts[li];
                for o in 0..layer.out {
                    grad_b[li][o] += delta[o];
                    for (i, xi) in input.iter().enumerate() {
                        grad_w[li][o * layer.inp + i] += delta[o] * xi;
                    }
                }
                if li > 0 {
                    let mut prev = vec![0.0; layer.inp];
                    for (o, &d) in delta.iter().enumerate() {
                        for (i, p) in prev.iter_mut().enumerate() {
                            *p += d * layer.w[o * layer.inp + i];
                        }
                    }
                    for (p, a) in prev.iter_mut().zip(input) {
                        *p *= net.act.grad(*a);
                    }
                    delta = prev;
                }
            }
        }
        let scale = 1.0 / xs.len() as f64;
        net.t += 1;
        let bc1 = 1.0 - BETA1.powi(net.t as i32);
        let bc2 = 1.0 - BETA2.powi(net.t as i32);
        for (li, layer) in net.layers.iter_mut().enumerate() {
            let params = [
                (&mut layer.w, &mut layer.mw, &mut layer.vw, &grad_w[li]),
                (&mut layer.b, &mut layer.mb, &mut layer.vb, &grad_b[li]),
            ];
            for (p, m, v, grad) in params {
                for (i, g) in grad.iter().enumerate() {
                    let g = g * scale;
                    m[i] = BETA1 * m[i] + (1.0 - BETA1) * g;
                    v[i] = BETA2 * v[i] + (1.0 - BETA2) * g * g;
                    p[i] -= lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + ADAM_EPS);
                }
            }
        }
        loss / xs.len() as f64
    }

    /// A network of random shape and `batch` random rows for it.
    fn random_case(
        widths: &[usize],
        batch: usize,
        act: u8,
        sigmoid: bool,
        seed: u64,
    ) -> (Mlp, Vec<Vec<f64>>) {
        let act = [Activation::Relu, Activation::Tanh][act as usize];
        let output = if sigmoid {
            Output::Sigmoid
        } else {
            Output::Linear
        };
        let mut net = Mlp::new(widths, act, output, seed);
        let mut rng = Rng::seed_from(seed ^ 0xD1FF);
        // Fresh networks have zero biases; these must count too.
        for layer in &mut net.layers {
            layer.b.fill_with(|| rng.next_f64() - 0.5);
        }
        let rows = (0..batch)
            .map(|_| (0..widths[0]).map(|_| rng.next_f64() * 4.0 - 2.0).collect())
            .collect();
        (net, rows)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every output of a batched pass has the bits the scalar forward
        /// gives its row alone, and so does every output of a one-row pass —
        /// for any widths around and across the one-row block, batch sizes
        /// around and across the lane width, both hidden activations and
        /// both heads, on buffers left dirty by a larger batch.
        #[test]
        fn batched_forward_matches_rows(
            widths in proptest::collection::vec(1usize..71, 2..5),
            batch in 1usize..71,
            act in 0u8..2,
            sigmoid in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let (net, rows) = random_case(&widths, batch, act, sigmoid, seed);
            let mut columns = Vec::new();
            to_columns(rows.iter().map(Vec::as_slice), widths[0], &mut columns, "width");
            let (mut out, mut scratch) = (vec![f64::NAN; 5000], vec![f64::NAN; 5000]);
            net.predict_batch(&columns, batch, &mut out, &mut scratch);
            let outputs = widths[widths.len() - 1];
            prop_assert_eq!(out.len(), outputs * batch);
            for (c, row) in rows.iter().enumerate() {
                let want = bits(&forward_row(&net, row).pop().expect("a layer"));
                let got: Vec<u64> = (0..outputs).map(|o| out[o * batch + c].to_bits()).collect();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(bits(&net.predict(row)), want);
            }
        }

        /// A training step through the batched kernel moves every parameter
        /// and Adam moment to the bits the per-sample step does, and
        /// reports the same loss.
        #[test]
        fn batched_training_matches_rows(
            widths in proptest::collection::vec(1usize..12, 2..5),
            batch in 1usize..40,
            act in 0u8..2,
            sigmoid in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let (mut net, rows) = random_case(&widths, batch, act, sigmoid, seed);
            let mut rng = Rng::seed_from(seed ^ 0x7A26);
            let outputs = widths[widths.len() - 1];
            let targets: Vec<Vec<f64>> =
                (0..batch).map(|_| (0..outputs).map(|_| rng.next_f64()).collect()).collect();
            let mut reference = net.clone();
            for step in 0..3 {
                let lr = 0.01 * (step + 1) as f64;
                let got = net.train_batch(&rows, &targets, lr);
                let want = train_rows(&mut reference, &rows, &targets, lr);
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
            for (a, b) in net.layers.iter().zip(&reference.layers) {
                for (x, y) in [(&a.w, &b.w), (&a.b, &b.b), (&a.mw, &b.mw), (&a.vw, &b.vw), (&a.mb, &b.mb), (&a.vb, &b.vb)] {
                    prop_assert_eq!(bits(x), bits(y));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-row pass reads the input-major weights: after every Adam
        /// step, and in a network whose parameters were copied in, it still
        /// has the bits of the scalar forward over the output-major ones.
        #[test]
        fn one_row_forward_follows_parameter_changes(
            widths in proptest::collection::vec(1usize..40, 2..5),
            batch in 1usize..12,
            act in 0u8..2,
            sigmoid in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let (mut net, rows) = random_case(&widths, batch, act, sigmoid, seed);
            let outputs = widths[widths.len() - 1];
            let targets: Vec<Vec<f64>> = (0..batch).map(|c| vec![c as f64 / 8.0; outputs]).collect();
            let check = |net: &Mlp| -> Result<(), proptest::test_runner::TestCaseError> {
                for row in &rows {
                    let want = bits(&forward_row(net, row).pop().expect("a layer"));
                    prop_assert_eq!(bits(&net.predict(row)), want);
                }
                Ok(())
            };
            for _ in 0..3 {
                net.train_batch(&rows, &targets, 0.05);
                check(&net)?;
            }
            let (act, output) = (net.act, net.output);
            let mut copy = Mlp::new(&widths, act, output, seed ^ 0xC0);
            copy.copy_params_from(&net);
            check(&copy)?;
        }
    }

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
