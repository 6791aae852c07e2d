//! The layer framework: typed signals, per-sample forward caches, and exact
//! backward passes that accumulate parameter gradients.
//!
//! Layers process one sample at a time (mini-batch gradients are averaged by
//! [`crate::Sequential`]); a forward pass returns both the output signal and
//! a [`Cache`] holding exactly what the backward pass needs. Flat layers
//! also run a whole mini-batch at once, one sample per matrix row
//! ([`Layer::forward_flat_batch`], [`Layer::backward_flat_batch`]), with
//! the same bits as the per-sample passes.

use std::cell::RefCell;
use std::fmt;

use hieradmo_tensor::{conv, kernels, ops, Matrix, Tensor4, Vector};

/// A value flowing between layers: either a flat vector or a single-sample
/// NCHW image tensor (`n = 1`).
#[derive(Debug, Clone)]
pub enum Signal {
    /// Flat activation vector.
    Flat(Vector),
    /// Image activations, batch dimension always 1.
    Image(Tensor4),
}

impl Signal {
    /// Unwraps a flat signal.
    ///
    /// # Panics
    ///
    /// Panics if the signal is an image.
    pub fn expect_flat(&self) -> &Vector {
        match self {
            Signal::Flat(v) => v,
            Signal::Image(t) => panic!("expected flat signal, got image {:?}", t.shape()),
        }
    }

    /// Unwraps an image signal.
    ///
    /// # Panics
    ///
    /// Panics if the signal is flat.
    pub fn expect_image(&self) -> &Tensor4 {
        match self {
            Signal::Image(t) => t,
            Signal::Flat(v) => panic!("expected image signal, got flat of len {}", v.len()),
        }
    }

    /// Shape descriptor of this signal.
    pub fn shape(&self) -> SignalShape {
        match self {
            Signal::Flat(v) => SignalShape::Flat(v.len()),
            Signal::Image(t) => {
                let (_, c, h, w) = t.shape();
                SignalShape::Image {
                    channels: c,
                    height: h,
                    width: w,
                }
            }
        }
    }
}

/// Static shape of a [`Signal`], used to validate layer stacks at
/// construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalShape {
    /// Flat vector of the given length.
    Flat(usize),
    /// Single-sample image.
    Image {
        /// Channels.
        channels: usize,
        /// Height.
        height: usize,
        /// Width.
        width: usize,
    },
}

impl SignalShape {
    /// Total number of scalars.
    pub fn len(&self) -> usize {
        match *self {
            SignalShape::Flat(d) => d,
            SignalShape::Image {
                channels,
                height,
                width,
            } => channels * height * width,
        }
    }

    /// Returns `true` for a zero-length shape.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Forward-pass cache consumed by the matching backward pass.
#[derive(Debug, Clone)]
pub enum Cache {
    /// Dense layer: the input vector.
    Dense(Vector),
    /// ReLU: the pre-activation input.
    Relu(Signal),
    /// Convolution: the input tensor.
    Conv(Tensor4),
    /// Max pooling: input shape and winner indices.
    MaxPool {
        /// Input tensor shape.
        shape: (usize, usize, usize, usize),
        /// Flat index of each pooled maximum.
        argmax: Vec<usize>,
    },
    /// Global average pooling: the input shape.
    GlobalAvgPool((usize, usize, usize, usize)),
    /// Flatten: the input shape.
    Flatten((usize, usize, usize, usize)),
    /// Residual block: caches of the body, optional projection cache, and
    /// the pre-activation sum.
    Residual {
        /// Caches of body layers, in forward order.
        body: Vec<Cache>,
        /// Cache of the 1×1 projection conv, when present.
        projection: Option<Box<Cache>>,
        /// `body(x) + skip(x)` before the final ReLU.
        sum: Tensor4,
    },
}

/// A neural-network layer with exact analytic gradients.
///
/// Parameter I/O uses a deterministic flat layout so that
/// [`crate::Sequential`] can expose the whole network as one flat vector:
/// `write_params` appends this layer's parameters and `read_params` consumes
/// the same number of leading values from `src`.
///
/// `backward` **accumulates** (`+=`) into `grad_params` — callers zero the
/// buffer once per mini-batch and divide by the batch size afterwards.
pub trait Layer: fmt::Debug + Send {
    /// Number of trainable parameters in this layer.
    fn param_len(&self) -> usize;

    /// Appends this layer's parameters to `out` in layout order.
    fn write_params(&self, out: &mut Vec<f32>);

    /// Loads parameters from the front of `src`; returns how many values
    /// were consumed (always equal to [`Layer::param_len`]).
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than `param_len()`.
    fn read_params(&mut self, src: &[f32]) -> usize;

    /// Forward pass for one sample.
    ///
    /// # Panics
    ///
    /// Panics if the input signal kind/shape is incompatible.
    fn forward(&self, input: &Signal) -> (Signal, Cache);

    /// Backward pass: given the forward cache and the upstream gradient,
    /// accumulates parameter gradients into `grad_params` (this layer's
    /// segment, length `param_len()`) and returns the gradient w.r.t. the
    /// layer input.
    ///
    /// # Panics
    ///
    /// Panics if the cache variant does not belong to this layer or
    /// `grad_params.len() != param_len()`.
    fn backward(&self, cache: &Cache, grad_out: &Signal, grad_params: &mut [f32]) -> Signal;

    /// Output shape for a given input shape (construction-time validation).
    ///
    /// # Panics
    ///
    /// Panics if the input shape is incompatible with the layer.
    fn output_shape(&self, input: SignalShape) -> SignalShape;

    /// Whether this layer, fed `input`, participates in
    /// [`crate::Sequential`]'s batched flat path, which stacks a
    /// mini-batch's activations into one row-major matrix (one sample per
    /// row) and runs each dense product as a single GEMM instead of
    /// per-sample `matvec`s.
    ///
    /// A layer may opt in only if (a) it maps `input` to a flat signal,
    /// (b) every row of [`Layer::forward_flat_batch`]'s output is bitwise
    /// identical to [`Layer::forward`] of that row, and (c)
    /// [`Layer::backward_flat_batch`] accumulates bitwise what
    /// [`Layer::backward`] would over the rows in ascending order — the
    /// determinism suites pin full-run bit equality on top of this
    /// contract.
    fn supports_flat_batch(&self, _input: SignalShape) -> bool {
        false
    }

    /// Batched flat forward: `inputs` holds one sample per row; writes one
    /// output row per sample into `out` (pre-sized by the caller). Only
    /// called when [`Layer::supports_flat_batch`] is `true`.
    ///
    /// # Panics
    ///
    /// Panics if the layer has no batched form or the shapes mismatch.
    fn forward_flat_batch(&self, _inputs: &Matrix, _out: &mut Matrix) {
        panic!("layer has no batched flat forward");
    }

    /// Batched flat backward over the rows of `inputs` (this layer's
    /// forward inputs) and `grad_out` (the upstream gradient rows):
    /// accumulates parameter gradients into `grad_params` exactly as
    /// [`Layer::backward`] would over the samples in ascending row order,
    /// and writes the input-gradient rows into `grad_in` (pre-sized by the
    /// caller) when given — callers pass `None` where no lower layer
    /// consumes it. Only called when [`Layer::supports_flat_batch`] is
    /// `true`.
    ///
    /// # Panics
    ///
    /// Panics if the layer has no batched form or the shapes mismatch.
    fn backward_flat_batch(
        &self,
        _inputs: &Matrix,
        _grad_out: &Matrix,
        _grad_params: &mut [f32],
        _grad_in: Option<&mut Matrix>,
    ) {
        panic!("layer has no batched flat backward");
    }

    /// Clones the layer into a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

/// Fully-connected layer `y = W·x + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    w: Matrix,
    b: Vector,
}

impl Dense {
    /// Creates a dense layer from a weight matrix and bias.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != w.rows()`.
    pub fn new(w: Matrix, b: Vector) -> Self {
        assert_eq!(b.len(), w.rows(), "dense bias/row mismatch");
        Dense { w, b }
    }

    /// Input dimension.
    pub fn fan_in(&self) -> usize {
        self.w.cols()
    }

    /// Output dimension.
    pub fn fan_out(&self) -> usize {
        self.w.rows()
    }
}

impl Layer for Dense {
    fn param_len(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.w.as_slice());
        out.extend_from_slice(self.b.as_slice());
    }

    fn read_params(&mut self, src: &[f32]) -> usize {
        let (wn, bn) = (self.w.len(), self.b.len());
        assert!(src.len() >= wn + bn, "dense read_params underflow");
        self.w.as_mut_slice().copy_from_slice(&src[..wn]);
        self.b.as_mut_slice().copy_from_slice(&src[wn..wn + bn]);
        wn + bn
    }

    fn forward(&self, input: &Signal) -> (Signal, Cache) {
        let x = input.expect_flat();
        let mut y = self.w.matvec(x);
        y += &self.b;
        (Signal::Flat(y), Cache::Dense(x.clone()))
    }

    fn backward(&self, cache: &Cache, grad_out: &Signal, grad_params: &mut [f32]) -> Signal {
        let x = match cache {
            Cache::Dense(x) => x,
            other => panic!("dense backward got wrong cache: {other:?}"),
        };
        let g = grad_out.expect_flat();
        assert_eq!(grad_params.len(), self.param_len(), "dense grad segment");
        let wn = self.w.len();
        // grad_w += g xᵀ (accumulate straight into the flat segment).
        let cols = self.w.cols();
        for (r, &gr) in g.iter().enumerate() {
            if gr == 0.0 {
                continue;
            }
            let row = &mut grad_params[r * cols..(r + 1) * cols];
            kernels::axpy(row, gr, x.as_slice());
        }
        // grad_b += g
        for (dst, &gv) in grad_params[wn..].iter_mut().zip(g.iter()) {
            *dst += gv;
        }
        Signal::Flat(self.w.matvec_transposed(g))
    }

    fn output_shape(&self, input: SignalShape) -> SignalShape {
        assert_eq!(
            input,
            SignalShape::Flat(self.w.cols()),
            "dense layer expects flat input of {}",
            self.w.cols()
        );
        SignalShape::Flat(self.w.rows())
    }

    fn supports_flat_batch(&self, input: SignalShape) -> bool {
        matches!(input, SignalShape::Flat(_))
    }

    fn forward_flat_batch(&self, inputs: &Matrix, out: &mut Matrix) {
        let (n, k, m) = (inputs.rows(), inputs.cols(), self.w.rows());
        assert_eq!(k, self.w.cols(), "dense batch input width mismatch");
        assert_eq!((out.rows(), out.cols()), (n, m), "dense batch out shape");
        // One GEMM for the whole mini-batch: `W` is already row-major
        // `m × k`, i.e. the transposed right-hand side `matmul_bt` wants.
        // Each output element is `dot(sample_row, w_row)` — bitwise equal
        // to `matvec`'s `dot(w_row, sample_row)` since the lane-level
        // multiply commutes — and the bias add is the same `axpy(1.0, b)`
        // call `forward` issues per sample.
        kernels::matmul_bt(
            inputs.as_slice(),
            self.w.as_slice(),
            out.as_mut_slice(),
            n,
            m,
            k,
        );
        for s in 0..n {
            kernels::axpy(
                &mut out.as_mut_slice()[s * m..(s + 1) * m],
                1.0,
                self.b.as_slice(),
            );
        }
    }

    fn backward_flat_batch(
        &self,
        inputs: &Matrix,
        grad_out: &Matrix,
        grad_params: &mut [f32],
        grad_in: Option<&mut Matrix>,
    ) {
        let (n, k, m) = (inputs.rows(), inputs.cols(), self.w.rows());
        assert_eq!(k, self.w.cols(), "dense batch input width mismatch");
        assert_eq!(
            (grad_out.rows(), grad_out.cols()),
            (n, m),
            "dense batch grad shape"
        );
        assert_eq!(grad_params.len(), self.param_len(), "dense grad segment");
        let (grad_w, grad_b) = grad_params.split_at_mut(self.w.len());
        // grad_W += Gᵀ·X: row `r` receives `g[s][r] · x_s` for samples `s`
        // ascending, skipping zero entries — `backward`'s per-sample axpy
        // sequence, element for element.
        let gt = grad_out.transposed();
        kernels::matmul_acc(grad_w, gt.as_slice(), inputs.as_slice(), m, n, k);
        // grad_b += g, one sample at a time.
        for g in grad_out.as_slice().chunks_exact(m) {
            for (dst, &gv) in grad_b.iter_mut().zip(g) {
                *dst += gv;
            }
        }
        // Input gradient: row `s` is `matvec_transposed(g_s)` — the same
        // zero-skipping axpy sequence from a zeroed row.
        if let Some(gi) = grad_in {
            assert_eq!((gi.rows(), gi.cols()), (n, k), "dense batch grad_in shape");
            gi.as_mut_slice().fill(0.0);
            kernels::matmul_acc(
                gi.as_mut_slice(),
                grad_out.as_slice(),
                self.w.as_slice(),
                n,
                m,
                k,
            );
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

/// Element-wise ReLU over either signal kind.
#[derive(Debug, Clone, Default)]
pub struct Relu;

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu
    }
}

impl Layer for Relu {
    fn param_len(&self) -> usize {
        0
    }
    fn write_params(&self, _out: &mut Vec<f32>) {}
    fn read_params(&mut self, _src: &[f32]) -> usize {
        0
    }

    fn forward(&self, input: &Signal) -> (Signal, Cache) {
        let out = match input {
            Signal::Flat(v) => Signal::Flat(ops::relu(v)),
            Signal::Image(t) => {
                let mut o = t.clone();
                ops::relu_in_place(o.as_mut_slice());
                Signal::Image(o)
            }
        };
        (out, Cache::Relu(input.clone()))
    }

    fn backward(&self, cache: &Cache, grad_out: &Signal, _grad_params: &mut [f32]) -> Signal {
        let input = match cache {
            Cache::Relu(s) => s,
            other => panic!("relu backward got wrong cache: {other:?}"),
        };
        match (input, grad_out) {
            (Signal::Flat(x), Signal::Flat(g)) => Signal::Flat(ops::relu_backward(x, g)),
            (Signal::Image(x), Signal::Image(g)) => {
                let mut out = g.clone();
                for (o, &xv) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    if xv <= 0.0 {
                        *o = 0.0;
                    }
                }
                Signal::Image(out)
            }
            _ => panic!("relu backward signal kind mismatch"),
        }
    }

    fn output_shape(&self, input: SignalShape) -> SignalShape {
        input
    }

    /// Flat inputs only: an image ReLU runs `relu_in_place`, which keeps
    /// `-0.0` and NaN where the flat `max(0.0)` does not.
    fn supports_flat_batch(&self, input: SignalShape) -> bool {
        matches!(input, SignalShape::Flat(_))
    }

    fn forward_flat_batch(&self, inputs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            (out.rows(), out.cols()),
            (inputs.rows(), inputs.cols()),
            "relu batch shape"
        );
        // Same `max(0.0)` expression as `ops::relu`, element for element.
        for (o, &x) in out.as_mut_slice().iter_mut().zip(inputs.as_slice()) {
            *o = x.max(0.0);
        }
    }

    fn backward_flat_batch(
        &self,
        inputs: &Matrix,
        grad_out: &Matrix,
        _grad_params: &mut [f32],
        grad_in: Option<&mut Matrix>,
    ) {
        let Some(gi) = grad_in else { return };
        assert_eq!(
            (gi.rows(), gi.cols()),
            (grad_out.rows(), grad_out.cols()),
            "relu batch grad_in shape"
        );
        // Same mask as `ops::relu_backward`, element for element.
        for ((o, &g), &x) in gi
            .as_mut_slice()
            .iter_mut()
            .zip(grad_out.as_slice())
            .zip(inputs.as_slice())
        {
            *o = if x > 0.0 { g } else { 0.0 };
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Conv
// ---------------------------------------------------------------------------

/// 2-D convolution, stride 1, symmetric zero padding.
///
/// Each layer instance carries its own [`conv::Im2colScratch`] so the
/// im2col patch/product buffers are recycled across forward passes —
/// model replicas are per-thread (`Layer` is `Send`, not `Sync`), so the
/// `RefCell` is never contended.
#[derive(Debug)]
pub struct Conv {
    w: Tensor4,
    b: Vec<f32>,
    pad: usize,
    scratch: RefCell<conv::Im2colScratch>,
}

impl Clone for Conv {
    fn clone(&self) -> Self {
        // Fresh (empty) scratch: each replica grows its own buffers.
        Conv {
            w: self.w.clone(),
            b: self.b.clone(),
            pad: self.pad,
            scratch: RefCell::new(conv::Im2colScratch::new()),
        }
    }
}

impl Conv {
    /// Creates a convolution from a `(c_out, c_in, kh, kw)` kernel, per-
    /// output-channel bias, and padding.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != c_out`.
    pub fn new(w: Tensor4, b: Vec<f32>, pad: usize) -> Self {
        assert_eq!(b.len(), w.n(), "conv bias length mismatch");
        Conv {
            w,
            b,
            pad,
            scratch: RefCell::new(conv::Im2colScratch::new()),
        }
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.w.n()
    }
}

impl Layer for Conv {
    fn param_len(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.w.as_slice());
        out.extend_from_slice(&self.b);
    }

    fn read_params(&mut self, src: &[f32]) -> usize {
        let (wn, bn) = (self.w.len(), self.b.len());
        assert!(src.len() >= wn + bn, "conv read_params underflow");
        self.w.as_mut_slice().copy_from_slice(&src[..wn]);
        self.b.copy_from_slice(&src[wn..wn + bn]);
        wn + bn
    }

    fn forward(&self, input: &Signal) -> (Signal, Cache) {
        let x = input.expect_image();
        let mut y = Tensor4::zeros(0, 0, 0, 0);
        conv::conv2d_forward_into(
            x,
            &self.w,
            &self.b,
            self.pad,
            &mut self.scratch.borrow_mut(),
            &mut y,
        );
        (Signal::Image(y), Cache::Conv(x.clone()))
    }

    fn backward(&self, cache: &Cache, grad_out: &Signal, grad_params: &mut [f32]) -> Signal {
        let x = match cache {
            Cache::Conv(x) => x,
            other => panic!("conv backward got wrong cache: {other:?}"),
        };
        let g = grad_out.expect_image();
        assert_eq!(grad_params.len(), self.param_len(), "conv grad segment");
        let (gi, gw, gb) = conv::conv2d_backward(x, &self.w, self.pad, g);
        let wn = self.w.len();
        for (dst, &v) in grad_params[..wn].iter_mut().zip(gw.as_slice()) {
            *dst += v;
        }
        for (dst, &v) in grad_params[wn..].iter_mut().zip(gb.iter()) {
            *dst += v;
        }
        Signal::Image(gi)
    }

    fn output_shape(&self, input: SignalShape) -> SignalShape {
        let (channels, height, width) = match input {
            SignalShape::Image {
                channels,
                height,
                width,
            } => (channels, height, width),
            other => panic!("conv expects image input, got {other:?}"),
        };
        let (c_out, c_in, kh, kw) = self.w.shape();
        assert_eq!(channels, c_in, "conv input channel mismatch");
        SignalShape::Image {
            channels: c_out,
            height: height + 2 * self.pad - kh + 1,
            width: width + 2 * self.pad - kw + 1,
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// MaxPool2
// ---------------------------------------------------------------------------

/// 2×2 max pooling, stride 2.
#[derive(Debug, Clone, Default)]
pub struct MaxPool2;

impl MaxPool2 {
    /// Creates a 2×2 max-pool layer.
    pub fn new() -> Self {
        MaxPool2
    }
}

impl Layer for MaxPool2 {
    fn param_len(&self) -> usize {
        0
    }
    fn write_params(&self, _out: &mut Vec<f32>) {}
    fn read_params(&mut self, _src: &[f32]) -> usize {
        0
    }

    fn forward(&self, input: &Signal) -> (Signal, Cache) {
        let x = input.expect_image();
        let res = conv::max_pool2x2_forward(x);
        (
            Signal::Image(res.output),
            Cache::MaxPool {
                shape: x.shape(),
                argmax: res.argmax,
            },
        )
    }

    fn backward(&self, cache: &Cache, grad_out: &Signal, _grad_params: &mut [f32]) -> Signal {
        let (shape, argmax) = match cache {
            Cache::MaxPool { shape, argmax } => (*shape, argmax),
            other => panic!("maxpool backward got wrong cache: {other:?}"),
        };
        Signal::Image(conv::max_pool2x2_backward(
            shape,
            argmax,
            grad_out.expect_image(),
        ))
    }

    fn output_shape(&self, input: SignalShape) -> SignalShape {
        match input {
            SignalShape::Image {
                channels,
                height,
                width,
            } => {
                assert!(height >= 2 && width >= 2, "maxpool needs ≥2x2 input");
                SignalShape::Image {
                    channels,
                    height: height / 2,
                    width: width / 2,
                }
            }
            other => panic!("maxpool expects image input, got {other:?}"),
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// GlobalAvgPool
// ---------------------------------------------------------------------------

/// Global average pooling producing a flat per-channel vector (ResNet head).
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool;

impl GlobalAvgPool {
    /// Creates a global-average-pool layer.
    pub fn new() -> Self {
        GlobalAvgPool
    }
}

impl Layer for GlobalAvgPool {
    fn param_len(&self) -> usize {
        0
    }
    fn write_params(&self, _out: &mut Vec<f32>) {}
    fn read_params(&mut self, _src: &[f32]) -> usize {
        0
    }

    fn forward(&self, input: &Signal) -> (Signal, Cache) {
        let x = input.expect_image();
        let pooled = conv::global_avg_pool_forward(x);
        let flat = pooled.flatten_sample(0);
        (Signal::Flat(flat), Cache::GlobalAvgPool(x.shape()))
    }

    fn backward(&self, cache: &Cache, grad_out: &Signal, _grad_params: &mut [f32]) -> Signal {
        let shape = match cache {
            Cache::GlobalAvgPool(s) => *s,
            other => panic!("gap backward got wrong cache: {other:?}"),
        };
        let g = grad_out.expect_flat();
        let (_, c, _, _) = shape;
        assert_eq!(g.len(), c, "gap upstream gradient length");
        let gt = Tensor4::from_data(1, c, 1, 1, g.as_slice().to_vec());
        Signal::Image(conv::global_avg_pool_backward(shape, &gt))
    }

    fn output_shape(&self, input: SignalShape) -> SignalShape {
        match input {
            SignalShape::Image { channels, .. } => SignalShape::Flat(channels),
            other => panic!("gap expects image input, got {other:?}"),
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------------

/// Flattens an image signal to a vector (CNN conv→fc boundary).
#[derive(Debug, Clone, Default)]
pub struct Flatten;

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten
    }
}

impl Layer for Flatten {
    fn param_len(&self) -> usize {
        0
    }
    fn write_params(&self, _out: &mut Vec<f32>) {}
    fn read_params(&mut self, _src: &[f32]) -> usize {
        0
    }

    fn forward(&self, input: &Signal) -> (Signal, Cache) {
        let x = input.expect_image();
        (Signal::Flat(x.flatten_sample(0)), Cache::Flatten(x.shape()))
    }

    fn backward(&self, cache: &Cache, grad_out: &Signal, _grad_params: &mut [f32]) -> Signal {
        let (_, c, h, w) = match cache {
            Cache::Flatten(s) => *s,
            other => panic!("flatten backward got wrong cache: {other:?}"),
        };
        Signal::Image(Tensor4::from_flat_sample(grad_out.expect_flat(), c, h, w))
    }

    fn output_shape(&self, input: SignalShape) -> SignalShape {
        match input {
            SignalShape::Image { .. } => SignalShape::Flat(input.len()),
            other => panic!("flatten expects image input, got {other:?}"),
        }
    }

    /// A row-major image row already is its flattened vector, so the
    /// batched form is an identity copy.
    fn supports_flat_batch(&self, _input: SignalShape) -> bool {
        true
    }

    fn forward_flat_batch(&self, inputs: &Matrix, out: &mut Matrix) {
        out.as_mut_slice().copy_from_slice(inputs.as_slice());
    }

    fn backward_flat_batch(
        &self,
        _inputs: &Matrix,
        grad_out: &Matrix,
        _grad_params: &mut [f32],
        grad_in: Option<&mut Matrix>,
    ) {
        if let Some(gi) = grad_in {
            gi.as_mut_slice().copy_from_slice(grad_out.as_slice());
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Residual
// ---------------------------------------------------------------------------

/// A ResNet basic block: `out = relu(body(x) + skip(x))` where `body` is
/// `conv3x3 → relu → conv3x3` and `skip` is identity or a 1×1 projection
/// conv when the channel count changes.
#[derive(Debug, Clone)]
pub struct Residual {
    body: Vec<Box<dyn Layer>>,
    projection: Option<Conv>,
}

impl Residual {
    /// Creates a residual block from body layers and an optional projection.
    ///
    /// The body must map an image to an image of the same spatial size as
    /// the skip path's output (validated at stack-construction time through
    /// [`Layer::output_shape`]).
    pub fn new(body: Vec<Box<dyn Layer>>, projection: Option<Conv>) -> Self {
        assert!(!body.is_empty(), "residual body cannot be empty");
        Residual { body, projection }
    }
}

impl Layer for Residual {
    fn param_len(&self) -> usize {
        self.body.iter().map(|l| l.param_len()).sum::<usize>()
            + self.projection.as_ref().map_or(0, Layer::param_len)
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        for l in &self.body {
            l.write_params(out);
        }
        if let Some(p) = &self.projection {
            p.write_params(out);
        }
    }

    fn read_params(&mut self, src: &[f32]) -> usize {
        let mut off = 0;
        for l in &mut self.body {
            off += l.read_params(&src[off..]);
        }
        if let Some(p) = &mut self.projection {
            off += p.read_params(&src[off..]);
        }
        off
    }

    fn forward(&self, input: &Signal) -> (Signal, Cache) {
        let mut caches = Vec::with_capacity(self.body.len());
        let mut sig = input.clone();
        for l in &self.body {
            let (next, cache) = l.forward(&sig);
            sig = next;
            caches.push(cache);
        }
        let body_out = sig.expect_image().clone();
        let (skip, proj_cache) = match &self.projection {
            Some(p) => {
                let (s, c) = p.forward(input);
                (s.expect_image().clone(), Some(Box::new(c)))
            }
            None => (input.expect_image().clone(), None),
        };
        assert_eq!(
            body_out.shape(),
            skip.shape(),
            "residual body/skip shape mismatch"
        );
        let mut sum = body_out;
        for (s, &k) in sum.as_mut_slice().iter_mut().zip(skip.as_slice()) {
            *s += k;
        }
        let mut out = sum.clone();
        ops::relu_in_place(out.as_mut_slice());
        (
            Signal::Image(out),
            Cache::Residual {
                body: caches,
                projection: proj_cache,
                sum,
            },
        )
    }

    fn backward(&self, cache: &Cache, grad_out: &Signal, grad_params: &mut [f32]) -> Signal {
        let (body_caches, proj_cache, sum) = match cache {
            Cache::Residual {
                body,
                projection,
                sum,
            } => (body, projection, sum),
            other => panic!("residual backward got wrong cache: {other:?}"),
        };
        let g_out = grad_out.expect_image();
        // Through the final ReLU (mask by pre-activation sum).
        let mut g_sum = g_out.clone();
        for (g, &s) in g_sum.as_mut_slice().iter_mut().zip(sum.as_slice()) {
            if s <= 0.0 {
                *g = 0.0;
            }
        }
        let g_sum = Signal::Image(g_sum);

        // Body chain, in reverse, slicing the shared grad segment.
        let body_lens: Vec<usize> = self.body.iter().map(|l| l.param_len()).collect();
        let body_total: usize = body_lens.iter().sum();
        let mut offsets = Vec::with_capacity(self.body.len());
        let mut acc = 0;
        for &len in &body_lens {
            offsets.push(acc);
            acc += len;
        }
        let mut g = g_sum.clone();
        for i in (0..self.body.len()).rev() {
            let seg = &mut grad_params[offsets[i]..offsets[i] + body_lens[i]];
            g = self.body[i].backward(&body_caches[i], &g, seg);
        }
        let g_body_input = g.expect_image().clone();

        // Skip path.
        let g_skip_input = match (&self.projection, proj_cache) {
            (Some(p), Some(c)) => {
                let seg = &mut grad_params[body_total..];
                p.backward(c, &g_sum, seg).expect_image().clone()
            }
            (None, None) => g_sum.expect_image().clone(),
            _ => panic!("residual projection/cache mismatch"),
        };

        let mut g_in = g_body_input;
        for (a, &b) in g_in.as_mut_slice().iter_mut().zip(g_skip_input.as_slice()) {
            *a += b;
        }
        Signal::Image(g_in)
    }

    fn output_shape(&self, input: SignalShape) -> SignalShape {
        let mut shape = input;
        for l in &self.body {
            shape = l.output_shape(shape);
        }
        if let Some(p) = &self.projection {
            let skip = p.output_shape(input);
            assert_eq!(shape, skip, "residual body/projection shape mismatch");
        } else {
            assert_eq!(shape, input, "identity residual must preserve shape");
        }
        shape
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(5)
    }

    #[test]
    fn dense_forward_backward_shapes() {
        let mut r = rng();
        let d = Dense::new(
            hieradmo_tensor::init::xavier_matrix(&mut r, 3, 4),
            Vector::zeros(3),
        );
        assert_eq!(d.param_len(), 15);
        let x = Signal::Flat(Vector::from(vec![1.0, 2.0, 3.0, 4.0]));
        let (y, cache) = d.forward(&x);
        assert_eq!(y.expect_flat().len(), 3);
        let mut gp = vec![0.0; 15];
        let gi = d.backward(
            &cache,
            &Signal::Flat(Vector::from(vec![1.0, 0.0, 0.0])),
            &mut gp,
        );
        assert_eq!(gi.expect_flat().len(), 4);
        // grad_b for the first output must be 1.
        assert_eq!(gp[12], 1.0);
        // grad_w row 0 is the input.
        assert_eq!(&gp[0..4], &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn param_roundtrip_dense_conv_residual() {
        let mut r = rng();
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Dense::new(
                hieradmo_tensor::init::xavier_matrix(&mut r, 2, 3),
                Vector::from(vec![0.5, -0.5]),
            )),
            Box::new(Conv::new(
                hieradmo_tensor::init::he_conv(&mut r, 2, 1, 3, 3),
                vec![0.1, 0.2],
                1,
            )),
        ];
        for mut l in layers {
            let mut out = Vec::new();
            l.write_params(&mut out);
            assert_eq!(out.len(), l.param_len());
            let mutated: Vec<f32> = out.iter().map(|v| v + 1.0).collect();
            let consumed = l.read_params(&mutated);
            assert_eq!(consumed, l.param_len());
            let mut back = Vec::new();
            l.write_params(&mut back);
            assert_eq!(back, mutated);
        }
    }

    #[test]
    fn relu_layer_both_kinds() {
        let r = Relu::new();
        let (y, c) = r.forward(&Signal::Flat(Vector::from(vec![-1.0, 2.0])));
        assert_eq!(y.expect_flat().as_slice(), &[0.0, 2.0]);
        let g = r.backward(&c, &Signal::Flat(Vector::from(vec![3.0, 3.0])), &mut []);
        assert_eq!(g.expect_flat().as_slice(), &[0.0, 3.0]);

        let img = Tensor4::from_data(1, 1, 1, 2, vec![-1.0, 2.0]);
        let (y, c) = r.forward(&Signal::Image(img));
        assert_eq!(y.expect_image().as_slice(), &[0.0, 2.0]);
        let gimg = Tensor4::from_data(1, 1, 1, 2, vec![5.0, 5.0]);
        let g = r.backward(&c, &Signal::Image(gimg), &mut []);
        assert_eq!(g.expect_image().as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn flatten_round_trip() {
        let f = Flatten::new();
        let img = Tensor4::from_data(1, 2, 1, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let (y, c) = f.forward(&Signal::Image(img));
        assert_eq!(y.expect_flat().len(), 4);
        let g = f.backward(&c, &y, &mut []);
        assert_eq!(g.expect_image().shape(), (1, 2, 1, 2));
    }

    #[test]
    fn residual_identity_block_gradcheck_shape() {
        let mut r = rng();
        let body: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv::new(
                hieradmo_tensor::init::he_conv(&mut r, 2, 2, 3, 3),
                vec![0.0; 2],
                1,
            )),
            Box::new(Relu::new()),
            Box::new(Conv::new(
                hieradmo_tensor::init::he_conv(&mut r, 2, 2, 3, 3),
                vec![0.0; 2],
                1,
            )),
        ];
        let block = Residual::new(body, None);
        let shape = SignalShape::Image {
            channels: 2,
            height: 4,
            width: 4,
        };
        assert_eq!(block.output_shape(shape), shape);

        let x = Tensor4::from_data(
            1,
            2,
            4,
            4,
            (0..32).map(|i| (i as f32 * 0.1).sin()).collect(),
        );
        let (y, cache) = block.forward(&Signal::Image(x));
        assert_eq!(y.expect_image().shape(), (1, 2, 4, 4));
        let go = Tensor4::from_data(1, 2, 4, 4, vec![1.0; 32]);
        let mut gp = vec![0.0; block.param_len()];
        let gi = block.backward(&cache, &Signal::Image(go), &mut gp);
        assert_eq!(gi.expect_image().shape(), (1, 2, 4, 4));
        assert!(gp.iter().any(|&v| v != 0.0), "gradients must flow");
    }

    #[test]
    fn residual_projection_changes_channels() {
        let mut r = rng();
        let body: Vec<Box<dyn Layer>> = vec![Box::new(Conv::new(
            hieradmo_tensor::init::he_conv(&mut r, 4, 2, 3, 3),
            vec![0.0; 4],
            1,
        ))];
        let proj = Conv::new(
            hieradmo_tensor::init::he_conv(&mut r, 4, 2, 1, 1),
            vec![0.0; 4],
            0,
        );
        let block = Residual::new(body, Some(proj));
        let shape = SignalShape::Image {
            channels: 2,
            height: 4,
            width: 4,
        };
        let out = block.output_shape(shape);
        assert_eq!(
            out,
            SignalShape::Image {
                channels: 4,
                height: 4,
                width: 4
            }
        );
    }

    #[test]
    #[should_panic(expected = "expected flat signal")]
    fn dense_rejects_image_input() {
        let mut r = rng();
        let d = Dense::new(
            hieradmo_tensor::init::xavier_matrix(&mut r, 2, 2),
            Vector::zeros(2),
        );
        let img = Tensor4::zeros(1, 1, 2, 1);
        let _ = d.forward(&Signal::Image(img));
    }
}
