//! Multi-lane compute kernels for the training hot path.
//!
//! Every HierAdMo run spends almost all of its wall-clock in a handful of
//! `f32` primitives: the dense products behind `loss_and_grad_into`, the
//! im2col convolution path, and the BLAS-1 vector ops that implement the
//! worker-NAG step (Algorithm 1 lines 5–6) and the edge/cloud aggregations
//! (lines 11–13, 18–23). The naive forms of these loops are single
//! serial FMA dependency chains — one accumulator per output — which caps
//! throughput at one multiply-add per FMA latency. The kernels here break
//! that chain into [`LANES`] *independent* accumulators over
//! `chunks_exact(LANES)` so the autovectorizer can keep every SIMD lane and
//! execution port busy on stable Rust; the hottest kernels add an AVX2
//! path on top (see below).
//!
//! # Determinism contract
//!
//! Each kernel uses a **fixed summation order** that depends only on the
//! input lengths — never on thread count, alignment, or runtime CPU
//! detection — so results are bitwise reproducible run-to-run on the same
//! build. The order is *not* the naive left-to-right order: a reduction
//! over `n` elements is split into `LANES` strided partial sums plus a
//! serial tail, then combined by a fixed balanced tree (see
//! `reduce_lanes`). Reference tests therefore compare against naive
//! oracles within a relative tolerance instead of expecting bit equality,
//! while thread-count invariance (what `tests/parallel_determinism.rs`
//! pins) is untouched: the same kernel with the same input produces the
//! same bits no matter which thread runs it.
//!
//! The matmul micro-kernel ([`matmul_bt`]) computes every output element
//! with *exactly* the same per-element order as [`dot`], whether the
//! element lands in a full register tile or on a remainder edge, so
//! `matmul` results never depend on how the output space was tiled.
//! [`matmul_scaled`], the dense layer's batched backward, builds each
//! output element from `+0.0` as the ascending, zero-skipping sequence of
//! [`axpy`] calls the per-sample backward issues, and scales it once as
//! it is stored.
//!
//! # Batched aggregation kernels and runtime dispatch
//!
//! The K-worker aggregation path has its own kernel family
//! ([`weighted_sum_batch`], [`fused_aggregate_momentum`],
//! [`momentum_step`]) that treats workers as a batch dimension: one
//! coordinate-tiled pass over the `f64` accumulator instead of `K`
//! sequential sweeps, and the mean + momentum-lookahead finalize fused
//! into a single traversal. These kernels carry a stronger guarantee than
//! the tolerance-tested reductions above: they are **bitwise identical**
//! to the sequential compositions they replace, because they vectorize
//! across independent coordinates while keeping each coordinate's
//! operation sequence unchanged.
//!
//! These kernels and the dense ones ([`axpy`], [`matmul_bt`],
//! [`matmul_scaled`]) carry explicit intrinsics: [`dispatch_level`] probes
//! the CPU once per process (overridable via
//! `HIERADMO_KERNEL_DISPATCH=scalar|avx2`) and selects AVX2 or the
//! portable scalar oracle (`*_scalar`, public). Each AVX2 path performs
//! its oracle's float operations in the oracle's per-element order, with
//! mul-then-add, or FMA exactly where the scalar `fma` does, so both
//! produce the same bits (NaN payloads aside: the compiler may commute an
//! add's operands). The property suite pins it, and the level is recorded
//! in bench output. The worker NAG step ([`nag_step`]) dispatches the
//! same way, but its AVX2 path is its oracle's loop compiled under
//! `avx2`: an elementwise loop autovectorizes without reordering.

/// Number of independent accumulator lanes per kernel.
///
/// Eight `f32` lanes fill two SSE registers or one AVX register, and give
/// the out-of-order core 8 independent FMA chains to overlap — enough to
/// hide the 4–5 cycle FMA latency on every x86-64 / aarch64 core we target.
pub const LANES: usize = 8;

/// Fused (or contracted) multiply-add `a * b + c`.
///
/// `f32::mul_add` is only an FMA *instruction* when the target has one
/// compiled in; on a baseline `x86-64` build (SSE2, no `+fma`) it lowers to
/// a `fmaf` libm call that is ~50× slower than `mulss`/`addss`. Gate on the
/// compile-time feature so the kernels are fast on every build. This makes
/// results differ between `+fma` and non-`fma` *builds* (single vs double
/// rounding) but stays bitwise deterministic within any one build.
#[inline(always)]
fn fma(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// Fixed balanced-tree reduction of the lane accumulators:
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
///
/// Shared by every reducing kernel so any two code paths that accumulate
/// the same lanes produce the same bits.
#[inline(always)]
fn reduce_lanes(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Inner product `⟨a, b⟩` with [`LANES`] independent accumulators.
///
/// Summation order: element `i` of chunk `j` goes to lane `i`; lanes are
/// combined by `reduce_lanes`; the `len % LANES` tail is accumulated
/// serially and added last. Bitwise deterministic for a given input.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "kernels::dot length mismatch");
    let mut acc = [0.0f32; LANES];
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        for l in 0..LANES {
            acc[l] = fma(ca[l], cb[l], acc[l]);
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        tail = fma(x, y, tail);
    }
    reduce_lanes(acc) + tail
}

/// Squared Euclidean norm `⟨a, a⟩` (same summation order as [`dot`]).
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    dot(a, a)
}

/// In-place scaled addition `y[i] += alpha * x[i]` (BLAS `axpy`).
///
/// Element-wise with no cross-element dependency: every element is one
/// contraction-gated `fma(alpha, x[i], y[i])` on both dispatch paths, so
/// the AVX2 path is bitwise identical to [`axpy_scalar`].
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "kernels::axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if dispatch_level() == DispatchLevel::Avx2 {
        // SAFETY: AVX2 presence was verified by `dispatch_level`; the
        // lengths were checked equal above.
        unsafe { axpy_avx2(y, alpha, x) };
        return;
    }
    axpy_scalar(y, alpha, x);
}

/// Portable oracle for [`axpy`]; the chunked form hands the
/// autovectorizer a fixed-width inner loop.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy_scalar(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "kernels::axpy length mismatch");
    let mut yc = y.chunks_exact_mut(LANES);
    let mut xc = x.chunks_exact(LANES);
    for (cy, cx) in (&mut yc).zip(&mut xc) {
        for l in 0..LANES {
            cy[l] = fma(alpha, cx[l], cy[l]);
        }
    }
    for (vy, &vx) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *vy = fma(alpha, vx, *vy);
    }
}

/// In-place scaling `x[i] *= alpha` (BLAS `scal`).
///
/// Purely elementwise, so a flat loop vectorizes without any lane
/// bookkeeping.
#[inline]
pub fn scal(x: &mut [f32], alpha: f32) {
    for v in x {
        *v *= alpha;
    }
}

/// Fused two-operand scale-add `out[i] = alpha * a[i] + beta * b[i]`.
///
/// This is the worker-NAG lookahead / `lerp` shape (`(1−t)·a + t·b`) and
/// the momentum-combination shape of Algorithm 1 in one pass.
///
/// # Panics
///
/// Panics if any length differs.
#[inline]
pub fn fused_scale_add(out: &mut [f32], alpha: f32, a: &[f32], beta: f32, b: &[f32]) {
    assert_eq!(
        out.len(),
        a.len(),
        "kernels::fused_scale_add length mismatch"
    );
    assert_eq!(
        out.len(),
        b.len(),
        "kernels::fused_scale_add length mismatch"
    );
    let mut oc = out.chunks_exact_mut(LANES);
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for ((co, ca), cb) in (&mut oc).zip(&mut ac).zip(&mut bc) {
        for l in 0..LANES {
            co[l] = fma(alpha, ca[l], beta * cb[l]);
        }
    }
    for ((vo, &va), &vb) in oc
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *vo = fma(alpha, va, beta * vb);
    }
}

/// Weighted accumulation into an `f64` buffer: `acc[i] += w * v[i]`.
///
/// The aggregation primitive of Algorithm 1 (lines 11, 12, 18, 19) — the
/// data-size-weighted average keeps an `f64` accumulator per coordinate so
/// shard-count growth cannot lose worker contributions to `f32` rounding.
///
/// Unlike the reduction kernels this is purely elementwise — there is no
/// cross-iteration dependency chain to break — so a flat zip both
/// autovectorizes best and trivially preserves the per-coordinate
/// summation order.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn weighted_accumulate(acc: &mut [f64], w: f64, v: &[f32]) {
    assert_eq!(
        acc.len(),
        v.len(),
        "kernels::weighted_accumulate length mismatch"
    );
    for (a, &x) in acc.iter_mut().zip(v) {
        *a += w * f64::from(x);
    }
}

// ---------------------------------------------------------------------------
// Runtime SIMD dispatch
// ---------------------------------------------------------------------------

/// Instruction-set level the dispatched kernels run at.
///
/// Selected **once** per process (see [`dispatch_level`]) so the choice can
/// never flip mid-run: a run either executes every batched reduction on the
/// AVX2 path or every one on the portable path. Both paths are bitwise
/// identical by construction (the vector lanes perform exactly the scalar
/// per-coordinate operation sequence), so the level is a pure performance
/// knob — determinism never depends on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchLevel {
    /// 256-bit AVX2 `f64` lanes (x86-64 only).
    Avx2,
    /// Portable scalar fallback — the always-available oracle.
    Scalar,
}

impl DispatchLevel {
    /// Stable lower-case name (`"avx2"` / `"scalar"`), recorded in bench
    /// output so BENCH_kernels.json numbers are attributable to a path.
    pub fn name(self) -> &'static str {
        match self {
            DispatchLevel::Avx2 => "avx2",
            DispatchLevel::Scalar => "scalar",
        }
    }
}

/// The process-wide dispatch level for the dispatched kernels.
///
/// Chosen on first call and cached: the `HIERADMO_KERNEL_DISPATCH`
/// environment variable (`"scalar"` or `"avx2"`) forces a path — CI uses
/// `scalar` to run the determinism suites on the fallback — otherwise the
/// CPU is probed for AVX2. Forcing `avx2` on a CPU without it panics
/// rather than silently executing unsupported instructions.
pub fn dispatch_level() -> DispatchLevel {
    static LEVEL: std::sync::OnceLock<DispatchLevel> = std::sync::OnceLock::new();
    *LEVEL.get_or_init(|| match std::env::var("HIERADMO_KERNEL_DISPATCH") {
        Ok(v) if v == "scalar" => DispatchLevel::Scalar,
        Ok(v) if v == "avx2" => {
            assert!(
                avx2_available(),
                "HIERADMO_KERNEL_DISPATCH=avx2 forced, but this CPU has no AVX2"
            );
            DispatchLevel::Avx2
        }
        Ok(v) => panic!("HIERADMO_KERNEL_DISPATCH must be `scalar` or `avx2`, got `{v}`"),
        Err(_) => {
            if avx2_available() {
                DispatchLevel::Avx2
            } else {
                DispatchLevel::Scalar
            }
        }
    })
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

// ---------------------------------------------------------------------------
// Batched aggregation kernels
// ---------------------------------------------------------------------------

/// Coordinate-tile width for the batched reductions: 512 `f64` accumulators
/// (4 KiB) stay L1-resident while all `K` worker inputs stream through the
/// tile, cutting accumulator traffic from `K` round trips to one.
const COORD_TILE: usize = 512;

/// Batched weighted sum `acc[i] += Σₖ weights[k] · inputs[k][i]` — the
/// K-worker aggregation of Algorithm 1 (lines 11, 12, 18, 19) in **one
/// pass** over the accumulator instead of `K` sequential
/// [`weighted_accumulate`] calls.
///
/// The loop is coordinate-tiled (`COORD_TILE`) with `k` ascending inside
/// each tile, so every coordinate `i` receives its `K` additions in exactly
/// the order the sequential per-worker path applied them: the result is
/// **bitwise identical** to `K` calls of [`weighted_accumulate`] in input
/// order, on every build and both dispatch paths (`f64` multiply/add and
/// the `f32→f64` convert are exact IEEE operations with no contraction).
/// Splitting a batch into consecutive sub-batches is likewise bitwise
/// neutral.
///
/// Dispatches once per process to AVX2 or the scalar oracle
/// ([`weighted_sum_batch_scalar`]) — see [`dispatch_level`].
///
/// # Panics
///
/// Panics if `weights` and `inputs` differ in length or any input's length
/// differs from `acc`'s.
pub fn weighted_sum_batch(acc: &mut [f64], weights: &[f64], inputs: &[&[f32]]) {
    assert_eq!(
        weights.len(),
        inputs.len(),
        "kernels::weighted_sum_batch weight/input count mismatch"
    );
    for v in inputs {
        assert_eq!(
            acc.len(),
            v.len(),
            "kernels::weighted_sum_batch length mismatch"
        );
    }
    #[cfg(target_arch = "x86_64")]
    if dispatch_level() == DispatchLevel::Avx2 {
        // SAFETY: AVX2 presence was verified by `dispatch_level`.
        unsafe { weighted_sum_batch_avx2(acc, weights, inputs) };
        return;
    }
    weighted_sum_batch_scalar(acc, weights, inputs);
}

/// Portable oracle for [`weighted_sum_batch`]: identical tiling and
/// per-coordinate operation order, plain scalar arithmetic. Public so the
/// property suite can pin the dispatched path against it bitwise within a
/// single process.
pub fn weighted_sum_batch_scalar(acc: &mut [f64], weights: &[f64], inputs: &[&[f32]]) {
    let n = acc.len();
    for start in (0..n).step_by(COORD_TILE) {
        let end = (start + COORD_TILE).min(n);
        let tile = &mut acc[start..end];
        for (&w, v) in weights.iter().zip(inputs) {
            for (a, &x) in tile.iter_mut().zip(&v[start..end]) {
                *a += w * f64::from(x);
            }
        }
    }
}

/// Workers per register-resident block in [`weighted_sum_batch_avx2`]
/// when the fan-in is large. Small enough that the hardware prefetcher
/// tracks one stream per worker in the block; large enough to amortize
/// the accumulator load/store. Fan-ins of at most [`SMALL_FAN_IN`]
/// workers run as a single block — the accumulator makes exactly one
/// round trip and that few streams never strain the prefetcher.
#[cfg(target_arch = "x86_64")]
const WORKER_BLOCK: usize = 8;

/// Largest fan-in processed as one block in [`weighted_sum_batch_avx2`].
#[cfg(target_arch = "x86_64")]
const SMALL_FAN_IN: usize = 16;

/// AVX2 path for [`weighted_sum_batch`]: workers are processed in blocks
/// of [`WORKER_BLOCK`], and for each 16-coordinate strip the four `f64`
/// accumulator registers stay resident while the whole block is folded in
/// (`f32` quad → `cvtps_pd` → broadcast-weight `mul_pd` → `add_pd`). The
/// accumulator is loaded and stored once per block instead of once per
/// worker, which is what makes the batched kernel beat K sequential
/// [`weighted_accumulate`] passes.
///
/// Per coordinate the operation sequence is exactly the scalar
/// `acc += w * f64::from(x)` in ascending-`k` order — block boundaries
/// only change *where* the running sum lives (register vs memory), not
/// the order or rounding of any `f64` op — so the result is bitwise
/// identical to [`weighted_sum_batch_scalar`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn weighted_sum_batch_avx2(acc: &mut [f64], weights: &[f64], inputs: &[&[f32]]) {
    use std::arch::x86_64::*;
    let n = acc.len();
    let k = weights.len();
    let strips = n / 16;
    let block_size = if k <= SMALL_FAN_IN {
        SMALL_FAN_IN
    } else {
        WORKER_BLOCK
    };
    for block in (0..k).step_by(block_size) {
        let block_end = (block + block_size).min(k);
        let ws = &weights[block..block_end];
        let vs = &inputs[block..block_end];
        let ap = acc.as_mut_ptr();
        for s in 0..strips {
            let i = s * 16;
            let mut a0 = _mm256_loadu_pd(ap.add(i));
            let mut a1 = _mm256_loadu_pd(ap.add(i + 4));
            let mut a2 = _mm256_loadu_pd(ap.add(i + 8));
            let mut a3 = _mm256_loadu_pd(ap.add(i + 12));
            for (&w, v) in ws.iter().zip(vs) {
                let wv = _mm256_set1_pd(w);
                let xp = v.as_ptr().add(i);
                // One worker stream advances 64 B (one line) per strip;
                // with many streams in flight the hardware prefetcher
                // loses track, so pull upcoming lines in explicitly
                // (distance clamped to stay in bounds).
                let ahead = (i + 128).min(v.len());
                _mm_prefetch::<_MM_HINT_T0>(v.as_ptr().add(ahead).cast());
                let x0 = _mm256_cvtps_pd(_mm_loadu_ps(xp));
                let x1 = _mm256_cvtps_pd(_mm_loadu_ps(xp.add(4)));
                let x2 = _mm256_cvtps_pd(_mm_loadu_ps(xp.add(8)));
                let x3 = _mm256_cvtps_pd(_mm_loadu_ps(xp.add(12)));
                a0 = _mm256_add_pd(a0, _mm256_mul_pd(wv, x0));
                a1 = _mm256_add_pd(a1, _mm256_mul_pd(wv, x1));
                a2 = _mm256_add_pd(a2, _mm256_mul_pd(wv, x2));
                a3 = _mm256_add_pd(a3, _mm256_mul_pd(wv, x3));
            }
            _mm256_storeu_pd(ap.add(i), a0);
            _mm256_storeu_pd(ap.add(i + 4), a1);
            _mm256_storeu_pd(ap.add(i + 8), a2);
            _mm256_storeu_pd(ap.add(i + 12), a3);
        }
        for i in strips * 16..n {
            let mut a = acc[i];
            for (&w, v) in ws.iter().zip(vs) {
                a += w * f64::from(v[i]);
            }
            acc[i] = a;
        }
    }
}

/// Fused finalize of the edge/cloud momentum sync (Eq. 6–7): one traversal
/// computing the data-weighted mean **and** the adaptive-momentum lookahead
/// that the unfused path spread over three passes
/// (`weighted_average` finalize → clone → subtract → `axpy`).
///
/// Per coordinate, with `m = (acc[i] / total) as f32`:
///
/// * `mean[i] = m` — the aggregated model `y⁺`;
/// * `looked[i] = fma(gamma, m − y_old[i], m)` — the momentum-accelerated
///   `x⁺ = y⁺ + γ·(y⁺ − y⁺_prev)`, using the same contraction-gated `fma`
///   as [`axpy`], so the result is bitwise identical to the unfused
///   composition on every build.
///
/// Dispatches like [`weighted_sum_batch`];
/// [`fused_aggregate_momentum_scalar`] is the oracle.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn fused_aggregate_momentum(
    acc: &[f64],
    total: f64,
    gamma: f32,
    y_old: &[f32],
    mean: &mut [f32],
    looked: &mut [f32],
) {
    assert_eq!(
        acc.len(),
        y_old.len(),
        "kernels::fused_aggregate_momentum length mismatch"
    );
    assert_eq!(
        acc.len(),
        mean.len(),
        "kernels::fused_aggregate_momentum length mismatch"
    );
    assert_eq!(
        acc.len(),
        looked.len(),
        "kernels::fused_aggregate_momentum length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if dispatch_level() == DispatchLevel::Avx2 {
        // SAFETY: AVX2 presence was verified by `dispatch_level`.
        unsafe { fused_aggregate_momentum_avx2(acc, total, gamma, y_old, mean, looked) };
        return;
    }
    fused_aggregate_momentum_scalar(acc, total, gamma, y_old, mean, looked);
}

/// Portable oracle for [`fused_aggregate_momentum`].
pub fn fused_aggregate_momentum_scalar(
    acc: &[f64],
    total: f64,
    gamma: f32,
    y_old: &[f32],
    mean: &mut [f32],
    looked: &mut [f32],
) {
    for i in 0..acc.len() {
        let m = (acc[i] / total) as f32;
        mean[i] = m;
        looked[i] = fma(gamma, m - y_old[i], m);
    }
}

/// AVX2 path for [`fused_aggregate_momentum`]: four coordinates per step.
/// The `f64` divide and `f64→f32` convert are exact-rounding, the `f32`
/// tail mirrors the [`fma`] contraction gate at vector width
/// (`fmadd_ps` only on `+fma` builds, separate `mul`/`add` otherwise), so
/// every lane reproduces the scalar bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fused_aggregate_momentum_avx2(
    acc: &[f64],
    total: f64,
    gamma: f32,
    y_old: &[f32],
    mean: &mut [f32],
    looked: &mut [f32],
) {
    use std::arch::x86_64::*;
    let n = acc.len();
    let tv = _mm256_set1_pd(total);
    let gv = _mm_set1_ps(gamma);
    let quads = n / 4;
    for q in 0..quads {
        let i = q * 4;
        let mv = _mm256_cvtpd_ps(_mm256_div_pd(_mm256_loadu_pd(acc.as_ptr().add(i)), tv));
        _mm_storeu_ps(mean.as_mut_ptr().add(i), mv);
        let dv = _mm_sub_ps(mv, _mm_loadu_ps(y_old.as_ptr().add(i)));
        #[cfg(target_feature = "fma")]
        let lv = _mm_fmadd_ps(gv, dv, mv);
        #[cfg(not(target_feature = "fma"))]
        let lv = _mm_add_ps(_mm_mul_ps(gv, dv), mv);
        _mm_storeu_ps(looked.as_mut_ptr().add(i), lv);
    }
    for i in quads * 4..n {
        let m = (acc[i] / total) as f32;
        mean[i] = m;
        looked[i] = fma(gamma, m - y_old[i], m);
    }
}

/// Momentum lookahead `looked[i] = fma(gamma, mean[i] − y_old[i], mean[i])`
/// from an already-materialised mean — the Eq. 7 step when a robust
/// (non-mean) aggregation rule produced `mean` and there is no `f64`
/// accumulator to fuse with. Bitwise identical to the historical
/// clone → subtract → [`axpy`] composition (same contraction-gated `fma`
/// per element).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn momentum_step(looked: &mut [f32], gamma: f32, mean: &[f32], y_old: &[f32]) {
    assert_eq!(
        looked.len(),
        mean.len(),
        "kernels::momentum_step length mismatch"
    );
    assert_eq!(
        looked.len(),
        y_old.len(),
        "kernels::momentum_step length mismatch"
    );
    for i in 0..looked.len() {
        looked[i] = fma(gamma, mean[i] - y_old[i], mean[i]);
    }
}

// ---------------------------------------------------------------------------
// Worker NAG step
// ---------------------------------------------------------------------------

/// The edge-interval sums one [`nag_step`] updates beside the state:
/// exactly the four selections a NAG strategy can declare, so no other
/// combination can be asked for. In `hieradmo-core` a strategy declares
/// its sums once, in `Strategy::init` (a wrapper strategy must forward
/// it), and the NAG local step reads the selection off the worker's
/// state.
#[derive(Debug)]
pub enum NagSums<'a> {
    /// No sum.
    None,
    /// `Σ∇F` and `Σy`, in that order.
    GradY(&'a mut [f32], &'a mut [f32]),
    /// `Σv`.
    V(&'a mut [f32]),
    /// `Σ∇F` and `Σv`, in that order.
    GradV(&'a mut [f32], &'a mut [f32]),
}

/// One worker NAG step (Algorithm 1 lines 5–6) with the edge-interval sums
/// of line 9, in **one pass** over the model-width vectors it touches:
///
/// ```text
/// grad_accum += g          y_accum += y_{t−1}
/// y_t = x − η·g            v = y_t − y_{t−1}        v_accum += v
/// x   = y_t + γ·v          y = y_t
/// ```
///
/// Only the sums `sums` carries are read and written, so a strategy
/// whose hooks never read a sum does not pay for streaming it. Each of
/// the four selections is its own monomorphized loop, with no
/// per-element branch.
///
/// Per element it computes exactly what the eight-pass `Vector`
/// composition it replaces did: each `+=` is `fma(1.0, ·, acc)` (an
/// [`axpy`] with `alpha = 1`), `y_t = fma(−η, g, x)`, `v = y_t − y_{t−1}`
/// and `x = fma(γ, v, y_t)`, with the crate's contraction gate, so every
/// selected sum and the state are bitwise identical on both dispatch
/// paths and under every selection. [`nag_step_scalar`] is the oracle;
/// the AVX2 path is the same loop autovectorized at 256-bit width, which
/// keeps every mul-then-add as written (no `+fma`, no contraction).
///
/// # Panics
///
/// Panics if the lengths of `y`, `v`, `g` or a selected sum differ from
/// `x`'s.
pub fn nag_step(
    x: &mut [f32],
    y: &mut [f32],
    v: &mut [f32],
    sums: NagSums<'_>,
    g: &[f32],
    eta: f32,
    gamma: f32,
) {
    #[cfg(target_arch = "x86_64")]
    if dispatch_level() == DispatchLevel::Avx2 {
        // SAFETY: AVX2 presence was verified by `dispatch_level`.
        unsafe { nag_step_avx2(x, y, v, sums, g, eta, gamma) };
        return;
    }
    nag_step_scalar(x, y, v, sums, g, eta, gamma);
}

/// Portable oracle for [`nag_step`]: picks the loop compiled for the
/// selection.
///
/// # Panics
///
/// Panics if the lengths of `y`, `v`, `g` or a selected sum differ from
/// `x`'s.
#[inline(always)]
pub fn nag_step_scalar(
    x: &mut [f32],
    y: &mut [f32],
    v: &mut [f32],
    sums: NagSums<'_>,
    g: &[f32],
    eta: f32,
    gamma: f32,
) {
    let e = || -> &mut [f32] { &mut [] };
    match sums {
        NagSums::None => nag_loop::<false, false, false>(x, y, v, [e(), e(), e()], g, eta, gamma),
        NagSums::GradY(ga, ya) => {
            nag_loop::<true, true, false>(x, y, v, [ga, ya, e()], g, eta, gamma)
        }
        NagSums::V(va) => nag_loop::<false, false, true>(x, y, v, [e(), e(), va], g, eta, gamma),
        NagSums::GradV(ga, va) => {
            nag_loop::<true, false, true>(x, y, v, [ga, e(), va], g, eta, gamma)
        }
    }
}

/// The [`nag_step`] loop for one selection: `GA`, `YA` and `VA` say
/// whether `Σ∇F`, `Σy` and `Σv` (`sums`, in that order; an unselected one
/// empty) are updated. Every used slice is re-cut to `x`'s length so the
/// loop carries no bounds checks and vectorizes.
#[inline(always)]
fn nag_loop<const GA: bool, const YA: bool, const VA: bool>(
    x: &mut [f32],
    y: &mut [f32],
    v: &mut [f32],
    [ga, ya, va]: [&mut [f32]; 3],
    g: &[f32],
    eta: f32,
    gamma: f32,
) {
    let n = x.len();
    let selected = [(GA, ga.len()), (YA, ya.len()), (VA, va.len())];
    let used = selected.iter().filter(|(on, _)| *on).map(|&(_, len)| len);
    for len in [y.len(), v.len(), g.len()].into_iter().chain(used) {
        assert_eq!(len, n, "kernels::nag_step length mismatch");
    }
    let (y, v, g) = (&mut y[..n], &mut v[..n], &g[..n]);
    let ga = if GA { &mut ga[..n] } else { ga };
    let ya = if YA { &mut ya[..n] } else { ya };
    let va = if VA { &mut va[..n] } else { va };
    for i in 0..n {
        let (gi, y_old) = (g[i], y[i]);
        if GA {
            ga[i] = fma(1.0, gi, ga[i]);
        }
        if YA {
            ya[i] = fma(1.0, y_old, ya[i]);
        }
        let y_new = fma(-eta, gi, x[i]);
        let vi = y_new - y_old;
        if VA {
            va[i] = fma(1.0, vi, va[i]);
        }
        y[i] = y_new;
        v[i] = vi;
        x[i] = fma(gamma, vi, y_new);
    }
}

/// AVX2 path for [`nag_step`]: the oracle inlined under AVX2. Its
/// 256-bit lanes take 6–11 % less time per step than the default build's
/// 128-bit SSE2 loop at the workloads' widths, even streaming worker
/// states from beyond L2 (DESIGN §10).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn nag_step_avx2(
    x: &mut [f32],
    y: &mut [f32],
    v: &mut [f32],
    sums: NagSums<'_>,
    g: &[f32],
    eta: f32,
    gamma: f32,
) {
    nag_step_scalar(x, y, v, sums, g, eta, gamma);
}

// ---------------------------------------------------------------------------
// Dense kernels
// ---------------------------------------------------------------------------

/// Output-tile edge for [`matmul_bt_scalar`]: tiles of A-rows and Bᵀ-rows
/// stay resident in L1/L2 across the tile's inner products.
const BLOCK: usize = 32;

/// Register micro-tile of [`matmul_bt_scalar`]: 2 A-rows × 2 Bᵀ-rows
/// computed together, each output carrying its own [`LANES`]-wide
/// accumulator (4·8 = 32 live `f32` accumulators — eight SSE registers),
/// so every loaded `a` and `b` chunk is reused twice.
const TILE: usize = 2;

/// Blocked, register-tiled product `out = a · btᵀ` on raw row-major
/// slices, where `bt` is already the transpose of the right-hand operand.
///
/// * `a` is `n × k` row-major, `bt` is `m × k` row-major, `out` is
///   `n × m` row-major and fully overwritten.
/// * Every output element's summation order is identical to [`dot`] of
///   its row pair, whichever tile computed it and on both dispatch paths,
///   so the AVX2 path is bitwise identical to [`matmul_bt_scalar`].
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn matmul_bt(a: &[f32], bt: &[f32], out: &mut [f32], n: usize, m: usize, k: usize) {
    assert_eq!(a.len(), n * k, "kernels::matmul_bt lhs size mismatch");
    assert_eq!(bt.len(), m * k, "kernels::matmul_bt rhs size mismatch");
    assert_eq!(out.len(), n * m, "kernels::matmul_bt out size mismatch");
    #[cfg(target_arch = "x86_64")]
    if dispatch_level() == DispatchLevel::Avx2 {
        // SAFETY: AVX2 presence was verified by `dispatch_level`; the
        // slice lengths were checked above.
        unsafe { matmul_bt_avx2(a, bt, out, n, m, k) };
        return;
    }
    matmul_bt_scalar(a, bt, out, n, m, k);
}

/// Portable oracle for [`matmul_bt`]: the `(row, col)` output space is
/// tiled `BLOCK`² for cache reuse and `TILE`² for register reuse.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn matmul_bt_scalar(a: &[f32], bt: &[f32], out: &mut [f32], n: usize, m: usize, k: usize) {
    assert_eq!(a.len(), n * k, "kernels::matmul_bt lhs size mismatch");
    assert_eq!(bt.len(), m * k, "kernels::matmul_bt rhs size mismatch");
    assert_eq!(out.len(), n * m, "kernels::matmul_bt out size mismatch");
    for r0 in (0..n).step_by(BLOCK) {
        let r1 = (r0 + BLOCK).min(n);
        for c0 in (0..m).step_by(BLOCK) {
            let c1 = (c0 + BLOCK).min(m);
            // 2×2 register micro-tiles over the cache block.
            let mut r = r0;
            while r + TILE <= r1 {
                let mut c = c0;
                while c + TILE <= c1 {
                    micro_2x2(a, bt, out, m, k, r, c);
                    c += TILE;
                }
                // Remainder column(s) of this row pair.
                for rr in r..r + TILE {
                    for cc in c..c1 {
                        out[rr * m + cc] = dot(&a[rr * k..(rr + 1) * k], &bt[cc * k..(cc + 1) * k]);
                    }
                }
                r += TILE;
            }
            // Remainder row(s) of this block.
            for rr in r..r1 {
                for cc in c0..c1 {
                    out[rr * m + cc] = dot(&a[rr * k..(rr + 1) * k], &bt[cc * k..(cc + 1) * k]);
                }
            }
        }
    }
}

/// The 2×2 micro-kernel: four inner products over `k` advance in lock-step
/// so each `a`/`bt` chunk loaded from L1 feeds two accumulator sets.
///
/// Per output element this performs exactly the [`dot`] recurrence (same
/// lane assignment, same `reduce_lanes` tree, same serial tail), so the
/// result is bitwise identical to calling [`dot`] on that row pair.
#[inline(always)]
fn micro_2x2(a: &[f32], bt: &[f32], out: &mut [f32], m: usize, k: usize, r: usize, c: usize) {
    let a0 = &a[r * k..(r + 1) * k];
    let a1 = &a[(r + 1) * k..(r + 2) * k];
    let b0 = &bt[c * k..(c + 1) * k];
    let b1 = &bt[(c + 1) * k..(c + 2) * k];

    let mut acc00 = [0.0f32; LANES];
    let mut acc01 = [0.0f32; LANES];
    let mut acc10 = [0.0f32; LANES];
    let mut acc11 = [0.0f32; LANES];

    let mut a0c = a0.chunks_exact(LANES);
    let mut a1c = a1.chunks_exact(LANES);
    let mut b0c = b0.chunks_exact(LANES);
    let mut b1c = b1.chunks_exact(LANES);
    for (((c_a0, c_a1), c_b0), c_b1) in (&mut a0c).zip(&mut a1c).zip(&mut b0c).zip(&mut b1c) {
        for l in 0..LANES {
            acc00[l] = fma(c_a0[l], c_b0[l], acc00[l]);
            acc01[l] = fma(c_a0[l], c_b1[l], acc01[l]);
            acc10[l] = fma(c_a1[l], c_b0[l], acc10[l]);
            acc11[l] = fma(c_a1[l], c_b1[l], acc11[l]);
        }
    }
    let (mut t00, mut t01, mut t10, mut t11) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (((&x0, &x1), &y0), &y1) in a0c
        .remainder()
        .iter()
        .zip(a1c.remainder())
        .zip(b0c.remainder())
        .zip(b1c.remainder())
    {
        t00 = fma(x0, y0, t00);
        t01 = fma(x0, y1, t01);
        t10 = fma(x1, y0, t10);
        t11 = fma(x1, y1, t11);
    }
    out[r * m + c] = reduce_lanes(acc00) + t00;
    out[r * m + c + 1] = reduce_lanes(acc01) + t01;
    out[(r + 1) * m + c] = reduce_lanes(acc10) + t10;
    out[(r + 1) * m + c + 1] = reduce_lanes(acc11) + t11;
}

/// Zero-skipping scaled product `out = scale · (c · b)` on raw row-major
/// slices: the batched backward of a dense layer.
///
/// * `out` is `p × k`, `c` is `p × q`, `b` is `q × k`, all row-major;
///   `out` is overwritten, its prior contents never read.
/// * Element `out[i][e]` starts from `+0.0` and receives, for `j`
///   ascending, `fma(c[i][j], b[j][e], ·)`, skipping every
///   `c[i][j] == 0.0` (both zeros); the finished sum is multiplied by
///   `scale` once, as it is stored. That is, element for element, the
///   three-pass composition "fill `out` with `0.0`, a loop of per-row
///   [`axpy`] calls that skips zero coefficients, then [`scal`] by
///   `scale`", so the AVX2 path, [`matmul_scaled_scalar`] and that
///   composition give the same bits — signed zeros included: a row with
///   no nonzero coefficient stores `+0.0 · scale`.
///
/// With `c = Gᵀ` (upstream gradients, one column per sample), `b = X`
/// (inputs, one row per sample) and `scale = 1/n` this is the mean weight
/// gradient `Gᵀ·X / n` with samples ascending per element; with `c = G`,
/// `b = W` and `scale = 1` it is the input gradient `G·W`, row for row the
/// per-sample transposed product.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn matmul_scaled(
    out: &mut [f32],
    c: &[f32],
    b: &[f32],
    p: usize,
    q: usize,
    k: usize,
    scale: f32,
) {
    check_matmul_scaled(out, c, b, p, q, k);
    #[cfg(target_arch = "x86_64")]
    if dispatch_level() == DispatchLevel::Avx2 {
        // SAFETY: AVX2 presence was verified by `dispatch_level`; the
        // slice lengths were checked above.
        unsafe { matmul_scaled_avx2(out, c, b, p, q, k, scale) };
        return;
    }
    matmul_scaled_scalar(out, c, b, p, q, k, scale);
}

/// Portable oracle for [`matmul_scaled`]: per output row, the zero fill,
/// the zero-skipping [`axpy_scalar`] loop and the [`scal`] pass.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn matmul_scaled_scalar(
    out: &mut [f32],
    c: &[f32],
    b: &[f32],
    p: usize,
    q: usize,
    k: usize,
    scale: f32,
) {
    check_matmul_scaled(out, c, b, p, q, k);
    for i in 0..p {
        let row = &mut out[i * k..(i + 1) * k];
        row.fill(0.0);
        for j in 0..q {
            let cij = c[i * q + j];
            if cij == 0.0 {
                continue;
            }
            axpy_scalar(row, cij, &b[j * k..(j + 1) * k]);
        }
        scal(row, scale);
    }
}

fn check_matmul_scaled(out: &[f32], c: &[f32], b: &[f32], p: usize, q: usize, k: usize) {
    assert_eq!(out.len(), p * k, "kernels::matmul_scaled out size mismatch");
    assert_eq!(
        c.len(),
        p * q,
        "kernels::matmul_scaled coefficient size mismatch"
    );
    assert_eq!(b.len(), q * k, "kernels::matmul_scaled rhs size mismatch");
}

/// `a * b + c` at vector width, with the contraction gate of [`fma`]:
/// `fmadd_ps` only on `+fma` builds, separate `mul`/`add` otherwise.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn fma_ps(
    a: std::arch::x86_64::__m256,
    b: std::arch::x86_64::__m256,
    c: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    #[cfg(target_feature = "fma")]
    {
        _mm256_fmadd_ps(a, b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        _mm256_add_ps(_mm256_mul_ps(a, b), c)
    }
}

/// AVX2 path for [`axpy`]: a scalar head up to the first 32-byte aligned
/// element of `y`, so no store splits a cache line, then 32 elements per
/// step, 8 per step, and a scalar tail. Elements are independent, so
/// where the vector part starts does not change any bit.
///
/// # Safety
///
/// The CPU must support AVX2 and `x` must be as long as `y`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(y: &mut [f32], alpha: f32, x: &[f32]) {
    use std::arch::x86_64::*;
    let n = y.len();
    let head = y.as_ptr().align_offset(32).min(n);
    for i in 0..head {
        y[i] = fma(alpha, x[i], y[i]);
    }
    let av = _mm256_set1_ps(alpha);
    let (yp, xp) = (y.as_mut_ptr(), x.as_ptr());
    let mut i = head;
    while i + ACC_STRIP <= n {
        for t in 0..ACC_STRIP / LANES {
            let e = i + t * LANES;
            let v = fma_ps(av, _mm256_loadu_ps(xp.add(e)), _mm256_load_ps(yp.add(e)));
            _mm256_store_ps(yp.add(e), v);
        }
        i += ACC_STRIP;
    }
    while i + LANES <= n {
        let v = fma_ps(av, _mm256_loadu_ps(xp.add(i)), _mm256_load_ps(yp.add(i)));
        _mm256_store_ps(yp.add(i), v);
        i += LANES;
    }
    for j in i..n {
        y[j] = fma(alpha, x[j], y[j]);
    }
}

/// A-rows per register micro-tile of [`matmul_bt_avx2`].
#[cfg(target_arch = "x86_64")]
const AVX_ROWS: usize = 4;

/// Bᵀ-rows per register micro-tile of [`matmul_bt_avx2`]: 4 × 3 `ymm`
/// accumulators plus three `b` chunks and one `a` chunk fill the sixteen
/// `ymm` registers.
#[cfg(target_arch = "x86_64")]
const AVX_COLS: usize = 3;

/// AVX2 path for [`matmul_bt`]: blocks of `BLOCK` A-rows, swept by
/// 4 × 3 register micro-tiles (edges use 4 × 1, 1 × 3 and 1 × 1 tiles).
/// A micro-tile's three Bᵀ-rows stay in L1 while the block's A-rows
/// stream past them.
///
/// One `ymm` accumulator per output holds exactly the [`LANES`] partial
/// sums of [`dot`]: lane `l` receives element `l` of every full chunk.
/// The lanes are then spilled and combined by the same `reduce_lanes`
/// tree, and the serial tail is the scalar loop of [`dot`], so each
/// element is bitwise equal to the scalar path.
///
/// # Safety
///
/// The CPU must support AVX2 and the slices must hold `n × k`, `m × k`
/// and `n × m` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_bt_avx2(a: &[f32], bt: &[f32], out: &mut [f32], n: usize, m: usize, k: usize) {
    let c_full = m / AVX_COLS * AVX_COLS;
    for r0 in (0..n).step_by(BLOCK) {
        let r1 = (r0 + BLOCK).min(n);
        let mut c = 0;
        while c < m {
            let wide = c < c_full;
            let mut r = r0;
            while r + AVX_ROWS <= r1 {
                if wide {
                    micro_bt_avx2::<AVX_ROWS, AVX_COLS>(a, bt, out, m, k, r, c);
                } else {
                    micro_bt_avx2::<AVX_ROWS, 1>(a, bt, out, m, k, r, c);
                }
                r += AVX_ROWS;
            }
            for rr in r..r1 {
                if wide {
                    micro_bt_avx2::<1, AVX_COLS>(a, bt, out, m, k, rr, c);
                } else {
                    micro_bt_avx2::<1, 1>(a, bt, out, m, k, rr, c);
                }
            }
            c += if wide { AVX_COLS } else { 1 };
        }
    }
}

/// The `R × C` micro-tile of [`matmul_bt_avx2`] at output `(r, c)`.
///
/// # Safety
///
/// The CPU must support AVX2; `a` must hold rows `r..r + R` and `bt` rows
/// `c..c + C` of `k` elements each, and `out` rows `r..r + R` of `m`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn micro_bt_avx2<const R: usize, const C: usize>(
    a: &[f32],
    bt: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    r: usize,
    c: usize,
) {
    use std::arch::x86_64::*;
    let full = k / LANES * LANES;
    let (ap, bp) = (a.as_ptr(), bt.as_ptr());
    let mut acc = [[_mm256_setzero_ps(); C]; R];
    for off in (0..full).step_by(LANES) {
        let mut bv = [_mm256_setzero_ps(); C];
        for (j, v) in bv.iter_mut().enumerate() {
            *v = _mm256_loadu_ps(bp.add((c + j) * k + off));
        }
        for (i, row) in acc.iter_mut().enumerate() {
            let av = _mm256_loadu_ps(ap.add((r + i) * k + off));
            for (acc_ij, &b) in row.iter_mut().zip(&bv) {
                *acc_ij = fma_ps(av, b, *acc_ij);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        let a_row = &a[(r + i) * k..(r + i + 1) * k];
        for (j, &v) in row.iter().enumerate() {
            let b_row = &bt[(c + j) * k..(c + j + 1) * k];
            let mut lanes = [0.0f32; LANES];
            _mm256_storeu_ps(lanes.as_mut_ptr(), v);
            let mut tail = 0.0f32;
            for (&x, &y) in a_row[full..].iter().zip(&b_row[full..]) {
                tail = fma(x, y, tail);
            }
            out[(r + i) * m + c + j] = reduce_lanes(lanes) + tail;
        }
    }
}

/// Columns per register strip of [`matmul_scaled_avx2`]: four `ymm`
/// accumulators.
#[cfg(target_arch = "x86_64")]
const ACC_STRIP: usize = 4 * LANES;

/// AVX2 path for [`matmul_scaled`]: for each 32-column strip (then
/// 8-column strips, then a scalar tail), each output row's strip starts
/// from `+0.0` in registers, folds in the `q` coefficients of that row in
/// ascending order with the zero skip, and is multiplied by `scale` on
/// the way to memory. The strip of `b` (`q` rows) stays in L1 across all
/// `p` output rows.
///
/// # Safety
///
/// The CPU must support AVX2 and the slices must hold `p × k`, `p × q`
/// and `q × k` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_scaled_avx2(
    out: &mut [f32],
    c: &[f32],
    b: &[f32],
    p: usize,
    q: usize,
    k: usize,
    scale: f32,
) {
    use std::arch::x86_64::*;
    let (op, bp) = (out.as_mut_ptr(), b.as_ptr());
    let sv = _mm256_set1_ps(scale);
    let wide = k / ACC_STRIP * ACC_STRIP;
    let narrow = k / LANES * LANES;
    for s in (0..wide).step_by(ACC_STRIP) {
        for i in 0..p {
            let mut acc = [_mm256_setzero_ps(); 4];
            for (j, &cij) in c[i * q..(i + 1) * q].iter().enumerate() {
                if cij == 0.0 {
                    continue;
                }
                let cv = _mm256_set1_ps(cij);
                let bs = bp.add(j * k + s);
                for (t, v) in acc.iter_mut().enumerate() {
                    *v = fma_ps(cv, _mm256_loadu_ps(bs.add(t * LANES)), *v);
                }
            }
            let o = op.add(i * k + s);
            for (t, &v) in acc.iter().enumerate() {
                _mm256_storeu_ps(o.add(t * LANES), _mm256_mul_ps(v, sv));
            }
        }
    }
    for s in (wide..narrow).step_by(LANES) {
        for i in 0..p {
            let mut acc = _mm256_setzero_ps();
            for (j, &cij) in c[i * q..(i + 1) * q].iter().enumerate() {
                if cij != 0.0 {
                    acc = fma_ps(_mm256_set1_ps(cij), _mm256_loadu_ps(bp.add(j * k + s)), acc);
                }
            }
            _mm256_storeu_ps(op.add(i * k + s), _mm256_mul_ps(acc, sv));
        }
    }
    for i in 0..p {
        for e in narrow..k {
            let mut acc = 0.0f32;
            for (j, &cij) in c[i * q..(i + 1) * q].iter().enumerate() {
                if cij != 0.0 {
                    acc = fma(cij, b[j * k + e], acc);
                }
            }
            out[i * k + e] = acc * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32).mul_add(scale, shift).sin())
            .collect()
    }

    #[test]
    fn dot_matches_naive_within_tolerance() {
        for n in [0, 1, 7, 8, 9, 64, 100] {
            let a = seq(n, 0.3, 0.1);
            let b = seq(n, 0.7, -0.2);
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let fast = dot(&a, &b);
            assert!(
                (fast - naive).abs() <= 1e-4 * (1.0 + naive.abs()),
                "n={n}: {fast} vs {naive}"
            );
        }
    }

    #[test]
    fn dot_is_bitwise_reproducible() {
        let a = seq(1000, 0.13, 0.4);
        let b = seq(1000, 0.91, -0.7);
        assert_eq!(dot(&a, &b).to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_and_scal_elementwise() {
        for n in [3, 8, 17] {
            let x = seq(n, 0.5, 0.0);
            let mut y = seq(n, 0.2, 1.0);
            let expect: Vec<f32> = y.iter().zip(&x).map(|(v, u)| v + 2.5 * u).collect();
            axpy(&mut y, 2.5, &x);
            for (got, want) in y.iter().zip(&expect) {
                assert!((got - want).abs() <= 1e-5, "{got} vs {want}");
            }
            scal(&mut y, 0.5);
            for (got, want) in y.iter().zip(&expect) {
                assert!((got - 0.5 * want).abs() <= 1e-5);
            }
        }
    }

    #[test]
    fn fused_scale_add_matches_lerp_form() {
        let a = seq(11, 0.4, 0.2);
        let b = seq(11, 0.8, -0.1);
        let mut out = vec![0.0f32; 11];
        fused_scale_add(&mut out, 0.75, &a, 0.25, &b);
        for i in 0..11 {
            let want = 0.75 * a[i] + 0.25 * b[i];
            assert!((out[i] - want).abs() <= 1e-5);
        }
    }

    #[test]
    fn weighted_accumulate_matches_naive() {
        let v = seq(19, 0.6, 0.3);
        let mut acc = vec![1.0f64; 19];
        weighted_accumulate(&mut acc, 0.25, &v);
        for i in 0..19 {
            let want = 1.0 + 0.25 * f64::from(v[i]);
            assert!((acc[i] - want).abs() <= 1e-12);
        }
    }

    fn batch_fixture(k: usize, n: usize) -> (Vec<f64>, Vec<Vec<f32>>) {
        let weights: Vec<f64> = (0..k).map(|i| 0.5 + i as f64 * 0.75).collect();
        let inputs: Vec<Vec<f32>> = (0..k)
            .map(|i| seq(n, 0.17 + i as f32 * 0.03, -0.4 + i as f32 * 0.11))
            .collect();
        (weights, inputs)
    }

    #[test]
    fn weighted_sum_batch_is_bitwise_equal_to_sequential_accumulates() {
        for (k, n) in [(1, 7), (3, 64), (5, 513), (16, 1037)] {
            let (weights, inputs) = batch_fixture(k, n);
            let views: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
            let mut batched = vec![0.125f64; n];
            weighted_sum_batch(&mut batched, &weights, &views);
            let mut sequential = vec![0.125f64; n];
            for (&w, v) in weights.iter().zip(&views) {
                weighted_accumulate(&mut sequential, w, v);
            }
            for i in 0..n {
                assert_eq!(
                    batched[i].to_bits(),
                    sequential[i].to_bits(),
                    "coord {i} of {k}x{n}"
                );
            }
        }
    }

    #[test]
    fn weighted_sum_batch_dispatch_matches_scalar_oracle_bitwise() {
        let (weights, inputs) = batch_fixture(6, 1031);
        let views: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
        let mut dispatched = vec![0.0f64; 1031];
        weighted_sum_batch(&mut dispatched, &weights, &views);
        let mut oracle = vec![0.0f64; 1031];
        weighted_sum_batch_scalar(&mut oracle, &weights, &views);
        for i in 0..1031 {
            assert_eq!(dispatched[i].to_bits(), oracle[i].to_bits(), "coord {i}");
        }
    }

    #[test]
    fn weighted_sum_batch_splits_are_bitwise_neutral() {
        let (weights, inputs) = batch_fixture(9, 300);
        let views: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
        let mut whole = vec![0.0f64; 300];
        weighted_sum_batch(&mut whole, &weights, &views);
        let mut split = vec![0.0f64; 300];
        weighted_sum_batch(&mut split, &weights[..4], &views[..4]);
        weighted_sum_batch(&mut split, &weights[4..], &views[4..]);
        for i in 0..300 {
            assert_eq!(whole[i].to_bits(), split[i].to_bits(), "coord {i}");
        }
    }

    #[test]
    #[should_panic(expected = "weighted_sum_batch length mismatch")]
    fn weighted_sum_batch_length_mismatch_panics() {
        let v = [1.0f32, 2.0];
        let mut acc = [0.0f64; 3];
        weighted_sum_batch(&mut acc, &[1.0], &[&v]);
    }

    #[test]
    fn fused_aggregate_momentum_matches_unfused_composition_bitwise() {
        for n in [1, 4, 9, 513] {
            let (weights, inputs) = batch_fixture(4, n);
            let views: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
            let mut acc = vec![0.0f64; n];
            weighted_sum_batch(&mut acc, &weights, &views);
            let total: f64 = weights.iter().sum();
            let y_old = seq(n, 0.41, 0.09);
            let gamma = 0.625f32;

            // Historical composition: finalize, clone, subtract, axpy.
            let mean_ref: Vec<f32> = acc.iter().map(|&a| (a / total) as f32).collect();
            let mut looked_ref = mean_ref.clone();
            let delta: Vec<f32> = mean_ref.iter().zip(&y_old).map(|(m, y)| m - y).collect();
            axpy(&mut looked_ref, gamma, &delta);

            let mut mean = vec![0.0f32; n];
            let mut looked = vec![0.0f32; n];
            fused_aggregate_momentum(&acc, total, gamma, &y_old, &mut mean, &mut looked);
            for i in 0..n {
                assert_eq!(mean[i].to_bits(), mean_ref[i].to_bits(), "mean {i} of {n}");
                assert_eq!(
                    looked[i].to_bits(),
                    looked_ref[i].to_bits(),
                    "looked {i} of {n}"
                );
            }

            let mut mean_s = vec![0.0f32; n];
            let mut looked_s = vec![0.0f32; n];
            fused_aggregate_momentum_scalar(&acc, total, gamma, &y_old, &mut mean_s, &mut looked_s);
            for i in 0..n {
                assert_eq!(mean[i].to_bits(), mean_s[i].to_bits(), "oracle mean {i}");
                assert_eq!(
                    looked[i].to_bits(),
                    looked_s[i].to_bits(),
                    "oracle looked {i}"
                );
            }
        }
    }

    #[test]
    fn momentum_step_matches_clone_sub_axpy_bitwise() {
        let mean = seq(77, 0.23, 0.5);
        let y_old = seq(77, 0.61, -0.2);
        let mut want = mean.clone();
        let delta: Vec<f32> = mean.iter().zip(&y_old).map(|(m, y)| m - y).collect();
        axpy(&mut want, 0.375, &delta);
        let mut got = vec![0.0f32; 77];
        momentum_step(&mut got, 0.375, &mean, &y_old);
        for i in 0..77 {
            assert_eq!(got[i].to_bits(), want[i].to_bits(), "coord {i}");
        }
    }

    #[test]
    fn dispatch_level_is_stable_and_named() {
        let level = dispatch_level();
        assert_eq!(level, dispatch_level());
        assert!(matches!(level.name(), "avx2" | "scalar"));
    }

    #[test]
    fn matmul_bt_elements_are_bitwise_equal_to_dot() {
        // Shapes exercising full 2×2 tiles, row/col remainders, and block
        // edges; every element must match a direct `dot` of its row pair.
        for (n, m, k) in [(1, 1, 1), (2, 2, 8), (5, 3, 17), (33, 35, 41), (64, 64, 64)] {
            let a = seq(n * k, 0.21, 0.05);
            let bt = seq(m * k, 0.37, -0.11);
            let mut out = vec![0.0f32; n * m];
            matmul_bt(&a, &bt, &mut out, n, m, k);
            for r in 0..n {
                for c in 0..m {
                    let want = dot(&a[r * k..(r + 1) * k], &bt[c * k..(c + 1) * k]);
                    assert_eq!(
                        out[r * m + c].to_bits(),
                        want.to_bits(),
                        "({r},{c}) of {n}x{m}x{k}"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_bt_handles_empty_inner_dim() {
        let mut out = vec![7.0f32; 6];
        matmul_bt(&[], &[], &mut out, 2, 3, 0);
        assert!(out.iter().all(|&v| v == 0.0));
    }
}
