//! Contracts of the conv kernels beyond their bits (which
//! `scalar_conv_reference.rs` pins against the historical loop nests):
//! thread-count invariance at a model-like shape, agreement of the
//! gradients with finite differences, non-finite values reaching the
//! gradients instead of being masked by a zero upstream gradient, and
//! shape errors with proper messages.

use spectragan_tensor::{pool, Shape, Tensor};

/// `pool::set_threads` is process-global; serialize the tests that
/// change it.
static POOL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn randn(shape: impl Into<Shape>, seed: u64) -> Tensor {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::randn(shape, &mut rng)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The forward pass and both gradients are bit-identical at any thread
/// count.
#[test]
fn thread_count_bit_equality() {
    let _g = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let x = randn([2, 3, 9, 9], 41);
    let wt = randn([4, 3, 3, 3], 42);
    let go = randn([2, 4, 9, 9], 43);
    pool::set_threads(Some(1));
    let y1 = x.conv2d(&wt, 1);
    let gi1 = Tensor::conv2d_grad_input(&go, &wt, x.shape(), 1);
    let gw1 = Tensor::conv2d_grad_weight(&go, &x, wt.shape(), 1);
    for t in [2, 4, 7] {
        pool::set_threads(Some(t));
        assert_eq!(bits(&y1), bits(&x.conv2d(&wt, 1)), "fwd @ {t}");
        assert_eq!(
            bits(&gi1),
            bits(&Tensor::conv2d_grad_input(&go, &wt, x.shape(), 1)),
            "grad_input @ {t}"
        );
        assert_eq!(
            bits(&gw1),
            bits(&Tensor::conv2d_grad_weight(&go, &x, wt.shape(), 1)),
            "grad_weight @ {t}"
        );
    }
    pool::set_threads(None);
}

/// The gradient kernels match numerical derivatives of the forward
/// kernel.
#[test]
fn conv_grads_match_finite_differences() {
    let x = randn([1, 2, 5, 5], 71);
    let wt = randn([3, 2, 3, 3], 72);
    let pad = 1;
    let r = randn([1, 3, 5, 5], 73);
    let loss = |x: &Tensor, wt: &Tensor| -> f32 {
        x.conv2d(wt, pad)
            .data()
            .iter()
            .zip(r.data())
            .map(|(a, b)| a * b)
            .sum()
    };
    let gi = Tensor::conv2d_grad_input(&r, &wt, x.shape(), pad);
    let gw = Tensor::conv2d_grad_weight(&r, &x, wt.shape(), pad);
    let eps = 1e-2f32;
    for i in (0..x.numel()).step_by(7) {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let num = (loss(&xp, &wt) - loss(&xm, &wt)) / (2.0 * eps);
        assert!(
            (num - gi.data()[i]).abs() < 1e-2 * num.abs().max(1.0),
            "grad_input[{i}]: fd {num} vs analytic {}",
            gi.data()[i]
        );
    }
    for i in (0..wt.numel()).step_by(5) {
        let mut wp = wt.clone();
        wp.data_mut()[i] += eps;
        let mut wm = wt.clone();
        wm.data_mut()[i] -= eps;
        let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
        assert!(
            (num - gw.data()[i]).abs() < 1e-2 * num.abs().max(1.0),
            "grad_weight[{i}]: fd {num} vs analytic {}",
            gw.data()[i]
        );
    }
}

/// An `inf` in the input must surface as NaN in `grad_weight` even when
/// the upstream gradient is zero there (`0 · inf = NaN`), instead of
/// being silently dropped by a `g == 0.0` skip.
#[test]
fn non_finite_input_propagates_to_grad_weight() {
    let mut x = Tensor::zeros([1, 1, 3, 3]);
    x.data_mut()[4] = f32::INFINITY;
    let go = Tensor::zeros([1, 1, 2, 2]);
    let gw = Tensor::conv2d_grad_weight(&go, &x, &Shape::new(&[1, 1, 2, 2]), 0);
    assert!(
        gw.data().iter().any(|v| v.is_nan()),
        "inf input swallowed by zero upstream gradient"
    );
}

/// Same principle for grad_input: an `inf` in the weight must not be
/// masked by a zero upstream gradient.
#[test]
fn non_finite_weight_propagates_to_grad_input() {
    let mut wt = Tensor::zeros([1, 1, 2, 2]);
    wt.data_mut()[0] = f32::INFINITY;
    let go = Tensor::zeros([1, 1, 2, 2]);
    let gi = Tensor::conv2d_grad_input(&go, &wt, &Shape::new(&[1, 1, 3, 3]), 0);
    assert!(
        gi.data().iter().any(|v| v.is_nan()),
        "inf weight swallowed by zero upstream gradient"
    );
}

/// A zero-size kernel is a shape error with a proper message, not an
/// arithmetic underflow in the output-extent computation.
#[test]
#[should_panic(expected = "positive extent")]
fn conv2d_rejects_zero_size_kernel() {
    let x = Tensor::zeros([1, 1, 4, 4]);
    let wt = Tensor::zeros([1, 1, 0, 3]);
    x.conv2d(&wt, 0);
}

/// The gradient entry points validate the kernel dims too.
#[test]
#[should_panic(expected = "positive extent")]
fn conv2d_grad_weight_rejects_zero_size_kernel() {
    let go = Tensor::zeros([1, 1, 4, 4]);
    let x = Tensor::zeros([1, 1, 4, 4]);
    Tensor::conv2d_grad_weight(&go, &x, &Shape::new(&[1, 1, 3, 0]), 1);
}

/// A `[1, 2, 6, 6]` input under a 3×3 kernel at pad 1 has a 6×6
/// forward output, so a 4×4 `grad_out` is refused, naming the shape it
/// should have had.
#[test]
#[should_panic(expected = "grad_out must be [1, 3, 6, 6]")]
fn conv2d_grad_input_rejects_grad_out_of_the_wrong_size() {
    let wt = Tensor::zeros([3, 2, 3, 3]);
    let go = Tensor::zeros([1, 3, 4, 4]);
    Tensor::conv2d_grad_input(&go, &wt, &Shape::new(&[1, 2, 6, 6]), 1);
}

/// As above, through the weight gradient.
#[test]
#[should_panic(expected = "grad_out must be [1, 3, 6, 6]")]
fn conv2d_grad_weight_rejects_grad_out_of_the_wrong_size() {
    let x = Tensor::zeros([1, 2, 6, 6]);
    let go = Tensor::zeros([1, 3, 4, 4]);
    Tensor::conv2d_grad_weight(&go, &x, &Shape::new(&[3, 2, 3, 3]), 1);
}
