//! Backend parity suite: the Simd backend must agree with the Scalar
//! reference on every dispatched op family to floating-point
//! reassociation tolerance (≤ 1e-5 relative), and each backend must be
//! bit-identical to itself at every thread count.
//!
//! Also home of the regression tests for the PR 6 kernel bugfixes:
//! non-finite inputs must surface as NaN in the conv gradients (the old
//! `g == 0.0` skip silently swallowed them), and zero-size kernels must
//! fail with the documented shape error rather than an arithmetic
//! underflow.

use proptest::prelude::*;
use spectragan_tensor::{pool, set_backend, BackendKind, FusedAct, Shape, Tape, Tensor};

/// `set_backend`/`set_threads` are process-global; serialize every test
/// that flips them (same discipline as the determinism suites).
static BACKEND_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` under the given backend, restoring the default after.
fn with_backend<T>(kind: BackendKind, f: impl FnOnce() -> T) -> T {
    set_backend(Some(kind));
    let out = f();
    set_backend(None);
    out
}

/// Relative-tolerance comparison between the two backends' outputs.
fn assert_close(scalar: &Tensor, simd: &Tensor, what: &str) {
    assert_eq!(scalar.shape(), simd.shape(), "{what}: shape mismatch");
    for (i, (&a, &b)) in scalar.data().iter().zip(simd.data()).enumerate() {
        let tol = 1e-5 * a.abs().max(b.abs()).max(1.0);
        assert!(
            (a - b).abs() <= tol,
            "{what}: element {i} diverges: scalar {a} vs simd {b}"
        );
    }
}

fn randn(shape: impl Into<Shape>, seed: u64) -> Tensor {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::randn(shape, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// matmul parity across random rectangular shapes.
    #[test]
    fn matmul_parity(m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000) {
        let _g = lock();
        let a = randn([m, k], seed);
        let b = randn([k, n], seed ^ 0xabcd);
        let ys = with_backend(BackendKind::Scalar, || a.matmul(&b));
        let yv = with_backend(BackendKind::Simd, || a.matmul(&b));
        assert_close(&ys, &yv, "matmul");
    }

    /// `a @ bᵀ` parity across random rectangular shapes.
    #[test]
    fn matmul_bt_parity(m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000) {
        let _g = lock();
        let a = randn([m, k], seed);
        let b = randn([n, k], seed ^ 0x77);
        let ys = with_backend(BackendKind::Scalar, || a.matmul_bt(&b));
        let yv = with_backend(BackendKind::Simd, || a.matmul_bt(&b));
        assert_close(&ys, &yv, "matmul_bt");
        let reference = with_backend(BackendKind::Scalar, || a.matmul(&b.transpose2()));
        assert_close(&reference, &yv, "matmul_bt vs composed transpose");
    }

    /// `aᵀ @ b` parity across random rectangular shapes.
    #[test]
    fn matmul_tb_parity(m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000) {
        let _g = lock();
        let a = randn([m, k], seed);
        let b = randn([m, n], seed ^ 0x99);
        let ys = with_backend(BackendKind::Scalar, || a.matmul_tb(&b));
        let yv = with_backend(BackendKind::Simd, || a.matmul_tb(&b));
        assert_close(&ys, &yv, "matmul_tb");
        let reference = with_backend(BackendKind::Scalar, || a.transpose2().matmul(&b));
        assert_close(&reference, &yv, "matmul_tb vs composed transpose");
    }

    /// Fused matmul+bias+activation parity (forward, via the tape).
    #[test]
    fn matmul_bias_act_parity(m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..1000) {
        let _g = lock();
        let a = randn([m, k], seed);
        let w = randn([k, n], seed ^ 1);
        let b = randn([n], seed ^ 2);
        for act in [FusedAct::Identity, FusedAct::Tanh, FusedAct::LeakyRelu(0.2)] {
            let run = || {
                let tape = Tape::new();
                let av = tape.leaf(a.clone());
                let wv = tape.leaf(w.clone());
                let bv = tape.leaf(b.clone());
                av.matmul_bias_act(&wv, &bv, act).value().as_ref().clone()
            };
            let ys = with_backend(BackendKind::Scalar, run);
            let yv = with_backend(BackendKind::Simd, run);
            assert_close(&ys, &yv, "matmul_bias_act");
        }
    }

    /// conv2d forward parity across random shapes and paddings.
    #[test]
    fn conv2d_parity(
        n in 1usize..3, cin in 1usize..4, h in 1usize..8, w in 1usize..8,
        cout in 1usize..4, kh in 1usize..4, kw in 1usize..4, pad in 0usize..3,
        seed in 0u64..1000,
    ) {
        prop_assume!(kh <= h + 2 * pad && kw <= w + 2 * pad);
        let _g = lock();
        let x = randn([n, cin, h, w], seed);
        let wt = randn([cout, cin, kh, kw], seed ^ 7);
        let ys = with_backend(BackendKind::Scalar, || x.conv2d(&wt, pad));
        let yv = with_backend(BackendKind::Simd, || x.conv2d(&wt, pad));
        assert_close(&ys, &yv, "conv2d");
    }

    /// Fused conv2d+bias parity (forward, via the tape).
    #[test]
    fn conv2d_bias_parity(
        cin in 1usize..4, hw in 2usize..7, cout in 1usize..4, pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        let _g = lock();
        let x = randn([2, cin, hw, hw], seed);
        let wt = randn([cout, cin, 3, 3], seed ^ 11);
        let b = randn([cout], seed ^ 12);
        prop_assume!(3 <= hw + 2 * pad);
        let run = || {
            let tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let wv = tape.leaf(wt.clone());
            let bv = tape.leaf(b.clone());
            xv.conv2d_bias(&wv, &bv, pad).value().as_ref().clone()
        };
        let ys = with_backend(BackendKind::Scalar, run);
        let yv = with_backend(BackendKind::Simd, run);
        assert_close(&ys, &yv, "conv2d_bias");
    }

    /// conv2d gradient parity (both grad_input and grad_weight).
    #[test]
    fn conv2d_grad_parity(
        n in 1usize..3, cin in 1usize..4, h in 2usize..8, w in 2usize..8,
        cout in 1usize..4, kh in 1usize..4, kw in 1usize..4, pad in 0usize..3,
        seed in 0u64..1000,
    ) {
        prop_assume!(kh <= h + 2 * pad && kw <= w + 2 * pad);
        let _g = lock();
        let x = randn([n, cin, h, w], seed);
        let wt = randn([cout, cin, kh, kw], seed ^ 21);
        let oh = h + 2 * pad - kh + 1;
        let ow = w + 2 * pad - kw + 1;
        let go = randn([n, cout, oh, ow], seed ^ 22);
        let (gis, gws) = with_backend(BackendKind::Scalar, || {
            (
                Tensor::conv2d_grad_input(&go, &wt, x.shape(), pad),
                Tensor::conv2d_grad_weight(&go, &x, wt.shape(), pad),
            )
        });
        let (giv, gwv) = with_backend(BackendKind::Simd, || {
            (
                Tensor::conv2d_grad_input(&go, &wt, x.shape(), pad),
                Tensor::conv2d_grad_weight(&go, &x, wt.shape(), pad),
            )
        });
        assert_close(&gis, &giv, "conv2d_grad_input");
        assert_close(&gws, &gwv, "conv2d_grad_weight");
    }
}

/// Each backend must produce bit-identical results at any thread count:
/// the determinism contract is per backend.
#[test]
fn per_backend_thread_count_bit_equality() {
    let _g = lock();
    let x = randn([2, 3, 9, 9], 41);
    let wt = randn([4, 3, 3, 3], 42);
    let go = randn([2, 4, 9, 9], 43);
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        with_backend(kind, || {
            pool::set_threads(Some(1));
            let y1 = x.conv2d(&wt, 1);
            let gi1 = Tensor::conv2d_grad_input(&go, &wt, x.shape(), 1);
            let gw1 = Tensor::conv2d_grad_weight(&go, &x, wt.shape(), 1);
            for t in [2, 4, 7] {
                pool::set_threads(Some(t));
                assert_eq!(bits(&y1), bits(&x.conv2d(&wt, 1)), "{kind:?} fwd @ {t}");
                assert_eq!(
                    bits(&gi1),
                    bits(&Tensor::conv2d_grad_input(&go, &wt, x.shape(), 1)),
                    "{kind:?} grad_input @ {t}"
                );
                assert_eq!(
                    bits(&gw1),
                    bits(&Tensor::conv2d_grad_weight(&go, &x, wt.shape(), 1)),
                    "{kind:?} grad_weight @ {t}"
                );
            }
            pool::set_threads(None);
        });
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Finite-difference check of the Simd conv gradients: the adjoint
/// kernels must match numerical derivatives of the forward kernel.
#[test]
fn simd_conv_grads_match_finite_differences() {
    let _g = lock();
    with_backend(BackendKind::Simd, || {
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
    });
}

/// Regression for the `g == 0.0` skip: an `inf` in the input must
/// surface as NaN in `grad_weight` even when the upstream gradient is
/// zero there (`0 · inf = NaN`), instead of being silently dropped.
#[test]
fn non_finite_input_propagates_to_grad_weight() {
    let _g = lock();
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        with_backend(kind, || {
            let mut x = Tensor::zeros([1, 1, 3, 3]);
            x.data_mut()[4] = f32::INFINITY;
            let go = Tensor::zeros([1, 1, 2, 2]);
            let gw = Tensor::conv2d_grad_weight(&go, &x, &Shape::new(&[1, 1, 2, 2]), 0);
            assert!(
                gw.data().iter().any(|v| v.is_nan()),
                "{kind:?}: inf input swallowed by zero upstream gradient"
            );
        });
    }
}

/// Same principle for grad_input: an `inf` in the weight must not be
/// masked by a zero upstream gradient.
#[test]
fn non_finite_weight_propagates_to_grad_input() {
    let _g = lock();
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        with_backend(kind, || {
            let mut wt = Tensor::zeros([1, 1, 2, 2]);
            wt.data_mut()[0] = f32::INFINITY;
            let go = Tensor::zeros([1, 1, 2, 2]);
            let gi = Tensor::conv2d_grad_input(&go, &wt, &Shape::new(&[1, 1, 3, 3]), 0);
            assert!(
                gi.data().iter().any(|v| v.is_nan()),
                "{kind:?}: inf weight swallowed by zero upstream gradient"
            );
        });
    }
}

/// The transposed products take a different code path once the rhs
/// outgrows the transpose-free threshold (16 Ki elements); pin parity
/// at a shape past it.
#[test]
fn matmul_bt_tb_parity_above_transpose_threshold() {
    let _g = lock();
    let a = randn([48, 160], 31);
    let b_bt = randn([130, 160], 32); // 20 800 elements
    let b_tb = randn([48, 450], 33); // 21 600 elements
    let (ys_bt, ys_tb) = with_backend(BackendKind::Scalar, || {
        (a.matmul_bt(&b_bt), a.matmul_tb(&b_tb))
    });
    let (yv_bt, yv_tb) = with_backend(BackendKind::Simd, || {
        (a.matmul_bt(&b_bt), a.matmul_tb(&b_tb))
    });
    assert_close(&ys_bt, &yv_bt, "matmul_bt above threshold");
    assert_close(&ys_tb, &yv_tb, "matmul_tb above threshold");
}

/// Both backends run the activations of `spectragan_tensor::math`, so
/// tanh and sigmoid are bit-equal across them, saturate far outside the
/// working range, and keep their signed zeros.
#[test]
fn elementwise_activation_parity() {
    let _g = lock();
    let n = 4001;
    let mut vals: Vec<f32> = (0..n)
        .map(|i| -20.0 + 40.0 * i as f32 / (n - 1) as f32)
        .collect();
    vals.extend([-1e30, -100.0, -0.0, 0.0, 100.0, 1e30]);
    let x = Tensor::from_vec(vals, [n + 6]);
    let run_tanh = || {
        let tape = Tape::new();
        tape.leaf(x.clone()).tanh().value().as_ref().clone()
    };
    let run_sigmoid = || {
        let tape = Tape::new();
        tape.leaf(x.clone()).sigmoid().value().as_ref().clone()
    };
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let ts = with_backend(BackendKind::Scalar, run_tanh);
    let tv = with_backend(BackendKind::Simd, run_tanh);
    assert_eq!(bits(&ts), bits(&tv), "tanh");
    let ss = with_backend(BackendKind::Scalar, run_sigmoid);
    let sv = with_backend(BackendKind::Simd, run_sigmoid);
    assert_eq!(bits(&ss), bits(&sv), "sigmoid");
    let d = ts.data();
    assert_eq!(
        [d[n], d[n + 1], d[n + 4], d[n + 5]],
        [-1.0, -1.0, 1.0, 1.0],
        "tanh saturates"
    );
    assert_eq!(d[n + 2].to_bits(), (-0.0f32).to_bits(), "tanh(-0)");
    assert_eq!(d[n + 3].to_bits(), 0.0f32.to_bits(), "tanh(+0)");
    let d = ss.data();
    assert_eq!([d[n], d[n + 5]], [0.0, 1.0], "sigmoid saturates");
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
