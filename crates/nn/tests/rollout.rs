//! `Lstm::rollout_infer` against the step loop it replaces
//! (`step_infer_projected` + `Linear::forward_infer`, one step at a
//! time): bit-identical at every thread count.
//!
//! The pool width is process-global, so every test holds `LOCK` while
//! it changes it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spectragan_nn::{Linear, Lstm, ParamStore};
use spectragan_tensor::{pool, Tensor};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const THREADS: [usize; 3] = [1, 2, 4];

struct Case {
    store: ParamStore,
    lstm: Lstm,
    head: Linear,
    xw: Tensor,
}

/// A random LSTM + one-output head and an input projection for `rows`
/// rows. Row 0's projection is zero, so with the zero-initialised
/// g-gate bias its state stays exactly zero and the zero-skip of both
/// mat-vecs is exercised; the head bias is made non-zero so the bias
/// add is too.
fn case(rows: usize, hidden: usize, seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let input = 3;
    let lstm = Lstm::new(&mut store, input, hidden, &mut rng);
    let head = Linear::new(&mut store, hidden, 1, &mut rng);
    let head_b = store.ids().last().expect("head bias registered last");
    store.get_mut(head_b).data_mut()[0] = 0.25;
    let mut x = Tensor::randn([rows, input], &mut rng).scale(2.0);
    x.data_mut()[..input].fill(0.0);
    let xw = x.matmul(store.get(lstm.wx_param()));
    Case {
        store,
        lstm,
        head,
        xw,
    }
}

/// The historical rollout: one tape-free step and one head forward per
/// time step, scattered into `[N, t_out]`.
fn step_loop(c: &Case, t_out: usize) -> Tensor {
    let n = c.xw.shape().dim(0);
    let (mut h, mut cell) = c.lstm.zero_state_infer(n);
    let mut out = Tensor::zeros([n, t_out]);
    for t in 0..t_out {
        let (h2, c2) = c.lstm.step_infer_projected(&c.store, &c.xw, &h, &cell);
        h = h2;
        cell = c2;
        let y = c.head.forward_infer(&c.store, &h);
        for r in 0..n {
            out.data_mut()[r * t_out + t] = y.data()[r];
        }
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn rollout_at(c: &Case, t_out: usize, threads: usize) -> Tensor {
    pool::set_threads(Some(threads));
    let out = c.lstm.rollout_infer(&c.store, &c.xw, &c.head, t_out);
    pool::set_threads(None);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The rollout is the step loop, bit for bit, at 1, 2 and 4
    /// threads.
    #[test]
    fn scalar_rollout_is_bit_identical_to_step_loop(
        rows in 1usize..40,
        hidden in 1usize..12,
        t_out in 1usize..60,
        threads_at in 0usize..3,
        seed in 0u64..1000,
    ) {
        let _g = lock();
        let c = case(rows, hidden, seed);
        let want = step_loop(&c, t_out);
        let got = rollout_at(&c, t_out, THREADS[threads_at]);
        prop_assert_eq!(got.shape().dims(), &[rows, t_out]);
        prop_assert!(
            bits(&got) == bits(&want),
            "rows {rows} hidden {hidden} t_out {t_out} threads {}",
            THREADS[threads_at]
        );
    }
}

/// A one-patch request (64 rows, hidden 16) of 1 or 12 steps is below
/// the pool's multiply-add cutoff, so it runs on the calling thread
/// whatever the pool width; it is the step loop, bit for bit, at 1, 2
/// and 4 threads.
#[test]
fn below_cutoff_rollout_matches_step_loop() {
    let _g = lock();
    let (rows, hidden) = (64, 16);
    for t_out in [1, 12] {
        assert!(rows * t_out * (hidden + 1) * 4 * hidden < pool::MIN_PARALLEL_MACS);
        let c = case(rows, hidden, 11);
        let want = bits(&step_loop(&c, t_out));
        for threads in THREADS {
            assert!(
                bits(&rollout_at(&c, t_out, threads)) == want,
                "t_out {t_out} threads {threads}"
            );
        }
    }
}

/// Degenerate shapes: no rows or no steps give an empty result.
#[test]
fn empty_rollouts_are_empty() {
    let _g = lock();
    let c = case(2, 4, 7);
    assert_eq!(
        c.lstm
            .rollout_infer(&c.store, &c.xw, &c.head, 0)
            .shape()
            .dims(),
        &[2, 0]
    );
    let none = Tensor::zeros([0, 16]);
    assert_eq!(
        c.lstm
            .rollout_infer(&c.store, &none, &c.head, 5)
            .shape()
            .dims(),
        &[0, 5]
    );
}

/// A head that is not `hidden → 1` is refused.
#[test]
#[should_panic(expected = "rollout_infer: head maps")]
fn wide_head_is_refused() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut store = ParamStore::new();
    let lstm = Lstm::new(&mut store, 2, 4, &mut rng);
    let head = Linear::new(&mut store, 4, 2, &mut rng);
    let xw = Tensor::zeros([3, 16]);
    lstm.rollout_infer(&store, &xw, &head, 5);
}
