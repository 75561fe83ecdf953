//! Property-based tests for the tensor/autodiff substrate.

use proptest::prelude::*;
use spectragan_tensor::{Tape, Tensor};

fn arb_dims() -> impl Strategy<Value = (usize, usize)> {
    (1usize..6, 1usize..6)
}

proptest! {
    /// Matmul distributes over addition: (A+B)·C = A·C + B·C.
    #[test]
    fn matmul_distributes((m, k) in arb_dims(), n in 1usize..6, seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::randn([m, k], &mut rng);
        let b = Tensor::randn([m, k], &mut rng);
        let c = Tensor::randn([k, n], &mut rng);
        let lhs = a.add(&b).matmul(&c);
        let rhs = a.matmul(&c).add(&b.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Transpose is an involution and matmul transposition law holds:
    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn matmul_transpose_law((m, k) in arb_dims(), n in 1usize..6, seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::randn([m, k], &mut rng);
        let b = Tensor::randn([k, n], &mut rng);
        let lhs = a.matmul(&b).transpose2();
        let rhs = b.transpose2().matmul(&a.transpose2());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// narrow/concat roundtrip along any axis of a rank-3 tensor.
    #[test]
    fn narrow_concat_roundtrip(d0 in 1usize..5, d1 in 1usize..5, d2 in 1usize..5, axis in 0usize..3, seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Tensor::randn([d0, d1, d2], &mut rng);
        let len = x.shape().dim(axis);
        prop_assume!(len >= 2);
        let split = len / 2;
        let a = x.narrow(axis, 0, split);
        let b = x.narrow(axis, split, len - split);
        prop_assert_eq!(Tensor::concat(&[&a, &b], axis), x);
    }

    /// Any permutation composed with its inverse is identity.
    #[test]
    fn permute_inverse(seed in 0u64..200) {
        use rand::SeedableRng;
        use rand::seq::SliceRandom;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Tensor::randn([2, 3, 4, 5], &mut rng);
        let mut perm: Vec<usize> = (0..4).collect();
        perm.shuffle(&mut rng);
        let mut inv = vec![0usize; 4];
        for (i, &p) in perm.iter().enumerate() { inv[p] = i; }
        prop_assert_eq!(x.permute(&perm).permute(&inv), x);
    }

    /// Output element `i` of a permutation is input element
    /// `i` with its coordinates reordered, for ranks 0 to 4 and any
    /// extents, empty and single-element axes included.
    #[test]
    fn permute_moves_every_element(seed in 0u64..200, rank in 0usize..5) {
        use rand::{Rng, SeedableRng};
        use rand::seq::SliceRandom;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dims: Vec<usize> = (0..rank).map(|_| rng.gen_range(0usize..5)).collect();
        let x = Tensor::randn(dims.clone(), &mut rng);
        let mut perm: Vec<usize> = (0..rank).collect();
        perm.shuffle(&mut rng);
        let y = x.permute(&perm);
        let out_dims: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
        prop_assert_eq!(y.shape().dims(), &out_dims[..]);
        let mut idx = vec![0usize; rank];
        for o in 0..y.numel() {
            let mut rem = o;
            for d in (0..rank).rev() {
                idx[d] = rem % out_dims[d];
                rem /= out_dims[d];
            }
            let mut src = vec![0usize; rank];
            for (d, &p) in perm.iter().enumerate() {
                src[p] = idx[d];
            }
            prop_assert_eq!(y.data()[o].to_bits(), x.at(&src).to_bits());
        }
    }

    /// The gradient of sum(x ⊙ w) wrt x is exactly w (linear form).
    #[test]
    fn gradient_of_linear_form(n in 1usize..20, seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let xv = Tensor::randn([n], &mut rng);
        let wv = Tensor::randn([n], &mut rng);
        let tape = Tape::new();
        let x = tape.leaf(xv);
        let w = tape.leaf(wv.clone());
        let loss = x.mul(&w).sum();
        let grads = tape.backward(&loss);
        let gx = grads.get(&x).unwrap();
        for (a, b) in gx.data().iter().zip(wv.data()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// Backward through reshape/permute keeps gradient elements intact:
    /// d(sum)/dx is all-ones whatever the view chain.
    #[test]
    fn gradient_through_views_is_ones(seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let xv = Tensor::randn([2, 3, 4], &mut rng);
        let tape = Tape::new();
        let x = tape.leaf(xv);
        let loss = x.permute(&[2, 0, 1]).reshape([4, 6]).sum();
        let grads = tape.backward(&loss);
        for &g in grads.get(&x).unwrap().data() {
            prop_assert!((g - 1.0).abs() < 1e-6);
        }
    }

    /// avg_pool2 preserves the mean of the tensor.
    #[test]
    fn avg_pool_preserves_mean(n in 1usize..3, c in 1usize..3, hw in 1usize..4, seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Tensor::randn([n, c, 2 * hw, 2 * hw], &mut rng);
        let pooled = x.avg_pool2();
        prop_assert!((x.mean() - pooled.mean()).abs() < 1e-5);
    }
}
