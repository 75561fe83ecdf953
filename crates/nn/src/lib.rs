//! Neural-network building blocks on top of [`spectragan_tensor`].
//!
//! The SpectraGAN architecture (§2.2) is assembled from three layer
//! types — 2-D convolutions (encoder and spectrum generator), linear
//! layers (spectrum discriminator MLP) and LSTMs (residual time-series
//! generator and time discriminator). This crate provides those layers,
//! plus the plumbing a from-scratch framework needs:
//!
//! * [`ParamStore`] / [`ParamId`] — persistent parameter storage that
//!   outlives the per-step autodiff tape.
//! * [`Binding`] — binds parameters to leaf [`Var`]s on a fresh tape for
//!   one forward/backward pass.
//! * [`Adam`] / [`Sgd`] — optimizers that consume the tape's gradients
//!   and update the store in place, with optional global-norm clipping.
//! * [`init`] — Xavier/He initializers.
//!
//! Training loop shape:
//!
//! ```
//! use spectragan_nn::{Adam, Binding, Linear, ParamStore};
//! use spectragan_tensor::{Tape, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let layer = Linear::new(&mut store, 4, 1, &mut rng);
//! let mut opt = Adam::new(1e-2);
//!
//! for _ in 0..10 {
//!     let tape = Tape::new();
//!     let mut bind = Binding::new(&tape, &store);
//!     let x = tape.leaf(Tensor::ones([3, 4]));
//!     let loss = layer.forward(&mut bind, &x).mse_to(&Tensor::zeros([3, 1]));
//!     let grads = tape.backward(&loss);
//!     let bound = bind.bound();
//!     opt.step(&mut store, &bound, &grads);
//! }
//! ```

pub mod init;
pub mod layers;
pub mod lstm;
pub mod optim;
pub mod param;

pub use layers::{Activation, Conv2d, Linear, Mlp};
pub use lstm::{Lstm, LstmState};
pub use optim::{collect_updates, Adam, AdamParamState, AdamState, Sgd};
pub use param::{Binding, LazySource, ParamId, ParamStore};

// Re-exported so downstream crates depend on one prelude.
pub use spectragan_tensor::{Shape, Tape, Tensor, Var};
