//! Persistent parameter storage and per-tape binding.
//!
//! An autodiff [`Tape`](spectragan_tensor::Tape) lives for one training
//! step; model parameters live for the whole run. [`ParamStore`] owns
//! the parameter tensors, [`ParamId`] is a stable handle that layers
//! keep, and [`Binding`] lazily creates one leaf [`Var`] per parameter
//! on the current tape so a forward pass can use them and the optimizer
//! can look their gradients up afterwards.
//!
//! # Lazy storage
//!
//! A parameter is normally a resident f32 [`Tensor`] ([`Slot::Dense`]).
//! A store built over a memory-mapped weight container (owned by
//! `spectragan-core`) may instead hold a [`LazySource`]
//! ([`Slot::Lazy`]): the section stays on disk until the parameter is
//! first touched, then materializes once, bit-identical to the dense
//! value, and stays resident. Every accessor — training, optimizer and
//! inference — sees the same `&Tensor` through [`ParamStore::get`].

use serde::{DeError, Deserialize, Serialize, Value};
use spectragan_tensor::{Shape, Tape, Tensor, Var};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

/// Stable handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The registration index (parameters are numbered in registration
    /// order, so a model built after another occupies a contiguous
    /// later range — which is how the GAN trainer partitions generator
    /// and discriminator parameters).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Deferred f32 storage for one parameter: the value stays wherever
/// the source keeps it (a mapped weight-container section) until the
/// parameter is first touched, at which point [`LazySource::load`]
/// materializes it exactly once per store.
///
/// `load` panics on a corrupt source (checksum mismatch) — callers who
/// need a typed error validate the container before first touch.
pub trait LazySource: Send + Sync {
    /// Materializes the tensor. Must return the registered shape.
    fn load(&self) -> Tensor;
}

/// One parameter's storage.
enum Slot {
    /// Resident f32 tensor — the training representation.
    Dense(Tensor),
    /// Deferred f32: materialized on first touch, resident afterwards.
    Lazy {
        shape: Shape,
        source: Arc<dyn LazySource>,
        cache: OnceLock<Tensor>,
    },
}

impl Clone for Slot {
    fn clone(&self) -> Self {
        match self {
            Slot::Dense(t) => Slot::Dense(t.clone()),
            // The clone shares the source but re-materializes
            // independently (OnceLock is not Clone); an already-cached
            // value is carried over to keep clones cheap to touch.
            Slot::Lazy {
                shape,
                source,
                cache,
            } => {
                let fresh = OnceLock::new();
                if let Some(t) = cache.get() {
                    let _ = fresh.set(t.clone());
                }
                Slot::Lazy {
                    shape: shape.clone(),
                    source: Arc::clone(source),
                    cache: fresh,
                }
            }
        }
    }
}

impl Slot {
    fn numel(&self) -> usize {
        self.shape().numel()
    }

    fn shape(&self) -> &Shape {
        match self {
            Slot::Dense(t) => t.shape(),
            Slot::Lazy { shape, .. } => shape,
        }
    }
}

/// Owns all trainable tensors of one or more models.
#[derive(Clone, Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Slot>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle. Names are for
    /// diagnostics and serialization; duplicates are allowed.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.names.push(name.into());
        self.values.push(Slot::Dense(value));
        ParamId(self.values.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_weights(&self) -> usize {
        self.values.iter().map(Slot::numel).sum()
    }

    /// Bytes of parameter storage resident in this process: 4 per
    /// element for dense slots and for lazy slots already touched,
    /// nothing for lazy slots still on disk. This is the number the
    /// serve registry reports per city.
    pub fn resident_weight_bytes(&self) -> usize {
        self.values
            .iter()
            .map(|s| match s {
                Slot::Dense(t) => 4 * t.numel(),
                Slot::Lazy { cache, .. } => cache.get().map_or(0, |t| 4 * t.numel()),
            })
            .sum()
    }

    /// Read access to a parameter's current value, materializing a
    /// lazy slot on first touch.
    pub fn get(&self, id: ParamId) -> &Tensor {
        match &self.values[id.0] {
            Slot::Dense(t) => t,
            Slot::Lazy {
                shape,
                source,
                cache,
            } => {
                let t = cache.get_or_init(|| source.load());
                assert_eq!(
                    t.shape(),
                    shape,
                    "lazy parameter '{}' materialized the wrong shape",
                    self.names[id.0]
                );
                t
            }
        }
    }

    /// Inference matmul against a parameter used as the right operand:
    /// `x @ W`, exactly `x.matmul(self.get(id))`.
    pub fn infer_matmul(&self, x: &Tensor, id: ParamId) -> Tensor {
        x.matmul(self.get(id))
    }

    /// Mutable access to a parameter's current value.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        // Promote a lazy slot to dense first; mutation implies the
        // value diverges from its on-disk source for good.
        if matches!(self.values[id.0], Slot::Lazy { .. }) {
            let t = self.get(id).clone();
            self.values[id.0] = Slot::Dense(t);
        }
        match &mut self.values[id.0] {
            Slot::Dense(t) => t,
            Slot::Lazy { .. } => unreachable!("promoted above"),
        }
    }

    /// The diagnostic name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// The shape of a parameter, without materializing a lazy slot.
    pub fn shape(&self, id: ParamId) -> &Shape {
        self.values[id.0].shape()
    }

    /// Iterates over `(id, name, value)` triples, materializing every
    /// lazy slot.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, _)| (ParamId(i), self.names[i].as_str(), self.get(ParamId(i))))
    }

    /// Iterates over every parameter id without touching any value
    /// (unlike [`ParamStore::iter`], which materializes).
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Replaces a dense parameter's value with a deferred f32 source
    /// of the same shape. The first training or inference touch
    /// materializes it ([`LazySource::load`]) and it stays resident
    /// from then on.
    pub fn demote_to_lazy(&mut self, id: ParamId, source: Arc<dyn LazySource>) {
        let shape = self.values[id.0].shape().clone();
        self.values[id.0] = Slot::Lazy {
            shape,
            source,
            cache: OnceLock::new(),
        };
    }

    /// Serializes the whole store (names + weights) to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ParamStore serialization cannot fail")
    }

    /// Restores a store previously produced by [`ParamStore::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Copies all parameter values from `other` into this store. Used
    /// to load saved weights into a freshly constructed model of the
    /// same architecture.
    ///
    /// # Panics
    /// Panics if the stores differ in parameter count or any shape.
    pub fn copy_values_from(&mut self, other: &ParamStore) {
        assert_eq!(
            self.len(),
            other.len(),
            "parameter count mismatch: {} vs {}",
            self.len(),
            other.len()
        );
        for i in 0..self.values.len() {
            assert_eq!(
                self.values[i].shape(),
                other.values[i].shape(),
                "shape mismatch for parameter {} ({})",
                i,
                self.names[i]
            );
            self.values[i] = Slot::Dense(other.get(ParamId(i)).clone());
        }
    }
}

// Manual serde impls preserving the exact `{"names": [...], "values":
// [...]}` object layout the former derive produced — every existing
// weights/model/checkpoint JSON file stays byte-compatible. (The
// derive cannot be used anymore: `Slot` is a data-carrying enum, and
// the JSON surface must stay `Vec<Tensor>`-shaped regardless of the
// storage representation.)
impl Serialize for ParamStore {
    fn to_value(&self) -> Value {
        let values: Vec<Value> = self
            .values
            .iter()
            .map(|s| match s {
                Slot::Dense(t) => t.to_value(),
                Slot::Lazy { source, cache, .. } => cache.get_or_init(|| source.load()).to_value(),
            })
            .collect();
        Value::Obj(vec![
            ("names".to_string(), self.names.to_value()),
            ("values".to_string(), Value::Arr(values)),
        ])
    }
}

impl Deserialize for ParamStore {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let names: Vec<String> = Deserialize::from_value(v.get("names").unwrap_or(&Value::Null))?;
        let tensors: Vec<Tensor> =
            Deserialize::from_value(v.get("values").unwrap_or(&Value::Null))?;
        if names.len() != tensors.len() {
            return Err(DeError(format!(
                "ParamStore: {} names but {} values",
                names.len(),
                tensors.len()
            )));
        }
        Ok(ParamStore {
            names,
            values: tensors.into_iter().map(Slot::Dense).collect(),
        })
    }
}

/// Binds parameters of a [`ParamStore`] to leaf [`Var`]s on one tape.
///
/// Interior mutability lets layers bind parameters during a forward
/// pass that only holds `&Binding`.
pub struct Binding<'s> {
    tape: Rc<Tape>,
    store: &'s ParamStore,
    vars: RefCell<Vec<Option<Var>>>,
}

impl<'s> Binding<'s> {
    /// Creates a binding of `store` onto `tape`.
    pub fn new(tape: &Rc<Tape>, store: &'s ParamStore) -> Self {
        Binding {
            tape: Rc::clone(tape),
            store,
            vars: RefCell::new(vec![None; store.len()]),
        }
    }

    /// The tape this binding records onto.
    pub fn tape(&self) -> &Rc<Tape> {
        &self.tape
    }

    /// Returns the leaf [`Var`] for `id`, creating it on first use.
    pub fn var(&self, id: ParamId) -> Var {
        let mut vars = self.vars.borrow_mut();
        if let Some(v) = &vars[id.0] {
            return v.clone();
        }
        let v = self.tape.leaf(self.store.get(id).clone());
        vars[id.0] = Some(v.clone());
        v
    }

    /// Iterates over the parameters that were actually bound (used)
    /// during this pass, as `(id, var)` pairs.
    pub fn bound(&self) -> Vec<(ParamId, Var)> {
        self.vars
            .borrow()
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (ParamId(i), v.clone())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_access() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::ones([2, 2]));
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_weights(), 4);
        assert_eq!(store.name(id), "w");
        store.get_mut(id).data_mut()[0] = 5.0;
        assert_eq!(store.get(id).data()[0], 5.0);
    }

    #[test]
    fn binding_is_lazy_and_cached() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::scalar(1.0));
        let _b = store.register("b", Tensor::scalar(2.0));
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        assert!(bind.bound().is_empty());
        let v1 = bind.var(a);
        let v2 = bind.var(a);
        assert_eq!(tape.len(), 1, "second bind must reuse the leaf");
        assert_eq!(v1.value().item(), v2.value().item());
        assert_eq!(bind.bound().len(), 1);
    }

    #[test]
    fn json_roundtrip_preserves_weights() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::from_vec(vec![1.5, -2.5], [2]));
        let json = store.to_json();
        let restored = ParamStore::from_json(&json).unwrap();
        assert_eq!(restored.get(ParamId(id.0)).data(), &[1.5, -2.5]);
        assert_eq!(restored.name(id), "w");
    }
}
