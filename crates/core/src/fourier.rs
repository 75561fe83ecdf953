//! Bridges between the neural network (f32 tensors of stacked
//! real/imaginary spectrum rows) and the DSP crate (f64 complex).
//!
//! The spectrum generator emits, per pixel, `2F` values: `F` real parts
//! followed by `F` imaginary parts of the one-sided spectrum. Because
//! the inverse rFFT is linear, converting those rows to time series is
//! a single matmul with the constant basis built by [`irfft_basis`] —
//! which keeps the whole generator differentiable with no bespoke
//! autodiff op (§2.2.2 notes IFFT differentiability as the requirement).

use spectragan_dsp::spectrum::quantile_in_place;
use spectragan_dsp::{Complex, FftPlan};
use spectragan_obs as obs;
use spectragan_tensor::Tensor;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Builds the constant inverse-rFFT basis `B ∈ R^{2F×T}` for the
/// crate's *normalized* spectrum convention: the network works with
/// `s = FFT(x)/T` (stacked `[Re_0..Re_{F−1}, Im_0..Im_{F−1}]`), which
/// keeps spectrum rows on the same O(1) scale as the traffic itself —
/// essential for well-conditioned training. Under that convention
/// `s · B` equals the inverse rFFT of the corresponding (unnormalized)
/// one-sided spectrum.
///
/// Rows for the DC (and, for even `T`, Nyquist) imaginary parts are
/// zero: those components are constrained to be real for a real signal,
/// so generator outputs there receive no gradient and have no effect.
pub fn irfft_basis(t: usize) -> Tensor {
    assert!(t >= 2, "basis needs at least 2 samples");
    let f = t / 2 + 1;
    let mut basis = Tensor::zeros([2 * f, t]);
    for k in 0..f {
        // Interior bins appear twice in the full spectrum (conjugate
        // pair); DC and even-T Nyquist appear once.
        let is_nyquist = t.is_multiple_of(2) && k == f - 1;
        let c = if k == 0 || is_nyquist { 1.0 } else { 2.0 };
        for n in 0..t {
            let ang = 2.0 * std::f64::consts::PI * (k * n) as f64 / t as f64;
            *basis.at_mut(&[k, n]) = (c * ang.cos()) as f32;
            if k != 0 && !is_nyquist {
                *basis.at_mut(&[f + k, n]) = (-c * ang.sin()) as f32;
            }
        }
    }
    basis
}

/// Converts one stacked re/im row (length `2F`) into a complex
/// one-sided spectrum.
pub fn row_to_complex(row: &[f32]) -> Vec<Complex> {
    assert_eq!(row.len() % 2, 0, "spectrum row length must be even");
    let f = row.len() / 2;
    (0..f)
        .map(|k| Complex::new(row[k] as f64, row[f + k] as f64))
        .collect()
}

/// Converts a complex one-sided spectrum into a stacked re/im row.
pub fn complex_to_row(spec: &[Complex]) -> Vec<f32> {
    let f = spec.len();
    let mut row = vec![0.0f32; 2 * f];
    for (k, z) in spec.iter().enumerate() {
        row[k] = z.re as f32;
        row[f + k] = z.im as f32;
    }
    row
}

/// Rearranges a `[T, H, W]` traffic patch into pixel-major series rows
/// `[H·W, T]`.
pub fn patch_to_rows(patch: &Tensor) -> Tensor {
    assert_eq!(patch.shape().ndim(), 3, "patch must be [T, H, W]");
    let (t, h, w) = (
        patch.shape().dim(0),
        patch.shape().dim(1),
        patch.shape().dim(2),
    );
    Tensor::from_vec(patch.permute(&[1, 2, 0]).into_vec(), [h * w, t])
}

/// Inverse of [`patch_to_rows`].
pub fn rows_to_patch(rows: &Tensor, h: usize, w: usize) -> Tensor {
    assert_eq!(rows.shape().ndim(), 2, "rows must be [H·W, T]");
    assert_eq!(rows.shape().dim(0), h * w, "row count does not match H·W");
    let t = rows.shape().dim(1);
    rows.reshape([h, w, t]).permute(&[2, 0, 1])
}

/// Computes the masked-spectrum training target `M^q(FFT(x))/T` for
/// every pixel of a patch (normalized convention, see
/// [`irfft_basis`]): input `[T, H, W]`, output stacked re/im rows
/// `[H·W, 2F]` with sub-threshold bins zeroed (§2.2.3).
pub fn masked_spec_rows(patch: &Tensor, q: f64) -> Tensor {
    let rows = patch_to_rows(patch);
    let (n_px, t) = (rows.shape().dim(0), rows.shape().dim(1));
    let mut out = Tensor::zeros([n_px, 2 * (t / 2 + 1)]);
    write_masked_spec_rows(rows.data(), t, q, out.data_mut());
    out
}

/// Writes [`masked_spec_rows`]' target for pixel-major series rows
/// (`[N, t]`, flat) into `out` (`[N, 2F]`, flat), with one FFT plan for
/// all rows and no per-row allocation.
///
/// Bit for bit, each row is `rfft`, then `mask_quantile`, then a
/// `1/t` scale, then `complex_to_row` of that series.
pub(crate) fn write_masked_spec_rows(series: &[f32], t: usize, q: f64, out: &mut [f32]) {
    let f = t / 2 + 1;
    assert_eq!(
        series.len() / t * 2 * f,
        out.len(),
        "spectrum rows do not match the series rows"
    );
    let mut plan = FftPlan::forward(t);
    let mut buf = vec![Complex::ZERO; t];
    let mut mags = vec![0.0f64; f];
    let mut sorted = vec![0.0f64; f];
    let scale = 1.0 / t as f64;
    for (x, row) in series.chunks_exact(t).zip(out.chunks_exact_mut(2 * f)) {
        for (z, &v) in buf.iter_mut().zip(x) {
            *z = Complex::real(v as f64);
        }
        plan.process(&mut buf);
        for (m, z) in mags.iter_mut().zip(&buf) {
            *m = z.abs();
        }
        sorted.copy_from_slice(&mags);
        let thr = quantile_in_place(&mut sorted, q);
        let (re, im) = row.split_at_mut(f);
        for k in 0..f {
            let kept = if mags[k] > thr { buf[k] } else { Complex::ZERO };
            let z = kept.scale(scale);
            re[k] = z.re as f32;
            im[k] = z.im as f32;
        }
    }
}

/// One cached expanded basis plus its LRU bookkeeping.
struct BasisEntry {
    basis: Arc<Tensor>,
    bytes: usize,
    /// Logical-clock timestamp of the last hit (larger = more recent).
    last_used: u64,
}

/// Cache of expanded inverse-rFFT bases keyed by `(t, k)`. Bases are
/// pure functions of their key, so generation reuses one copy across
/// every chunk of every city instead of rebuilding per batch. A
/// long-running server sees an unbounded stream of `(t, k)` keys, so
/// the cache is byte-bounded with least-recently-used eviction — and
/// bases are built *outside* the lock so one request's cold build
/// never stalls every other request's cache hit.
struct BasisCache {
    entries: HashMap<(usize, usize), BasisEntry>,
    clock: u64,
    bytes: usize,
    capacity: usize,
}
static EXPANDED_BASES: OnceLock<Mutex<BasisCache>> = OnceLock::new();

/// Default byte budget for the expanded-basis cache: generous for
/// offline runs (one city's worth of keys is a handful of bases) while
/// keeping a serving process's footprint bounded.
pub const DEFAULT_BASIS_CACHE_CAPACITY: usize = 64 << 20;

fn basis_cache() -> &'static Mutex<BasisCache> {
    EXPANDED_BASES.get_or_init(|| {
        Mutex::new(BasisCache {
            entries: HashMap::new(),
            clock: 0,
            bytes: 0,
            capacity: DEFAULT_BASIS_CACHE_CAPACITY,
        })
    })
}

/// Sets the expanded-basis cache's byte capacity and evicts down to it
/// immediately, returning the previous capacity. `usize::MAX`
/// effectively disables eviction.
pub fn set_basis_cache_capacity(capacity: usize) -> usize {
    let mut cache = basis_cache().lock().expect("basis cache poisoned");
    let old = cache.capacity;
    cache.capacity = capacity;
    evict_to_capacity(&mut cache, None);
    obs::gauge("spectragan_basis_cache_bytes").set(cache.bytes as f64);
    old
}

/// Bytes currently held by the expanded-basis cache.
pub fn basis_cache_bytes() -> usize {
    basis_cache().lock().expect("basis cache poisoned").bytes
}

/// Evicts least-recently-used entries until the cache fits its
/// capacity, never evicting `keep` (the entry the caller is about to
/// hand out — correctness needs it present for `Arc` sharing even if
/// it alone exceeds the budget).
fn evict_to_capacity(cache: &mut BasisCache, keep: Option<(usize, usize)>) {
    while cache.bytes > cache.capacity {
        let victim = cache
            .entries
            .iter()
            .filter(|(key, _)| Some(**key) != keep)
            .min_by_key(|(_, e)| e.last_used)
            .map(|(key, _)| *key);
        match victim {
            Some(key) => {
                let e = cache.entries.remove(&key).expect("victim present");
                cache.bytes -= e.bytes;
                obs::counter("spectragan_basis_cache_evictions_total").inc(1);
            }
            None => break,
        }
    }
}

/// Builds the `k`-tiled basis (the expensive part, kept out of the
/// cache lock).
fn build_expanded_basis(t: usize, k: usize) -> Arc<Tensor> {
    let base = irfft_basis(t);
    if k == 1 {
        return Arc::new(base);
    }
    let two_f = base.shape().dim(0);
    let mut tiled = Tensor::zeros([two_f, k * t]);
    for r in 0..two_f {
        let src = &base.data()[r * t..(r + 1) * t];
        for rep in 0..k {
            let d0 = r * k * t + rep * t;
            tiled.data_mut()[d0..d0 + t].copy_from_slice(src);
        }
    }
    Arc::new(tiled)
}

/// The inverse-rFFT basis for `k`-expanded spectra of a length-`t`
/// signal: `B_k ∈ R^{2F×k·t}`, cached per `(t, k)`.
///
/// Expansion maps bin `i` of the length-`t` spectrum to bin `k·i` of
/// the length-`k·t` spectrum (scaled by `k`, which the normalized
/// convention absorbs), and the inverse transform of that comb is
/// exactly the `t`-periodic tiling of the original series. Moreover
/// bin `k·i` keeps bin `i`'s one-sided weight class — DC maps to DC,
/// the even-`t` Nyquist `t/2` maps to the Nyquist `k·t/2`, interior
/// bins stay interior — so the expanded basis is [`irfft_basis`]`(t)`
/// with every row tiled `k` times, no reweighting needed.
///
/// A miss builds the basis outside the cache lock, then re-locks and
/// double-checks: if a concurrent caller inserted the same key first,
/// its copy wins and every caller shares one `Arc`. The cache is
/// LRU-bounded by [`set_basis_cache_capacity`].
pub fn expanded_irfft_basis(t: usize, k: usize) -> Arc<Tensor> {
    assert!(k >= 1, "expansion factor must be at least 1");
    let key = (t, k);
    {
        let mut cache = basis_cache().lock().expect("basis cache poisoned");
        cache.clock += 1;
        let now = cache.clock;
        if let Some(entry) = cache.entries.get_mut(&key) {
            entry.last_used = now;
            obs::counter("spectragan_basis_cache_hits_total").inc(1);
            return Arc::clone(&entry.basis);
        }
    }
    // Miss: build without holding the lock, so concurrent hits (and
    // concurrent builds of *other* keys) proceed unblocked.
    let built = build_expanded_basis(t, k);
    let bytes = built.shape().numel() * std::mem::size_of::<f32>();
    let mut cache = basis_cache().lock().expect("basis cache poisoned");
    cache.clock += 1;
    let now = cache.clock;
    if let Some(entry) = cache.entries.get_mut(&key) {
        // A concurrent first-touch won the race; share its copy and
        // drop ours.
        entry.last_used = now;
        obs::counter("spectragan_basis_cache_hits_total").inc(1);
        return Arc::clone(&entry.basis);
    }
    obs::counter("spectragan_basis_cache_misses_total").inc(1);
    cache.entries.insert(
        key,
        BasisEntry {
            basis: Arc::clone(&built),
            bytes,
            last_used: now,
        },
    );
    cache.bytes += bytes;
    evict_to_capacity(&mut cache, Some(key));
    obs::gauge("spectragan_basis_cache_bytes").set(cache.bytes as f64);
    built
}

/// Expands *normalized* spectrum rows `[N, 2F]` of a length-`t` signal
/// by an integer factor `k` and inverse-transforms them, returning
/// time rows `[N, k·t]` (the §2.2.4 long-generation path). The same as
/// [`expand_rows_to_steps`] at `t_out = k·t`.
pub fn expand_rows_to_series(rows: &Tensor, t: usize, k: usize) -> Tensor {
    expand_rows_to_steps(rows, t, k * t)
}

/// Inverse-transforms *normalized* spectrum rows `[N, 2F]` of a
/// length-`t` signal into the first `t_out` steps of their
/// `k = ceil(t_out / t)`-fold expansion: time rows `[N, t_out]`.
///
/// One matmul against the first `t_out` columns of the cached
/// [`expanded_irfft_basis`]`(t, k)` — agreeing with the per-pixel
/// `expand_spectrum` + `irfft` DSP path to ≤1e-4 (they are the same
/// linear map; only the float rounding differs). The matmul sums
/// element `(i, j)` in an order that does not depend on the column
/// count, so the result is bit-identical to the first `t_out` columns
/// of the full `k·t` expansion.
///
/// # Panics
/// Panics if `t_out` is zero or the row width is not `2·(t/2 + 1)`.
pub fn expand_rows_to_steps(rows: &Tensor, t: usize, t_out: usize) -> Tensor {
    let two_f = rows.shape().dim(1);
    assert_eq!(two_f, 2 * (t / 2 + 1), "row width does not match t");
    let k = t_out.div_ceil(t);
    let basis = expanded_irfft_basis(t, k);
    if t_out == k * t {
        rows.matmul(&basis)
    } else {
        rows.matmul(&basis.narrow(1, 0, t_out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spectragan_dsp::{mask_quantile, rfft};

    fn demo_series(t: usize) -> Vec<f64> {
        (0..t)
            .map(|n| {
                1.0 + (2.0 * std::f64::consts::PI * n as f64 / 24.0).sin()
                    + 0.2 * (2.0 * std::f64::consts::PI * n as f64 * 3.0 / t as f64).cos()
            })
            .collect()
    }

    #[test]
    fn basis_matmul_matches_dsp_irfft() {
        for t in [24usize, 25, 168] {
            let x = demo_series(t);
            let spec: Vec<Complex> = rfft(&x)
                .into_iter()
                .map(|z| z.scale(1.0 / t as f64))
                .collect();
            let row = complex_to_row(&spec);
            let basis = irfft_basis(t);
            let rows = Tensor::from_vec(row, [1, 2 * (t / 2 + 1)]);
            let back = rows.matmul(&basis);
            for (a, b) in back.data().iter().zip(&x) {
                assert!((*a as f64 - b).abs() < 1e-3, "t={t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn complex_row_roundtrip() {
        let spec = rfft(&demo_series(24));
        let row = complex_to_row(&spec);
        let back = row_to_complex(&row);
        for (a, b) in spec.iter().zip(&back) {
            assert!((a.re - b.re).abs() < 1e-6 && (a.im - b.im).abs() < 1e-6);
        }
    }

    #[test]
    fn patch_rows_roundtrip() {
        let patch = Tensor::from_vec((0..2 * 3 * 4).map(|i| i as f32).collect(), [2, 3, 4]);
        let rows = patch_to_rows(&patch);
        assert_eq!(rows.shape().dims(), &[12, 2]);
        // Pixel (0,1) series = values at [t,0,1].
        assert_eq!(rows.at(&[1, 0]), patch.at(&[0, 0, 1]));
        assert_eq!(rows.at(&[1, 1]), patch.at(&[1, 0, 1]));
        let back = rows_to_patch(&rows, 3, 4);
        assert_eq!(back, patch);
    }

    #[test]
    fn masked_rows_zero_most_bins() {
        let t = 48;
        let mut patch = Tensor::zeros([t, 2, 2]);
        for ti in 0..t {
            for px in 0..4 {
                patch.data_mut()[ti * 4 + px] = demo_series(t)[ti] as f32 * (px + 1) as f32;
            }
        }
        let rows = masked_spec_rows(&patch, 0.75);
        assert_eq!(rows.shape().dims(), &[4, 2 * 25]);
        for px in 0..4 {
            let row = &rows.data()[px * 50..(px + 1) * 50];
            let nonzero = row.iter().filter(|v| v.abs() > 1e-9).count();
            assert!(nonzero > 0 && nonzero < 30, "px {px}: {nonzero} nonzero");
        }
    }

    /// The per-pixel path `masked_spec_rows` replaced: one `rfft`,
    /// `mask_quantile`, `1/T` scale and `complex_to_row` per series.
    fn masked_spec_rows_per_pixel(patch: &Tensor, q: f64) -> Tensor {
        let rows = patch_to_rows(patch);
        let (n_px, t) = (rows.shape().dim(0), rows.shape().dim(1));
        let f = t / 2 + 1;
        let mut out = Tensor::zeros([n_px, 2 * f]);
        for px in 0..n_px {
            let series: Vec<f64> = rows.data()[px * t..(px + 1) * t]
                .iter()
                .map(|&v| v as f64)
                .collect();
            let spec = rfft(&series);
            let (masked, _) = mask_quantile(&spec, q);
            let scaled: Vec<Complex> = masked.iter().map(|z| z.scale(1.0 / t as f64)).collect();
            let row = complex_to_row(&scaled);
            out.data_mut()[px * 2 * f..(px + 1) * 2 * f].copy_from_slice(&row);
        }
        out
    }

    /// A `[t, h, w]` patch of one kind: 0 traffic-like positive values,
    /// 1 one constant per pixel, 2 all zeros (both of which tie
    /// magnitudes at the threshold), 3 a few levels with signed zeros.
    fn patch_of_kind(t: usize, h: usize, w: usize, kind: u8, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels: Vec<f32> = (0..h * w).map(|_| rng.gen_range(0.0f32..1.0)).collect();
        let data = (0..t * h * w)
            .map(|i| match kind {
                0 => rng.gen_range(0.0f32..1.0).powi(3),
                1 => levels[i % (h * w)],
                2 => 0.0,
                _ => [0.0, -0.0, 0.25, 1.0][rng.gen_range(0usize..4)],
            })
            .collect();
        Tensor::from_vec(data, [t, h, w])
    }

    proptest! {
        /// `masked_spec_rows` writes exactly the per-pixel path's bits.
        #[test]
        fn masked_rows_match_the_per_pixel_path(
            t in 2usize..340,
            (h, w) in (1usize..5, 1usize..5),
            kind in 0u8..4,
            q in 0.0f64..1.0,
            seed in 0u64..u64::MAX,
        ) {
            let t = if seed % 3 == 0 { 168 } else { t };
            let patch = patch_of_kind(t, h, w, kind, seed);
            let fast = masked_spec_rows(&patch, q);
            let slow = masked_spec_rows_per_pixel(&patch, q);
            prop_assert_eq!(fast.shape(), slow.shape());
            for (i, (a, b)) in fast.data().iter().zip(slow.data()).enumerate() {
                prop_assert!(a.to_bits() == b.to_bits(), "element {}: {} vs {}", i, a, b);
            }
        }
    }

    /// The cached tiled basis and the per-pixel DSP route
    /// (`expand_spectrum` + `irfft`) are the same linear map; pin them
    /// against each other to ≤1e-4 over odd/even lengths and several
    /// expansion factors.
    #[test]
    fn cached_basis_matches_dsp_expansion_path() {
        use spectragan_dsp::{expand_spectrum, irfft};
        for (t, k) in [(24usize, 1usize), (24, 2), (24, 7), (25, 3), (48, 4)] {
            let f = t / 2 + 1;
            // Three synthetic pixels with distinct spectra.
            let mut rows = Tensor::zeros([3, 2 * f]);
            for px in 0..3 {
                let series: Vec<f64> = (0..t)
                    .map(|n| {
                        (px + 1) as f64
                            + (2.0 * std::f64::consts::PI * n as f64 * (px + 1) as f64 / t as f64)
                                .sin()
                    })
                    .collect();
                let spec: Vec<Complex> = rfft(&series)
                    .into_iter()
                    .map(|z| z.scale(1.0 / t as f64))
                    .collect();
                rows.data_mut()[px * 2 * f..(px + 1) * 2 * f]
                    .copy_from_slice(&complex_to_row(&spec));
            }
            let fast = expand_rows_to_series(&rows, t, k);
            assert_eq!(fast.shape().dims(), &[3, k * t]);
            for px in 0..3 {
                let spec: Vec<Complex> = row_to_complex(&rows.data()[px * 2 * f..(px + 1) * 2 * f])
                    .into_iter()
                    .map(|z| z.scale(t as f64))
                    .collect();
                let slow = irfft(&expand_spectrum(&spec, t, k), k * t);
                for (j, &s) in slow.iter().enumerate() {
                    let g = fast.at(&[px, j]) as f64;
                    assert!(
                        (g - s).abs() <= 1e-4,
                        "t={t} k={k} px={px} j={j}: {g} vs {s}"
                    );
                }
            }
        }
    }

    /// Cache tests serialize on this lock: they manipulate the global
    /// capacity and assert on `Arc` identity, which eviction from a
    /// concurrently running cache test would break.
    static CACHE_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn cache_test_guard() -> std::sync::MutexGuard<'static, ()> {
        CACHE_TEST_LOCK
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    #[test]
    fn expanded_basis_is_cached_by_key() {
        let _g = cache_test_guard();
        let a = expanded_irfft_basis(24, 3);
        let b = expanded_irfft_basis(24, 3);
        assert!(Arc::ptr_eq(&a, &b), "same (t, k) must share one basis");
        assert_eq!(a.shape().dims(), &[2 * 13, 72]);
    }

    /// Many threads racing the first touch of one fresh key must all
    /// end up sharing a single cached basis (the double-checked insert:
    /// losers of the build race adopt the winner's copy).
    #[test]
    fn concurrent_first_touch_shares_one_basis() {
        let _g = cache_test_guard();
        // A key no other test uses, so this really is a first touch
        // (or at worst a re-insert after eviction — same code path).
        let (t, k) = (26usize, 5usize);
        let n = 8;
        let barrier = std::sync::Barrier::new(n);
        let bases: Vec<Arc<Tensor>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        expanded_irfft_basis(t, k)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for b in &bases[1..] {
            assert!(
                Arc::ptr_eq(&bases[0], b),
                "racing first-touchers must share one Arc"
            );
        }
        assert_eq!(bases[0].shape().dims(), &[2 * (t / 2 + 1), k * t]);
    }

    /// Under a small byte budget the cache evicts least-recently-used
    /// keys, keeps recently-touched ones, and its accounting tracks the
    /// bound.
    #[test]
    fn cache_evicts_lru_under_byte_pressure() {
        let _g = cache_test_guard();
        let one_basis = |t: usize, k: usize| 2 * (t / 2 + 1) * k * t * std::mem::size_of::<f32>();
        // Room for roughly two of the three bases below.
        let cap = one_basis(32, 2) + one_basis(32, 3) + one_basis(32, 4) / 2;
        let old = set_basis_cache_capacity(cap);
        let a = expanded_irfft_basis(32, 2);
        let b = expanded_irfft_basis(32, 3);
        // Touch `a` so `b` is the LRU entry when `c` overflows the cap.
        let a2 = expanded_irfft_basis(32, 2);
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = expanded_irfft_basis(32, 4);
        assert!(basis_cache_bytes() <= cap, "cache must respect its cap");
        let b2 = expanded_irfft_basis(32, 3);
        assert!(
            !Arc::ptr_eq(&b, &b2),
            "LRU entry must have been evicted and rebuilt"
        );
        // An entry larger than the whole budget is still served (and
        // kept while being handed out).
        set_basis_cache_capacity(one_basis(32, 2) / 2);
        let big = expanded_irfft_basis(32, 2);
        assert_eq!(big.shape().dims(), &[2 * 17, 64]);
        set_basis_cache_capacity(old);
    }

    #[test]
    fn expanded_rows_repeat_the_signal() {
        let t = 24;
        let x = demo_series(t);
        let spec: Vec<Complex> = rfft(&x)
            .into_iter()
            .map(|z| z.scale(1.0 / t as f64))
            .collect();
        let row = complex_to_row(&spec);
        let rows = Tensor::from_vec(row, [1, 2 * 13]);
        let long = expand_rows_to_series(&rows, t, 3);
        assert_eq!(long.shape().dims(), &[1, 72]);
        for rep in 0..3 {
            for (i, &xv) in x.iter().enumerate().take(t) {
                assert!(
                    (long.at(&[0, rep * t + i]) as f64 - xv).abs() < 1e-3,
                    "rep {rep} i {i}"
                );
            }
        }
    }
}
