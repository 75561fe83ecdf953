//! `SGWT` — the zero-copy, checksummed, memory-mappable weight
//! container.
//!
//! The JSON model file ([`SpectraGan::to_model_json`]) is the training
//! and interchange format: human-readable, but every load parses and
//! heap-allocates the full weight set. A serving fleet wants the
//! opposite trade — open in microseconds, share pages between
//! processes, and keep only the touched layers resident. `SGWT` is
//! that format:
//!
//! ```text
//! offset  0  magic  "SGWT"                      (4 bytes)
//! offset  4  format version, u16 LE             (2 bytes)
//! offset  6  directory length, u64 LE           (8 bytes)
//! offset 14  directory CRC-32 (IEEE), u32 LE    (4 bytes)
//! offset 18  directory                          (≤ 16 MiB)
//!            zero padding to a 64-byte boundary
//!            layer sections, each 64-byte aligned, raw LE f32
//! ```
//!
//! The directory is, in order: `u32` config-JSON length + the config
//! JSON (`{"format":"spectragan-weights-v1","config":{…}}`), `u32`
//! layer count, then per layer `u32` name length + UTF-8 name, `u8`
//! dtype (always 0 = f32), `u8` ndim, `ndim × u32` dims, `u64`
//! absolute section offset, `u64` section byte count, `u32` section
//! CRC-32. All integers little-endian.
//!
//! Earlier releases also wrote f16 sections (dtype 1, version 1) and
//! int8 containers (version 2, dtype 2 plus per-row scales in the
//! directory). The whole `default_hourly` generator is about 72 KB
//! resident as f32, so they saved tens of kilobytes per city while the
//! dequantizing GEMM ran slower than the f32 one. Such files are now
//! refused at [`WeightStore::open`] with a typed error naming the
//! unsupported version or dtype; re-export them from the JSON model.
//!
//! Trust model mirrors the rest of `geo::io`: the directory length is
//! capped *before* allocation ([`DIRECTORY_MAX_BYTES`]) and its CRC is
//! verified eagerly at [`WeightStore::open`], so a forged header
//! cannot make the loader allocate or parse garbage. Section CRCs are
//! verified lazily on first touch — mapping a 100-layer container and
//! generating with 10 layers reads 10 sections from disk — with
//! [`WeightStore::validate_all`] available for front-ends that want
//! every checksum verified up front as a typed error instead of a
//! first-touch panic.
//!
//! On unix the container is `mmap(2)`-ed (`PROT_READ`, `MAP_PRIVATE`)
//! so layer views are zero-copy pointers into the page cache;
//! elsewhere (or if the syscall fails) it falls back to one buffered
//! read. Sections become [`LazySource`]s, materialized on first touch
//! and bit-identical to the JSON path.

use crate::config::SpectraGanConfig;
use crate::error::CoreError;
use crate::train::SpectraGan;
use spectragan_geo::io::{atomic_write, crc32, extend_f32_le, f32s_from_le};
use spectragan_nn::LazySource;
use spectragan_tensor::{Shape, Tensor};
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Magic bytes identifying a weight container.
pub const WEIGHT_MAGIC: &[u8; 4] = b"SGWT";

/// Container format version.
pub const WEIGHT_VERSION: u16 = 1;

/// Every section starts on this alignment, so mapped f32 views sit on
/// cache-line (and any future SIMD-load) boundaries.
pub const SECTION_ALIGN: usize = 64;

/// Hard cap on the directory, enforced before the length field is
/// trusted with an allocation. Directories are a few KiB in practice;
/// 16 MiB is beyond any real model while still refusing a forged
/// multi-exabyte length outright.
pub const DIRECTORY_MAX_BYTES: usize = 16 << 20;

/// Format tag inside the embedded config JSON.
const WEIGHTS_FORMAT: &str = "spectragan-weights-v1";

/// magic + version + directory length + directory CRC.
pub const WEIGHT_HEADER: usize = 18;

/// The per-layer dtype tag of an f32 section, the only one this
/// format version carries. Public because external tooling (and the
/// corruption test suites) walk the documented layout.
pub const DTYPE_F32: u8 = 0;

/// Storage precision of the tensor sections in a container: f32, whose
/// loads are bit-identical to the JSON path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// 4 bytes per element.
    F32,
}

fn align_up(x: usize) -> usize {
    (x + SECTION_ALIGN - 1) & !(SECTION_ALIGN - 1)
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Serializes a model into the `SGWT` container format.
pub fn encode_weights(model: &SpectraGan) -> Vec<u8> {
    #[derive(serde::Serialize)]
    struct Header<'a> {
        format: &'static str,
        config: &'a SpectraGanConfig,
    }
    let config_json = serde_json::to_string(&Header {
        format: WEIGHTS_FORMAT,
        config: model.config(),
    })
    .expect("config serialization cannot fail");

    // Layer payloads first: names, shapes and raw section bytes.
    struct Payload {
        name: String,
        dims: Vec<usize>,
        bytes: Vec<u8>,
    }
    let layers: Vec<Payload> = model
        .store()
        .iter()
        .map(|(_, name, t)| {
            let mut bytes = Vec::with_capacity(4 * t.numel());
            extend_f32_le(&mut bytes, t.data());
            Payload {
                name: name.to_string(),
                dims: t.shape().dims().to_vec(),
                bytes,
            }
        })
        .collect();

    // The directory's size is fixed by names and ranks alone, so the
    // section offsets it records can be computed before it is built.
    let dir_len = 4
        + config_json.len()
        + 4
        + layers
            .iter()
            .map(|l| 4 + l.name.len() + 1 + 1 + 4 * l.dims.len() + 8 + 8 + 4)
            .sum::<usize>();
    let mut offset = align_up(WEIGHT_HEADER + dir_len);
    let mut offsets = Vec::with_capacity(layers.len());
    for l in &layers {
        offsets.push(offset);
        offset = align_up(offset + l.bytes.len());
    }

    let mut dir = Vec::with_capacity(dir_len);
    dir.extend_from_slice(&(config_json.len() as u32).to_le_bytes());
    dir.extend_from_slice(config_json.as_bytes());
    dir.extend_from_slice(&(layers.len() as u32).to_le_bytes());
    for (l, &sec_off) in layers.iter().zip(&offsets) {
        dir.extend_from_slice(&(l.name.len() as u32).to_le_bytes());
        dir.extend_from_slice(l.name.as_bytes());
        dir.push(DTYPE_F32);
        dir.push(l.dims.len() as u8);
        for &d in &l.dims {
            dir.extend_from_slice(&(u32::try_from(d).expect("dim fits u32")).to_le_bytes());
        }
        dir.extend_from_slice(&(sec_off as u64).to_le_bytes());
        dir.extend_from_slice(&(l.bytes.len() as u64).to_le_bytes());
        dir.extend_from_slice(&crc32(&l.bytes).to_le_bytes());
    }
    debug_assert_eq!(dir.len(), dir_len);

    let total = offsets
        .last()
        .zip(layers.last())
        .map_or(align_up(WEIGHT_HEADER + dir_len), |(&o, l)| {
            o + l.bytes.len()
        });
    let mut buf = vec![0u8; total];
    buf[..4].copy_from_slice(WEIGHT_MAGIC);
    buf[4..6].copy_from_slice(&WEIGHT_VERSION.to_le_bytes());
    buf[6..14].copy_from_slice(&(dir_len as u64).to_le_bytes());
    buf[14..18].copy_from_slice(&crc32(&dir).to_le_bytes());
    buf[18..18 + dir_len].copy_from_slice(&dir);
    for (l, &sec_off) in layers.iter().zip(&offsets) {
        buf[sec_off..sec_off + l.bytes.len()].copy_from_slice(&l.bytes);
    }
    buf
}

/// Encodes and atomically writes a model container to `path`.
/// `Precision` has the one variant, f32.
pub fn save_weights(
    model: &SpectraGan,
    path: impl AsRef<Path>,
    _precision: Precision,
) -> Result<(), CoreError> {
    let path = path.as_ref();
    atomic_write(path, &encode_weights(model))
        .map_err(|e| CoreError::Model(format!("writing weight container {path:?}: {e}")))
}

// ---------------------------------------------------------------------
// Backing storage: mmap with a buffered-read fallback
// ---------------------------------------------------------------------

#[cfg(unix)]
mod mapping {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    /// A read-only private file mapping. Pages fault in on first
    /// touch and stay shared with the page cache.
    pub struct Mapping {
        ptr: *mut u8,
        len: usize,
    }

    // The mapping is immutable for its whole lifetime, so shared
    // references from any thread are fine.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps the whole file read-only; `None` if the kernel
        /// declines (callers fall back to a buffered read).
        pub fn map(file: &File, len: usize) -> Option<Mapping> {
            if len == 0 {
                return None;
            }
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                None
            } else {
                Some(Mapping { ptr, len })
            }
        }

        pub fn bytes(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// Where the container bytes live.
enum Backing {
    /// Zero-copy view of the file (unix).
    #[cfg(unix)]
    Mapped(mapping::Mapping),
    /// Whole file read into memory (fallback).
    Heap(Vec<u8>),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Backing::Mapped(m) => m.bytes(),
            Backing::Heap(v) => v,
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked cursor over untrusted directory bytes.
struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CoreError> {
        if self.b.len() - self.pos < n {
            return Err(CoreError::Model(format!(
                "weight directory truncated reading {what}"
            )));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, CoreError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
}

/// One layer's directory entry, validated against the file bounds.
struct LayerEntry {
    name: String,
    shape: Shape,
    offset: usize,
    nbytes: usize,
    crc: u32,
}

/// An opened `SGWT` container: parsed directory over mapped (or
/// buffered) bytes. Layer sections are untouched until a model built
/// from the store first uses them.
pub struct WeightStore {
    backing: Arc<Backing>,
    config: SpectraGanConfig,
    layers: Vec<LayerEntry>,
    mapped: bool,
}

impl std::fmt::Debug for WeightStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeightStore")
            .field("layers", &self.layers.len())
            .field("section_bytes", &self.section_bytes())
            .field("mapped", &self.mapped)
            .finish_non_exhaustive()
    }
}

impl WeightStore {
    /// Opens and structurally validates a container: magic, version,
    /// capped directory length, directory CRC, and every entry's
    /// bounds, alignment, dims/size consistency and config format tag.
    /// Section payload CRCs are *not* read here — see
    /// [`WeightStore::validate_all`].
    pub fn open(path: impl AsRef<Path>) -> Result<WeightStore, CoreError> {
        let path = path.as_ref();
        let mut file = File::open(path).map_err(|e| CoreError::io(path, e))?;
        let mut header = [0u8; WEIGHT_HEADER];
        file.read_exact(&mut header)
            .map_err(|e| CoreError::io(path, e))?;
        if &header[..4] != WEIGHT_MAGIC {
            return Err(CoreError::Model(format!(
                "{path:?} is not an SGWT weight container (bad magic)"
            )));
        }
        let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
        if version != WEIGHT_VERSION {
            let held = if version == 2 { " (int8)" } else { "" };
            return Err(CoreError::Model(format!(
                "unsupported weight container version {version}{held}; only version \
                 {WEIGHT_VERSION} (f32) containers load — re-export the model from its JSON file"
            )));
        }
        let dir_len64 = u64::from_le_bytes(header[6..14].try_into().unwrap());
        if dir_len64 > DIRECTORY_MAX_BYTES as u64 {
            return Err(CoreError::Model(format!(
                "weight directory length header claims {dir_len64} bytes, above the \
                 {DIRECTORY_MAX_BYTES}-byte cap (forged or corrupt container)"
            )));
        }
        let dir_len = dir_len64 as usize;
        let dir_crc = u32::from_le_bytes(header[14..18].try_into().unwrap());

        let file_len = file.metadata().map_err(|e| CoreError::io(path, e))?.len();
        if file_len > usize::MAX as u64 {
            return Err(CoreError::Model(format!(
                "weight container {path:?} does not fit in the address space"
            )));
        }
        let file_len = file_len as usize;
        if file_len < WEIGHT_HEADER + dir_len {
            return Err(CoreError::Model(format!(
                "weight container truncated: directory claims {dir_len} bytes but only \
                 {} remain after the header",
                file_len.saturating_sub(WEIGHT_HEADER)
            )));
        }

        #[cfg(unix)]
        let (backing, mapped) = match mapping::Mapping::map(&file, file_len) {
            Some(m) => (Backing::Mapped(m), true),
            None => (Backing::Heap(read_all(&mut file, path, file_len)?), false),
        };
        #[cfg(not(unix))]
        let (backing, mapped) = (Backing::Heap(read_all(&mut file, path, file_len)?), false);

        let bytes = backing.bytes();
        let dir = &bytes[WEIGHT_HEADER..WEIGHT_HEADER + dir_len];
        let got = crc32(dir);
        if got != dir_crc {
            return Err(CoreError::Model(format!(
                "weight directory failed its CRC ({got:#010x} != {dir_crc:#010x}); the \
                 container is corrupt"
            )));
        }

        let (config, layers) = parse_directory(dir, file_len)?;
        Ok(WeightStore {
            backing: Arc::new(backing),
            config,
            layers,
            mapped,
        })
    }

    /// The model configuration embedded in the container.
    pub fn config(&self) -> &SpectraGanConfig {
        &self.config
    }

    /// Whether the container is memory-mapped (vs. read into a heap
    /// buffer).
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// Number of layers in the directory.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Sum of all section payload bytes (the on-disk weight footprint,
    /// excluding header, directory and padding).
    pub fn section_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.nbytes).sum()
    }

    /// Verifies every section's CRC now, returning a typed error
    /// instead of leaving mismatches to panic on first touch. Serving
    /// front-ends call this at registration so a corrupt container is
    /// rejected at load time, never on a request.
    pub fn validate_all(&self) -> Result<(), CoreError> {
        let bytes = self.backing.bytes();
        for l in &self.layers {
            let got = crc32(&bytes[l.offset..l.offset + l.nbytes]);
            if got != l.crc {
                return Err(CoreError::Model(format!(
                    "weight section '{}' failed its CRC ({got:#010x} != {:#010x}); the \
                     container is corrupt",
                    l.name, l.crc
                )));
            }
        }
        Ok(())
    }

    /// Builds a model over this container: architecture from the
    /// embedded config, every parameter backed by its section and
    /// materialized on first touch. Validates layer count, names and
    /// shapes against the freshly built architecture.
    pub fn load_model(&self) -> Result<SpectraGan, CoreError> {
        let mut model = SpectraGan::new(self.config, 0);
        if model.store().len() != self.layers.len() {
            return Err(CoreError::Model(format!(
                "weight container has {} layers, architecture needs {}",
                self.layers.len(),
                model.store().len()
            )));
        }
        let expected: Vec<(spectragan_nn::ParamId, String, Shape)> = model
            .store()
            .iter()
            .map(|(id, name, t)| (id, name.to_string(), t.shape().clone()))
            .collect();
        for ((id, name, shape), entry) in expected.iter().zip(&self.layers) {
            if *name != entry.name {
                return Err(CoreError::Model(format!(
                    "layer name mismatch: container has '{}', architecture needs '{name}'",
                    entry.name
                )));
            }
            if *shape != entry.shape {
                return Err(CoreError::Model(format!(
                    "shape mismatch for layer '{name}': container has {:?}, architecture \
                     needs {:?}",
                    entry.shape.dims(),
                    shape.dims()
                )));
            }
            let sec = Section {
                backing: Arc::clone(&self.backing),
                offset: entry.offset,
                len: entry.nbytes,
                crc: entry.crc,
                name: entry.name.clone(),
                checked: OnceLock::new(),
            };
            model.store_mut().demote_to_lazy(
                *id,
                Arc::new(F32Section {
                    sec,
                    shape: shape.clone(),
                }),
            );
        }
        Ok(model)
    }
}

fn read_all(file: &mut File, path: &Path, file_len: usize) -> Result<Vec<u8>, CoreError> {
    use std::io::Seek;
    file.rewind().map_err(|e| CoreError::io(path, e))?;
    // file_len came from fstat after a capped-header check, so this
    // allocation is bounded by the real file size, not a forged field.
    let mut buf = Vec::with_capacity(file_len);
    file.read_to_end(&mut buf)
        .map_err(|e| CoreError::io(path, e))?;
    if buf.len() != file_len {
        return Err(CoreError::Model(format!(
            "weight container {path:?} changed size while loading"
        )));
    }
    Ok(buf)
}

fn parse_directory(
    dir: &[u8],
    file_len: usize,
) -> Result<(SpectraGanConfig, Vec<LayerEntry>), CoreError> {
    #[derive(serde::Deserialize)]
    struct Header {
        format: String,
        config: SpectraGanConfig,
    }

    let mut cur = Cur { b: dir, pos: 0 };
    let config_len = cur.u32("config length")? as usize;
    let config_bytes = cur.take(config_len, "config JSON")?;
    let config_str = std::str::from_utf8(config_bytes)
        .map_err(|_| CoreError::Model("weight container config is not UTF-8".into()))?;
    let header: Header = serde_json::from_str(config_str)
        .map_err(|e| CoreError::Model(format!("malformed weight container config: {e}")))?;
    if header.format != WEIGHTS_FORMAT {
        return Err(CoreError::Model(format!(
            "unsupported weight container format '{}'",
            header.format
        )));
    }

    let count = cur.u32("layer count")? as usize;
    let mut layers = Vec::new();
    for i in 0..count {
        let name_len = cur.u32("layer name length")? as usize;
        let name_bytes = cur.take(name_len, "layer name")?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| CoreError::Model(format!("layer {i} name is not UTF-8")))?
            .to_string();
        let dtype = cur.u8("dtype")?;
        if dtype != DTYPE_F32 {
            let held = match dtype {
                1 => " (f16)",
                2 => " (int8)",
                _ => "",
            };
            return Err(CoreError::Model(format!(
                "layer '{name}' has unsupported dtype {dtype}{held}; only f32 (dtype \
                 {DTYPE_F32}) sections load — re-export the model from its JSON file"
            )));
        }
        let ndim = cur.u8("ndim")? as usize;
        let mut dims = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            dims.push(cur.u32("dim")? as usize);
        }
        let numel = dims
            .iter()
            .try_fold(1usize, |p, &d| p.checked_mul(d))
            .ok_or_else(|| CoreError::Model(format!("layer '{name}' dims overflow: {dims:?}")))?;
        let offset64 = cur.u64("section offset")?;
        let nbytes64 = cur.u64("section length")?;
        let crc = cur.u32("section CRC")?;
        let expected = numel
            .checked_mul(4)
            .ok_or_else(|| CoreError::Model(format!("layer '{name}' byte count overflows")))?;
        if nbytes64 != expected as u64 {
            return Err(CoreError::Model(format!(
                "layer '{name}' section length {nbytes64} does not match shape {dims:?} \
                 ({expected} bytes expected)"
            )));
        }
        if offset64 % SECTION_ALIGN as u64 != 0 {
            return Err(CoreError::Model(format!(
                "layer '{name}' section offset {offset64} is not {SECTION_ALIGN}-byte aligned"
            )));
        }
        let end = offset64
            .checked_add(nbytes64)
            .ok_or_else(|| CoreError::Model(format!("layer '{name}' section range overflows")))?;
        if end > file_len as u64 {
            return Err(CoreError::Model(format!(
                "layer '{name}' section [{offset64}, {end}) runs past the {file_len}-byte \
                 container"
            )));
        }
        layers.push(LayerEntry {
            name,
            shape: Shape(dims),
            offset: offset64 as usize,
            nbytes: nbytes64 as usize,
            crc,
        });
    }
    if cur.pos != dir.len() {
        return Err(CoreError::Model(format!(
            "weight directory has {} trailing bytes",
            dir.len() - cur.pos
        )));
    }
    Ok((header.config, layers))
}

// ---------------------------------------------------------------------
// Section handles: what the ParamStore slots hold
// ---------------------------------------------------------------------

/// A view of one layer's raw bytes inside the shared backing. The
/// section CRC is verified once, on first access; a mismatch panics
/// (callers wanting typed errors run [`WeightStore::validate_all`]
/// before first touch).
struct Section {
    backing: Arc<Backing>,
    offset: usize,
    len: usize,
    crc: u32,
    name: String,
    checked: OnceLock<()>,
}

impl Section {
    fn bytes(&self) -> &[u8] {
        self.checked.get_or_init(|| {
            let b = &self.backing.bytes()[self.offset..self.offset + self.len];
            let got = crc32(b);
            assert_eq!(
                got, self.crc,
                "weight section '{}' failed its CRC on first touch; the container is corrupt",
                self.name
            );
        });
        &self.backing.bytes()[self.offset..self.offset + self.len]
    }
}

/// f32 section: materialized into a dense tensor on first touch.
struct F32Section {
    sec: Section,
    shape: Shape,
}

impl LazySource for F32Section {
    fn load(&self) -> Tensor {
        Tensor::from_vec(f32s_from_le(self.sec.bytes()), self.shape.clone())
    }
}

// ---------------------------------------------------------------------
// Model-level helpers
// ---------------------------------------------------------------------

/// Loads a model file of either format, sniffed by magic: `SGWT`
/// containers open via [`WeightStore`], anything else parses as the
/// JSON model format.
pub fn load_model_auto(path: impl AsRef<Path>) -> Result<SpectraGan, CoreError> {
    let path = path.as_ref();
    if is_weight_container(path)? {
        WeightStore::open(path)?.load_model()
    } else {
        let json = std::fs::read_to_string(path).map_err(|e| CoreError::io(path, e))?;
        SpectraGan::from_model_json(&json)
    }
}

/// Whether the file at `path` starts with the `SGWT` magic.
pub fn is_weight_container(path: impl AsRef<Path>) -> Result<bool, CoreError> {
    let path = path.as_ref();
    let mut file = File::open(path).map_err(|e| CoreError::io(path, e))?;
    let mut magic = [0u8; 4];
    match file.read_exact(&mut magic) {
        Ok(()) => Ok(&magic == WEIGHT_MAGIC),
        // Shorter than 4 bytes cannot be a container (nor valid JSON,
        // but let the JSON parser produce that error).
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(CoreError::io(path, e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn tiny_config() -> SpectraGanConfig {
        SpectraGanConfig::tiny()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("spectragan-weights-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn f32_roundtrip_is_bit_identical() {
        let model = SpectraGan::new(tiny_config(), 7);
        let path = tmp("roundtrip.sgwt");
        save_weights(&model, &path, Precision::F32).unwrap();

        let store = WeightStore::open(&path).unwrap();
        store.validate_all().unwrap();
        let loaded = store.load_model().unwrap();

        assert_eq!(model.store().len(), loaded.store().len());
        for ((_, name, a), (_, _, b)) in model.store().iter().zip(loaded.store().iter()) {
            assert_eq!(a.shape(), b.shape(), "shape of '{name}'");
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "bits of '{name}'");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sections_are_lazy_until_first_touch() {
        let model = SpectraGan::new(tiny_config(), 7);
        let path = tmp("lazy.sgwt");
        save_weights(&model, &path, Precision::F32).unwrap();
        let loaded = WeightStore::open(&path).unwrap().load_model().unwrap();
        // Nothing materialized yet.
        assert_eq!(loaded.store().resident_weight_bytes(), 0);
        // Touch one parameter: only it becomes resident.
        let first = loaded.store().ids().next().unwrap();
        let t = loaded.store().get(first);
        assert_eq!(loaded.store().resident_weight_bytes(), 4 * t.numel());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn forged_directory_length_is_rejected_before_allocation() {
        let model = SpectraGan::new(tiny_config(), 7);
        let mut bytes = encode_weights(&model);
        bytes[6..14].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let path = tmp("forged.sgwt");
        std::fs::write(&path, &bytes).unwrap();
        let err = WeightStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("cap"), "unexpected error: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_directory_and_sections_are_typed_errors() {
        let model = SpectraGan::new(tiny_config(), 7);
        let clean = encode_weights(&model);

        // Flip a directory byte: caught at open by the directory CRC.
        let mut bad_dir = clean.clone();
        bad_dir[WEIGHT_HEADER + 2] ^= 0x40;
        let path = tmp("baddir.sgwt");
        std::fs::write(&path, &bad_dir).unwrap();
        assert!(WeightStore::open(&path)
            .unwrap_err()
            .to_string()
            .contains("CRC"));

        // Flip the last payload byte: open succeeds (lazy sections),
        // validate_all reports the layer by name.
        let mut bad_sec = clean.clone();
        let last = bad_sec.len() - 1;
        bad_sec[last] ^= 0x01;
        std::fs::write(&path, &bad_sec).unwrap();
        let store = WeightStore::open(&path).unwrap();
        assert!(store
            .validate_all()
            .unwrap_err()
            .to_string()
            .contains("failed its CRC"));

        // Truncation behind the directory is caught structurally.
        let truncated = &clean[..clean.len() - 8];
        std::fs::write(&path, truncated).unwrap();
        assert!(WeightStore::open(&path)
            .unwrap_err()
            .to_string()
            .contains("runs past"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_and_auto_detection() {
        let model = SpectraGan::new(tiny_config(), 7);
        let path = tmp("auto.json");
        std::fs::write(&path, model.to_model_json()).unwrap();
        assert!(!is_weight_container(&path).unwrap());
        let loaded = load_model_auto(&path).unwrap();
        assert_eq!(loaded.store().len(), model.store().len());

        let sgwt = tmp("auto.sgwt");
        save_weights(&model, &sgwt, Precision::F32).unwrap();
        assert!(is_weight_container(&sgwt).unwrap());
        assert!(load_model_auto(&sgwt).is_ok());
        assert!(WeightStore::open(&path)
            .unwrap_err()
            .to_string()
            .contains("magic"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sgwt).ok();
    }

    #[test]
    fn containers_are_version_1() {
        let bytes = encode_weights(&SpectraGan::new(tiny_config(), 7));
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), WEIGHT_VERSION);
    }

    #[test]
    fn container_truncation_is_always_a_typed_error() {
        let model = SpectraGan::new(tiny_config(), 7);
        let clean = encode_weights(&model);
        let path = tmp("trunc.sgwt");
        // Every prefix through the header and directory, then sampled
        // prefixes through the sections — all must fail typed, never
        // panic.
        let dir_len = u64::from_le_bytes(clean[6..14].try_into().unwrap()) as usize;
        let dense_end = (WEIGHT_HEADER + dir_len).min(clean.len());
        let cuts = (0..dense_end).chain((dense_end..clean.len()).step_by(97));
        for cut in cuts {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(
                WeightStore::open(&path).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
        std::fs::write(&path, &clean).unwrap();
        WeightStore::open(&path).unwrap().validate_all().unwrap();
        std::fs::remove_file(&path).ok();
    }
}
