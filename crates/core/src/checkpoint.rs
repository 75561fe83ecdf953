//! Crash-safe training checkpoints and the run-directory layout.
//!
//! A **run directory** holds everything one training run persists:
//!
//! ```text
//! run_dir/
//!   ckpt_00000040.ckpt   checked container (SGCK magic + CRC-32) around
//!   ckpt_00000080.ckpt   a JSON snapshot of the full training state
//!   train_log.jsonl      one JSON record per completed step + guard events
//! ```
//!
//! A checkpoint serializes the *complete* mutable state of
//! [`SpectraGan::train_with`](crate::SpectraGan::train_with): model
//! weights, both Adam optimizers' moments and step counts, the loss
//! traces so far, and the step counter. Because the training loop
//! derives each step's RNG stream from `(seed, step, lane)` rather than
//! one long stream, no RNG state needs saving — the stream position is
//! a pure function of the step. The resume contract is **bit-identical
//! restarts**: train N steps uninterrupted, or train k < N steps, kill
//! the process, and resume — the final weights are byte-for-byte equal.
//!
//! Checkpoint files are written via [`spectragan_geo::io::atomic_write`]
//! (tmp + `rename`) inside a [`spectragan_geo::io::encode_checked`]
//! frame, so a crash mid-write leaves either nothing or a file whose
//! CRC rejects it — [`latest`] then transparently falls back to the
//! previous snapshot. The last two valid snapshots are retained; older
//! ones are pruned.

use crate::config::{SpectraGanConfig, TrainConfig};
use crate::error::CoreError;
use crate::train::TrainStats;
use serde::Serialize;
use spectragan_geo::io::{atomic_write, encode_checked, read_checked_frame};
use spectragan_nn::{AdamState, ParamStore};
use spectragan_obs as obs;
use spectragan_obs::{OpStat, SpanStat};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Cached metric handles for checkpoint persistence. Recording
/// self-gates on [`obs::enabled`].
struct CkptMetrics {
    /// Framed checkpoint bytes written.
    bytes: &'static obs::Counter,
    /// End-to-end latency of one checkpoint write (serialize, frame,
    /// atomic write; the fsync inside is also broken out separately
    /// as `spectragan_io_fsync_ns` by `geo::io`).
    write_ns: &'static obs::Histogram,
}

fn ckpt_metrics() -> &'static CkptMetrics {
    static M: OnceLock<CkptMetrics> = OnceLock::new();
    M.get_or_init(|| CkptMetrics {
        bytes: obs::counter("spectragan_checkpoint_bytes_total"),
        write_ns: obs::histogram("spectragan_checkpoint_write_ns"),
    })
}

/// Magic bytes of the checkpoint container.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"SGCK";

/// Format tag inside the JSON payload (bump on incompatible change).
pub const CHECKPOINT_FORMAT: &str = "spectragan-checkpoint-v1";

/// File name of the per-step training log inside a run directory.
pub const TRAIN_LOG: &str = "train_log.jsonl";

/// How many valid snapshots [`save`] retains (the newest, plus one
/// last-good fallback in case the newest is later damaged).
pub const RETAIN: usize = 2;

/// The full serialized training state at a step boundary.
#[derive(Clone, Serialize)]
pub struct Checkpoint {
    /// Format tag ([`CHECKPOINT_FORMAT`]).
    pub format: String,
    /// Completed training steps (resume starts at this step).
    pub step: usize,
    /// Model architecture configuration.
    pub config: SpectraGanConfig,
    /// Training-loop configuration of the original run.
    pub train: TrainConfig,
    /// All model weights (generator + discriminators).
    pub store: ParamStore,
    /// Generator optimizer moments.
    pub opt_g: AdamState,
    /// Discriminator optimizer moments.
    pub opt_d: AdamState,
    /// Loss traces up to `step`.
    pub stats: TrainStats,
    /// Gradient-accumulation micro-rounds per step. This is part of
    /// the step arithmetic — the training loop rejects resuming under
    /// a different value.
    pub grad_accum: usize,
}

// Manual Deserialize: `grad_accum` defaults to 1 so snapshots written
// before it existed still load (those runs *were* single-minibatch —
// exactly what the default says), and a `shards` key, written by
// releases that could fork worker processes, is ignored: sharding
// never changed the math. The vendored serde derive has no per-field
// defaults.
impl serde::Deserialize for Checkpoint {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let req = |key: &str| -> Result<&serde::Value, serde::DeError> {
            v.get(key)
                .ok_or_else(|| serde::DeError::expected("a checkpoint object", v))
        };
        Ok(Checkpoint {
            format: String::from_value(req("format")?)?,
            step: usize::from_value(req("step")?)?,
            config: SpectraGanConfig::from_value(req("config")?)?,
            train: TrainConfig::from_value(req("train")?)?,
            store: ParamStore::from_value(req("store")?)?,
            opt_g: AdamState::from_value(req("opt_g")?)?,
            opt_d: AdamState::from_value(req("opt_d")?)?,
            stats: TrainStats::from_value(req("stats")?)?,
            grad_accum: match v.get("grad_accum") {
                Some(n) => usize::from_value(n)?,
                None => 1,
            },
        })
    }
}

impl Checkpoint {
    /// Verifies that this checkpoint belongs to a run with the given
    /// model and training configuration (`steps` may differ so a
    /// resumed run can be extended or shortened).
    pub fn validate_against(
        &self,
        cfg: &SpectraGanConfig,
        tc: &TrainConfig,
    ) -> Result<(), CoreError> {
        if self.format != CHECKPOINT_FORMAT {
            return Err(CoreError::Checkpoint(format!(
                "unsupported checkpoint format '{}'",
                self.format
            )));
        }
        if self.config != *cfg {
            return Err(CoreError::Checkpoint(
                "checkpoint model configuration differs from the requested one".into(),
            ));
        }
        let same = self.train.batch_patches == tc.batch_patches
            && self.train.lr == tc.lr
            && self.train.seed == tc.seed;
        if !same {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint training configuration (batch {}, lr {}, seed {}) differs from the \
                 requested one (batch {}, lr {}, seed {})",
                self.train.batch_patches,
                self.train.lr,
                self.train.seed,
                tc.batch_patches,
                tc.lr,
                tc.seed
            )));
        }
        Ok(())
    }
}

/// The file name of the snapshot at `step`.
pub fn checkpoint_file(step: usize) -> String {
    format!("ckpt_{step:08}.ckpt")
}

/// Writes `ckpt` into `run_dir` atomically and prunes snapshots beyond
/// the [`RETAIN`] newest. Returns the written path.
pub fn save(run_dir: &Path, ckpt: &Checkpoint) -> Result<PathBuf, CoreError> {
    let t0 = obs::enabled().then(Instant::now);
    fs::create_dir_all(run_dir).map_err(|e| CoreError::io(run_dir, e))?;
    let json = serde_json::to_string(ckpt)
        .map_err(|e| CoreError::Checkpoint(format!("serialize: {e}")))?;
    let framed = encode_checked(CHECKPOINT_MAGIC, json.as_bytes());
    let path = run_dir.join(checkpoint_file(ckpt.step));
    atomic_write(&path, &framed)
        .map_err(|e| CoreError::Checkpoint(format!("write {}: {e}", path.display())))?;
    if let Some(t0) = t0 {
        let m = ckpt_metrics();
        m.bytes.inc(framed.len() as u64);
        m.write_ns.record(t0.elapsed().as_nanos() as u64);
    }
    // Retention: drop everything but the RETAIN newest snapshots.
    let mut steps = list_steps(run_dir)?;
    steps.sort_unstable();
    while steps.len() > RETAIN {
        let victim = run_dir.join(checkpoint_file(steps.remove(0)));
        fs::remove_file(&victim).map_err(|e| CoreError::io(&victim, e))?;
    }
    Ok(path)
}

/// Allocation cap for one checkpoint payload. The length header of a
/// checked frame is read before its CRC can be validated, so a corrupt
/// or forged checkpoint claiming 2^60 bytes must fail typed instead of
/// driving an unbounded allocation. 4 GiB is far above any real
/// checkpoint (weights + both optimizers' moments as JSON).
pub const CHECKPOINT_MAX_BYTES: usize = 4 << 30;

/// Loads and validates one checkpoint file.
pub fn load(path: &Path) -> Result<Checkpoint, CoreError> {
    let mut f = fs::File::open(path).map_err(|e| CoreError::io(path, e))?;
    let payload = read_checked_frame(&mut f, CHECKPOINT_MAGIC, CHECKPOINT_MAX_BYTES)
        .map_err(|e| CoreError::Checkpoint(format!("{}: {e}", path.display())))?;
    // Trailing bytes after the frame mean the file is not a checkpoint
    // we wrote (atomic_write lands exactly one frame per file).
    let mut probe = [0u8; 1];
    if matches!(std::io::Read::read(&mut f, &mut probe), Ok(n) if n > 0) {
        return Err(CoreError::Checkpoint(format!(
            "{}: trailing bytes after checkpoint frame",
            path.display()
        )));
    }
    let json = std::str::from_utf8(&payload).map_err(|e| {
        CoreError::Checkpoint(format!("{}: non-UTF-8 payload: {e}", path.display()))
    })?;
    let ckpt: Checkpoint = serde_json::from_str(json)
        .map_err(|e| CoreError::Checkpoint(format!("{}: {e}", path.display())))?;
    if ckpt.format != CHECKPOINT_FORMAT {
        return Err(CoreError::Checkpoint(format!(
            "{}: unsupported checkpoint format '{}'",
            path.display(),
            ckpt.format
        )));
    }
    Ok(ckpt)
}

/// The newest *loadable* checkpoint of a run directory.
pub struct Latest {
    /// Path of the snapshot that loaded.
    pub path: PathBuf,
    /// The snapshot itself.
    pub checkpoint: Checkpoint,
    /// Newer snapshots that were skipped because they failed to load
    /// (torn writes, corruption), with the reason — callers should
    /// surface these.
    pub skipped: Vec<(PathBuf, String)>,
}

/// Finds the newest valid checkpoint in `run_dir`, falling back over
/// corrupt files to the previous snapshot. Returns `Ok(None)` for a
/// directory with no checkpoint files at all; corrupt-only directories
/// are an error naming every rejected file.
pub fn latest(run_dir: &Path) -> Result<Option<Latest>, CoreError> {
    let mut steps = list_steps(run_dir)?;
    if steps.is_empty() {
        return Ok(None);
    }
    steps.sort_unstable_by(|a, b| b.cmp(a));
    let mut skipped = Vec::new();
    for step in steps {
        let path = run_dir.join(checkpoint_file(step));
        match load(&path) {
            Ok(checkpoint) => {
                return Ok(Some(Latest {
                    path,
                    checkpoint,
                    skipped,
                }))
            }
            Err(e) => {
                // Fleet-visible signal: every corrupt snapshot we fall
                // past is counted, whichever caller (CLI resume, serve
                // registry) hit it.
                obs::counter("spectragan_checkpoint_fallbacks_total").inc(1);
                skipped.push((path, e.to_string()));
            }
        }
    }
    Err(CoreError::Checkpoint(format!(
        "no loadable checkpoint in {}: {}",
        run_dir.display(),
        skipped
            .iter()
            .map(|(p, e)| format!("{} ({e})", p.display()))
            .collect::<Vec<_>>()
            .join("; ")
    )))
}

/// Steps of all `ckpt_*.ckpt` files present in `run_dir` (valid or
/// not).
fn list_steps(run_dir: &Path) -> Result<Vec<usize>, CoreError> {
    let mut steps = Vec::new();
    let entries = match fs::read_dir(run_dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(steps),
        Err(e) => return Err(CoreError::io(run_dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| CoreError::io(run_dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(step) = name
            .strip_prefix("ckpt_")
            .and_then(|s| s.strip_suffix(".ckpt"))
            .and_then(|s| s.parse::<usize>().ok())
        {
            steps.push(step);
        }
    }
    Ok(steps)
}

// ---------------------------------------------------------------------
// Training log
// ---------------------------------------------------------------------

/// One line of `train_log.jsonl`: a completed step's losses and
/// gradient norms, or a divergence-guard event.
#[derive(Debug, Clone, Serialize)]
pub struct LogRecord {
    /// 0-based training step the record belongs to.
    pub step: usize,
    /// Discriminator loss (NaN serializes as `null`).
    pub d_loss: f32,
    /// Generator adversarial loss.
    pub g_adv: f32,
    /// Explicit L1 loss (0 for variants without one).
    pub l1: f32,
    /// Global gradient norm of the discriminator update (pre-clip).
    pub grad_norm_d: f32,
    /// Global gradient norm of the generator update (pre-clip).
    pub grad_norm_g: f32,
    /// Wall-clock milliseconds the step took (including retries so
    /// far).
    pub wall_ms: f64,
    /// Gradient-accumulation micro-rounds; logs written before it
    /// existed read back as 1.
    pub grad_accum: usize,
    /// Divergence-guard annotation (`None` for a healthy step).
    pub event: Option<String>,
    /// Per-op forward/backward calls and time for this step attempt
    /// (only when the obs layer is on; serializes as `null` when
    /// absent). Rows of older logs carry `backend`, `fresh_bytes` and
    /// `reused_bytes` too; those keys are ignored.
    pub op_stats: Option<Vec<OpStat>>,
    /// Aggregated observability span tree for this step attempt (only
    /// when the obs layer is on; serializes as `null` when absent).
    pub spans: Option<Vec<SpanStat>>,
}

// Manual Deserialize: divergence events legitimately carry NaN/inf
// losses, which JSON renders as `null` — map those back to NaN instead
// of failing the whole record. The `shards` and `backend` keys of older
// logs are ignored.
impl serde::Deserialize for LogRecord {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let num = |key: &str| -> Result<f64, serde::DeError> {
            match v.get(key) {
                Some(serde::Value::Num(n)) => Ok(*n),
                Some(serde::Value::Null) | None => Ok(f64::NAN),
                Some(other) => Err(serde::DeError::expected("a number or null", other)),
            }
        };
        let step = match v.get("step") {
            Some(s) => usize::from_value(s)?,
            None => return Err(serde::DeError::expected("an object with 'step'", v)),
        };
        Ok(LogRecord {
            step,
            d_loss: num("d_loss")? as f32,
            g_adv: num("g_adv")? as f32,
            l1: num("l1")? as f32,
            grad_norm_d: num("grad_norm_d")? as f32,
            grad_norm_g: num("grad_norm_g")? as f32,
            wall_ms: num("wall_ms")?,
            grad_accum: match v.get("grad_accum") {
                Some(n) => usize::from_value(n)?,
                None => 1,
            },
            event: match v.get("event") {
                Some(serde::Value::Str(s)) => Some(s.clone()),
                _ => None,
            },
            op_stats: match v.get("op_stats") {
                Some(arr @ serde::Value::Arr(_)) => Some(Vec::<OpStat>::from_value(arr)?),
                _ => None,
            },
            spans: match v.get("spans") {
                Some(arr @ serde::Value::Arr(_)) => Some(Vec::<SpanStat>::from_value(arr)?),
                _ => None,
            },
        })
    }
}

/// Appends one record to the run's `train_log.jsonl`. Appends are not
/// atomic (the log is an observability artifact, not training state);
/// a torn final line is skipped by [`read_log`].
pub fn append_log(run_dir: &Path, record: &LogRecord) -> Result<(), CoreError> {
    fs::create_dir_all(run_dir).map_err(|e| CoreError::io(run_dir, e))?;
    let path = run_dir.join(TRAIN_LOG);
    let mut line =
        serde_json::to_string(record).map_err(|e| CoreError::Checkpoint(format!("log: {e}")))?;
    line.push('\n');
    use std::io::Write;
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| CoreError::io(&path, e))?;
    f.write_all(line.as_bytes())
        .map_err(|e| CoreError::io(&path, e))
}

/// Reads the run's training log, skipping torn or malformed lines.
pub fn read_log(run_dir: &Path) -> Result<Vec<LogRecord>, CoreError> {
    let path = run_dir.join(TRAIN_LOG);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(CoreError::io(&path, e)),
    };
    Ok(text
        .lines()
        .filter_map(|l| serde_json::from_str::<LogRecord>(l).ok())
        .collect())
}

/// Rewrites the log keeping only records with `step < keep_below`, so a
/// resumed run does not interleave stale post-checkpoint lines with its
/// own replay of the same steps. Atomic like every other persistent
/// write.
pub fn truncate_log(run_dir: &Path, keep_below: usize) -> Result<(), CoreError> {
    let records = read_log(run_dir)?;
    let mut out = String::new();
    for r in records.iter().filter(|r| r.step < keep_below) {
        out.push_str(
            &serde_json::to_string(r).map_err(|e| CoreError::Checkpoint(format!("log: {e}")))?,
        );
        out.push('\n');
    }
    let path = run_dir.join(TRAIN_LOG);
    if out.is_empty() && !path.exists() {
        return Ok(());
    }
    atomic_write(&path, out.as_bytes())
        .map_err(|e| CoreError::Checkpoint(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("spectragan_ckpt_unit")
            .join(format!("{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn demo_checkpoint(step: usize) -> Checkpoint {
        let mut store = ParamStore::new();
        store.register("w", spectragan_nn::Tensor::from_vec(vec![1.0, -0.5], [2]));
        Checkpoint {
            format: CHECKPOINT_FORMAT.into(),
            step,
            config: SpectraGanConfig::tiny(),
            train: TrainConfig::smoke(),
            store,
            opt_g: AdamState::default(),
            opt_d: AdamState::default(),
            stats: TrainStats::default(),
            grad_accum: 1,
        }
    }

    #[test]
    fn save_load_roundtrip_and_retention() {
        let dir = tmp_dir("roundtrip");
        for step in [2, 4, 6] {
            save(&dir, &demo_checkpoint(step)).unwrap();
        }
        // Only the RETAIN newest remain.
        assert!(!dir.join(checkpoint_file(2)).exists());
        assert!(dir.join(checkpoint_file(4)).exists());
        assert!(dir.join(checkpoint_file(6)).exists());
        let found = latest(&dir).unwrap().unwrap();
        assert_eq!(found.checkpoint.step, 6);
        assert!(found.skipped.is_empty());
        let (_, name, value) = found.checkpoint.store.iter().next().unwrap();
        assert_eq!(name, "w");
        assert_eq!(value.data(), &[1.0, -0.5]);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = tmp_dir("fallback");
        save(&dir, &demo_checkpoint(2)).unwrap();
        save(&dir, &demo_checkpoint(4)).unwrap();
        // Torn write: truncate the newest snapshot.
        let newest = dir.join(checkpoint_file(4));
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let found = latest(&dir).unwrap().unwrap();
        assert_eq!(found.checkpoint.step, 2);
        assert_eq!(found.skipped.len(), 1);
        assert!(found.skipped[0].1.contains("length") || found.skipped[0].1.contains("checksum"));
    }

    /// A bit-flipped newest snapshot bumps the fleet fallback counter
    /// and the resumed state is bit-identical to the previous good
    /// snapshot — corruption costs a warning, never different weights.
    #[test]
    fn bit_flip_counts_fallback_and_resumes_bit_identically() {
        let dir = tmp_dir("bitflip");
        let good = demo_checkpoint(2);
        save(&dir, &good).unwrap();
        save(&dir, &demo_checkpoint(4)).unwrap();
        let newest = dir.join(checkpoint_file(4));
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();

        let was_enabled = obs::enabled();
        obs::set_enabled(true);
        let before = obs::counter("spectragan_checkpoint_fallbacks_total").get();
        let found = latest(&dir).unwrap().unwrap();
        let after = obs::counter("spectragan_checkpoint_fallbacks_total").get();
        obs::set_enabled(was_enabled);

        assert!(after > before, "fallback must increment the counter");
        assert_eq!(found.checkpoint.step, 2);
        assert_eq!(found.skipped.len(), 1);
        for ((_, name, got), (_, want_name, want)) in
            found.checkpoint.store.iter().zip(good.store.iter())
        {
            assert_eq!(name, want_name);
            assert_eq!(
                got.data(),
                want.data(),
                "resumed weights must be bit-identical"
            );
        }
    }

    #[test]
    fn all_corrupt_is_a_clear_error() {
        let dir = tmp_dir("allbad");
        save(&dir, &demo_checkpoint(2)).unwrap();
        let p = dir.join(checkpoint_file(2));
        let mut bytes = fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&p, &bytes).unwrap();
        let err = latest(&dir)
            .err()
            .expect("all-corrupt must fail")
            .to_string();
        assert!(err.contains("no loadable checkpoint"), "{err}");
        assert!(err.contains("ckpt_00000002.ckpt"), "{err}");
    }

    #[test]
    fn empty_and_missing_dirs_are_none() {
        let dir = tmp_dir("empty");
        assert!(latest(&dir).unwrap().is_none());
        fs::create_dir_all(&dir).unwrap();
        assert!(latest(&dir).unwrap().is_none());
    }

    #[test]
    fn validate_against_flags_mismatches() {
        let ck = demo_checkpoint(2);
        let cfg = SpectraGanConfig::tiny();
        let tc = TrainConfig::smoke();
        ck.validate_against(&cfg, &tc).unwrap();
        // More steps is fine (extension).
        let mut longer = tc;
        longer.steps += 100;
        ck.validate_against(&cfg, &longer).unwrap();
        let mut other_seed = tc;
        other_seed.seed += 1;
        assert!(ck.validate_against(&cfg, &other_seed).is_err());
        let other_cfg = SpectraGanConfig::default_hourly();
        assert!(ck.validate_against(&other_cfg, &tc).is_err());
    }

    #[test]
    fn log_roundtrip_with_nan_and_truncation() {
        let dir = tmp_dir("log");
        for step in 0..4 {
            append_log(
                &dir,
                &LogRecord {
                    step,
                    d_loss: if step == 2 { f32::NAN } else { 0.5 },
                    g_adv: 1.0,
                    l1: 0.1,
                    grad_norm_d: 2.0,
                    grad_norm_g: 3.0,
                    wall_ms: 1.5,
                    grad_accum: 1,
                    event: if step == 2 {
                        Some("divergence: d_loss = NaN".into())
                    } else {
                        None
                    },
                    op_stats: None,
                    spans: if step == 1 {
                        Some(vec![SpanStat {
                            path: "train_step/forward".into(),
                            calls: 1,
                            nanos: 42,
                        }])
                    } else {
                        None
                    },
                },
            )
            .unwrap();
        }
        // Simulate a torn final line.
        use std::io::Write;
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(dir.join(TRAIN_LOG))
            .unwrap();
        f.write_all(b"{\"step\": 4, \"d_l").unwrap();
        drop(f);

        let log = read_log(&dir).unwrap();
        assert_eq!(log.len(), 4, "torn line skipped");
        let spans = log[1].spans.as_ref().expect("spans survive the roundtrip");
        assert_eq!(spans[0].path, "train_step/forward");
        assert_eq!((spans[0].calls, spans[0].nanos), (1, 42));
        assert!(log[0].spans.is_none());
        assert!(log[2].d_loss.is_nan());
        assert_eq!(log[2].event.as_deref(), Some("divergence: d_loss = NaN"));
        assert_eq!(log[3].step, 3);

        truncate_log(&dir, 2).unwrap();
        let log = read_log(&dir).unwrap();
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|r| r.step < 2));
    }

    /// Log lines written before gradient accumulation carry no
    /// `grad_accum` key and read back as 1; lines that carry the
    /// `shards` key of releases with worker processes, or the `backend`
    /// key of releases with two kernel sets, still parse, and those
    /// keys are ignored.
    #[test]
    fn older_log_lines_still_deserialize() {
        let old_line = r#"{"step":7,"d_loss":0.5,"g_adv":1.25,"l1":0.1,"grad_norm_d":2.0,
            "grad_norm_g":3.0,"wall_ms":1.5,"backend":"simd","event":null,
            "op_stats":null,"spans":null}"#;
        let r: LogRecord = serde_json::from_str(old_line).unwrap();
        assert_eq!(r.step, 7);
        assert_eq!(r.grad_accum, 1);
        assert!(!serde_json::to_string(&r).unwrap().contains("backend"));
        let sharded_line = r#"{"step":3,"d_loss":0.5,"g_adv":1.25,"l1":0.1,"grad_norm_d":2.0,
            "grad_norm_g":3.0,"wall_ms":1.5,"backend":"scalar","shards":4,"grad_accum":2,
            "event":null,"op_stats":null,"spans":null}"#;
        let r: LogRecord = serde_json::from_str(sharded_line).unwrap();
        assert_eq!((r.step, r.grad_accum), (3, 2));
        // The current writer records no topology and no kernel set,
        // and the explicit accumulation factor survives a round trip.
        let line = serde_json::to_string(&r).unwrap();
        assert!(
            !line.contains("shards") && !line.contains("backend"),
            "{line}"
        );
        let back: LogRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back.grad_accum, 2);
    }

    /// A `--op-stats` record as releases with a separate op-stats
    /// table wrote it: every row also carries `backend`, `fresh_bytes`
    /// and `reused_bytes`, and an `other` row holds pool traffic outside
    /// any op with zero calls. It reads back with every call count and
    /// time intact, and the extra keys are ignored.
    #[test]
    fn parent_format_op_stats_lines_still_deserialize() {
        let line = r#"{"step":0,"d_loss":2.859004497528076,"g_adv":1.4898388385772705,
            "l1":0.5968801379203796,"grad_norm_d":1.1106395721435547,
            "grad_norm_g":24.34410858154297,"wall_ms":101.482288,"backend":"scalar",
            "grad_accum":1,"event":null,"op_stats":[
            {"op":"leaf","backend":"scalar","fwd_calls":0,"fwd_nanos":0,"bwd_calls":28,
             "bwd_nanos":3205,"fresh_bytes":0,"reused_bytes":0},
            {"op":"narrow","backend":"scalar","fwd_calls":3,"fwd_nanos":51200,"bwd_calls":1,
             "bwd_nanos":20480,"fresh_bytes":239616,"reused_bytes":0},
            {"op":"matmul_bias_act","backend":"scalar","fwd_calls":10,"fwd_nanos":1707311,
             "bwd_calls":10,"bwd_nanos":2803372,"fresh_bytes":839032,"reused_bytes":61440},
            {"op":"lstm_seq","backend":"scalar","fwd_calls":4,"fwd_nanos":42811904,
             "bwd_calls":4,"bwd_nanos":22302720,"fresh_bytes":40023456,"reused_bytes":0},
            {"op":"other","backend":"scalar","fwd_calls":0,"fwd_nanos":0,"bwd_calls":0,
             "bwd_nanos":0,"fresh_bytes":1256000,"reused_bytes":38064}],"spans":null}"#;
        let r: LogRecord = serde_json::from_str(line).unwrap();
        let rows = r.op_stats.expect("the op table survives");
        let calls: Vec<(&str, u64, u64)> = rows
            .iter()
            .map(|e| (e.op.as_str(), e.fwd_calls, e.bwd_calls))
            .collect();
        assert_eq!(
            calls,
            [
                ("leaf", 0, 28),
                ("narrow", 3, 1),
                ("matmul_bias_act", 10, 10),
                ("lstm_seq", 4, 4),
                ("other", 0, 0),
            ]
        );
        assert_eq!((rows[3].fwd_nanos, rows[3].bwd_nanos), (42811904, 22302720));
        assert!(r.spans.is_none());
        // Rewritten, a row carries only the fields the table keeps.
        let back = serde_json::to_string(&rows[0]).unwrap();
        assert!(
            !back.contains("fresh_bytes") && !back.contains("backend"),
            "{back}"
        );
    }

    /// Checkpoints without `grad_accum` load with it defaulting to 1;
    /// checkpoints that carry a `shards` key load, and the key is
    /// ignored.
    #[test]
    fn older_checkpoints_still_load() {
        let ck = demo_checkpoint(2);
        let mut v = serde_json::to_value(&ck);
        let serde::Value::Obj(entries) = &mut v else {
            panic!("checkpoint must serialize as an object");
        };
        assert!(entries.iter().all(|(k, _)| k != "shards"));
        entries.retain(|(k, _)| k != "grad_accum");
        let old = Checkpoint::from_value(&v).unwrap();
        assert_eq!((old.step, old.grad_accum), (2, 1));
        let mut sharded = demo_checkpoint(4);
        sharded.grad_accum = 3;
        let mut v = serde_json::to_value(&sharded);
        if let serde::Value::Obj(entries) = &mut v {
            entries.push(("shards".to_string(), serde::Value::Num(4.0)));
        }
        let rt = Checkpoint::from_value(&v).unwrap();
        assert_eq!((rt.step, rt.grad_accum), (4, 3));
    }
}
