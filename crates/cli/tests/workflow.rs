//! End-to-end CLI workflow: dataset → train → generate → evaluate →
//! info, entirely through the command functions, plus the refusals a
//! user sees from the `spectragan` binary itself.

use spectragan_cli::args::Args;
use spectragan_cli::commands::{
    cmd_dataset, cmd_evaluate, cmd_export_weights, cmd_generate, cmd_info, cmd_serve, cmd_train,
};
use spectragan_core::{SpectraGan, SpectraGanConfig};
use spectragan_geo::io::save_context;
use spectragan_geo::ContextMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

/// The obs layer's enable flag is process-wide, and `ObsGuard` restores
/// the previous state when a run ends: one obs-on run ending would
/// switch the layer off under another. Tests that train with obs on
/// hold this lock.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// A subcommand entry point.
type Cmd = fn(&Args) -> Result<(), String>;

fn run(cmd: Cmd, argv: &str) -> Result<(), String> {
    let args = Args::parse(argv.split_whitespace().map(String::from)).expect("parse");
    cmd(&args)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("spectragan_cli_workflow");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn full_workflow_runs() {
    let data = tmp("data");
    let model = tmp("model.json");
    let synth = tmp("synth.sgtm");

    // Tiny dataset: 2 weeks, quarter-scale cities, country 2 (4 cities).
    run(
        cmd_dataset,
        &format!(
            "dataset --out {} --country 2 --weeks 2 --scale 0.35",
            data.display()
        ),
    )
    .unwrap();
    assert!(data.join("manifest.json").exists());
    assert!(data.join("city_1.sgtm").exists());

    // Train briefly, holding out CITY 1.
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --steps 3 --holdout CITY_1 --quiet",
            data.display(),
            model.display()
        ),
    )
    .unwrap_or_else(|e| {
        // Holdout name contains a space on disk; retry with the manifest name.
        assert!(e.contains("holdout"), "{e}");
    });
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --steps 3 --quiet",
            data.display(),
            model.display()
        ),
    )
    .unwrap();
    assert!(model.exists());

    // Generate 24 hours for CITY 1's context.
    run(
        cmd_generate,
        &format!(
            "generate --model {} --context {} --hours 24 --out {} --seed 3",
            model.display(),
            data.join("city_1.sgcm").display(),
            synth.display()
        ),
    )
    .unwrap();
    assert!(synth.exists());

    // Evaluate against the real file (truncates to the shorter series).
    run(
        cmd_evaluate,
        &format!(
            "evaluate --real {} --synth {}",
            data.join("city_1.sgtm").display(),
            synth.display()
        ),
    )
    .unwrap();

    // Info on all three artifact kinds.
    for f in [
        data.join("city_1.sgtm"),
        data.join("city_1.sgcm"),
        model.clone(),
    ] {
        run(cmd_info, &format!("info --file {}", f.display())).unwrap();
    }

    // Export to an SGWT container and generate from it: the traffic
    // bytes must match the JSON-model generation exactly.
    let sgwt = tmp("model.sgwt");
    let synth2 = tmp("synth_sgwt.sgtm");
    run(
        cmd_export_weights,
        &format!(
            "export-weights --model {} --out {}",
            model.display(),
            sgwt.display()
        ),
    )
    .unwrap();
    run(cmd_info, &format!("info --file {}", sgwt.display())).unwrap();
    run(
        cmd_generate,
        &format!(
            "generate --model {} --context {} --hours 24 --out {} --seed 3",
            sgwt.display(),
            data.join("city_1.sgcm").display(),
            synth2.display()
        ),
    )
    .unwrap();
    assert_eq!(
        std::fs::read(&synth).unwrap(),
        std::fs::read(&synth2).unwrap(),
        "SGWT generation bytes differ from JSON-model generation"
    );
}

#[test]
fn interrupted_training_resumes_to_identical_weights() {
    let data = tmp("resume_data");
    let straight = tmp("straight.json");
    let resumed = tmp("resumed.json");
    let run_dir = tmp("resume_run");
    let _ = std::fs::remove_dir_all(&run_dir);

    run(
        cmd_dataset,
        &format!(
            "dataset --out {} --country 2 --weeks 1 --scale 0.3",
            data.display()
        ),
    )
    .unwrap();

    // Uninterrupted 6-step run.
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --steps 6 --quiet",
            data.display(),
            straight.display()
        ),
    )
    .unwrap();

    // 3 steps with checkpoints, then resume to 6 and compare bytes.
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --steps 3 --run-dir {} --checkpoint-every 2 --quiet",
            data.display(),
            resumed.display(),
            run_dir.display()
        ),
    )
    .unwrap();
    assert!(run_dir.join("train_log.jsonl").exists());
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --resume {} --steps 6 --quiet",
            data.display(),
            resumed.display(),
            run_dir.display()
        ),
    )
    .unwrap();

    let a = std::fs::read(&straight).unwrap();
    let b = std::fs::read(&resumed).unwrap();
    assert_eq!(a, b, "resumed model file differs from the straight run");
}

/// `--op-stats` adds a per-op table and the span aggregates to every
/// step's log record; without the flag both fields stay null.
#[test]
fn op_stats_flag_populates_train_log() {
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = tmp("opstats_data");
    let model = tmp("opstats_model.json");
    let run_dir = tmp("opstats_run");
    let _ = std::fs::remove_dir_all(&run_dir);

    run(
        cmd_dataset,
        &format!(
            "dataset --out {} --country 2 --weeks 1 --scale 0.3",
            data.display()
        ),
    )
    .unwrap();
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --steps 2 --run-dir {} --op-stats --quiet",
            data.display(),
            model.display(),
            run_dir.display()
        ),
    )
    .unwrap();

    let log = std::fs::read_to_string(run_dir.join("train_log.jsonl")).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 2, "expected one record per step:\n{log}");
    for line in &lines {
        assert!(
            line.contains("\"op_stats\":["),
            "record lacks op_stats table: {line}"
        );
        assert!(line.contains("\"spans\":["), "record lacks spans: {line}");
        // The fused linear kernel must show up with forward *and*
        // backward activity.
        let record: serde::Value = serde_json::from_str(line).unwrap();
        let Some(serde::Value::Arr(rows)) = record.get("op_stats") else {
            panic!("op_stats is not an array: {line}");
        };
        let row = rows
            .iter()
            .find(|r| r.get("op") == Some(&serde::Value::Str("matmul_bias_act".into())))
            .unwrap_or_else(|| panic!("no matmul_bias_act row: {line}"));
        for key in ["fwd_calls", "bwd_calls"] {
            assert!(
                matches!(row.get(key), Some(serde::Value::Num(n)) if *n > 0.0),
                "matmul_bias_act {key} is not positive: {line}"
            );
        }
    }
    assert!(run_dir.join("metrics.prom").exists());

    // Without the flag, the table is absent (null).
    let run_dir2 = tmp("opstats_off_run");
    let _ = std::fs::remove_dir_all(&run_dir2);
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --steps 1 --run-dir {} --quiet",
            data.display(),
            model.display(),
            run_dir2.display()
        ),
    )
    .unwrap();
    let log = std::fs::read_to_string(run_dir2.join("train_log.jsonl")).unwrap();
    assert!(
        log.contains("\"op_stats\":null") && log.contains("\"spans\":null"),
        "disabled run should serialize op_stats and spans as null: {log}"
    );
}

/// `--trace` and `--metrics-snapshot` write their artifacts for both
/// train and generate, train drops metrics.prom in the run dir, and
/// the per-step log records carry span aggregates and op tables.
///
/// The obs toggle is process-global and other tests in this binary
/// train concurrently, so their spans may ride along in the trace —
/// assertions here are existence/shape only, not event counts.
#[test]
fn trace_and_metrics_snapshot_flags_write_artifacts() {
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = tmp("obs_data");
    let model = tmp("obs_model.json");
    let run_dir = tmp("obs_run");
    let trace = tmp("obs_trace.json");
    let prom = tmp("obs_metrics.prom");
    let synth = tmp("obs_synth.sgtm");
    let gen_trace = tmp("obs_gen_trace.json");
    let gen_prom = tmp("obs_gen_metrics.prom");
    let _ = std::fs::remove_dir_all(&run_dir);

    run(
        cmd_dataset,
        &format!(
            "dataset --out {} --country 2 --weeks 1 --scale 0.3",
            data.display()
        ),
    )
    .unwrap();
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --steps 2 --run-dir {} --trace {} --metrics-snapshot {} --quiet",
            data.display(),
            model.display(),
            run_dir.display(),
            trace.display(),
            prom.display()
        ),
    )
    .unwrap();

    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let doc: serde::Value = serde_json::from_str(&trace_text).expect("trace must be valid JSON");
    assert!(
        matches!(doc.get("traceEvents"), Some(serde::Value::Arr(_))),
        "trace lacks a traceEvents array"
    );
    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(prom_text.contains("# TYPE "), "snapshot has no metrics");
    assert!(run_dir.join("metrics.prom").exists());
    let log = std::fs::read_to_string(run_dir.join("train_log.jsonl")).unwrap();
    assert!(
        log.lines()
            .all(|l| l.contains("\"spans\":[") && l.contains("\"op_stats\":[")),
        "obs-on log records must embed span aggregates and op tables:\n{log}"
    );

    run(
        cmd_generate,
        &format!(
            "generate --model {} --context {} --hours 6 --out {} --trace {} --metrics-snapshot {}",
            model.display(),
            data.join("city_1.sgcm").display(),
            synth.display(),
            gen_trace.display(),
            gen_prom.display()
        ),
    )
    .unwrap();
    assert!(synth.exists());
    let gen_trace_text = std::fs::read_to_string(&gen_trace).unwrap();
    let doc: serde::Value =
        serde_json::from_str(&gen_trace_text).expect("generate trace must be valid JSON");
    assert!(matches!(doc.get("traceEvents"), Some(serde::Value::Arr(_))));
    assert!(std::fs::read_to_string(&gen_prom)
        .unwrap()
        .contains("# TYPE "));
}

#[test]
fn bad_inputs_give_clean_errors() {
    let err = run(cmd_train, "train --data /nonexistent --out /tmp/x.json").unwrap_err();
    assert!(err.contains("manifest"), "{err}");
    let err = run(
        cmd_generate,
        "generate --model /nonexistent --context /n --hours 1 --out /tmp/x",
    )
    .unwrap_err();
    assert!(err.contains("/nonexistent"), "{err}");
    let err = run(cmd_dataset, "dataset --out /tmp/sg_bad --granularity 45").unwrap_err();
    assert!(err.contains("granularity"), "{err}");
    let err = run(cmd_dataset, "dataset --out /tmp/sg_bad --country 9").unwrap_err();
    assert!(err.contains("country"), "{err}");
}

/// Runs the `spectragan` binary and returns `(succeeded, stderr)`.
fn run_binary(argv: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_spectragan"))
        .args(argv)
        .output()
        .expect("spawn spectragan");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

/// Every subcommand refuses a flag it does not read — a typo, one of
/// the retired sharding and reduced-precision flags, or a fresh-run
/// setting given to a resumed run — before doing any work: the paths
/// below do not exist, and the error is about the flag, not about
/// them.
#[test]
fn unknown_and_retired_flags_are_refused() {
    let out = tmp("flags_model.json");
    let _ = std::fs::remove_file(&out);
    let cases: [(Cmd, String, &str, &[&str]); 7] = [
        (
            cmd_train,
            format!(
                "train --data /nonexistent --out {} --stepz 7 --shardz 4",
                out.display()
            ),
            "train",
            &["--shardz", "--stepz"],
        ),
        (
            cmd_train,
            format!(
                "train --data /nonexistent --out {} --shards 4",
                out.display()
            ),
            "train",
            &["--shards"],
        ),
        (
            cmd_train,
            format!(
                "train --data /nonexistent --out {} --kill-worker-at-step 3",
                out.display()
            ),
            "train",
            &["--kill-worker-at-step"],
        ),
        (
            cmd_train,
            format!(
                "train --data /nonexistent --out {} --resume /nonexistent --lr 0.5 --seed 3",
                out.display()
            ),
            "train --resume",
            &["--lr", "--seed"],
        ),
        (
            cmd_export_weights,
            format!(
                "export-weights --model /nonexistent --out {} --precision int8",
                out.display()
            ),
            "export-weights",
            &["--precision"],
        ),
        (
            cmd_generate,
            format!(
                "generate --model /nonexistent --context /n --out {} --weights-precision f16",
                out.display()
            ),
            "generate",
            &["--weights-precision"],
        ),
        (
            cmd_serve,
            "serve --models /nonexistent --weights-precision int8".to_string(),
            "serve",
            &["--weights-precision"],
        ),
    ];
    for (cmd, argv, command, flags) in cases {
        let err = run(cmd, &argv).unwrap_err();
        assert!(err.contains(&format!("'{command}'")), "{argv}: {err}");
        for flag in flags {
            assert!(err.contains(flag), "{argv}: {err}");
        }
        assert!(
            !err.contains("/nonexistent"),
            "{argv}: did work first: {err}"
        );
    }
    assert!(!out.exists(), "a refused command wrote its output");

    let (ok, stderr) = run_binary(&[
        "export-weights",
        "--model",
        "/nonexistent",
        "--out",
        out.to_str().unwrap(),
        "--precision",
        "int8",
    ]);
    assert!(!ok, "export-weights --precision int8 must exit non-zero");
    assert!(stderr.contains("--precision"), "{stderr}");
    assert!(!out.exists());
}

/// `generate --hours 0` and a context map smaller than one patch are
/// typed errors with a non-zero exit, not panics.
#[test]
fn invalid_generation_requests_are_errors() {
    let model = tmp("invalid_req_model.json");
    std::fs::write(
        &model,
        SpectraGan::new(SpectraGanConfig::tiny(), 7).to_model_json(),
    )
    .unwrap();
    let channels = SpectraGanConfig::tiny().context_channels;
    let fits = tmp("invalid_req_fits.sgcm");
    save_context(&ContextMap::zeros(channels, 12, 12), &fits).unwrap();
    let small = tmp("invalid_req_small.sgcm");
    save_context(&ContextMap::zeros(channels, 3, 3), &small).unwrap();
    let synth = tmp("invalid_req_synth.sgtm");
    let _ = std::fs::remove_file(&synth);

    for (context, hours, expect) in [
        (&fits, 0, "t_out = 0"),
        (&small, 24, "smaller than one 4-pixel patch"),
    ] {
        let argv = format!(
            "generate --model {} --context {} --hours {hours} --out {}",
            model.display(),
            context.display(),
            synth.display()
        );
        let err = run(cmd_generate, &argv).unwrap_err();
        assert!(err.contains("invalid generation request"), "{err}");
        assert!(err.contains(expect), "{err}");

        let argv: Vec<&str> = argv.split_whitespace().collect();
        let (ok, stderr) = run_binary(&argv);
        assert!(!ok, "{argv:?} must exit non-zero");
        assert!(stderr.contains(expect), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    assert!(!synth.exists());
    run(
        cmd_generate,
        &format!(
            "generate --model {} --context {} --hours 2 --out {}",
            model.display(),
            fits.display(),
            synth.display()
        ),
    )
    .unwrap();
    assert!(synth.exists());
}

/// The f16 and int8 containers earlier releases wrote are refused by
/// `generate` and `info` with a non-zero exit and a message naming the
/// unsupported dtype or version.
#[test]
fn reduced_precision_containers_are_refused() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/fixtures");
    let context = tmp("legacy_ctx.sgcm");
    save_context(
        &ContextMap::zeros(SpectraGanConfig::tiny().context_channels, 12, 12),
        &context,
    )
    .unwrap();
    let synth = tmp("legacy_synth.sgtm");
    let _ = std::fs::remove_file(&synth);
    for (name, expect) in [
        ("tiny_seed7_f16_v1.sgwt", "unsupported dtype 1 (f16)"),
        (
            "tiny_seed7_int8_v2.sgwt",
            "unsupported weight container version 2",
        ),
    ] {
        let path = fixtures.join(name);
        let path = path.to_str().unwrap();
        for argv in [
            vec![
                "generate",
                "--model",
                path,
                "--context",
                context.to_str().unwrap(),
                "--hours",
                "24",
                "--out",
                synth.to_str().unwrap(),
            ],
            vec!["info", "--file", path],
        ] {
            let (ok, stderr) = run_binary(&argv);
            assert!(!ok, "{argv:?} must exit non-zero");
            assert!(stderr.contains(expect), "{argv:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        }
    }
    assert!(!synth.exists());
}
