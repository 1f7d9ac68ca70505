//! A smoke-scale run of every workload: the correctness check (and, for
//! `ingest`, the durability check) must pass end to end, and the traced
//! run must report every per-layer metric and write its spans.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use solap_perfbench::workload::{Scale, Workload};
use solap_perfbench::{run, Options};

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../.bench_out")
        .join(format!("smoke-{tag}-{}", std::process::id()))
}

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 11,
        seconds: 2.0,
        trace,
        scale: Scale::smoke(),
        out_dir: out_dir(&format!("{}-{}", workload.name(), u8::from(trace))),
    }
}

#[test]
fn every_workload_answers_correctly_end_to_end() {
    for workload in Workload::ALL {
        let opts = options(workload, false);
        let out = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(
            out.correct(),
            "{}: failed {} of {}; problems: {:?}",
            workload.name(),
            out.failed,
            out.attempted,
            out.problems
        );
        for name in solap_perfbench::END_TO_END {
            let m = out
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{}: no {name}", workload.name()));
            assert!(m.value > 0.0, "{}: {name} is {}", workload.name(), m.value);
        }
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }
}

#[test]
fn traced_runs_report_every_layer_and_write_spans() {
    let listed = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    for workload in Workload::ALL {
        let opts = options(workload, true);
        let out = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_eq!(out.failed, 0, "{}", workload.name());
        for m in &out.metrics {
            assert!(
                listed.contains(&format!("\"{}\"", m.name)),
                "{} is not listed in BENCHMARK.json",
                m.name
            );
        }
        let per_layer = listed.split("\"per_layer\"").nth(1).expect("per_layer");
        for name in per_layer.split("\"name\": \"").skip(1) {
            let name = name.split('"').next().expect("name");
            assert!(
                out.metrics.iter().any(|m| m.name == name),
                "{}: traced run lacks {name}",
                workload.name()
            );
        }
        let spans = opts
            .out_dir
            .join(format!("spans-{}-seed{}.tsv", workload.name(), opts.seed));
        let text = std::fs::read_to_string(&spans).expect("spans file");
        assert!(
            text.lines().count() > 10,
            "{}: too few spans",
            workload.name()
        );
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }
}
