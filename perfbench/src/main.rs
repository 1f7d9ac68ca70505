//! `perfbench --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload and prints its metrics; the last stdout line is the JSON
//! result. `perfbench compare PARENT_DIR CHANGE_DIR` compares two sets of
//! result records. Run from the repository root; outputs go to
//! `.bench_out/`.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use solap_perfbench::workload::{Scale, Workload};
use solap_perfbench::{compare, json_number, result_json, result_path, run, write_file, Options};

const USAGE: &str = "usage: perfbench --workload explore|dashboard|ingest --seed N --seconds S --trace 0|1\n       perfbench compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::full(),
        out_dir: PathBuf::from(".bench_out"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let (Some(p), Some(c)) = (args.get(1), args.get(2)) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let bench = std::fs::read_to_string("BENCHMARK.json").ok();
        return match compare::report(Path::new(p), Path::new(c), bench.as_deref()) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (k, v) in &out.provenance {
        println!("# {k}: {v}");
    }
    println!(
        "{:<34} {:>16} {:<6} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in &out.metrics {
        println!(
            "{:<34} {:>16.6} {:<6} {:>9}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for n in &out.notes {
        println!("note: {n}");
    }
    for p in out.problems.iter().take(20) {
        println!("problem: {p}");
    }
    let record = result_json(&opts, &out);
    if let Err(e) = write_file(&result_path(&opts), &record) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    // The last line: only the metrics BENCHMARK.json lists for this mode.
    let listed: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| opts.trace || solap_perfbench::END_TO_END.contains(&m.name))
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        listed.join(",")
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
