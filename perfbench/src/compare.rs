//! Compare mode: given the result records of a parent and a change, one
//! row per workload × end-to-end metric with both sides' quartiles, the
//! pair wins and a verdict by the rule in [`crate::stats::compare`].

use std::collections::BTreeMap;
use std::path::Path;

use solap_server::json::Json;

use crate::stats::{self, Better, Verdict};

/// Bound used for a metric `BENCHMARK.json` does not list.
pub const DEFAULT_BOUND: f64 = 0.25;

/// Which way a metric improves, by name.
pub fn better_of(name: &str) -> Better {
    if name.ends_with("_per_s") || name.ends_with("_qps") {
        Better::Higher
    } else {
        Better::Lower
    }
}

/// Per-metric bounds (and directions) from a `BENCHMARK.json` text.
pub fn bounds_from(benchmark_json: &str) -> BTreeMap<String, (Better, f64)> {
    let mut out = BTreeMap::new();
    let Ok(doc) = Json::parse(benchmark_json) else {
        return out;
    };
    if let Some(Json::Arr(items)) = doc.get("end_to_end") {
        for m in items {
            let (Some(name), Some(better), Some(bound)) = (
                m.get("name").and_then(Json::as_str),
                m.get("better")
                    .and_then(Json::as_str)
                    .and_then(Better::parse),
                m.get("bound").and_then(Json::as_f64),
            ) else {
                continue;
            };
            out.insert(name.to_owned(), (better, bound));
        }
    }
    out
}

/// workload → metric → values ordered by seed, from every untraced result
/// record in `dir`.
pub fn load(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut records: Vec<(String, u64, Json)> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?
            .to_owned();
        let seed = doc.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        records.push((workload, seed, doc));
    }
    records.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (workload, _, doc) in records {
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Formats the comparison table of two result directories.
pub fn report(
    parent: &Path,
    change: &Path,
    benchmark_json: Option<&str>,
) -> Result<String, String> {
    let bounds = benchmark_json.map(bounds_from).unwrap_or_default();
    let (p, c) = (load(parent)?, load(change)?);
    let mut out = format!(
        "{:<10} {:<22} {:>32} {:>32} {:>6}  verdict\n",
        "workload", "metric", "parent q1 / median / q3", "change q1 / median / q3", "wins"
    );
    let q = |t: (f64, f64, f64)| format!("{:.4} / {:.4} / {:.4}", t.0, t.1, t.2);
    for (workload, pm) in &p {
        let Some(cm) = c.get(workload) else {
            out.push_str(&format!("{workload:<10} (no change runs)\n"));
            continue;
        };
        for (name, pv) in pm {
            let Some(cv) = cm.get(name) else { continue };
            if name == "failed_ratio" {
                let verdict = stats::compare_failures(pv, cv).map_or("n/a", Verdict::label);
                out.push_str(&format!(
                    "{workload:<10} {name:<22} {:>32} {:>32} {:>6}  {verdict}\n",
                    format!("median {:.6}", stats::median(pv).unwrap_or(0.0)),
                    format!("median {:.6}", stats::median(cv).unwrap_or(0.0)),
                    "-"
                ));
                continue;
            }
            let (better, bound) = bounds
                .get(name)
                .copied()
                .unwrap_or((better_of(name), DEFAULT_BOUND));
            match stats::compare(pv, cv, better, bound) {
                Some(cmp) => out.push_str(&format!(
                    "{workload:<10} {name:<22} {:>32} {:>32} {:>6}  {}\n",
                    q(cmp.parent),
                    q(cmp.change),
                    format!("{}/{}", cmp.wins, cmp.pairs),
                    cmp.verdict.label()
                )),
                None => out.push_str(&format!(
                    "{workload:<10} {name:<22} too few runs to compare\n"
                )),
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_come_from_the_benchmark_file() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let bounds = bounds_from(&text);
        for name in crate::END_TO_END {
            let (better, bound) = bounds
                .get(name)
                .copied()
                .expect("every end-to-end metric has a bound");
            assert_eq!(better, better_of(name), "{name}");
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
        }
        assert_eq!(bounds.len(), crate::END_TO_END.len());
    }

    #[test]
    fn compares_two_result_directories() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_out")
            .join(format!("test-compare-{}", std::process::id()));
        let (p, c) = (base.join("parent"), base.join("change"));
        for (dir, scale) in [(&p, 1.0), (&c, 0.5)] {
            std::fs::create_dir_all(dir).unwrap();
            for seed in 0..10u64 {
                let v = scale * (10.0 + (seed % 3) as f64 * 0.01);
                let rec = format!(
                    "{{\"workload\":\"explore\",\"seed\":{seed},\"trace\":false,\
                     \"metrics\":{{\"read_p50_ms\":{{\"value\":{v},\"unit\":\"ms\"}},\
                     \"failed_ratio\":{{\"value\":0.0,\"unit\":\"ratio\"}}}}}}"
                );
                std::fs::write(dir.join(format!("explore-{seed}.json")), rec).unwrap();
            }
        }
        let table = report(&p, &c, None).unwrap();
        std::fs::remove_dir_all(&base).unwrap();
        assert!(table.contains("read_p50_ms"), "{table}");
        assert!(
            table
                .lines()
                .any(|l| l.contains("read_p50_ms") && l.ends_with("improved")),
            "{table}"
        );
        assert!(
            table
                .lines()
                .any(|l| l.contains("failed_ratio") && l.ends_with("within bound")),
            "{table}"
        );
    }
}
