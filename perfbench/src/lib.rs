//! The S-OLAP benchmark: end-to-end metrics measured at the wire against
//! the real server booted in-process, and per-layer metrics from a
//! separate traced run. See `perfbench/README.md` for the workloads, the
//! metrics and how to compare two commits.

#![forbid(unsafe_code)]

pub mod answer;
pub mod check;
pub mod compare;
pub mod drive;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use solap_eventdb::EventDb;

use crate::drive::{Batch, Booted, DriveLog, Kind, Req};
use crate::layers::Issued;
use crate::trace::Tracer;
use crate::workload::{Rng, Scale, Workload};

/// The end-to-end metrics every workload reports and `BENCHMARK.json`
/// bounds. The latency percentiles (`read_p50_ms`, `read_p95_ms`,
/// `read_p99_ms`), `failed_ratio` and the workload-specific metrics
/// (`slo_rate_qps`, `store_p50_ms`, …) are printed, recorded and compared
/// beside them: on a shared 2-core machine their run-to-run spread exceeds
/// any bound a gate could hold.
pub const END_TO_END: [&str; 4] = ["setup_s", "reads_per_s", "journey_p50_ms", "peak_rss_mb"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Client sessions (connections) of the closed-loop workloads; at most
/// the two cores the benchmark is sized for.
pub const SESSIONS: usize = 2;

/// The dashboard's nominal offered read rate (reads/s), at which its
/// latency metrics are measured.
pub const DASHBOARD_RATE: f64 = 1_200.0;

/// The dashboard's fixed open-loop ladder of offered read rates (reads/s).
pub const DASHBOARD_LADDER: [f64; 4] = [600.0, 1_200.0, 2_400.0, 4_800.0];

/// The dashboard's latency limit on `read_p99_ms` for `slo_rate_qps`.
pub const DASHBOARD_P99_LIMIT_MS: f64 = 25.0;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples the value summarises.
    pub samples: usize,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Statements attempted.
    pub attempted: u64,
    /// Statements that failed: `ok:false` (including `over_capacity`),
    /// transport errors and wrong answers.
    pub failed: u64,
    /// Problems found by the correctness and durability checks.
    pub problems: Vec<String>,
    /// Provenance: (key, value) pairs.
    pub provenance: Vec<(String, String)>,
    /// Notes for the human report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Records a tail percentile of `sorted`, or a note that it was
    /// refused because too few samples lie beyond it.
    fn push_tail(&mut self, name: &'static str, sorted: &[f64], p: f64) {
        match stats::percentile(sorted, p) {
            Some(v) => self.push(name, "ms", v, sorted.len()),
            None => self.notes.push(format!(
                "{name} refused: {} samples leave fewer than {} beyond p{p}{}",
                sorted.len(),
                stats::MIN_BEYOND,
                stats::highest_tail(sorted)
                    .map_or(String::new(), |(q, v)| format!("; p{q} is {v:.3} ms"))
            )),
        }
    }

    fn push(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }
}

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Dataset sizes.
    pub scale: Scale,
    /// Where durable directories, spans and result files go.
    pub out_dir: PathBuf,
}

/// The generated inputs of one workload.
pub struct Inputs {
    /// The data the server starts from.
    pub db: EventDb,
    /// `explore`: each session's journeys.
    pub sessions: Vec<Vec<Vec<String>>>,
    /// `dashboard` panels or `ingest` live queries.
    pub queries: Vec<String>,
    /// Sequences in the data.
    pub sequences: usize,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64, scale: &Scale) -> Result<Inputs, String> {
        let e = |e: solap_eventdb::Error| format!("data generation: {e}");
        let (db, sessions, queries) = match workload {
            Workload::Explore => {
                let db = workload::explore_data(seed, scale).map_err(e)?;
                let sessions = (0..SESSIONS)
                    .map(|s| {
                        let mut rng = Rng::new(seed, 100 + s as u64);
                        (0..4_000)
                            .map(|i| workload::explore_journey(&mut rng, scale, i + 18 * s))
                            .collect()
                    })
                    .collect();
                (db, sessions, Vec::new())
            }
            Workload::Dashboard => {
                let mut panels = workload::dashboard_panels();
                // The seed rotates which panel each refresh starts with.
                let start = Rng::new(seed, 7).below(panels.len());
                panels.rotate_left(start);
                (
                    workload::transit_data(seed, scale, scale.transit_passengers).map_err(e)?,
                    Vec::new(),
                    panels,
                )
            }
            Workload::Ingest => (
                workload::transit_data(seed, scale, scale.ingest_passengers).map_err(e)?,
                Vec::new(),
                workload::ingest_live_queries(),
            ),
        };
        let probe = match workload {
            Workload::Explore => workload::explore_warm_up().remove(0),
            _ => workload::transit_query(false, false, None),
        };
        let sequences = solap_query::parse_query(&db, &probe)
            .and_then(|spec| solap_eventdb::build_sequence_groups(&db, &spec.seq))
            .map(|g| g.total_sequences)
            .map_err(|e| format!("probe query: {e}"))?;
        Ok(Inputs {
            db,
            sessions,
            queries,
            sequences,
        })
    }

    /// The statements that bring a freshly booted server to its measured
    /// state: fixed opening queries (`explore`) or every panel / live
    /// query.
    fn warm_up(&self, workload: Workload) -> Vec<String> {
        match workload {
            Workload::Explore => workload::explore_warm_up(),
            _ => self.queries.clone(),
        }
    }
}

/// Refuses to run when a `SOLAP_*` knob is set, so every run measures the
/// program's defaults.
pub fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SOLAP_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the program's defaults",
            set.join(", ")
        ))
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The machine's cumulative CPU time from `/proc/stat`: (steal, total) in
/// clock ticks. Host contention shows up as steal.
fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sends the warm-up statements as one pipelined batch, so set-up time
/// counts their work rather than one client wake-up per statement.
fn warm(booted: &Booted, statements: &[String]) -> Result<(), String> {
    let mut client = drive::connect(booted.addr())?;
    let replies = client
        .pipeline(statements)
        .map_err(|e| format!("warm-up: {e}"))?;
    match replies.iter().find(|r| !r.ok) {
        Some(r) => Err(format!("warm-up statement failed: {}", r.body)),
        None => Ok(()),
    }
}

fn durable_dir(opts: &Options, label: &str) -> Option<PathBuf> {
    (opts.workload == Workload::Ingest).then(|| {
        opts.out_dir.join(format!(
            "durable-{}-{}-{label}",
            opts.seed,
            std::process::id()
        ))
    })
}

/// Boots `reps` times and keeps the last server; returns it with each
/// set-up's seconds (engine build or durable open, bind and warm-up).
fn boot_measured(
    opts: &Options,
    inputs: &Inputs,
    reps: usize,
) -> Result<(Booted, Option<PathBuf>, Vec<f64>), String> {
    let warm_up = inputs.warm_up(opts.workload);
    let mut times = Vec::with_capacity(reps);
    for k in 0..reps {
        let db = inputs.db.clone();
        let dir = durable_dir(opts, &format!("setup{k}"));
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(d);
        }
        let t = Instant::now();
        let booted = drive::boot(db, dir.as_deref())?;
        warm(&booted, &warm_up)?;
        times.push(t.elapsed().as_secs_f64());
        if k + 1 == reps {
            return Ok((booted, dir, times));
        }
        drop(booted.shutdown());
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
    Err("no set-up ran".to_owned())
}

/// Latencies (ms) of the requests that succeeded, each from its due time,
/// ascending.
fn latencies(reqs: &[&Req]) -> Vec<f64> {
    let ok: Vec<&&Req> = reqs.iter().filter(|r| r.ok).collect();
    let due: Vec<f64> = ok.iter().map(|r| r.due).collect();
    let done: Vec<f64> = ok.iter().map(|r| r.done).collect();
    stats::sorted(&stats::latencies_from_due(&due, &done))
}

/// The drive of one workload for `seconds`: every request, plus the
/// dashboard's ladder rungs.
struct Drive {
    log: DriveLog,
    rungs: Vec<drive::Rung>,
}

fn drive_workload(
    opts: &Options,
    inputs: &Inputs,
    booted: &Booted,
    seconds: f64,
    ladder: bool,
) -> Result<Drive, String> {
    let addr = booted.addr();
    match opts.workload {
        Workload::Explore => Ok(Drive {
            log: drive::closed_loop(addr, &inputs.sessions, seconds)?,
            rungs: Vec::new(),
        }),
        Workload::Ingest => {
            let mut rng = Rng::new(opts.seed, 300);
            let mut next_card = 1_000_000;
            let scale = opts.scale;
            let next = move || {
                let rows = workload::store_batch(&mut rng, &scale, &mut next_card);
                let text = workload::store_statement(&rows);
                (rows, text)
            };
            Ok(Drive {
                log: drive::ingest_loop(addr, &inputs.queries, next, seconds)?,
                rungs: Vec::new(),
            })
        }
        Workload::Dashboard => {
            // Two thirds of the run at the nominal rate, a third on the ladder.
            let nominal_s = if ladder { seconds * 2.0 / 3.0 } else { seconds };
            let nominal = drive::open_loop(addr, &inputs.queries, DASHBOARD_RATE, nominal_s, 0)?;
            let mut rungs = Vec::new();
            if ladder {
                let rung_s = seconds / 3.0 / DASHBOARD_LADDER.len() as f64;
                // Every rung runs, so each run does the same work.
                for (i, rate) in DASHBOARD_LADDER.iter().enumerate() {
                    // Long enough for a p99 with ten reads beyond it.
                    let rung_s = rung_s.max(1_100.0 / rate);
                    let rung = drive::open_loop(addr, &inputs.queries, *rate, rung_s, i + 1)?;
                    rungs.push(rung);
                }
            }
            Ok(Drive {
                log: nominal.log,
                rungs,
            })
        }
    }
}

/// Whether an open-loop rung met the latency limit with no failures and
/// no growing backlog.
fn rung_passes(rung: &drive::Rung, per: usize) -> bool {
    let reads: Vec<&Req> = rung.log.reqs.iter().collect();
    let all_ok = reads.iter().all(|r| r.ok);
    let lat = latencies(&reads);
    let p99_ok = stats::percentile(&lat, 99.0).is_some_and(|p| p < DASHBOARD_P99_LIMIT_MS);
    let half = rung.backlog.len() / 2;
    let mean = |v: &[usize]| v.iter().sum::<usize>() / v.len().max(1);
    let growing = stats::backlog_growing(
        mean(&rung.backlog[..half]),
        mean(&rung.backlog[half..]),
        2 * per,
    );
    all_ok && p99_ok && !growing
}

/// Runs one workload end to end with tracing off: set-up (median of
/// [`SETUP_REPS`]), the measured drive, then the correctness and (for
/// `ingest`) durability checks.
fn run_end_to_end(opts: &Options, inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let (booted, dir, setup_times) = boot_measured(opts, inputs, SETUP_REPS)?;
    let (steal0, total0) = cpu_ticks();
    let drive = drive_workload(opts, inputs, &booted, opts.seconds, true);
    let (steal1, total1) = cpu_ticks();
    // Recorded so a run slowed by host contention can be told apart.
    out.provenance.push((
        "cpu_steal_pct".into(),
        format!(
            "{:.1}",
            100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        ),
    ));
    let peak = peak_rss_mb();
    let engine = booted.shutdown();
    drop(engine);
    let Drive { log, rungs } = drive?;
    let reads: Vec<&Req> = log.reqs.iter().filter(|r| r.kind == Kind::Read).collect();
    let lat = latencies(&reads);
    let ok_reads = lat.len();
    out.push(
        "setup_s",
        "s",
        stats::median(&setup_times).unwrap_or(0.0),
        setup_times.len(),
    );
    out.push(
        "read_p50_ms",
        "ms",
        stats::median(&lat).unwrap_or(0.0),
        ok_reads,
    );
    out.push_tail("read_p95_ms", &lat, 95.0);
    out.push_tail("read_p99_ms", &lat, 99.0);
    out.push(
        "reads_per_s",
        "1/s",
        ok_reads as f64 / log.seconds,
        ok_reads,
    );
    let journeys: Vec<f64> = log.journeys.iter().map(|j| j.end - j.start).collect();
    out.push(
        "journey_p50_ms",
        "ms",
        stats::median(&journeys).unwrap_or(0.0),
        journeys.len(),
    );
    out.push("peak_rss_mb", "MiB", peak, 1);

    let mut attempted = log.reqs.len() as u64;
    let mut failed = log.reqs.iter().filter(|r| !r.ok).count() as u64;
    match opts.workload {
        Workload::Explore => {
            let t = Instant::now();
            out.problems
                .extend(check::check_sessions(&inputs.db, &inputs.sessions, &log));
            out.notes.push(format!(
                "reference check took {:.1} s",
                t.elapsed().as_secs_f64()
            ));
            let mut slow: Vec<&Req> = reads.clone();
            slow.sort_by(|a, b| (b.done - b.due).total_cmp(&(a.done - a.due)));
            for r in slow.iter().take(5) {
                let text = check::nth_statement(&inputs.sessions[r.session], r.stmt);
                out.notes.push(format!(
                    "slow read {:.2} ms via {}: {}",
                    r.done - r.due,
                    r.strategy.as_deref().unwrap_or("-"),
                    text.chars().take(120).collect::<String>()
                ));
            }
        }
        Workload::Dashboard => {
            let mut all: Vec<&Req> = reads.clone();
            for r in &rungs {
                all.extend(r.log.reqs.iter());
                attempted += r.log.reqs.len() as u64;
                failed += r.log.reqs.iter().filter(|q| !q.ok).count() as u64;
            }
            out.problems
                .extend(check::check_panels(&inputs.db, &inputs.queries, &all));
            let per = inputs.queries.len();
            let slo = rungs
                .iter()
                .take_while(|r| rung_passes(r, per))
                .map(|r| r.offered)
                .last()
                .unwrap_or(0.0);
            let rung_reads: usize = rungs.iter().map(|r| r.log.reqs.len()).sum();
            out.push("slo_rate_qps", "1/s", slo, rung_reads);
            let late = stats::sorted(&stats::lateness(
                &log.reqs.iter().map(|r| r.due).collect::<Vec<_>>(),
                &log.reqs.iter().map(|r| r.sent).collect::<Vec<_>>(),
            ));
            out.push_tail("generator_late_p99_ms", &late, 99.0);
        }
        Workload::Ingest => {
            let stores: Vec<&Req> = log.reqs.iter().filter(|r| r.kind == Kind::Store).collect();
            let slat = latencies(&stores);
            let events: usize = log.acked_batches.iter().map(Vec::len).sum();
            out.push(
                "store_p50_ms",
                "ms",
                stats::median(&slat).unwrap_or(0.0),
                slat.len(),
            );
            out.push_tail("store_p99_ms", &slat, 99.0);
            out.push("events_per_s", "1/s", events as f64 / log.seconds, events);
            let dir = dir.ok_or("ingest has no durable directory")?;
            let bytes = check::dir_bytes(&dir);
            out.push(
                "disk_bytes_per_event",
                "B",
                bytes as f64 / events.max(1) as f64,
                events,
            );
            let (bad, reference) = check::check_ingest(&inputs.db, &inputs.queries, &log);
            out.problems.extend(bad);
            match reference {
                Ok(reference) => out.problems.extend(check::check_durable(
                    &dir,
                    inputs.db.clone(),
                    &inputs.queries,
                    &log.acked_batches,
                    &reference,
                )),
                Err(e) => out.problems.push(e),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let wrong = out.problems.len() as u64;
    out.failed = failed + wrong;
    out.attempted = attempted;
    out.push(
        "failed_ratio",
        "ratio",
        out.failed as f64 / attempted.max(1) as f64,
        attempted as usize,
    );
    if !rungs.is_empty() {
        for r in &rungs {
            let lat = latencies(&r.log.reqs.iter().collect::<Vec<_>>());
            out.notes.push(format!(
                "rung {:>6.0}/s: p99 {} ms over {} reads, passes: {}",
                r.offered,
                stats::percentile(&lat, 99.0).map_or("n/a".to_owned(), |v| format!("{v:.3}")),
                lat.len(),
                rung_passes(r, inputs.queries.len())
            ));
        }
    }
    Ok(())
}

/// The statements a drive issued, in send order, for the replay.
fn issued(opts: &Options, inputs: &Inputs, log: &DriveLog) -> Vec<Issued> {
    let mut reqs: Vec<&Req> = log.reqs.iter().collect();
    reqs.sort_by(|a, b| a.sent.total_cmp(&b.sent));
    let mut batches = log.acked_batches.iter();
    reqs.into_iter()
        .filter(|r| r.ok)
        .map(|r| {
            let (text, rows) = match (opts.workload, r.kind) {
                (_, Kind::Store) => {
                    let rows = batches.next().cloned().unwrap_or_default();
                    (workload::store_statement(&rows), Some(rows))
                }
                (Workload::Explore, _) => (
                    check::nth_statement(&inputs.sessions[r.session], r.stmt).to_owned(),
                    None,
                ),
                (_, _) => (inputs.queries[r.stmt % inputs.queries.len()].clone(), None),
            };
            Issued {
                session: r.session,
                stmt: r.stmt,
                text,
                rows,
            }
        })
        .collect()
}

/// A fixed probe of 64 store batches drawn from the workload's own data
/// generator, for the per-layer store and WAL spans of workloads that
/// issue no `STORE`.
fn store_probe(opts: &Options) -> Vec<Batch> {
    let mut rng = Rng::new(opts.seed, 500);
    let mut next = 2_000_000;
    (0..64)
        .map(|i| match opts.workload {
            Workload::Explore => workload::synthetic_batch(&mut rng, 1_000_000 + 4 * i, 4),
            _ => workload::store_batch(&mut rng, &opts.scale, &mut next),
        })
        .collect()
}

/// The traced run: an untraced and a traced wire pass (for the tracing
/// overhead), the in-process replay with per-layer spans, and the WAL
/// replay. Writes the spans to the output directory.
fn run_traced(opts: &Options, inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let half = opts.seconds / 2.0;
    let mut tracer = Tracer::default();

    let (booted, dir, _) = boot_measured(opts, inputs, 1)?;
    let plain = drive_workload(opts, inputs, &booted, half, false);
    drop(booted.shutdown());
    if let Some(d) = &dir {
        let _ = std::fs::remove_dir_all(d);
    }
    let plain = plain?.log;

    let (booted, dir, _) = boot_measured(opts, inputs, 1)?;
    let traced = drive_workload(opts, inputs, &booted, half, false);
    let server = booted.handle.stats();
    let engine = booted.shutdown();
    if let Some(d) = &dir {
        let _ = std::fs::remove_dir_all(d);
    }
    let traced = traced?.log;
    for r in traced.reqs.iter().filter(|r| r.done.is_finite()) {
        // Client-side request spans, on the drive's clock.
        tracer.record(
            "wire.request",
            r.stmt,
            (r.sent * 1e6) as u64,
            (r.done * 1e6) as u64,
            1,
        );
    }

    let read_p50 = |log: &DriveLog| {
        let reads: Vec<&Req> = log.reqs.iter().filter(|r| r.kind == Kind::Read).collect();
        stats::median(&latencies(&reads)).unwrap_or(0.0)
    };
    let (p50_plain, p50_traced) = (read_p50(&plain), read_p50(&traced));

    // Strategy counts as the server chose them.
    let mut chosen = std::collections::BTreeMap::new();
    for r in traced.reqs.iter().filter(|r| r.ok && r.kind == Kind::Read) {
        if let Some(a) = &r.answer {
            if a.cells.is_some() {
                *chosen.entry(r.strategy.clone()).or_insert(0u64) += 1;
            }
        }
    }

    let issued = issued(opts, inputs, &traced);
    let probe = if traced.acked_batches.is_empty() {
        out.notes.push(format!(
            "{} issues no STORE: ingest.* and wal.* come from 64 probe batches",
            opts.workload.name()
        ));
        store_probe(opts)
    } else {
        Vec::new()
    };
    let replay = layers::replay(
        inputs.db.clone(),
        &issued,
        Duration::from_secs_f64(opts.seconds),
        &probe,
        &mut tracer,
    );
    let batches = if probe.is_empty() {
        &traced.acked_batches
    } else {
        &probe
    };
    let wal_dir = opts
        .out_dir
        .join(format!("wal-{}-{}", opts.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let wal = layers::wal_replay(&wal_dir, batches, &mut tracer);
    let _ = std::fs::remove_dir_all(&wal_dir);
    let (fsyncs, wal_bytes) = wal?;

    let totals = tracer.totals();
    let t = |name: &str| totals.get(name).cloned().unwrap_or_default();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    out.push(
        "query.parse_us",
        "us",
        t("query.parse_statement").median_us(),
        t("query.parse_statement").calls as usize,
    );
    out.push(
        "plan.explain_us",
        "us",
        t("engine.explain").median_us(),
        t("engine.explain").calls as usize,
    );
    for (name, label) in [
        ("plan.chosen_cb", "CB"),
        ("plan.chosen_ii", "II"),
        ("plan.chosen_reuse", "reuse"),
        ("plan.chosen_cache", "cache"),
    ] {
        let n = chosen.get(&Some(label.to_owned())).copied().unwrap_or(0);
        out.push(name, "count", n as f64, n as usize);
    }
    out.push(
        "plan.pred_over_actual",
        "ratio",
        stats::median(&replay.pred_over_actual).unwrap_or(0.0),
        replay.pred_over_actual.len(),
    );
    let sq = t("seqquery.build_sequence_groups");
    out.push(
        "seqquery.ns_per_event",
        "ns",
        sq.ns_per_unit(),
        sq.calls as usize,
    );
    let (sh, sm) = engine.sequence_cache().stats();
    out.push(
        "seqcache.hit_ratio",
        "ratio",
        ratio(sh, sh + sm),
        (sh + sm) as usize,
    );
    let m = t("matcher.assignments");
    out.push(
        "matcher.ns_per_window",
        "ns",
        m.ns_per_unit(),
        m.work as usize,
    );
    out.push(
        "matcher.assignments_per_window",
        "ratio",
        ratio(replay.assignments, m.work),
        m.work as usize,
    );
    let cb = t("cb.counter_based");
    out.push(
        "cb.ns_per_assignment",
        "ns",
        cb.ns_per_unit(),
        cb.work as usize,
    );
    out.push(
        "cb.ns_per_sequence",
        "ns",
        ratio(cb.self_ns, replay.cb_sequences),
        replay.cb_sequences as usize,
    );
    let ib = t("index.build_index");
    out.push(
        "index.build_ns_per_posting",
        "ns",
        ib.ns_per_unit(),
        ib.work as usize,
    );
    out.push(
        "index.bytes_per_posting",
        "B",
        ratio(replay.index_bytes, ib.work),
        ib.work as usize,
    );
    let j = t("index.join");
    out.push(
        "index.join_ns_per_posting",
        "ns",
        j.ns_per_unit(),
        j.work as usize,
    );
    let ii = t("ii.execute");
    out.push(
        "ii.ns_per_sequence_scanned",
        "ns",
        ii.ns_per_unit(),
        ii.work as usize,
    );
    let (ih, im) = engine.index_store().stats();
    out.push(
        "index_store.hit_ratio",
        "ratio",
        ratio(ih, ih + im),
        (ih + im) as usize,
    );
    let repo = engine.cuboid_repo().stats();
    out.push(
        "repo.hit_ratio",
        "ratio",
        ratio(repo.hits, repo.hits + repo.misses),
        (repo.hits + repo.misses) as usize,
    );
    out.push("repo.evictions", "count", repo.evictions as f64, 1);
    let tab = t("cuboid.tabulate");
    out.push(
        "cuboid.render_ns_per_cell",
        "ns",
        tab.ns_per_unit(),
        tab.work as usize,
    );
    let d = t("server.dispatch");
    out.push("dispatch.us", "us", d.median_us(), d.calls as usize);
    let js = t("json.to_wire");
    out.push(
        "json.encode_ns_per_byte",
        "ns",
        js.ns_per_unit(),
        js.work as usize,
    );
    let overhead: Vec<f64> = traced
        .reqs
        .iter()
        .filter(|r| r.ok && r.kind == Kind::Read)
        .filter_map(|r| {
            let us = replay.dispatch_us.get(&(r.session, r.stmt))?;
            Some((r.done - r.sent) * 1e3 - us)
        })
        .collect();
    out.push(
        "server.wire_overhead_us",
        "us",
        stats::median(&overhead).unwrap_or(0.0),
        overhead.len(),
    );
    out.push(
        "server.rejected_queue",
        "count",
        server.rejected_queue as f64,
        1,
    );
    out.push("server.served_err", "count", server.served_err as f64, 1);
    out.push("server.batches", "count", server.batches as f64, 1);
    let ap = t("engine.append_events");
    let (ext, fb, ixe) = (
        replay.groups_extended,
        replay.rebuild_fallbacks,
        replay.indexes_extended,
    );
    out.push(
        "ingest.append_us_per_event",
        "us",
        ap.ns_per_unit() / 1e3,
        ap.work as usize,
    );
    out.push(
        "ingest.extend_ratio",
        "ratio",
        ratio(ext, ext + fb),
        (ext + fb) as usize,
    );
    out.push("ingest.indexes_extended", "count", ixe as f64, ixe as usize);
    let w = t("wal.append_batch");
    let events: usize = batches.iter().map(Vec::len).sum();
    out.push(
        "wal.append_us_per_batch",
        "us",
        ratio(w.ns, w.calls) / 1e3,
        w.calls as usize,
    );
    out.push(
        "wal.fsyncs_per_batch",
        "ratio",
        ratio(fsyncs, w.calls),
        w.calls as usize,
    );
    out.push(
        "wal.bytes_per_event",
        "B",
        ratio(wal_bytes, events as u64),
        events,
    );
    out.push(
        "trace.read_p50_ms_untraced",
        "ms",
        p50_plain,
        plain.reqs.len(),
    );
    out.push(
        "trace.read_p50_ms_traced",
        "ms",
        p50_traced,
        traced.reqs.len(),
    );
    out.push(
        "trace.overhead_ms",
        "ms",
        p50_traced - p50_plain,
        traced.reqs.len(),
    );

    out.attempted = (plain.reqs.len() + traced.reqs.len()) as u64;
    out.failed = (plain.reqs.iter().chain(&traced.reqs).filter(|r| !r.ok)).count() as u64;
    if replay.truncated {
        out.notes.push(format!(
            "replay budget reached after {} of {} statements",
            replay.replayed,
            issued.len()
        ));
    }
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("output dir: {e}"))?;
    let path = opts.out_dir.join(format!(
        "spans-{}-seed{}.tsv",
        opts.workload.name(),
        opts.seed
    ));
    tracer
        .write_tsv(&path)
        .map_err(|e| format!("writing spans: {e}"))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    Ok(())
}

/// Runs one workload as `opts` says.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    check_environment()?;
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("output dir: {e}"))?;
    let mut out = Outcome::default();
    let gen = Instant::now();
    let inputs = Inputs::generate(opts.workload, opts.seed, &opts.scale)?;
    let gen_s = gen.elapsed().as_secs_f64();
    out.provenance = vec![
        ("workload".into(), opts.workload.name().into()),
        ("seed".into(), opts.seed.to_string()),
        ("seconds".into(), opts.seconds.to_string()),
        ("trace".into(), opts.trace.to_string()),
        ("rev".into(), command_output("git", &["rev-parse", "HEAD"])),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("rustc".into(), command_output("rustc", &["--version"])),
        ("events".into(), inputs.db.len().to_string()),
        ("sequences".into(), inputs.sequences.to_string()),
        ("data_gen_s".into(), format!("{gen_s:.3}")),
        ("fsync_policy".into(), "batch".into()),
        ("dashboard_rate".into(), DASHBOARD_RATE.to_string()),
        (
            "dashboard_ladder".into(),
            DASHBOARD_LADDER
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(","),
        ),
        (
            "dashboard_p99_limit_ms".into(),
            DASHBOARD_P99_LIMIT_MS.to_string(),
        ),
        ("client_sessions".into(), SESSIONS.to_string()),
    ];
    if opts.trace {
        run_traced(opts, &inputs, &mut out)?;
    } else {
        run_end_to_end(opts, &inputs, &mut out)?;
    }
    Ok(out)
}

/// The result record written beside the printed report, read back by the
/// compare mode.
pub fn result_json(opts: &Options, out: &Outcome) -> String {
    let esc = solap_server::json::escape;
    let prov: Vec<String> = out
        .provenance
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", esc(k), esc(v)))
        .collect();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
                m.name,
                json_number(m.value),
                m.unit,
                m.samples
            )
        })
        .collect();
    let problems: Vec<String> = out
        .problems
        .iter()
        .map(|p| format!("\"{}\"", esc(p)))
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
         \"provenance\":{{{}}},\"metrics\":{{{}}},\"problems\":[{}]}}",
        opts.workload.name(),
        opts.seed,
        opts.trace,
        out.correct(),
        out.attempted,
        out.failed,
        prov.join(","),
        metrics.join(","),
        problems.join(",")
    )
}

/// A finite JSON number with all its digits.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Where result records go.
pub fn result_path(opts: &Options) -> PathBuf {
    opts.out_dir.join("results").join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ))
}

/// Writes `text` to `path`, creating parent directories.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(p) = path.parent() {
        std::fs::create_dir_all(p).map_err(|e| format!("{}: {e}", p.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
