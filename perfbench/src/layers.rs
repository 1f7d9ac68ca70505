//! The traced in-process replay: the statements a traced wire pass sent
//! are replayed on a fresh engine, and each layer's public functions are
//! called and timed separately so per-layer cost comes from the
//! benchmark's own spans, never from the engine's stage timings.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use solap_core::cb::{counter_based, CounterMode};
use solap_core::ii::IiExecutor;
use solap_core::stats::{ExecStats, ScanMeter};
use solap_core::{Engine, SCuboidSpec};
use solap_eventdb::{build_sequence_groups, EventDb, EventLog, FsyncPolicy, Value};
use solap_index::join::join;
use solap_index::{build_index, IndexStore, InvertedIndex, SetBackend};
use solap_pattern::{Matcher, PatternTemplate, TemplateSignature};
use solap_server::{dispatch, SessionCtx};

use crate::answer::{elapsed_ns_of, strategy_of};
use crate::trace::Tracer;

/// One statement as a traced wire pass sent it.
#[derive(Debug, Clone)]
pub struct Issued {
    /// The sending session.
    pub session: usize,
    /// Its index in that session's stream.
    pub stmt: usize,
    /// The statement text.
    pub text: String,
    /// The event rows, for `STORE` statements.
    pub rows: Option<Vec<Vec<Value>>>,
}

/// What the replay measured besides its spans.
#[derive(Debug, Default)]
pub struct ReplayOut {
    /// In-process `dispatch` time per (session, statement), µs.
    pub dispatch_us: HashMap<(usize, usize), f64>,
    /// Predicted ÷ actual engine time, where the executed strategy is the
    /// one EXPLAIN chose.
    pub pred_over_actual: Vec<f64>,
    /// Sequences the counter-based scans visited.
    pub cb_sequences: u64,
    /// Cell assignments the matcher produced.
    pub assignments: u64,
    /// Groups carried forward incrementally by appends.
    pub groups_extended: u64,
    /// Groups dropped for a rebuild by appends.
    pub rebuild_fallbacks: u64,
    /// Indexes carried forward incrementally by appends.
    pub indexes_extended: u64,
    /// Index heap bytes built by the traced builds.
    pub index_bytes: u64,
    /// Statements replayed.
    pub replayed: usize,
    /// Whether the time budget cut the replay short.
    pub truncated: bool,
}

fn postings(ix: &InvertedIndex) -> u64 {
    ix.lists.values().map(|s| s.len() as u64).sum()
}

/// Times each layer of one query separately: selection and clustering,
/// matching, the CB scan, an index build and one join rung, the II
/// executor and rendering.
fn decompose(
    db: &EventDb,
    spec: &SCuboidSpec,
    stmt: usize,
    root: usize,
    tracer: &mut Tracer,
    out: &mut ReplayOut,
) -> solap_eventdb::Result<()> {
    let p = Some(root);
    let groups = tracer.span("seqquery.build_sequence_groups", p, stmt, || {
        (build_sequence_groups(db, &spec.seq), db.len() as u64)
    })?;
    let matcher = Matcher::new(db, &spec.template, &spec.mpred);
    let assignments = tracer.span("matcher.assignments", p, stmt, || {
        let mut n = 0u64;
        let mut err = None;
        for s in groups.iter_sequences() {
            match matcher.assignments(s, spec.restriction) {
                Ok(a) => n += a.len() as u64,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        (err.map_or(Ok(n), Err), matcher.take_windows())
    })?;
    out.assignments += assignments;
    let cuboid = tracer.span("cb.counter_based", p, stmt, || {
        (
            counter_based(db, &groups, spec, CounterMode::Auto, &mut ScanMeter::new()),
            assignments,
        )
    })?;
    out.cb_sequences += groups.total_sequences as u64;
    let sig = spec.template.signature();
    let prefix2 = PatternTemplate::from_signature(&sig.prefix(2));
    let (left, _) = tracer.span("index.build_index", p, stmt, || {
        let r = build_index(db, groups.iter_sequences(), &prefix2, SetBackend::Auto);
        let work = r.as_ref().map_or(0, |(ix, _)| postings(ix));
        (r, work)
    })?;
    out.index_bytes += left.heap_bytes() as u64;
    if sig.m() >= 3 {
        let pair_sig = TemplateSignature {
            kind: sig.kind,
            per_position: vec![sig.per_position[1], sig.per_position[2]],
            eq_classes: if sig.eq_classes[1] == sig.eq_classes[2] {
                vec![0, 0]
            } else {
                vec![0, 1]
            },
        };
        let pair = PatternTemplate::from_signature(&pair_sig);
        let (right, _) = tracer.span("index.build_index", p, stmt, || {
            let r = build_index(db, groups.iter_sequences(), &pair, SetBackend::Auto);
            let work = r.as_ref().map_or(0, |(ix, _)| postings(ix));
            (r, work)
        })?;
        out.index_bytes += right.heap_bytes() as u64;
        let target = sig.prefix(3);
        let target_template = PatternTemplate::from_signature(&target);
        let work = postings(&left) + postings(&right);
        let joined = tracer.span("index.join", p, stmt, || {
            (
                join(&left, &right, target, |c| {
                    target_template.is_instantiation(c)
                }),
                work,
            )
        });
        std::hint::black_box(joined);
    }
    let store = IndexStore::new(256, 512 << 20);
    let ii = tracer.begin("ii.execute", p, stmt);
    let mut meter = ScanMeter::new();
    let result = IiExecutor::new(db, &groups, 0x5eed, &store, SetBackend::Auto).execute(
        spec,
        &mut meter,
        &mut ExecStats::default(),
    );
    tracer.end(ii, meter.count());
    result?;
    let cells = cuboid.len() as u64;
    let table = tracer.span("cuboid.tabulate", p, stmt, || {
        (cuboid.tabulate(db, 15, true), cells)
    });
    std::hint::black_box(table);
    Ok(())
}

/// The spec a read statement resolves to in `ctx`'s current state, with
/// Figure-3 parsing timed as its own span.
fn resolve(
    db: &EventDb,
    ctx: &SessionCtx,
    text: &str,
    stmt: usize,
    root: usize,
    tracer: &mut Tracer,
) -> Option<SCuboidSpec> {
    if let Some(rest) = text.strip_prefix(".op ") {
        let args: Vec<&str> = rest.split_whitespace().collect();
        let current = ctx.session().spec()?;
        let op = solap_server::command::parse_op(db, &args, Some(current)).ok()?;
        return solap_core::ops::apply(db, current, &op).ok();
    }
    if text.starts_with('.') {
        return None;
    }
    tracer
        .span("query.parse_statement", Some(root), stmt, || {
            (
                solap_query::parse_statement(db, text.trim_end_matches(';')).ok(),
                1,
            )
        })
        .map(|s| s.spec)
}

/// Appends one batch through `Engine::append_events` as a span, counting
/// what incremental maintenance did.
fn append(
    engine: &Engine,
    rows: &[Vec<Value>],
    stmt: usize,
    parent: Option<usize>,
    tracer: &mut Tracer,
    out: &mut ReplayOut,
) {
    let report = tracer.span("engine.append_events", parent, stmt, || {
        (engine.append_events(rows), rows.len() as u64)
    });
    if let Ok(r) = report {
        out.groups_extended += r.groups_extended as u64;
        out.rebuild_fallbacks += r.rebuild_fallbacks as u64;
        out.indexes_extended += r.indexes_extended as u64;
    }
}

/// Replays `issued` in order on a fresh default engine over `db`, one
/// [`SessionCtx`] per session, for at most `budget`. Every statement is
/// dispatched in-process; each distinct query is also decomposed layer by
/// layer. The `probe` batches are appended afterwards, whatever the budget.
pub fn replay(
    db: EventDb,
    issued: &[Issued],
    budget: Duration,
    probe: &[Vec<Vec<Value>>],
    tracer: &mut Tracer,
) -> ReplayOut {
    let engine = Arc::new(Engine::builder(db).build());
    let mut sessions: HashMap<usize, SessionCtx> = HashMap::new();
    let mut decomposed: HashSet<(u64, u64)> = HashSet::new();
    let mut out = ReplayOut::default();
    let started = Instant::now();
    for (i, st) in issued.iter().enumerate() {
        if started.elapsed() > budget {
            out.truncated = true;
            break;
        }
        out.replayed += 1;
        let root = tracer.begin("stmt", None, i);
        if let Some(rows) = &st.rows {
            append(&engine, rows, i, Some(root), tracer, &mut out);
            tracer.end(root, 0);
            continue;
        }
        let ctx = sessions
            .entry(st.session)
            .or_insert_with(|| SessionCtx::new(Arc::clone(&engine)));
        let mut predicted: Option<(String, f64)> = None;
        {
            let db = engine.db();
            if let Some(spec) = resolve(&db, ctx, &st.text, i, root, tracer) {
                let report = tracer.span("engine.explain", Some(root), i, || {
                    (engine.explain(&spec), 1)
                });
                if let Some(alt) = report.ok().as_ref().and_then(|r| r.chosen().cloned()) {
                    predicted = Some((alt.label, alt.cost.total_nanos));
                }
                if decomposed.insert((spec.fingerprint(), db.version())) {
                    let _ = decompose(&db, &spec, i, root, tracer, &mut out);
                }
            }
        }
        let t = Instant::now();
        let response = tracer.span("server.dispatch", Some(root), i, || {
            (dispatch(ctx, &st.text), 1)
        });
        out.dispatch_us
            .insert((st.session, st.stmt), t.elapsed().as_secs_f64() * 1e6);
        let wire = tracer.span("json.to_wire", Some(root), i, || {
            let w = response.to_wire();
            let n = w.len() as u64;
            (w, n)
        });
        std::hint::black_box(wire);
        if let (Some((label, nanos)), Some(strategy), Some(actual)) = (
            predicted,
            strategy_of(&response.body),
            elapsed_ns_of(&response.body),
        ) {
            if label == strategy && actual > 0.0 {
                out.pred_over_actual.push(nanos / actual);
            }
        }
        tracer.end(root, 0);
    }
    for (i, rows) in probe.iter().enumerate() {
        append(&engine, rows, issued.len() + i, None, tracer, &mut out);
    }
    out
}

/// Appends `batches` to a scratch write-ahead log in `dir` under the
/// batch fsync policy, one span per `EventLog::append_batch`. Returns the
/// fsyncs the log issued and the bytes it left on disk.
pub fn wal_replay(
    dir: &Path,
    batches: &[Vec<Vec<Value>>],
    tracer: &mut Tracer,
) -> Result<(u64, u64), String> {
    let (mut log, _, _) =
        EventLog::open(dir, FsyncPolicy::Batch).map_err(|e| format!("scratch log: {e}"))?;
    for (i, b) in batches.iter().enumerate() {
        tracer
            .span("wal.append_batch", None, i, || (log.append_batch(b), 1))
            .map_err(|e| format!("scratch append: {e}"))?;
    }
    let fsyncs = log.fsyncs();
    drop(log);
    Ok((fsyncs, crate::check::dir_bytes(dir)))
}
