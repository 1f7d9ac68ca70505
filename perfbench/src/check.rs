//! Correctness and durability checks. Every read's wire answer is checked
//! against an in-process reference run on the same data and the same
//! statement history; the reference builds every cuboid from scratch with
//! the fixed counter-based strategy and no cuboid repository.

use std::collections::HashMap;
use std::path::Path;

use solap_core::cb::{counter_based, CounterMode};
use solap_core::iceberg::apply_min_support;
use solap_core::stats::ScanMeter;
use solap_core::{Engine, SCuboid, SCuboidSpec};
use solap_eventdb::{build_sequence_groups, EventDb, EventLog, FsyncPolicy, Value};

use crate::answer::Answer;
use crate::drive::{DriveLog, Kind, Req};

/// The reference evaluator: its own navigation stack over its own copy of
/// the data. Every answer is built from scratch — sequence groups by
/// `build_sequence_groups`, cells by the counter-based scan — with no
/// cache, repository or incremental maintenance involved.
pub struct Reference {
    db: EventDb,
    stack: Vec<SCuboidSpec>,
    memo: HashMap<(u64, usize), Answer>,
}

impl Reference {
    /// A reference over `db`.
    pub fn new(db: EventDb) -> Reference {
        Reference {
            db,
            stack: Vec::new(),
            memo: HashMap::new(),
        }
    }

    /// Appends a batch (the `ingest` history); drops memoized answers.
    pub fn append(&mut self, rows: &[Vec<Value>]) -> Result<(), String> {
        self.memo.clear();
        for row in rows {
            self.db
                .push_row(row)
                .map_err(|e| format!("reference append: {e}"))?;
        }
        Ok(())
    }

    /// The cuboid of `spec`, built from scratch with the counter-based scan.
    pub fn cuboid(&self, spec: &SCuboidSpec) -> Result<SCuboid, String> {
        let groups = build_sequence_groups(&self.db, &spec.seq).map_err(|e| e.to_string())?;
        let mut cuboid = counter_based(
            &self.db,
            &groups,
            spec,
            CounterMode::Auto,
            &mut ScanMeter::new(),
        )
        .map_err(|e| e.to_string())?;
        if let Some(ms) = spec.min_support {
            apply_min_support(&mut cuboid, ms);
        }
        Ok(cuboid)
    }

    fn eval(&mut self, spec: &SCuboidSpec, rows: usize) -> Result<Answer, String> {
        let key = (spec.fingerprint(), rows);
        if let Some(a) = self.memo.get(&key) {
            return Ok(a.clone());
        }
        let cuboid = self.cuboid(spec)?;
        let table = cuboid.tabulate(&self.db, rows, true);
        let a = Answer::of_table(Some(cuboid.len() as u64), &table);
        self.memo.insert(key, a.clone());
        Ok(a)
    }

    /// Applies one statement the way a server session does and returns
    /// the answer it should produce.
    pub fn step(&mut self, text: &str) -> Result<Answer, String> {
        let text = text.trim();
        if let Some(rest) = text.strip_prefix(".op ") {
            let args: Vec<&str> = rest.split_whitespace().collect();
            let op = solap_server::command::parse_op(&self.db, &args, self.stack.last())
                .map_err(|e| e.message())?;
            let current = self.stack.last().ok_or("no current query")?;
            let spec = solap_core::ops::apply(&self.db, current, &op).map_err(|e| e.to_string())?;
            let a = self.eval(&spec, 10)?;
            self.stack.push(spec);
            Ok(a)
        } else if text == ".back" {
            if self.stack.len() < 2 {
                return Ok(Answer::of_text("at the start of history\n"));
            }
            self.stack.pop();
            let head = self.stack.last().map(|s| s.template.render_head());
            Ok(Answer::of_text(&format!(
                "back to: {}\n",
                head.unwrap_or_default()
            )))
        } else {
            let spec = solap_query::parse_statement(&self.db, text.trim_end_matches(';'))
                .map_err(|e| e.to_string())?
                .spec;
            let a = self.eval(&spec, 15)?;
            self.stack.push(spec);
            Ok(a)
        }
    }
}

/// The statement a session sent as its `i`-th, its journeys taken in order
/// and repeated from the start when exhausted.
pub fn nth_statement(journeys: &[Vec<String>], i: usize) -> &str {
    let total: usize = journeys.iter().map(Vec::len).sum();
    let mut k = i % total.max(1);
    for j in journeys {
        if k < j.len() {
            return &j[k];
        }
        k -= j.len();
    }
    ""
}

fn mismatch(req: &Req, want: &Answer) -> String {
    format!(
        "session {} statement {}: wire answered {:?}, reference {:?}",
        req.session, req.stmt, req.answer, want
    )
}

/// Checks closed-loop sessions (`explore`): each session's history is
/// replayed on its own reference, in parallel. Returns one line per
/// wrong answer.
pub fn check_sessions(db: &EventDb, sessions: &[Vec<Vec<String>>], log: &DriveLog) -> Vec<String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter()
            .enumerate()
            .map(|(session, journeys)| {
                let db = db.clone();
                s.spawn(move || {
                    let mut reqs: Vec<&Req> =
                        log.reqs.iter().filter(|r| r.session == session).collect();
                    reqs.sort_by_key(|r| r.stmt);
                    let mut reference = Reference::new(db);
                    let mut bad = Vec::new();
                    for req in reqs {
                        let want = reference.step(nth_statement(journeys, req.stmt));
                        match (want, &req.answer) {
                            (Ok(want), Some(got)) if *got == want => {}
                            (Ok(want), Some(_)) => bad.push(mismatch(req, &want)),
                            (Ok(_), None) => {} // a failed request is already counted
                            (Err(e), _) => bad.push(format!(
                                "session {session} statement {}: reference failed: {e}",
                                req.stmt
                            )),
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec!["reference thread panicked".to_owned()])
            })
            .collect()
    })
}

/// Checks `dashboard` reads: every answer equals the reference answer for
/// its panel, and every repeat equals the panel's first wire answer.
pub fn check_panels(db: &EventDb, panels: &[String], reqs: &[&Req]) -> Vec<String> {
    let mut reference = Reference::new(db.clone());
    let want: Vec<Result<Answer, String>> = panels.iter().map(|p| reference.step(p)).collect();
    let mut first: HashMap<usize, &Answer> = HashMap::new();
    let mut bad = Vec::new();
    for req in reqs {
        let Some(got) = &req.answer else { continue };
        match &want[req.stmt] {
            Ok(w) if w == got => {}
            Ok(w) => bad.push(mismatch(req, w)),
            Err(e) => bad.push(format!("panel {}: reference failed: {e}", req.stmt)),
        }
        let f = first.entry(req.stmt).or_insert(got);
        if *f != got {
            bad.push(format!(
                "panel {}: a repeat differs from its first answer",
                req.stmt
            ));
        }
    }
    bad
}

/// Checks `ingest` reads. A read may have seen any store version between
/// the batches acknowledged before it was sent and the batches sent before
/// its reply arrived; it is correct when it equals the reference answer at
/// one of them. Versions are visited in order and a read stops being
/// evaluated once one matches. Returns the mismatches and the reference
/// advanced to the final version.
pub fn check_ingest(
    base: &EventDb,
    live: &[String],
    log: &DriveLog,
) -> (Vec<String>, Result<Reference, String>) {
    let last = log.acked_batches.len();
    let mut open: Vec<(&Req, usize, usize)> = log
        .reqs
        .iter()
        .filter(|r| r.kind == Kind::Read && r.answer.is_some())
        .map(|r| {
            let (lo, hi) = r.versions.unwrap_or((0, 0));
            (r, lo, hi.min(last))
        })
        .collect();
    open.sort_by_key(|(_, lo, _)| *lo);
    let mut reference = Reference::new(base.clone());
    let mut bad = Vec::new();
    let mut pending: Vec<(&Req, usize, usize)> = Vec::new();
    let mut next = 0;
    for version in 0..=last {
        if version > 0 {
            if let Err(e) = reference.append(&log.acked_batches[version - 1]) {
                bad.push(e.clone());
                return (bad, Err(e));
            }
        }
        while next < open.len() && open[next].1 <= version {
            pending.push(open[next]);
            next += 1;
        }
        let mut still = Vec::with_capacity(pending.len());
        for (r, lo, hi) in pending.drain(..) {
            let q = r.stmt % live.len();
            match reference.step(&live[q]) {
                Ok(a) if Some(&a) == r.answer.as_ref() => {}
                Ok(_) if version < hi => still.push((r, lo, hi)),
                Ok(_) => bad.push(format!(
                    "reader statement {} (live query {q}) matches no version in {lo}..={hi}",
                    r.stmt
                )),
                Err(e) => bad.push(format!("live query {q} at version {version}: {e}")),
            }
        }
        pending = still;
    }
    (bad, Ok(reference))
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The durability check for `ingest`, run after the server is shut down:
/// the log holds exactly the acknowledged events in order, and the durable
/// directory reopened through the engine builder answers every live query
/// exactly as a from-scratch rebuild does.
pub fn check_durable(
    dir: &Path,
    base: EventDb,
    live: &[String],
    acked: &[Vec<Vec<Value>>],
    rebuilt: &Reference,
) -> Vec<String> {
    let mut bad = Vec::new();
    let expected: Vec<&Vec<Value>> = acked.iter().flatten().collect();
    match EventLog::open(dir, FsyncPolicy::Batch) {
        Ok((log, rows, _)) => {
            drop(log);
            if rows.len() != expected.len() {
                bad.push(format!(
                    "log holds {} events, {} were acknowledged",
                    rows.len(),
                    expected.len()
                ));
            } else if let Some(i) = rows.iter().zip(&expected).position(|(a, b)| a != *b) {
                bad.push(format!(
                    "logged event {i} differs from the acknowledged one"
                ));
            }
        }
        Err(e) => bad.push(format!("log reopen: {e}")),
    }
    let base_len = base.len();
    let reopened = match Engine::builder(base).durable_with_policy(dir, FsyncPolicy::Batch) {
        Ok(b) => b.build(),
        Err(e) => {
            bad.push(format!("engine reopen: {e}"));
            return bad;
        }
    };
    if reopened.db().len() != base_len + expected.len() {
        bad.push(format!(
            "reopened engine holds {} events, expected {}",
            reopened.db().len(),
            base_len + expected.len()
        ));
    }
    for (q, text) in live.iter().enumerate() {
        let spec = match solap_query::parse_query(&reopened.db(), text) {
            Ok(s) => s,
            Err(e) => {
                bad.push(format!("live query {q}: {e}"));
                continue;
            }
        };
        let got = reopened.execute(&spec).map_err(|e| e.to_string());
        match (got, rebuilt.cuboid(&spec)) {
            (Ok(g), Ok(w)) if g.cuboid.cells == w.cells => {}
            (Ok(_), Ok(_)) => bad.push(format!(
                "live query {q}: reopened cuboid differs from the rebuild"
            )),
            (Err(e), _) | (_, Err(e)) => bad.push(format!("live query {q}: {e}")),
        }
    }
    bad
}
