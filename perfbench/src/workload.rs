//! Seeded inputs for the three workloads: the event data each server
//! starts from and the statement streams its clients send. The program
//! under test receives only these generated data and statements.

use solap_datagen::{SyntheticConfig, TransitConfig};
use solap_eventdb::{EventDb, Result, Value};

/// The workloads the benchmark defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop analyst journeys over the §5.2 synthetic data.
    Explore,
    /// Open-loop dashboard refreshes of a fixed set of transit queries.
    Dashboard,
    /// Closed-loop `STORE` batches beside live transit reads.
    Ingest,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Explore, Workload::Dashboard, Workload::Ingest];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Dashboard => "dashboard",
            Workload::Ingest => "ingest",
        }
    }
}

/// Dataset sizes; [`Scale::full`] is what the benchmark measures,
/// [`Scale::smoke`] a seconds-long version for tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Synthetic sequences `D` for `explore`.
    pub explore_sequences: usize,
    /// Distinct `WHERE seq-id` windows journeys draw from.
    pub explore_windows: usize,
    /// Transit passengers for `dashboard`.
    pub transit_passengers: usize,
    /// Transit passengers `ingest` starts from.
    pub ingest_passengers: usize,
    /// Transit days.
    pub transit_days: usize,
}

impl Scale {
    /// The measured scale.
    pub fn full() -> Scale {
        Scale {
            explore_sequences: 500,
            explore_windows: 100,
            transit_passengers: 1_500,
            ingest_passengers: 400,
            transit_days: 7,
        }
    }

    /// A tiny scale for the smoke test.
    pub fn smoke() -> Scale {
        Scale {
            explore_sequences: 150,
            explore_windows: 12,
            transit_passengers: 60,
            ingest_passengers: 40,
            transit_days: 3,
        }
    }
}

/// A small deterministic generator (SplitMix64) so every input follows
/// from `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A Zipf(θ) rank in `[0, n)`: rank 0 is the hottest.
    pub fn zipf(&mut self, n: usize, theta: f64) -> usize {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        n - 1
    }
}

/// The `explore` data: the §5.2 synthetic set I100.L20.θ0.9 with the
/// symbol → group → super-group hierarchy.
pub fn explore_data(seed: u64, scale: &Scale) -> Result<EventDb> {
    solap_datagen::generate_synthetic(&SyntheticConfig {
        i: 100,
        l: 20.0,
        theta: 0.9,
        d: scale.explore_sequences,
        seed,
        hierarchy: true,
    })
}

/// Transit data for `passengers` cards over the scale's days.
pub fn transit_data(seed: u64, scale: &Scale, passengers: usize) -> Result<EventDb> {
    solap_datagen::generate_transit(&TransitConfig {
        passengers,
        days: scale.transit_days,
        stations: 16,
        districts: 4,
        round_trip_rate: 0.5,
        extra_trips: 0.8,
        seed,
        ..Default::default()
    })
}

const LEVELS: [&str; 3] = ["symbol", "group", "super-group"];

/// A pattern symbol's binding while a journey is generated.
#[derive(Debug, Clone)]
struct Sym {
    name: &'static str,
    level: usize,
}

/// A Zipf-hot value of the symbol hierarchy at `level`.
fn hot_value(rng: &mut Rng, level: usize) -> String {
    match level {
        0 => format!("s{:03}", rng.zipf(24, 0.9)),
        1 => format!("g{:02}", rng.zipf(20, 0.9)),
        _ => format!("u{}", rng.zipf(5, 0.9)),
    }
}

/// The `i`-th analyst journey, shaped like QuerySet A, B or C: a 2-symbol
/// cuboid opened at symbol or group level with a `WHERE` or `SLICE`, then
/// slice, APPEND, P-DRILL-DOWN, P-ROLL-UP (also over repeated-symbol
/// templates, where the list-union fast path is illegal), DE-TAIL and
/// `.back` navigation.
///
/// The journey's shape, filter kind, level and pattern kind cycle with `i`
/// (period 36), so every run sends the same mix; the seeded `rng` picks the
/// values — windows and Zipf-hot slices. A random mix would move the
/// latency median between runs by more than the layers it should show.
pub fn explore_journey(rng: &mut Rng, scale: &Scale, i: usize) -> Vec<String> {
    let shape = i % 3;
    // Subsequence templates stay short: their windows grow as C(L, m).
    let subsequence = shape == 0 && (i / 12).is_multiple_of(3);
    let level = if shape == 1 { 1 } else { (i / 6) % 2 };
    let mut syms = vec![Sym { name: "X", level }, Sym { name: "Y", level }];
    let mut out = Vec::new();
    let sliced_x;
    {
        let filter = if (i / 3).is_multiple_of(2) {
            let window = rng.below(scale.explore_windows);
            let width = scale.explore_sequences / 2;
            let step = (scale.explore_sequences - width) / scale.explore_windows.max(1);
            let lo = window * step.max(1);
            sliced_x = None;
            format!("WHERE seq-id >= {lo} AND seq-id < {} ", lo + width)
        } else {
            sliced_x = Some(hot_value(rng, level));
            String::new()
        };
        let kind = if subsequence {
            "SUBSEQUENCE"
        } else {
            "SUBSTRING"
        };
        let lv = LEVELS[level];
        let mut q = format!(
            "SELECT COUNT(*) FROM Event {filter}CLUSTER BY seq-id AT raw SEQUENCE BY pos ASCENDING \
             CUBOID BY {kind} (X, Y) WITH X AS symbol AT {lv}, Y AS symbol AT {lv} \
             LEFT-MAXIMALITY (x1, y1)"
        );
        if let Some(v) = &sliced_x {
            q.push_str(&format!(" SLICE PATTERN X = \"{v}\""));
        }
        out.push(q);
    }
    let slice = |rng: &mut Rng, syms: &[Sym], dim: usize| {
        let s = &syms[dim];
        format!(".op slice-pattern {} {}", s.name, hot_value(rng, s.level))
    };
    match shape {
        // QuerySet A: slice the hot cell, APPEND a fresh symbol, repeat.
        0 => {
            let first = if sliced_x.is_some() { 1 } else { 0 };
            out.push(slice(rng, &syms, first));
            out.push(format!(".op append Z symbol {}", LEVELS[level]));
            syms.push(Sym { name: "Z", level });
            if !subsequence {
                out.push(slice(rng, &syms, 2));
                out.push(format!(".op append A symbol {}", LEVELS[level]));
                syms.push(Sym { name: "A", level });
            }
            out.push(".op detail".to_owned());
            out.push(".back".to_owned());
            out.push(".op prollup Y".to_owned());
        }
        // QuerySet B: group level, subcube on X, P-DRILL-DOWN X, back,
        // P-ROLL-UP Y.
        1 => {
            out.push(".op append Z symbol group".to_owned());
            syms.push(Sym {
                name: "Z",
                level: 1,
            });
            if sliced_x.is_none() {
                out.push(slice(rng, &syms, 0));
            }
            out.push(".op pdrilldown X".to_owned());
            out.push(".back".to_owned());
            out.push(".op prollup Y".to_owned());
            out.push(".op detail".to_owned());
        }
        // QuerySet C: the repeated-symbol template (X, Y, Y, X), then
        // P-ROLL-UP Y, which may not take the list-union fast path.
        _ => {
            out.push(".op append Y".to_owned());
            out.push(".op append X".to_owned());
            out.push(".op prollup Y".to_owned());
            out.push(".op detail".to_owned());
            out.push(".back".to_owned());
        }
    }
    out
}

/// The fixed queries `explore` warms a new server with: the unfiltered
/// `(X, Y)` substring and subsequence cuboids at symbol and group level.
pub fn explore_warm_up() -> Vec<String> {
    let mut out = Vec::new();
    for kind in ["SUBSTRING", "SUBSEQUENCE"] {
        for lv in ["symbol", "group"] {
            out.push(format!(
                "SELECT COUNT(*) FROM Event CLUSTER BY seq-id AT raw SEQUENCE BY pos ASCENDING \
                 CUBOID BY {kind} (X, Y) WITH X AS symbol AT {lv}, Y AS symbol AT {lv} \
                 LEFT-MAXIMALITY (x1, y1)"
            ));
        }
    }
    out
}

/// The transit query text for a template, location level and global
/// dimension — the paper's introduction query and its variants.
pub fn transit_query(round_trip: bool, district: bool, group: Option<&str>) -> String {
    let lv = if district { "district" } else { "station" };
    let group_clause = match group {
        Some(g) => format!("SEQUENCE GROUP BY {g} "),
        None => String::new(),
    };
    let (template, restriction) = if round_trip {
        (
            "SUBSTRING (X, Y, Y, X)",
            "LEFT-MAXIMALITY (x1, y1, y2, x2) WITH x1.action = \"in\" AND y1.action = \"out\" \
             AND y2.action = \"in\" AND x2.action = \"out\"",
        )
    } else {
        (
            "SUBSTRING (X, Y)",
            "LEFT-MAXIMALITY (x1, y1) WITH x1.action = \"in\" AND y1.action = \"out\"",
        )
    };
    format!(
        "SELECT COUNT(*) FROM Event WHERE time >= \"2007-10-01T00:00\" AND time < \"2007-12-31T24:00\" \
         CLUSTER BY card-id AT individual, time AT day SEQUENCE BY time ASCENDING {group_clause}\
         CUBOID BY {template} WITH X AS location AT {lv}, Y AS location AT {lv} {restriction}"
    )
}

/// The dashboard's 12 panels: round-trip and one-way templates × station
/// and district level × by fare group, by day or overall.
pub fn dashboard_panels() -> Vec<String> {
    let mut out = Vec::new();
    for round_trip in [true, false] {
        for district in [false, true] {
            for group in [Some("card-id AT fare-group"), Some("time AT day"), None] {
                out.push(transit_query(round_trip, district, group));
            }
        }
    }
    out
}

/// The six live queries the `ingest` reader re-runs. None groups by fare
/// group: the `card-id → fare-group` level does not map card-ids stored
/// after it was attached, so such a query fails once a new card arrives.
pub fn ingest_live_queries() -> Vec<String> {
    vec![
        transit_query(true, false, None),
        transit_query(true, true, Some("time AT day")),
        transit_query(false, false, None),
        transit_query(false, true, None),
        transit_query(true, false, Some("time AT day")),
        transit_query(false, false, Some("time AT day")),
    ]
}

/// Events per `STORE` batch.
pub const STORE_BATCH_EVENTS: usize = 16;

/// Share of `STORE` batches that start new card-ids (the incremental-extend
/// path); the rest land in existing clusters (the rebuild fallback).
pub const NEW_CARD_SHARE: f64 = 0.5;

/// One `STORE` batch of transit taps as event rows
/// `(time, card-id, location, action, amount)`.
pub fn store_batch(rng: &mut Rng, scale: &Scale, next_card: &mut i64) -> Vec<Vec<Value>> {
    let day0 = solap_eventdb::time::timestamp(2007, 10, 1, 0, 0, 0);
    let mut rows = Vec::with_capacity(STORE_BATCH_EVENTS);
    let new_cards = rng.unit() < NEW_CARD_SHARE;
    while rows.len() < STORE_BATCH_EVENTS {
        let (card, mut t) = if new_cards {
            *next_card += 1;
            let day = rng.below(scale.transit_days) as i64;
            (
                *next_card,
                day0 + day * 86_400 + 6 * 3600 + rng.below(4 * 3600) as i64,
            )
        } else {
            // An existing card on an existing day, late in the evening.
            let card = 1000 + rng.below(scale.ingest_passengers) as i64;
            let day = rng.below(scale.transit_days) as i64;
            (
                card,
                day0 + day * 86_400 + 20 * 3600 + rng.below(3600) as i64,
            )
        };
        let x = rng.zipf(16, 0.7);
        let y = (x + 1 + rng.below(15)) % 16;
        let mut tap = |station: usize, action: &str, amount: f64, rows: &mut Vec<Vec<Value>>| {
            rows.push(vec![
                Value::Time(t),
                Value::Int(card),
                Value::from(format!("ST{station:03}").as_str()),
                Value::from(action),
                Value::Float(amount),
            ]);
            t += 60 + rng.below(1800) as i64;
        };
        // A round trip: in X, out Y, in Y, out X.
        tap(x, "in", 0.0, &mut rows);
        tap(y, "out", 2.5, &mut rows);
        tap(y, "in", 0.0, &mut rows);
        tap(x, "out", 2.5, &mut rows);
    }
    rows.truncate(STORE_BATCH_EVENTS);
    rows
}

/// Renders event rows as a `STORE INTO Event VALUES …` statement.
pub fn store_statement(rows: &[Vec<Value>]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|r| {
            let vals: Vec<String> = r
                .iter()
                .map(|v| match v {
                    Value::Time(t) => format!("\"{}\"", solap_eventdb::time::format_timestamp(*t)),
                    Value::Int(i) => i.to_string(),
                    Value::Float(f) => format!("{f:.1}"),
                    Value::Str(s) => format!("\"{s}\""),
                })
                .collect();
            format!("({})", vals.join(", "))
        })
        .collect();
    format!("STORE INTO Event VALUES {}", tuples.join(", "))
}

/// Synthetic event rows for new sequences (ids from `first_sid`), used to
/// probe the store path on workloads that issue no `STORE`.
pub fn synthetic_batch(rng: &mut Rng, first_sid: i64, sequences: usize) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for s in 0..sequences as i64 {
        for pos in 0..(STORE_BATCH_EVENTS / sequences.max(1)) as i64 {
            rows.push(vec![
                Value::Int(first_sid + s),
                Value::Int(pos),
                Value::from(format!("s{:03}", rng.zipf(100, 0.9)).as_str()),
            ]);
        }
    }
    rows
}
