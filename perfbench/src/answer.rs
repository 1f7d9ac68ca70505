//! What a read answered, reduced to what the correctness check compares:
//! the cuboid's cell count, the rendered top rows and their summed value.

/// A read's answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Non-empty cells of the cuboid (`None` for navigation replies such
    /// as `.back`, which render no cuboid).
    pub cells: Option<u64>,
    /// Summed value of the rendered rows.
    pub sum: f64,
    /// FNV-1a digest of the rendered rows.
    pub digest: u64,
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The summed last column of the table rows (`… | value`), skipping the
/// header and the "more cells" footer.
fn table_sum(table: &str) -> f64 {
    table
        .lines()
        .skip(1)
        .filter_map(|l| l.rsplit(" | ").next()?.trim().parse::<f64>().ok())
        .sum()
}

impl Answer {
    /// Reduces a reply body. Query and `.op` replies start with a line
    /// `[op: ]N cells via STRATEGY in TIME (…)` followed by the table; the
    /// first line carries timings, so only the count is kept from it.
    pub fn of_body(body: &str) -> Answer {
        let (head, rest) = body.split_once('\n').unwrap_or((body, ""));
        match head.find(" cells via ") {
            Some(at) => {
                let cells = head[..at].rsplit(' ').next().and_then(|t| t.parse().ok());
                Answer::of_table(cells, rest)
            }
            None => Answer {
                cells: None,
                sum: 0.0,
                digest: fnv(body),
            },
        }
    }

    /// An answer from a cell count and a rendered table.
    pub fn of_table(cells: Option<u64>, table: &str) -> Answer {
        Answer {
            cells,
            sum: table_sum(table),
            digest: fnv(table),
        }
    }

    /// A navigation reply rendered verbatim.
    pub fn of_text(text: &str) -> Answer {
        Answer {
            cells: None,
            sum: 0.0,
            digest: fnv(text),
        }
    }
}

/// The strategy a query or `.op` reply names (`CB`, `II`, `reuse`,
/// `cache`), if any.
pub fn strategy_of(body: &str) -> Option<&str> {
    let head = body.lines().next()?;
    let at = head.find(" cells via ")?;
    head[at + " cells via ".len()..].split(' ').next()
}

/// The engine-side elapsed time a reply reports (`… in 1.25ms …`), in ns.
pub fn elapsed_ns_of(body: &str) -> Option<f64> {
    let head = body.lines().next()?;
    let at = head.find(" in ")?;
    let token = head[at + 4..].split(' ').next()?;
    let (num, scale) = if let Some(v) = token.strip_suffix("ns") {
        (v, 1.0)
    } else if let Some(v) = token.strip_suffix("µs") {
        (v, 1e3)
    } else if let Some(v) = token.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = token.strip_suffix('s') {
        (v, 1e9)
    } else {
        return None;
    };
    num.parse::<f64>().ok().map(|n| n * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_query_and_op_replies() {
        let body = "3 cells via II in 1.5ms (10 sequences scanned, 0 KiB of indices built)\n\
                    X(symbol:symbol) | value\ns001 | 7\ns002 | 5\n… (1 more cells)\n";
        let a = Answer::of_body(body);
        assert_eq!(a.cells, Some(3));
        assert_eq!(a.sum, 12.0);
        assert_eq!(strategy_of(body), Some("II"));
        assert_eq!(elapsed_ns_of(body), Some(1.5e6));
        let op = "APPEND: 3 cells via CB in 250µs (4 sequences scanned)\n\
                  X(symbol:symbol) | value\ns001 | 7\ns002 | 5\n… (1 more cells)\n";
        let b = Answer::of_body(op);
        assert_eq!(b, a, "the timing line does not enter the answer");
        assert_eq!(elapsed_ns_of(op), Some(250e3));
        assert_eq!(Answer::of_body("back to: (X, Y)\n").cells, None);
    }
}
