//! Plain-text/markdown table rendering for the report binary.

/// Formats nanoseconds with a human unit, to the nanosecond: the virtual
/// clock ticks in whole nanoseconds, so the committed transcript pins
/// every simulated duration exactly. Trailing zeros are trimmed
/// (`200 us`, `2.057 us`, `1.141228 ms`); a fractional input (a host
/// measurement) rounds to the nearest nanosecond first.
pub fn ns(v: f64) -> String {
    let n = v.round() as u64;
    let (unit, scale, digits) = match n {
        0..=999 => return format!("{n} ns"),
        1_000..=999_999 => ("us", 1_000, 3),
        1_000_000..=999_999_999 => ("ms", 1_000_000, 6),
        _ => ("s", 1_000_000_000, 9),
    };
    let value = format!("{}.{:0digits$}", n / scale, n % scale);
    let value = value.trim_end_matches('0').trim_end_matches('.');
    format!("{value} {unit}")
}

/// A markdown-ish table printer with aligned columns.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders with column alignment.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for i in 0..cols {
                line.push_str(&format!(" {:<w$} |", cells[i], w = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads a printed duration back as whole nanoseconds.
    fn parse(text: &str) -> u64 {
        let (value, unit) = text.split_once(' ').expect("a value and a unit");
        let scale = match unit {
            "ns" => 1e0,
            "us" => 1e3,
            "ms" => 1e6,
            "s" => 1e9,
            other => panic!("unknown unit {other:?}"),
        };
        (value.parse::<f64>().expect("a number") * scale).round() as u64
    }

    /// Every whole nanosecond prints as itself: distinct durations never
    /// share a rendering, so a transcript diff sees any drift. Swept
    /// geometrically over 0..10 s (each value also with its sub-µs digits
    /// zeroed, the trimmed case), plus the unit boundaries' neighbours.
    #[test]
    fn ns_is_injective_on_whole_nanoseconds() {
        let mut cases: Vec<u64> = [1_000u64, 1_000_000, 1_000_000_000]
            .iter()
            .flat_map(|b| [b - 1, *b, b + 1])
            .collect();
        let mut n = 0u64;
        while n < 10_000_000_000 {
            cases.extend([n, n / 1_000 * 1_000]);
            n += n / 1_024 + 1;
        }
        for n in cases {
            let text = ns(n as f64);
            assert_eq!(parse(&text), n, "{n} ns printed as {text:?}");
            // Table 1's host-measured cells (microsecond-scale operations)
            // share a column with pinned rows without being pinned: below
            // a millisecond none is wider than the pinned `402.875 us`,
            // so host noise cannot re-align a pinned line.
            assert!(n >= 1_000_000 || text.len() <= "402.875 us".len());
        }
    }

    #[test]
    fn ns_trims_zeros_keeps_units_and_rounds_fractions() {
        assert_eq!(ns(17.0), "17 ns");
        assert_eq!(ns(2_057.0), "2.057 us");
        assert_eq!(ns(200_000.0), "200 us");
        assert_eq!(ns(852_018.0), "852.018 us");
        assert_eq!(ns(1_141_228.0), "1.141228 ms");
        assert_eq!(ns(2.5e9), "2.5 s");
        assert_eq!(ns(16796.8365), "16.797 us");
        assert_eq!(ns(999.6), "1 us");
    }

    #[test]
    fn table_aligns() {
        let mut t = Table::new(&["op", "latency"]);
        t.row(&["read".into(), "1 ns".into()]);
        t.row(&["a-much-longer-op".into(), "2 ns".into()]);
        let r = t.render();
        assert!(r.contains("| op               | latency |"), "{r}");
        assert_eq!(r.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
