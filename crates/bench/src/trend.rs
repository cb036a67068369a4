//! Perf trajectory over the committed `BENCH_*.json` snapshots.
//!
//! Each PR that touches performance commits one snapshot
//! ([`crate::snapshot`]); this module reads them *all* back and turns
//! the pile of per-PR files into a per-metric trajectory over the rows
//! of [`snapshot::METRICS`] marked `tracked`:
//!
//! * `report -- trend` renders the table — one row per snapshot, one
//!   column per tracked metric — so the repository's perf history is
//!   readable without opening a single JSON file;
//! * `report -- bench-check --trend` is the regression gate: the
//!   newest numeric-PR snapshot is compared against the **best prior**
//!   value of every tracked metric, and any regression beyond
//!   [`DEFAULT_TOLERANCE`] (20%) fails with a nonzero exit.
//!
//! Only snapshots whose `pr` field parses as a number participate in
//! the gate: those are the numbers of record (see README "Perf
//! snapshots"). Ad-hoc snapshots (`dev`, `ci`) still show up in the
//! table.
//!
//! Every tracked metric comes out of the deterministic simulator: the
//! same code produces the same number on any machine, so a slide past
//! tolerance can only be a real code change and the gate fails hard.

use std::path::Path;

use pcsi_proto::Value;

use crate::reportfmt::Table;
use crate::snapshot::{self, Better, Metric};

/// Maximum tolerated regression of the latest snapshot against the
/// best prior value of a metric, as a fraction (0.20 = 20%).
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// The tracked metrics, in table-column order. A metric only gates when
/// both the latest and some prior snapshot carry it.
fn tracked() -> impl Iterator<Item = &'static Metric> {
    snapshot::METRICS.iter().filter(|m| m.tracked)
}

/// One snapshot's tracked metrics, in tracked-table order (`None` where
/// the snapshot predates the metric).
#[derive(Debug, Clone)]
pub struct TrendRow {
    /// The snapshot's `pr` field, verbatim.
    pub pr: String,
    /// `pr` parsed as a number, when it is one — only these rows gate.
    pub pr_num: Option<u64>,
    /// The whole validated document.
    pub doc: Value,
    values: Vec<Option<f64>>,
}

/// Parses one snapshot document into a trend row. The document must
/// validate against the current schema — a drifted snapshot is an
/// error, not a silent gap in the trajectory.
pub fn parse_row(text: &str) -> Result<TrendRow, String> {
    let doc = snapshot::validate(text)?;
    let pr = doc
        .get("pr")
        .and_then(Value::as_str)
        .expect("validated")
        .to_owned();
    let pr_num = pr.parse::<u64>().ok();
    let values = tracked().map(|m| m.read(&doc)).collect();
    Ok(TrendRow {
        pr,
        pr_num,
        doc,
        values,
    })
}

/// Orders rows: numeric PRs ascending first, then the rest by name.
fn sort(rows: &mut [TrendRow]) {
    rows.sort_by(|a, b| {
        (a.pr_num.is_none(), a.pr_num, &a.pr).cmp(&(b.pr_num.is_none(), b.pr_num, &b.pr))
    });
}

/// Reads every `BENCH_<pr>.json` in `dir` whose file-name `pr` passes
/// `keep` into sorted trend rows. Any unreadable or schema-drifted file
/// among them is an error naming the file.
pub fn load_dir(dir: &Path, keep: impl Fn(&str) -> bool) -> Result<Vec<TrendRow>, String> {
    let mut rows = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir:?}: {e}"))?;
    for name in entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| {
            n.strip_prefix("BENCH_")
                .and_then(|n| n.strip_suffix(".json"))
                .is_some_and(&keep)
        })
    {
        let text = std::fs::read_to_string(dir.join(&name))
            .map_err(|e| format!("cannot read {name}: {e}"))?;
        rows.push(parse_row(&text).map_err(|e| format!("{name}: {e}"))?);
    }
    sort(&mut rows);
    Ok(rows)
}

/// Renders the trajectory table: one row per snapshot, one column per
/// tracked metric, `—` where a snapshot predates the metric.
pub fn render_table(rows: &[TrendRow]) -> String {
    let labels: Vec<String> = tracked().map(Metric::path).collect();
    let mut headers = vec!["pr"];
    headers.extend(labels.iter().map(String::as_str));
    let mut t = Table::new(&headers);
    for row in rows {
        let mut cells = vec![row.pr.clone()];
        for v in &row.values {
            cells.push(match v {
                Some(v) => format!("{v:.3}"),
                None => "—".into(),
            });
        }
        t.row(&cells);
    }
    t.render()
}

/// The regression gate: compares the newest numeric-PR snapshot
/// against the best prior numeric-PR value of each tracked metric.
///
/// Returns the per-metric verdict lines on success, or the regression
/// messages when any metric slid more than `tolerance`. Fewer than two
/// numeric-PR snapshots means there is nothing to gate yet — trivially
/// ok.
pub fn check(rows: &[TrendRow], tolerance: f64) -> Result<Vec<String>, Vec<String>> {
    let numeric: Vec<&TrendRow> = rows.iter().filter(|r| r.pr_num.is_some()).collect();
    let Some((latest, priors)) = numeric.split_last() else {
        return Ok(vec!["no numeric-PR snapshots; nothing to gate".into()]);
    };
    if priors.is_empty() {
        return Ok(vec![format!(
            "only one numeric-PR snapshot (pr {}); nothing to gate",
            latest.pr
        )]);
    }
    let mut verdicts = Vec::new();
    let mut regressions = Vec::new();
    for (i, m) in tracked().enumerate() {
        let label = m.path();
        let higher_is_better = m.better == Better::Higher;
        let Some(cur) = latest.values[i] else {
            verdicts.push(format!("{label}: absent from pr {}, skipped", latest.pr));
            continue;
        };
        let best = priors
            .iter()
            .filter_map(|r| r.values[i].map(|v| (v, r.pr.as_str())))
            .reduce(|a, b| {
                let a_wins = if higher_is_better {
                    a.0 >= b.0
                } else {
                    a.0 <= b.0
                };
                if a_wins {
                    a
                } else {
                    b
                }
            });
        let Some((best, best_pr)) = best else {
            verdicts.push(format!("{label}: no prior snapshot carries it, skipped"));
            continue;
        };
        if best <= 0.0 {
            verdicts.push(format!("{label}: prior best is nonpositive, skipped"));
            continue;
        }
        let slide = if higher_is_better {
            (best - cur) / best
        } else {
            (cur - best) / best
        };
        let line = format!(
            "{label}: pr {} at {:.3} vs best {:.3} (pr {best_pr}) — {}{:.1}%",
            latest.pr,
            cur,
            best,
            if slide <= 0.0 {
                "ahead by "
            } else {
                "behind by "
            },
            slide.abs() * 100.0
        );
        if slide > tolerance {
            regressions.push(format!(
                "{line} — exceeds the {:.0}% tolerance",
                tolerance * 100.0
            ));
        } else {
            verdicts.push(line);
        }
    }
    if regressions.is_empty() {
        Ok(verdicts)
    } else {
        Err(regressions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::{committed, fixture};

    /// A rendered snapshot whose shard scale-out ratio is `ratio` and
    /// whose fast-network push latency is `fast_ns`.
    fn row(pr: &str, ratio: f64, fast_ns: f64) -> TrendRow {
        let mut r = fixture();
        r.shard.tput_after = r.shard.tput_before * ratio;
        r.streaming.points[2].pcsi_event_ns = fast_ns;
        parse_row(&snapshot::render(&r, pr, 7)).unwrap()
    }

    #[test]
    fn rows_sort_numeric_prs_first_and_ascending() {
        let mut rows = vec![
            row("10", 3.0, 2e3),
            row("dev", 3.0, 2e3),
            row("9", 3.0, 2e3),
            row("ci", 3.0, 2e3),
        ];
        sort(&mut rows);
        let order: Vec<&str> = rows.iter().map(|r| r.pr.as_str()).collect();
        assert_eq!(order, ["9", "10", "ci", "dev"]);
    }

    #[test]
    fn gate_passes_within_tolerance_and_ignores_ad_hoc_snapshots() {
        // 10% below the best prior: within the 20% gate. The "dev" row
        // with a catastrophic number must not participate.
        let rows = [row("8", 3.0, 2e3), row("9", 2.7, 2e3), row("dev", 0.1, 2e3)];
        let verdicts = check(&rows, DEFAULT_TOLERANCE).unwrap();
        assert!(
            verdicts
                .iter()
                .any(|v| v.contains("shard_scaling.ratio") && v.contains("behind by 10.0%")),
            "{verdicts:?}"
        );
    }

    #[test]
    fn gate_fails_on_a_regression_beyond_tolerance() {
        let rows = [row("8", 3.0, 2e3), row("9", 2.0, 2e3)];
        let regressions = check(&rows, DEFAULT_TOLERANCE).unwrap_err();
        assert_eq!(regressions.len(), 1);
        assert!(
            regressions[0].contains("shard_scaling.ratio") && regressions[0].contains("tolerance"),
            "{regressions:?}"
        );
    }

    #[test]
    fn gate_compares_against_the_best_prior_not_the_last() {
        // PR 8 dipped; PR 9 must still be judged against PR 7's peak.
        let rows = [row("7", 4.0, 2e3), row("8", 2.0, 2e3), row("9", 3.1, 2e3)];
        let regressions = check(&rows, DEFAULT_TOLERANCE).unwrap_err();
        assert!(
            regressions[0].contains("shard_scaling.ratio") && regressions[0].contains("pr 7"),
            "{regressions:?}"
        );
    }

    #[test]
    fn lower_is_better_metrics_gate_in_the_right_direction() {
        // A streaming latency that *rose* past tolerance must fail even
        // while throughput improves.
        let rows = [row("8", 3.0, 2000.0), row("9", 3.6, 2600.0)];
        let regressions = check(&rows, DEFAULT_TOLERANCE).unwrap_err();
        assert!(
            regressions[0].contains("streaming.fast_pcsi_event_ns"),
            "{regressions:?}"
        );
        // And a drop in latency is an improvement, not a regression.
        let rows = [row("8", 3.0, 2000.0), row("9", 3.6, 1500.0)];
        assert!(check(&rows, DEFAULT_TOLERANCE).is_ok());
    }

    #[test]
    fn missing_values_skip_rather_than_gate() {
        let mut latest = row("9", 3.0, 2e3);
        latest.values[0] = None;
        let rows = [row("8", 3.0, 2e3), latest];
        let verdicts = check(&rows, DEFAULT_TOLERANCE).unwrap();
        assert!(
            verdicts
                .iter()
                .any(|v| v.contains("shard_scaling.ratio") && v.contains("skipped")),
            "{verdicts:?}"
        );
    }

    #[test]
    fn fewer_than_two_numeric_snapshots_is_trivially_ok() {
        assert!(check(&[row("ci", 1.0, 2e3)], DEFAULT_TOLERANCE).is_ok());
        assert!(check(&[row("6", 1.0, 2e3)], DEFAULT_TOLERANCE).is_ok());
    }

    /// The committed history, left byte-identical on disk, reads and
    /// gates as it did before its wall-clock fields were retired.
    #[test]
    fn committed_history_keeps_its_columns_and_verdict() {
        let rows: Vec<TrendRow> = (6..=10)
            .map(|pr| parse_row(&committed(pr)).unwrap())
            .collect();
        let labels: Vec<String> = tracked().map(Metric::path).collect();
        assert_eq!(
            labels,
            [
                "shard_scaling.ratio",
                "autoscale.cold_start_ratio",
                "streaming.fast_pcsi_event_ns",
                "streaming.ttft_pcsi_ns"
            ]
        );
        let values: Vec<&[Option<f64>]> = rows.iter().map(|r| r.values.as_slice()).collect();
        assert_eq!(
            values,
            [
                [None, None, None, None],
                [Some(3.132), None, None, None],
                [Some(3.132), Some(7.636), None, None],
                [Some(3.132), Some(7.636), Some(2057.0), Some(1141228.0)],
                [Some(3.132), Some(7.636), Some(2057.0), Some(1141228.0)],
            ]
        );
        let table = render_table(&rows);
        assert!(table.contains("| 6  | —"), "{table}");
        assert!(table.contains("| 10 | 3.132 "), "{table}");
        let verdicts = check(&rows, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(verdicts.len(), 4);
        assert!(
            verdicts.iter().all(|v| v.contains("ahead by 0.0%")),
            "{verdicts:?}"
        );
    }
}
