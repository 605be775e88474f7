//! Turning trial records back into figure tables.
//!
//! The layout comes from the grid itself: the first grid axis picks the
//! panel, the remaining axes (joined with ` / `) label the series, and a
//! single-axis or gridless spec prints one panel. Seeds of one cell average
//! point-wise into one series, which also carries the cell's mean upload and
//! download messages per round.

use crate::trial::TrialRecord;

/// One labelled accuracy curve: `(round, accuracy)` points.
#[derive(Debug)]
struct Series {
    /// Curve label: the cell's non-panel axis values, ` / `-joined (e.g.
    /// `"trimmed:0.2 / median"`).
    label: String,
    /// `(round, mean accuracy)` points.
    points: Vec<(usize, f32)>,
    /// Client → server messages per round, averaged over seeds.
    up_per_round: f64,
    /// Server → client messages per round, averaged over seeds.
    down_per_round: f64,
}

impl Series {
    /// The accuracy at the last recorded round.
    fn final_accuracy(&self) -> Option<f32> {
        self.points.last().map(|&(_, a)| a)
    }
}

/// Averages one cell's seeds into a series: accuracy point-wise (the seeds
/// share the round grid: same config modulo seed), messages per round over
/// each record's round count — the engine always evaluates the final
/// round, so the last point names it.
fn average(label: String, members: &[&TrialRecord]) -> Series {
    let n = members.len() as f64;
    let mut acc: Vec<(usize, f64)> = members[0].points.iter().map(|&(r, _)| (r, 0.0)).collect();
    let (mut up, mut down) = (0.0, 0.0);
    for record in members {
        for (slot, &(r, a)) in acc.iter_mut().zip(&record.points) {
            debug_assert_eq!(slot.0, r);
            slot.1 += f64::from(a);
        }
        if let (Some(comm), Some(&(last, _))) = (&record.comm, record.points.last()) {
            up += comm.upload_messages as f64 / (last + 1) as f64;
            down += comm.download_messages as f64 / (last + 1) as f64;
        }
    }
    let points = acc.into_iter().map(|(r, a)| (r, (a / n) as f32)).collect();
    Series { label, points, up_per_round: up / n, down_per_round: down / n }
}

/// Groups completed records into `(panel title, series list)` pairs laid
/// out from their grid axes (see the module docs), in first-seen order.
///
/// The panel title is `key=value` of the first axis (`""` for the single
/// panel of a one-axis or gridless sweep). Series group by their exact
/// axis-value list, so distinct cells never average together. Failed
/// records are skipped — a partially-failed sweep still yields its
/// surviving curves.
fn panels(records: &[TrialRecord]) -> Vec<(String, Vec<Series>)> {
    // Records grouped by series values, nested under their panel title.
    type SeriesGroup<'r> = Vec<(Vec<&'r str>, Vec<&'r TrialRecord>)>;
    let mut out: Vec<(String, SeriesGroup)> = Vec::new();
    for record in records.iter().filter(|r| r.is_completed()) {
        let values: Vec<&str> = record.axes.iter().map(|(_, v)| v.as_str()).collect();
        let (panel, series) = match record.axes.len() {
            0 => (String::new(), vec![record.label.as_str()]),
            1 => (String::new(), values),
            _ => (format!("{}={}", record.axes[0].0, values[0]), values[1..].to_vec()),
        };
        let panel_idx = match out.iter().position(|(p, _)| *p == panel) {
            Some(i) => i,
            None => {
                out.push((panel, Vec::new()));
                out.len() - 1
            }
        };
        let groups = &mut out[panel_idx].1;
        match groups.iter_mut().find(|(s, _)| *s == series) {
            Some((_, members)) => members.push(record),
            None => groups.push((series, vec![record])),
        }
    }
    out.into_iter()
        .map(|(panel, groups)| {
            (
                panel,
                groups.into_iter().map(|(v, members)| average(v.join(" / "), &members)).collect(),
            )
        })
        .collect()
}

/// Prints every panel of a sweep's records as a text table headed by
/// `title` (plus the panel's `key=value` when the grid has several).
pub fn print_panels(title: &str, records: &[TrialRecord]) {
    for (panel, series) in panels(records) {
        let heading =
            if panel.is_empty() { title.to_string() } else { format!("{title}: {panel}") };
        print!("{}", series_table(&heading, &series));
    }
}

/// Renders labelled curves as an aligned text table: one row per evaluated
/// round, then the final accuracy and the per-round message counts; one
/// column per series, as wide as its longest entry (the label included).
fn series_table(title: &str, series: &[Series]) -> String {
    let mut out = format!("\n== {title} ==\n");
    if series.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    let cells = |f: &dyn Fn(&Series) -> String| series.iter().map(f).collect::<Vec<_>>();
    let accuracy = |a: Option<f32>| a.map_or_else(|| "-".to_string(), |a| format!("{a:.3}"));
    let mut rows = vec![("round".to_string(), cells(&|s| s.label.clone()))];
    for i in 0..series.iter().map(|s| s.points.len()).max().unwrap_or(0) {
        let round = series.iter().find_map(|s| s.points.get(i)).map_or(i, |&(r, _)| r);
        rows.push((round.to_string(), cells(&|s| accuracy(s.points.get(i).map(|p| p.1)))));
    }
    rows.push(("final".into(), cells(&|s| accuracy(s.final_accuracy()))));
    rows.push(("up/rnd".into(), cells(&|s| format!("{:.1}", s.up_per_round))));
    rows.push(("down/rnd".into(), cells(&|s| format!("{:.1}", s.down_per_round))));
    let widths: Vec<usize> = (0..series.len())
        .map(|c| rows.iter().map(|(_, row)| row[c].chars().count()).max().unwrap_or(0))
        .collect();
    for (head, row) in rows {
        out.push_str(&format!("{head:>8}"));
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!("  {cell:>w$}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::TrialStatus;
    use fedms_sim::CommStats;

    fn record(axes: &[(&str, &str)], seed: u64, points: Vec<(usize, f32)>) -> TrialRecord {
        TrialRecord {
            trial_id: format!("t-{seed}"),
            label: "base".into(),
            axes: axes.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
            seed,
            config_hash: String::new(),
            status: TrialStatus::Completed,
            final_accuracy: points.last().map(|&(_, a)| a),
            points,
            comm: None,
        }
    }

    #[test]
    fn panels_group_by_first_axis_and_average_seeds() {
        let mut failed = record(&[("attack", "noise"), ("filter", "mean")], 3, vec![(0, 0.9)]);
        failed.status = TrialStatus::Failed { error: "boom".into() };
        let records = vec![
            record(&[("attack", "noise"), ("filter", "mean")], 1, vec![(0, 0.2), (1, 0.4)]),
            failed,
            record(&[("attack", "noise"), ("filter", "mean")], 2, vec![(0, 0.4), (1, 0.6)]),
            record(&[("attack", "noise"), ("filter", "trimmed:0.2")], 1, vec![(0, 0.5), (1, 0.7)]),
            record(&[("attack", "zero"), ("filter", "mean")], 1, vec![(0, 0.1), (1, 0.2)]),
        ];
        let panels = panels(&records);
        let titles: Vec<_> = panels.iter().map(|(t, s)| (t.as_str(), s.len())).collect();
        assert_eq!(titles, [("attack=noise", 2), ("attack=zero", 1)]);
        let mean = &panels[0].1[0];
        assert_eq!(mean.label, "mean");
        assert_eq!(mean.points, vec![(0, 0.3), (1, 0.5)], "seeds average, failures drop out");
        assert_eq!(mean.final_accuracy(), Some(0.5));
    }

    #[test]
    fn three_axis_grid_never_merges_distinct_cells() {
        let axes = |f, sf| [("byzantine_clients", "5"), ("filter", f), ("server_filter", sf)];
        let records = vec![
            record(&axes("trimmed:0.2", "median"), 1, vec![(0, 0.75)]),
            record(&axes("trimmed:0.2", "mean"), 1, vec![(0, 0.4)]),
            record(&axes("mean", "median"), 1, vec![(0, 0.3)]),
            record(&axes("mean", "mean"), 1, vec![(0, 0.1)]),
            record(&axes("trimmed:0.2", "median"), 2, vec![(0, 0.25)]),
        ];
        let panels = panels(&records);
        assert_eq!(panels.len(), 1);
        assert_eq!(panels[0].0, "byzantine_clients=5");
        let got: Vec<_> = panels[0].1.iter().map(|s| (s.label.as_str(), s.points[0].1)).collect();
        assert_eq!(
            got,
            [
                ("trimmed:0.2 / median", 0.5),
                ("trimmed:0.2 / mean", 0.4),
                ("mean / median", 0.3),
                ("mean / mean", 0.1),
            ]
        );
    }

    #[test]
    fn single_axis_and_gridless_specs_print_one_panel() {
        let one = panels(&[
            record(&[("filter", "mean")], 1, vec![(0, 0.2)]),
            record(&[("filter", "median")], 1, vec![(0, 0.3)]),
        ]);
        let labels: Vec<_> = one[0].1.iter().map(|s| s.label.as_str()).collect();
        assert_eq!((one.len(), one[0].0.as_str(), labels), (1, "", vec!["mean", "median"]));
        let gridless = panels(&[record(&[], 1, vec![(0, 0.5)]), record(&[], 2, vec![(0, 0.7)])]);
        assert_eq!((gridless.len(), gridless[0].1.len()), (1, 1));
        assert_eq!(gridless[0].1[0].label, "base");
    }

    #[test]
    fn messages_per_round_average_over_seeds() {
        let with_comm = |seed, upload_messages| {
            let mut r = record(&[("upload", "full")], seed, vec![(0, 0.1), (9, 0.5)]);
            let comm = CommStats { upload_messages, download_messages: 5000, ..Default::default() };
            r.comm = Some(comm);
            r
        };
        let s = &panels(&[with_comm(1, 5000), with_comm(2, 4000)])[0].1[0];
        assert_eq!((s.up_per_round, s.down_per_round), (450.0, 500.0));
    }

    #[test]
    fn table_columns_fit_the_longest_labels() {
        let series: Vec<Series> = ["trimmed:0.2 / median", "trimmed:0.2 / mean", "mean"]
            .into_iter()
            .map(|label| Series {
                label: label.into(),
                points: vec![(0, 0.25), (3, 0.5)],
                up_per_round: 50.0,
                down_per_round: 1500.0,
            })
            .collect();
        let table = series_table("dual", &series);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[1], "== dual ==");
        assert!(lines[2].ends_with("trimmed:0.2 / median  trimmed:0.2 / mean    mean"), "{table}");
        let width = lines[2].chars().count();
        assert!(lines[2..].iter().all(|l| l.chars().count() == width), "misaligned: {table}");
        assert!(lines[5].starts_with("   final") && lines[7].ends_with("1500.0"), "{table}");
        assert_eq!(series_table("empty", &[]), "\n== empty ==\n(no data)\n");
    }
}
