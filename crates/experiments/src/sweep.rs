//! Figures as data: the one sweep executor.
//!
//! The paper's evaluation is one experiment repeated: sweep a knob over
//! a protocol set and read one [`RunReport`] field per cell. A [`Sweep`]
//! declares the knob — an [`Axis`]: its column name, values, print
//! format, and the edit each value makes to the [`Scenario`] and/or the
//! [`NetworkConfig`] — and the protocol set; [`Sweep::run`] runs every
//! `(point, protocol, seed)` cell as one flat batch on the worker pool
//! and averages each point's seeds into [`Runs`]. A [`Panel`] is a
//! title plus a [`Layout`] of `fn(&RunReport) -> String` cells, and
//! [`Runs::tables`] renders panels, so one sweep feeds as many figures
//! as read it (Figs. 4, 5a and 7 share the lookup sweep; 9 and 10 the
//! churn sweep).

use ert_network::{NetworkConfig, ProtocolSpec, RunReport};
use ert_sim::stats::Summary;

use crate::report::{fnum, Table};
use crate::scenario::{average_reports, expect_run, try_run_batch, RunCell, Scenario};

/// A named column: its header and how a report fills it.
pub type Cell = (&'static str, fn(&RunReport) -> String);

/// What a sweep varies: a column name, the values, how a value prints,
/// and the edit each value makes before its runs.
pub struct Axis<V> {
    /// Column name of the axis; `None` for the base scenario alone,
    /// which prints no axis column.
    pub name: Option<&'static str>,
    /// The swept values, in row order.
    pub values: Vec<V>,
    /// How a value prints in the axis column.
    pub format: fn(&V) -> String,
    /// The edit a value makes to its point's scenario.
    pub scenario: fn(&mut Scenario, &V),
    /// The edit a value makes to every run's configuration.
    pub config: fn(&mut NetworkConfig, &V),
}

impl<V> Axis<V> {
    /// An axis that edits nothing yet; add edits with
    /// [`Axis::scenario`] and [`Axis::config`].
    pub fn new(name: &'static str, values: Vec<V>, format: fn(&V) -> String) -> Self {
        Axis {
            name: Some(name),
            values,
            format,
            scenario: |_, _| {},
            config: |_, _| {},
        }
    }

    /// Sets the scenario edit.
    pub fn scenario(self, edit: fn(&mut Scenario, &V)) -> Self {
        Axis {
            scenario: edit,
            ..self
        }
    }

    /// Sets the configuration edit.
    pub fn config(self, edit: fn(&mut NetworkConfig, &V)) -> Self {
        Axis {
            config: edit,
            ..self
        }
    }
}

/// A sweep: an axis over a protocol set.
pub struct Sweep<V> {
    /// What varies.
    pub axis: Axis<V>,
    /// The protocols every point runs, built for the point's network
    /// size (VS sizes its virtual servers by `n`).
    pub protocols: fn(usize) -> Vec<ProtocolSpec>,
}

impl Sweep<()> {
    /// The base scenario alone: one point, no axis column.
    pub fn base(protocols: fn(usize) -> Vec<ProtocolSpec>) -> Self {
        let axis = Axis {
            name: None,
            values: vec![()],
            format: |_| String::new(),
            scenario: |_, _| {},
            config: |_, _| {},
        };
        Sweep { axis, protocols }
    }
}

impl<V: Sync> Sweep<V> {
    /// A sweep of `axis` over `protocols`.
    pub fn new(axis: Axis<V>, protocols: fn(usize) -> Vec<ProtocolSpec>) -> Self {
        Sweep { axis, protocols }
    }

    /// Runs every `(point, protocol, seed)` cell on `base` as one flat
    /// batch and averages each point's seeds.
    ///
    /// # Panics
    ///
    /// Panics with the [`crate::RunError`] rendering when a cell's
    /// configuration is rejected by `Network::new`.
    pub fn run(&self, base: &Scenario) -> Runs {
        let axis = &self.axis;
        let points: Vec<(Scenario, Vec<ProtocolSpec>)> = axis
            .values
            .iter()
            .map(|v| {
                let mut s = base.clone();
                (axis.scenario)(&mut s, v);
                let specs = (self.protocols)(s.n);
                (s, specs)
            })
            .collect();
        let reports = run_points(&points, &|i, cfg| (axis.config)(cfg, &axis.values[i]));
        self.collect(base.n, reports)
    }

    /// Labels each point's reports with its formatted value; the
    /// header names the protocol set declared for the base size.
    fn collect(&self, n: usize, reports: Vec<Vec<RunReport>>) -> Runs {
        let labels = self.axis.values.iter().map(self.axis.format);
        Runs {
            axis: self.axis.name,
            protocols: (self.protocols)(n).into_iter().map(|s| s.name).collect(),
            points: labels.zip(reports).collect(),
        }
    }
}

/// The one batch path of the harness: every `(point, protocol, seed)`
/// cell of `points` in one flat batch on the worker pool, so a point
/// that finishes early releases its workers to later ones. Returns each
/// protocol's report averaged over its point's seeds, in declaration
/// order; `tweak(i, cfg)` edits every run of point `i`.
///
/// # Panics
///
/// Panics with the [`crate::RunError`] rendering when a cell's
/// configuration is rejected by `Network::new`.
pub(crate) fn run_points(
    points: &[(Scenario, Vec<ProtocolSpec>)],
    tweak: &(dyn Fn(usize, &mut NetworkConfig) + Sync),
) -> Vec<Vec<RunReport>> {
    let mut cells: Vec<RunCell> = Vec::new();
    for (i, (scenario, specs)) in points.iter().enumerate() {
        for spec in specs {
            for &seed in &scenario.seeds {
                let tweak = Box::new(move |cfg: &mut NetworkConfig| tweak(i, cfg));
                cells.push(RunCell {
                    scenario,
                    spec,
                    seed,
                    tweak,
                });
            }
        }
    }
    let workers = points.iter().map(|(s, _)| s.effective_jobs()).max();
    let mut runs = try_run_batch(workers.unwrap_or(1), cells)
        .into_iter()
        .map(expect_run);
    let mut average =
        |seeds: usize| average_reports(&runs.by_ref().take(seeds).collect::<Vec<_>>());
    points
        .iter()
        .map(|(s, specs)| specs.iter().map(|_| average(s.seeds.len())).collect())
        .collect()
}

/// A finished sweep: per point, its formatted axis value and each
/// protocol's averaged report.
pub struct Runs {
    /// The axis column name, if the sweep has an axis.
    pub axis: Option<&'static str>,
    /// The declared protocol set's names, in column order.
    pub protocols: Vec<String>,
    /// `(axis value, reports in protocol order)` per point.
    pub points: Vec<(String, Vec<RunReport>)>,
}

/// How a panel lays a sweep's reports out.
pub enum Layout {
    /// One row per point: the axis value, then one column per protocol.
    Wide(fn(&RunReport) -> String),
    /// One row per point: the axis value, then one column per
    /// protocol × cell, named `"{protocol} {cell}"`.
    WideCells(&'static [Cell]),
    /// One row per point × protocol: the axis value, the protocol, and
    /// the mean / p01 / p99 of the picked digest.
    Digest(fn(&RunReport) -> Summary),
    /// One row per point × protocol: the axis value, the protocol's
    /// name under the given column (no column for `None`), then one
    /// column per cell.
    Rows(Option<&'static str>, &'static [Cell]),
}

/// One output table of a sweep: a title and a layout.
pub struct Panel {
    /// The table title; its prefix before the dash names the CSV.
    pub title: &'static str,
    /// How the reports fill it.
    pub layout: Layout,
}

impl Runs {
    /// Renders each panel, in order.
    pub fn tables(&self, panels: &[Panel]) -> Vec<Table> {
        panels.iter().map(|p| self.table(p)).collect()
    }

    /// Renders one panel.
    pub fn table(&self, panel: &Panel) -> Table {
        let layout = &panel.layout;
        let axis = self.axis.iter().map(|a| (*a).to_owned());
        let mut table = Table {
            title: panel.title.to_owned(),
            header: axis.chain(layout.columns(&self.protocols)).collect(),
            rows: Vec::new(),
        };
        for (value, reports) in &self.points {
            let axis = self.axis.map(|_| value.clone());
            if let Layout::Wide(_) | Layout::WideCells(_) = layout {
                let cells = reports.iter().flat_map(|r| layout.cells(r));
                table.row(axis.into_iter().chain(cells).collect());
                continue;
            }
            for r in reports {
                let key = layout.key().map(|_| r.protocol.clone());
                let row = axis.iter().cloned().chain(key).chain(layout.cells(r));
                table.row(row.collect());
            }
        }
        table
    }
}

impl Layout {
    /// The column that names a long row's protocol, if any.
    fn key(&self) -> Option<&'static str> {
        match self {
            Layout::Wide(_) | Layout::WideCells(_) => None,
            Layout::Digest(_) => Some("protocol"),
            Layout::Rows(key, _) => *key,
        }
    }

    /// The header after the axis column.
    fn columns(&self, protocols: &[String]) -> Vec<String> {
        let cells = match self {
            Layout::Wide(_) => return protocols.to_vec(),
            Layout::WideCells(cells) => {
                return protocols
                    .iter()
                    .flat_map(|p| cells.iter().map(move |(c, _)| format!("{p} {c}")))
                    .collect()
            }
            Layout::Digest(_) => vec!["mean", "p01", "p99"],
            Layout::Rows(_, cells) => cells.iter().map(|(c, _)| *c).collect(),
        };
        self.key()
            .into_iter()
            .chain(cells)
            .map(str::to_owned)
            .collect()
    }

    /// One report's cells, in column order.
    fn cells(&self, r: &RunReport) -> Vec<String> {
        match self {
            Layout::Wide(cell) => vec![cell(r)],
            Layout::WideCells(cells) | Layout::Rows(_, cells) => {
                cells.iter().map(|(_, f)| f(r)).collect()
            }
            Layout::Digest(pick) => {
                let s = pick(r);
                vec![fnum(s.mean), fnum(s.p01), fnum(s.p99)]
            }
        }
    }
}

/// Completed over started lookups (0 for a run that started none).
pub fn completion(r: &RunReport) -> f64 {
    if r.lookups_started == 0 {
        0.0
    } else {
        r.lookups_completed as f64 / r.lookups_started as f64
    }
}

#[cfg(test)]
mod tests {
    //! The executor's layouts on hand-built reports: no simulation runs.

    use super::*;
    use crate::{ablation, adversarial, fig10, fig4, fig5, fig7, fig8, fig9, resilience};

    /// Runs of `sweep` whose report `j` at point `i` reads `10·i + j`
    /// in every field a panel prints.
    fn fake<V: Sync>(sweep: &Sweep<V>) -> Runs {
        let names = (sweep.protocols)(64);
        let reports = (0..sweep.axis.values.len())
            .map(|i| {
                names
                    .iter()
                    .enumerate()
                    .map(|(j, spec)| {
                        let x = (10 * i + j) as f64;
                        let digest = Summary {
                            mean: x,
                            p01: x / 2.0,
                            p99: 2.0 * x,
                            ..Summary::default()
                        };
                        RunReport {
                            protocol: spec.name.clone(),
                            lookups_started: 100,
                            lookups_completed: 100 - j as u64,
                            lookups_failed: j as u64,
                            p99_max_congestion: x,
                            maintenance_per_lookup: x,
                            max_indegree: digest,
                            lookup_time: digest,
                            ..RunReport::default()
                        }
                    })
                    .collect()
            })
            .collect();
        sweep.collect(64, reports)
    }

    const PAPER_SIX: [&str; 6] = ["Base", "NS", "VS", "ERT/A", "ERT/F", "ERT/AF"];

    #[test]
    fn wide_has_one_column_per_declared_protocol() {
        let t = fake(&fig4::lookup_sweep(vec![100, 200])).table(&fig4::PANELS[0]);
        assert_eq!(t.header[0], "lookups");
        assert_eq!(t.header[1..], PAPER_SIX);
        assert_eq!(
            t.rows[0],
            ["100", "0", "1.000", "2.000", "3.000", "4.000", "5.000"]
        );
        assert_eq!(t.rows[1][0..2], ["200", "10.00"]);
        // `{:.1}`: the service-time and churn axes.
        let lookups = fake(&fig4::lookup_sweep(vec![100, 200]));
        let services = fake(&fig4::service_sweep(vec![0.1, 2.0]));
        let churn = fake(&fig9::churn_sweep(vec![0.3, 2.0]));
        let t = services.table(&fig4::SERVICE_PANEL);
        assert_eq!(t.column("service_s"), Some(vec!["0.1", "2.0"]));
        let t = churn.table(&fig10::PANELS[3]);
        assert_eq!(t.column("interarrival_s"), Some(vec!["0.3", "2.0"]));
        // Every wide paper panel: a row per point, the axis and six columns.
        let wide = [
            lookups.tables(&fig4::PANELS),
            vec![lookups.table(&fig5::PANEL_5A)],
            services.tables(&fig8::PANELS),
            churn.tables(&fig9::PANELS),
            [0, 1, 3].map(|i| churn.table(&fig10::PANELS[i])).to_vec(),
        ];
        for t in wide.iter().flatten() {
            assert_eq!((t.rows.len(), t.header.len()), (2, 7), "{}", t.title);
        }
        // An empty sweep still names every declared protocol.
        let t = fake(&fig9::churn_sweep(Vec::new())).table(&fig9::PANELS[0]);
        assert_eq!(t.header[0], "interarrival_s");
        assert_eq!(t.header[1..], PAPER_SIX);
        assert!(t.rows.is_empty());
    }

    #[test]
    fn wide_cells_name_protocol_times_cell() {
        let runs = fake(&resilience::resilience_sweep(vec![0.0, 0.5]));
        let [a, b] = [0, 1].map(|i| runs.table(&resilience::PANELS[i]));
        assert_eq!(
            a.header,
            [
                "intensity",
                "Base completed",
                "Base failed",
                "ERT/AF completed",
                "ERT/AF failed"
            ]
        );
        assert_eq!(b.header[1], "Base retries/lookup");
        // `{:.2}`.
        assert_eq!(a.rows[0], ["0.00", "1.000", "0", "0.990", "1"]);
        assert_eq!(a.rows[1][0], "0.50");
        assert_eq!(
            (a.csv_stem(), b.csv_stem()),
            ("resilience_a".into(), "resilience_b".into())
        );
        // `{}`: the adversarial axes.
        let t = fake(&adversarial::liar_sweep(vec![1.0, 8.0])).table(&adversarial::LIAR_PANEL);
        assert_eq!(t.column("error"), Some(vec!["1", "8"]));
        assert_eq!(t.header[1], "Base p99 congestion");
        assert_eq!(t.csv_stem(), "adv_liars");
        let t = fake(&adversarial::sybil_sweep(vec![0, 16])).table(&adversarial::SYBIL_PANEL);
        assert_eq!(t.column("count"), Some(vec!["0", "16"]));
        assert_eq!(t.csv_stem(), "adv_sybils");
        let t = fake(&adversarial::defector_sweep(Vec::new())).table(&adversarial::DEFECTOR_PANEL);
        assert_eq!(
            t.header,
            [
                "fraction",
                "Base completed",
                "Base p99 lookup time",
                "ERT/AF completed",
                "ERT/AF p99 lookup time"
            ]
        );
        assert!(t.rows.is_empty());
        assert_eq!(t.csv_stem(), "adv_defectors");
    }

    #[test]
    fn digest_has_one_row_per_point_and_protocol() {
        let runs = fake(&fig4::lookup_sweep(vec![100, 200]));
        let t = runs.table(&fig7::PANELS[0]);
        assert_eq!(t.header, ["lookups", "protocol", "mean", "p01", "p99"]);
        assert_eq!(t.rows.len(), 12);
        assert_eq!(t.rows[7], ["200", "NS", "11.00", "5.500", "22.00"]);
        let t = fake(&fig9::churn_sweep(vec![0.5])).table(&fig10::PANELS[2]);
        assert_eq!(t.column("protocol"), Some(PAPER_SIX.to_vec()));
        assert_eq!(t.column("interarrival_s"), Some(vec!["0.5"; 6]));
        // The base scenario alone prints no axis column.
        let t = fake(&Sweep::base(ert_baselines::all_protocols)).table(&fig5::PANEL_5C);
        assert_eq!(t.header, ["protocol", "mean", "p01", "p99"]);
        assert_eq!(t.rows[5], ["ERT/AF", "5.000", "2.500", "10.00"]);
        let t = fake(&fig4::lookup_sweep(Vec::new())).table(&fig7::PANELS[1]);
        assert_eq!(t.header, ["lookups", "protocol", "mean", "p01", "p99"]);
        assert!(t.rows.is_empty());
    }

    #[test]
    fn rows_name_the_protocol_only_under_a_key() {
        let t = fake(&fig4::lookup_sweep(vec![100])).table(&fig7::PANELS[2]);
        assert_eq!(t.header, ["lookups", "protocol", "maintenance/lookup"]);
        assert_eq!(t.rows[2], ["100", "VS", "2.000"]);
        let t = fake(&ablation::forwarding_sweep()).table(&ablation::FORWARDING_PANEL);
        assert_eq!(t.header[..2], ["variant", "p99 cong"]);
        let variants: Vec<String> = ablation::forwarding_ladder()
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(
            t.column("variant"),
            Some(variants.iter().map(String::as_str).collect())
        );
        // `fnum`: one protocol, no key column.
        let t = fake(&ablation::alpha_sweep(vec![4.0, 11.0])).table(&ablation::ALPHA_PANEL);
        assert_eq!(
            t.header,
            [
                "alpha",
                "p99 cong",
                "p99 share",
                "mean max indegree",
                "time_s"
            ]
        );
        assert_eq!(t.rows[1], ["11.00", "10.00", "0", "10.00", "10.00"]);
        let t = fake(&ablation::probe_width_sweep(vec![1, 4])).table(&ablation::PROBE_WIDTH_PANEL);
        assert_eq!(t.column("b"), Some(vec!["1", "4"]));
        let t = fake(&ablation::beta_sweep(Vec::new())).table(&ablation::BETA_PANEL);
        assert_eq!(t.header[0], "beta");
        assert!(t.rows.is_empty());
    }
}
