//! The paper's evaluation as one report: Tables 2–5, Fig. 7's
//! normalized performance and REACT's improvement over each baseline,
//! the scalar summaries of Figs. 1 and 6, the ablations, the §5.1
//! overhead and the §3.3.1 switching loss.
//!
//! [`build`] runs each of the four workload matrices once and derives
//! every table from them. Each [`Section`] is one artifact: the text it
//! prints, the CSV it writes (Figs. 1 and 6 write their voltage series)
//! and the values [`PaperReport`] pins, keyed
//! `<section>/<row>/<column>`, e.g. `table4/RF Obs./17 mF`. A cell with
//! no value (Table 4's "-" latency) has no key. Every run is seeded, so
//! the gate compares values exactly; the paper's own figure, where the
//! repo has one, is printed beside a value but never compared.

use std::collections::BTreeMap;

use react_buffers::{
    morphy_transition_path, BufferKind, EnergyBuffer, MorphyBuffer, ReactBuffer, ReactConfig,
    StaticBuffer,
};
use react_circuit::{
    BankMode, BankSpec, CapacitorSpec, ChainNetwork, Partition, SeriesParallelBank,
};
use react_core::fom::{mean_improvement_over, normalize_to_react};
use react_core::report::TextTable;
use react_core::{
    ConstantLoad, ExperimentMatrix, RunMetrics, RunOutcome, Scenario, Simulator, WorkloadKind,
};
use react_harvest::{Converter, PowerReplay};
use react_traces::{paper_trace, PaperTrace, PowerTrace, TABLE3_TARGETS};
use react_units::{Amps, Farads, Seconds, Volts, Watts};
use react_workloads::{DataEncryption, RadioTransmit};
use serde::{Deserialize, Serialize};

use crate::gate::{Comparison, Gate};

/// One pinned number.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PaperValue {
    /// `<section>/<row>/<column>`.
    pub key: String,
    /// The value this repository computes.
    pub value: f64,
    /// The paper's figure for it, if the repo has one (printed, not
    /// compared).
    pub paper: Option<f64>,
}

/// One artifact of the paper report.
#[derive(Clone, Debug, Default)]
pub struct Section {
    /// Artifact stem (`<name>.txt`, `<name>.csv`) and key prefix.
    pub name: &'static str,
    /// The rendered table or summary.
    pub text: String,
    /// The CSV artifact, if the section has one.
    pub csv: Option<String>,
    /// The values the baseline pins.
    pub values: Vec<PaperValue>,
}

impl Section {
    fn new(name: &'static str) -> Self {
        Section {
            name,
            ..Section::default()
        }
    }

    /// Pins `value` under `<name>/<key>`. A value that is not a finite
    /// number is absent, like a table's "-" cell.
    fn put(&mut self, key: &str, value: f64) {
        self.put_paper(key, value, None);
    }

    fn put_paper(&mut self, key: &str, value: f64, paper: Option<f64>) {
        if value.is_finite() {
            self.values.push(PaperValue {
                key: format!("{}/{key}", self.name),
                value,
                paper,
            });
        }
    }

    /// Sets the text and CSV artifacts from a table.
    fn with_table(mut self, table: &TextTable) -> Self {
        self.text = table.render();
        self.csv = Some(table.to_csv());
        self
    }
}

/// A trace × paper-buffer table: `cell` gives each cell's text and its
/// values as `(key suffix, value)` pairs, keyed `<trace>/<buffer><suffix>`.
fn matrix_table(
    section: &mut Section,
    title: &str,
    matrix: &ExperimentMatrix,
    cell: impl Fn(&RunMetrics) -> (String, Vec<(&'static str, f64)>),
) -> TextTable {
    let mut headers = vec!["Trace"];
    headers.extend(BufferKind::PAPER_COLUMNS.map(BufferKind::label));
    let mut table = TextTable::new(title, &headers);
    for row in &matrix.rows {
        let mut cells = vec![row.trace.label().to_string()];
        for c in &row.cells {
            let (text, values) = cell(&c.outcome.metrics);
            for (suffix, value) in values {
                let key = format!("{}/{}{suffix}", row.trace.label(), c.buffer.label());
                section.put(&key, value);
            }
            cells.push(text);
        }
        table.push_row(&cells);
    }
    table
}

/// The metrics of column `i` of `matrix`, one per trace.
fn column(matrix: &ExperimentMatrix, i: usize) -> impl Iterator<Item = &RunMetrics> {
    matrix.rows.iter().map(move |r| &r.cells[i].outcome.metrics)
}

/// Table 2: ops per trace × buffer, plus the mean row.
fn ops_table(name: &'static str, matrix: &ExperimentMatrix) -> Section {
    let mut s = Section::new(name);
    let title = format!("Table 2 ({name}): {} ops", matrix.workload.label());
    let mut table = matrix_table(&mut s, &title, matrix, |m| {
        (
            m.ops_completed.to_string(),
            vec![("", m.ops_completed as f64)],
        )
    });
    let mut mean = vec!["Mean".to_string()];
    for (buffer, v) in matrix.mean_ops() {
        s.put(&format!("Mean/{}", buffer.label()), v);
        mean.push(format!("{v:.0}"));
    }
    table.push_row(&mean);
    s.with_table(&table)
}

/// Table 3: the power-trace statistics beside the paper's.
pub fn table3() -> Section {
    let mut s = Section::new("table3");
    let mut table = TextTable::new(
        "Table 3: power traces",
        &[
            "Trace",
            "Time (s)",
            "Avg. Pow. (mW)",
            "Power CV",
            "Paper CV",
        ],
    );
    for row in TABLE3_TARGETS {
        let stats = paper_trace(row.trace).stats();
        let label = row.trace.label();
        let (time, power, cv) = (
            stats.duration.get(),
            stats.mean_power.to_milli(),
            stats.cv_percent(),
        );
        s.put_paper(&format!("{label}/time_s"), time, Some(row.duration_s));
        s.put_paper(
            &format!("{label}/avg_power_mW"),
            power,
            Some(row.avg_power_mw),
        );
        s.put_paper(&format!("{label}/cv_percent"), cv, Some(row.cv_percent));
        table.push_row(&[
            label.to_string(),
            format!("{time:.0}"),
            format!("{power:.3}"),
            format!("{cv:.0}%"),
            format!("{:.0}%", row.cv_percent),
        ]);
    }
    s.with_table(&table)
}

/// Table 4: cold-start latency on the DE matrix (latency is
/// software-invariant), mean over the traces a buffer starts on.
fn table4(de: &ExperimentMatrix) -> Section {
    let mut s = Section::new("table4");
    let mut table = matrix_table(&mut s, "Table 4: system latency (s)", de, |m| {
        match m.first_on_latency {
            Some(l) => (format!("{:.2}", l.get()), vec![("", l.get())]),
            None => ("-".into(), Vec::new()),
        }
    });
    let mut mean = vec!["Mean".to_string()];
    for (i, buffer) in BufferKind::PAPER_COLUMNS.into_iter().enumerate() {
        let latencies: Vec<f64> = column(de, i)
            .filter_map(|m| m.first_on_latency)
            .map(Seconds::get)
            .collect();
        if latencies.is_empty() {
            mean.push("-".into());
        } else {
            let v = latencies.iter().fold(0.0, |a, l| a + l) / latencies.len() as f64;
            s.put(&format!("Mean/{}", buffer.label()), v);
            mean.push(format!("{v:.2}"));
        }
    }
    table.push_row(&mean);
    s.with_table(&table)
}

/// Table 5: PF packets received / retransmitted, mean row in whole
/// packets.
fn table5(pf: &ExperimentMatrix) -> Section {
    let mut s = Section::new("table5");
    let title = "Table 5: Packet Forwarding (Rx / Tx)";
    let mut table = matrix_table(&mut s, title, pf, |m| {
        (
            format!("{}/{}", m.aux_completed, m.ops_completed),
            vec![
                ("/rx", m.aux_completed as f64),
                ("/tx", m.ops_completed as f64),
            ],
        )
    });
    let n = pf.rows.len().max(1) as u64;
    let mut mean = vec!["Mean".to_string()];
    for (i, buffer) in BufferKind::PAPER_COLUMNS.into_iter().enumerate() {
        let rx = column(pf, i).map(|m| m.aux_completed).sum::<u64>() / n;
        let tx = column(pf, i).map(|m| m.ops_completed).sum::<u64>() / n;
        s.put(&format!("Mean/{}/rx", buffer.label()), rx as f64);
        s.put(&format!("Mean/{}/tx", buffer.label()), tx as f64);
        mean.push(format!("{rx}/{tx}"));
    }
    table.push_row(&mean);
    s.with_table(&table)
}

/// The paper's REACT improvement over each baseline (§5.5), in percent.
const PAPER_IMPROVEMENT: [(BufferKind, f64); 4] = [
    (BufferKind::Static770uF, 39.1),
    (BufferKind::Static10mF, 18.8),
    (BufferKind::Static17mF, 19.3),
    (BufferKind::Morphy, 26.2),
];

/// Fig. 7: each benchmark normalized to REACT, the mean row, and
/// REACT's mean improvement over each baseline.
fn fig7(matrices: &[&ExperimentMatrix]) -> Section {
    let mut s = Section::new("fig7");
    let mut headers = vec!["Benchmark"];
    headers.extend(BufferKind::PAPER_COLUMNS.map(BufferKind::label));
    let mut table = TextTable::new("Fig. 7: normalized performance (REACT = 1.00)", &headers);
    let all_scores: Vec<_> = matrices.iter().map(|m| normalize_to_react(m)).collect();
    for (matrix, scores) in matrices.iter().zip(&all_scores) {
        let label = matrix.workload.label();
        let mut cells = vec![label.to_string()];
        for kind in BufferKind::PAPER_COLUMNS {
            let score = scores
                .iter()
                .find(|s| s.buffer == kind)
                .map_or(0.0, |s| s.score);
            s.put(&format!("{label}/{}", kind.label()), score);
            cells.push(format!("{score:.2}"));
        }
        table.push_row(&cells);
    }
    let mut mean = vec!["Mean".to_string()];
    for kind in BufferKind::PAPER_COLUMNS {
        let avg = all_scores
            .iter()
            .filter_map(|scores| scores.iter().find(|s| s.buffer == kind))
            .map(|s| s.score)
            .sum::<f64>()
            / all_scores.len() as f64;
        s.put(&format!("Mean/{}", kind.label()), avg);
        mean.push(format!("{avg:.2}"));
    }
    table.push_row(&mean);

    s = s.with_table(&table);
    s.text.push('\n');
    for (baseline, paper) in PAPER_IMPROVEMENT {
        let imp = 100.0 * mean_improvement_over(&all_scores, baseline);
        let label = baseline.label();
        s.put_paper(&format!("improvement/{label}"), imp, Some(paper));
        s.text.push_str(&format!(
            "REACT improvement over {label:>7}: {imp:+.1}% (paper: +{paper:.1}%)\n"
        ));
    }
    s
}

/// A static supercap buffer of `c_mf` on the boost charger with no
/// load beyond the MCU's own 1.5 mA active draw (§2.1).
pub fn fig1_run(c_mf: f64, trace: PaperTrace, probe: bool) -> RunOutcome {
    let spec = CapacitorSpec::supercap_scaled(Farads::from_milli(c_mf));
    let buffer: Box<dyn EnergyBuffer> = Box::new(StaticBuffer::new(format!("{c_mf} mF"), spec));
    let workload = Box::new(ConstantLoad::new(Amps::ZERO));
    let replay = PowerReplay::new(paper_trace(trace), Converter::boost_charger());
    let mut sim = Simulator::new(replay, buffer, workload);
    if probe {
        sim = sim.with_probe(Seconds::new(1.0));
    }
    sim.run()
}

/// Fig. 1: 1 mF vs 300 mF on the pedestrian solar trace (§2.1), the
/// night-time duty cycles of §2.1.2 and the trace's spike structure.
fn fig1() -> Section {
    let mut s = Section::new("fig1");
    let small = fig1_run(1.0, PaperTrace::Pedestrian, true);
    let large = fig1_run(300.0, PaperTrace::Pedestrian, true);

    let mut csv = String::from("time_s,v_1mF,on_1mF,v_300mF,on_300mF\n");
    for (a, b) in small.voltage_series.iter().zip(&large.voltage_series) {
        csv.push_str(&format!(
            "{:.1},{:.4},{},{:.4},{}\n",
            a.time_s, a.voltage_v, a.on as u8, b.voltage_v, b.on as u8
        ));
    }
    s.csv = Some(csv);

    s.text = "== Fig. 1: static buffers on the pedestrian solar trace ==\n".into();
    for (label, m) in [("1 mF", &small.metrics), ("300 mF", &large.metrics)] {
        let latency = m.first_on_latency.map(Seconds::get);
        s.put(&format!("{label}/latency_s"), latency.unwrap_or(f64::NAN));
        s.put(&format!("{label}/mean_cycle_s"), m.mean_on_period.get());
        s.put(&format!("{label}/on_percent"), 100.0 * m.duty_cycle());
        s.text.push_str(&format!(
            "{:<7} latency {}, mean cycle {:.1} s, on {:.0}% of trace\n",
            format!("{label}:"),
            latency.map_or("never".into(), |l| format!("{l:.2} s")),
            m.mean_on_period.get(),
            100.0 * m.duty_cycle()
        ));
    }
    let charge_ratio = match (
        large.metrics.first_on_latency,
        small.metrics.first_on_latency,
    ) {
        (Some(l), Some(s)) => l.get() / s.get().max(1e-9),
        _ => f64::NAN,
    };
    s.put("charge_ratio", charge_ratio);
    s.text.push_str(&format!(
        "charge-time ratio (300 mF / 1 mF): {charge_ratio:.1}x (paper: >8x)\n"
    ));

    let night = |c_mf| {
        100.0
            * fig1_run(c_mf, PaperTrace::SolarNight, false)
                .metrics
                .duty_cycle()
    };
    let (night_small, night_big) = (night(1.0), night(10.0));
    s.put_paper("night/1 mF/on_percent", night_small, Some(5.7));
    s.put_paper("night/10 mF/on_percent", night_big, Some(3.3));
    s.text.push_str(&format!(
        "night duty cycle: 1 mF {night_small:.2}% vs 10 mF {night_big:.2}% (paper: 5.7% vs 3.3%)\n"
    ));

    let trace = paper_trace(PaperTrace::Pedestrian);
    let above = 100.0 * trace.energy_fraction_above(Watts::from_milli(10.0));
    let below = 100.0 * trace.time_fraction_below(Watts::from_milli(3.0));
    s.put("trace/energy_above_10mW_percent", above);
    s.put("trace/time_below_3mW_percent", below);
    s.text.push_str(&format!(
        "trace: {above:.0}% of energy above 10 mW, {below:.0}% of time below 3 mW\n"
    ));
    s
}

/// The buffers Fig. 6 plots.
const FIG6_BUFFERS: [BufferKind; 4] = [
    BufferKind::Static770uF,
    BufferKind::Static10mF,
    BufferKind::Morphy,
    BufferKind::React,
];

/// One Fig. 6 run: SC under RF Mobile, probed every 0.5 s.
pub fn fig6_run(kind: BufferKind) -> RunOutcome {
    Scenario::paper(PaperTrace::RfMobile, kind, WorkloadKind::SenseCompute)
        .simulator()
        .with_probe(Seconds::new(0.5))
        .run()
}

/// The largest capacitance a probed run's series reached (F).
pub fn peak_capacitance(run: &RunOutcome) -> f64 {
    run.voltage_series
        .iter()
        .map(|s| s.capacitance_f)
        .fold(0.0, f64::max)
}

/// Fig. 6: buffer voltage, on-state and capacitance for SC under RF
/// Mobile, and each buffer's summary.
fn fig6() -> Section {
    let mut s = Section::new("fig6");
    let runs: Vec<(BufferKind, RunOutcome)> =
        FIG6_BUFFERS.into_iter().map(|k| (k, fig6_run(k))).collect();

    let mut csv = String::from("time_s");
    for (kind, _) in &runs {
        csv.push_str(&format!(
            ",v_{0},on_{0},cap_{0}",
            kind.label().replace(' ', "")
        ));
    }
    csv.push('\n');
    let len = runs
        .iter()
        .map(|(_, o)| o.voltage_series.len())
        .min()
        .unwrap_or(0);
    for i in 0..len {
        csv.push_str(&format!("{:.1}", runs[0].1.voltage_series[i].time_s));
        for (_, out) in &runs {
            let v = &out.voltage_series[i];
            csv.push_str(&format!(
                ",{:.4},{},{:.6}",
                v.voltage_v, v.on as u8, v.capacitance_f
            ));
        }
        csv.push('\n');
    }
    s.csv = Some(csv);

    s.text = "== Fig. 6: SC under RF Mobile ==\n".into();
    for (kind, out) in &runs {
        let m = &out.metrics;
        let label = kind.label();
        let peak_mf = peak_capacitance(out) * 1e3;
        s.put(&format!("{label}/ops"), m.ops_completed as f64);
        s.put(&format!("{label}/on_s"), m.on_time.get());
        s.put(&format!("{label}/boots"), m.boots as f64);
        s.put(&format!("{label}/peak_mF"), peak_mf);
        s.put(&format!("{label}/clipped_mJ"), m.ledger.clipped.to_milli());
        s.text.push_str(&format!(
            "{label:>7}: ops {:>3}, on {:>5.0} s, boots {:>3}, peak C {peak_mf:.2} mF, \
             clipped {:.1} mJ\n",
            m.ops_completed,
            m.on_time.get(),
            m.boots,
            m.ledger.clipped.to_milli(),
        ));
    }
    s
}

/// RT ops on RF Cart with a custom REACT configuration.
fn react_rt_ops(config: ReactConfig) -> u64 {
    let replay = PowerReplay::new(paper_trace(PaperTrace::RfCart), Converter::ideal());
    Simulator::new(replay, ReactBuffer::new(config), RadioTransmit::new())
        .run()
        .metrics
        .ops_completed
}

/// The REACT configurations the ablations compare, with each row's
/// variant and note: charge reclamation (§3.3.4), the poll rate (§3.4)
/// and every comparator threshold `V_high` that Eq. 2 admits (§3.3.5).
fn react_ablations() -> Vec<(String, ReactConfig, &'static str)> {
    let paper = ReactConfig::paper_prototype;
    let mut rows = vec![
        ("REACT (paper)".into(), paper(), "reclamation on"),
        (
            "REACT, no reclamation".into(),
            ReactConfig {
                charge_reclamation: false,
                ..paper()
            },
            "banks disconnect at V_low",
        ),
    ];
    for hz in [2.0, 10.0, 50.0] {
        let cfg = ReactConfig {
            poll_period: Seconds::new(1.0 / hz),
            ..paper()
        };
        rows.push((format!("REACT, poll {hz} Hz"), cfg, ""));
    }
    for v_high in [3.4, 3.5, 3.6] {
        let cfg = ReactConfig {
            v_high: Volts::new(v_high),
            ..paper()
        };
        if cfg.validate().is_ok() {
            rows.push((format!("REACT, V_high {v_high} V"), cfg, ""));
        }
    }
    rows
}

/// Ablations: charge reclamation (§3.3.4), poll rate (§3.4), the
/// comparator threshold (§3.3.5) and the extension baselines.
pub fn ablations() -> Section {
    let mut s = Section::new("ablations");
    let mut table = TextTable::new(
        "Ablations (RT ops on RF Cart unless noted)",
        &["Variant", "Ops", "Note"],
    );
    let mut push = |s: &mut Section, variant: String, ops: u64, note: String| {
        s.put(&format!("{variant}/ops"), ops as f64);
        table.push_row(&[variant, ops.to_string(), note]);
    };

    for (variant, cfg, note) in react_ablations() {
        push(&mut s, variant, react_rt_ops(cfg), note.into());
    }

    for kind in [BufferKind::Dewdrop, BufferKind::Capybara, BufferKind::React] {
        let ops = |w: WorkloadKind| {
            Scenario::paper(PaperTrace::RfCart, kind, w)
                .run()
                .metrics
                .ops_completed
        };
        let (de, rt) = (
            ops(WorkloadKind::DataEncryption),
            ops(WorkloadKind::RadioTransmit),
        );
        let variant = format!("{} baseline", kind.label());
        s.put(&format!("{variant}/de_ops"), de as f64);
        push(&mut s, variant, rt, format!("DE ops: {de}"));
    }
    s.with_table(&table)
}

/// DE ops on 20 mW of continuous power for 5 minutes, with or without
/// REACT's software poller (the §5.1 method).
pub fn overhead_de_ops(with_software: bool) -> u64 {
    let trace = PowerTrace::constant(
        "continuous",
        Watts::from_milli(20.0),
        Seconds::new(300.0),
        Seconds::new(0.1),
    );
    let replay = PowerReplay::new(trace, Converter::ideal());
    let mut sim = Simulator::new(
        replay,
        BufferKind::React.build(),
        Box::new(DataEncryption::new()),
    )
    .with_max_drain(Seconds::new(10.0));
    if !with_software {
        sim = sim.without_software_overhead();
    }
    sim.run().metrics.ops_completed
}

/// §5.1: the software poller's throughput penalty and the hardware's
/// quiescent draw with every bank connected.
fn overhead() -> Section {
    let mut s = Section::new("overhead");
    let with = overhead_de_ops(true);
    let without = overhead_de_ops(false);
    let penalty = 100.0 * (1.0 - with as f64 / without as f64);

    // REACT idle with all five banks connected for 100 s.
    let mut react = ReactBuffer::paper_prototype();
    react.set_llb_voltage(Volts::new(3.0));
    for i in 0..5 {
        react.force_bank_state(i, Volts::new(3.0), BankMode::Parallel);
    }
    for _ in 0..100_000 {
        react.step(Watts::ZERO, Amps::ZERO, Seconds::from_milli(1.0), false);
    }
    let hw_uw = react.ledger().overhead_consumed.to_micro() / 100.0;

    s.put("ops_software_on", with as f64);
    s.put("ops_software_off", without as f64);
    s.put_paper("software_penalty_percent", penalty, Some(1.8));
    s.put_paper("hardware_uW", hw_uw, Some(68.0));
    s.text = format!(
        "== §5.1 overhead characterization ==\n\
         DE ops in 5 min, software poller on : {with}\n\
         DE ops in 5 min, software poller off: {without}\n\
         software overhead: {penalty:.1}% (paper: 1.8% at 10 Hz)\n\
         hardware quiescent draw, 5 banks connected: {hw_uw:.1} µW \
         (paper: ≈68 µW, ~13.6 µW/bank)\n"
    );
    s
}

/// Fraction of stored energy `from` → `to` dissipates on an `n`-cap
/// fully-connected network of 2 mF units, each at 1 V.
fn network_loss(n: usize, from: Partition, to: Vec<usize>) -> f64 {
    let unit = CapacitorSpec::new(Farads::from_milli(2.0)).with_max_voltage(Volts::new(1e9));
    let mut net = ChainNetwork::new(unit, n, from);
    net.set_all_voltages(Volts::new(1.0));
    let before = net.stored_energy();
    let out = net.reconfigure(Partition::new(to).expect("valid partition"));
    out.dissipated.get() / before.get()
}

/// §3.3.1 / Fig. 5: dissipative reconfiguration of fully-connected
/// networks (the paper's two examples and Morphy's ladder) against
/// REACT's lossless bank switching.
pub fn switching_loss() -> Section {
    let mut s = Section::new("switching_loss");
    let mut table = TextTable::new(
        "§3.3.1: reconfiguration loss, fully-connected network",
        &["Transition", "Loss", "Paper"],
    );
    for (transition, loss, paper) in [
        (
            "4-series -> 3-series||1",
            network_loss(4, Partition::all_series(4), vec![3, 1]),
            25.0,
        ),
        (
            "8-parallel -> 7-series||1",
            network_loss(8, Partition::all_parallel(8), vec![7, 1]),
            56.25,
        ),
    ] {
        s.put_paper(transition, 100.0 * loss, Some(paper));
        table.push_row(&[
            transition.into(),
            format!("{:.2}%", 100.0 * loss),
            format!("{paper}%"),
        ]);
    }

    // Morphy's ladder, each configuration charged to a 3.5 V terminal.
    let ladder = MorphyBuffer::standard_ladder();
    let unit = CapacitorSpec::new(Farads::from_milli(2.0)).with_max_voltage(Volts::new(1e9));
    for w in ladder.windows(2) {
        let mut net = ChainNetwork::new(unit, 8, w[0].clone());
        let longest = w[0].chains().iter().map(|&l| l as f64).fold(0.0, f64::max);
        net.set_all_voltages(Volts::new(3.5 / longest));
        let before = net.stored_energy();
        let mut lost = 0.0;
        for step in morphy_transition_path(w[0].chains(), w[1].chains()) {
            lost += net.reconfigure(step).dissipated.get();
        }
        let transition = format!("{:?} -> {:?}", w[0].chains(), w[1].chains());
        let percent = 100.0 * lost / before.get();
        s.put(&transition, percent);
        table.push_row(&[transition, format!("{percent:.1}%"), "-".into()]);
    }

    let mut bank = SeriesParallelBank::new(BankSpec::new(CapacitorSpec::ceramic_220uf(), 3));
    bank.set_unit_voltage(Volts::new(1.9));
    bank.reconfigure(BankMode::Parallel);
    let e0 = bank.stored_energy();
    bank.reconfigure(BankMode::Series);
    let percent = 100.0 * (e0.get() - bank.stored_energy().get()).abs() / e0.get();
    let transition = "REACT bank parallel -> series";
    s.put_paper(transition, percent, Some(0.0));
    table.push_row(&[transition.into(), format!("{percent:.2}%"), "0%".into()]);
    s.with_table(&table)
}

/// One row per matrix cell (workload × trace × buffer): the energy
/// ledger in mJ and the run's counters — the breakdown behind §5.5's
/// efficiency discussion.
fn ledgers(matrices: &[&ExperimentMatrix]) -> String {
    let mut csv = String::from(
        "workload,trace,buffer,ops,harvest_mJ,clip_mJ,leak_mJ,diode_mJ,switch_mJ,load_mJ,\
         ovrhd_mJ,fail,miss,on_time_s\n",
    );
    for matrix in matrices {
        for row in &matrix.rows {
            for cell in &row.cells {
                let m = &cell.outcome.metrics;
                let l = &m.ledger;
                let energies = [
                    l.harvested,
                    l.clipped,
                    l.leaked,
                    l.diode_loss,
                    l.switch_loss,
                    l.load_consumed,
                    l.overhead_consumed,
                ]
                .map(|e| format!("{:.1}", e.to_milli()));
                csv.push_str(&format!(
                    "{},{},{},{},{},{},{},{:.0}\n",
                    matrix.workload.label(),
                    row.trace.label(),
                    cell.buffer.label(),
                    m.ops_completed,
                    energies.join(","),
                    m.ops_failed,
                    m.events_missed,
                    m.on_time.get(),
                ));
            }
        }
    }
    csv
}

/// Builds every section, running each workload matrix once, and the
/// per-cell energy-ledger CSV (`PAPER_ledgers.csv`).
pub fn build() -> (Vec<Section>, String) {
    let [de, sc, rt, pf] = WorkloadKind::ALL.map(ExperimentMatrix::run);
    let matrices = [&de, &sc, &rt, &pf];
    let sections = vec![
        ops_table("table2a_de", &de),
        ops_table("table2b_sc", &sc),
        ops_table("table2c_rt", &rt),
        table3(),
        table4(&de),
        table5(&pf),
        fig7(&matrices),
        fig1(),
        fig6(),
        ablations(),
        overhead(),
        switching_loss(),
    ];
    (sections, ledgers(&matrices))
}

const PAPER_COMMENT: &str = "The paper's tables and figures as this repository computes them, \
     compared exactly (every run is seeded); `paper` is the paper's figure where the repo has one, \
     printed but not compared. Refresh with `report paper --write-baseline` after an intentional \
     outcome change.";

/// What `ci/paper-baseline.json` commits: every section's values.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PaperReport {
    /// What the document is and how to refresh it.
    pub comment: String,
    /// Every pinned value, in section order.
    pub values: Vec<PaperValue>,
}

impl PaperReport {
    /// The report over `sections`.
    pub fn new(sections: &[Section]) -> Self {
        PaperReport {
            comment: PAPER_COMMENT.into(),
            values: sections.iter().flat_map(|s| s.values.clone()).collect(),
        }
    }

    /// Values by key, and a violation per key that appears twice.
    fn index<'a>(&'a self, side: &str, violations: &mut Vec<String>) -> BTreeMap<&'a str, f64> {
        let mut map = BTreeMap::new();
        for v in &self.values {
            if map.insert(v.key.as_str(), v.value).is_some() {
                violations.push(format!("{}: duplicate key in the {side} report", v.key));
            }
        }
        map
    }
}

impl Gate for PaperReport {
    /// One value per line, so a refreshed baseline diffs line by line.
    fn to_baseline(&self) -> Result<String, String> {
        let rows = self
            .values
            .iter()
            .map(serde_json::to_string)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("serialize: {e}"))?;
        let comment =
            serde_json::to_string(&self.comment).map_err(|e| format!("serialize: {e}"))?;
        Ok(format!(
            "{{\"comment\":{comment},\"values\":[\n{}\n]}}\n",
            rows.join(",\n")
        ))
    }

    /// Exact: every key on both sides, every value bit-for-bit equal.
    fn compare(&self, baseline: &Self) -> Comparison {
        let mut violations = Vec::new();
        let current = self.index("current", &mut violations);
        let committed = baseline.index("baseline", &mut violations);
        let mut table = vec![format!(
            "{:<52} {:>12} {:>12}",
            "value (with a paper figure)", "repo", "paper"
        )];
        for v in &baseline.values {
            match current.get(v.key.as_str()) {
                None => violations.push(format!("{}: missing from the current report", v.key)),
                Some(&cur) if cur.to_bits() != v.value.to_bits() => {
                    violations.push(format!("{}: {cur} vs baseline {}", v.key, v.value))
                }
                Some(_) => {}
            }
        }
        for v in &self.values {
            if !committed.contains_key(v.key.as_str()) {
                violations.push(format!("{}: not in the baseline", v.key));
            }
            if let Some(paper) = v.paper {
                table.push(format!("{:<52} {:>12.3} {:>12.3}", v.key, v.value, paper));
            }
        }
        table.push(format!(
            "{} baseline values compared exactly",
            baseline.values.len()
        ));
        Comparison { table, violations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Simulator::new` charges REACT's poller overhead by buffer name:
    /// every ablated REACT configuration must keep the name, and no
    /// other design may take it.
    #[test]
    fn only_react_buffers_carry_the_software_overhead_name() {
        let react = BufferKind::React.label();
        for (variant, cfg, _) in react_ablations() {
            assert_eq!(ReactBuffer::new(cfg).name(), react, "{variant}");
        }
        for kind in [
            BufferKind::Static770uF,
            BufferKind::Static10mF,
            BufferKind::Static17mF,
            BufferKind::Morphy,
            BufferKind::Dewdrop,
            BufferKind::Capybara,
        ] {
            assert_ne!(kind.build().name(), react, "{}", kind.label());
        }
    }
}
