//! The measured runs: untraced for the end-to-end metrics, traced for
//! the per-layer split.

use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::ThreadId;
use std::time::Instant;

use rayon::prelude::*;
use react_buffers::defense::DefenseConfig;
use react_circuit::FaultCampaign;
use react_core::calib::DEFAULT_DT;
use react_core::fom::figure_of_merit;
use react_core::{
    run_fleet, run_shard, AuditConfig, FleetAggregate, FleetRunOptions, FleetSim, FleetSpec,
    KernelMode, NodeStats, RunOutcome, Scenario, Simulator,
};
use react_harvest::PowerReplay;
use react_units::Seconds;

use crate::stats::{median, percentile, tail_percentile, Digest};
use crate::timing::{
    calibrate, take_counters, Counter, Counters, Probe, TimedBuffer, TimedSource, TimedWorkload,
    TimerCost,
};
use crate::workloads::{fleet_spec, is_benign, Workload};

/// End-to-end metrics (untraced runs), name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("node_hours_per_s", "node-h/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), name and unit.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("env.segment.calls", "count"),
    ("env.segment.ns", "ns"),
    ("env.power_at.calls", "count"),
    ("env.power_at.ns", "ns"),
    ("buffers.step.calls", "count"),
    ("buffers.step.ns", "ns"),
    ("buffers.idle_advance.calls", "count"),
    ("buffers.idle_advance.ns", "ns"),
    ("buffers.idle_advance.useful", "share"),
    ("buffers.powered_advance.calls", "count"),
    ("buffers.powered_advance.ns", "ns"),
    ("buffers.powered_advance.useful", "share"),
    ("buffers.rail_voltage_for_usable.ns", "ns"),
    ("workloads.step.calls", "count"),
    ("workloads.step.ns", "ns"),
    ("workloads.next_wake.calls", "count"),
    ("workloads.next_wake.ns", "ns"),
    ("core.advance.calls", "count"),
    ("core.fine_steps", "count"),
    ("core.coarse_strides", "count"),
    ("core.self.ns", "ns"),
    ("core.ns_per_step", "ns"),
    ("scenario.build.ns", "ns"),
    ("fleet.shard_ms_p50", "ms"),
    ("fleet.shard_ms_max", "ms"),
    ("fleet.straggler_ratio", "ratio"),
    ("fleet.interleave_ratio", "ratio"),
    ("audit.checks", "count"),
    ("audit.trips", "count"),
    ("audit.twin_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Cells in each run's fixed-`dt` accuracy sample.
const ACCURACY_CELLS: usize = 4;

/// Largest relative energy-conservation residual an unfaulted cell may
/// end with. Week cells accumulate about 1e-6 of rounding at HEAD.
const CONSERVATION_TOL: f64 = 1e-5;

/// Passes every untraced run makes at least. A shared host's speed
/// drifts by tens of percent over seconds, so each cell counts at its
/// best pass, which needs at least two.
const MIN_PASSES: usize = 2;

/// Wall-clock spent repeating the set-up before each pass.
const SETUP_ROUND_S: f64 = 0.15;

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured region, seconds.
    pub seconds: f64,
    /// Traced (per-layer) instead of untraced (end-to-end) run.
    pub trace: bool,
}

/// What a run prints: metrics, counts for the result line, and notes.
#[derive(Debug, Default)]
pub struct Report {
    /// Cells (or fleet nodes) whose outputs were checked.
    pub attempted: u64,
    /// Checks that failed, one message each.
    pub failures: Vec<String>,
    /// Metrics in catalog order: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Lines printed before the result (digest, sample sizes).
    pub notes: Vec<String>,
    /// Traced runs: every cell as one span with its per-layer
    /// children, as a JSON document.
    pub spans: Option<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64) {
        let (_, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .copied()
            .expect("metric is in a catalog");
        self.metrics.push((name, value, unit));
    }

    fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// Runs one benchmark invocation.
pub fn run(opts: &Options) -> Report {
    let seed = opts.seed;
    match (opts.workload, opts.trace) {
        (Workload::FleetDay, false) => measure_fleet(|| fleet_spec(seed), seed, opts.seconds),
        (Workload::FleetDay, true) => trace_fleet(&fleet_spec(seed)),
        (w, false) => measure_cells(w.name(), || w.cells(seed), seed, opts.seconds),
        (w, true) => trace_cells(&w.cells(seed)),
    }
}

/// `scenario/buffer/s<salt>`, the report's cell id.
pub fn cell_id(s: &Scenario) -> String {
    format!("{}/{}/s{}", s.name, s.buffer.label(), s.seed_salt)
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs `f`, turning a panic into its message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_text)
}

/// The output checks every cell must pass.
fn check_cell(s: &Scenario, out: &Result<RunOutcome, String>) -> Option<String> {
    let m = match out {
        Ok(o) => &o.metrics,
        Err(msg) => return Some(format!("{}: panicked: {msg}", cell_id(s))),
    };
    // A drift fault makes the closed forms book stale component values
    // on purpose (that divergence is what the auditor exists to catch),
    // so only unfaulted cells must balance their ledger.
    let err = m.relative_conservation_error();
    if s.fault == FaultCampaign::None && (err.is_nan() || err > CONSERVATION_TOL) {
        return Some(format!("{}: conservation error {err:e}", cell_id(s)));
    }
    if is_benign(s) && m.guard_fallbacks > 0 {
        return Some(format!(
            "{}: {} guard fallbacks on a benign cell",
            cell_id(s),
            m.guard_fallbacks
        ));
    }
    None
}

/// Folds a cell's FoM, on-time, boots and engine steps into `d`.
fn digest_cell(d: &mut Digest, s: &Scenario, out: &Result<RunOutcome, String>) {
    match out {
        Ok(o) => {
            let m = &o.metrics;
            d.word(figure_of_merit(s.workload, m).to_bits());
            d.word(m.on_time.get().to_bits());
            d.word(m.boots);
            d.word(m.engine_steps);
        }
        Err(_) => d.word(u64::MAX),
    }
}

/// Folds a fleet aggregate's totals and histograms into `d`.
fn digest_aggregate(d: &mut Digest, agg: &FleetAggregate) {
    d.word(agg.nodes.to_bits());
    d.word(agg.total_ops.to_bits());
    for h in [&agg.fom, &agg.on_frac, &agg.outage_s, &agg.boots] {
        h.bins.iter().for_each(|&b| d.word(b));
        d.word(h.sum.to_bits());
    }
}

/// Host milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeats identical passes of the workload until `seconds` have gone
/// by (at least [`MIN_PASSES`]), with a round of repeated set-ups
/// before each pass. Returns each pass's result and the median set-up
/// time in seconds; each set-up is timed until what it built is ready
/// to step, and dropped outside the timing.
fn passes<T, B>(
    seconds: f64,
    mut setup: impl FnMut() -> B,
    mut pass: impl FnMut() -> T,
) -> (Vec<T>, f64) {
    let started = Instant::now();
    let mut out = Vec::new();
    let mut setups = Vec::new();
    while out.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let round = Instant::now();
        while setups.len() < 3 * (out.len() + 1) || round.elapsed().as_secs_f64() < SETUP_ROUND_S {
            let t = Instant::now();
            let built = black_box(setup());
            setups.push(t.elapsed().as_secs_f64());
            drop(built);
        }
        out.push(pass());
    }
    (out, median(&mut setups))
}

/// Steps the fixed-`dt` reference would take: the cells' cost proxy.
fn fixed_dt_steps(s: &Scenario) -> u64 {
    (s.horizon.get() / s.dt.get()).round() as u64
}

/// Runs one cell through the public entry point, timed.
fn run_cell(s: &Scenario) -> (f64, Result<RunOutcome, String>) {
    let t = Instant::now();
    let out = guarded(|| s.run());
    (ms_since(t), out)
}

/// The untraced run of a matrix workload: `expand` builds its cells,
/// which run in identical passes for about `seconds`.
pub fn measure_cells(
    name: &str,
    expand: impl Fn() -> Vec<Scenario>,
    seed: u64,
    seconds: f64,
) -> Report {
    let mut report = Report::default();
    let mut cells = expand();
    // Longest first, so that with several workers the batch's last
    // cells are short and the workers finish together.
    cells.sort_by_key(|s| std::cmp::Reverse(fixed_dt_steps(s)));
    let node_hours: f64 = cells.iter().map(|s| s.horizon.get() / 3600.0).sum();

    // Set-up: expand the cells and build every cell's engine.
    let setup = || {
        expand()
            .iter()
            .map(|s| s.simulator().try_into_core())
            .collect::<Vec<_>>()
    };
    let (runs, setup_s) = passes(seconds, setup, || {
        cells.par_iter().map(run_cell).collect::<Vec<_>>()
    });
    let mut digests = Vec::new();
    for results in &runs {
        let mut d = Digest::default();
        for (s, (_, out)) in cells.iter().zip(results) {
            report.attempted += 1;
            digest_cell(&mut d, s, out);
            if let Some(f) = check_cell(s, out) {
                report.fail(f);
            }
        }
        digests.push(d);
    }
    check_passes_agree(&mut report, &digests);
    accuracy(&mut report, &cells, seed);

    // Every pass repeats identical work, so a cell's best pass is its
    // time with the least interference from the rest of the host.
    let mut best_ms: Vec<f64> = (0..cells.len())
        .map(|i| runs.iter().map(|r| r[i].0).fold(f64::INFINITY, f64::min))
        .collect();
    let workers = rayon::current_num_threads().min(cells.len()) as f64;
    let busy_s = best_ms.iter().sum::<f64>() / 1e3 / workers;
    let steps: u64 = runs[0]
        .iter()
        .filter_map(|(_, out)| out.as_ref().ok())
        .map(|o| o.metrics.engine_steps)
        .sum();
    let tail = tail_percentile(cells.len()).unwrap_or(50.0);
    report.notes.push(format!(
        "{name}: {} cells ({steps} engine steps) x {} passes on {workers} workers; \
         cells count at their best pass: p50 and tail p{tail} of N={}",
        cells.len(),
        runs.len(),
        cells.len()
    ));
    report
        .notes
        .push(format!("digest {name} {}", digests[0].hex()));
    report.metric("node_hours_per_s", node_hours / busy_s);
    report.metric("cell_ms_p50", median(&mut best_ms));
    report.metric("cell_ms_tail", percentile(&mut best_ms, tail));
    report.metric("setup_s", setup_s);
    report.metric("peak_rss_mb", peak_rss_mb());
    report
}

/// The untraced run of the fleet workload: `build` makes the spec
/// (with its calibration pilot), and `run_fleet` runs it in identical
/// passes for about `seconds`.
pub fn measure_fleet(build: impl Fn() -> FleetSpec, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let spec = build();
    let fleet_opts = FleetRunOptions {
        parallel: true,
        ..FleetRunOptions::default()
    };
    // Set-up: the spec with its calibration pilot, and the first
    // shard's engines, which `run_fleet` builds before any node steps.
    let setup = || {
        let spec = build();
        let (start, end) = spec.shard_range(0);
        FleetSim::from_spec_range(&spec, start, end).map(|shard| shard.live_cells())
    };
    let (runs, setup_s) = passes(seconds, setup, || {
        let t = Instant::now();
        let result = run_fleet(&spec, &fleet_opts);
        (ms_since(t), result)
    });

    let mut digests = Vec::new();
    for (_, result) in &runs {
        report.attempted += spec.nodes as u64;
        let mut d = Digest::default();
        match result {
            Ok(r) => {
                check_aggregate(&mut report, spec.nodes, &r.aggregate);
                digest_aggregate(&mut d, &r.aggregate);
            }
            Err(e) => {
                report.fail(format!("run_fleet: {e}"));
                d.word(u64::MAX);
            }
        }
        digests.push(d);
    }
    check_passes_agree(&mut report, &digests);
    let nodes: Vec<Scenario> = (0..spec.nodes).map(|i| spec.node_scenario(i)).collect();
    accuracy(&mut report, &nodes, seed);

    // `run_fleet` interleaves its nodes, so no node has a time of its
    // own: a node's time is the best pass's busy time per node.
    let best_ms = runs.iter().map(|(ms, _)| *ms).fold(f64::INFINITY, f64::min);
    let workers = rayon::current_num_threads().min(spec.shard_count()) as f64;
    let node_ms = best_ms * workers / spec.nodes as f64;
    let node_hours = spec.nodes as f64 * spec.base.horizon.get() / 3600.0;
    report.notes.push(format!(
        "fleet: {} nodes x {} passes on {workers} workers; \
         cell_ms is the best pass's busy time per node (N={})",
        spec.nodes,
        runs.len(),
        spec.nodes
    ));
    report
        .notes
        .push(format!("digest fleet {}", digests[0].hex()));
    report.metric("node_hours_per_s", node_hours / (best_ms / 1e3));
    report.metric("cell_ms_p50", node_ms);
    report.metric("cell_ms_tail", node_ms);
    report.metric("setup_s", setup_s);
    report.metric("peak_rss_mb", peak_rss_mb());
    report
}

/// A fleet aggregate must hold every requested node, none poisoned or
/// timed out.
fn check_aggregate(report: &mut Report, nodes: usize, agg: &FleetAggregate) {
    for p in &agg.poisoned {
        report.fail(format!("fleet node {} poisoned: {}", p.node, p.message));
    }
    for t in &agg.timed_out {
        report.fail(format!(
            "fleet node {} timed out after {} steps",
            t.node, t.engine_steps
        ));
    }
    if agg.nodes != nodes as f64 {
        report.fail(format!("fleet holds {} of {nodes} nodes", agg.nodes));
    }
}

/// Every pass runs identical inputs, so every pass must produce the
/// same outputs.
fn check_passes_agree(report: &mut Report, digests: &[Digest]) {
    if digests.iter().any(|d| *d != digests[0]) {
        report.fail("passes over identical inputs produced different outputs".to_string());
    }
}

/// splitmix64: the sample picker's generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded accuracy sample: benign cells of the workload, horizons
/// capped, in a fixed order.
pub fn accuracy_sample(population: &[Scenario], seed: u64) -> Vec<Scenario> {
    let mut pool: Vec<Scenario> = population
        .iter()
        .filter(|s| is_benign(s))
        .copied()
        .collect();
    let mut state = seed ^ 0xACC0_0A11_5EED_0001;
    let picks = ACCURACY_CELLS.min(pool.len());
    for i in 0..picks {
        let j = i + (splitmix(&mut state) % (pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(picks);
    for s in &mut pool {
        // Fixed-dt cost is horizon / dt steps: 1 ms cells get ten
        // minutes, 10 ms cells 100 minutes, which keeps the sample
        // under a tenth of a run.
        let cap = Seconds::new(s.dt.get() * 600_000.0);
        s.horizon = s.horizon.min(cap);
    }
    pool
}

fn rel_close(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()) + abs
}

/// Runs the accuracy sample under both kernels, outside the timed
/// region, and prints the FoM error Σ|ops_adaptive − ops_fixed| ÷
/// Σ ops_fixed. A 1 ms cell outside the kernel-equivalence tolerances
/// fails; coarser cells outside them are printed.
fn accuracy(report: &mut Report, population: &[Scenario], seed: u64) {
    let sample = accuracy_sample(population, seed);
    let pairs: Vec<_> = sample
        .par_iter()
        .map(|s| {
            (
                guarded(|| s.run()),
                guarded(|| s.run_with_kernel(KernelMode::FixedDt)),
            )
        })
        .collect();
    let (mut abs_err, mut fixed_ops) = (0.0, 0.0);
    let mut outside = Vec::new();
    for (s, pair) in sample.iter().zip(&pairs) {
        report.attempted += 1;
        let (a, r) = match pair {
            (Ok(a), Ok(r)) => (&a.metrics, &r.metrics),
            (Err(e), _) | (_, Err(e)) => {
                report.fail(format!("{} (accuracy sample): panicked: {e}", cell_id(s)));
                continue;
            }
        };
        abs_err += (a.ops_completed as f64 - r.ops_completed as f64).abs();
        fixed_ops += r.ops_completed as f64;
        let boots_ok = a.boots.abs_diff(r.boots) <= 2.max(r.boots / 50);
        if rel_close(a.ops_completed as f64, r.ops_completed as f64, 0.02, 2.0)
            && boots_ok
            && rel_close(a.on_time.get(), r.on_time.get(), 0.02, 0.05)
        {
            continue;
        }
        let msg = format!(
            "{} (accuracy sample, {} s): adaptive vs fixed-dt ops {}/{} boots {}/{} on-time {}/{}",
            cell_id(s),
            s.horizon.get(),
            a.ops_completed,
            r.ops_completed,
            a.boots,
            r.boots,
            a.on_time.get(),
            r.on_time.get()
        );
        // The equivalence suite asserts these tolerances at the
        // reference step only; coarser steps are reported, not failed.
        if s.dt == DEFAULT_DT {
            report.fail(msg);
        } else {
            outside.push(msg);
        }
    }
    let err = if fixed_ops > 0.0 {
        abs_err / fixed_ops
    } else {
        0.0
    };
    report.notes.push(format!(
        "fom_err_vs_fixed_dt {err} over {} cells ({} fixed-dt ops)",
        sample.len(),
        fixed_ops
    ));
    for msg in outside {
        report
            .notes
            .push(format!("outside tolerance at a coarse step: {msg}"));
    }
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

/// `Scenario::simulator`'s recipe with the three boxed layers wrapped
/// in timing types.
pub fn traced_simulator(s: &Scenario) -> Simulator<TimedBuffer, TimedWorkload, TimedSource> {
    let replay = PowerReplay::from_source(TimedSource(s.source()), s.converter.build());
    let workload = TimedWorkload(s.workload.build_streaming(s.horizon, s.workload_seed()));
    let mut sim = Simulator::new(replay, TimedBuffer(s.buffer.build()), workload)
        .with_timestep(s.dt)
        .with_horizon(s.horizon)
        .with_gate(s.gate());
    if s.env.adversarial() {
        sim = sim.with_feedback();
    }
    if s.defended {
        sim = sim.with_defense(DefenseConfig::default());
    }
    if s.fault != FaultCampaign::None {
        sim = sim.with_faults(s.fault.plan(s.fault_seed(), s.horizon));
    }
    if s.audited {
        sim = sim.with_auditor(AuditConfig::default());
    }
    sim
}

/// Runs a traced cell: the outcome and the layer counters.
pub fn run_traced(s: &Scenario) -> (Result<RunOutcome, String>, Counters) {
    take_counters();
    let out = guarded(|| {
        let mut core = traced_simulator(s)
            .try_into_core()
            .unwrap_or_else(|e| panic!("{e}"));
        while core.advance() {}
        core.finish()
    });
    (out, take_counters())
}

/// Whether two outcomes agree bit for bit on ops, engine steps and
/// final stored energy.
pub fn bit_identical(a: &RunOutcome, b: &RunOutcome) -> bool {
    a.metrics.ops_completed == b.metrics.ops_completed
        && a.metrics.engine_steps == b.metrics.engine_steps
        && a.metrics.final_stored.get().to_bits() == b.metrics.final_stored.get().to_bits()
}

/// One cell run untraced (construction timed apart) and traced.
struct TracedCell {
    id: String,
    build_ns: f64,
    plain_ns: f64,
    traced_ns: f64,
    counters: Counters,
    plain: Result<RunOutcome, String>,
    traced: Result<RunOutcome, String>,
    worker: ThreadId,
}

fn trace_cell(s: &Scenario) -> TracedCell {
    let t = Instant::now();
    let mut build_ns = 0.0;
    let plain = guarded(|| {
        let mut core = s
            .simulator()
            .try_into_core()
            .unwrap_or_else(|e| panic!("{e}"));
        build_ns = t.elapsed().as_nanos() as f64;
        while core.advance() {}
        core.finish()
    });
    let plain_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let (traced, counters) = run_traced(s);
    TracedCell {
        id: cell_id(s),
        build_ns,
        plain_ns,
        traced_ns: t.elapsed().as_nanos() as f64,
        counters,
        plain,
        traced,
        worker: std::thread::current().id(),
    }
}

/// A layer's time with the timer's own cost taken out.
fn layer_ns(c: &Counter, cost: &TimerCost) -> f64 {
    (c.ns as f64 - c.calls as f64 * cost.inside_ns).max(0.0)
}

/// A traced cell's kernel self time: its wall time minus its layers'
/// time and the timer cost outside the layers' clock reads.
fn core_self_ns(wall_ns: f64, counters: &Counters, cost: &TimerCost) -> f64 {
    let raw: f64 = counters.iter().map(|c| c.ns as f64).sum();
    let calls: f64 = counters.iter().map(|c| c.calls as f64).sum();
    (wall_ns - raw - calls * (cost.per_call_ns - cost.inside_ns)).max(0.0)
}

/// Checks a traced cell against its untraced twin and folds it into
/// the report's failures.
fn check_traced(report: &mut Report, s: &Scenario, cell: &TracedCell) {
    report.attempted += 1;
    if let Some(f) = check_cell(s, &cell.plain) {
        report.fail(f);
        return;
    }
    match (&cell.plain, &cell.traced) {
        (Ok(a), Ok(b)) if bit_identical(a, b) => {}
        (_, Err(e)) => report.fail(format!("{} traced: panicked: {e}", cell.id)),
        _ => report.fail(format!("{}: traced run differs from untraced", cell.id)),
    }
}

/// The per-layer metrics common to every workload.
fn layer_metrics(report: &mut Report, cells: &[TracedCell], cost: &TimerCost) {
    let mut total = Counters::default();
    for cell in cells {
        for (sum, c) in total.iter_mut().zip(&cell.counters) {
            sum.add(c);
        }
    }
    let get = |p: Probe| total[p as usize];
    let share = |c: Counter| {
        if c.calls == 0 {
            0.0
        } else {
            c.useful as f64 / c.calls as f64
        }
    };
    let steps: u64 = cells
        .iter()
        .filter_map(|c| c.traced.as_ref().ok())
        .map(|o| o.metrics.engine_steps)
        .sum();
    let coarse = get(Probe::IdleAdvance).useful + get(Probe::PoweredAdvance).useful;
    let self_ns: f64 = cells
        .iter()
        .map(|c| core_self_ns(c.traced_ns, &c.counters, cost))
        .sum();
    let audit = |f: fn(&RunOutcome) -> u64| -> f64 {
        cells
            .iter()
            .filter_map(|c| c.plain.as_ref().ok())
            .map(f)
            .sum::<u64>() as f64
    };

    for (probe, calls, ns) in [
        (Probe::Segment, "env.segment.calls", "env.segment.ns"),
        (Probe::PowerAt, "env.power_at.calls", "env.power_at.ns"),
        (Probe::BufferStep, "buffers.step.calls", "buffers.step.ns"),
        (
            Probe::IdleAdvance,
            "buffers.idle_advance.calls",
            "buffers.idle_advance.ns",
        ),
        (
            Probe::PoweredAdvance,
            "buffers.powered_advance.calls",
            "buffers.powered_advance.ns",
        ),
        (
            Probe::WorkloadStep,
            "workloads.step.calls",
            "workloads.step.ns",
        ),
        (
            Probe::NextWake,
            "workloads.next_wake.calls",
            "workloads.next_wake.ns",
        ),
    ] {
        report.metric(calls, get(probe).calls as f64);
        report.metric(ns, layer_ns(&get(probe), cost));
    }
    report.metric(
        "buffers.idle_advance.useful",
        share(get(Probe::IdleAdvance)),
    );
    report.metric(
        "buffers.powered_advance.useful",
        share(get(Probe::PoweredAdvance)),
    );
    report.metric(
        "buffers.rail_voltage_for_usable.ns",
        layer_ns(&get(Probe::RailForUsable), cost),
    );
    report.metric("core.advance.calls", steps as f64);
    report.metric("core.fine_steps", steps.saturating_sub(coarse) as f64);
    report.metric("core.coarse_strides", coarse as f64);
    report.metric("core.self.ns", self_ns);
    report.metric(
        "core.ns_per_step",
        if steps == 0 {
            0.0
        } else {
            self_ns / steps as f64
        },
    );
    report.metric("scenario.build.ns", cells.iter().map(|c| c.build_ns).sum());
    report.metric("audit.checks", audit(|o| o.metrics.audit_checks));
    report.metric("audit.trips", audit(|o| o.metrics.audit_trips));
    let traced: f64 = cells.iter().map(|c| c.traced_ns).sum();
    let plain: f64 = cells.iter().map(|c| c.plain_ns).sum();
    report.metric("trace.overhead_ratio", traced / plain);

    let wall = traced / 100.0;
    let mut split: Vec<String> = Probe::ALL
        .iter()
        .map(|&p| format!("{} {:.1}%", p.name(), layer_ns(&get(p), cost) / wall))
        .collect();
    split.push(format!("core.self {:.1}%", self_ns / wall));
    let calls: u64 = total.iter().map(|c| c.calls).sum();
    split.push(format!(
        "timer {:.1}%",
        calls as f64 * cost.per_call_ns / wall
    ));
    report.notes.push(format!(
        "split of traced wall: {} (timer {:.1}/{:.1} ns per call)",
        split.join(", "),
        cost.inside_ns,
        cost.per_call_ns
    ));
}

/// Shard-time metrics from per-shard milliseconds.
fn shard_metrics(report: &mut Report, shard_ms: &mut [f64]) {
    let p50 = median(shard_ms);
    let max = shard_ms.iter().copied().fold(0.0, f64::max);
    report.metric("fleet.shard_ms_p50", p50);
    report.metric("fleet.shard_ms_max", max);
    report.metric(
        "fleet.straggler_ratio",
        if p50 > 0.0 { max / p50 } else { 0.0 },
    );
}

/// The traced run of a matrix workload: every cell untraced, then
/// traced, checked bit for bit and split by layer.
pub fn trace_cells(cells: &[Scenario]) -> Report {
    let mut report = Report::default();
    let cost = calibrate();
    let mut cells = cells.to_vec();
    cells.sort_by_key(|s| std::cmp::Reverse(fixed_dt_steps(s)));
    let traced: Vec<TracedCell> = cells.par_iter().map(trace_cell).collect();
    for (s, cell) in cells.iter().zip(&traced) {
        check_traced(&mut report, s, cell);
    }
    layer_metrics(&mut report, &traced, &cost);

    // Without a fleet, each worker thread's share of the batch plays
    // the shard: the batch ends when the slowest worker does.
    let mut busy: HashMap<ThreadId, f64> = HashMap::new();
    for cell in &traced {
        *busy.entry(cell.worker).or_default() += cell.plain_ns / 1e6;
    }
    let mut shard_ms: Vec<f64> = busy.into_values().collect();
    shard_metrics(&mut report, &mut shard_ms);
    report.metric("fleet.interleave_ratio", 0.0);

    // Audited cells against their unaudited twins (same campaign and
    // salt), untraced wall time.
    let plain_ns: HashMap<String, f64> =
        traced.iter().map(|c| (c.id.clone(), c.plain_ns)).collect();
    let (mut audited, mut twins) = (0.0, 0.0);
    for s in cells.iter().filter(|s| s.audited) {
        let twin = s.name.trim_end_matches("-audited");
        let twin_id = cell_id(&Scenario { name: twin, ..*s });
        if let Some(t) = plain_ns.get(&twin_id) {
            audited += plain_ns[&cell_id(s)];
            twins += t;
        }
    }
    report.metric(
        "audit.twin_ratio",
        if twins > 0.0 { audited / twins } else { 0.0 },
    );

    report.spans = Some(spans_json(&traced, &cost));
    order_per_layer(&mut report);
    report
}

/// The traced run of a fleet: its shards through `run_shard`, then its
/// nodes as scalar cells untraced and traced.
pub fn trace_fleet(spec: &FleetSpec) -> Report {
    let mut report = Report::default();
    let cost = calibrate();
    let spec = *spec;

    // Shards through the public fleet entry point, untraced.
    let shards: Vec<usize> = (0..spec.shard_count()).collect();
    let shard_runs: Vec<(f64, Result<FleetAggregate, String>)> = shards
        .par_iter()
        .map(|&k| {
            let t = Instant::now();
            let agg = run_shard(&spec, k);
            (ms_since(t), agg)
        })
        .collect();

    // The same nodes as scalar cells, untraced and traced.
    let nodes: Vec<Scenario> = (0..spec.nodes).map(|i| spec.node_scenario(i)).collect();
    let traced: Vec<TracedCell> = nodes.par_iter().map(trace_cell).collect();
    for (s, cell) in nodes.iter().zip(&traced) {
        check_traced(&mut report, s, cell);
    }

    // Each shard's aggregate must equal its nodes' scalar outcomes
    // folded in node order.
    for (k, (_, agg)) in shard_runs.iter().enumerate() {
        let agg = match agg {
            Ok(agg) => agg,
            Err(e) => {
                report.fail(format!("shard {k}: {e}"));
                continue;
            }
        };
        let (start, end) = spec.shard_range(k);
        check_aggregate(&mut report, end - start, agg);
        let mut scalar = FleetAggregate::new(spec.bins);
        for i in start..end {
            if let Ok(o) = &traced[i].plain {
                scalar.record(&NodeStats::from_metrics(&nodes[i], &o.metrics));
            }
        }
        if scalar != *agg {
            report.fail(format!(
                "shard {k}: aggregate differs from its scalar nodes"
            ));
        }
    }

    layer_metrics(&mut report, &traced, &cost);
    let mut shard_ms: Vec<f64> = shard_runs.iter().map(|(ms, _)| *ms).collect();
    let shard_total: f64 = shard_ms.iter().sum();
    shard_metrics(&mut report, &mut shard_ms);
    let scalar_ms: f64 = traced.iter().map(|c| c.plain_ns / 1e6).sum();
    report.metric("fleet.interleave_ratio", shard_total / scalar_ms);
    report.metric("audit.twin_ratio", 0.0);

    report.spans = Some(spans_json(&traced, &cost));
    order_per_layer(&mut report);
    report
}

/// Puts the per-layer metrics in catalog order.
fn order_per_layer(report: &mut Report) {
    report
        .metrics
        .sort_by_key(|(name, _, _)| PER_LAYER.iter().position(|(n, _)| n == name));
}

/// Every traced cell as one span with its per-layer children (calls,
/// time, self time), timer cost already taken out.
fn spans_json(cells: &[TracedCell], cost: &TimerCost) -> String {
    let spans: Vec<String> = cells
        .iter()
        .map(|cell| {
            let mut children: Vec<String> = Probe::ALL
                .iter()
                .map(|&p| {
                    let c = &cell.counters[p as usize];
                    let ns = layer_ns(c, cost);
                    format!(
                        "{{\"layer\": \"{}\", \"calls\": {}, \"ns\": {ns}, \"self_ns\": {ns}}}",
                        p.name(),
                        c.calls
                    )
                })
                .collect();
            let core = core_self_ns(cell.traced_ns, &cell.counters, cost);
            children.push(format!(
                "{{\"layer\": \"core\", \"calls\": 1, \"ns\": {core}, \"self_ns\": {core}}}"
            ));
            format!(
                "{{\"cell\": \"{}\", \"wall_ns\": {}, \"children\": [{}]}}",
                cell.id,
                cell.traced_ns,
                children.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"timer_inside_ns\": {}, \"timer_per_call_ns\": {}, \"spans\": [\n{}\n]}}\n",
        cost.inside_ns,
        cost.per_call_ns,
        spans.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_sample_is_seeded_benign_and_capped() {
        let cells = Workload::FineBurst.cells(3);
        let a = accuracy_sample(&cells, 3);
        let b = accuracy_sample(&cells, 3);
        assert_eq!(a.len(), ACCURACY_CELLS);
        assert_eq!(
            a.iter().map(cell_id).collect::<Vec<_>>(),
            b.iter().map(cell_id).collect::<Vec<_>>()
        );
        for s in &a {
            assert!(is_benign(s));
            assert!(s.horizon.get() <= s.dt.get() * 600_000.0 + 1e-9);
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.5);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
