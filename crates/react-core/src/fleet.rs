//! Fleet-scale simulation: one run, 100k+ devices.
//!
//! The scalar engine answers "how does *one* node behave under this
//! scenario?". Deployment questions are fleet questions: what is the
//! p5 figure of merit across 100 000 co-deployed tags whose harvests
//! are *almost* — but not exactly — the same? This module answers them
//! without giving up the scalar engine's semantics:
//!
//! * [`FleetSpec`] — a base [`Scenario`] fanned out to `nodes` cells,
//!   each re-salted with [`node_salt`] (splitmix64 over the fleet seed
//!   and node index) so every node sees statistically independent
//!   environment and workload streams from one committed seed.
//! * [`FleetSim`] — one shard, run as a loop in node order: build a
//!   node's cell, step it to completion under its watchdog budget,
//!   fold its stats, move on. Each cell runs exactly as
//!   [`Scenario::run`] would, so fleet aggregates are *bit-comparable*
//!   to N independent scalar runs — the property the tier-1 tests pin
//!   down.
//! * [`FleetAggregate`] / [`Histogram`] — streaming reduction. Memory
//!   is O(workers + histogram bins), never O(nodes): each worker holds
//!   one engine at a time, so a 100k-node week costs the same RAM as a
//!   1k-node week.
//! * [`run_fleet`] — the sharded runner: one ordered fold over the
//!   shards, run serially or rayon-parallel and merged in shard-index
//!   order, so the aggregate is the same bits either way.
//!
//! [`node_salt`]: react_env::node_salt

use rayon::prelude::*;
use react_env::node_salt;
use react_telemetry::{NullRecorder, Recorder, StepAttribution};
use react_units::Seconds;
use serde::{Deserialize, Serialize};

use crate::fom::figure_of_merit;
use crate::scenario::Scenario;
use crate::sim::SimError;
use crate::RunMetrics;

/// Default cells per shard: large enough to amortize per-shard
/// overhead, small enough that the shards of a 10k-node fleet keep
/// every worker busy.
pub const DEFAULT_SHARD_SIZE: usize = 1024;

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Fixed-bin streaming histogram.
///
/// Binning is fixed at construction (not adaptive) so histograms built
/// by different shards — possibly on different machines — merge
/// exactly. Values outside `[lo, lo + bins·width)` land in dedicated
/// underflow/overflow counters rather than silently clamping the
/// distribution.
///
/// Serialization note: `min`/`max` hold `0.0` (not ±inf) while
/// `count == 0` because the JSON layer cannot round-trip non-finite
/// floats; [`Histogram::merge`] and [`Histogram::record`] maintain the
/// convention.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Lower edge of bin 0.
    pub lo: f64,
    /// Width of every bin.
    pub width: f64,
    /// Per-bin counts.
    pub bins: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above the last bin edge.
    pub overflow: u64,
    /// Total samples recorded (including under/overflow).
    pub count: u64,
    /// Sum of all samples (for the mean).
    pub sum: f64,
    /// Smallest sample seen (`0.0` while empty).
    pub min: f64,
    /// Largest sample seen (`0.0` while empty).
    pub max: f64,
}

impl Histogram {
    /// A histogram covering `[lo, hi)` with `bins` equal bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && hi > lo, "degenerate histogram range");
        Histogram {
            lo,
            width: (hi - lo) / bins as f64,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        self.count += 1;
        self.sum += v;
        if v < self.lo {
            self.underflow += 1;
        } else {
            let idx = ((v - self.lo) / self.width) as usize;
            if idx >= self.bins.len() {
                self.overflow += 1;
            } else {
                self.bins[idx] += 1;
            }
        }
    }

    /// Merges another histogram with identical binning into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.bins.len() == other.bins.len() && self.lo == other.lo && self.width == other.width,
            "merging histograms with mismatched binning"
        );
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        for (b, o) in self.bins.iter_mut().zip(other.bins.iter()) {
            *b += o;
        }
    }

    /// Mean of all recorded samples (`0.0` while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile `q ∈ [0, 1]` from bin midpoints, clamped
    /// to the exact observed `[min, max]`. Underflow mass reports
    /// `min`, overflow mass reports `max`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = self.underflow;
        if cum >= target {
            return self.min;
        }
        for (i, &b) in self.bins.iter().enumerate() {
            cum += b;
            if cum >= target {
                let mid = self.lo + (i as f64 + 0.5) * self.width;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// Per-node stats and the streaming aggregate
// ---------------------------------------------------------------------------

/// The per-node scalars the fleet reduction keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStats {
    /// Workload figure of merit ([`figure_of_merit`]).
    pub fom: f64,
    /// Fraction of the run spent powered on.
    pub on_frac: f64,
    /// Longest continuous off period, seconds.
    pub outage_s: f64,
    /// Boot count.
    pub boots: f64,
    /// Operations completed.
    pub ops: f64,
    /// Hardware-drift fault events injected (0 for benign fleets).
    pub faults: f64,
    /// Invariant-auditor trips that degraded a fast path.
    pub trips: f64,
}

impl NodeStats {
    /// Extracts the fleet-relevant scalars from one finished run.
    pub fn from_metrics(scenario: &Scenario, m: &RunMetrics) -> Self {
        NodeStats {
            fom: figure_of_merit(scenario.workload, m),
            on_frac: m.duty_cycle(),
            outage_s: m.max_off_period.get(),
            boots: m.boots as f64,
            ops: m.ops_completed as f64,
            faults: m.faults_injected as f64,
            trips: m.audit_trips as f64,
        }
    }
}

/// A fleet cell whose build or run panicked. The shard loop catches
/// the unwind, records the node here, and moves on to the next node —
/// one diverging cell never takes down its 1023 neighbours.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoisonedNode {
    /// Fleet node index.
    pub node: f64,
    /// The panic payload, when it was a string (it almost always is).
    pub message: String,
}

/// A fleet cell that exceeded its engine-step watchdog budget — a
/// cell that never ends (say, a model that stops advancing the clock)
/// becomes a reported entry instead of a hung shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedOutNode {
    /// Fleet node index.
    pub node: f64,
    /// Engine steps spent when the watchdog fired.
    pub engine_steps: f64,
    /// Simulated time reached when the watchdog fired, seconds.
    pub sim_time_s: f64,
}

/// Histogram binning bounds for a fleet run. Fixed per-run so every
/// shard bins identically and merges are exact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetBins {
    /// FoM histogram upper edge (lower edge is 0).
    pub fom_cap: f64,
    /// Outage histogram upper edge, seconds (lower edge is 0).
    pub outage_cap_s: f64,
    /// Boot-count histogram upper edge (lower edge is 0).
    pub boots_cap: f64,
    /// Bin count shared by every histogram.
    pub bins: f64,
}

impl FleetBins {
    /// Bounds sized for the week-class scenario registry: FoM in ops
    /// (DE week ≈ 10⁵–10⁶), outages up to a full day, boots to 10⁴.
    pub fn default_for(horizon: Seconds) -> Self {
        FleetBins {
            fom_cap: 2.0e6,
            outage_cap_s: horizon.get().min(86_400.0),
            boots_cap: 1.0e4,
            bins: 512.0,
        }
    }

    /// Pilot-calibrated bounds: runs node 0 of the (seeded) fleet
    /// scalar and sizes each histogram to a few multiples of its
    /// stats, so the fleet's actual spread lands across many bins
    /// instead of collapsing into one. Deterministic for a given
    /// (scenario, seed) — the pilot is part of the fleet itself — and
    /// the resulting caps are covered by [`FleetSpec::fingerprint`],
    /// so a baseline can never silently compare across binnings.
    pub fn calibrated(base: &Scenario, fleet_seed: u64) -> Self {
        let pilot = base.with_seed_salt(node_salt(fleet_seed, 0));
        let out = pilot.run();
        let stats = NodeStats::from_metrics(&pilot, &out.metrics);
        FleetBins {
            fom_cap: (stats.fom * 4.0).max(16.0),
            outage_cap_s: (stats.outage_s * 4.0).clamp(60.0, base.horizon.get().max(60.0)),
            boots_cap: (stats.boots * 4.0).max(16.0),
            bins: 512.0,
        }
    }

    fn bin_count(&self) -> usize {
        (self.bins as usize).max(1)
    }
}

/// Streaming fleet-wide reduction: four fixed-bin histograms plus
/// exact totals. Memory is O(bins) regardless of fleet size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetAggregate {
    /// Nodes folded in so far.
    pub nodes: f64,
    /// Exact total operations across the fleet.
    pub total_ops: f64,
    /// Figure-of-merit distribution.
    pub fom: Histogram,
    /// On-time fraction distribution.
    pub on_frac: Histogram,
    /// Longest-outage distribution (seconds).
    pub outage_s: Histogram,
    /// Boot-count distribution.
    pub boots: Histogram,
    /// Exact total fault events injected across the fleet.
    #[serde(default)]
    pub total_faults: f64,
    /// Exact total auditor trips across the fleet.
    #[serde(default)]
    pub total_trips: f64,
    /// Per-node auditor-trip distribution (degradation histogram).
    /// Fixed binning `[0, 64)` × 64 so shards merge exactly; `None`
    /// only when deserialized from a pre-fault-era report.
    #[serde(default)]
    pub trips: Option<Histogram>,
    /// Nodes whose run panicked (isolated, not fatal to the shard).
    /// Empty for a healthy fleet; any entry fails the CI gate.
    #[serde(default)]
    pub poisoned: Vec<PoisonedNode>,
    /// Nodes that blew their engine-step watchdog budget. Empty for a
    /// healthy fleet; any entry fails the CI gate.
    #[serde(default)]
    pub timed_out: Vec<TimedOutNode>,
}

impl FleetAggregate {
    /// Fixed binning of the per-node auditor-trip histogram: a cell
    /// trips at most once per (regime × fault window), so 64 covers
    /// any realistic campaign while staying merge-exact everywhere.
    pub const TRIPS_BINS: (f64, f64, usize) = (0.0, 64.0, 64);

    /// An empty aggregate with the given binning.
    pub fn new(bins: FleetBins) -> Self {
        let n = bins.bin_count();
        let (tlo, thi, tn) = Self::TRIPS_BINS;
        FleetAggregate {
            nodes: 0.0,
            total_ops: 0.0,
            fom: Histogram::new(0.0, bins.fom_cap, n),
            on_frac: Histogram::new(0.0, 1.0, n),
            outage_s: Histogram::new(0.0, bins.outage_cap_s, n),
            boots: Histogram::new(0.0, bins.boots_cap, n),
            total_faults: 0.0,
            total_trips: 0.0,
            trips: Some(Histogram::new(tlo, thi, tn)),
            poisoned: Vec::new(),
            timed_out: Vec::new(),
        }
    }

    /// Folds one node's stats into the aggregate.
    pub fn record(&mut self, s: &NodeStats) {
        self.nodes += 1.0;
        self.total_ops += s.ops;
        self.fom.record(s.fom);
        self.on_frac.record(s.on_frac);
        self.outage_s.record(s.outage_s);
        self.boots.record(s.boots);
        self.total_faults += s.faults;
        self.total_trips += s.trips;
        if let Some(trips) = &mut self.trips {
            trips.record(s.trips);
        }
    }

    /// Merges a shard aggregate (identical binning) into this one.
    pub fn merge(&mut self, other: &FleetAggregate) {
        self.nodes += other.nodes;
        self.total_ops += other.total_ops;
        self.fom.merge(&other.fom);
        self.on_frac.merge(&other.on_frac);
        self.outage_s.merge(&other.outage_s);
        self.boots.merge(&other.boots);
        self.total_faults += other.total_faults;
        self.total_trips += other.total_trips;
        // A pre-fault-era side (trips = None) contributes nothing: it
        // could only have recorded zero trips.
        if let Some(theirs) = &other.trips {
            match &mut self.trips {
                Some(mine) => mine.merge(theirs),
                None => self.trips = Some(theirs.clone()),
            }
        }
        self.poisoned.extend(other.poisoned.iter().cloned());
        self.timed_out.extend(other.timed_out.iter().cloned());
    }

    /// Collapses the aggregate into the headline percentile summary.
    pub fn summary(&self) -> FleetSummary {
        FleetSummary {
            nodes: self.nodes,
            total_ops: self.total_ops,
            fom_mean: self.fom.mean(),
            fom_p5: self.fom.quantile(0.05),
            fom_p50: self.fom.quantile(0.50),
            fom_p95: self.fom.quantile(0.95),
            fom_p99: self.fom.quantile(0.99),
            on_frac_mean: self.on_frac.mean(),
            on_frac_p5: self.on_frac.quantile(0.05),
            on_frac_p50: self.on_frac.quantile(0.50),
            outage_p50_s: self.outage_s.quantile(0.50),
            outage_p95_s: self.outage_s.quantile(0.95),
            outage_max_s: self.outage_s.max,
            boots_mean: self.boots.mean(),
            total_faults: self.total_faults,
            total_trips: self.total_trips,
            poisoned_nodes: self.poisoned.len() as f64,
            timed_out_nodes: self.timed_out.len() as f64,
        }
    }
}

/// Headline fleet percentiles — the quantities the CI gate pins.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetSummary {
    /// Nodes simulated.
    pub nodes: f64,
    /// Total operations completed fleet-wide.
    pub total_ops: f64,
    /// Mean figure of merit.
    pub fom_mean: f64,
    /// 5th-percentile FoM (the deployment's weak tail).
    pub fom_p5: f64,
    /// Median FoM.
    pub fom_p50: f64,
    /// 95th-percentile FoM.
    pub fom_p95: f64,
    /// 99th-percentile FoM.
    pub fom_p99: f64,
    /// Mean on-time fraction.
    pub on_frac_mean: f64,
    /// 5th-percentile on-time fraction.
    pub on_frac_p5: f64,
    /// Median on-time fraction.
    pub on_frac_p50: f64,
    /// Median longest outage, seconds.
    pub outage_p50_s: f64,
    /// 95th-percentile longest outage, seconds.
    pub outage_p95_s: f64,
    /// Worst outage across the fleet, seconds.
    pub outage_max_s: f64,
    /// Mean boot count.
    pub boots_mean: f64,
    /// Total fault events injected fleet-wide (0 for benign fleets).
    #[serde(default)]
    pub total_faults: f64,
    /// Total auditor trips fleet-wide.
    #[serde(default)]
    pub total_trips: f64,
    /// Nodes whose run panicked (any non-zero value fails the gate).
    #[serde(default)]
    pub poisoned_nodes: f64,
    /// Nodes that blew their watchdog budget (any non-zero value
    /// fails the gate).
    #[serde(default)]
    pub timed_out_nodes: f64,
}

// ---------------------------------------------------------------------------
// Fleet spec
// ---------------------------------------------------------------------------

/// A fleet run: one base scenario fanned out to `nodes` salted cells.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// The shared topology every node runs.
    pub base: Scenario,
    /// Fleet size.
    pub nodes: usize,
    /// Root seed; node `i` runs salt [`node_salt`]`(fleet_seed, i)`.
    pub fleet_seed: u64,
    /// Cells per shard (the unit of parallel work and of the merge).
    pub shard_size: usize,
    /// Histogram binning shared by every shard.
    pub bins: FleetBins,
    /// Explicit per-cell engine-step watchdog budget. `None` (the
    /// default, and the only fingerprint-neutral value) derives the
    /// budget from the cell's scenario: `4·(horizon/dt) + 10_000`
    /// engine steps — four times what the fixed-`dt` reference would
    /// spend, so no honest cell can trip it while a cell that never
    /// ends becomes a [`TimedOutNode`] instead of a hung shard.
    pub step_budget: Option<u64>,
}

impl FleetSpec {
    /// A fleet of `nodes` cells over `base` with default sharding.
    pub fn new(base: Scenario, nodes: usize, fleet_seed: u64) -> Self {
        FleetSpec {
            base,
            nodes,
            fleet_seed,
            shard_size: DEFAULT_SHARD_SIZE,
            bins: FleetBins::default_for(base.horizon),
            step_budget: None,
        }
    }

    /// The salted scenario node `i` runs.
    pub fn node_scenario(&self, i: usize) -> Scenario {
        self.base
            .with_seed_salt(node_salt(self.fleet_seed, i as u64))
    }

    /// Number of shards ([`FleetSpec::shard_size`]-sized, last ragged).
    pub fn shard_count(&self) -> usize {
        self.nodes.div_ceil(self.shard_size.max(1))
    }

    /// Node-index range `[start, end)` covered by shard `s`.
    pub fn shard_range(&self, s: usize) -> (usize, usize) {
        let start = s * self.shard_size;
        (start, (start + self.shard_size).min(self.nodes))
    }

    /// Config fingerprint (hex string) binding a committed baseline to
    /// the exact fleet configuration: scenario
    /// name, node count, seed, sharding, horizon, and binning. FNV-1a
    /// over the rendered config — stable across toolchains, and a
    /// string because the JSON layer only round-trips integers up to
    /// 2^53 exactly.
    pub fn fingerprint(&self) -> String {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        // The fifth slot held the retired heap-chunk knob (always
        // 3600 s in practice). It stays a fixed `3600` so the committed
        // `ci/fleet-baseline.json` keeps matching its configuration.
        let mut rendered = format!(
            "{}|{}|{}|{}|3600|{}|{}|{}|{}",
            self.base.name,
            self.nodes,
            self.fleet_seed,
            self.shard_size,
            self.base.horizon.get(),
            self.bins.fom_cap,
            self.bins.outage_cap_s,
            self.bins.bin_count(),
        );
        // Fault-era segments append only when non-default, so every
        // pre-fault fingerprint (and its committed baselines) is
        // untouched.
        if self.base.fault != react_circuit::FaultCampaign::None {
            rendered.push_str(&format!("|fault:{}", self.base.fault.label()));
        }
        if self.base.audited {
            rendered.push_str("|audited");
        }
        if let Some(budget) = self.step_budget {
            rendered.push_str(&format!("|budget:{budget}"));
        }
        let h = rendered
            .bytes()
            .fold(FNV_OFFSET, |h, b| (h ^ b as u64).wrapping_mul(FNV_PRIME));
        format!("{h:016x}")
    }
}

// ---------------------------------------------------------------------------
// The shard kernel
// ---------------------------------------------------------------------------

/// Default watchdog budget for one cell: four times the fixed-`dt`
/// reference step count plus slack for boot/servicing overhead.
fn default_step_budget(s: &Scenario) -> u64 {
    4 * (s.horizon.get() / s.dt.get()).round() as u64 + 10_000
}

/// One shard of a fleet: the node range `[start, end)` of a
/// [`FleetSpec`], run as a loop in node order.
///
/// Each node's cell is built from [`FleetSpec::node_scenario`] and
/// stepped to completion under its watchdog budget before the next
/// node is built, so the shard holds one engine at a time. Build and
/// run share one `catch_unwind`: a panicking cell becomes a
/// [`PoisonedNode`] and a cell that exceeds its engine-step budget
/// becomes a [`TimedOutNode`] — either way the shard keeps going and
/// the failure is a reported aggregate entry, not a crashed or hung
/// run.
pub struct FleetSim {
    spec: FleetSpec,
    start: usize,
    end: usize,
}

impl FleetSim {
    /// The shard `[start, end)` of a fleet spec. Returns `Err` if the
    /// range does not lie inside the fleet.
    pub fn from_spec_range(spec: &FleetSpec, start: usize, end: usize) -> Result<Self, String> {
        if start > end || end > spec.nodes {
            return Err(format!(
                "shard range [{start}, {end}) outside a fleet of {} nodes",
                spec.nodes
            ));
        }
        Ok(FleetSim {
            spec: *spec,
            start,
            end,
        })
    }

    /// Cells the shard will run.
    pub fn live_cells(&self) -> usize {
        self.end - self.start
    }

    /// Runs every cell to completion in node order, returning the
    /// aggregate alongside the shard-wide recorder (per-cell recorders
    /// absorbed in node order). Instantiate with [`StepAttribution`]
    /// to profile where the shard's engine steps go; [`NullRecorder`]
    /// compiles every hook away.
    ///
    /// Returns `Err` if a cell's simulator rejects its configuration
    /// (e.g. an unbounded source with no horizon).
    pub fn run_telemetry<R: Recorder + Default>(self) -> Result<(FleetAggregate, R), String> {
        let mut agg = FleetAggregate::new(self.spec.bins);
        let mut recorder = R::default();
        for node in self.start..self.end {
            let sc = self.spec.node_scenario(node);
            let ran = std::panic::catch_unwind(|| -> Result<_, SimError> {
                let mut core = sc.simulator().with_recorder(R::default()).try_into_core()?;
                let budget = self
                    .spec
                    .step_budget
                    .unwrap_or_else(|| default_step_budget(&sc));
                while core.engine_steps() < budget {
                    if !core.advance() {
                        return Ok(Ok(core.finish_telemetry()));
                    }
                }
                Ok(Err(TimedOutNode {
                    node: node as f64,
                    engine_steps: core.engine_steps() as f64,
                    sim_time_s: core.now().get(),
                }))
            });
            match ran {
                Ok(Ok(Ok((outcome, r)))) => {
                    agg.record(&NodeStats::from_metrics(&sc, &outcome.metrics));
                    recorder.absorb(r);
                }
                Ok(Ok(Err(timed_out))) => agg.timed_out.push(timed_out),
                Ok(Err(e)) => return Err(format!("fleet node {node} ({}): {e}", sc.name)),
                Err(payload) => agg.poisoned.push(PoisonedNode {
                    node: node as f64,
                    message: crate::scenario_report::panic_message(payload),
                }),
            }
        }
        Ok((agg, recorder))
    }

    /// Runs every cell to completion and reduces in node order.
    pub fn run(self) -> Result<FleetAggregate, String> {
        Ok(self.run_telemetry::<NullRecorder>()?.0)
    }
}

// ---------------------------------------------------------------------------
// Sharded runner
// ---------------------------------------------------------------------------

/// Options for [`run_fleet`].
#[derive(Debug, Clone, Default)]
pub struct FleetRunOptions {
    /// Run shards through the rayon pool instead of serially.
    pub parallel: bool,
    /// Also collect a fleet-wide [`StepAttribution`] profile.
    pub attribution: bool,
}

/// Result of a [`run_fleet`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRunResult {
    /// Fleet-wide aggregate over every shard.
    pub aggregate: FleetAggregate,
    /// Fleet-wide step-attribution profile, present only when
    /// [`FleetRunOptions::attribution`] was set. Merged in shard-index
    /// order (each shard absorbed in node-index order), so it is as
    /// deterministic as the aggregate.
    pub attribution: Option<StepAttribution>,
}

/// Executes one shard of the fleet to completion.
pub fn run_shard(spec: &FleetSpec, shard: usize) -> Result<FleetAggregate, String> {
    let (start, end) = spec.shard_range(shard);
    FleetSim::from_spec_range(spec, start, end)?.run()
}

/// Runs a fleet spec as one ordered fold over its shards.
///
/// Shards execute in parallel when requested, but the merge is always
/// performed in shard-index order (and each shard reduces its nodes in
/// node-index order), so the final aggregate and attribution are
/// bitwise deterministic for a given spec regardless of scheduling.
/// The first failing shard in index order is the error returned.
pub fn run_fleet(spec: &FleetSpec, opts: &FleetRunOptions) -> Result<FleetRunResult, String> {
    let run_one = |&shard: &usize| -> Result<(FleetAggregate, Option<StepAttribution>), String> {
        if opts.attribution {
            let (start, end) = spec.shard_range(shard);
            let (aggregate, attr) = FleetSim::from_spec_range(spec, start, end)?.run_telemetry()?;
            Ok((aggregate, Some(attr)))
        } else {
            Ok((run_shard(spec, shard)?, None))
        }
    };
    let shards: Vec<usize> = (0..spec.shard_count()).collect();
    let results: Vec<_> = if opts.parallel {
        shards.par_iter().map(run_one).collect()
    } else {
        shards.iter().map(run_one).collect()
    };

    let mut aggregate = FleetAggregate::new(spec.bins);
    let mut attribution = opts.attribution.then(StepAttribution::default);
    for result in results {
        let (shard_agg, shard_attr) = result?;
        aggregate.merge(&shard_agg);
        if let (Some(merged), Some(attr)) = (&mut attribution, &shard_attr) {
            merged.merge(attr);
        }
    }
    Ok(FleetRunResult {
        aggregate,
        attribution,
    })
}

// ---------------------------------------------------------------------------
// Fleet report and the CI gate
// ---------------------------------------------------------------------------

/// The machine-readable fleet report: configuration echo, fingerprint,
/// percentile summary, and the full aggregate (histograms included) so
/// a baseline refresh needs no re-run.
///
/// `fleet_seed` is carried as `f64` (exact for seeds below 2⁵³, which
/// committed configurations use by convention); the fingerprint string
/// covers the exact `u64` value regardless.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Base scenario name.
    pub scenario: String,
    /// Fleet size.
    pub nodes: f64,
    /// Root fleet seed.
    pub fleet_seed: f64,
    /// Cells per shard.
    pub shard_size: f64,
    /// Per-node horizon, seconds.
    pub horizon_s: f64,
    /// [`FleetSpec::fingerprint`] of the producing configuration.
    pub fingerprint: String,
    /// Headline percentile summary (the gated quantities).
    pub summary: FleetSummary,
    /// Full streaming aggregate.
    pub aggregate: FleetAggregate,
    /// Wall-clock seconds the run took (informational, never gated).
    pub elapsed_s: f64,
}

impl FleetReport {
    /// Assembles a report from a spec and its completed aggregate.
    pub fn from_run(spec: &FleetSpec, aggregate: FleetAggregate, elapsed_s: f64) -> Self {
        FleetReport {
            scenario: spec.base.name.to_string(),
            nodes: spec.nodes as f64,
            fleet_seed: spec.fleet_seed as f64,
            shard_size: spec.shard_size as f64,
            horizon_s: spec.base.horizon.get(),
            fingerprint: spec.fingerprint(),
            summary: aggregate.summary(),
            aggregate,
            elapsed_s,
        }
    }
}

/// Relative tolerance of the fleet CI gate on every gated field.
const GATE_REL: f64 = 0.05;
// Absolute floors per quantity class, so near-zero percentiles (an
// outage-free fleet, a zero p5) don't demand impossible relative
// precision.
/// Floor for FoM fields (ops).
const FOM_FLOOR: f64 = 1.0;
/// Floor for on-fraction fields.
const ON_FRAC_FLOOR: f64 = 1e-3;
/// Floor for outage fields (seconds).
const OUTAGE_FLOOR_S: f64 = 1.0;
/// Floor for counts (boots, faults, trips).
const COUNT_FLOOR: f64 = 0.5;

/// Diffs a fresh fleet report against a committed baseline.
///
/// A fingerprint mismatch is itself a violation — the gate only means
/// something when both reports ran the *same* fleet configuration.
/// Node counts and every summary percentile are then compared under
/// the per-class tolerances. `elapsed_s` is never gated.
pub fn compare_fleet_reports(baseline: &FleetReport, fresh: &FleetReport) -> Vec<String> {
    let mut v = Vec::new();
    if baseline.fingerprint != fresh.fingerprint {
        v.push(format!(
            "fingerprint: baseline {} vs fresh {} — fleet configuration changed \
             (scenario/nodes/seed/sharding/binning); refresh the baseline deliberately",
            baseline.fingerprint, fresh.fingerprint
        ));
        return v;
    }
    let (b, f) = (&baseline.summary, &fresh.summary);
    if b.nodes != f.nodes {
        v.push(format!("nodes: baseline {} vs fresh {}", b.nodes, f.nodes));
    }
    // Poisoned or watchdog-timed-out nodes in the fresh run are
    // unconditional violations: a crashed or wedged cell is never
    // within tolerance of anything.
    for p in &fresh.aggregate.poisoned {
        v.push(format!("node {}: poisoned: {}", p.node, p.message));
    }
    for t in &fresh.aggregate.timed_out {
        v.push(format!(
            "node {}: watchdog timeout after {} engine steps at t={:.0} s",
            t.node, t.engine_steps, t.sim_time_s
        ));
    }
    let rows = [
        ("total_faults", b.total_faults, f.total_faults, COUNT_FLOOR),
        ("total_trips", b.total_trips, f.total_trips, COUNT_FLOOR),
        ("total_ops", b.total_ops, f.total_ops, FOM_FLOOR),
        ("fom_mean", b.fom_mean, f.fom_mean, FOM_FLOOR),
        ("fom_p5", b.fom_p5, f.fom_p5, FOM_FLOOR),
        ("fom_p50", b.fom_p50, f.fom_p50, FOM_FLOOR),
        ("fom_p95", b.fom_p95, f.fom_p95, FOM_FLOOR),
        ("fom_p99", b.fom_p99, f.fom_p99, FOM_FLOOR),
        (
            "on_frac_mean",
            b.on_frac_mean,
            f.on_frac_mean,
            ON_FRAC_FLOOR,
        ),
        ("on_frac_p5", b.on_frac_p5, f.on_frac_p5, ON_FRAC_FLOOR),
        ("on_frac_p50", b.on_frac_p50, f.on_frac_p50, ON_FRAC_FLOOR),
        (
            "outage_p50_s",
            b.outage_p50_s,
            f.outage_p50_s,
            OUTAGE_FLOOR_S,
        ),
        (
            "outage_p95_s",
            b.outage_p95_s,
            f.outage_p95_s,
            OUTAGE_FLOOR_S,
        ),
        (
            "outage_max_s",
            b.outage_max_s,
            f.outage_max_s,
            OUTAGE_FLOOR_S,
        ),
        ("boots_mean", b.boots_mean, f.boots_mean, COUNT_FLOOR),
    ];
    for (name, base, fresh, floor) in rows {
        let slack = (base.abs() * GATE_REL).max(floor);
        if (fresh - base).abs() > slack {
            v.push(format!(
                "{name}: baseline {base:.6} vs fresh {fresh:.6} (allowed ±{slack:.6})"
            ));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::find_scenario;

    fn small_spec(nodes: usize, seed: u64) -> FleetSpec {
        let mut base = *find_scenario("rf-sparse-week").expect("registry scenario");
        base.horizon = Seconds::new(1800.0);
        let mut spec = FleetSpec::new(base, nodes, seed);
        spec.shard_size = 4;
        spec
    }

    #[test]
    fn shard_handle_holds_its_range_and_rejects_one_outside_the_fleet() {
        let spec = small_spec(6, 3);
        let (start, end) = spec.shard_range(1);
        let shard = FleetSim::from_spec_range(&spec, start, end).expect("in range");
        assert_eq!(shard.live_cells(), 2);
        assert!(FleetSim::from_spec_range(&spec, 4, 7).is_err());
        assert!(FleetSim::from_spec_range(&spec, 3, 2).is_err());
    }

    #[test]
    fn node_salting_decorrelates_nodes() {
        let spec = small_spec(6, 7);
        let fleet = run_fleet(&spec, &FleetRunOptions::default()).expect("fleet run");
        // Six salted nodes of a salt-sensitive scenario should not all
        // collapse onto one FoM value.
        assert!(spec.base.seed_salt_matters());
        assert!(fleet.aggregate.fom.max > fleet.aggregate.fom.min);
    }

    #[test]
    fn histogram_quantiles_bracket_min_max() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for v in [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5] {
            h.record(v);
        }
        assert_eq!(h.count, 10);
        assert!(h.quantile(0.0) >= h.min && h.quantile(1.0) <= h.max);
        assert!(h.quantile(0.5) > h.quantile(0.1));
        // Out-of-range samples land in the overflow counters.
        h.record(-1.0);
        h.record(25.0);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.min, -1.0);
        assert_eq!(h.max, 25.0);
    }

    #[test]
    fn fleet_gate_flags_drift_and_fingerprint_mismatch() {
        let spec = small_spec(6, 11);
        let run = run_fleet(&spec, &FleetRunOptions::default()).expect("fleet run");
        let baseline = FleetReport::from_run(&spec, run.aggregate.clone(), 1.0);

        // Identical report (different wall-clock) gates clean.
        let fresh = FleetReport::from_run(&spec, run.aggregate.clone(), 99.0);
        assert!(compare_fleet_reports(&baseline, &fresh).is_empty());

        // Drift beyond tolerance is flagged by field name.
        let mut drifted = fresh.clone();
        drifted.summary.fom_mean *= 1.5;
        drifted.summary.fom_mean += 10.0;
        let violations = compare_fleet_reports(&baseline, &drifted);
        assert!(violations.iter().any(|v| v.starts_with("fom_mean")));

        // A different configuration is a fingerprint violation, and
        // field diffs are suppressed (they would be meaningless).
        let other = small_spec(6, 12);
        let run2 = run_fleet(&other, &FleetRunOptions::default()).expect("fleet run");
        let mismatched = FleetReport::from_run(&other, run2.aggregate, 1.0);
        let violations = compare_fleet_reports(&baseline, &mismatched);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("fingerprint"));

        // Report JSON round-trips exactly.
        let text = serde_json::to_string(&baseline).expect("serialize");
        let back: FleetReport = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(back, baseline);
    }
}
