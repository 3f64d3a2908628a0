//! Fleet acceptance tests: the sharded fleet must be *bit-comparable*
//! to independent scalar simulations, scale to four-digit node counts
//! in test time, fold parallel shards into the same bits as a serial
//! run, and contain a failing cell as a reported entry.

use react_repro::core::{
    find_scenario, run_fleet, FleetAggregate, FleetRunOptions, FleetSpec, NodeStats,
};
use react_repro::units::Seconds;

/// A truncated salt-sensitive week-class base so tests stay fast.
fn base_scenario(horizon_s: f64) -> react_repro::core::Scenario {
    let mut base = *find_scenario("rf-sparse-week").expect("registry scenario");
    base.horizon = Seconds::new(horizon_s);
    base
}

/// Folds independent scalar runs of the fleet's cells, shard by shard
/// in node order — the reference the fleet runner must reproduce.
fn scalar_reference(spec: &FleetSpec) -> FleetAggregate {
    let mut agg = FleetAggregate::new(spec.bins);
    for shard in 0..spec.shard_count() {
        let (start, end) = spec.shard_range(shard);
        let mut shard_agg = FleetAggregate::new(spec.bins);
        for i in start..end {
            let sc = spec.node_scenario(i);
            let out = sc.run();
            shard_agg.record(&NodeStats::from_metrics(&sc, &out.metrics));
        }
        agg.merge(&shard_agg);
    }
    agg
}

/// Sweep of small fleets across seeds, node counts and shard sizes
/// (one shard, several, a ragged last one): every aggregate must be
/// bit-equal to the scalar reference.
#[test]
fn fleet_aggregates_bit_equal_scalar_sweep() {
    for &(nodes, seed, shard_size) in &[
        (5usize, 2u64, 8usize),
        (12, 77, 8),
        (17, 0xACE0_FBA5E, 8),
        (3, 1, 4),
        (7, 42, 4),
        (8, 0xFEED, 4),
    ] {
        let mut spec = FleetSpec::new(base_scenario(1800.0), nodes, seed);
        spec.shard_size = shard_size;
        let fleet = run_fleet(&spec, &FleetRunOptions::default()).expect("fleet run");
        assert_eq!(
            fleet.aggregate,
            scalar_reference(&spec),
            "nodes={nodes} seed={seed} shard_size={shard_size}"
        );
    }
}

/// The acceptance-scale property: a 1000-node fleet over a day-class
/// horizon, fleet vs scalar. Aggregate FoM (and every histogram
/// bit) must match the 1000 independent runs exactly; the summary's
/// headline numbers are additionally checked as finite and populated.
#[test]
fn thousand_node_fleet_matches_scalar_runs() {
    let spec = FleetSpec::new(base_scenario(3600.0), 1000, 0xF1EE7);
    let fleet = run_fleet(&spec, &FleetRunOptions::default()).expect("fleet run");
    let scalar = scalar_reference(&spec);
    assert_eq!(fleet.aggregate, scalar);

    let s = fleet.aggregate.summary();
    assert_eq!(s.nodes, 1000.0);
    assert!(s.total_ops > 0.0);
    assert!(s.fom_mean.is_finite() && s.fom_mean > 0.0);
    assert!(s.fom_p5 <= s.fom_p50 && s.fom_p50 <= s.fom_p95 && s.fom_p95 <= s.fom_p99);
    assert!(s.on_frac_mean > 0.0 && s.on_frac_mean < 1.0);
    // Salted environments must actually decorrelate the fleet.
    assert!(fleet.aggregate.fom.max > fleet.aggregate.fom.min);
}

/// Shards run through the rayon pool must fold into the same bits as
/// a serial run: the merge follows shard index, not completion order,
/// for the aggregate and for the merged step attribution alike.
#[test]
fn parallel_fleet_folds_bit_identical_to_serial() {
    let mut spec = FleetSpec::new(base_scenario(1800.0), 30, 21);
    spec.shard_size = 7;
    assert!(spec.shard_count() >= 4);

    let run = |parallel| {
        run_fleet(
            &spec,
            &FleetRunOptions {
                parallel,
                attribution: true,
            },
        )
        .expect("fleet run")
    };
    let (serial, parallel) = (run(false), run(true));
    assert_eq!(parallel.aggregate, serial.aggregate);
    assert_eq!(parallel.aggregate, scalar_reference(&spec));
    let attr = parallel.attribution.expect("attribution requested");
    assert_eq!(Some(&attr), serial.attribution.as_ref());
    assert!(attr.total_steps() > 0);
}

/// A starved watchdog budget turns every cell into a reported
/// [`TimedOutNode`](react_repro::core::TimedOutNode) instead of a hung
/// shard, and the fleet gate treats any such node as an unconditional
/// violation.
#[test]
fn watchdog_budget_reports_timed_out_nodes() {
    use react_repro::core::{compare_fleet_reports, FleetReport};

    let mut spec = FleetSpec::new(base_scenario(1800.0), 6, 9);
    spec.shard_size = 3;
    let healthy = run_fleet(&spec, &FleetRunOptions::default()).expect("healthy run");
    assert!(healthy.aggregate.timed_out.is_empty());
    assert!(healthy.aggregate.poisoned.is_empty());

    // 8 engine steps cannot cover a 1800 s horizon for any cell.
    spec.step_budget = Some(8);
    let starved = run_fleet(&spec, &FleetRunOptions::default()).expect("starved run");
    assert_eq!(starved.aggregate.timed_out.len(), spec.nodes);
    assert_eq!(starved.aggregate.nodes, 0.0);
    // Node indices are fleet-global and unique.
    let mut nodes: Vec<f64> = starved.aggregate.timed_out.iter().map(|t| t.node).collect();
    nodes.sort_by(f64::total_cmp);
    assert_eq!(nodes, (0..spec.nodes).map(|i| i as f64).collect::<Vec<_>>());
    let summary = starved.aggregate.summary();
    assert_eq!(summary.timed_out_nodes, spec.nodes as f64);

    // The explicit budget changes the fingerprint (a budgeted run is a
    // different configuration), and the gate flags every wedged node.
    let healthy_spec = {
        let mut s = spec;
        s.step_budget = None;
        s
    };
    assert_ne!(spec.fingerprint(), healthy_spec.fingerprint());
    let baseline = FleetReport::from_run(
        &spec,
        {
            let mut agg = starved.aggregate.clone();
            agg.timed_out.clear();
            agg
        },
        1.0,
    );
    let fresh = FleetReport::from_run(&spec, starved.aggregate.clone(), 1.0);
    let violations = compare_fleet_reports(&baseline, &fresh);
    assert!(
        violations.iter().any(|v| v.contains("watchdog timeout")),
        "{violations:?}"
    );
}

/// A cell whose build panics (a zero timestep trips
/// `Simulator::with_timestep`) becomes a reported
/// [`PoisonedNode`](react_repro::core::PoisonedNode) at its
/// fleet-global index; the shard and the fleet keep going.
#[test]
fn panicking_cell_build_reports_poisoned_nodes_in_node_order() {
    let mut base = base_scenario(1800.0);
    base.dt = Seconds::ZERO;
    let mut spec = FleetSpec::new(base, 5, 13);
    spec.shard_size = 2;
    assert!(spec.shard_count() >= 2);

    let fleet = run_fleet(&spec, &FleetRunOptions::default()).expect("fleet run");
    let nodes: Vec<f64> = fleet.aggregate.poisoned.iter().map(|p| p.node).collect();
    assert_eq!(nodes, (0..spec.nodes).map(|i| i as f64).collect::<Vec<_>>());
    for p in &fleet.aggregate.poisoned {
        assert!(
            p.message.contains("timestep must be positive"),
            "node {}: {}",
            p.node,
            p.message
        );
    }
    assert_eq!(fleet.aggregate.nodes, 0.0);
    assert!(fleet.aggregate.timed_out.is_empty());
}

/// A fleet over a faulted, audited base scenario: every salted node
/// gets its own deterministic fault plan, the auditor counters flow
/// into the aggregate, and the degradation (trips) histogram is
/// populated. The whole thing stays bit-identical to scalar runs.
#[test]
fn faulted_fleet_aggregates_fault_and_audit_counters() {
    let mut base = *find_scenario("fault-fade-offset-hour-10mf-de-audited").expect("registered");
    base.horizon = Seconds::new(900.0);
    let mut spec = FleetSpec::new(base, 6, 0xFA_0175);
    spec.shard_size = 3;

    let fleet = run_fleet(&spec, &FleetRunOptions::default()).expect("faulted fleet run");
    assert_eq!(fleet.aggregate, scalar_reference(&spec));
    // Two scheduled events per node (fade at 25 %, offset at 50 %).
    assert_eq!(fleet.aggregate.total_faults, 2.0 * spec.nodes as f64);
    assert!(
        fleet.aggregate.total_trips >= 1.0,
        "no node tripped the auditor"
    );
    let trips = fleet.aggregate.trips.as_ref().expect("trips histogram");
    assert_eq!(trips.count, spec.nodes as u64);
    assert!(trips.max >= 1.0);
    let summary = fleet.aggregate.summary();
    assert_eq!(summary.total_faults, fleet.aggregate.total_faults);
    assert_eq!(summary.total_trips, fleet.aggregate.total_trips);
    // No cell wedged or panicked under the campaign.
    assert!(fleet.aggregate.poisoned.is_empty());
    assert!(fleet.aggregate.timed_out.is_empty());
}
