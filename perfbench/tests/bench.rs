//! The benchmark's own checks: the timing wrappers change nothing, seed
//! 0 is the committed configuration, and every printed metric is the
//! one `BENCHMARK.json` names.

use perfbench::bench::{
    bit_identical, measure_cells, measure_fleet, run_traced, trace_cells, trace_fleet, END_TO_END,
    PER_LAYER,
};
use perfbench::workloads::{
    fleet_seed, fleet_spec, salts, Workload, DARK_WEEK_ROWS, FINE_BURST_ROWS,
};
use react_buffers::BufferKind;
use react_core::scenario::DAY;
use react_core::scenario_report::REPORT_SEEDS;
use react_core::{
    fault_scenario_registry, find_scenario, report_scenarios, scenario_registry, FleetBins,
    FleetSpec, Scenario,
};
use react_units::Seconds;

fn capped(s: &Scenario, horizon: f64) -> Scenario {
    let mut s = *s;
    s.horizon = s.horizon.min(Seconds::new(horizon));
    s
}

fn assert_transparent(s: &Scenario) {
    let plain = s.run();
    let (traced, counters) = run_traced(s);
    let traced = traced.expect("traced run completes");
    let id = format!("{}/{}", s.name, s.buffer.label());
    assert!(bit_identical(&plain, &traced), "{id}: traced run differs");
    let (a, b) = (&plain.metrics, &traced.metrics);
    assert_eq!(a.boots, b.boots, "{id}");
    assert_eq!(a.on_time.get().to_bits(), b.on_time.get().to_bits(), "{id}");
    assert_eq!(a.reconfigurations, b.reconfigurations, "{id}");
    assert!(
        counters.iter().any(|c| c.calls > 0),
        "{id}: nothing was timed"
    );
}

#[test]
fn wrappers_are_transparent_for_every_buffer_kind() {
    let base = find_scenario("rf-ge-hour-react-de").expect("registered");
    for buffer in [
        BufferKind::Static770uF,
        BufferKind::Static10mF,
        BufferKind::Static17mF,
        BufferKind::React,
        BufferKind::Morphy,
        BufferKind::Dewdrop,
        BufferKind::Capybara,
    ] {
        assert_transparent(&capped(&base.with_buffer(buffer), 120.0));
    }
}

#[test]
fn wrappers_are_transparent_for_every_env_kind() {
    // The first registry entry of each environment, as declared:
    // attackers with feedback, defended cells, and fault campaigns with
    // and without the auditor all come through here.
    let mut seen: Vec<&str> = Vec::new();
    let mut cells: Vec<Scenario> = Vec::new();
    for s in scenario_registry().iter().chain(fault_scenario_registry()) {
        if !seen.contains(&s.env.label()) {
            seen.push(s.env.label());
            cells.push(capped(s, 300.0));
        }
    }
    cells.push(capped(
        find_scenario("attack-bootstrike-hour-de-defended").expect("registered"),
        300.0,
    ));
    cells.push(capped(
        find_scenario("fault-fade-offset-hour-10mf-de-audited").expect("registered"),
        2400.0,
    ));
    assert!(seen.len() >= 12, "every env kind is covered: {seen:?}");
    for s in &cells {
        assert_transparent(s);
    }
}

#[test]
fn seed_zero_is_the_committed_configuration() {
    assert_eq!(salts(0).to_vec(), REPORT_SEEDS.to_vec());
    assert_eq!(fleet_seed(0), 0x000F_1EE7);
    assert_eq!(salts(3), [6, 7]);
    assert_ne!(fleet_seed(1), fleet_seed(0));

    // The two matrix workloads split the report rows between them.
    let mut rows: Vec<&str> = FINE_BURST_ROWS
        .iter()
        .chain(&DARK_WEEK_ROWS)
        .copied()
        .collect();
    let mut report: Vec<&str> = report_scenarios().iter().map(|s| s.name).collect();
    rows.sort_unstable();
    report.sort_unstable();
    assert_eq!(rows, report);

    let fine = Workload::FineBurst.cells(0);
    let dark = Workload::DarkWeek.cells(0);
    assert_eq!(fine.len(), 108);
    assert_eq!(dark.len(), 40);
    for s in fine.iter().chain(&dark) {
        assert!(REPORT_SEEDS.contains(&s.seed_salt), "{}", s.name);
    }

    let spec = fleet_spec(0);
    assert_eq!(spec.fleet_seed, 0x000F_1EE7);
    assert_eq!(spec.base.name, "rf-sparse-week");
    assert_eq!(spec.base.horizon, DAY);
    assert_eq!(spec.shard_count(), 2);
    assert_eq!(
        spec.bins,
        FleetBins::calibrated(&spec.base, spec.fleet_seed)
    );
}

/// `(name, unit)` of every object in the array under `key`.
fn catalog(json: &str, key: &str) -> Vec<(String, String)> {
    let at = json.find(&format!("\"{key}\"")).expect("key present");
    let open = at + json[at..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open..close]
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn field(obj: &str, key: &str) -> String {
    let Some(at) = obj.find(&format!("\"{key}\"")) else {
        return String::new();
    };
    let rest = &obj[at + key.len() + 2..];
    let start = rest.find('"').expect("string value") + 1;
    let len = rest[start..].find('"').expect("closing quote");
    rest[start..start + len].to_string()
}

fn names(metrics: &[(&str, f64, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, _, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let end_to_end = catalog(&json, "end_to_end");
    let per_layer = catalog(&json, "per_layer");
    assert_eq!(end_to_end, owned(&END_TO_END));
    assert_eq!(per_layer, owned(&PER_LAYER));
    let workloads: Vec<String> = catalog(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);

    // Each mode prints exactly its catalog, on inputs small enough for
    // a test.
    let cells = vec![
        capped(
            find_scenario("rf-ge-hour-react-de").expect("registered"),
            60.0,
        ),
        capped(
            find_scenario("react-plateau-sc").expect("registered"),
            300.0,
        ),
    ];
    let untraced = measure_cells("test", || cells.clone(), 0, 0.01);
    assert!(untraced.correct(), "{:?}", untraced.failures);
    assert_eq!(names(&untraced.metrics), end_to_end);
    let traced = trace_cells(&cells);
    assert!(traced.correct(), "{:?}", traced.failures);
    assert_eq!(names(&traced.metrics), per_layer);
    assert!(traced.spans.is_some());

    let small_fleet = || {
        let base = capped(find_scenario("rf-sparse-week").expect("registered"), 3600.0);
        let mut spec = FleetSpec::new(base, 4, fleet_seed(0));
        spec.shard_size = 2;
        spec.bins = FleetBins::calibrated(&base, spec.fleet_seed);
        spec
    };
    let untraced = measure_fleet(small_fleet, 0, 0.01);
    assert!(untraced.correct(), "{:?}", untraced.failures);
    assert_eq!(names(&untraced.metrics), end_to_end);
    let traced = trace_fleet(&small_fleet());
    assert!(traced.correct(), "{:?}", traced.failures);
    assert_eq!(names(&traced.metrics), per_layer);
}
