//! Exports one simulation cell's telemetry event stream as a timeline.
//!
//! ```text
//! sim_trace <scenario>                      # registry cell, salt 0
//! sim_trace <scenario/buffer/s<seed>>       # any report-matrix cell
//! sim_trace <cell> --format chrome|text     # one format only (default both)
//! sim_trace <cell> --capacity <events>      # ring size (default 65536)
//! ```
//!
//! Re-runs the named cell with a `RingRecorder` attached and writes
//! the captured stream to `target/paper-artifacts/`:
//!
//! * `TRACE_<cell>.json` — Chrome `trace_event` JSON. Load it in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`:
//!   kernel strides and fine-step spans land on the `kernel` track,
//!   boots and brown-outs on `lifecycle`, and detections plus
//!   backoff holds on `defense`, all on the simulated-time axis.
//! * `TRACE_<cell>.txt` — the same stream as a plain-text timeline,
//!   one `<sim-time>  <event>` line per event.
//!
//! Recording is observational: by the telemetry bit-identity contract
//! (pinned in `tests/telemetry.rs`), the traced run's metrics equal
//! the untraced run's bit for bit.
//!
//! Exit codes: 0 success, 2 usage/configuration/IO error.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::process::ExitCode;

use react_bench::save_named_artifact;
use react_core::resolve_cell;
use react_telemetry::{chrome_trace_json, text_timeline, RingRecorder};

fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.clone())),
            None => Err(format!("usage: sim_trace {flag} <value>")),
        },
        None => Ok(None),
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let format = flag_value(&args, "--format")?;
    let (chrome, text) = match format.as_deref() {
        None => (true, true),
        Some("chrome") => (true, false),
        Some("text") => (false, true),
        Some(other) => return Err(format!("--format {other:?} is not chrome or text")),
    };
    let ring = match flag_value(&args, "--capacity")? {
        Some(raw) => RingRecorder::new(
            raw.parse()
                .map_err(|_| format!("--capacity {raw:?} is not a count"))?,
        ),
        None => RingRecorder::default(),
    };
    let id = args
        .iter()
        .position(|a| !a.starts_with("--"))
        .filter(|&i| {
            // A flag's value is not the cell argument.
            i == 0 || !matches!(args[i - 1].as_str(), "--format" | "--capacity")
        })
        .map(|i| args[i].clone())
        .ok_or_else(|| {
            "usage: sim_trace <scenario | scenario/buffer/s<seed>> \
             [--format chrome|text] [--capacity <events>]"
                .to_string()
        })?;

    let cell = resolve_cell(&id)?;
    println!(
        "tracing {id}: {} × {} over {:.0} s (dt {} ms)",
        cell.env.label(),
        cell.buffer.label(),
        cell.horizon.get(),
        cell.dt.get() * 1e3,
    );
    let (outcome, recorder) = cell.run_recorded(ring);
    let events = recorder.len();
    if recorder.dropped() > 0 {
        eprintln!(
            "sim_trace: ring overflowed, oldest {} event(s) dropped — raise --capacity \
             for full coverage",
            recorder.dropped()
        );
    }
    println!(
        "{} event(s) captured over {} engine steps",
        events, outcome.metrics.engine_steps
    );

    let stream = recorder.into_events();
    let stem = id.replace('/', "_");
    if chrome {
        let json = chrome_trace_json(&stream, &id);
        let path = save_named_artifact(&format!("TRACE_{stem}.json"), &json)
            .map_err(|e| format!("write trace: {e}"))?;
        println!(
            "chrome trace written to {} (load in Perfetto)",
            path.display()
        );
    }
    if text {
        let timeline = text_timeline(&stream);
        let path = save_named_artifact(&format!("TRACE_{stem}.txt"), &timeline)
            .map_err(|e| format!("write timeline: {e}"))?;
        println!("text timeline written to {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sim_trace: {e}");
            ExitCode::from(2)
        }
    }
}
