//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Exits 2 on a usage error.

use std::process::ExitCode;

use perfbench::bench::{run, Options};
use perfbench::workloads::Workload;

/// Worker threads when `RAYON_NUM_THREADS` does not say otherwise.
const DEFAULT_THREADS: &str = "2";

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name} <value>"))
}

fn parse(args: &[String]) -> Result<Options, String> {
    let name = flag(args, "--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = flag(args, "--seed")?;
    let seconds = flag(args, "--seconds")?;
    let trace = flag(args, "--trace")?;
    Ok(Options {
        workload,
        seed: seed
            .parse()
            .map_err(|_| format!("--seed {seed:?} is not a whole number"))?,
        seconds: seconds
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .ok_or_else(|| format!("--seconds {seconds:?} is not a positive number"))?,
        trace: match trace {
            "0" => false,
            "1" => true,
            _ => return Err(format!("--trace {trace:?} is not 0 or 1")),
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fine-burst|dark-week|fleet-day> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        // Set before any worker thread exists.
        std::env::set_var("RAYON_NUM_THREADS", DEFAULT_THREADS);
    }
    println!(
        "perfbench {} seed {} seconds {} trace {} threads {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        rayon::current_num_threads()
    );
    let report = run(&opts);
    for note in &report.notes {
        println!("{note}");
    }
    if let Some(spans) = &report.spans {
        // Spans are kept in memory during the run and written once, here.
        let path = format!(
            "perfbench/out/spans-{}-s{}.json",
            opts.workload.name(),
            opts.seed
        );
        match std::fs::create_dir_all("perfbench/out").and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: spans not written to {path}: {e}"),
        }
    }
    for failure in &report.failures {
        eprintln!("FAILED {failure}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
