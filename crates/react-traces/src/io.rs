//! Writing traces as CSV (`time_s,power_w` rows).

use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::PowerTrace;

/// Writes a trace as `time_s,power_w` CSV with a header row.
///
/// # Errors
///
/// Returns the filesystem error if the file cannot be written.
pub fn write_csv(trace: &PowerTrace, path: impl AsRef<Path>) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(trace.len() * 24 + 32);
    writeln!(out, "time_s,power_w")?;
    for (t, p) in trace.iter() {
        writeln!(out, "{},{}", t.get(), p.get())?;
    }
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_units::{Seconds, Watts};

    #[test]
    fn writes_header_and_one_row_per_sample() {
        let trace = PowerTrace::new(
            "two",
            Seconds::new(0.5),
            vec![Watts::from_milli(1.0), Watts::from_milli(2.0)],
        );
        let mut path = std::env::temp_dir();
        path.push(format!("react_trace_io_write_{}", std::process::id()));
        write_csv(&trace, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(path).ok();
        assert_eq!(text, "time_s,power_w\n0,0.001\n0.5,0.002\n");
    }
}
