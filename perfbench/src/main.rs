//! The FlexER serving benchmark: runs one named workload against the
//! public API of `flexer-serve`, checks every answer against an oracle,
//! prints every metric by name with its unit, and ends with one JSON line.
//!
//! ```text
//! perfbench --workload ingest-mixed|cluster --seed N --seconds S \
//!           --trace 0|1 --out DIR
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! same window again with spans around each layer's calls and a replay of
//! the block, matcher and ANN stages, and reports the per-layer metrics.
//! The trace file goes to `DIR/traces/`; the cluster's snapshot file and
//! child processes live under `DIR/work/` for the duration of the run.
//! `perfbench/run.py` builds everything and is the entry point.

mod cluster;
mod fixture;
mod inproc;
mod layers;
mod mixed;
mod quality;
mod report;
mod session;
mod stats;
mod trace;

use report::{Report, COVERAGE_BAND};
use session::Traced;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;

/// The benchmark's own directory (`--out`), for traces and work files.
static OUT_DIR: OnceLock<PathBuf> = OnceLock::new();

pub fn out_dir() -> &'static PathBuf {
    OUT_DIR.get().expect("--out parsed before any workload runs")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let out = out.ok_or("--out is required")?;
    OUT_DIR.set(out).map_err(|_| "--out given twice")?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload ingest-mixed|cluster --seed N --seconds S \
                 --trace 0|1 --out DIR"
            );
            return ExitCode::from(2);
        }
    };
    let inputs = fixture::Inputs::generate(args.seed);
    let ticks0 = stats::cpu_ticks();
    let mut report = match args.workload.as_str() {
        "ingest-mixed" => mixed::run(inputs, args.seconds, args.trace),
        "cluster" => cluster::run(inputs, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let ticks1 = stats::cpu_ticks();
    let steal = (ticks1.1 - ticks0.1) as f64 / (ticks1.0 - ticks0.0).max(1) as f64;
    report.prop("host_cpu_stolen_pct", format!("{:.1}", 100.0 * steal));
    report.print(&args.workload, args.seed, args.trace);
    if report.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes a traced window's span log with the per-layer summary to
/// `traces/<workload>.json` under the benchmark's directory.
pub fn write_trace(traced: &Traced, report: &Report, workload: &str, seed: u64) {
    let mut summary = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": {}",
        traced.tracer.len()
    );
    summary.push_str(", \"self_ns_by_layer\": {");
    for (i, (layer, ns)) in traced.tracer.self_ns_by_layer().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(summary, "{sep}\"{layer}\": {ns}");
    }
    summary.push_str("}, \"per_layer\": {");
    for (i, (name, v)) in report.layers.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(summary, "{sep}\"{name}\": {v:?}");
    }
    let _ = write!(
        summary,
        "}}, \"coverage_band\": [{:?}, {:?}], \"graph_forward_ms_is_derived\": true, \
         \"self_ns_by_layer_note\": \"replay spans start after their parent call ends; each is \
         charged to its layer and taken out of the parent's self time\"}}",
        COVERAGE_BAND.0, COVERAGE_BAND.1
    );
    let path = out_dir().join("traces").join(format!("{workload}.json"));
    if let Err(e) = traced.tracer.write(&path, &summary) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
