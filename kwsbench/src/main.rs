//! Samples-to-decision benchmark for the KWT-Tiny stack.
//!
//! ```text
//! cargo run --release --manifest-path kwsbench/Cargo.toml -- \
//!     --workload clip_device_a8 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `clip_device_a8` (one caller, one clip, one decision on the
//! simulated device), `serve_host_float` (a 2,048-session host serving
//! fleet, closed then open loop) and `serve_cluster4_a8` (64 sessions
//! served by a 4-hart simulated cluster). `--trace 0` prints the
//! end-to-end metrics of an untraced run; `--trace 1` prints the
//! per-layer metrics of a traced run and writes its spans under
//! `kwsbench/traces/`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `NOTES.md` for the workloads and metrics.

mod clip;
mod common;
mod fleet;
mod inputs;
mod stats;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use workloads::{Args, Report};

fn usage() -> String {
    format!(
        "usage: kwsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workloads::WORKLOADS.join("|")
    )
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: a JSON object with every value printed in full.
fn to_json(r: &Report) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(r.metrics.len());
    for m in &r.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    ))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    match workloads::run(&args)
        .map_err(|e| e.to_string())
        .and_then(|r| to_json(&r))
    {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("kwsbench: {e}");
            std::process::exit(1);
        }
    }
}
