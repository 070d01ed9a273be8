//! `ispn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the workload's digest and one line per timed repetition, then,
//! as its last line, one JSON object with `correct`, `attempted`, `failed`
//! and the metrics: the end-to-end metrics untraced, the per-layer metrics
//! traced.  The traced run also writes its spans under `perfbench/out/`.

use std::process::ExitCode;

use ispn_perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use ispn_perfbench::run::{run, Options};
use ispn_perfbench::workloads::Workload;

const USAGE: &str = "usage: ispn-perfbench --workload <paper-chain|churn-storm|hetmix-sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&opts);
    println!("threads={}", opts.threads);
    for line in &out.log {
        println!("{line}");
    }
    for failure in out.failures.iter().take(20) {
        eprintln!("FAILED: {failure}");
    }
    if let Some(spans) = &out.spans_json {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!(
            "{dir}/trace-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        );
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    let names: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_line(out.attempted, out.failed, names, |name| {
            out.metrics.get(name).copied().unwrap_or(f64::NAN)
        })
    );
    ExitCode::SUCCESS
}
