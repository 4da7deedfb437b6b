//! `coyote-benchmark`: see `README.md`.
//!
//! ```text
//! coyote-benchmark run [--workload W] [--trace 0|1] [--seed N] [--seconds S | --reps R]
//!                      [--smoke] [--out DIR]
//! coyote-benchmark aa  [--seed N] [--seconds S | --reps R] [--smoke] [--out DIR]
//! coyote-benchmark write-golden
//! ```
//!
//! `run --workload W --trace T` measures in this process and prints the
//! result object as its last line. Without `--workload` or without
//! `--trace`, `run` covers every workload / both modes, one child process
//! each.

use coyote_benchmark::harness::{write_json, Header, Options};
use coyote_benchmark::metrics::WORKLOADS;
use coyote_benchmark::workloads::{self, lp_families};
use coyote_benchmark::{aa, trace::Trace};
use serde_json::Value;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: coyote-benchmark <run|aa|write-golden> [--workload W] [--trace 0|1] \
[--seed N] [--seconds S] [--reps R] [--smoke] [--out DIR]";

struct Cli {
    command: String,
    workload: Option<&'static str>,
    traced: Option<bool>,
    opts: Options,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let command = args.first().ok_or(USAGE)?.clone();
    let mut cli = Cli {
        command,
        workload: None,
        traced: None,
        opts: Options::default(),
    };
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let info = WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or(format!("unknown workload {name}"))?;
                cli.workload = Some(info.name);
            }
            "--trace" => {
                cli.traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--seed" => cli.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds < 0.0 {
                    return Err(format!("--seconds takes a duration, not {seconds}"));
                }
                cli.opts.seconds = seconds;
            }
            "--reps" => {
                let reps: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
                cli.opts.reps = Some(reps);
            }
            "--out" => cli.opts.out_dir = value()?.into(),
            "--smoke" => cli.opts.smoke = true,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    // The smoke instance is a check, not a measurement: one repetition.
    if cli.opts.smoke && cli.opts.reps.is_none() {
        cli.opts.reps = Some(1);
    }
    Ok(cli)
}

/// One workload, one mode, in this process.
fn run_one(workload: &'static str, traced: bool, opts: &Options) -> Result<bool, String> {
    let header = Header::collect(workload, opts, traced);
    let (report, trace): (_, Option<Trace>) = if traced {
        let (report, trace) = workloads::run_traced(workload, opts)?;
        (report, Some(trace))
    } else {
        (workloads::run_untraced(workload, opts)?, None)
    };
    let body = report.to_json(&header, traced);
    match trace {
        Some(trace) => write_json(
            &opts.out_dir,
            &format!("{workload}.trace.json"),
            body,
            Some(&trace.to_json()),
        )?,
        None => write_json(&opts.out_dir, &format!("{workload}.json"), body, None)?,
    }
    report.print(&header, traced);
    Ok(report.correct())
}

/// The oracle's objectives need `COYOTE_LP_BACKEND=dense`, which the LP
/// crate reads once per process: re-run this command in a child that has it.
fn write_golden() -> Result<(), String> {
    if std::env::var("COYOTE_LP_BACKEND").as_deref() != Ok("dense") {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let status = Command::new(exe)
            .arg("write-golden")
            .env("COYOTE_LP_BACKEND", "dense")
            .status()
            .map_err(|e| e.to_string())?;
        return status
            .success()
            .then_some(())
            .ok_or(format!("child exited with {status}"));
    }
    let path = lp_families::golden_path();
    let body = lp_families::golden_body()?;
    let text = serde_json::to_string_pretty(&Value::Object(body)).expect("infallible");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|cli| match cli.command.as_str() {
        "run" => match (cli.workload, cli.traced) {
            (Some(workload), Some(traced)) => run_one(workload, traced, &cli.opts),
            (workload, traced) => aa::run_set(&cli.opts, workload, traced).map(|_| true),
        },
        "aa" => aa::run_aa(&cli.opts).map(|()| true),
        "write-golden" => write_golden().map(|()| true),
        other => Err(format!("unknown command {other}\n{USAGE}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("coyote-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
