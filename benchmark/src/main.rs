//! `site-benchmark [--workload NAME] [--seed N] [--seconds S | --ops N]
//! [--trace [0|1]] [--smoke]`
//!
//! With `--workload`, runs that workload in this process and prints, as
//! the last line of standard output, the result object the driver reads.
//! Without it, runs all five workloads untraced and then traced, each in
//! a process of its own (so `peak_rss_mb` is per workload).

use std::path::{Path, PathBuf};
use std::process::Command;

use site_benchmark::report;
use site_benchmark::run::{run, Finished, RunConfig, Stop};
use site_benchmark::workloads::{by_name, Workload, WORKLOADS};

/// Results, traces and the platform's scratch files, relative to the
/// checkout root the command runs from.
const OUT_DIR: &str = "benchmark/out";

/// A third of `run_seconds` of `BENCHMARK.json`: what one of the three
/// processes of a gated run measures.
const DEFAULT_SECONDS: f64 = 3.0;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    stop: Stop,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: report::PINNED_SEED,
        stop: Stop::Seconds(DEFAULT_SECONDS),
        trace: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = || WORKLOADS.map(|w| w.name).join(", ");
                args.workload = Some(
                    by_name(&name)
                        .ok_or_else(|| format!("unknown workload {name}; one of {}", known()))?,
                );
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.stop = Stop::Seconds(seconds);
            }
            "--ops" => {
                let ops: u64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--ops: {e}"))?;
                if ops == 0 {
                    return Err("--ops must be at least 1".into());
                }
                args.stop = Stop::Ops(ops);
            }
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        args.trace = true;
                        continue;
                    }
                };
                argv.next();
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.smoke && args.stop == Stop::Seconds(DEFAULT_SECONDS) {
        args.stop = Stop::Ops(2_000);
    }
    Ok(args)
}

/// This program again, with the flags that select the same configuration.
fn this_program(args: &Args) -> Result<Command, String> {
    let mut command = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    command.args(["--seed", &args.seed.to_string()]);
    match args.stop {
        Stop::Seconds(s) => command.args(["--seconds", &s.to_string()]),
        Stop::Ops(n) => command.args(["--ops", &n.to_string()]),
    };
    if args.smoke {
        command.arg("--smoke");
    }
    Ok(command)
}

fn run_one(args: &Args, workload: &'static Workload, out_dir: &Path) -> Result<bool, String> {
    let config = RunConfig {
        workload,
        seed: args.seed,
        stop: args.stop,
        trace: args.trace,
        smoke: args.smoke,
    };
    let Finished { mut report, bench } = run(&config)?;
    std::mem::forget(bench);
    if args.trace {
        if let Some(untraced) = report::untraced_ops_per_s(out_dir, &report) {
            report::set_trace_overhead(&mut report, untraced);
        }
    }
    let pins = report::check_pins(&report);
    report::write_out(out_dir, &report)
        .map_err(|e| format!("writing {}: {e}", out_dir.display()))?;
    print!("{}", report::table(&report));
    if let Err(moved) = &pins {
        println!("FAILED: {moved}");
    }
    println!("{}", report::result_line(&report));
    Ok(report.correct && pins.is_ok())
}

/// All five workloads, untraced then traced, a process each.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut red = Vec::new();
    for trace in ["0", "1"] {
        for workload in &WORKLOADS {
            let status = this_program(args)?
                .args(["--workload", workload.name, "--trace", trace])
                .status()
                .map_err(|e| e.to_string())?;
            if !status.success() {
                red.push(format!("{} --trace {trace}", workload.name));
            }
        }
    }
    if red.is_empty() {
        println!(
            "all five workloads green, untraced and traced; records in {OUT_DIR}/results.jsonl"
        );
    } else {
        println!("FAILED: {}", red.join(", "));
    }
    Ok(red.is_empty())
}

/// Runs `body` with `$TMPDIR` inside `OUT_DIR`: the platform builds its
/// read-only store files under the system temp dir, and they must stay in
/// the checkout. Called before any thread exists.
fn in_scratch_dir(body: impl FnOnce(&Path) -> Result<bool, String>) -> Result<bool, String> {
    let out_dir = PathBuf::from(OUT_DIR);
    let scratch = std::env::current_dir()
        .map(|cwd| {
            cwd.join(&out_dir)
                .join(format!("tmp-{}", std::process::id()))
        })
        .and_then(|dir| std::fs::create_dir_all(&dir).map(|()| dir))
        .map_err(|e| format!("creating a scratch directory under {OUT_DIR}: {e}"))?;
    std::env::set_var("TMPDIR", &scratch);
    let outcome = body(&out_dir);
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(usage) => {
            eprintln!("site-benchmark: {usage}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload {
        None => run_all(&args),
        Some(workload) => in_scratch_dir(|out_dir| run_one(&args, workload, out_dir)),
    };
    // Straight out: the platform was forgotten, not dropped.
    match outcome {
        Ok(true) => std::process::exit(0),
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("site-benchmark: {e}");
            std::process::exit(1)
        }
    }
}
