//! What a run prints and records: the metric table, the result line the
//! driver reads, and the stamped record appended to `benchmark/out/`.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::run::{Metric, RunReport, Stop};
use crate::setup::platform_shape;
use crate::stats::highest_supported;

/// Digests of the inputs at seed 42, full profile: `(workload,
/// ops_digest)` and the population's. A run whose digests differ fails
/// loudly: the load has changed, so its numbers compare with nothing
/// measured before.
pub const PINNED_SEED: u64 = 42;
pub const PINNED_POPULATION: u64 = 0x4965_1ceb_cb1d_bda9;
pub const PINNED_OPS: [(&str, u64); 5] = [
    ("site_mix", 0x7960_6135_ef84_ca66),
    ("read_heavy", 0x9123_4999_eadc_836c),
    ("follow_storm", 0x78b9_893d_b820_985f),
    ("activity_firehose", 0x43c1_2e03_4c48_893b),
    ("site_mix_mt", 0x7c85_b995_d6c2_0e6b),
];

/// The pin check: only the default seed on the full profile is pinned.
pub fn check_pins(report: &RunReport) -> Result<(), String> {
    if report.config.seed != PINNED_SEED || report.config.smoke {
        return Ok(());
    }
    let name = report.config.workload.name;
    let pinned_ops = PINNED_OPS.iter().find(|(w, _)| *w == name).map(|(_, d)| *d);
    if Some(report.ops_digest) != pinned_ops || report.population_digest != PINNED_POPULATION {
        return Err(format!(
            "input digests moved: ops_digest {:#018x} (pinned {:#018x}), population_digest {:#018x} (pinned {:#018x})",
            report.ops_digest,
            pinned_ops.unwrap_or(0),
            report.population_digest,
            PINNED_POPULATION
        ));
    }
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn json_escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
        if with_samples {
            let _ = write!(out, ", \"samples\": {}", m.samples);
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// The last line of standard output: what the driver reads.
pub fn result_line(report: &RunReport) -> String {
    let metrics = if report.config.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(metrics, false)
    )
}

/// Every metric by name, with unit and sample count, and the gates.
pub fn table(report: &RunReport) -> String {
    let config = &report.config;
    let mut out = format!(
        "== {} seed {} stop {} {} ({} clients, pump_every {}) ==\n",
        config.workload.name,
        config.seed,
        config.stop,
        if config.trace { "traced" } else { "untraced" },
        config.workload.clients,
        config.workload.pump_every,
    );
    let _ = writeln!(
        out,
        "ops_digest {:#018x} population_digest {:#018x}",
        report.ops_digest, report.population_digest
    );
    let phases: Vec<String> = report
        .phases
        .iter()
        .map(|(name, s)| format!("{name} {s:.3}s"))
        .collect();
    let _ = writeln!(out, "phases: {}", phases.join(", "));
    let measured = (
        "as measured, and the host's slowdown divided out above",
        &report.as_measured[..],
    );
    // Traced, the per-class percentiles are among the layer metrics.
    let sets: [(&str, &[Metric]); 3] = if config.trace {
        [
            (
                "end to end (traced: not the gated numbers)",
                &report.end_to_end,
            ),
            measured,
            ("per layer", &report.per_layer),
        ]
    } else {
        [
            ("end to end", &report.end_to_end),
            measured,
            ("per class (layer metrics, as measured)", &report.per_class),
        ]
    };
    for (title, metrics) in sets {
        if metrics.is_empty() {
            continue;
        }
        let _ = writeln!(out, "-- {title}");
        for m in metrics {
            let tail = match highest_supported(m.samples as usize) {
                Some(p) if m.name.ends_with("_us") || m.name.ends_with("_ns") => {
                    format!(" (supports {p})")
                }
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "{:<40} {:>16.4} {:<6} n={}{tail}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    if !report.rss_mark_reached {
        let _ = writeln!(
            out,
            "WARNING: the segment ended before the {} ops at which peak_rss_mb is read; it is the peak at the end of the segment and compares with no run that reached the mark",
            config.workload.rss_mark_ops
        );
    }
    for gate in &report.gates {
        let _ = writeln!(
            out,
            "[{}] {}: {}",
            if gate.passed { "PASS" } else { "FAIL" },
            gate.name,
            gate.detail
        );
    }
    let _ = writeln!(
        out,
        "attempted {} failed {} correct {}",
        report.attempted, report.failed, report.correct
    );
    out
}

/// The run stamp and every metric, as one JSON line.
pub fn record(report: &RunReport) -> String {
    let config = &report.config;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let phases: Vec<String> = report
        .phases
        .iter()
        .map(|(name, s)| format!("\"{name}\": {s}"))
        .collect();
    let gates: Vec<String> = report
        .gates
        .iter()
        .map(|g| {
            format!(
                "{{\"name\": \"{}\", \"passed\": {}, \"detail\": \"{}\"}}",
                g.name,
                g.passed,
                json_escape(&g.detail)
            )
        })
        .collect();
    format!(
        "{{{key}, \"git_revision\": \"{git}\", \"nproc\": {nproc}, \"rustc\": \"{rustc}\", \"platform\": \"{shape}\", \"clients\": {clients}, \"pump_every\": {pump_every}, \"attempted\": {attempted}, \"failed\": {failed}, \"correct\": {correct}, \"rss_mark_reached\": {rss_mark_reached}, \"ops_digest\": \"{ops:#018x}\", \"population_digest\": \"{population:#018x}\", \"phases_s\": {{{phases}}}, \"gates\": [{gates}], \"end_to_end\": {e2e}, \"as_measured\": {measured}, \"per_class\": {classes}, \"per_layer\": {layers}}}",
        key = record_key(config.workload.name, config.seed, config.stop, config.members(), config.trace),
        git = json_escape(&command_line("git", &["rev-parse", "HEAD"])),
        rustc = json_escape(&command_line("rustc", &["--version"])),
        shape = platform_shape(),
        clients = config.workload.clients,
        pump_every = config.workload.pump_every,
        attempted = report.attempted,
        failed = report.failed,
        correct = report.correct,
        rss_mark_reached = report.rss_mark_reached,
        ops = report.ops_digest,
        population = report.population_digest,
        phases = phases.join(", "),
        gates = gates.join(", "),
        e2e = metrics_json(&report.end_to_end, true),
        measured = metrics_json(&report.as_measured, true),
        classes = metrics_json(&report.per_class, true),
        layers = metrics_json(&report.per_layer, true),
    )
}

/// The head of a record: what identifies runs that compare.
fn record_key(workload: &str, seed: u64, stop: Stop, members: u64, trace: bool) -> String {
    format!("\"workload\": \"{workload}\", \"seed\": {seed}, \"stop\": \"{stop}\", \"members\": {members}, \"trace\": {trace}")
}

const RESULTS_FILE: &str = "results.jsonl";

/// Appends the record to `out/results.jsonl` and, for a traced run,
/// writes `out/trace-<workload>.json`.
pub fn write_out(out_dir: &Path, report: &RunReport) -> std::io::Result<()> {
    use std::io::Write as _;
    std::fs::create_dir_all(out_dir)?;
    let mut results = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir.join(RESULTS_FILE))?;
    writeln!(results, "{}", record(report))?;
    if let Some(trace) = &report.trace_json {
        std::fs::write(
            out_dir.join(format!("trace-{}.json", report.config.workload.name)),
            trace,
        )?;
    }
    Ok(())
}

/// `ops_per_s` of the latest untraced run of the same configuration
/// recorded in `out_dir`, if there is one.
pub fn untraced_ops_per_s(out_dir: &Path, report: &RunReport) -> Option<f64> {
    let config = &report.config;
    let key = record_key(
        config.workload.name,
        config.seed,
        config.stop,
        config.members(),
        false,
    );
    let results = std::fs::read_to_string(out_dir.join(RESULTS_FILE)).ok()?;
    let line = results.lines().rev().find(|line| line.contains(&key))?;
    let field = "\"ops_per_s\": {\"value\": ";
    let rest = &line[line.find(field)? + field.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Sets `trace.overhead_pct` from the untraced run's throughput.
pub fn set_trace_overhead(report: &mut RunReport, untraced_ops_per_s: f64) {
    let traced = report
        .end_to_end
        .iter()
        .find(|m| m.name == "ops_per_s")
        .map_or(0.0, |m| m.value);
    if let Some(metric) = report
        .per_layer
        .iter_mut()
        .find(|m| m.name == "trace.overhead_pct")
    {
        metric.value = 100.0 * (untraced_ops_per_s - traced) / untraced_ops_per_s;
        metric.samples = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let metrics = vec![Metric {
            name: "ops_per_s".into(),
            value: 1234.5,
            unit: "1/s",
            samples: 9,
        }];
        assert_eq!(
            metrics_json(&metrics, false),
            "{\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}"
        );
        assert_eq!(json_escape("a\"b\\"), "a\\\"b\\\\");
    }
}
