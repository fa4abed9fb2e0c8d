//! The `--smoke` profile, in process: all five workloads with their
//! gates, untraced and traced, and the contract in `BENCHMARK.json`.

use site_benchmark::report::result_line;
use site_benchmark::run::{run, Metric, RunConfig, RunReport, Stop};
use site_benchmark::workloads::{Workload, WORKLOADS};

fn smoke(workload: &'static Workload, trace: bool) -> RunReport {
    let config = RunConfig {
        workload,
        seed: 42,
        stop: Stop::Ops(2_000),
        trace,
        smoke: true,
    };
    let report = run(&config).expect("the run completes").report;
    let red: Vec<_> = report.gates.iter().filter(|g| !g.passed).collect();
    assert!(red.is_empty(), "{}: red gates {red:?}", workload.name);
    assert!(
        report.correct && report.failed == 0,
        "{}: {} ops failed",
        workload.name,
        report.failed
    );
    assert_eq!(report.attempted, 2_000, "{}", workload.name);
    report
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

/// The `"name"` values of one array of `BENCHMARK.json`.
fn contract_names(section: &str) -> Vec<String> {
    let contract =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let from = contract.find(&format!("\"{section}\"")).unwrap();
    let body = &contract[from..from + contract[from..].find(']').unwrap()];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn untraced_runs_report_every_end_to_end_metric_above_zero() {
    let names = contract_names("end_to_end");
    assert_eq!(names.len(), 5);
    for workload in &WORKLOADS {
        let report = smoke(workload, false);
        let reported: Vec<String> = report.end_to_end.iter().map(|m| m.name.clone()).collect();
        assert_eq!(reported, names, "{}", workload.name);
        for metric in &report.end_to_end {
            assert!(
                metric.value > 0.0,
                "{}: {} is {}",
                workload.name,
                metric.name,
                metric.value
            );
        }
        assert!(report.per_layer.is_empty());
        // The host's slowdown is divided out of every gated time, and only
        // where one client runs alone.
        let measured = |name: &str| value(&report.as_measured, name);
        let slowdown = measured("host.slowdown");
        assert!(slowdown > 0.0 && (workload.clients == 1 || slowdown == 1.0));
        let setup = value(&report.end_to_end, "setup_s") * measured("host.setup_slowdown");
        assert!((setup - measured("measured.setup_s")).abs() < 1e-9);
        let line = result_line(&report);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": ") && line.contains("\"setup_s\"")
        );
    }
}

#[test]
fn traced_runs_report_every_layer_and_close() {
    let names = contract_names("per_layer");
    for workload in &WORKLOADS {
        let report = smoke(workload, true);
        let reported: Vec<String> = report.per_layer.iter().map(|m| m.name.clone()).collect();
        assert_eq!(reported, names, "{}", workload.name);
        let layer = |name: &str| value(&report.per_layer, name);

        // The spans must explain the clients' timed windows. On the
        // firehose they cannot (README, "Where this differs"): a buffered
        // send is as short as the two clock reads around it.
        let coverage = layer("trace.coverage");
        assert!(coverage > 0.0 && coverage <= 1.0 + 1e-9);
        if workload.name != "activity_firehose" {
            assert!(coverage >= 0.95, "{}: coverage {coverage}", workload.name);
        }
        assert!(layer("trace.spans") >= 2_000.0);
        assert_eq!(layer("zk.watch_events_fired"), 0.0, "a failover happened");
        assert_eq!(layer("helix.transitions_fired"), 0.0, "a failover happened");
        assert!(report
            .trace_json
            .as_deref()
            .is_some_and(|t| t.contains("\"op_id\"")));

        // The bypass predictions: a layer the mix does not use does no work.
        match workload.name {
            "read_heavy" => {
                assert_eq!(layer("sqlstore.commits"), 0.0);
                assert_eq!(layer("kafka.producer_requests"), 0.0);
                assert_eq!(layer("databus.windows_ingested"), 0.0);
                assert!(layer("core.pump.share") < 0.05);
                assert!(layer("espresso.router_requests") > 0.0 && layer("voldemort.gets") > 0.0);
            }
            "follow_storm" => {
                assert_eq!(layer("espresso.router_requests"), 0.0);
                assert_eq!(layer("kafka.producer_requests"), 0.0);
                assert_eq!(layer("sqlstore.commits"), layer("databus.windows_ingested"));
                assert!(layer("voldemort.puts") > 0.0);
            }
            "activity_firehose" => {
                assert_eq!(layer("sqlstore.commits"), 0.0);
                assert_eq!(layer("espresso.router_requests"), 0.0);
                assert!(
                    layer("kafka.msgs_per_request") > 1.0
                        && layer("kafka.fetch_bytes_out_mb") > 0.0
                );
            }
            "site_mix_mt" => {
                assert!(layer("core.follow_write_p50_us") > 0.0 && layer("core.pump.share") > 0.0);
            }
            _ => {}
        }
    }
}

#[test]
fn the_same_ops_give_the_same_registry_counts() {
    let workload = &WORKLOADS[0];
    let (a, b) = (smoke(workload, true), smoke(workload, true));
    assert_eq!(a.ops_digest, b.ops_digest);
    assert_eq!(a.population_digest, b.population_digest);
    for name in [
        "sqlstore.commits",
        "databus.windows_ingested",
        "databus.windows_processed",
        "voldemort.puts",
        "kafka.producer_requests",
        "kafka.wire_bytes_per_msg",
        "espresso.router_requests",
    ] {
        assert_eq!(
            value(&a.per_layer, name),
            value(&b.per_layer, name),
            "{name}"
        );
    }
}

/// The contract gates the workloads of one client; the concurrent one is
/// run by hand (README, "Why `site_mix_mt` is not gated").
#[test]
fn contract_names_the_one_client_workloads() {
    let one_client: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| w.clients == 1)
        .map(|w| w.name.to_string())
        .collect();
    assert_eq!(contract_names("workloads"), one_client);
}
