//! Every workload end to end with a 200 ms window (1.5 s for
//! `session_setup`) and small sizes, so
//! `cargo test` stays quick in a debug build: the run is correct, its
//! output parses, and the names and counts fit `BENCHMARK.json`.

use std::time::Duration;

use discfs_bench::plan::{Scale, WorkloadKind};
use discfs_bench::report::{
    contract_line, driver_end_to_end, driver_per_layer, run_json, Json, RunReport, END_TO_END,
    FAILED_OPS_FRAC, PER_LAYER,
};
use discfs_bench::run::{run, RunConfig};

fn tiny(kind: WorkloadKind, seed: u64, trace: bool) -> RunReport {
    // A session is tens of milliseconds of signatures even optimised,
    // and tests share the machine: give it room to finish a few.
    let window = match kind {
        WorkloadKind::SessionSetup => 1500,
        _ => 200,
    };
    let cfg = RunConfig {
        scale: Scale::tiny(),
        repetitions: 1,
        ..RunConfig::new(kind, seed, Duration::from_millis(window), trace)
    };
    run(&cfg)
}

fn assert_healthy(report: &RunReport) {
    assert!(
        report.correct(),
        "{}: {} of {} failed: {:?}",
        report.workload,
        report.failed,
        report.attempted,
        report.first_failure
    );
    assert!(report.ops_measured >= 1, "{}", report.workload);
    let line = Json::parse(&contract_line(report)).expect("contract line parses");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    Json::parse(&format!("{{\"runs\": [{}]}}", run_json(report))).expect("report file parses");
}

#[test]
fn every_workload_runs_verifies_and_reports_every_end_to_end_metric() {
    for kind in WorkloadKind::ALL {
        let report = tiny(kind, 11, false);
        assert_healthy(&report);
        let names: Vec<&str> = report.end_to_end.iter().map(|m| m.name).collect();
        let defined: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, defined, "{}", report.workload);
        for m in &report.end_to_end {
            assert!(m.value.is_finite(), "{} {}", report.workload, m.name);
            // The contract wants metrics that are never zero.
            if m.name != FAILED_OPS_FRAC {
                assert!(
                    m.value > 0.0,
                    "{} {} = {}",
                    report.workload,
                    m.name,
                    m.value
                );
            }
        }
        assert_eq!(report.value(FAILED_OPS_FRAC), Some(0.0));
    }
}

#[test]
fn window_one_virtual_time_is_identical_across_runs() {
    // One request in flight and a deterministic model: the paper's axis
    // must read the same to the last bit, whatever the host does.
    for kind in [WorkloadKind::MetaWalk, WorkloadKind::SessionSetup] {
        let first = tiny(kind, 5, false);
        let second = tiny(kind, 5, false);
        assert_healthy(&first);
        let a = first.value("virtual_us_per_op").unwrap();
        let b = second.value("virtual_us_per_op").unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "{}: {a} vs {b}", kind.name());
    }
}

#[test]
fn traced_walk_attributes_an_operation_to_its_layers() {
    let report = tiny(WorkloadKind::MetaWalk, 3, true);
    assert_healthy(&report);
    let known: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    for m in &report.per_layer {
        assert!(known.contains(&m.name), "{} is not defined", m.name);
        assert!(m.value.is_finite(), "{}", m.name);
    }
    // Layers that run on this workload report; layers that do not are
    // absent, not zero.
    for present in [
        "crypto.ed25519_verify_us",
        "keynote.query_us",
        "ipsec.client_chan_us_per_op",
        "ipsec.server_chan_us_per_op",
        "onc-rpc.xdr_us_per_op",
        "netsim.msgs_per_op",
        "nfsv2.client_stub_us_per_op",
        "nfsv2.engine.residual_us_per_op",
        "discfs.service_us_per_op",
        "discfs.policy.hit_frac",
        "ffs.op_us_per_op",
        "store.busy_us_per_op",
        "env.thread_hop_us",
        "paper.discfs_over_cfsne_virtual",
        "trace.overhead_frac",
    ] {
        assert!(report.value(present).is_some(), "{present} missing");
    }
    for absent in [
        "store.remote.rpc_calls_per_op",
        "store.cached.hit_frac",
        "ffs.sync_ms",
        // The test binary does not install the counting allocator.
        "alloc.count_per_op",
    ] {
        assert!(report.value(absent).is_none(), "{absent} should be absent");
    }
    // One request and one reply per operation at window 1.
    assert_eq!(report.value("netsim.msgs_per_op"), Some(2.0));
    let ratio = report.value("paper.discfs_over_cfsne_virtual").unwrap();
    assert!((0.85..=1.15).contains(&ratio), "{ratio}");
    // The contract line of a traced run names every per-layer metric.
    let line = Json::parse(&contract_line(&report)).unwrap();
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("no metrics object")
    };
    assert_eq!(metrics.len(), driver_per_layer().count());
    // The span file exists and parses.
    let path = report.trace_file.as_ref().expect("span file written");
    let spans = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert!(!spans.get("spans").unwrap().as_array().unwrap().is_empty());
}

#[test]
fn traced_mixed_workloads_report_their_store_layers() {
    let stack = tiny(WorkloadKind::StackMixed, 4, true);
    assert_healthy(&stack);
    for present in [
        "store.cached.hit_frac",
        "store.sharded.worker_jobs_per_op",
        "store.file.journal_batches_per_kwrite",
        "store.encrypted.us_per_block",
        "ffs.sync_ms",
    ] {
        assert!(
            stack.value(present).is_some(),
            "stack_mixed: {present} missing"
        );
    }
    assert!(stack.value("store.remote.retries").is_none());
    assert!(stack.value("paper.discfs_over_cfsne_virtual").is_none());

    let repl = tiny(WorkloadKind::ReplMixed, 4, true);
    assert_healthy(&repl);
    assert_eq!(repl.value("store.remote.retries"), Some(0.0));
    assert!(repl.value("store.remote.rpc_calls_per_op").unwrap() > 0.0);
    assert!(repl.value("store.remote.wire_bytes_per_user_byte").unwrap() > 1.0);
    assert!(repl.value("store.cached.hit_frac").is_none());
}

#[test]
fn benchmark_json_matches_the_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let file = Json::parse(&text).expect("BENCHMARK.json parses");
    let Json::Obj(members) = &file else {
        panic!("not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names = |key: &str| -> Vec<String> {
        file.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    let workloads: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(names("workloads"), workloads);
    assert!((2..=8).contains(&workloads.len()));
    for w in file.get("workloads").and_then(Json::as_array).unwrap() {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }
    let bounded: Vec<_> = driver_end_to_end().collect();
    let recorded: Vec<_> = driver_per_layer().collect();
    assert_eq!(
        names("end_to_end"),
        bounded.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    assert_eq!(
        names("per_layer"),
        recorded.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    assert!(bounded.len() <= 16 && recorded.len() <= 128);
    // Between them the two lists name every metric once, except
    // failed_ops_frac, which the contract line carries as counts.
    assert_eq!(
        bounded.len() + recorded.len(),
        END_TO_END.len() - 1 + PER_LAYER.len()
    );
    let listed = file.get("end_to_end").and_then(Json::as_array).unwrap();
    let mut largest = 0.0f64;
    for (entry, def) in listed.iter().zip(&bounded) {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(def.better.word())
        );
        let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
        assert_eq!(Some(bound), def.driver_bound, "{}", def.name);
        // Widened, never narrowed, from what `--compare` applies.
        assert!(
            bound >= def.bound && bound <= 0.25,
            "{} bound {bound}",
            def.name
        );
        largest = largest.max(bound);
    }
    let setup = listed
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("setup_s"));
    assert_eq!(
        setup.unwrap().get("bound").and_then(Json::as_f64),
        Some(largest)
    );
    for (entry, def) in file
        .get("per_layer")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .zip(&recorded)
    {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(def.better.word())
        );
    }
    let seconds = file.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    assert_eq!(
        file.get("paths").and_then(Json::as_array).unwrap(),
        [Json::Str("discfs_bench".to_string())]
    );
}
