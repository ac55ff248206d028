//! Command line of the DisCFS benchmark. See `BENCHMARK.md`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use discfs_bench::alloc_count::{self, CountingAlloc};
use discfs_bench::plan::WorkloadKind;
use discfs_bench::report::{
    append_run, compare, compare_table, contract_line, definition, Json, RunReport, Verdict,
};
use discfs_bench::run::{run, RunConfig};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  discfs_bench --workload <name> [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--json <path>]
  discfs_bench --all [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--json <path>]
  discfs_bench --compare <base.json> <candidate.json>
workloads: seq_read seq_write meta_walk session_setup stack_mixed repl_mixed";

struct Args {
    workloads: Vec<WorkloadKind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        json: None,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                args.workloads.push(
                    WorkloadKind::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--all" => args.workloads = WorkloadKind::ALL.to_vec(),
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_string())?;
            }
            "--seconds" => {
                args.seconds = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]")?;
            }
            "--trace" => {
                // Bare `--trace` turns tracing on; the driver passes 0 or 1.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--json" => args.json = Some(PathBuf::from(value(&mut it, flag)?)),
            "--compare" => {
                let base = PathBuf::from(value(&mut it, flag)?);
                let candidate = PathBuf::from(value(&mut it, flag)?);
                args.compare = Some((base, candidate));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.compare.is_none() && args.workloads.is_empty() {
        return Err("nothing to do".to_string());
    }
    Ok(args)
}

fn print_report(report: &RunReport) {
    println!(
        "{} seed {} window {} s{}: {} operations measured, {} attempted, {} failed, {} slices kept{}",
        report.workload,
        report.seed,
        report.seconds,
        if report.traced { " (traced)" } else { "" },
        report.ops_measured,
        report.attempted,
        report.failed,
        report.slices_kept,
        if report.noisy { ", NOISY" } else { "" },
    );
    if let Some(failure) = &report.first_failure {
        println!("  first failure: {failure}");
    }
    if let Some(path) = &report.trace_file {
        println!("  spans: {path}");
    }
    let lists = [&report.end_to_end, &report.per_layer];
    for m in lists.into_iter().flatten() {
        let unit = definition(m.name).map_or("", |d| d.unit);
        println!(
            "  {:<42} {:>16.4} {:<10} spread {:>6.2}%",
            m.name,
            m.value,
            unit,
            m.spread * 100.0
        );
    }
}

fn run_compare(base: &PathBuf, candidate: &PathBuf) -> Result<bool, String> {
    let load = |path: &PathBuf| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{}: {e}", path.display())))
    };
    let rows = compare(&load(base)?, &load(candidate)?);
    if rows.is_empty() {
        return Err("the two files share no workload and metric".to_string());
    }
    print!("{}", compare_table(&rows));
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

fn main() -> ExitCode {
    alloc_count::mark_installed();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("discfs_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, candidate)) = &args.compare {
        return match run_compare(base, candidate) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("discfs_bench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut all_correct = true;
    for kind in &args.workloads {
        let cfg = RunConfig::new(
            *kind,
            args.seed,
            Duration::from_secs_f64(args.seconds),
            args.trace,
        );
        let report = run(&cfg);
        print_report(&report);
        if let Some(path) = &args.json {
            if let Err(e) = append_run(path, &report) {
                eprintln!("discfs_bench: {e}");
                all_correct = false;
            }
        }
        all_correct &= report.correct();
        // The contract line is the last thing a run prints.
        println!("{}", contract_line(&report));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
