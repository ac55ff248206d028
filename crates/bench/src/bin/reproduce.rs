//! Regenerates the paper's evaluation figures (7-12) on virtual time
//! and fails when one stops having the paper's shape.
//!
//! ```text
//! reproduce [--paper|--quick] [--fig N]... [--scale]
//! ```
//!
//! * `--quick` (default): scaled-down workloads (16 MB Bonnie file,
//!   small source tree) — same shapes, seconds of runtime. Their 18
//!   virtual times (6 figures × 3 systems) are held to
//!   `reproduce_quick.txt`, to the nanosecond, by the `golden` test of
//!   this package (`cargo test -p bench_harness --test golden`).
//! * `--paper`: the paper's parameters (100 MB file, kernel-sized
//!   source tree).
//! * `--fig N`: run only figure N (7–12; repeatable).
//! * `--scale`: KeyNote query wall latency by delegation chain length
//!   (1-16 links), the one scalability number (§7) nothing else reports.
//!
//! CFS-NE and DisCFS run on the same engine, link, disk and client code
//! (`bench_harness::build_world`), so a figure's two remote rows differ
//! by what the paper varies: the service and the channel.
//!
//! Exit status: 0 when every figure run has FFS fastest and DisCFS
//! within 15 % of CFS-NE, 1 when one does not, 2 on a usage error.
//! Nothing here repeats a number with another source: wall-clock costs
//! of the primitives (signatures, KeyNote queries, IKE, ESP, credential
//! submission, the policy cache) are `discfs_bench --trace`'s per-layer
//! metrics, and the cache-size sweep is the `discfs` unit test
//! `a_128_entry_cache_absorbs_the_compliance_check_cost`.

use std::time::{Duration, Instant};

use bench_harness::{run_bonnie_figure, run_search, Figure, Measurement, Scale, Shape, SystemKind};
use discfs::{CredentialIssuer, Perm};
use discfs_crypto::ed25519::SigningKey;
use ffs::FsConfig;
use keynote::{AssertionBuilder, Session};

struct Options {
    size: Scale,
    figures: Vec<u32>,
    chains: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!("usage: reproduce [--paper|--quick] [--fig 7..12]... [--scale]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        size: Scale::Quick,
        figures: Vec::new(),
        chains: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper" => opts.size = Scale::Paper,
            "--quick" => opts.size = Scale::Quick,
            "--scale" => opts.chains = true,
            "--fig" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n @ 7..=12) => opts.figures.push(n),
                _ => usage("--fig requires a number 7..12"),
            },
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    opts
}

fn fmt_duration(d: Duration) -> String {
    if d.as_secs() >= 10 {
        format!("{:.1} s", d.as_secs_f64())
    } else if d.as_millis() >= 10 {
        format!("{:.1} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1} µs", d.as_secs_f64() * 1e6)
    }
}

fn print_row(label: &str, m: &Measurement) {
    println!(
        "  {label:<8} {:>12.0} K/s  virtual {:>10}  wall {:>10}",
        m.kb_per_sec_virtual(),
        fmt_duration(m.virtual_time),
        fmt_duration(m.wall_time),
    );
}

/// Prints the shape verdict for one figure's three measurements and
/// returns whether it holds.
fn print_shape(results: &[(SystemKind, Measurement)]) -> bool {
    let shape = Shape::of(results);
    println!(
        "  shape: FFS fastest: {}  |  DisCFS/CFS-NE = {:.3} ({})",
        if shape.ffs_fastest { "yes" } else { "NO" },
        shape.ratio,
        if shape.close() {
            "virtually identical, as in the paper"
        } else {
            "DIVERGES"
        },
    );
    shape.ffs_fastest && shape.close()
}

/// Runs the selected Bonnie figures; returns whether all kept their
/// shape.
fn run_bonnie_figures(opts: &Options) -> bool {
    let file_size = opts.size.bonnie_file_size();
    let mut shapes_hold = true;
    let selected = |n: u32| opts.figures.is_empty() || opts.figures.contains(&n);
    let figure_numbers = [7u32, 8, 9, 10, 11];
    for (figure, number) in Figure::ALL.iter().zip(figure_numbers) {
        if !selected(number) {
            continue;
        }
        println!(
            "\n{} — file {} MB",
            figure.caption(),
            file_size / (1024 * 1024)
        );
        let mut results = Vec::new();
        for kind in SystemKind::ALL {
            let m = run_bonnie_figure(kind, *figure, file_size, FsConfig::standard());
            print_row(kind.label(), &m);
            results.push((kind, m));
        }
        shapes_hold &= print_shape(&results);
    }
    shapes_hold
}

/// Runs Figure 12 if selected; returns whether it kept its shape.
fn run_figure12(opts: &Options) -> bool {
    if !(opts.figures.is_empty() || opts.figures.contains(&12)) {
        return true;
    }
    let spec = opts.size.search_tree();
    println!(
        "\nFigure 12: Filesystem Search — wc over every .c/.h ({} files, cache=128)",
        spec.dirs * spec.files_per_dir
    );
    let mut results = Vec::new();
    for kind in SystemKind::ALL {
        let (totals, m) = run_search(kind, &spec, FsConfig::standard(), 128);
        println!(
            "  {:<8} time(virtual) {:>10}  wall {:>10}   [{} files, {} lines, {} words, {} bytes]",
            kind.label(),
            fmt_duration(m.virtual_time),
            fmt_duration(m.wall_time),
            totals.files,
            totals.lines,
            totals.words,
            totals.bytes
        );
        results.push((kind, m));
    }
    print_shape(&results)
}

/// The §7 scalability item nothing else measures: what a KeyNote query
/// costs as the delegation chain behind the requester grows.
fn run_scale() {
    // The paper's "arbitrary length" chains, one credential per link.
    println!("KeyNote query wall latency by delegation chain length (§7):");
    let policy = AssertionBuilder::new()
        .licensee_key(&SigningKey::from_seed(&[1; 32]).public())
        .policy();
    for links in [1usize, 2, 4, 8, 16] {
        let mut keys = vec![SigningKey::from_seed(&[1; 32])];
        for i in 0..links {
            keys.push(SigningKey::from_seed(&[40 + i as u8; 32]));
        }
        let mut session = Session::new(&Perm::VALUE_SET);
        session.add_policy(&policy).unwrap();
        for pair in keys.windows(2) {
            let link = CredentialIssuer::new(&pair[0])
                .holder(&pair[1].public())
                .grant_handle_string("42.1", Perm::RW)
                .issue();
            session.add_credential(&link).unwrap();
        }
        session.set_attribute("app_domain", "DisCFS");
        session.set_attribute("HANDLE", "42.1");
        session.add_requester_key(&keys.last().unwrap().public());
        assert_eq!(session.query().unwrap().as_str(), "RW");
        const QUERIES: u32 = 100;
        let start = Instant::now();
        for _ in 0..QUERIES {
            std::hint::black_box(session.query().unwrap());
        }
        let per_query = start.elapsed() / QUERIES;
        println!(
            "  {links:>4} links → query: {:>10}",
            fmt_duration(per_query)
        );
    }
}

fn main() {
    let opts = parse_args();
    let mut shapes_hold = true;
    // No flag at all means all six figures; `--scale` alone means none.
    let all_figures = opts.figures.is_empty() && !opts.chains;
    if all_figures || !opts.figures.is_empty() {
        println!(
            "DisCFS reproduction — evaluation harness ({} scale)",
            if opts.size == Scale::Paper {
                "paper"
            } else {
                "quick"
            }
        );
        println!("Systems: FFS (local), CFS-NE (baseline), DisCFS (this paper).");
        shapes_hold &= run_bonnie_figures(&opts);
        shapes_hold &= run_figure12(&opts);
    }
    if opts.chains {
        run_scale();
    }
    if !shapes_hold {
        std::process::exit(1);
    }
}
