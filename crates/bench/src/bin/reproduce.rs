//! Regenerates the paper's evaluation figures (7-12) on virtual time
//! and fails when one stops having the paper's shape.
//!
//! ```text
//! reproduce [--paper|--quick] [--fig N]... [--ablate] [--scale]
//! ```
//!
//! * `--quick` (default): scaled-down workloads (16 MB Bonnie file,
//!   small source tree) — same shapes, seconds of runtime. Without a
//!   `--fig` filter the 18 virtual times (6 figures × 3 systems) must
//!   equal `reproduce_quick.txt` to the nanosecond: they depend on the
//!   disk, link and policy-charge models and on the request stream, not
//!   on the host. A change that means to move them edits that file.
//! * `--paper`: the paper's parameters (100 MB file, kernel-sized
//!   source tree).
//! * `--fig N`: run only figure N (7–12; repeatable).
//! * `--ablate`: design-choice ablations (cache size sweep, ESP on/off).
//! * `--scale`: the §7 future-work item — rigorously quantifying the
//!   scalability advantages (server state vs. user base, query latency
//!   vs. session size and vs. delegation chain length).
//!
//! Exit status: 0 when every figure run has FFS fastest and DisCFS
//! within 15 % of CFS-NE (and the golden matches, where it applies),
//! 1 when one does not, 2 on a usage error. Wall-clock costs of the
//! primitives (signatures, KeyNote queries, IKE, the policy cache) are
//! `discfs_bench --trace`'s per-layer metrics, not printed here.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use bench_harness::{run_bonnie_figure, run_search, Figure, Measurement, SystemKind};
use bonnie::TreeSpec;
use discfs::{CredentialIssuer, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;
use discfs_crypto::rng::DetRng;
use ffs::FsConfig;
use keynote::{AssertionBuilder, Session};
use netsim::{Link, LinkConfig, SimClock};

/// `--quick`'s virtual times, one `fig<N> <system> <nanoseconds>` line
/// per measurement in the order they are printed.
const QUICK_GOLDEN: &str = include_str!("reproduce_quick.txt");

struct Options {
    paper_scale: bool,
    figures: Vec<u32>,
    ablate: bool,
    scale: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!("usage: reproduce [--paper|--quick] [--fig 7..12]... [--ablate] [--scale]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        paper_scale: false,
        figures: Vec::new(),
        ablate: false,
        scale: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper" => opts.paper_scale = true,
            "--quick" => opts.paper_scale = false,
            "--ablate" => opts.ablate = true,
            "--scale" => opts.scale = true,
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

/// What the figures run so far say: whether each had the paper's shape,
/// and their virtual times in the golden file's format.
struct Outcome {
    shapes_hold: bool,
    virtual_ns: String,
}

impl Outcome {
    /// Prints the shape verdict for figure `number` and records it with
    /// the three virtual times.
    fn record(&mut self, number: u32, results: &[(SystemKind, Measurement)]) {
        for (kind, m) in results {
            writeln!(
                self.virtual_ns,
                "fig{number} {} {}",
                kind.label(),
                m.virtual_time.as_nanos()
            )
            .expect("writing to a String");
        }
        let get = |kind: SystemKind| {
            results
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, m)| m.virtual_time)
                .expect("all systems measured")
        };
        let ffs = get(SystemKind::Ffs);
        let cfs = get(SystemKind::CfsNe);
        let dis = get(SystemKind::Discfs);
        let ratio = dis.as_secs_f64() / cfs.as_secs_f64();
        let ffs_ok = ffs < cfs && ffs < dis;
        let close = (0.85..1.15).contains(&ratio);
        println!(
            "  shape: FFS fastest: {}  |  DisCFS/CFS-NE = {ratio:.3} ({})",
            if ffs_ok { "yes" } else { "NO" },
            if close {
                "virtually identical, as in the paper"
            } else {
                "DIVERGES"
            },
        );
        self.shapes_hold &= ffs_ok && close;
    }

    /// Compares the recorded virtual times with the checked-in golden,
    /// printing every line that differs.
    fn matches_quick_golden(&self) -> bool {
        if self.virtual_ns == QUICK_GOLDEN {
            println!("\ngolden: all virtual times equal reproduce_quick.txt");
            return true;
        }
        println!("\ngolden: virtual times differ from reproduce_quick.txt");
        let mut expected = QUICK_GOLDEN.lines();
        for got in self.virtual_ns.lines() {
            let expected = expected.next().unwrap_or("(nothing)");
            if expected != got {
                println!("  expected {expected}\n       got {got}");
            }
        }
        for expected in expected {
            println!("  expected {expected}\n       got (nothing)");
        }
        false
    }
}

fn run_bonnie_figures(opts: &Options, outcome: &mut Outcome) {
    let (file_size, fs_config) = if opts.paper_scale {
        (100 * 1024 * 1024, FsConfig::standard())
    } else {
        (16 * 1024 * 1024, FsConfig::standard())
    };
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
            let m = run_bonnie_figure(kind, *figure, file_size, fs_config);
            print_row(kind.label(), &m);
            results.push((kind, m));
        }
        outcome.record(number, &results);
    }
}

fn run_figure12(opts: &Options, outcome: &mut Outcome) {
    if !(opts.figures.is_empty() || opts.figures.contains(&12)) {
        return;
    }
    let spec = if opts.paper_scale {
        TreeSpec::kernel_like()
    } else {
        TreeSpec {
            dirs: 8,
            files_per_dir: 12,
            avg_file_size: 4 * 1024,
            seed: 0x0B5D,
        }
    };
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
    outcome.record(12, &results);
}

fn bench_loop<F: FnMut()>(iterations: u32, mut f: F) -> Duration {
    let start = Instant::now();
    for _ in 0..iterations {
        f();
    }
    start.elapsed() / iterations
}

fn run_ablations(opts: &Options) {
    println!("\nAblations (DESIGN.md §5):");

    // Cache size sweep over the Figure 12 workload.
    let spec = if opts.paper_scale {
        TreeSpec::kernel_like()
    } else {
        TreeSpec {
            dirs: 6,
            files_per_dir: 10,
            avg_file_size: 2048,
            seed: 0x0B5D,
        }
    };
    println!("  policy cache size sweep (search workload):");
    for cache_size in [0usize, 16, 128, 1024] {
        let (_, m) = run_search(SystemKind::Discfs, &spec, FsConfig::standard(), cache_size);
        println!(
            "    cache {cache_size:>5}: virtual {:>10}  wall {:>10}",
            fmt_duration(m.virtual_time),
            fmt_duration(m.wall_time)
        );
    }

    // ESP on/off: CFS-NE over plain vs. IPsec transport.
    println!("  secure channel cost (64×8KB writes, wall time):");
    for secure in [false, true] {
        let clock = SimClock::new();
        let fs = std::sync::Arc::new(ffs::Ffs::format_in_memory(FsConfig::small()));
        let service = std::sync::Arc::new(cfs::CfsService::passthrough(fs, 1));
        let (ce, se) = Link::loopback(&clock);
        let remote = if secure {
            let server_key = SigningKey::from_seed(&[9; 32]);
            let client_key = SigningKey::from_seed(&[8; 32]);
            let service = service.clone();
            std::thread::spawn(move || {
                let mut rng = DetRng::new(2);
                let chan = ipsec::ike::respond(se, &server_key, &mut rng).unwrap();
                nfsv2::server::serve_connection(service, Box::new(chan));
            });
            let mut rng = DetRng::new(1);
            let chan = ipsec::ike::initiate(ce, &client_key, None, &mut rng).unwrap();
            nfsv2::RemoteFs::mount(nfsv2::NfsClient::new(Box::new(chan)), "/").unwrap()
        } else {
            nfsv2::server::spawn(service, Box::new(ipsec::PlainChannel::new(se)));
            nfsv2::RemoteFs::mount(
                nfsv2::NfsClient::new(Box::new(ipsec::PlainChannel::new(ce))),
                "/",
            )
            .unwrap()
        };
        let fh = remote.write_file("espbench", b"").unwrap();
        let block = vec![0xA5u8; 8192];
        // Warm up caches and thread scheduling before measuring.
        for i in 0..64u64 {
            remote.client().write_all(&fh, i * 8192, &block).unwrap();
        }
        let t = bench_loop(8, || {
            for i in 0..64u64 {
                remote.client().write_all(&fh, i * 8192, &block).unwrap();
            }
        });
        println!(
            "    {}: {:>10} per 512 KB",
            if secure {
                "ESP (ChaCha20-Poly1305)"
            } else {
                "plain                  "
            },
            fmt_duration(t)
        );
    }
}

/// The §7 scalability quantification: how server burden grows with the
/// user base, compared to the account/ACL model the paper argues
/// against.
fn run_scale() {
    println!("\nScalability (§7 future work, quantified):");

    // 1. Server state as users are *granted access* (credentials are
    // issued offline): identically zero — no accounts, no ACL entries.
    println!("  server-side state vs. users granted access:");
    let bed = Testbed::instant();
    let bob = SigningKey::from_seed(&[0xB0; 32]);
    let mut bob_client = bed.connect(&bob).unwrap();
    let grant = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue();
    bob_client.submit_credential(&grant).unwrap();
    let file = bob_client
        .create_with_credential(&bob_client.remote().root(), "shared", 0o644)
        .unwrap();
    bob_client
        .client()
        .write_all(&file.fh, 0, b"payload")
        .unwrap();
    for n in [10usize, 100, 1000] {
        // Bob issues n credentials; the server never hears about it.
        let creds: Vec<String> = (0..n)
            .map(|i| {
                let user = SigningKey::from_seed(&[
                    (i % 251) as u8,
                    (i / 251) as u8,
                    3,
                    4,
                    5,
                    6,
                    7,
                    8,
                    9,
                    10,
                    11,
                    12,
                    13,
                    14,
                    15,
                    16,
                    17,
                    18,
                    19,
                    20,
                    21,
                    22,
                    23,
                    24,
                    25,
                    26,
                    27,
                    28,
                    29,
                    30,
                    31,
                    32,
                ]);
                CredentialIssuer::new(&bob)
                    .holder(&user.public())
                    .grant(&file.fh, Perm::R)
                    .issue()
            })
            .collect();
        std::hint::black_box(&creds);
        println!(
            "    {n:>5} users granted offline → server sessions: 1, ACL entries: 0, passwd entries: 0"
        );
    }

    // 2. First-access latency for the k-th ACTIVE user stays flat: each
    // session carries only its own chain.
    println!("  first-access wall latency by number of concurrently active users:");
    for active in [1usize, 8, 32] {
        let mut clients = Vec::new();
        for i in 0..active {
            let user = SigningKey::from_seed(&[200u8.wrapping_add(i as u8); 32]);
            let cred = CredentialIssuer::new(&bob)
                .holder(&user.public())
                .grant(&file.fh, Perm::R)
                .issue();
            let c = bed.connect(&user).unwrap();
            c.submit_credential(&file.credential).unwrap();
            c.submit_credential(&cred).unwrap();
            clients.push(c);
        }
        let newcomer = SigningKey::from_seed(&[
            0xF1,
            active as u8,
            3,
            4,
            5,
            6,
            7,
            8,
            9,
            10,
            11,
            12,
            13,
            14,
            15,
            16,
            17,
            18,
            19,
            20,
            21,
            22,
            23,
            24,
            25,
            26,
            27,
            28,
            29,
            30,
            31,
            32,
        ]);
        let cred = CredentialIssuer::new(&bob)
            .holder(&newcomer.public())
            .grant(&file.fh, Perm::R)
            .issue();
        let c = bed.connect(&newcomer).unwrap();
        c.submit_credential(&file.credential).unwrap();
        c.submit_credential(&cred).unwrap();
        let start = Instant::now();
        c.client().read_all(&file.fh, 0, 7).unwrap();
        println!(
            "    {active:>3} active sessions → newcomer first read: {:>10}",
            fmt_duration(start.elapsed())
        );
    }

    // 3. Query latency vs. credentials held in ONE session (the real
    // scaling dimension of the compliance checker).
    println!("  policy-query wall latency by session credential count:");
    for count in [1usize, 10, 100, 500] {
        let user = SigningKey::from_seed(&[0xAB; 32]);
        let bed2 = Testbed::with_config(FsConfig::small(), LinkConfig::instant(), 0);
        let client = bed2.connect(&user).unwrap();
        // count-1 irrelevant credentials + 1 relevant.
        for i in 0..count.saturating_sub(1) {
            let other = SigningKey::from_seed(&[
                (i % 251) as u8,
                (i / 251) as u8,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
                9,
            ]);
            let noise = CredentialIssuer::new(bed2.admin())
                .holder(&other.public())
                .grant_handle_string(&format!("{}.1", 1000 + i), Perm::R)
                .issue();
            client.submit_credential(&noise).unwrap();
        }
        let relevant = CredentialIssuer::new(bed2.admin())
            .holder(&user.public())
            .grant_handle_string("1.1", Perm::RWX)
            .issue();
        client.submit_credential(&relevant).unwrap();
        let root = client.remote().root();
        let service = bed2.service().clone();
        let peer = user.public();
        let t = bench_loop(50, || {
            std::hint::black_box(service.permissions_for(&peer, &root));
        });
        println!(
            "    {count:>4} credentials in session → query: {:>10}",
            fmt_duration(t)
        );
    }

    // 4. Query latency vs. delegation chain length: the paper's
    // "arbitrary length" chains, one credential per link.
    println!("  keynote query wall latency by delegation chain length:");
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
        let t = bench_loop(100, || {
            std::hint::black_box(session.query().unwrap());
        });
        println!("    {links:>4} links → query: {:>10}", fmt_duration(t));
    }
}

fn main() {
    let opts = parse_args();
    println!(
        "DisCFS reproduction — evaluation harness ({} scale)",
        if opts.paper_scale { "paper" } else { "quick" }
    );
    println!("Systems: FFS (local), CFS-NE (baseline), DisCFS (this paper).");

    let mut outcome = Outcome {
        shapes_hold: true,
        virtual_ns: String::new(),
    };
    // No flag at all means all six figures; `--ablate` or `--scale`
    // alone means none.
    let all_figures = opts.figures.is_empty() && !opts.ablate && !opts.scale;
    if all_figures || !opts.figures.is_empty() {
        run_bonnie_figures(&opts, &mut outcome);
        run_figure12(&opts, &mut outcome);
    }
    if opts.ablate {
        run_ablations(&opts);
    }
    if opts.scale {
        run_scale();
    }
    let golden_applies = all_figures && !opts.paper_scale;
    if !outcome.shapes_hold || (golden_applies && !outcome.matches_quick_golden()) {
        std::process::exit(1);
    }
}
