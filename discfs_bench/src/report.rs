//! Metric definitions, the report a run produces, its JSON forms, and
//! `--compare`.
//!
//! Two JSON forms leave the program. The **contract line**, the last
//! line of standard output, is what the benchmark driver reads:
//! `correct`, `attempted`, `failed` and every metric of the mode's list
//! by name. The **report file** (`--json`) accumulates whole runs —
//! seed, slice spreads, the noisy flag, the first failure — and is what
//! `--compare` reads.

use std::fmt::Write as _;
use std::path::Path;

use crate::stats::{median, quartile_spread};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric the benchmark defines.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as later issues refer to it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline's median by which it may worsen before
    /// `--compare` calls it a regression (end-to-end metrics only).
    pub bound: f64,
    /// The bound `BENCHMARK.json` gives the benchmark driver, for the
    /// end-to-end metrics the build machine resolves within the
    /// driver's cap of 25 %. The driver refuses a benchmark whose
    /// metric varies by more than its bound between runs of one commit,
    /// and every wall-clock metric here does at times (26-55 % between
    /// the quartiles of ten runs, see `BENCHMARK.md`). Those have
    /// `None`: the driver is told of them in the list that carries no
    /// bound, the traced mode's, and `--compare` judges them with the
    /// bound above and an honest `Unresolved`.
    pub driver_bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    driver_bound: Option<f64>,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        driver_bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        driver_bound: None,
    }
}

/// `failed_ops_frac`: operations that failed over operations attempted.
/// Any increase is a regression. The contract line carries it as
/// `failed` and `attempted` instead of as a metric, because a healthy
/// run reads 0 and the contract wants metrics that never do.
pub const FAILED_OPS_FRAC: &str = "failed_ops_frac";

/// The end-to-end metrics, in report order.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25, Some(0.25)),
    e2e("ops_per_s", "1/s", Better::Higher, 0.10, None),
    e2e("read_ops_per_s", "1/s", Better::Higher, 0.15, None),
    e2e("write_ops_per_s", "1/s", Better::Higher, 0.15, None),
    e2e("op_p50_us", "us", Better::Lower, 0.10, None),
    e2e("op_p99_us", "us", Better::Lower, 0.20, None),
    // Exact with one request in flight; with several the number of
    // reply batches moves it by up to 1.3 % between runs.
    e2e("virtual_us_per_op", "us", Better::Lower, 0.01, Some(0.03)),
    e2e("cpu_us_per_op", "us", Better::Lower, 0.10, None),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, Some(0.15)),
    e2e(FAILED_OPS_FRAC, "frac", Better::Lower, 0.0, None),
];

/// The end-to-end metrics the driver bounds: the contract line of an
/// untraced run.
pub fn driver_end_to_end() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().filter(|d| d.driver_bound.is_some())
}

/// The metrics the driver only records: every per-layer metric, then
/// the end-to-end metrics it cannot bound. The contract line of a
/// traced run.
pub fn driver_per_layer() -> impl Iterator<Item = &'static MetricDef> {
    PER_LAYER.iter().chain(
        END_TO_END
            .iter()
            .filter(|d| d.driver_bound.is_none() && d.name != FAILED_OPS_FRAC),
    )
}

/// The per-layer metrics, in report order. A run reports the ones whose
/// layer does work on its workload.
pub const PER_LAYER: &[MetricDef] = &[
    layer("crypto.ed25519_sign_us", "us", Better::Lower),
    layer("crypto.ed25519_verify_us", "us", Better::Lower),
    layer("crypto.x25519_us", "us", Better::Lower),
    layer("crypto.sha256_mb_per_s", "MB/s", Better::Higher),
    layer("crypto.chacha20poly1305_mb_per_s", "MB/s", Better::Higher),
    layer("keynote.parse_verify_us", "us", Better::Lower),
    layer("keynote.query_us", "us", Better::Lower),
    layer("ipsec.ike_handshake_ms", "ms", Better::Lower),
    layer("ipsec.esp_seal_us_per_msg", "us", Better::Lower),
    layer("ipsec.esp_open_us_per_msg", "us", Better::Lower),
    layer("ipsec.client_chan_us_per_op", "us", Better::Lower),
    layer("ipsec.server_chan_us_per_op", "us", Better::Lower),
    layer("onc-rpc.xdr_us_per_op", "us", Better::Lower),
    layer("onc-rpc.frame_us_per_op", "us", Better::Lower),
    layer("netsim.msgs_per_op", "1/op", Better::Lower),
    layer("netsim.wire_bytes_per_op", "B/op", Better::Lower),
    layer("netsim.virtual_us_per_op", "us", Better::Lower),
    layer("netsim.send_recv_us", "us", Better::Lower),
    layer("nfsv2.client_stub_us_per_op", "us", Better::Lower),
    layer("nfsv2.engine.requests_per_batch", "1/batch", Better::Higher),
    layer("nfsv2.engine.pauses", "count", Better::Lower),
    layer("nfsv2.engine.queue_high_water", "count", Better::Lower),
    layer("nfsv2.engine.residual_us_per_op", "us", Better::Lower),
    layer("discfs.service_us_per_op", "us", Better::Lower),
    layer("discfs.self_us_per_op", "us", Better::Lower),
    layer("discfs.policy.hit_frac", "frac", Better::Higher),
    layer("discfs.policy.evictions_per_kop", "1/kop", Better::Lower),
    layer("discfs.policy.decide_hit_us", "us", Better::Lower),
    layer("discfs.policy.decide_miss_us", "us", Better::Lower),
    layer(
        "discfs.auth.exclusive_per_decision",
        "1/decision",
        Better::Lower,
    ),
    layer("discfs.submit_credential_ms", "ms", Better::Lower),
    layer("ffs.op_us_per_op", "us", Better::Lower),
    layer("ffs.self_us_per_op", "us", Better::Lower),
    layer("ffs.store_reads_per_op", "1/op", Better::Lower),
    layer("ffs.store_writes_per_op", "1/op", Better::Lower),
    layer("ffs.sync_ms", "ms", Better::Lower),
    layer("store.busy_us_per_op", "us", Better::Lower),
    layer("store.read_us_per_call", "us", Better::Lower),
    layer("store.write_us_per_call", "us", Better::Lower),
    layer("store.flush_ms_per_call", "ms", Better::Lower),
    layer("store.sim.virtual_us_per_op", "us", Better::Lower),
    layer("store.cached.hit_frac", "frac", Better::Higher),
    layer(
        "store.cached.readahead_blocks_per_kop",
        "1/kop",
        Better::Lower,
    ),
    layer(
        "store.cached.writeback_blocks_per_kop",
        "1/kop",
        Better::Lower,
    ),
    layer("store.sharded.worker_jobs_per_op", "1/op", Better::Lower),
    layer(
        "store.file.journal_batches_per_kwrite",
        "1/kwrite",
        Better::Lower,
    ),
    layer("store.encrypted.us_per_block", "us", Better::Lower),
    layer("store.remote.rpc_calls_per_op", "1/op", Better::Lower),
    layer(
        "store.remote.wire_bytes_per_user_byte",
        "ratio",
        Better::Lower,
    ),
    layer("store.remote.retries", "count", Better::Lower),
    layer("store.remote.rtt_us", "us", Better::Lower),
    layer("store.replicated.replica_reads", "count", Better::Lower),
    layer("store.replicated.read_repairs", "count", Better::Lower),
    layer("alloc.count_per_op", "1/op", Better::Lower),
    layer("alloc.bytes_per_op", "B/op", Better::Lower),
    layer("env.steal_frac", "frac", Better::Lower),
    layer("env.spin_ms", "ms", Better::Lower),
    layer("env.thread_hop_us", "us", Better::Lower),
    layer("env.slices_kept", "count", Better::Higher),
    layer("paper.discfs_over_cfsne_virtual", "ratio", Better::Lower),
    layer("paper.discfs_over_cfsne_wall", "ratio", Better::Lower),
    layer("trace.op_mean_us", "us", Better::Lower),
    layer("trace.op_p50_us", "us", Better::Lower),
    layer("trace.overhead_frac", "frac", Better::Lower),
];

/// The definition of `name` in either table.
pub fn definition(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Quartile spread over the run's slices (or cycles) as a share of
    /// the median; 0 for a metric taken once per run.
    pub spread: f64,
}

impl Metric {
    /// A metric taken once per run.
    pub fn once(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            spread: 0.0,
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// The seed every input was generated from.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Whether this was the traced mode.
    pub traced: bool,
    /// Operations issued in the measured window.
    pub attempted: u64,
    /// Of those and of every check outside the window, how many failed.
    pub failed: u64,
    /// The first failure, verbatim.
    pub first_failure: Option<String>,
    /// Operations completed inside the measured window.
    pub ops_measured: u64,
    /// Slices that passed the steal filter.
    pub slices_kept: usize,
    /// Less than half of the slices were clean.
    pub noisy: bool,
    /// Hardware threads the run had.
    pub parallelism: usize,
    /// End-to-end metrics (both modes compute them; the contract line
    /// of a traced run does not carry them).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced mode).
    pub per_layer: Vec<Metric>,
    /// Where the span file went.
    pub trace_file: Option<String>,
}

impl RunReport {
    /// Whether every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The value of `name`, if measured.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A JSON number with all its digits; non-finite values become 0 (JSON
/// has no infinity, and the contract wants a number).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out
}

/// The contract line: [`driver_per_layer`] for a traced run, else
/// [`driver_end_to_end`]. A per-layer metric whose layer does no work
/// on the workload reads 0 here (the contract wants every name on every
/// workload) and is absent from the report file.
pub fn contract_line(report: &RunReport) -> String {
    let defs: Vec<&MetricDef> = if report.traced {
        driver_per_layer().collect()
    } else {
        driver_end_to_end().collect()
    };
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                number(report.value(d.name).unwrap_or(0.0)),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// One run as a JSON object for the report file.
pub fn run_json(report: &RunReport) -> String {
    let metrics = |list: &[Metric]| -> String {
        let fields: Vec<String> = list
            .iter()
            .map(|m| {
                let unit = definition(m.name).map_or("", |d| d.unit);
                format!(
                    "      \"{}\": {{\"value\": {}, \"unit\": \"{unit}\", \"spread\": {}}}",
                    m.name,
                    number(m.value),
                    number(m.spread)
                )
            })
            .collect();
        format!("{{\n{}\n    }}", fields.join(",\n"))
    };
    let failure = match &report.first_failure {
        Some(f) => format!("\"{}\"", escape(f)),
        None => "null".to_string(),
    };
    let trace_file = match &report.trace_file {
        Some(f) => format!("\"{}\"", escape(f)),
        None => "null".to_string(),
    };
    format!(
        "  {{\n    \"workload\": \"{}\",\n    \"seed\": {},\n    \"seconds\": {},\n    \"traced\": {},\n    \"correct\": {},\n    \"attempted\": {},\n    \"failed\": {},\n    \"first_failure\": {failure},\n    \"ops_measured\": {},\n    \"slices_kept\": {},\n    \"noisy\": {},\n    \"parallelism\": {},\n    \"trace_file\": {trace_file},\n    \"end_to_end\": {},\n    \"per_layer\": {}\n  }}",
        escape(&report.workload),
        report.seed,
        number(report.seconds),
        report.traced,
        report.correct(),
        report.attempted,
        report.failed,
        report.ops_measured,
        report.slices_kept,
        report.noisy,
        report.parallelism,
        metrics(&report.end_to_end),
        metrics(&report.per_layer),
    )
}

/// A parsed JSON value (the subset the report file uses, which is all
/// of JSON except exotic number forms).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in file order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A description of the first syntax error, with its byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end")),
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !members.is_empty() && !self.eat(",") {
                        return Err(self.error("expected ',' or '}'"));
                    }
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.error("expected ':'"));
                    }
                    members.push((key, self.value()?));
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(self.error("expected ',' or ']'"));
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.error("expected a value"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
                }
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

/// Appends `report` to the report file at `path` (`{"runs": [...]}`),
/// creating it when missing.
///
/// # Errors
///
/// I/O failure, or a file that exists but is not a report file.
pub fn append_run(path: &Path, report: &RunReport) -> Result<(), String> {
    let mut runs: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        // Keep earlier runs verbatim: find the array's text span rather
        // than re-serializing parsed values.
        Json::parse(&existing).map_err(|e| format!("{}: {e}", path.display()))?;
        let open = existing.find('[').ok_or("report file has no runs array")?;
        let close = existing.rfind(']').ok_or("report file has no runs array")?;
        let body = existing[open + 1..close].trim();
        if !body.is_empty() {
            runs.push(format!("  {body}"));
        }
    }
    runs.push(run_json(report));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{{\"runs\": [\n{}\n]}}\n", runs.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The verdict of `--compare` on one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Improved by more than the bound.
    Better,
    /// Worsened by more than the bound: a regression.
    Worse,
    /// The files' own spread exceeds the bound, so a difference of that
    /// size cannot be told from noise.
    Unresolved,
}

/// One row of `--compare`.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: &'static str,
    /// Median over the baseline file's runs.
    pub base: f64,
    /// Median over the candidate file's runs.
    pub candidate: f64,
    /// Change in the metric's bad direction as a share of the baseline
    /// (negative = improvement).
    pub worsened_by: f64,
    /// Larger of the two files' spreads.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// `(value, within-run spread)` of every untraced run of `workload` in
/// a parsed report file.
fn values_of(file: &Json, workload: &str, metric: &str) -> Vec<(f64, f64)> {
    let runs = file.get("runs").and_then(Json::as_array).unwrap_or(&[]);
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
        .filter_map(|r| {
            let m = r.get("end_to_end")?.get(metric)?;
            Some((
                m.get("value")?.as_f64()?,
                m.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
            ))
        })
        .collect()
}

/// How much a file's own numbers vary: across its runs when it has at
/// least four, else within its runs' slices.
fn own_spread(values: &[(f64, f64)]) -> f64 {
    let across: Vec<f64> = values.iter().map(|v| v.0).collect();
    if across.len() >= 4 {
        quartile_spread(&across)
    } else {
        values.iter().map(|v| v.1).fold(0.0, f64::max)
    }
}

/// Compares two parsed report files, per workload and end-to-end
/// metric, against the bounds of [`END_TO_END`].
pub fn compare(base: &Json, candidate: &Json) -> Vec<CompareRow> {
    let mut rows = Vec::new();
    for kind in crate::plan::WorkloadKind::ALL {
        for def in END_TO_END {
            let a = values_of(base, kind.name(), def.name);
            let b = values_of(candidate, kind.name(), def.name);
            let (Some(base_median), Some(cand_median)) = (
                median(&a.iter().map(|v| v.0).collect::<Vec<_>>()),
                median(&b.iter().map(|v| v.0).collect::<Vec<_>>()),
            ) else {
                continue;
            };
            let delta = match def.better {
                Better::Lower => cand_median - base_median,
                Better::Higher => base_median - cand_median,
            };
            // A zero baseline (failed_ops_frac) has no share to speak
            // of: any increase is infinitely worse.
            let worsened_by = if base_median != 0.0 {
                delta / base_median.abs()
            } else if delta > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            let spread = own_spread(&a).max(own_spread(&b));
            // Every candidate run on one side of every baseline run is
            // a difference however noisy the runs are.
            let separated = {
                let worse_than = |x: f64, y: f64| match def.better {
                    Better::Lower => x > y,
                    Better::Higher => x < y,
                };
                b.iter().all(|c| a.iter().all(|o| worse_than(c.0, o.0)))
                    || b.iter().all(|c| a.iter().all(|o| worse_than(o.0, c.0)))
            };
            let verdict = if worsened_by.abs() <= def.bound {
                Verdict::Same
            } else if spread > def.bound && !separated {
                Verdict::Unresolved
            } else if worsened_by > 0.0 {
                Verdict::Worse
            } else {
                Verdict::Better
            };
            rows.push(CompareRow {
                workload: kind.name().to_string(),
                metric: def.name,
                base: base_median,
                candidate: cand_median,
                worsened_by,
                spread,
                verdict,
            });
        }
    }
    rows
}

/// The rows as an aligned text table.
pub fn compare_table(rows: &[CompareRow]) -> String {
    let mut out = format!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "base", "candidate", "worse by", "spread", "bound"
    );
    for r in rows {
        let bound = definition(r.metric).map_or(0.0, |d| d.bound);
        writeln!(
            out,
            "{:<14} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.1}%  {:?}",
            r.workload,
            r.metric,
            r.base,
            r.candidate,
            r.worsened_by * 100.0,
            r.spread * 100.0,
            bound * 100.0,
            r.verdict
        )
        .expect("string write");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &str, ops: f64, spread: f64) -> RunReport {
        RunReport {
            workload: workload.to_string(),
            seed: 1,
            seconds: 1.0,
            attempted: 10,
            end_to_end: vec![
                Metric {
                    name: "ops_per_s",
                    value: ops,
                    spread,
                },
                Metric::once(FAILED_OPS_FRAC, 0.0),
            ],
            ..RunReport::default()
        }
    }

    fn file(reports: &[RunReport]) -> Json {
        let runs: Vec<String> = reports.iter().map(run_json).collect();
        Json::parse(&format!("{{\"runs\": [{}]}}", runs.join(","))).unwrap()
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "{}", d.name);
            assert!(ok_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} defined twice", d.name);
            assert!(d.bound <= 0.25 && d.driver_bound.is_none_or(|b| b <= 0.25));
        }
        assert!(driver_end_to_end().count() <= 16 && driver_per_layer().count() <= 128);
        assert!(definition("setup_s").is_some_and(|d| d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let mut r = report("seq_read", 1234.5678, 0.0);
        let line = Json::parse(&contract_line(&r)).unwrap();
        let Json::Obj(members) = &line else { panic!() };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!()
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["setup_s", "virtual_us_per_op", "peak_rss_mb"]);

        r.traced = true;
        r.failed = 1;
        let line = Json::parse(&contract_line(&r)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), PER_LAYER.len() + 6);
        assert!(line.get("metrics").unwrap().get(FAILED_OPS_FRAC).is_none());
        let ops = line.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(ops.get("value").unwrap().as_f64(), Some(1234.5678));
        assert_eq!(ops.get("unit").unwrap().as_str(), Some("1/s"));
    }

    #[test]
    fn report_file_round_trips_and_appends() {
        let dir = crate::world::scratch_dir("report-test");
        let path = dir.join("r.json");
        let mut first = report("seq_read", 100.0, 0.01);
        first.first_failure = Some("a \"quoted\"\nfailure".to_string());
        append_run(&path, &first).unwrap();
        append_run(&path, &report("meta_walk", 50.0, 0.02)).unwrap();
        let parsed = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let runs = parsed.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[0].get("first_failure").unwrap().as_str(),
            Some("a \"quoted\"\nfailure")
        );
        assert_eq!(
            values_of(&parsed, "meta_walk", "ops_per_s"),
            vec![(50.0, 0.02)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(Json::parse("{\"a\": [1, 2.5e3, true, null, \"x\\u0041\"]}").is_ok());
        for bad in ["", "{", "[1 2]", "{\"a\" 1}", "nul", "{} x", "\"open"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn compare_tells_worse_better_same_and_unresolved() {
        let base = file(&[report("seq_read", 1000.0, 0.01)]);
        let verdict_for = |candidate: &Json| {
            compare(&base, candidate)
                .into_iter()
                .find(|r| r.metric == "ops_per_s")
                .unwrap()
                .verdict
        };
        assert_eq!(
            verdict_for(&file(&[report("seq_read", 950.0, 0.01)])),
            Verdict::Same
        );
        assert_eq!(
            verdict_for(&file(&[report("seq_read", 800.0, 0.01)])),
            Verdict::Worse
        );
        assert_eq!(
            verdict_for(&file(&[report("seq_read", 1300.0, 0.01)])),
            Verdict::Better
        );
        // Noisy runs that overlap: a 13 % drop inside a 30 % spread.
        let noisy_base = file(&[
            report("seq_read", 1000.0, 0.3),
            report("seq_read", 700.0, 0.3),
        ]);
        let noisy_candidate = file(&[
            report("seq_read", 720.0, 0.3),
            report("seq_read", 760.0, 0.3),
        ]);
        let noisy = compare(&noisy_base, &noisy_candidate);
        assert_eq!(noisy[0].verdict, Verdict::Unresolved);
        // The same spread, but every candidate run below every baseline
        // run: that is a difference.
        let clear = compare(&noisy_base, &file(&[report("seq_read", 500.0, 0.3)]));
        assert_eq!(clear[0].verdict, Verdict::Worse);
        // Any failure where there was none is a regression.
        let mut failing = report("seq_read", 1000.0, 0.01);
        failing.end_to_end[1].value = 0.001;
        let rows = compare(&base, &file(&[failing]));
        let failed = rows.iter().find(|r| r.metric == FAILED_OPS_FRAC).unwrap();
        assert_eq!(failed.verdict, Verdict::Worse);
        assert!(compare_table(&rows).contains("Worse"));
    }
}
