//! The report layer: every `BENCH_*.json` writer and `--check` validator
//! in the workspace, plus the tracked performance report
//! (`BENCH_perf.json`) itself.
//!
//! The workspace builds offline with no registry deps, so the JSON emitter,
//! parser and validators are hand-rolled here. A suite lists its fields
//! once, in an ordered table of [`Field`]s that both [`render_fields`] and
//! [`check_fields`] walk, so no emitted key can go unvalidated; only
//! cross-field rules are written per suite.
//!
//! The perf schema is stable: bumping [`SCHEMA_VERSION`] is a breaking
//! change and must be called out in EXPERIMENTS.md.
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "suite": "hypertee-perf",
//!   "mode": "full" | "smoke",
//!   "threads": 4,            // optional: worker-pool width of threads_* rows
//!   "benches": [
//!     { "name": "...", "ns_per_op": 123.4, "gb_per_sec": 1.2|null,
//!       "baseline_ns_per_op": 456.7|null, "speedup": 3.7|null }, ...
//!   ]
//! }
//! ```
//!
//! `baseline_ns_per_op` is the pre-optimization reference path (`*_ref`)
//! measured in the same run on the same host, so `speedup` is a
//! like-for-like before/after delta rather than a cross-machine comparison.

use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::str::FromStr;

/// Version of the emitted JSON schema.
pub const SCHEMA_VERSION: u64 = 1;

/// Suite identifier baked into every report.
pub const SUITE: &str = "hypertee-perf";

/// How a top-level report field is rendered and what the validator demands
/// of it. The `&str` of a verdict kind names the cause of a violation.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A finite non-negative counter.
    Counter,
    /// A `"0x"`-prefixed 16-hex-digit `u64` (full range, no `f64` loss).
    HexU64,
    /// A boolean that must be `true`.
    MustBeTrue(&'static str),
    /// A boolean that must be `false`.
    MustBeFalse(&'static str),
    /// A counter pinned to zero.
    MustBeZero(&'static str),
}

/// The consistency-audit verdict shared by the campaign suites.
pub const AUDIT_OK: Kind = Kind::MustBeTrue("a consistency audit failed");
/// The lockstep reference-model verdict shared by the campaign suites.
pub const LOCKSTEP_OK: Kind = Kind::MustBeTrue("the reference model diverged");
/// The drain verdict shared by the campaign suites.
pub const STALLED: Kind = Kind::MustBeFalse("the campaign did not drain");

/// One row of a suite's field table: key, kind, and the getter reading the
/// value from the outcome (booleans as 0/1).
pub type Field<T> = (&'static str, Kind, fn(&T) -> u64);

/// One benchmark row of the report.
#[derive(Debug, Clone)]
pub struct PerfBench {
    /// Stable benchmark identifier.
    pub name: String,
    /// Optimized-path median time per operation.
    pub ns_per_op: f64,
    /// Optimized-path throughput, when a byte count is meaningful.
    pub gb_per_sec: Option<f64>,
    /// Reference-path (`*_ref`) time per operation, when one exists.
    pub baseline_ns_per_op: Option<f64>,
    /// `baseline_ns_per_op / ns_per_op`.
    pub speedup: Option<f64>,
}

/// A numeric column of a bench row: key, whether the validator requires a
/// number (`false` admits `null`), and the getter.
type Column = (&'static str, bool, fn(&PerfBench) -> Option<f64>);

/// The perf suite's field table: a bench row's numeric columns in emission
/// order. Every tracked row must carry its reference measurement: a null
/// baseline means the `*_ref` oracle never ran, which is exactly how a
/// silent regression hides.
const ROW_FIELDS: [Column; 4] = [
    ("ns_per_op", true, |b| Some(b.ns_per_op)),
    ("gb_per_sec", false, |b| b.gb_per_sec),
    ("baseline_ns_per_op", true, |b| b.baseline_ns_per_op),
    ("speedup", true, |b| b.speedup),
];

impl PerfBench {
    /// Builds a row from optimized/baseline timings and an optional byte
    /// count per operation.
    pub fn from_timings(
        name: &str,
        ns_per_op: f64,
        bytes_per_op: u64,
        baseline_ns_per_op: Option<f64>,
    ) -> Self {
        let gb_per_sec =
            (bytes_per_op > 0 && ns_per_op > 0.0).then(|| bytes_per_op as f64 / ns_per_op);
        let speedup = baseline_ns_per_op
            .filter(|_| ns_per_op > 0.0)
            .map(|b| b / ns_per_op);
        PerfBench {
            name: name.to_string(),
            ns_per_op,
            gb_per_sec,
            baseline_ns_per_op,
            speedup,
        }
    }
}

/// A full report, ready to serialize.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// `"full"` for the committed trajectory, `"smoke"` for the CI gate.
    pub mode: String,
    /// Worker-pool width used by the `threads_*` scaling rows, when the
    /// run measured any. `None` keeps the pre-sharding schema byte-stable.
    pub threads: Option<u64>,
    /// Benchmark rows.
    pub benches: Vec<PerfBench>,
}

/// Appends `s` as a JSON string literal (with escaping).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a `"key": value,` counter line at two-space indent.
///
/// # Panics
///
/// Panics when `v` would lose precision in the validator's `f64` round
/// trip (counters past 2^53 have no business in a report).
fn push_kv_u64(out: &mut String, key: &str, v: u64) {
    assert!(
        v < (1u64 << 53),
        "counter '{key}' = {v} would lose precision in JSON"
    );
    out.push_str(&format!("  \"{key}\": {v},\n"));
}

/// Opens a report with the header every suite starts with:
/// `schema_version`, `suite` and `mode`.
fn push_header(out: &mut String, version: u64, suite: &str, mode: &str) {
    out.push_str(&format!(
        "{{\n  \"schema_version\": {version},\n  \"suite\": \"{suite}\",\n  \"mode\": "
    ));
    push_json_str(out, mode);
    out.push_str(",\n");
}

/// Opens a report with the header, then renders every row of `fields`.
pub fn render_fields<T>(
    version: u64,
    suite: &str,
    mode: &str,
    fields: &[Field<T>],
    v: &T,
) -> String {
    let mut out = String::new();
    push_header(&mut out, version, suite, mode);
    for &(key, kind, get) in fields {
        let x = get(v);
        match kind {
            Kind::Counter | Kind::MustBeZero(_) => push_kv_u64(&mut out, key, x),
            Kind::HexU64 => out.push_str(&format!("  \"{key}\": \"0x{x:016x}\",\n")),
            Kind::MustBeTrue(_) | Kind::MustBeFalse(_) => {
                out.push_str(&format!("  \"{key}\": {},\n", x != 0));
            }
        }
    }
    out
}

/// Appends the `slo_cdf` array of `(x_key, fraction)` rows and closes the
/// report.
///
/// # Panics
///
/// Panics on a non-finite fraction.
pub fn push_slo_cdf(out: &mut String, x_key: &str, cdf: &[(u32, f64)]) {
    out.push_str("  \"slo_cdf\": [\n");
    for (i, (x, frac)) in cdf.iter().enumerate() {
        assert!(frac.is_finite(), "refusing to emit non-finite fraction");
        out.push_str(&format!(
            "    {{ \"{x_key}\": {x}, \"fraction\": {frac:.6} }}"
        ));
        if i + 1 < cdf.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
}

/// Validator helper: `key` must be a finite non-negative number.
///
/// # Errors
///
/// A human-readable description of the violation.
pub fn req_counter(doc: &Json, key: &str) -> Result<f64, String> {
    match doc.get(key) {
        Some(Json::Num(v)) if v.is_finite() && *v >= 0.0 => Ok(*v),
        Some(Json::Num(v)) => Err(format!("'{key}' must be a finite non-negative number: {v}")),
        Some(_) => Err(format!("'{key}' has the wrong type")),
        None => Err(format!("missing key '{key}'")),
    }
}

/// Validator helper: `key` must be a `"0x"`-prefixed 16-hex-digit u64.
///
/// # Errors
///
/// A human-readable description of the violation.
pub fn req_hex_u64(doc: &Json, key: &str) -> Result<(), String> {
    match doc.get(key).and_then(Json::as_str) {
        Some(s)
            if s.starts_with("0x")
                && s.len() == 18
                && s[2..].bytes().all(|b| b.is_ascii_hexdigit()) =>
        {
            Ok(())
        }
        Some(s) => Err(format!("'{key}' is not a 0x-prefixed u64: '{s}'")),
        None => Err(format!("missing key '{key}'")),
    }
}

/// Checks the header [`push_header`] writes and returns the mode, or a
/// description of the first violation.
fn check_header<'a>(doc: &'a Json, version: u64, suite: &str) -> Result<&'a str, String> {
    match doc.get("schema_version").and_then(Json::as_num) {
        Some(v) if v == version as f64 => {}
        Some(v) => return Err(format!("unsupported schema_version {v}")),
        None => return Err("missing schema_version".to_string()),
    }
    match doc.get("suite").and_then(Json::as_str) {
        Some(s) if s == suite => {}
        Some(other) => return Err(format!("wrong suite '{other}'")),
        None => return Err("missing suite".to_string()),
    }
    doc.get("mode")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing mode".to_string())
}

/// Parses `text`, checks the header and every row of `fields`, and returns
/// the document for the suite's cross-field rules.
///
/// # Errors
///
/// A human-readable description of the first violation; a red verdict or
/// a non-zero pinned counter names its key and its cause.
pub fn check_fields<T>(
    text: &str,
    version: u64,
    suite: &str,
    fields: &[Field<T>],
) -> Result<Json, String> {
    let doc = parse_json(text)?;
    check_header(&doc, version, suite)?;
    for &(key, kind, _) in fields {
        match kind {
            Kind::Counter => {
                req_counter(&doc, key)?;
            }
            Kind::HexU64 => req_hex_u64(&doc, key)?,
            Kind::MustBeTrue(cause) | Kind::MustBeFalse(cause) => match doc.get(key) {
                Some(Json::Bool(b)) if *b == matches!(kind, Kind::MustBeTrue(_)) => {}
                Some(Json::Bool(b)) => return Err(format!("{key} is {b}: {cause}")),
                Some(_) => return Err(format!("'{key}' must be a boolean")),
                None => return Err(format!("missing key '{key}'")),
            },
            Kind::MustBeZero(cause) => {
                let v = req_counter(&doc, key)?;
                if v != 0.0 {
                    return Err(format!("{key} = {v}: {cause}"));
                }
            }
        }
    }
    Ok(doc)
}

/// Checks the `slo_cdf` array [`push_slo_cdf`] writes — non-empty, `x_key`
/// strictly increasing (`x_name` names it in errors), fractions
/// non-decreasing within `[0, 1]` — or describes the first violation.
pub fn check_slo_cdf(doc: &Json, x_key: &str, x_name: &str) -> Result<(), String> {
    let Some(Json::Arr(cdf)) = doc.get("slo_cdf") else {
        return Err("missing or non-array slo_cdf".to_string());
    };
    if cdf.is_empty() {
        return Err("slo_cdf is empty".to_string());
    }
    let mut prev_x = 0.0f64;
    let mut prev_frac = -1.0f64;
    for row in cdf {
        let x = req_counter(row, x_key)?;
        let frac = req_counter(row, "fraction")?;
        if x <= prev_x {
            return Err(format!("slo_cdf {x_name} must be strictly increasing"));
        }
        if !(0.0..=1.0).contains(&frac) {
            return Err(format!("slo_cdf fraction {frac} out of [0, 1]"));
        }
        if frac < prev_frac {
            return Err("slo_cdf fractions must be non-decreasing".to_string());
        }
        prev_x = x;
        prev_frac = frac;
    }
    Ok(())
}

/// The command line of every report binary. A binary starts from its
/// defaults and names the flags it takes; any other argument is an error.
#[derive(Debug, Clone)]
pub struct ReportArgs {
    /// `--smoke`: the seconds-scale CI slice instead of the full run.
    pub smoke: bool,
    /// `--ref-pump`: drive the scan-scheduler oracle instead of the event
    /// pump.
    pub ref_pump: bool,
    /// `--seed N`.
    pub seed: u64,
    /// `--out PATH`: where the report is written.
    pub out: String,
    /// `--check PATH`: validate a report instead of running.
    pub check: Option<String>,
    /// `--shards N`: the logical split of a sharded campaign.
    pub shards: usize,
    /// `--threads N`: the worker-pool width.
    pub threads: usize,
}

impl ReportArgs {
    /// Defaults: full mode, event pump, one shard on one thread.
    pub fn new(seed: u64, out: &str) -> Self {
        ReportArgs {
            smoke: false,
            ref_pump: false,
            seed,
            out: out.to_string(),
            check: None,
            shards: 1,
            threads: 1,
        }
    }

    /// Parses the process arguments over `self`, accepting only the flags
    /// listed in `takes`; an error names the offending argument.
    pub fn parse(mut self, takes: &[&str]) -> Result<Self, String> {
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let unknown = || format!("unknown argument '{arg}'");
            match arg.as_str() {
                flag if !takes.contains(&flag) => return Err(unknown()),
                "--smoke" => self.smoke = true,
                "--ref-pump" => self.ref_pump = true,
                "--seed" => self.seed = value(&arg, &mut args)?,
                "--out" => self.out = value(&arg, &mut args)?,
                "--check" => self.check = Some(value(&arg, &mut args)?),
                "--shards" => self.shards = value::<NonZeroUsize>(&arg, &mut args)?.get(),
                "--threads" => self.threads = value::<NonZeroUsize>(&arg, &mut args)?.get(),
                _ => return Err(unknown()),
            }
        }
        Ok(self)
    }
}

/// Parses the value that follows `flag` on the command line.
fn value<T: FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, String> {
    let v = args.next().ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} value '{v}'"))
}

/// The `--check PATH` path of every report binary: reads `path`, runs
/// `validate`, and prints the verdict.
pub fn check_file(path: &str, validate: fn(&str) -> Result<(), String>) -> ExitCode {
    let verdict = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read: {e}"))
        .and_then(|text| validate(&text));
    match verdict {
        Ok(()) => {
            println!("{path}: OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every top-level key of a rendered report, each paired with the report
/// minus that key's entry: the inputs of a drift test proving a validator
/// rejects every key its renderer emits when the key is missing.
///
/// # Panics
///
/// Panics unless `text` is a report laid out as the renderers write it:
/// one object, each top-level entry opening a line at two-space indent.
pub fn without_each_key(text: &str) -> Vec<(String, String)> {
    let Ok(Json::Obj(fields)) = parse_json(text) else {
        panic!("not a JSON object");
    };
    let close = text.rfind("\n}").expect("closing brace");
    let cut = |key: &str| {
        let start = text
            .find(&format!("\n  \"{key}\":"))
            .expect("top-level entry");
        match text[start + 1..].find("\n  \"") {
            Some(n) => format!("{}{}", &text[..start], &text[start + 1 + n..]),
            // The last entry takes the comma before it along.
            None => format!("{}{}", text[..start].trim_end_matches(','), &text[close..]),
        }
    };
    fields
        .iter()
        .map(|(key, _)| (key.clone(), cut(key)))
        .collect()
}

impl PerfReport {
    /// Serializes the report.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        push_header(&mut out, SCHEMA_VERSION, SUITE, &self.mode);
        if let Some(t) = self.threads {
            push_kv_u64(&mut out, "threads", t);
        }
        out.push_str("  \"benches\": [\n");
        for (i, b) in self.benches.iter().enumerate() {
            out.push_str("    { \"name\": ");
            push_json_str(&mut out, &b.name);
            for (key, _, get) in ROW_FIELDS {
                out.push_str(&format!(", \"{key}\": "));
                match get(b) {
                    Some(v) => {
                        // All emitted numbers must round-trip as finite JSON.
                        assert!(v.is_finite(), "refusing to emit non-finite number {v}");
                        out.push_str(&format!("{v:.4}"));
                    }
                    None => out.push_str("null"),
                }
            }
            out.push_str(" }");
            if i + 1 < self.benches.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A parsed JSON value (the minimal model the validator needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, when `self` is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("short \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            s.push(char::from_u32(code).ok_or("bad \\u code point".to_string())?);
                            self.pos += 4;
                        }
                        other => return Err(format!("unsupported escape '\\{}'", other as char)),
                    }
                }
                other => s.push(other as char),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}'"))
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => {
                self.expect(b'{')?;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        other => {
                            return Err(format!("expected ',' or '}}', got '{}'", other as char))
                        }
                    }
                }
            }
            b'[' => {
                self.expect(b'[')?;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        other => {
                            return Err(format!("expected ',' or ']', got '{}'", other as char))
                        }
                    }
                }
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// A human-readable description of the first syntax error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Rows whose "speedup" is a thin-margin parallel-scaling ratio (worker
/// pool vs sequential at x4 fan-out) rather than an algorithmic claim; they
/// sit near 1.1x and jitter below 1.0 on loaded CI hosts, so the regression
/// gate tracks but does not fail them.
const SPEEDUP_GATE_EXEMPT: [&str; 2] = ["threads_lockstep_x4", "threads_wolfssl_x4"];

fn check_finite(row: &Json, key: &str, required: bool) -> Result<(), String> {
    match row.get(key) {
        Some(Json::Num(v)) if v.is_finite() => Ok(()),
        Some(Json::Num(v)) => Err(format!("'{key}' is not finite: {v}")),
        Some(Json::Null) if !required => Ok(()),
        Some(_) => Err(format!("'{key}' has the wrong type")),
        None => Err(format!("missing key '{key}'")),
    }
}

/// Validates a `BENCH_perf.json` document: header, every `ROW_FIELDS`
/// column of every row, and the speedup regression gate. This is the gate
/// `scripts/verify.sh` runs against the smoke and committed reports.
///
/// # Errors
///
/// A description of the first schema violation.
pub fn validate(text: &str) -> Result<(), String> {
    let root = parse_json(text)?;
    if !matches!(
        check_header(&root, SCHEMA_VERSION, SUITE)?,
        "full" | "smoke"
    ) {
        return Err("mode must be \"full\" or \"smoke\"".to_string());
    }
    match root.get("threads") {
        None => {}
        Some(Json::Num(t)) if t.is_finite() && *t >= 1.0 && t.fract() == 0.0 => {}
        Some(_) => return Err("threads must be an integer >= 1".to_string()),
    }
    let benches = match root.get("benches") {
        Some(Json::Arr(items)) if !items.is_empty() => items,
        Some(Json::Arr(_)) => return Err("benches array is empty".to_string()),
        _ => return Err("missing benches array".to_string()),
    };
    for (i, row) in benches.iter().enumerate() {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("bench {i}: missing name"))?;
        for (key, required, _) in ROW_FIELDS {
            check_finite(row, key, required).map_err(|e| format!("bench '{name}': {e}"))?;
        }
        let speedup = row
            .get("speedup")
            .and_then(Json::as_num)
            .ok_or(format!("bench '{name}': missing speedup"))?;
        if speedup < 1.0 && !SPEEDUP_GATE_EXEMPT.contains(&name) {
            return Err(format!(
                "bench '{name}': speedup {speedup:.4} < 1.0 — optimized path regressed below its reference"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfReport {
        PerfReport {
            mode: "smoke".to_string(),
            threads: None,
            benches: vec![
                PerfBench::from_timings("aes", 10.0, 4096, Some(40.0)),
                PerfBench::from_timings("walk", 25.0, 0, Some(75.0)),
            ],
        }
    }

    #[test]
    fn emitted_report_validates() {
        let json = sample().to_json();
        validate(&json).unwrap();
    }

    #[test]
    fn speedup_and_throughput_derived() {
        let b = PerfBench::from_timings("x", 10.0, 4096, Some(40.0));
        assert!((b.speedup.unwrap() - 4.0).abs() < 1e-9);
        // 4096 bytes / 10 ns = 409.6 GB/s.
        assert!((b.gb_per_sec.unwrap() - 409.6).abs() < 1e-9);
    }

    #[test]
    fn threads_dimension_roundtrips_and_is_validated() {
        let mut r = sample();
        r.threads = Some(4);
        let json = r.to_json();
        assert!(json.contains("\"threads\": 4"));
        validate(&json).unwrap();
        // Absent threads stays valid (pre-sharding reports).
        validate(&sample().to_json()).unwrap();
        // Zero, fractional, or non-numeric widths are rejected.
        for bad in ["0", "2.5", "\"4\""] {
            let doctored = json.replace("\"threads\": 4", &format!("\"threads\": {bad}"));
            assert!(
                validate(&doctored).is_err(),
                "threads={bad} must be invalid"
            );
        }
    }

    #[test]
    fn parser_roundtrips_values() {
        let v = parse_json(r#"{"a": [1, -2.5e1, "s\n", true, null]}"#).unwrap();
        let arr = match v.get("a") {
            Some(Json::Arr(items)) => items,
            other => panic!("bad parse: {other:?}"),
        };
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1], Json::Num(-25.0));
        assert_eq!(arr[2], Json::Str("s\n".to_string()));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
    }

    #[test]
    fn validator_rejects_bad_documents() {
        assert!(validate("{}").is_err());
        assert!(validate("not json").is_err());
        let mut r = sample();
        r.mode = "other".to_string();
        assert!(validate(&r.to_json()).is_err());
        // Missing benches.
        let empty = PerfReport {
            mode: "full".to_string(),
            threads: None,
            benches: vec![],
        };
        assert!(validate(&empty.to_json()).is_err());
        // Wrong schema version.
        let json = sample().to_json().replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        assert!(validate(&json).is_err());
        // Non-finite number smuggled in.
        let json = sample()
            .to_json()
            .replace("\"ns_per_op\": 10.0000", "\"ns_per_op\": 1e999");
        assert!(validate(&json).is_err());
    }

    #[test]
    fn every_row_requires_a_baseline() {
        // With a measured reference, the row is fine.
        let ok = PerfReport {
            mode: "smoke".to_string(),
            threads: None,
            benches: vec![PerfBench::from_timings(
                "interp_memstream_pass",
                10.0,
                4096,
                Some(80.0),
            )],
        };
        validate(&ok.to_json()).unwrap();
        // A null baseline is rejected on any row — interp and workload
        // alike (the old contract let workload rows ship without one).
        for name in ["interp_memstream_pass", "memstream_pass", "wolfssl_pass"] {
            let bad = PerfReport {
                mode: "smoke".to_string(),
                threads: None,
                benches: vec![PerfBench::from_timings(name, 10.0, 4096, None)],
            };
            let err = validate(&bad.to_json()).unwrap_err();
            assert!(err.contains("baseline_ns_per_op"), "{name}: {err}");
        }
    }

    #[test]
    fn sub_unity_speedup_fails_the_gate() {
        let regressed = PerfReport {
            mode: "smoke".to_string(),
            threads: None,
            benches: vec![PerfBench::from_timings(
                "ptw_translate_walk",
                100.0,
                0,
                Some(80.0),
            )],
        };
        let err = validate(&regressed.to_json()).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        // The thin-margin scaling rows are tracked but not gated.
        for name in SPEEDUP_GATE_EXEMPT {
            let jittery = PerfReport {
                mode: "smoke".to_string(),
                threads: Some(4),
                benches: vec![PerfBench::from_timings(name, 100.0, 0, Some(95.0))],
            };
            validate(&jittery.to_json()).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        // Exactly 1.0 passes.
        let flat = PerfReport {
            mode: "smoke".to_string(),
            threads: None,
            benches: vec![PerfBench::from_timings("x", 10.0, 0, Some(10.0))],
        };
        validate(&flat.to_json()).unwrap();
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn emitter_refuses_nan() {
        let r = PerfReport {
            mode: "full".to_string(),
            threads: None,
            benches: vec![PerfBench {
                name: "bad".to_string(),
                ns_per_op: f64::NAN,
                gb_per_sec: None,
                baseline_ns_per_op: None,
                speedup: None,
            }],
        };
        let _ = r.to_json();
    }
}
