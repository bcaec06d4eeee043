//! `repro pairs` — alternating parent/change runs of the repo benchmark.
//!
//! ```text
//! repro pairs --pr 22 --parent <bin> --change <bin> --workload service_deepwalk \
//!             --seed 7 --n 10 [--trace | --setup]
//! ```
//!
//! Runs the two `bingo-benchmark` binaries `n` times each, one pair after
//! the other, alternating which side goes first, and writes every raw
//! reading with each side's median and quartiles and the number of pairs
//! the change won to `results/pairs/PR<pr>-<workload>[-seed<s>][-traced].json`.
//! A Markdown table of the same summary goes to stdout. Which way a metric
//! is better and how long a run is (`run_seconds`: the same on both sides,
//! and not the caller's to choose) come from the `BENCHMARK.json` in the
//! current directory, so the command runs from the repository root.
//!
//! The benchmark prints its result as the last line of stdout (one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`) and the throughput
//! of its untraced pass in a line of prose on stderr; a timed run's result
//! has only `setup_s` and `peak_rss_mb`, so the prose is read too. A run
//! that printed the stack-tax ladder (a traced `engine_batch` run) also
//! gets the ratios of [`LADDER_RATIOS`], each from that run's own rungs,
//! summarized like any metric, lower being better.
//!
//! With `--setup` each run is one `bingo-benchmark setup` child instead: a
//! single set-up in a fresh process, its seconds the only line of stdout.
//! The seconds are summarized as `setup_s` like any metric into
//! `results/pairs/PR<pr>-<workload>[-seed<s>]-setup.json`. That is the
//! re-check for a ledger's `setup_s` row, which back-to-back ledgers swing
//! by about its bound.

use crate::common::results_dir;
use std::path::PathBuf;
use std::process::Command;

/// The seed `BENCHMARK.json`'s command runs under when none is given; a
/// file for any other seed says so in its name.
const DEFAULT_SEED: u64 = 7;

/// The ladder ratios a run's `ladder.*` rows yield, `(upper, lower)`: the
/// ratio `ladder.<upper>/<lower>` is how much the layers between the two
/// rungs multiply a step's cost.
pub const LADDER_RATIOS: [(&str, &str); 5] = [
    ("service_shards1", "walk_engine"),
    ("service_shards4", "service_shards1"),
    ("service_serialized", "walk_engine"),
    ("gateway", "service_shards4"),
    ("telemetry_on", "service_shards4"),
];

/// A parsed JSON value. Objects keep their keys in file order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value()?;
        parser.skip_space();
        if parser.at != parser.bytes.len() {
            return Err(format!("trailing input at byte {}", parser.at));
        }
        Ok(value)
    }

    /// The value under `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serialize with one space of indentation per level.
    fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(0, &mut out);
        out.push('\n');
        out
    }

    fn write(&self, depth: usize, out: &mut String) {
        let pad = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&" ".repeat(depth));
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(&b.to_string()),
            Json::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
            // JSON has no NaN or infinity; the benchmark's writer prints
            // `null` for them too.
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&bingo_telemetry::json::escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    item.write(depth + 1, out);
                }
                if !items.is_empty() {
                    pad(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    Json::Str(key.clone()).write(depth + 1, out);
                    out.push_str(": ");
                    value.write(depth + 1, out);
                }
                if !fields.is_empty() {
                    pad(out, depth);
                }
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_space();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("unknown literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_space();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_space();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_space();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_space();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
                    }
                }
            }
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap_or("");
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.at));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = self.bytes.get(self.at + 1).copied();
                    out.push(match escaped {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(b'r') => b'\r',
                        Some(c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(format!("unsupported escape at byte {}", self.at)),
                    });
                    self.at += 2;
                }
                Some(&byte) => {
                    out.push(byte);
                    self.at += 1;
                }
            }
        }
    }
}

/// What `repro pairs` was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct PairsArgs {
    /// The PR the files are named after.
    pub pr: u32,
    /// The benchmark binary built from the parent commit.
    pub parent: PathBuf,
    /// The benchmark binary built from the change.
    pub change: PathBuf,
    /// The workload to run.
    pub workload: String,
    /// The workload seed.
    pub seed: u64,
    /// Pairs to run.
    pub n: usize,
    /// Traced runs (per-layer metrics) instead of timed ones.
    pub trace: bool,
    /// `bingo-benchmark setup` children (one set-up each) instead of runs.
    pub setup: bool,
}

impl PairsArgs {
    /// Parse the flags after `repro pairs`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let (mut pr, mut parent, mut change, mut workload) = (None, None, None, None);
        let (mut seed, mut n, mut trace, mut setup) = (DEFAULT_SEED, 10, false, false);
        let mut i = 0;
        while i < args.len() {
            let key = args[i].as_str();
            if key == "--trace" || key == "--setup" {
                trace |= key == "--trace";
                setup |= key == "--setup";
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("missing value for {key}"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("invalid value for {key}"))
            };
            match key {
                "--pr" => pr = Some(number()? as u32),
                "--parent" => parent = Some(PathBuf::from(value)),
                "--change" => change = Some(PathBuf::from(value)),
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = number()?,
                "--n" => n = number()?.max(1) as usize,
                other => return Err(format!("unknown flag {other}")),
            }
            i += 2;
        }
        if trace && setup {
            return Err("--trace and --setup exclude each other".to_string());
        }
        Ok(PairsArgs {
            pr: pr.ok_or("missing --pr")?,
            parent: parent.ok_or("missing --parent")?,
            change: change.ok_or("missing --change")?,
            workload: workload.ok_or("missing --workload")?,
            seed,
            n,
            trace,
            setup,
        })
    }

    /// What each run is, as the table's heading says it.
    fn mode(&self) -> &'static str {
        match (self.trace, self.setup) {
            (true, _) => "traced",
            (_, true) => "setup",
            _ => "timed",
        }
    }

    /// Where the readings go.
    fn output_path(&self) -> PathBuf {
        let mut name = format!("PR{}-{}", self.pr, self.workload);
        if self.seed != DEFAULT_SEED {
            name.push_str(&format!("-seed{}", self.seed));
        }
        if self.mode() != "timed" {
            name.push('-');
            name.push_str(self.mode());
        }
        results_dir().join("pairs").join(name + ".json")
    }
}

/// One run of one side: the benchmark's verdict and every metric it printed.
#[derive(Debug, Clone, PartialEq)]
struct Reading {
    correct: bool,
    failed: f64,
    attempted: f64,
    metrics: Vec<(String, f64)>,
}

impl Reading {
    fn metric(&self, name: &str) -> Option<f64> {
        let found = self.metrics.iter().find(|(n, _)| n == name);
        found.map(|&(_, value)| value)
    }

    /// Append the [`LADDER_RATIOS`] of this run's rungs; a run without
    /// them (or with a rung at 0) gets none.
    fn add_ladder_ratios(&mut self) {
        for (upper, lower) in LADDER_RATIOS {
            let rung = |name: &str| self.metric(&format!("ladder.{name}"));
            if let (Some(up), Some(low)) = (rung(upper), rung(lower).filter(|&v| v > 0.0)) {
                let name = format!("ladder.{upper}/{lower}");
                self.metrics.push((name, up / low));
            }
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("failed".to_string(), Json::Num(self.failed)),
            ("attempted".to_string(), Json::Num(self.attempted)),
        ];
        let metrics = self.metrics.iter();
        fields.extend(metrics.map(|(name, value)| (name.clone(), Json::Num(*value))));
        Json::Obj(fields)
    }
}

/// The number in front of `unit` in a line of the benchmark's prose.
fn number_before(line: &str, unit: &str) -> Option<f64> {
    let head = &line[..line.find(unit)?];
    head.rsplit([' ', ':']).next()?.parse().ok()
}

/// Read a finished run's output: the JSON result on the last line of
/// stdout, and on an untraced run the throughput a line of prose on stderr
/// reports.
fn read_output(stdout: &str, stderr: &str) -> Result<Reading, String> {
    let last = stdout
        .lines()
        .last()
        .ok_or("the benchmark printed nothing")?;
    let result = Json::parse(last)?;
    let field = |key: &str| result.get(key).ok_or(format!("no \"{key}\" in the result"));
    let mut metrics = Vec::new();
    if let Json::Obj(fields) = field("metrics")? {
        for (name, metric) in fields {
            if let Some(value) = metric.get("value").and_then(Json::num) {
                metrics.push((name.clone(), value));
            }
        }
    }
    if let Some(line) = stderr.lines().find(|l| l.starts_with("untraced pass:")) {
        for (name, unit) in [
            ("harness.steps_per_s", " steps/s"),
            ("harness.update_events_per_s", " update events/s"),
        ] {
            // A traced run reports the row itself, from its traced pass.
            let reported = metrics.iter().any(|(n, _)| n == name);
            if let Some(value) = number_before(line, unit).filter(|_| !reported) {
                metrics.push((name.to_string(), value));
            }
        }
    }
    let mut reading = Reading {
        correct: field("correct")? == &Json::Bool(true),
        failed: field("failed")?.num().unwrap_or(f64::NAN),
        attempted: field("attempted")?.num().unwrap_or(f64::NAN),
        metrics,
    };
    reading.add_ladder_ratios();
    Ok(reading)
}

/// Read a `bingo-benchmark setup` child's output: its set-up's seconds,
/// the only line of stdout.
fn read_setup(stdout: &str) -> Result<Reading, String> {
    let line = stdout.trim();
    let seconds: f64 =
        (line.parse()).map_err(|_| format!("a set-up child printed {line:?}, not its seconds"))?;
    Ok(Reading {
        correct: true,
        failed: 0.0,
        attempted: 1.0,
        metrics: vec![("setup_s".to_string(), seconds)],
    })
}

/// The `q`-quantile of `sorted`, interpolating between neighbours.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (low, high) = (at.floor() as usize, at.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (at - low as f64)
}

/// One metric over all pairs.
#[derive(Debug, Clone, PartialEq)]
struct MetricSummary {
    name: String,
    /// `lower` or `higher`, as `BENCHMARK.json` says.
    better: String,
    /// Median, first and third quartile of the parent's and of the
    /// change's readings.
    sides: [[f64; 3]; 2],
    /// Pairs in which the change read better; a tie counts for neither.
    change_wins: usize,
    pairs: usize,
}

fn summarize(name: &str, better: &str, parent: &[f64], change: &[f64]) -> MetricSummary {
    let stats = |values: &[f64]| {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        [0.5, 0.25, 0.75].map(|q| quantile(&sorted, q))
    };
    let wins = parent.iter().zip(change).filter(|&(&p, &c)| match better {
        "higher" => c > p,
        _ => c < p,
    });
    MetricSummary {
        name: name.to_string(),
        better: better.to_string(),
        sides: [stats(parent), stats(change)],
        change_wins: wins.count(),
        pairs: parent.len(),
    }
}

impl MetricSummary {
    fn to_json(&self) -> Json {
        let side = |[median, q1, q3]: [f64; 3]| {
            Json::Obj(vec![
                ("median".to_string(), Json::Num(median)),
                ("q1".to_string(), Json::Num(q1)),
                ("q3".to_string(), Json::Num(q3)),
            ])
        };
        Json::Obj(vec![
            ("parent".to_string(), side(self.sides[0])),
            ("change".to_string(), side(self.sides[1])),
            ("better".to_string(), Json::Str(self.better.clone())),
            (
                "change_wins".to_string(),
                Json::Num(self.change_wins as f64),
            ),
            ("pairs".to_string(), Json::Num(self.pairs as f64)),
        ])
    }

    fn markdown_row(&self) -> String {
        // Four significant digits or so: whole numbers from 10 000 on.
        let digits = match self.sides[0][0].abs() {
            m if m >= 10_000.0 => 0,
            m if m >= 100.0 => 1,
            m if m >= 1.0 => 3,
            _ => 4,
        };
        let cell = |[median, q1, q3]: [f64; 3]| {
            format!("{median:.digits$} ({q1:.digits$} – {q3:.digits$})")
        };
        format!(
            "| `{}` | {} | {} | {} | {} / {} |",
            self.name,
            self.better,
            cell(self.sides[0]),
            cell(self.sides[1]),
            self.change_wins,
            self.pairs
        )
    }
}

/// Which way every metric `BENCHMARK.json` declares is better, and its
/// `run_seconds`.
fn benchmark_declaration() -> Result<(Vec<(String, String)>, u64), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let declared = Json::parse(&text)?;
    let mut better = Vec::new();
    for list in ["end_to_end", "per_layer"] {
        if let Some(Json::Arr(metrics)) = declared.get(list) {
            for metric in metrics {
                let name = metric.get("name").and_then(Json::str);
                let way = metric.get("better").and_then(Json::str);
                if let (Some(name), Some(way)) = (name, way) {
                    better.push((name.to_string(), way.to_string()));
                }
            }
        }
    }
    let seconds = declared.get("run_seconds").and_then(Json::num);
    Ok((
        better,
        seconds.ok_or("no run_seconds in BENCHMARK.json")? as u64,
    ))
}

/// Run the pairs, write the file, print the table. Returns the file's path.
pub fn run(args: &PairsArgs) -> Result<PathBuf, String> {
    let (better, seconds) = benchmark_declaration()?;
    let binaries = [&args.parent, &args.change];
    let mut readings: [Vec<Reading>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..args.n {
        // Even pairs run the parent first, odd ones the change.
        for side in [pair % 2, 1 - pair % 2] {
            let mut command = Command::new(binaries[side]);
            if args.setup {
                command.arg("setup");
            }
            command
                .args(["--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()]);
            if !args.setup {
                command
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if args.trace { "1" } else { "0" }]);
            }
            let output = command
                .output()
                .map_err(|e| format!("{}: {e}", binaries[side].display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let reading = if args.setup {
                read_setup(&stdout)?
            } else {
                read_output(&stdout, &String::from_utf8_lossy(&output.stderr))?
            };
            eprintln!(
                "pair {} {}: correct {} failed {} setup_s {:?} peak_rss_mb {:?}",
                pair + 1,
                ["parent", "change"][side],
                reading.correct,
                reading.failed,
                reading.metric("setup_s"),
                reading.metric("peak_rss_mb")
            );
            readings[side].push(reading);
        }
    }

    // Every metric both sides reported in every run, in the order the
    // benchmark printed it; the ones that read zero throughout are another
    // workload's.
    let mut summaries = Vec::new();
    for (name, _) in &readings[0][0].metrics {
        let column = |side: usize| -> Option<Vec<f64>> {
            readings[side].iter().map(|r| r.metric(name)).collect()
        };
        let (Some(parent), Some(change)) = (column(0), column(1)) else {
            continue;
        };
        if parent.iter().chain(&change).all(|&v| v == 0.0) {
            continue;
        }
        let way = better.iter().find(|(n, _)| n == name);
        let way = way.map_or("lower", |(_, way)| way.as_str());
        summaries.push(summarize(name, way, &parent, &change));
    }

    // A set-up child runs no pass.
    let seconds = if args.setup { 0 } else { seconds };
    let all = |f: &dyn Fn(&Reading) -> bool| readings.iter().flatten().all(f);
    let side_readings =
        |side: usize| Json::Arr(readings[side].iter().map(Reading::to_json).collect());
    let document = Json::Obj(vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(seconds as f64)),
        (
            "trace".to_string(),
            Json::Num(f64::from(u8::from(args.trace))),
        ),
        (
            "setup".to_string(),
            Json::Num(f64::from(u8::from(args.setup))),
        ),
        ("pairs".to_string(), Json::Num(args.n as f64)),
        (
            "sides".to_string(),
            Json::Arr(vec![Json::Str("parent".into()), Json::Str("change".into())]),
        ),
        ("all_correct".to_string(), Json::Bool(all(&|r| r.correct))),
        (
            "summary".to_string(),
            Json::Obj(
                summaries
                    .iter()
                    .map(|s| (s.name.clone(), s.to_json()))
                    .collect(),
            ),
        ),
        (
            "readings".to_string(),
            Json::Obj(vec![
                ("parent".to_string(), side_readings(0)),
                ("change".to_string(), side_readings(1)),
            ]),
        ),
    ]);
    let path = args.output_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, document.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "## `{}` — {}, seed {}, {} run{}, {} pairs{}",
        path.file_name().unwrap_or_default().to_string_lossy(),
        args.workload,
        args.seed,
        args.mode(),
        if args.setup {
            String::new()
        } else {
            format!(", {seconds} s")
        },
        args.n,
        if all(&|r| r.correct && r.failed == 0.0) {
            ", every run correct with failed 0"
        } else {
            " — NOT every run correct"
        }
    );
    println!("\n| metric | better | parent | change | change wins |\n|---|---|---:|---:|---:|");
    for summary in &summaries {
        println!("{}", summary.markdown_row());
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_the_benchmarks_result_line() {
        let line = r#"{"correct":true,"attempted":6589,"failed":0,"metrics":{"setup_s":{"value":0.5436,"unit":"s"},"peak_rss_mb":{"value":182.66796875,"unit":"MiB"}}}"#;
        let parsed = Json::parse(line).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let rss = parsed.get("metrics").and_then(|m| m.get("peak_rss_mb"));
        assert_eq!(
            rss.and_then(|m| m.get("value")),
            Some(&Json::Num(182.66796875))
        );
        assert_eq!(Json::parse(&parsed.pretty()).unwrap(), parsed);
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("[1, 2").is_err());
        let nested = Json::parse(r#"{"a":[],"b":{},"c":[null,false,-1.5e3,"q\"\n"]}"#).unwrap();
        assert_eq!(Json::parse(&nested.pretty()).unwrap(), nested);
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        let stdout = "{\"correct\":true,\"attempted\":null,\"failed\":null,\"metrics\":{}}";
        let reading = read_output(stdout, "").unwrap();
        assert!(reading.failed.is_nan() && reading.attempted.is_nan());
        let fields = vec![
            ("failed".to_string(), Json::Num(reading.failed)),
            ("inf".to_string(), Json::Num(f64::NEG_INFINITY)),
            ("ok".to_string(), Json::Num(2.5)),
        ];
        let text = Json::Obj(fields).pretty();
        assert_eq!(
            text,
            "{\n \"failed\": null,\n \"inf\": null,\n \"ok\": 2.5\n}\n"
        );
        assert!(Json::parse(&text).is_ok(), "{text}");
    }

    #[test]
    fn an_untraced_run_is_read_prose_and_all() {
        let stderr = "service_deepwalk seed=7 seconds=18 trace=0\n\
            untraced pass: 1804568 steps/s (segment cv 3.4%), ticket p50 11.353 ms, 321636 update events/s, visible p50 3.791 ms\n";
        let stdout = "{\"correct\":true,\"attempted\":3906,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}\n";
        let reading = read_output(stdout, stderr).unwrap();
        assert!(reading.correct);
        assert_eq!((reading.failed, reading.attempted), (0.0, 3906.0));
        assert_eq!(reading.metric("setup_s"), Some(0.5));
        assert_eq!(reading.metric("harness.steps_per_s"), Some(1_804_568.0));
        assert_eq!(
            reading.metric("harness.update_events_per_s"),
            Some(321_636.0)
        );
        assert_eq!(read_output(stdout, "").unwrap().metrics.len(), 1);
        // A traced run reports the row itself; the prose does not shadow it.
        let traced = stdout.replace("setup_s", "harness.steps_per_s");
        let reading = read_output(&traced, stderr).unwrap();
        assert_eq!(reading.metric("harness.steps_per_s"), Some(0.5));
        assert_eq!(reading.metrics.len(), 2);
        assert!(read_output("", stderr).is_err());
        assert!(read_output("not json", stderr).is_err());
    }

    #[test]
    fn summaries_count_wins_by_pair_and_interpolate_quartiles() {
        let parent = [10.0, 12.0, 11.0, 13.0];
        let change = [9.0, 12.0, 12.0, 10.0];
        let lower = summarize("m", "lower", &parent, &change);
        assert_eq!((lower.change_wins, lower.pairs), (2, 4));
        assert_eq!(lower.sides[0], [11.5, 10.75, 12.25]);
        let higher = summarize("m", "higher", &parent, &change);
        assert_eq!(higher.change_wins, 1, "a tie counts for neither side");
        assert_eq!(quantile(&[3.0], 0.75), 3.0);
    }

    #[test]
    fn ladder_ratios_come_from_each_runs_own_rungs() {
        let line = |walk_engine: f64, gateway: f64| {
            let rungs = [
                ("walk_engine", walk_engine),
                ("service_shards1", 2.0 * walk_engine),
                ("service_shards4", 3.0 * walk_engine),
                ("service_serialized", 8.0 * walk_engine),
                ("gateway", gateway),
                ("telemetry_on", 3.6 * walk_engine),
            ];
            let metrics: Vec<String> = rungs
                .iter()
                .map(|(rung, ns)| {
                    format!("\"ladder.{rung}\":{{\"value\":{ns},\"unit\":\"ns/step\"}}")
                })
                .collect();
            format!(
                "{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{{}}}}}",
                metrics.join(",")
            )
        };
        let reading = read_output(&line(10.0, 36.0), "").unwrap();
        let ratio = |r: &Reading, name: &str| r.metric(&format!("ladder.{name}")).unwrap();
        assert_eq!(ratio(&reading, "service_shards1/walk_engine"), 2.0);
        assert_eq!(ratio(&reading, "service_shards4/service_shards1"), 1.5);
        assert_eq!(ratio(&reading, "service_serialized/walk_engine"), 8.0);
        assert_eq!(ratio(&reading, "gateway/service_shards4"), 1.2);
        assert!((ratio(&reading, "telemetry_on/service_shards4") - 1.2).abs() < 1e-12);
        assert_eq!(reading.metrics.len(), 6 + LADDER_RATIOS.len());
        // Each run's ratio is its own: a faster engine rung in one run
        // does not borrow the other run's service rungs.
        let other = read_output(&line(20.0, 66.0), "").unwrap();
        let gateway = [&reading, &other].map(|r| ratio(r, "gateway/service_shards4"));
        assert_eq!(gateway, [1.2, 1.1]);
        let summary = summarize("ladder.gateway/service_shards4", "lower", &[1.2], &[1.1]);
        assert_eq!(summary.change_wins, 1);
        // Rungs at 0 (another workload's traced run) or none at all: no
        // ratios.
        assert_eq!(read_output(&line(0.0, 0.0), "").unwrap().metrics.len(), 6);
        let timed = "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}";
        assert!(read_output(timed, "").unwrap().metrics.is_empty());
    }

    #[test]
    fn setup_children_are_summarized_like_any_metric() {
        // Seconds as five set-up children per side printed them.
        let parent = ["0.61\n", "0.55\n", "0.58\n", "0.72\n", "0.57\n"];
        let change = ["0.56\n", "0.57\n", "0.54\n", "0.60\n", "0.55\n"];
        let seconds = |outputs: &[&str]| -> Vec<f64> {
            outputs
                .iter()
                .map(|out| {
                    let reading = read_setup(out).unwrap();
                    assert!(reading.correct && reading.failed == 0.0);
                    assert_eq!(reading.metrics.len(), 1);
                    reading.metric("setup_s").unwrap()
                })
                .collect()
        };
        let (parent, change) = (seconds(&parent), seconds(&change));
        assert_eq!(parent[3], 0.72);
        let summary = summarize("setup_s", "lower", &parent, &change);
        assert_eq!(summary.sides[0], [0.58, 0.57, 0.61]);
        assert_eq!(summary.sides[1], [0.56, 0.55, 0.57]);
        assert_eq!((summary.change_wins, summary.pairs), (4, 5));
        // A child that failed prints no seconds.
        assert!(read_setup("").is_err());
        assert!(read_setup("set-up failed\n").is_err());
    }

    #[test]
    fn flags_name_the_file() {
        let flags = |extra: &[&str]| {
            let base = [
                "--pr",
                "22",
                "--parent",
                "a",
                "--change",
                "b",
                "--workload",
                "w",
            ];
            let args: Vec<String> = base.iter().chain(extra).map(|s| s.to_string()).collect();
            PairsArgs::parse(&args)
        };
        let plain = flags(&[]).unwrap();
        assert_eq!((plain.seed, plain.n, plain.trace), (7, 10, false));
        assert!(plain.output_path().ends_with("results/pairs/PR22-w.json"));
        let traced = flags(&["--seed", "11", "--trace", "--n", "3"]).unwrap();
        assert_eq!((traced.seed, traced.n, traced.trace), (11, 3, true));
        assert!(traced
            .output_path()
            .ends_with("results/pairs/PR22-w-seed11-traced.json"));
        let setup = flags(&["--setup", "--n", "6"]).unwrap();
        assert_eq!((setup.setup, setup.trace, setup.n), (true, false, 6));
        assert!(setup
            .output_path()
            .ends_with("results/pairs/PR22-w-setup.json"));
        assert!(flags(&["--setup", "--trace"]).is_err());
        assert!(flags(&["--bogus", "1"]).is_err());
        assert!(flags(&["--n"]).is_err());
        assert!(PairsArgs::parse(&[]).is_err());
    }
}
