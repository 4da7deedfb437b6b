//! What every workload shares: options, the repetition clock, repeated
//! set-up, the report a run prints and writes, and the run header.

use crate::metrics::{MetricInfo, END_TO_END, PER_LAYER};
use crate::stats::median;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// The timed section repeats until this much time has been measured.
    pub seconds: f64,
    /// Fixed repetition count; overrides `seconds`.
    pub reps: Option<usize>,
    /// One small instance per workload.
    pub smoke: bool,
    /// Directory the result files go to.
    pub out_dir: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 1,
            seconds: 8.0,
            reps: None,
            smoke: false,
            out_dir: default_out_dir(),
        }
    }
}

/// `benchmark/out/`, next to this package's manifest.
pub fn default_out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// SplitMix64: the benchmark's own generator, so the program receives only
/// generated inputs and no crate's RNG decides what is measured.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// Decides when the timed section has been repeated often enough: a fixed
/// count when `--reps` is given, otherwise until `--seconds` of timed work
/// have been measured (always whole repetitions, at least one).
pub struct RepClock {
    seconds: f64,
    reps: Option<usize>,
    measured: f64,
    done: usize,
}

impl RepClock {
    /// A clock for `opts`.
    pub fn new(opts: &Options) -> RepClock {
        RepClock {
            seconds: opts.seconds,
            reps: opts.reps,
            measured: 0.0,
            done: 0,
        }
    }

    /// Records one finished repetition of `secs` timed seconds; returns
    /// true when another one is due.
    pub fn record(&mut self, secs: f64) -> bool {
        self.measured += secs;
        self.done += 1;
        match self.reps {
            Some(n) => self.done < n,
            None => self.measured < self.seconds,
        }
    }
}

/// Times repeated set-up. Set-up is under 1 % of every run, so one sample
/// is mostly noise: every workload sets up at least [`Setups::MIN_RUNS`]
/// times (and cheap set-ups until [`Setups::MIN_TOTAL_SECS`] have been
/// spent) and reports the median.
#[derive(Default)]
pub struct Setups {
    secs: Vec<f64>,
}

impl Setups {
    const MIN_RUNS: usize = 5;
    const MIN_TOTAL_SECS: f64 = 0.2;
    const MAX_RUNS: usize = 2_000;

    /// Runs and times one set-up.
    pub fn run<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let started = Instant::now();
        let out = setup();
        self.secs.push(started.elapsed().as_secs_f64());
        out
    }

    /// Repeats `setup` (results dropped) until the sample is large enough.
    pub fn top_up<T>(&mut self, mut setup: impl FnMut() -> T) {
        while self.secs.len() < Self::MAX_RUNS
            && (self.secs.len() < Self::MIN_RUNS
                || self.secs.iter().sum::<f64>() < Self::MIN_TOTAL_SECS)
        {
            std::hint::black_box(self.run(&mut setup));
        }
    }

    /// Sets `setup_s` to the median set-up time and records how many
    /// set-ups it is the median of.
    pub fn report(&self, report: &mut Report) {
        report.set("setup_s", median(&self.secs));
        report.samples.insert("setup_s".into(), self.secs.len());
    }
}

/// One correctness check of a run.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence (counts, first mismatch).
    pub detail: String,
}

/// Everything one run of one workload reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Per-repetition values behind the medians.
    pub per_rep: BTreeMap<String, Vec<f64>>,
    /// Sample count behind every percentile.
    pub samples: BTreeMap<String, usize>,
    /// Free-form facts worth printing (what a fallback did, what was skipped).
    pub notes: Vec<String>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Repetitions of the timed section.
    pub reps: usize,
}

impl Report {
    /// Sets a metric; the name must be declared in [`crate::metrics`].
    pub fn set(&mut self, name: &str, value: f64) {
        let info = crate::metrics::metric(name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"));
        self.values.insert(info.name, value);
    }

    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Failed over attempted operations.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// True when every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Records the per-repetition values of a timing and sets the metric to
    /// their median.
    pub fn set_median(&mut self, name: &str, per_rep: &[f64]) {
        self.per_rep.insert(name.to_string(), per_rep.to_vec());
        self.set(name, median(per_rep));
    }

    /// The metrics this run must print: every end-to-end metric untraced,
    /// every per-layer metric traced (0 where the workload has no such
    /// layer).
    fn declared(&self, traced: bool) -> Vec<(&'static MetricInfo, f64)> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|m| {
                let v = self.values.get(m.name).copied();
                assert!(
                    traced || v.is_some(),
                    "end-to-end metric {} was not measured",
                    m.name
                );
                (m, v.unwrap_or(0.0))
            })
            .collect()
    }

    /// The `metrics` object of the result line and the result files.
    fn metrics_json(&self, traced: bool) -> Value {
        Value::Object(
            self.declared(traced)
                .into_iter()
                .map(|(m, v)| {
                    (
                        m.name.to_string(),
                        Value::Object(vec![
                            ("value".into(), Value::Float(v)),
                            ("unit".into(), Value::String(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line result object the contract asks for.
    pub fn result_line(&self, traced: bool) -> String {
        let v = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), self.metrics_json(traced)),
        ]);
        serde_json::to_string(&v).expect("infallible")
    }

    /// The body shared by the stdout report and the result files.
    pub fn to_json(&self, header: &Header, traced: bool) -> Vec<(String, Value)> {
        let floats = |v: &[f64]| Value::Array(v.iter().map(|&x| Value::Float(x)).collect());
        vec![
            ("header".into(), header.to_json()),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("failed_share".into(), Value::Float(self.failed_share())),
            ("reps".into(), Value::UInt(self.reps as u64)),
            ("metrics".into(), self.metrics_json(traced)),
            (
                "per_rep".into(),
                Value::Object(
                    self.per_rep
                        .iter()
                        .map(|(k, v)| (k.clone(), floats(v)))
                        .collect(),
                ),
            ),
            (
                "samples".into(),
                Value::Object(
                    self.samples
                        .iter()
                        .map(|(k, &n)| (k.clone(), Value::UInt(n as u64)))
                        .collect(),
                ),
            ),
            (
                "checks".into(),
                Value::Array(
                    self.checks
                        .iter()
                        .map(|c| {
                            Value::Object(vec![
                                ("name".into(), Value::String(c.name.clone())),
                                ("ok".into(), Value::Bool(c.ok)),
                                ("detail".into(), Value::String(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "notes".into(),
                Value::Array(self.notes.iter().cloned().map(Value::String).collect()),
            ),
        ]
    }

    /// Prints the report: header, every metric as `name value unit`, the
    /// per-repetition values, sample counts, checks, and the result line
    /// last.
    pub fn print(&self, header: &Header, traced: bool) {
        header.print();
        println!(
            "reps {}   attempted {}   failed {}   failed_share {}",
            self.reps,
            self.attempted,
            self.failed,
            self.failed_share()
        );
        for (m, v) in self.declared(traced) {
            println!("{} {} {}", m.name, v, m.unit);
        }
        for (name, values) in &self.per_rep {
            println!("per-rep {name}: {values:?}");
        }
        for (name, n) in &self.samples {
            println!("samples {name}: {n}");
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        for c in &self.checks {
            println!(
                "check {}: {} ({})",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
        println!("{}", self.result_line(traced));
    }
}

/// Where and how a run was made.
#[derive(Debug, Clone)]
pub struct Header {
    /// Workload name.
    pub workload: &'static str,
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository.
    pub commit: String,
    /// Cores available to the process.
    pub nproc: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// Workload seed.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Whether this is the smoke instance.
    pub smoke: bool,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Header {
    /// Collects the header for a run of `workload` under `opts`.
    pub fn collect(workload: &'static str, opts: &Options, traced: bool) -> Header {
        Header {
            workload,
            commit: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            seed: opts.seed,
            seconds: opts.seconds,
            traced,
            smoke: opts.smoke,
        }
    }

    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("workload".into(), Value::String(self.workload.into())),
            ("commit".into(), Value::String(self.commit.clone())),
            ("nproc".into(), Value::UInt(self.nproc as u64)),
            ("rustc".into(), Value::String(self.rustc.clone())),
            ("seed".into(), Value::UInt(self.seed)),
            ("seconds".into(), Value::Float(self.seconds)),
            ("traced".into(), Value::Bool(self.traced)),
            ("smoke".into(), Value::Bool(self.smoke)),
            ("load".into(), Value::String(LOAD_SHAPE.into())),
        ])
    }

    fn print(&self) {
        println!(
            "workload {}   seed {}   seconds {}   traced {}   smoke {}",
            self.workload, self.seed, self.seconds, self.traced, self.smoke
        );
        println!(
            "commit {}   nproc {}   {}",
            self.commit, self.nproc, self.rustc
        );
        println!("load: {LOAD_SHAPE}");
    }
}

/// The load shape of every workload, stated with every result.
pub const LOAD_SHAPE: &str =
    "closed loop, one caller, program at threads = 1; HTTP leg over loopback (traced serve-events only)";

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes `body` as pretty JSON to `dir/name`. `spans`, when given, is
/// appended as a last member with one compact object per line: a trace has
/// a hundred thousand spans and pretty-printing them triples the file.
pub fn write_json(
    dir: &Path,
    name: &str,
    body: Vec<(String, Value)>,
    spans: Option<&[Value]>,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    let mut text = serde_json::to_string_pretty(&Value::Object(body)).expect("infallible");
    if let Some(spans) = spans {
        let lines: Vec<String> = spans
            .iter()
            .map(|s| serde_json::to_string(s).expect("infallible"))
            .collect();
        text.truncate(text.strip_suffix("\n}").expect("a pretty object").len());
        text.push_str(&format!(
            ",\n  \"spans\": [\n{}\n  ]\n}}",
            lines.join(",\n")
        ));
    }
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}
