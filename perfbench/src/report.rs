//! Result assembly: metrics with units, honest percentiles, run metadata
//! and the one-line JSON result.

use std::fmt::Write as _;
use std::path::Path;

/// One reported metric. `note` is printed in the human-readable report
/// (sample counts, bases of ratios); the JSON line carries value + unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Items or requests that failed a correctness check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// One line per failed check, printed before the result.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

/// Samples a percentile must have beyond it before it is printed.
const TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (nearest rank) of `samples`, refusing when fewer
/// than ten samples lie beyond it: a shorter run must not quietly turn
/// `p90_ms` into a near-maximum.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + TAIL_SAMPLES {
        return Err(format!(
            "p{:.0} of {n} samples would leave {} beyond it; need at least {TAIL_SAMPLES}",
            q * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// `p50_ms` and `p90_ms` of latencies given in milliseconds.
pub fn latency_metrics(lat_ms: &[f64]) -> Result<[Metric; 2], String> {
    let n = lat_ms.len();
    Ok([
        Metric::new("p50_ms", percentile(lat_ms, 0.5)?, "ms").note(format!("n={n}")),
        Metric::new("p90_ms", percentile(lat_ms, 0.9)?, "ms").note(format!("n={n}")),
    ])
}

pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set (VmHWM) of a process in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
    Ok(kb / 1024.0)
}

/// Run metadata recorded with every result.
pub struct Meta {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
    pub revision: String,
    pub loadavg: String,
}

impl Meta {
    pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool) -> Meta {
        Meta {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            revision: revision(Path::new(".")),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
                .unwrap_or_else(|_| "unknown".to_string()),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
             \"revision\":\"{}\",\"loadavg_at_start\":\"{}\"}}",
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.nproc,
            self.revision,
            self.loadavg
        )
    }
}

/// The checkout's revision: the git commit when a `.git` directory sits
/// in it, else an FNV-1a digest of the sources the benchmark builds
/// (`tree-…`), since benchmark checkouts are plain file trees.
fn revision(root: &Path) -> String {
    if let Ok(head) = std::fs::read_to_string(root.join(".git/HEAD")) {
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            Some(r) => {
                if let Ok(id) = std::fs::read_to_string(root.join(".git").join(r)) {
                    return id.trim().to_string();
                }
            }
            None => return head.to_string(),
        }
    }
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("tree-{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
            out.push(p);
        }
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Print the human-readable report, the metadata line and, last, the
/// one-line JSON result.
pub fn print(meta: &Meta, out: &Outcome) {
    println!(
        "perfbench {} seed={} meta {}",
        meta.workload,
        meta.seed,
        meta.to_json()
    );
    for m in &out.metrics {
        println!(
            "  {:<28} {:>14.4} {:<10} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed
    );
}
