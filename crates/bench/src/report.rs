//! `BENCH_vm.json` — the execution-substrate performance trajectory.
//!
//! Every driver run with `--json` (and the `interp_hot_loop` Criterion
//! bench) records how fast the simulated machine itself executes on the
//! host: instructions/second of the VM hot loop, total simulated cycles,
//! and wall time per table. Successive PRs append to the same file, so
//! the substrate's own speed is tracked like any other benchmark.
//!
//! The container has no serde, so this module carries a deliberately
//! small JSON value type with a printer and a recursive-descent parser —
//! just enough to round-trip the file it owns.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Trajectory file name, resolved at the workspace root by default.
pub const BENCH_JSON: &str = "BENCH_vm.json";

/// Where to read/write the trajectory file: `BENCH_JSON_PATH` if set,
/// else `BENCH_vm.json` at the workspace root. Binaries (`cargo run`)
/// and benches (`cargo bench`) get different working directories, so
/// the default is anchored to this crate's manifest, not the CWD.
fn bench_json_path() -> PathBuf {
    match std::env::var("BENCH_JSON_PATH") {
        Ok(p) => PathBuf::from(p),
        Err(_) => Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(BENCH_JSON),
    }
}

/// A JSON value. Objects use a `BTreeMap` so output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; counters here stay well below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Empty object.
    pub fn object() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Insert into an object (panics if `self` is not an object).
    pub fn set(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(m) => {
                m.insert(key.to_string(), value);
            }
            _ => panic!("Json::set on a non-object"),
        }
    }

    /// Fetch a key from an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Fetch a key from an object, inserting an empty object if absent
    /// or if the existing value is not an object.
    pub fn entry_object(&mut self, key: &str) -> &mut Json {
        let Json::Obj(m) = self else {
            panic!("Json::entry_object on a non-object")
        };
        let e = m.entry(key.to_string()).or_insert_with(Json::object);
        if !matches!(e, Json::Obj(_)) {
            *e = Json::object();
        }
        e
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    let _ = write!(out, "{}{pad}", if i == 0 { "\n" } else { ",\n" });
                    v.write(out, indent + 1);
                }
                let _ = write!(out, "\n{close}]");
            }
            Json::Obj(m) => {
                if m.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    let _ = write!(out, "{}{pad}", if i == 0 { "\n" } else { ",\n" });
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                let _ = write!(out, "\n{close}}}");
            }
        }
    }

    /// Parse a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a short position-tagged message on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Load and parse a file; `None` if it doesn't exist or is invalid
    /// (a corrupt trajectory file is started over, not fatal).
    pub fn load(path: &Path) -> Option<Json> {
        let text = std::fs::read_to_string(path).ok()?;
        Json::parse(&text).ok()
    }

    /// Write the pretty form to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.pretty())
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut m = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(m));
            }
            loop {
                skip_ws(b, pos);
                let Json::Str(key) = parse_string(b, pos)? else {
                    unreachable!()
                };
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                m.insert(key, parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(m));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number `{text}` at byte {start}"))
        }
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(Json::Str(s));
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // advance one whole UTF-8 scalar
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                s.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

/// One driver's substrate measurement for the trajectory file.
#[derive(Debug, Clone, Copy)]
pub struct TableStats {
    /// Wall-clock seconds for the whole driver run.
    pub wall_seconds: f64,
    /// Total simulated instructions retired across all VM runs.
    pub instructions: u64,
    /// Total simulated cycles across all VM runs.
    pub cycles: u64,
}

impl TableStats {
    /// Host-side VM throughput (simulated instructions per wall second).
    pub fn instr_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.instructions as f64 / self.wall_seconds
    }

    fn to_json(self) -> Json {
        let mut o = Json::object();
        o.set("wall_seconds", Json::Num(self.wall_seconds));
        o.set("instructions", Json::Num(self.instructions as f64));
        o.set("cycles", Json::Num(self.cycles as f64));
        o.set("instr_per_sec", Json::Num(self.instr_per_sec()));
        o
    }
}

/// Merge one table's stats into `BENCH_vm.json` (path overridable via
/// the `BENCH_JSON_PATH` environment variable) and report what was
/// written. Call only when the driver saw `--json`.
pub fn record_table(table: &str, stats: TableStats) {
    let path = bench_json_path();
    let path = path.as_path();
    let mut root = Json::load(path).unwrap_or_else(Json::object);
    if !matches!(root, Json::Obj(_)) {
        root = Json::object();
    }
    root.set("schema", Json::Str("slo-bench-v1".to_string()));
    root.entry_object("tables").set(table, stats.to_json());
    match root.save(path) {
        Ok(()) => eprintln!(
            "[json] {table}: {:.2}s wall, {} simulated instructions, {:.2e} instr/s -> {}",
            stats.wall_seconds,
            stats.instructions,
            stats.instr_per_sec(),
            path.display()
        ),
        Err(e) => eprintln!("[json] failed to write {}: {e}", path.display()),
    }
}

/// Merge one `interp_hot_loop` engine comparison into `BENCH_vm.json`
/// under `hot_loop.<bench>`: host-side instructions/second for each
/// engine and the decoded/structured speedup ratio.
pub fn record_hot_loop(bench: &str, decoded_ips: f64, structured_ips: f64) {
    let path = bench_json_path();
    let path = path.as_path();
    let mut root = Json::load(path).unwrap_or_else(Json::object);
    if !matches!(root, Json::Obj(_)) {
        root = Json::object();
    }
    root.set("schema", Json::Str("slo-bench-v1".to_string()));
    let mut entry = Json::object();
    entry.set("decoded_instr_per_sec", Json::Num(decoded_ips));
    entry.set("structured_instr_per_sec", Json::Num(structured_ips));
    let speedup = if structured_ips > 0.0 {
        decoded_ips / structured_ips
    } else {
        0.0
    };
    entry.set("speedup", Json::Num(speedup));
    root.entry_object("hot_loop").set(bench, entry);
    match root.save(path) {
        Ok(()) => eprintln!(
            "[json] hot_loop/{bench}: decoded {decoded_ips:.2e} i/s, structured \
             {structured_ips:.2e} i/s, {speedup:.2}x -> {}",
            path.display()
        ),
        Err(e) => eprintln!("[json] failed to write {}: {e}", path.display()),
    }
}

/// Merge tracing-overhead measurements for one `interp_hot_loop` bench
/// into `hot_loop.<bench>` (alongside the engine comparison recorded by
/// [`record_hot_loop`]): throughput with the default options, with an
/// explicit no-op recorder, and with an enabled sampled recorder, plus
/// the no-op overhead (a fraction, stored in percent; the tentpole's
/// ≤ 3% budget) as the caller's gate measured it.
pub fn record_hot_loop_trace(
    bench: &str,
    baseline_ips: f64,
    noop_ips: f64,
    sampled_ips: f64,
    noop_overhead: f64,
) {
    let path = bench_json_path();
    let path = path.as_path();
    let mut root = Json::load(path).unwrap_or_else(Json::object);
    if !matches!(root, Json::Obj(_)) {
        root = Json::object();
    }
    root.set("schema", Json::Str("slo-bench-v1".to_string()));
    let overhead_pct = noop_overhead * 100.0;
    let entry = root.entry_object("hot_loop").entry_object(bench);
    entry.set("untraced_instr_per_sec", Json::Num(baseline_ips));
    entry.set("noop_trace_instr_per_sec", Json::Num(noop_ips));
    entry.set("sampled_trace_instr_per_sec", Json::Num(sampled_ips));
    entry.set("noop_trace_overhead_pct", Json::Num(overhead_pct));
    match root.save(path) {
        Ok(()) => eprintln!(
            "[json] hot_loop/{bench} tracing: untraced {baseline_ips:.2e} i/s, \
             no-op {noop_ips:.2e} i/s ({overhead_pct:+.2}%), sampled {sampled_ips:.2e} i/s -> {}",
            path.display()
        ),
        Err(e) => eprintln!("[json] failed to write {}: {e}", path.display()),
    }
}

/// One pipeline phase's share of a traced compile, for the `phases`
/// object of `BENCH_vm.json`.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStat {
    /// Wall-clock seconds summed over the phase's spans.
    pub wall_seconds: f64,
    /// Number of spans recorded for the phase.
    pub spans: u64,
}

/// Merge a per-phase wall-clock breakdown (from a traced compile) into
/// `BENCH_vm.json` under `phases.<source>`. Call only under `--json`.
pub fn record_phases(source: &str, phases: &[(String, PhaseStat)]) {
    let path = bench_json_path();
    let path = path.as_path();
    let mut root = Json::load(path).unwrap_or_else(Json::object);
    if !matches!(root, Json::Obj(_)) {
        root = Json::object();
    }
    root.set("schema", Json::Str("slo-bench-v1".to_string()));
    let mut entry = Json::object();
    for (name, stat) in phases {
        let mut o = Json::object();
        o.set("wall_seconds", Json::Num(stat.wall_seconds));
        o.set("spans", Json::Num(stat.spans as f64));
        entry.set(name, o);
    }
    root.entry_object("phases").set(source, entry);
    match root.save(path) {
        Ok(()) => eprintln!(
            "[json] phases/{source}: {} phase(s) -> {}",
            phases.len(),
            path.display()
        ),
        Err(e) => eprintln!("[json] failed to write {}: {e}", path.display()),
    }
}

/// The batch load-generator's measurements for the trajectory file.
#[derive(Debug, Clone, Copy)]
pub struct BatchStats {
    /// Jobs in the generated batch.
    pub jobs: usize,
    /// Worker threads of the parallel run.
    pub workers: usize,
    /// Wall-clock seconds for the sequential (1 worker, no cache) run.
    pub seq_seconds: f64,
    /// Wall-clock seconds for the parallel run.
    pub par_seconds: f64,
    /// Analysis-cache hit rate of the repeated identical batch.
    pub rerun_hit_rate: f64,
    /// Degraded (advisory) outcomes in the clean batch.
    pub degraded: u64,
    /// Failed outcomes in the clean batch.
    pub failed: u64,
}

/// Merge the batch load-generator's stats into `BENCH_vm.json` under
/// `batch`. Call only when the driver saw `--json`.
pub fn record_batch(stats: BatchStats) {
    let path = bench_json_path();
    let path = path.as_path();
    let mut root = Json::load(path).unwrap_or_else(Json::object);
    if !matches!(root, Json::Obj(_)) {
        root = Json::object();
    }
    root.set("schema", Json::Str("slo-bench-v1".to_string()));
    let speedup = if stats.par_seconds > 0.0 {
        stats.seq_seconds / stats.par_seconds
    } else {
        0.0
    };
    let mut entry = Json::object();
    entry.set("jobs", Json::Num(stats.jobs as f64));
    entry.set("workers", Json::Num(stats.workers as f64));
    entry.set("seq_seconds", Json::Num(stats.seq_seconds));
    entry.set("par_seconds", Json::Num(stats.par_seconds));
    entry.set("speedup", Json::Num(speedup));
    // On a single-core host the "parallel" run pays pool overhead with
    // nothing to parallelize; flag the reading so the trajectory isn't
    // misread as a parallel-scaling regression.
    let single_core = stats.workers <= 1;
    if single_core {
        entry.set("speedup_note", Json::Str("single-core".to_string()));
    }
    entry.set("rerun_hit_rate", Json::Num(stats.rerun_hit_rate));
    entry.set("degraded", Json::Num(stats.degraded as f64));
    entry.set("failed", Json::Num(stats.failed as f64));
    root.set("batch", entry);
    let speedup_text = if single_core {
        "single-core, speedup n/a".to_string()
    } else {
        format!("{speedup:.2}x on {} workers", stats.workers)
    };
    match root.save(path) {
        Ok(()) => eprintln!(
            "[json] batch: {} jobs, seq {:.2}s, par {:.2}s ({speedup_text}), \
             rerun hit rate {:.0}% -> {}",
            stats.jobs,
            stats.seq_seconds,
            stats.par_seconds,
            100.0 * stats.rerun_hit_rate,
            path.display()
        ),
        Err(e) => eprintln!("[json] failed to write {}: {e}", path.display()),
    }
}

/// The kill-and-restart store campaign's tallies for the trajectory
/// file.
#[derive(Debug, Clone, Copy)]
pub struct StoreStats {
    /// Jobs in the manifest each process ran.
    pub jobs: usize,
    /// Replies received before the serve process was SIGKILLed.
    pub killed_after: usize,
    /// Persistent-store hit rate of the restarted (cold-LRU) batch —
    /// the cross-process warm-start rate.
    pub warm_hit_rate: f64,
    /// Corrupt records dropped across the restart runs (torn tails
    /// from the kill, never served).
    pub corrupt_drops: u64,
    /// Seeds swept in the in-process bit-rot campaign.
    pub bitrot_seeds: usize,
    /// Corrupt records dropped and recomputed across the bit-rot sweep.
    pub bitrot_corrupt_drops: u64,
    /// Outcomes that differed from the clean reference anywhere in the
    /// campaign (must be 0: corruption may cost recompute time, never
    /// bits).
    pub mismatches: u64,
}

/// Merge the kill-and-restart store campaign's stats into
/// `BENCH_vm.json` under `store`. Call only when the driver saw
/// `--json`.
pub fn record_store(stats: StoreStats) {
    let path = bench_json_path();
    let path = path.as_path();
    let mut root = Json::load(path).unwrap_or_else(Json::object);
    if !matches!(root, Json::Obj(_)) {
        root = Json::object();
    }
    root.set("schema", Json::Str("slo-bench-v1".to_string()));
    let mut entry = Json::object();
    entry.set("jobs", Json::Num(stats.jobs as f64));
    entry.set("killed_after", Json::Num(stats.killed_after as f64));
    entry.set("warm_hit_rate", Json::Num(stats.warm_hit_rate));
    entry.set("corrupt_drops", Json::Num(stats.corrupt_drops as f64));
    entry.set("bitrot_seeds", Json::Num(stats.bitrot_seeds as f64));
    entry.set(
        "bitrot_corrupt_drops",
        Json::Num(stats.bitrot_corrupt_drops as f64),
    );
    entry.set("mismatches", Json::Num(stats.mismatches as f64));
    root.set("store", entry);
    match root.save(path) {
        Ok(()) => eprintln!(
            "[json] store: {} jobs, killed after {}, warm hit rate {:.0}%, \
             {} corrupt dropped, bit-rot sweep {} seeds ({} dropped), {} mismatches -> {}",
            stats.jobs,
            stats.killed_after,
            100.0 * stats.warm_hit_rate,
            stats.corrupt_drops,
            stats.bitrot_seeds,
            stats.bitrot_corrupt_drops,
            stats.mismatches,
            path.display()
        ),
        Err(e) => eprintln!("[json] failed to write {}: {e}", path.display()),
    }
}

/// The chaos campaign driver's tallies for the trajectory file.
#[derive(Debug, Clone, Copy)]
pub struct ChaosStats {
    /// Campaign seeds swept.
    pub seeds: usize,
    /// Jobs per campaign.
    pub jobs_per_seed: usize,
    /// Degradation-ladder violations (must be 0: optimized bits changed
    /// or a parseable input failed).
    pub violations: usize,
    /// Total faults injected across all campaigns and sites.
    pub faults_injected: u64,
    /// Supervisor retries across all campaigns.
    pub retries: u64,
    /// Quarantined jobs across all campaigns.
    pub quarantined: u64,
    /// Optimized outcomes across all campaigns.
    pub optimized: u64,
    /// Advisory outcomes across all campaigns.
    pub advisory: u64,
}

/// Merge the chaos driver's tallies into `BENCH_vm.json` under `chaos`.
/// Call only when the driver saw `--json`.
pub fn record_chaos(stats: ChaosStats) {
    let path = bench_json_path();
    let path = path.as_path();
    let mut root = Json::load(path).unwrap_or_else(Json::object);
    if !matches!(root, Json::Obj(_)) {
        root = Json::object();
    }
    root.set("schema", Json::Str("slo-bench-v1".to_string()));
    let mut entry = Json::object();
    entry.set("seeds", Json::Num(stats.seeds as f64));
    entry.set("jobs_per_seed", Json::Num(stats.jobs_per_seed as f64));
    entry.set("violations", Json::Num(stats.violations as f64));
    entry.set("faults_injected", Json::Num(stats.faults_injected as f64));
    entry.set("retries", Json::Num(stats.retries as f64));
    entry.set("quarantined", Json::Num(stats.quarantined as f64));
    entry.set("optimized", Json::Num(stats.optimized as f64));
    entry.set("advisory", Json::Num(stats.advisory as f64));
    root.set("chaos", entry);
    match root.save(path) {
        Ok(()) => eprintln!(
            "[json] chaos: {} seed(s) x {} jobs, {} fault(s), {} violation(s) -> {}",
            stats.seeds,
            stats.jobs_per_seed,
            stats.faults_injected,
            stats.violations,
            path.display()
        ),
        Err(e) => eprintln!("[json] failed to write {}: {e}", path.display()),
    }
}

/// The socket-chaos campaign's tallies for the trajectory file.
#[derive(Debug, Clone, Copy)]
pub struct NetChaosStats {
    /// Campaign seeds swept.
    pub seeds: usize,
    /// Job lines sent per seed.
    pub jobs_per_seed: usize,
    /// Ladder violations over the wire (optimized bits changed, or a
    /// valid line answered `failed`/non-transient `error`).
    pub violations: usize,
    /// Connections rejected at accept (accept-storm site + busy).
    pub rejected: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Server-side injected disconnects observed.
    pub disconnects: u64,
    /// Slow-loris closes observed.
    pub slow_closes: u64,
    /// Client-side retries needed to land every job.
    pub client_retries: u64,
}

/// Merge the socket-chaos tallies into `BENCH_vm.json` under
/// `chaos.net`. Call AFTER [`record_chaos`] (which replaces the whole
/// `chaos` object) and only when the driver saw `--json`.
pub fn record_chaos_net(stats: NetChaosStats) {
    let path = bench_json_path();
    let path = path.as_path();
    let mut root = Json::load(path).unwrap_or_else(Json::object);
    if !matches!(root, Json::Obj(_)) {
        root = Json::object();
    }
    root.set("schema", Json::Str("slo-bench-v1".to_string()));
    let mut entry = Json::object();
    entry.set("seeds", Json::Num(stats.seeds as f64));
    entry.set("jobs_per_seed", Json::Num(stats.jobs_per_seed as f64));
    entry.set("violations", Json::Num(stats.violations as f64));
    entry.set("rejected", Json::Num(stats.rejected as f64));
    entry.set("shed", Json::Num(stats.shed as f64));
    entry.set("disconnects", Json::Num(stats.disconnects as f64));
    entry.set("slow_closes", Json::Num(stats.slow_closes as f64));
    entry.set("client_retries", Json::Num(stats.client_retries as f64));
    root.entry_object("chaos").set("net", entry);
    match root.save(path) {
        Ok(()) => eprintln!(
            "[json] chaos.net: {} seed(s) x {} lines, {} shed, {} disconnect(s), {} violation(s) -> {}",
            stats.seeds,
            stats.jobs_per_seed,
            stats.shed,
            stats.disconnects,
            stats.violations,
            path.display()
        ),
        Err(e) => eprintln!("[json] failed to write {}: {e}", path.display()),
    }
}

/// The TCP load driver's tallies for the trajectory file.
#[derive(Debug, Clone, Copy)]
pub struct LoadStats {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests completed (optimized/advisory replies).
    pub completed: usize,
    /// Requests shed with a `retry_after_ms` hint.
    pub sheds: usize,
    /// sheds / (completed + sheds).
    pub shed_rate: f64,
    /// Median reply latency over completed requests, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile reply latency, milliseconds.
    pub p99_ms: f64,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Whole-run wall clock, seconds.
    pub wall_seconds: f64,
}

/// Merge the load driver's tallies into `BENCH_vm.json` under `load`.
/// Call only when the driver saw `--json`.
pub fn record_load(stats: LoadStats) {
    let path = bench_json_path();
    let path = path.as_path();
    let mut root = Json::load(path).unwrap_or_else(Json::object);
    if !matches!(root, Json::Obj(_)) {
        root = Json::object();
    }
    root.set("schema", Json::Str("slo-bench-v1".to_string()));
    let mut entry = Json::object();
    entry.set("clients", Json::Num(stats.clients as f64));
    entry.set("completed", Json::Num(stats.completed as f64));
    entry.set("sheds", Json::Num(stats.sheds as f64));
    entry.set("shed_rate", Json::Num(stats.shed_rate));
    entry.set("p50_ms", Json::Num(stats.p50_ms));
    entry.set("p99_ms", Json::Num(stats.p99_ms));
    entry.set("throughput_rps", Json::Num(stats.throughput_rps));
    entry.set("wall_seconds", Json::Num(stats.wall_seconds));
    root.set("load", entry);
    match root.save(path) {
        Ok(()) => eprintln!(
            "[json] load: {} client(s), {} completed, shed rate {:.1}%, p50 {:.2} ms, p99 {:.2} ms -> {}",
            stats.clients,
            stats.completed,
            100.0 * stats.shed_rate,
            stats.p50_ms,
            stats.p99_ms,
            path.display()
        ),
        Err(e) => eprintln!("[json] failed to write {}: {e}", path.display()),
    }
}

/// Whether `--json` is among the process arguments (and strip it from a
/// caller-collected arg list so positional parsing stays simple).
pub fn json_flag(args: &mut Vec<String>) -> bool {
    let before = args.len();
    args.retain(|a| a != "--json");
    args.len() != before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let src = r#"{"a": [1, 2.5, -3e2], "b": {"nested": true, "s": "q\"\\\n"}, "c": null}"#;
        let v = Json::parse(src).expect("parse");
        let printed = v.pretty();
        assert_eq!(Json::parse(&printed).expect("reparse"), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn integers_print_without_fraction() {
        let mut o = Json::object();
        o.set("n", Json::Num(12345.0));
        assert!(o.pretty().contains("\"n\": 12345\n"));
    }

    #[test]
    fn entry_object_replaces_non_objects() {
        let mut o = Json::object();
        o.set("tables", Json::Num(1.0));
        o.entry_object("tables").set("t1", Json::Bool(true));
        assert_eq!(
            o.get("tables").and_then(|t| t.get("t1")),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn table_stats_throughput() {
        let s = TableStats {
            wall_seconds: 2.0,
            instructions: 10_000_000,
            cycles: 42,
        };
        assert!((s.instr_per_sec() - 5_000_000.0).abs() < 1e-9);
    }
}
