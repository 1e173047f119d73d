//! `BENCH_vm.json` — the execution-substrate performance trajectory.
//!
//! Every driver run with `--json` (and the `interp_hot_loop` Criterion
//! bench) records how fast the simulated machine itself executes on the
//! host: instructions/second of the VM hot loop, total simulated cycles,
//! and wall time per table. Successive PRs append to the same file, so
//! the substrate's own speed is tracked like any other benchmark.
//!
//! The file is read and written through the workspace's one JSON codec,
//! [`slo_obs::json`]; every `record_*` function is one `merge` into it.

use slo_obs::json::{parse_json, JsonValue};
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

/// Load the trajectory file (a missing or corrupt one is started over,
/// not fatal), let `edit` change it, write it back pretty-printed with
/// keys sorted, and report `summary` on stderr.
fn merge(summary: &str, edit: impl FnOnce(&mut JsonValue)) {
    let path = bench_json_path();
    let mut root = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| parse_json(&text).ok())
        .filter(|v| matches!(v, JsonValue::Obj(_)))
        .unwrap_or_else(|| JsonValue::object([]));
    root.set("schema", "slo-bench-v1");
    edit(&mut root);
    sort_keys(&mut root);
    match std::fs::write(&path, root.to_pretty() + "\n") {
        Ok(()) => eprintln!("[json] {summary} -> {}", path.display()),
        Err(e) => eprintln!("[json] failed to write {}: {e}", path.display()),
    }
}

/// The object under `key`, replacing a missing or non-object value with
/// an empty object first.
fn entry<'a>(parent: &'a mut JsonValue, key: &str) -> &'a mut JsonValue {
    let kept = parent
        .get(key)
        .filter(|v| matches!(v, JsonValue::Obj(_)))
        .cloned();
    parent.set(key, kept.unwrap_or_else(|| JsonValue::object([])))
}

/// Sort object keys at every level, so the file's layout does not
/// depend on which driver first wrote a key.
fn sort_keys(v: &mut JsonValue) {
    match v {
        JsonValue::Obj(fields) => {
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            fields.iter_mut().for_each(|(_, v)| sort_keys(v));
        }
        JsonValue::Arr(items) => items.iter_mut().for_each(sort_keys),
        _ => {}
    }
}

/// Declare a stats struct whose fields are recorded under their own
/// names: the struct is the one list of a record's keys.
macro_rules! stats {
    ($(#[$doc:meta])* $name:ident { $($(#[$fdoc:meta])* $field:ident: $ty:ty,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy)]
        pub struct $name {
            $($(#[$fdoc])* pub $field: $ty,)*
        }

        impl $name {
            fn to_json(self) -> JsonValue {
                JsonValue::object([$((stringify!($field), self.$field.into()),)*])
            }
        }
    };
}

stats! {
    /// One driver's substrate measurement for the trajectory file.
    TableStats {
        /// Wall-clock seconds for the whole driver run.
        wall_seconds: f64,
        /// Total simulated instructions retired across all VM runs.
        instructions: u64,
        /// Total simulated cycles across all VM runs.
        cycles: u64,
    }
}

impl TableStats {
    /// Host-side VM throughput (simulated instructions per wall second).
    pub fn instr_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.instructions as f64 / self.wall_seconds
    }
}

/// Merge one table's stats into `BENCH_vm.json` (path overridable via
/// the `BENCH_JSON_PATH` environment variable) and report what was
/// written. Call only when the driver saw `--json`.
pub fn record_table(table: &str, stats: TableStats) {
    let summary = format!(
        "{table}: {:.2}s wall, {} simulated instructions, {:.2e} instr/s",
        stats.wall_seconds,
        stats.instructions,
        stats.instr_per_sec(),
    );
    merge(&summary, |root| {
        let mut e = stats.to_json();
        e.set("instr_per_sec", stats.instr_per_sec());
        entry(root, "tables").set(table, e);
    });
}

/// Merge one `interp_hot_loop` engine comparison into `BENCH_vm.json`
/// under `hot_loop.<bench>`: host-side instructions/second for each
/// engine and the decoded/structured speedup ratio.
pub fn record_hot_loop(bench: &str, decoded_ips: f64, structured_ips: f64) {
    let speedup = if structured_ips > 0.0 {
        decoded_ips / structured_ips
    } else {
        0.0
    };
    let summary = format!(
        "hot_loop/{bench}: decoded {decoded_ips:.2e} i/s, structured \
         {structured_ips:.2e} i/s, {speedup:.2}x"
    );
    merge(&summary, |root| {
        let e = entry(entry(root, "hot_loop"), bench);
        e.set("decoded_instr_per_sec", decoded_ips);
        e.set("structured_instr_per_sec", structured_ips);
        e.set("speedup", speedup);
    });
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
    let overhead_pct = noop_overhead * 100.0;
    let summary = format!(
        "hot_loop/{bench} tracing: untraced {baseline_ips:.2e} i/s, \
         no-op {noop_ips:.2e} i/s ({overhead_pct:+.2}%), sampled {sampled_ips:.2e} i/s"
    );
    merge(&summary, |root| {
        let e = entry(entry(root, "hot_loop"), bench);
        e.set("untraced_instr_per_sec", baseline_ips);
        e.set("noop_trace_instr_per_sec", noop_ips);
        e.set("sampled_trace_instr_per_sec", sampled_ips);
        e.set("noop_trace_overhead_pct", overhead_pct);
    });
}

stats! {
    /// One pipeline phase's share of a traced compile, for the `phases`
    /// object of `BENCH_vm.json`.
    PhaseStat {
        /// Wall-clock seconds summed over the phase's spans.
        wall_seconds: f64,
        /// Number of spans recorded for the phase.
        spans: u64,
    }
}

/// Merge a per-phase wall-clock breakdown (from a traced compile) into
/// `BENCH_vm.json` under `phases.<source>`. Call only under `--json`.
pub fn record_phases(source: &str, phases: &[(String, PhaseStat)]) {
    let summary = format!("phases/{source}: {} phase(s)", phases.len());
    merge(&summary, |root| {
        let entries = phases
            .iter()
            .map(|(name, stat)| (name.as_str(), stat.to_json()));
        entry(root, "phases").set(source, JsonValue::object(entries));
    });
}

stats! {
    /// The batch load-generator's measurements for the trajectory file.
    BatchStats {
        /// Jobs in the generated batch.
        jobs: usize,
        /// Worker threads of the parallel run.
        workers: usize,
        /// Wall-clock seconds for the sequential (1 worker, no cache) run.
        seq_seconds: f64,
        /// Wall-clock seconds for the parallel run.
        par_seconds: f64,
        /// Analysis-cache hit rate of the repeated identical batch.
        rerun_hit_rate: f64,
        /// Degraded (advisory) outcomes in the clean batch.
        degraded: u64,
        /// Failed outcomes in the clean batch.
        failed: u64,
    }
}

/// Merge the batch load-generator's stats into `BENCH_vm.json` under
/// `batch`. Call only when the driver saw `--json`.
pub fn record_batch(stats: BatchStats) {
    let speedup = if stats.par_seconds > 0.0 {
        stats.seq_seconds / stats.par_seconds
    } else {
        0.0
    };
    // On a single-core host the "parallel" run pays pool overhead with
    // nothing to parallelize; flag the reading so the trajectory isn't
    // misread as a parallel-scaling regression.
    let single_core = stats.workers <= 1;
    let speedup_text = if single_core {
        "single-core, speedup n/a".to_string()
    } else {
        format!("{speedup:.2}x on {} workers", stats.workers)
    };
    let summary = format!(
        "batch: {} jobs, seq {:.2}s, par {:.2}s ({speedup_text}), rerun hit rate {:.0}%",
        stats.jobs,
        stats.seq_seconds,
        stats.par_seconds,
        100.0 * stats.rerun_hit_rate,
    );
    merge(&summary, |root| {
        let mut e = stats.to_json();
        e.set("speedup", speedup);
        if single_core {
            e.set("speedup_note", "single-core");
        }
        root.set("batch", e);
    });
}

stats! {
    /// The kill-and-restart store campaign's tallies for the trajectory
    /// file.
    StoreStats {
        /// Jobs in the manifest each process ran.
        jobs: usize,
        /// Replies received before the serve process was SIGKILLed.
        killed_after: usize,
        /// Persistent-store hit rate of the restarted (cold-LRU) batch —
        /// the cross-process warm-start rate.
        warm_hit_rate: f64,
        /// Corrupt records dropped across the restart runs (torn tails
        /// from the kill, never served).
        corrupt_drops: u64,
        /// Seeds swept in the in-process bit-rot campaign.
        bitrot_seeds: usize,
        /// Corrupt records dropped and recomputed across the bit-rot sweep.
        bitrot_corrupt_drops: u64,
        /// Outcomes that differed from the clean reference anywhere in the
        /// campaign (must be 0: corruption may cost recompute time, never
        /// bits).
        mismatches: u64,
    }
}

/// Merge the kill-and-restart store campaign's stats into
/// `BENCH_vm.json` under `store`. Call only when the driver saw
/// `--json`.
pub fn record_store(stats: StoreStats) {
    let summary = format!(
        "store: {} jobs, killed after {}, warm hit rate {:.0}%, \
         {} corrupt dropped, bit-rot sweep {} seeds ({} dropped), {} mismatches",
        stats.jobs,
        stats.killed_after,
        100.0 * stats.warm_hit_rate,
        stats.corrupt_drops,
        stats.bitrot_seeds,
        stats.bitrot_corrupt_drops,
        stats.mismatches,
    );
    merge(&summary, |root| {
        root.set("store", stats.to_json());
    });
}

stats! {
    /// The chaos campaign driver's tallies for the trajectory file.
    ChaosStats {
        /// Campaign seeds swept.
        seeds: usize,
        /// Jobs per campaign.
        jobs_per_seed: usize,
        /// Degradation-ladder violations (must be 0: optimized bits changed
        /// or a parseable input failed).
        violations: usize,
        /// Total faults injected across all campaigns and sites.
        faults_injected: u64,
        /// Supervisor retries across all campaigns.
        retries: u64,
        /// Quarantined jobs across all campaigns.
        quarantined: u64,
        /// Optimized outcomes across all campaigns.
        optimized: u64,
        /// Advisory outcomes across all campaigns.
        advisory: u64,
    }
}

/// Merge the chaos driver's tallies into `BENCH_vm.json` under `chaos`.
/// Call only when the driver saw `--json`.
pub fn record_chaos(stats: ChaosStats) {
    let summary = format!(
        "chaos: {} seed(s) x {} jobs, {} fault(s), {} violation(s)",
        stats.seeds, stats.jobs_per_seed, stats.faults_injected, stats.violations,
    );
    merge(&summary, |root| {
        root.set("chaos", stats.to_json());
    });
}

stats! {
    /// The socket-chaos campaign's tallies for the trajectory file.
    NetChaosStats {
        /// Campaign seeds swept.
        seeds: usize,
        /// Job lines sent per seed.
        jobs_per_seed: usize,
        /// Ladder violations over the wire (optimized bits changed, or a
        /// valid line answered `failed`/non-transient `error`).
        violations: usize,
        /// Connections rejected at accept (accept-storm site + busy).
        rejected: u64,
        /// Requests shed by admission control.
        shed: u64,
        /// Server-side injected disconnects observed.
        disconnects: u64,
        /// Slow-loris closes observed.
        slow_closes: u64,
        /// Client-side retries needed to land every job.
        client_retries: u64,
    }
}

/// Merge the socket-chaos tallies into `BENCH_vm.json` under
/// `chaos.net`. Call AFTER [`record_chaos`] (which replaces the whole
/// `chaos` object) and only when the driver saw `--json`.
pub fn record_chaos_net(stats: NetChaosStats) {
    let summary = format!(
        "chaos.net: {} seed(s) x {} lines, {} shed, {} disconnect(s), {} violation(s)",
        stats.seeds, stats.jobs_per_seed, stats.shed, stats.disconnects, stats.violations,
    );
    merge(&summary, |root| {
        entry(root, "chaos").set("net", stats.to_json());
    });
}

stats! {
    /// The TCP load driver's tallies for the trajectory file.
    LoadStats {
        /// Concurrent client connections.
        clients: usize,
        /// Requests completed (optimized/advisory replies).
        completed: usize,
        /// Requests shed with a `retry_after_ms` hint.
        sheds: usize,
        /// sheds / (completed + sheds).
        shed_rate: f64,
        /// Median reply latency over completed requests, milliseconds.
        p50_ms: f64,
        /// 99th-percentile reply latency, milliseconds.
        p99_ms: f64,
        /// Completed requests per wall-clock second.
        throughput_rps: f64,
        /// Whole-run wall clock, seconds.
        wall_seconds: f64,
    }
}

/// Merge the load driver's tallies into `BENCH_vm.json` under `load`.
/// Call only when the driver saw `--json`.
pub fn record_load(stats: LoadStats) {
    let summary = format!(
        "load: {} client(s), {} completed, shed rate {:.1}%, p50 {:.2} ms, p99 {:.2} ms",
        stats.clients,
        stats.completed,
        100.0 * stats.shed_rate,
        stats.p50_ms,
        stats.p99_ms,
    );
    merge(&summary, |root| {
        root.set("load", stats.to_json());
    });
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
    fn trajectory_file_round_trips_byte_for_byte() {
        let text = "{\n  \"a\": [\n    1,\n    2.5,\n    -300\n  ],\n  \"b\": {\n    \
                    \"nested\": true,\n    \"s\": \"q\\\"\\\\\\n\"\n  },\n  \"c\": null,\n  \
                    \"e\": {}\n}";
        let v = parse_json(text).expect("parse");
        assert_eq!(v.to_pretty(), text);
    }

    #[test]
    fn sort_keys_orders_every_level() {
        let mut v = parse_json(r#"{"z":{"b":1,"a":2},"a":[{"y":0,"x":0}]}"#).expect("parse");
        sort_keys(&mut v);
        assert_eq!(v.to_json(), r#"{"a":[{"x":0,"y":0}],"z":{"a":2,"b":1}}"#);
    }

    #[test]
    fn entry_replaces_non_objects() {
        let mut o = JsonValue::object([("tables", 1u64.into())]);
        entry(&mut o, "tables").set("t1", true);
        assert_eq!(
            o.get("tables").and_then(|t| t.get("t1")),
            Some(&JsonValue::Bool(true))
        );
    }

    #[test]
    fn stats_record_every_field_under_its_name() {
        let s = LoadStats {
            clients: 2,
            completed: 10,
            sheds: 1,
            shed_rate: 0.5,
            p50_ms: 1.25,
            p99_ms: 3.0,
            throughput_rps: 100.0,
            wall_seconds: 0.1,
        };
        assert_eq!(
            s.to_json().to_json(),
            r#"{"clients":2,"completed":10,"sheds":1,"shed_rate":0.5,"p50_ms":1.25,"p99_ms":3,"throughput_rps":100,"wall_seconds":0.1}"#
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
