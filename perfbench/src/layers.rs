//! Traced mode (`--trace 1`): the per-layer breakdown.
//!
//! 1. A TCP leg: the workload's seeded request lines go to a real
//!    `slo serve --listen` (serve-*: the workload's own server and lines;
//!    paper-sim: its first items as lines to a serve-cold-style server).
//!    The server's `metrics` verb then gives its cache and store hit
//!    ratios, queue wait and fe/ipa/be/exec time.
//! 2. An in-process replay of the first [`REPLAY`] of those requests
//!    through each layer's public functions, every call wrapped in a
//!    `perfbench` span of an `slo_obs::Recorder`. It runs three times —
//!    recorder disabled, enabled, disabled — and the traced pass against
//!    the mean of the other two is `obs.trace_overhead_pct`. The enabled run's spans are written as a
//!    Chrome trace and checked with `slo_obs::conform` and
//!    `slo trace-check`.
//!
//! A `*_ms` metric is the mean self time per call: the span's time minus
//! the time its child spans cover. Every layer is called on every
//! workload's inputs, so each metric is defined everywhere; which
//! layers a workload's requests really pass through shows in the
//! server-side ratios.

use crate::calib::Calibrator;
use crate::gen::{sim_reqs, ServeReq};
use crate::paper_sim::{weight_scheme, WORKERS};
use crate::report::{Metric, Outcome};
use crate::serve::{self, closed_loop, server_args, write_programs, Server, WorkDir};
use slo::analysis::affinity::{build_affinity_graphs, build_field_counts};
use slo::analysis::ipa::aggregate;
use slo::analysis::legality::analyze_all_units;
use slo::analysis::{block_frequencies, WeightScheme};
use slo::transform::{apply_plan, decide, HeuristicsConfig};
use slo::{analysis_cache_key, decode_analysis, encode_analysis, Analysis, PipelineConfig};
use slo_obs::conform::{check_chrome_trace, parse_json, JsonValue};
use slo_obs::{EventKind, Recorder, TraceEvent};
use slo_service::{
    AnalysisStore, FaultPlan, JobStatus, Journal, Request, Response, Service, ServiceConfig,
};
use slo_vm::{CacheConfig, DecodedProgram, VmOptions};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Requests replayed in-process through every layer.
const REPLAY: usize = 40;
/// Replayed programs also swept through the five VM option variants.
const VM_SWEEP: usize = 6;
/// Span category of the benchmark's own spans.
const CAT: &str = "perfbench";

/// Per-layer totals of one replay pass.
#[derive(Default)]
struct Tally {
    ns: u128,
    calls: u64,
}

struct Layers {
    rec: Recorder,
    tally: BTreeMap<&'static str, Tally>,
    /// Simulated instructions per VM span name.
    instr: BTreeMap<&'static str, u64>,
    parsed_bytes: u64,
    serial_bytes: u64,
}

impl Layers {
    fn new(rec: Recorder) -> Layers {
        Layers {
            rec,
            tally: BTreeMap::new(),
            instr: BTreeMap::new(),
            parsed_bytes: 0,
            serial_bytes: 0,
        }
    }

    /// Run `f` as one call into `layer`, inside a span of that name.
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.rec.span(CAT, layer);
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos();
        drop(span);
        let e = self.tally.entry(layer).or_default();
        e.ns += ns;
        e.calls += 1;
        out
    }

    /// A VM run as one call into `layer`, counting its instructions.
    fn vm(
        &mut self,
        layer: &'static str,
        prog: &slo_ir::Program,
        opts: &VmOptions,
    ) -> Result<slo_vm::ExecOutcome, String> {
        let out = self
            .time(layer, || slo_vm::run(prog, opts))
            .map_err(|e| format!("{layer}: {e}"))?;
        *self.instr.entry(layer).or_default() += out.stats.instructions;
        Ok(out)
    }
}

/// Everything one replay pass writes to, fresh per pass.
struct Pass {
    work: WorkDir,
    service: Service,
    put_store: AnalysisStore,
    journal: Journal,
}

impl Pass {
    /// `server_store` seeds serve-warm's replay service (the warm path);
    /// the other workloads replay against an empty store (the write path).
    fn new(tag: &str, rec: &Recorder, server_store: Option<&Path>) -> Result<Pass, String> {
        let work = WorkDir::new(tag)?;
        let svc_store = work.0.join("service-store");
        if let Some(src) = server_store {
            copy_dir(src, &svc_store)?;
        }
        let cache = if server_store.is_some() {
            serve::WARM_CACHE
        } else {
            256
        };
        let store = open_store(&svc_store)?;
        let service = Service::with_trace(
            ServiceConfig::builder()
                .workers(1)
                .cache_capacity(cache)
                .build(),
            rec.clone(),
        )
        .with_store(store);
        let put_store = open_store(&work.0.join("put-store"))?;
        let journal =
            Journal::open(&work.0.join("journal.wal")).map_err(|e| format!("journal: {e}"))?;
        Ok(Pass {
            work,
            service,
            put_store,
            journal,
        })
    }
}

fn open_store(dir: &Path) -> Result<AnalysisStore, String> {
    AnalysisStore::open(dir, Recorder::disabled(), FaultPlan::disabled())
        .map_err(|e| format!("open store {}: {e}", dir.display()))
}

fn copy_dir(src: &Path, dst: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dst).map_err(|e| format!("mkdir {}: {e}", dst.display()))?;
    let entries = std::fs::read_dir(src).map_err(|e| format!("read {}: {e}", src.display()))?;
    for e in entries.flatten() {
        if e.path().is_file() {
            std::fs::copy(e.path(), dst.join(e.file_name()))
                .map_err(|err| format!("copy {}: {err}", e.path().display()))?;
        }
    }
    Ok(())
}

/// One request through every layer; the service's reply must agree with
/// the direct layer calls. Returns the request's analysis cache key.
fn replay_one(l: &mut Layers, p: &mut Pass, dir: &Path, req: &ServeReq) -> Result<u64, String> {
    let line = req.line();
    let job = match l.time("proto.request_parse", || Request::parse(dir, &line)) {
        Ok(Request::Jobs(mut jobs)) if jobs.len() == 1 => jobs.remove(0),
        Ok(_) => return Err(format!("`{line}` is not one job")),
        Err(e) => return Err(format!("`{line}`: {}", e.message)),
    };
    let prog = l
        .time("ir.parse", || slo_ir::parser::parse(&req.source))
        .map_err(|e| format!("parse: {e}"))?;
    l.parsed_bytes += req.source.len() as u64;
    if !l
        .time("ir.verify", || slo_ir::verify::verify(&prog))
        .is_empty()
    {
        return Err("input failed verification".into());
    }
    l.time("ir.print", || slo_ir::printer::print_program(&prog));

    let fb = if req.scheme == "pbo" {
        Some(l.vm("vm.run", &prog, &VmOptions::profiling())?.feedback)
    } else {
        None
    };
    let scheme = weight_scheme(req.scheme, fb.as_ref());
    let cfg = PipelineConfig::builder().relax_cast_addr(req.relax).build();
    let key = l.time("pipeline.cache_key", || {
        analysis_cache_key(&prog, &scheme, &cfg)
    });
    let summaries = l.time("analysis.legality", || analyze_all_units(&prog));
    let ipa = l.time("analysis.escape", || {
        aggregate(&prog, &summaries, &cfg.legality)
    });
    let (graphs, counts) = l.time("analysis.profile", || {
        let freqs = block_frequencies(&prog, &scheme);
        (
            build_affinity_graphs(&prog, &freqs),
            build_field_counts(&prog, &freqs),
        )
    });
    let heuristics = match scheme {
        WeightScheme::Pbo(_) => HeuristicsConfig::pbo(),
        _ => HeuristicsConfig::ispbo(),
    };
    let plan = l.time("transform.plan", || {
        decide(&prog, &ipa, &graphs, &counts, &heuristics)
    });
    let analysis = Analysis {
        ipa,
        graphs,
        counts,
        dcache: None,
        plan,
        fe: Duration::ZERO,
        ipa_time: Duration::ZERO,
    };
    let bytes = l.time("serial.encode", || encode_analysis(&analysis));
    l.serial_bytes += bytes.len() as u64;
    l.time("serial.decode", || decode_analysis(&bytes))
        .map_err(|e| format!("decode_analysis: {e}"))?;
    l.time("store.put", || p.put_store.put(key, &analysis))
        .map_err(|e| format!("store put: {e}"))?;
    let optimized = l
        .time("transform.apply", || apply_plan(&prog, &analysis.plan))
        .map_err(|e| format!("apply_plan: {e}"))?;
    if !l
        .time("transform.verify", || slo_ir::verify::verify(&optimized))
        .is_empty()
    {
        return Err("transformed program failed verification".into());
    }
    l.time("vm.decode", || DecodedProgram::new(&prog));
    let base = l.vm("vm.run", &prog, &VmOptions::default())?;
    let opt = l.vm("vm.run", &optimized, &VmOptions::default())?;

    let outcome = l.time("service.job", || p.service.run_job(&job, Instant::now()));
    let reply = l.time("proto.reply_encode", || {
        Response::from_outcome(&outcome).to_json()
    });
    l.time("journal.record", || {
        p.journal.record(key, &outcome.id, &outcome.status, &reply)
    })
    .map_err(|e| format!("journal record: {e}"))?;
    match &outcome.status {
        JobStatus::Optimized(o)
            if o.eval.baseline_cycles == base.stats.cycles
                && o.eval.optimized_cycles == opt.stats.cycles
                && o.num_transformed == analysis.plan.num_transformed() =>
        {
            Ok(key)
        }
        s => Err(format!(
            "service reply {} disagrees with the direct layer calls",
            s.kind()
        )),
    }
}

/// The VM option variants of the sweep, by span name.
fn vm_variants() -> [(&'static str, VmOptions); 5] {
    let nocache = VmOptions {
        cache: CacheConfig {
            levels: Vec::new(),
            ..CacheConfig::default()
        },
        ..VmOptions::default()
    };
    [
        ("vm.nocache", nocache),
        ("vm.plain", VmOptions::plain()),
        ("vm.edges", VmOptions::builder().collect_edges(true).build()),
        ("vm.sampling", VmOptions::sampling_only()),
        ("vm.profiling", VmOptions::profiling()),
    ]
}

/// One full replay pass; returns its wall time.
fn replay(
    l: &mut Layers,
    tag: &str,
    dir: &Path,
    reqs: &[&ServeReq],
    server_store: &Path,
    warm: bool,
    out: &mut Outcome,
) -> Result<f64, String> {
    let t = Instant::now();
    let mut p = Pass::new(tag, &l.rec, warm.then_some(server_store))?;
    let mut keys = Vec::new();
    for req in reqs {
        out.attempted += 1;
        match replay_one(l, &mut p, dir, req) {
            Ok(k) => keys.push(k),
            Err(e) => out.fail(format!("replay {}: {e}", req.name)),
        }
    }
    // Store reads and re-open against a copy of the server's store.
    let copy = p.work.0.join("server-store-copy");
    copy_dir(server_store, &copy)?;
    let mut store = l.time("store.open", || open_store(&copy))?;
    for &k in &keys {
        if l.time("store.get", || store.get(k)).is_none() {
            out.fail(format!(
                "store get {k:016x}: missing from the server's store"
            ));
        }
    }
    let journal = p.work.0.join("journal.wal");
    l.time("journal.open", || Journal::open(&journal))
        .map_err(|e| format!("journal open: {e}"))?;
    for req in reqs.iter().take(VM_SWEEP) {
        let prog = slo_ir::parser::parse(&req.source).map_err(|e| format!("parse: {e}"))?;
        for (name, opts) in vm_variants() {
            l.vm(name, &prog, &opts)?;
        }
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Microseconds of each span covered by its direct children.
fn child_cover(events: &[TraceEvent]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..events.len())
        .filter(|&i| events[i].kind == EventKind::Complete)
        .collect();
    order.sort_by_key(|&i| {
        (
            events[i].tid,
            events[i].ts_us,
            std::cmp::Reverse(events[i].dur_us),
        )
    });
    let mut cover = vec![0u64; events.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let (tid, ts, end) = (
            events[i].tid,
            events[i].ts_us,
            events[i].ts_us + events[i].dur_us,
        );
        while let Some(&top) = stack.last() {
            let t = &events[top];
            if t.tid == tid && t.ts_us <= ts && end <= t.ts_us + t.dur_us {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            cover[parent] += events[i].dur_us;
        }
        stack.push(i);
    }
    cover
}

fn num(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_num)
        .ok_or_else(|| format!("server metrics lack `{key}`"))
}

/// The TCP leg's results.
struct Leg {
    /// The programs the lines name.
    work: WorkDir,
    /// The server's store, as the TCP leg left it.
    store: PathBuf,
    reqs: Vec<ServeReq>,
    which: Vec<usize>,
    latency_ms: Vec<f64>,
    server: JsonValue,
}

fn tcp_leg(
    slo: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    out: &mut Outcome,
) -> Result<Leg, String> {
    // Traced mode reports raw times: the loop runs as a single chunk.
    let mut cal = Calibrator::new(WORKERS);
    let (work, state, server, reqs, lines, which) = if workload == "paper-sim" {
        let work = WorkDir::new("trace-paper-sim")?;
        let reqs = sim_reqs(seed, REPLAY);
        write_programs(&work.0, &reqs)?;
        let state = work.0.join("state");
        let server = Server::spawn(slo, &work.0, &server_args(&state, false))?;
        let lines = reqs.iter().map(ServeReq::line).collect();
        (work, state, server, reqs, lines, (0..REPLAY).collect())
    } else {
        let p = serve::setup(slo, workload, seed, seconds, 1, &mut cal)?;
        (p.work, p.state, p.server, p.reqs, p.lines, p.which)
    };
    let samples: Vec<serve::Sample> = closed_loop(server.addr, &lines, lines.len(), &mut cal)?
        .outs
        .into_iter()
        .flatten()
        .collect();
    let metrics = server.metrics_json()?;
    server.shutdown()?;
    for (s, &i) in samples.iter().zip(&which) {
        out.attempted += 1;
        match Response::parse(&s.reply) {
            Ok(r) if r.status == "optimized" => {}
            Ok(r) => out.fail(format!("{}: status {}", reqs[i].name, r.status)),
            Err(e) => out.fail(format!("{}: {e}", reqs[i].name)),
        }
    }
    Ok(Leg {
        work,
        store: state.join("store"),
        reqs,
        which,
        latency_ms: samples.iter().map(|s| s.latency_ms).collect(),
        server: parse_json(&metrics).map_err(|e| format!("server metrics: {e}"))?,
    })
}

pub fn run(slo: &Path, workload: &str, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let leg = tcp_leg(slo, workload, seed, seconds, &mut out)?;
    let n = REPLAY.min(leg.which.len());
    let reqs: Vec<&ServeReq> = leg.which[..n].iter().map(|&i| &leg.reqs[i]).collect();
    let dir = leg.work.0.clone();
    let server_store = leg.store.clone();
    let warm = workload == "serve-warm";

    // Untraced, traced, untraced: the traced pass is compared with the
    // mean of the two around it, so warm-up and drift do not read as
    // tracing overhead.
    let rec = Recorder::enabled();
    let mut l = Layers::new(rec.clone());
    let mut walls = Vec::new();
    for (tag, traced) in [
        ("untraced-1", false),
        ("traced", true),
        ("untraced-2", false),
    ] {
        let mut off = Layers::new(Recorder::disabled());
        let layers = if traced { &mut l } else { &mut off };
        walls.push(replay(
            layers,
            tag,
            &dir,
            &reqs,
            &server_store,
            warm,
            &mut out,
        )?);
    }
    let (w0, w1) = ((walls[0] + walls[2]) / 2.0, walls[1]);

    // The trace: written, then checked in-process and by `slo trace-check`.
    let json = rec.to_chrome_json();
    let path = Path::new(".perfbench").join(format!("trace-{workload}-{seed}.json"));
    std::fs::write(&path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
    if let Err(e) = check_chrome_trace(&json) {
        out.fail(format!("trace {}: {e}", path.display()));
    }
    let status = std::process::Command::new(slo)
        .arg("trace-check")
        .arg(&path)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("slo trace-check: {e}"))?;
    if !status.success() {
        out.fail(format!(
            "slo trace-check {} exited with {status}",
            path.display()
        ));
    }

    // Self time per layer: span time minus direct-child time. The
    // service layer's own time also includes the self time of the
    // library's `job:<id>` span under the benchmark's `service.job`.
    let events = rec.events();
    let cover = child_cover(&events);
    let mut cover_us: HashMap<&str, u64> = HashMap::new();
    let mut job_self_us = 0u64;
    for (ev, c) in events.iter().zip(&cover) {
        if ev.kind != EventKind::Complete {
            continue;
        }
        if ev.cat == CAT {
            *cover_us.entry(ev.name.as_str()).or_default() += c;
        } else if ev.cat == "service" && ev.name.starts_with("job:") {
            job_self_us += ev.dur_us.saturating_sub(*c);
        }
    }
    let self_ms = |layer: &str| -> f64 {
        let Some(t) = l.tally.get(layer) else {
            return f64::NAN;
        };
        let mut ns = t.ns as f64 - 1e3 * *cover_us.get(layer).unwrap_or(&0) as f64;
        if layer == "service.job" {
            ns += 1e3 * job_self_us as f64;
        }
        ns / t.calls as f64 / 1e6
    };
    let total_s = |layer: &str| l.tally.get(layer).map_or(f64::NAN, |t| t.ns as f64 / 1e9);
    let minstr_per_s =
        |layer: &str| l.instr.get(layer).copied().unwrap_or(0) as f64 / total_s(layer) / 1e6;

    let jobs = num(&leg.server, "jobs")?;
    let per_job_ms = |key: &str| -> Result<f64, String> { Ok(num(&leg.server, key)? / jobs / 1e6) };
    let job_total_ms = l
        .tally
        .get("service.job")
        .map_or(f64::NAN, |t| t.ns as f64 / t.calls as f64 / 1e6);
    let client_ms = leg.latency_ms.iter().sum::<f64>() / leg.latency_ms.len() as f64;
    let mut server_ms = 0.0;
    for key in ["queue_wait_ns", "fe_ns", "ipa_ns", "be_ns", "exec_ns"] {
        server_ms += per_job_ms(key)?;
    }
    let replayed = n as f64;

    let m = &mut out.metrics;
    m.push(Metric::new("vm.decode_ms", self_ms("vm.decode"), "ms"));
    for (name, layer) in [
        ("vm.nocache_minstr_per_s", "vm.nocache"),
        ("vm.plain_minstr_per_s", "vm.plain"),
        ("vm.edges_minstr_per_s", "vm.edges"),
        ("vm.sampling_minstr_per_s", "vm.sampling"),
        ("vm.profiling_minstr_per_s", "vm.profiling"),
    ] {
        m.push(
            Metric::new(name, minstr_per_s(layer), "Minstr/s").note(format!("{VM_SWEEP} programs")),
        );
    }
    m.push(
        Metric::new("vm.busy_ms", total_s("vm.run") * 1e3 / replayed, "ms")
            .note("per request: profile, baseline, optimized runs"),
    );
    m.push(
        Metric::new(
            "vm.instructions",
            *l.instr.get("vm.run").unwrap_or(&0) as f64 / replayed,
            "count",
        )
        .note("per request"),
    );
    m.push(Metric::new("ir.parse_ms", self_ms("ir.parse"), "ms"));
    m.push(Metric::new(
        "ir.parse_mb_per_s",
        l.parsed_bytes as f64 / total_s("ir.parse") / 1e6,
        "MB/s",
    ));
    for (name, layer) in [
        ("ir.verify_ms", "ir.verify"),
        ("ir.print_ms", "ir.print"),
        ("pipeline.cache_key_ms", "pipeline.cache_key"),
        ("analysis.legality_ms", "analysis.legality"),
        ("analysis.escape_ms", "analysis.escape"),
        ("analysis.profile_ms", "analysis.profile"),
        ("transform.plan_ms", "transform.plan"),
        ("transform.apply_ms", "transform.apply"),
        ("transform.verify_ms", "transform.verify"),
        ("serial.encode_ms", "serial.encode"),
        ("serial.decode_ms", "serial.decode"),
    ] {
        m.push(Metric::new(name, self_ms(layer), "ms"));
    }
    m.push(
        Metric::new("serial.bytes", l.serial_bytes as f64 / replayed, "bytes")
            .note("per encoded analysis"),
    );
    for (name, layer) in [
        ("store.open_ms", "store.open"),
        ("store.put_ms", "store.put"),
        ("store.get_ms", "store.get"),
    ] {
        m.push(Metric::new(name, self_ms(layer), "ms"));
    }
    m.push(
        Metric::new(
            "store.hit_ratio",
            num(&leg.server, "store_hits")? / jobs,
            "ratio",
        )
        .note(format!("server store hits / {jobs} requests")),
    );
    m.push(
        Metric::new(
            "store.corrupt_drops",
            num(&leg.server, "store_corrupt_drops")?,
            "count",
        )
        .note("server"),
    );
    m.push(
        Metric::new(
            "service.cache_hit_ratio",
            num(&leg.server, "cache_hits")? / jobs,
            "ratio",
        )
        .note(format!("server LRU hits / {jobs} requests")),
    );
    m.push(Metric::new(
        "journal.record_ms",
        self_ms("journal.record"),
        "ms",
    ));
    m.push(
        Metric::new("journal.open_ms", self_ms("journal.open"), "ms").note(format!("{n} records")),
    );
    m.push(
        Metric::new("service.job_ms", self_ms("service.job"), "ms")
            .note(format!("self time; {job_total_ms:.3} ms inclusive")),
    );
    m.push(
        Metric::new("service.queue_wait_ms", per_job_ms("queue_wait_ns")?, "ms")
            .note("server, per request"),
    );
    for (name, key) in [("service.be_ms", "be_ns"), ("service.exec_ms", "exec_ns")] {
        m.push(Metric::new(name, per_job_ms(key)?, "ms").note("server, per request"));
    }
    m.push(Metric::new(
        "proto.request_parse_ms",
        self_ms("proto.request_parse"),
        "ms",
    ));
    m.push(Metric::new(
        "proto.reply_encode_ms",
        self_ms("proto.reply_encode"),
        "ms",
    ));
    m.push(
        Metric::new("net.overhead_ms", client_ms - server_ms, "ms").note(format!(
            "client {client_ms:.3} ms - server queue+fe+ipa+be+exec {server_ms:.3} ms"
        )),
    );
    m.push(
        Metric::new("obs.trace_overhead_pct", (w1 / w0 - 1.0) * 100.0, "%").note(format!(
            "replay passes (untraced, traced, untraced): {walls:.3?} s"
        )),
    );
    println!("perfbench {workload}: trace written to {}", path.display());
    Ok(out)
}
