//! VM hot-loop throughput: pre-decoded engine vs the structured
//! reference interpreter, on the two workloads the paper's headline
//! numbers come from (181.mcf and 179.art).
//!
//! Throughput is reported in simulated instructions per host second —
//! the substrate's own figure of merit. The decoded numbers amortize the
//! decode pass by pre-building the [`DecodedProgram`] once, which is how
//! every repeated-execution consumer (the tables, `evaluate`) uses it.
//!
//! After the Criterion runs, a short manual timing pass records the
//! current decoded/structured instructions-per-second datapoint in
//! `BENCH_vm.json` (under `hot_loop`), so the engine's speed is tracked
//! across PRs like any other benchmark.
//!
//! The same pass measures the observability tax on the decoded hot
//! loop: the default (untraced) options against an explicit no-op
//! recorder — which must stay within 3% by the median of interleaved
//! pairs (asserted here) — and against
//! an enabled recorder sampling counters every 2^16 steps. A traced
//! compile of the mcf model also contributes the per-phase wall-clock
//! breakdown stored under `phases` in `BENCH_vm.json`.

use criterion::{criterion_group, Criterion, Throughput};
use slo::analysis::WeightScheme;
use slo::PipelineConfig;
use slo_ir::Program;
use slo_obs::{EventKind, Recorder};
use slo_vm::{run, run_decoded, DecodedProgram, VmOptions};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Mid-sized configs: a few million simulated instructions per run, so
/// one Criterion sample holds several full executions.
fn workloads() -> Vec<(&'static str, Program)> {
    vec![
        (
            "mcf",
            slo_workloads::mcf::build_config(slo_workloads::mcf::McfConfig {
                n: 10_000,
                iters: 10,
                skew: 0,
            }),
        ),
        (
            "art",
            slo_workloads::art::build_config(slo_workloads::art::ArtConfig {
                n: 100_000,
                passes: 4,
            }),
        ),
    ]
}

fn bench_hot_loop(c: &mut Criterion) {
    for (name, prog) in workloads() {
        let dec = DecodedProgram::new(&prog);
        let opts = VmOptions::plain();
        let instrs = run_decoded(&prog, &dec, &opts)
            .expect("reference run")
            .stats
            .instructions;

        let mut g = c.benchmark_group(format!("hot_loop/{name}"));
        g.throughput(Throughput::Elements(instrs));
        g.bench_function("decoded", |b| {
            b.iter(|| black_box(run_decoded(&prog, &dec, &opts).expect("decoded run")))
        });
        g.bench_function("structured", |b| {
            let sopts = opts.clone().structured();
            b.iter(|| black_box(run(&prog, &sopts).expect("structured run")))
        });
        g.bench_function("decoded_noop_trace", |b| {
            let topts = VmOptions::builder().trace(Recorder::disabled()).build();
            b.iter(|| black_box(run_decoded(&prog, &dec, &topts).expect("decoded run")))
        });
        g.finish();
    }
}

/// Best-of-3 simulated instructions per host second.
fn instr_per_sec(mut run_once: impl FnMut() -> u64) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        let instrs = run_once();
        let secs = t.elapsed().as_secs_f64();
        if secs > 0.0 {
            best = best.max(instrs as f64 / secs);
        }
    }
    best
}

fn record_trajectory() {
    for (name, prog) in workloads() {
        let dec = DecodedProgram::new(&prog);
        let opts = VmOptions::plain();
        let d = instr_per_sec(|| {
            run_decoded(&prog, &dec, &opts)
                .expect("decoded run")
                .stats
                .instructions
        });
        let sopts = opts.clone().structured();
        let s = instr_per_sec(|| {
            run(&prog, &sopts)
                .expect("structured run")
                .stats
                .instructions
        });
        bench::report::record_hot_loop(name, d, s);
    }
}

/// Untraced/no-op pairs behind the tracing-overhead gate.
const OVERHEAD_PAIRS: usize = 9;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Measure the observability tax on the decoded engine and assert the
/// tentpole's zero-cost-when-disabled budget: an explicit no-op
/// recorder must stay within 3% of the untraced default. The runs come
/// in interleaved untraced/no-op pairs (alternating which half goes
/// first) and the gate reads the median of the per-pair ratios, so host
/// noise that hits both halves of a pair cancels and one slow run
/// cannot decide the verdict.
fn record_trace_overhead() {
    for (name, prog) in workloads() {
        let dec = DecodedProgram::new(&prog);
        let untraced_opts = VmOptions::plain();
        let noop_opts = VmOptions::builder().trace(Recorder::disabled()).build();
        let sampled_rec = Recorder::with_capacity(1 << 12);
        let sampled_opts = VmOptions::builder()
            .trace(sampled_rec.clone())
            .trace_step_interval(1 << 16)
            .build();
        let once = |opts: &VmOptions| {
            let t = std::time::Instant::now();
            let instrs = run_decoded(&prog, &dec, opts)
                .expect("decoded run")
                .stats
                .instructions;
            instrs as f64 / t.elapsed().as_secs_f64().max(1e-9)
        };
        let (mut untraced, mut noop, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for pair in 0..OVERHEAD_PAIRS {
            let (u, n) = if pair % 2 == 0 {
                let u = once(&untraced_opts);
                (u, once(&noop_opts))
            } else {
                let n = once(&noop_opts);
                (once(&untraced_opts), n)
            };
            untraced.push(u);
            noop.push(n);
            ratios.push(u / n - 1.0);
        }
        let overhead = median(ratios);
        assert!(
            overhead <= 0.03,
            "hot_loop/{name}: no-op recorder costs {:.2}% over the untraced \
             decoded engine (median of {OVERHEAD_PAIRS} pairs; budget: 3%)",
            overhead * 100.0
        );
        let sampled = median((0..3).map(|_| once(&sampled_opts)).collect());
        bench::report::record_hot_loop_trace(
            name,
            median(untraced),
            median(noop),
            sampled,
            overhead,
        );
    }
}

/// Run one traced compile of the mcf model (plus a text round-trip so a
/// `parse` span is present) and fold the pipeline spans into per-phase
/// wall-clock totals for `phases.compile_mcf`.
fn record_phase_breakdown() {
    let prog = slo_workloads::mcf::build_config(slo_workloads::mcf::McfConfig {
        n: 2_000,
        iters: 4,
        skew: 0,
    });
    let rec = Recorder::enabled();
    {
        let mut s = rec.span("pipeline", "parse");
        let text = slo_ir::printer::print_program(&prog);
        let reparsed = slo_ir::parser::parse(&text).expect("IR text round-trip");
        s.arg("units", reparsed.funcs.len() as u64);
        black_box(reparsed);
    }
    let res = slo::compile_with(
        &prog,
        &WeightScheme::Ispbo,
        &PipelineConfig::default(),
        &rec,
    )
    .expect("traced compile");
    black_box(res);
    let mut agg: BTreeMap<String, bench::report::PhaseStat> = BTreeMap::new();
    for ev in rec.events() {
        if matches!(ev.kind, EventKind::Complete) && ev.cat == "pipeline" && ev.name != "compile" {
            let slot = agg
                .entry(ev.name.clone())
                .or_insert(bench::report::PhaseStat {
                    wall_seconds: 0.0,
                    spans: 0,
                });
            slot.wall_seconds += ev.dur_us as f64 / 1e6;
            slot.spans += 1;
        }
    }
    let phases: Vec<(String, bench::report::PhaseStat)> = agg.into_iter().collect();
    bench::report::record_phases("compile_mcf", &phases);
}

criterion_group!(benches, bench_hot_loop);

fn main() {
    let mut c = Criterion::default();
    benches(&mut c);
    record_trajectory();
    record_trace_overhead();
    record_phase_breakdown();
}
