//! Differential test: the pre-decoded engine must be observationally
//! identical to the structured reference interpreter.
//!
//! "Observationally identical" is strict: same exit value, same retired
//! instruction count, same simulated cycles, same load/store and cache
//! counters, same heap accounting, and — under instrumented runs — the
//! same edge profile, PMU sample attribution, and stride histograms
//! (`Feedback` compares structurally). Any divergence is a bug in the
//! decoder, not an acceptable approximation.
//!
//! The default tests cover every program family (mcf, art, moldyn, all
//! nine census benchmarks, both §3.4 case studies, the kernel scenario,
//! and a transformed program) at reduced sizes so the whole file runs in
//! seconds. The `full_suite_*` tests execute the unmodified
//! `slo_workloads::all(Training)` suite — hundreds of millions of
//! simulated instructions per engine — and are `#[ignore]`d; run them
//! with `cargo test -p bench --test vm_differential -- --ignored`.

use slo_ir::Program;
use slo_vm::{run, ExecError, VmOptions};
use slo_workloads::{all, InputSet};

/// Run `prog` on both engines under `opts` and assert every observable
/// output matches.
fn check(name: &str, label: &str, prog: &Program, opts: &VmOptions) {
    let d = run(prog, opts).unwrap_or_else(|e| panic!("{name}/{label} decoded: {e}"));
    let s = run(prog, &opts.clone().structured())
        .unwrap_or_else(|e| panic!("{name}/{label} structured: {e}"));
    assert_eq!(d.exit, s.exit, "{name}/{label}: exit value diverged");
    assert_eq!(
        d.stats.instructions, s.stats.instructions,
        "{name}/{label}: instruction count diverged"
    );
    assert_eq!(
        d.stats.cycles, s.stats.cycles,
        "{name}/{label}: cycle count diverged"
    );
    assert_eq!(d.stats, s.stats, "{name}/{label}: stats diverged");
    assert_eq!(d.feedback, s.feedback, "{name}/{label}: feedback diverged");
}

/// Every workload family at sizes that keep one run in the millions of
/// instructions, not hundreds of millions.
fn small_suite() -> Vec<(&'static str, Program)> {
    let mut progs: Vec<(&'static str, Program)> = vec![
        (
            "mcf-small",
            slo_workloads::mcf::build_config(slo_workloads::mcf::McfConfig {
                n: 2_000,
                iters: 8,
                skew: 0,
            }),
        ),
        (
            "art-small",
            slo_workloads::art::build_config(slo_workloads::art::ArtConfig {
                n: 20_000,
                passes: 3,
            }),
        ),
        (
            "moldyn-small",
            slo_workloads::moldyn::build_config(slo_workloads::moldyn::MoldynConfig {
                n: 500,
                steps: 4,
                neighbors: 8,
            }),
        ),
        (
            "spec2006-c",
            slo_workloads::casestudy::spec2006_c(2_000, 6, false),
        ),
        (
            "spec2006-cpp",
            slo_workloads::casestudy::spec2006_cpp(2_000, 6),
        ),
        ("kernel", slo_workloads::kernel::build(1_000, 4_000)),
    ];
    for spec in &slo_workloads::CENSUS_SPECS {
        progs.push((spec.name, slo_workloads::census::generate(spec, 2)));
    }
    progs
}

#[test]
fn engines_agree_plain() {
    for (name, prog) in small_suite() {
        check(name, "plain", &prog, &VmOptions::plain());
    }
}

#[test]
fn engines_agree_profiling() {
    for (name, prog) in small_suite() {
        check(name, "profiling", &prog, &VmOptions::profiling());
    }
}

#[test]
fn engines_agree_sampling_only() {
    for (name, prog) in small_suite() {
        check(name, "sampling", &prog, &VmOptions::sampling_only());
    }
}

#[test]
fn engines_agree_on_sampling_period_edges() {
    // Period 0 never samples, 1 samples every access, 97 is the default.
    let prog = slo_workloads::mcf::build_config(slo_workloads::mcf::McfConfig {
        n: 2_000,
        iters: 4,
        skew: 0,
    });
    for period in [0, 1, 97] {
        let opts = VmOptions::builder()
            .collect_edges(true)
            .sample_dcache(true)
            .sample_period(period)
            .build();
        check("mcf-small", &format!("period-{period}"), &prog, &opts);
        let fb = run(&prog, &opts).expect("decoded run").feedback;
        let sampled: u64 = fb
            .funcs
            .values()
            .flat_map(|f| f.samples.values())
            .map(|s| s.samples)
            .sum();
        let strides: usize = fb.funcs.values().map(|f| f.strides.len()).sum();
        assert!(
            strides > 0,
            "period {period}: strides are collected per access"
        );
        if period == 0 {
            assert_eq!(sampled, 0, "period 0 must record no samples");
        } else {
            assert!(sampled > 0, "period {period} must record samples");
        }
    }
}

#[test]
fn engines_agree_on_transformed_programs() {
    // The evaluation path runs pipeline output, so the decoder must also
    // agree on post-transformation programs (peeled/split layouts).
    use slo::analysis::WeightScheme;
    use slo::pipeline::{compile, PipelineConfig};
    let progs = [
        (
            "mcf-small",
            slo_workloads::mcf::build_config(slo_workloads::mcf::McfConfig {
                n: 2_000,
                iters: 8,
                skew: 0,
            }),
        ),
        (
            "art-small",
            slo_workloads::art::build_config(slo_workloads::art::ArtConfig {
                n: 20_000,
                passes: 3,
            }),
        ),
    ];
    for (name, prog) in progs {
        let res =
            compile(&prog, &WeightScheme::Ispbo, &PipelineConfig::default()).expect("pipeline");
        check(name, "transformed", &res.program, &VmOptions::profiling());
    }
}

#[test]
fn step_limit_identical_across_engines() {
    // Decoded instructions must count exactly like structured ones: a
    // limit one short of the full run fails on both engines, the exact
    // count succeeds on both.
    let prog = slo_workloads::mcf::build_config(slo_workloads::mcf::McfConfig {
        n: 2_000,
        iters: 8,
        skew: 0,
    });
    let total = run(&prog, &VmOptions::plain())
        .expect("full run")
        .stats
        .instructions;

    let mut tight = VmOptions::plain();
    tight.step_limit = total - 1;
    assert_eq!(
        run(&prog, &tight).map(|o| o.exit),
        Err(ExecError::StepLimit),
        "decoded engine must hit the limit"
    );
    assert_eq!(
        run(&prog, &tight.clone().structured()).map(|o| o.exit),
        Err(ExecError::StepLimit),
        "structured engine must hit the limit"
    );

    let mut exact = VmOptions::plain();
    exact.step_limit = total;
    let d = run(&prog, &exact).expect("decoded at exact limit");
    let s = run(&prog, &exact.structured()).expect("structured at exact limit");
    assert_eq!(d.stats.instructions, total);
    assert_eq!(s.stats.instructions, total);
}

// ---------------------------------------------------------------------
// Full-size suite (the exact programs the tables run). ~13 CPU-minutes;
// excluded from the default run, executed with `-- --ignored`.
// ---------------------------------------------------------------------

#[test]
#[ignore = "full Training-input suite, ~13 CPU-minutes; run with -- --ignored"]
fn full_suite_plain() {
    for w in all(InputSet::Training) {
        check(w.name, "plain", &w.program, &VmOptions::plain());
    }
}

#[test]
#[ignore = "full Training-input suite, ~13 CPU-minutes; run with -- --ignored"]
fn full_suite_profiling() {
    for w in all(InputSet::Training) {
        check(w.name, "profiling", &w.program, &VmOptions::profiling());
    }
}

#[test]
#[ignore = "full Training-input suite, ~13 CPU-minutes; run with -- --ignored"]
fn full_suite_sampling_only() {
    for w in all(InputSet::Training) {
        check(w.name, "sampling", &w.program, &VmOptions::sampling_only());
    }
}

// ---------------------------------------------------------------------
// Nightly promotions: the two headline workloads (181.mcf, 179.art) at
// full Training size, run on a schedule by `.github/workflows/
// nightly.yml`. Each writes a sampled Chrome trace of the decoded run
// to `target/nightly-traces/` *before* asserting, so a differential
// failure always leaves a trace artifact for the CI job to upload.
// ---------------------------------------------------------------------

/// Full differential sweep for one workload, with a trace artifact.
fn nightly_check(name: &str, prog: &Program) {
    // 1. traced decoded run → artifact on disk first.
    let rec = slo_obs::Recorder::with_capacity(1 << 14);
    let topts = slo_vm::VmOptions::builder()
        .trace(rec.clone())
        .trace_step_interval(1 << 20)
        .build();
    let mut span = rec.span("vm", name.to_string());
    let traced = run(prog, &topts).unwrap_or_else(|e| panic!("{name} traced: {e}"));
    span.arg("instructions", traced.stats.instructions);
    drop(span);

    let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // repo root
    dir.push("target/nightly-traces");
    std::fs::create_dir_all(&dir).expect("create target/nightly-traces");
    let out = dir.join(format!("{name}.json"));
    std::fs::write(&out, rec.to_chrome_json()).expect("write nightly trace");
    eprintln!("nightly trace: {}", out.display());

    // 2. the full differential sweep, every instrumentation mode.
    check(name, "plain", prog, &VmOptions::plain());
    check(name, "profiling", prog, &VmOptions::profiling());
    check(name, "sampling", prog, &VmOptions::sampling_only());

    // 3. sampled tracing itself must not perturb the observables.
    let plain = run(prog, &VmOptions::plain()).unwrap_or_else(|e| panic!("{name} plain: {e}"));
    assert_eq!(traced.exit, plain.exit, "{name}: tracing changed the exit");
    assert_eq!(
        traced.stats.instructions, plain.stats.instructions,
        "{name}: tracing changed the instruction count"
    );
    assert_eq!(
        traced.stats.cycles, plain.stats.cycles,
        "{name}: tracing changed the cycle count"
    );
}

#[test]
#[ignore = "full Training-size 181.mcf, minutes of CPU; nightly CI runs it"]
fn nightly_full_mcf() {
    nightly_check("181.mcf", &slo_workloads::mcf::build(InputSet::Training));
}

#[test]
#[ignore = "full Training-size 179.art, minutes of CPU; nightly CI runs it"]
fn nightly_full_art() {
    nightly_check("179.art", &slo_workloads::art::build(InputSet::Training));
}
