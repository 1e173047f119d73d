//! `paper-sim`: the Table 2/3 experiment path over seeded mcf/art/moldyn
//! models. Each item is a PBO profile collection (PBO items only), then
//! analyze, apply, and the baseline-vs-optimized evaluation on the
//! simulated machine. Items run on the table drivers' 2-worker pool.
//!
//! [`run_job`] is that path for one program; the serve workloads use it
//! too, as the in-process reference their replies must match.

use crate::calib::Calibrator;
use crate::gen::{sim_items, Rng, SimItem};
use crate::report::{latency_metrics, peak_rss_mb, Metric, Outcome};
use slo::analysis::WeightScheme;
use slo::PipelineConfig;
use slo_ir::Program;
use slo_service::pool::par_map_bounded;
use slo_vm::{Engine, ExecOutcome, Feedback, Value, VmOptions};
use std::time::Instant;

/// Items per second of `--seconds` (sized so that a run's timed phase
/// lasts about `--seconds` on a 2-core host); also the items of one
/// calibrated chunk.
const ITEMS_PER_SECOND: u64 = 80;
/// Items replayed on the structured reference engine after timing.
const CHECKED_ITEMS: usize = 10;
/// Pool width: the table drivers' worker count on the reference host.
pub const WORKERS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The weighting scheme a wire scheme name selects (`pbo` needs the
/// feedback of a profile run).
pub fn weight_scheme<'a>(name: &str, fb: Option<&'a Feedback>) -> WeightScheme<'a> {
    match (name, fb) {
        (_, Some(fb)) => WeightScheme::Pbo(fb),
        ("spbo", _) => WeightScheme::Spbo,
        ("ispbo.no", _) => WeightScheme::IspboNo,
        ("ispbo.w", _) => WeightScheme::IspboW,
        _ => WeightScheme::Ispbo,
    }
}

/// What one job's VM runs produced: (exit, instructions, cycles) of the
/// baseline and optimized programs, the transformed-type count, and all
/// simulated instructions retired (profile run included).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRun {
    pub types: u64,
    pub baseline: (Value, u64, u64),
    pub optimized: (Value, u64, u64),
    pub instructions: u64,
}

fn summary(o: &ExecOutcome) -> (Value, u64, u64) {
    (o.exit, o.stats.instructions, o.stats.cycles)
}

/// One job through the public pipeline entry points, every VM run on
/// `engine`: the profile run when `scheme` is `pbo`, `analyze`, `apply`,
/// then the baseline and optimized runs, which must agree on the exit.
pub fn run_job(
    prog: &Program,
    scheme: &str,
    relax: bool,
    engine: Engine,
) -> Result<JobRun, String> {
    let mut instructions = 0;
    let feedback = if scheme == "pbo" {
        let opts = VmOptions {
            engine,
            ..VmOptions::profiling()
        };
        let out = slo_vm::run(prog, &opts).map_err(|e| format!("profile: {e}"))?;
        instructions += out.stats.instructions;
        Some(out.feedback)
    } else {
        None
    };
    let cfg = PipelineConfig::builder().relax_cast_addr(relax).build();
    let analysis = slo::analyze(prog, &weight_scheme(scheme, feedback.as_ref()), &cfg);
    let res = slo::apply(prog, &analysis).map_err(|e| format!("apply: {e}"))?;
    let opts = VmOptions::builder().engine(engine).build();
    let base = slo_vm::run(prog, &opts).map_err(|e| format!("baseline: {e}"))?;
    let opt = slo_vm::run(&res.program, &opts).map_err(|e| format!("optimized: {e}"))?;
    if base.exit != opt.exit {
        return Err(format!(
            "baseline exit {:?} != optimized exit {:?}",
            base.exit, opt.exit
        ));
    }
    instructions += base.stats.instructions + opt.stats.instructions;
    Ok(JobRun {
        types: res.plan.num_transformed() as u64,
        baseline: summary(&base),
        optimized: summary(&opt),
        instructions,
    })
}

/// Build every item's program: the workload's set-up, repeated
/// `SETUP_REPS` times between calibration slices. Returns the raw and the
/// host-normalized median.
fn setup(
    cal: &mut Calibrator,
    seed: u64,
    seconds: u64,
) -> Result<(Vec<SimItem>, Vec<Program>, f64, f64), String> {
    let ((items, progs), raw, norm) = cal.reps(
        SETUP_REPS,
        |_| {
            let items = sim_items(seed, (ITEMS_PER_SECOND * seconds) as usize);
            let progs: Vec<Program> = items.iter().map(|it| it.model.build(it.n)).collect();
            Ok((items, progs))
        },
        drop,
    )?;
    Ok((items, progs, raw, norm))
}

pub fn run(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut cal = Calibrator::new(WORKERS);
    let (items, progs, setup_raw, setup_s) = setup(&mut cal, seed, seconds)?;
    let work: Vec<(&SimItem, &Program)> = items.iter().zip(&progs).collect();

    // One chunk of ITEMS_PER_SECOND items per second of the run.
    let chunks = cal.chunks(seconds as usize, |c| {
        let per = ITEMS_PER_SECOND as usize;
        Ok(par_map_bounded(
            WORKERS,
            &work[c * per..(c + 1) * per],
            |&(item, prog)| {
                let t = Instant::now();
                let r = run_job(prog, item.scheme(), false, Engine::Decoded);
                (t.elapsed().as_secs_f64() * 1e3, r)
            },
        ))
    })?;
    let (wall_raw, wall_s, factor) = (chunks.raw_s, chunks.norm_s(), chunks.factor);
    let rss = peak_rss_mb("self")?;
    let mut lat = Vec::new();
    let mut runs = Vec::new();
    for (latency_ms, r) in chunks.outs.into_iter().flatten() {
        lat.push(latency_ms * factor);
        runs.push(r);
    }

    let mut out = Outcome {
        attempted: items.len() as u64,
        ..Outcome::default()
    };
    let mut instructions = 0u64;
    for (item, r) in items.iter().zip(&runs) {
        match r {
            Ok(r) => instructions += r.instructions,
            Err(e) => out.fail(format!("{}: {e}", item.label())),
        }
    }
    // A seeded subset re-run on the structured reference engine must
    // agree on every exit value, instruction count and cycle count.
    let mut idx: Vec<usize> = (0..items.len()).collect();
    Rng::new(seed, 3).shuffle(&mut idx);
    idx.truncate(CHECKED_ITEMS);
    let reference = par_map_bounded(WORKERS, &idx, |&i| {
        run_job(&progs[i], items[i].scheme(), false, Engine::Structured)
    });
    for (&i, want) in idx.iter().zip(reference) {
        match (&runs[i], want) {
            (Ok(got), Ok(want)) if *got != want => out.fail(format!(
                "{}: decoded engine {got:?} != reference engine {want:?}",
                items[i].label()
            )),
            (_, Err(e)) => out.fail(format!("{} on the reference engine: {e}", items[i].label())),
            _ => {}
        }
    }

    let good = out.attempted.saturating_sub(out.failed);
    out.metrics
        .push(Metric::new("setup_s", setup_s, "s").note(format!(
            "median of {SETUP_REPS} set-ups, host-normalized; raw {setup_raw:.4} s"
        )));
    out.metrics
        .push(Metric::new("wall_s", wall_s, "s").note(format!(
            "{} items in {} chunks, host-normalized (factor {factor:.4}); raw {wall_raw:.4} s; {}",
            items.len(),
            seconds,
            cal.summary()
        )));
    out.metrics.push(
        Metric::new(
            "sim_minstr_per_s",
            instructions as f64 / wall_s / 1e6,
            "Minstr/s",
        )
        .note(format!("{instructions} simulated instructions")),
    );
    out.metrics.extend(latency_metrics(&lat)?);
    out.metrics.push(
        Metric::new("goodput_ratio", good as f64 / out.attempted as f64, "ratio")
            .note(format!("{good}/{}", out.attempted)),
    );
    out.metrics
        .push(Metric::new("peak_rss_mb", rss, "MiB").note("benchmark process VmHWM"));
    Ok(out)
}
