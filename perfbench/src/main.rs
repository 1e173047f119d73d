//! perfbench — the repository's seeded benchmark.
//!
//! ```text
//! perfbench --workload <paper-sim|serve-cold|serve-warm> --seed N
//!           --seconds S --trace <0|1> --slo <path to the slo binary>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` replays the same seeded inputs through each layer's public
//! functions under an `slo_obs::Recorder` and prints the per-layer
//! metrics. The last stdout line is the one-line JSON result. A failed
//! correctness check still prints the result (with `"correct": false`)
//! and exits 1; a run that cannot produce a result exits 2.
//! `perfbench/run.sh` builds everything and supplies `--slo`.

mod calib;
mod gen;
mod layers;
mod paper_sim;
mod report;
mod serve;

use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    slo: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut slo) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            // absolute, because servers run in their own directories
            "--slo" => {
                let p = PathBuf::from(&value);
                slo = Some(
                    p.canonicalize()
                        .map_err(|e| format!("--slo {value}: {e}"))?,
                );
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = seconds.unwrap_or(20);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        slo: slo.ok_or("--slo is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let meta = report::Meta::collect(&args.workload, args.seed, args.seconds, args.trace);
    let result = match (args.workload.as_str(), args.trace) {
        ("paper-sim", false) => paper_sim::run(args.seed, args.seconds),
        ("serve-cold" | "serve-warm", false) => {
            serve::run(&args.slo, &args.workload, args.seed, args.seconds)
        }
        ("paper-sim" | "serve-cold" | "serve-warm", true) => {
            layers::run(&args.slo, &args.workload, args.seed, args.seconds)
        }
        (w, _) => Err(format!("unknown workload `{w}`")),
    };
    match result {
        Ok(out) => {
            report::print(&meta, &out);
            if out.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            std::process::exit(2);
        }
    }
}
