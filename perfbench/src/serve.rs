//! `serve-cold` and `serve-warm`: closed loops on two connections
//! against a real `slo serve --listen` process.
//!
//! * `serve-cold` (`--store DIR --journal FILE`): every line names a
//!   distinct program, so every request misses the LRU, the store and
//!   the journal — the write path.
//! * `serve-warm` (`--store DIR --cache K`, no journal, which would
//!   answer repeated lines itself): set-up fills the store from the same
//!   seed; requests are drawn with a seeded skew from a pool larger than
//!   K, so replies come from LRU hits and store gets — the read path.
//!
//! Every reply is checked after the timed phase against a reference
//! computed in-process through the pipeline's public functions; a seeded
//! subset is also replayed on the structured reference engine.

use crate::calib::{Calibrator, Chunks};
use crate::gen::{serve_reqs, warm_draws, ServeReq};
use crate::paper_sim::{run_job, JobRun, SETUP_REPS, WORKERS};
use crate::report::{latency_metrics, peak_rss_mb, Metric, Outcome};
use slo_service::pool::par_map_bounded;
use slo_service::{AnalysisStore, FaultPlan, JobStatus, Request, Response, Service, ServiceConfig};
use slo_vm::Engine;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests per second of `--seconds`, sized so the timed phase lasts
/// about `--seconds` on a 2-core host; also the requests of one
/// calibrated chunk.
const COLD_PER_SECOND: u64 = 45;
const WARM_PER_SECOND: u64 = 55;
/// The warm pool (a prefix of serve-cold's request list) and the
/// server's LRU capacity: the pool is larger than the cache, which holds
/// the hot set (`HOT_BLOCKS` × 16 programs) plus the few others drawn
/// between two uses of a hot program.
pub const WARM_POOL: usize = 128;
pub const WARM_CACHE: usize = 48;
/// Client connections (= worker threads of the server).
const CONNECTIONS: usize = 2;
/// A reply later than this counts against `goodput_ratio`.
const LATENCY_LIMIT_MS: f64 = 2_000.0;
/// Requests replayed on the structured reference engine.
const CHECKED_REQS: usize = 8;

/// A scratch directory under the checkout, removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let p = PathBuf::from(".perfbench").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).map_err(|e| format!("mkdir {}: {e}", p.display()))?;
        let abs = p
            .canonicalize()
            .map_err(|e| format!("canonicalize {}: {e}", p.display()))?;
        Ok(WorkDir(abs))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `slo serve --listen` child. Dropping it kills the process
/// and waits for it; [`Server::shutdown`] drains it gracefully.
pub struct Server {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawn `slo serve --listen 127.0.0.1:0 --workers 2 <args>` in
    /// `dir` and wait for its listen banner.
    pub fn spawn(slo: &Path, dir: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(slo)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers"])
            .arg(CONNECTIONS.to_string())
            .args(args)
            .current_dir(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", slo.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child: Some(child),
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = server
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("read serve banner: {e}"))?;
            if n == 0 {
                return Err("slo serve exited before its listen banner".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                server.addr = addr.parse().map_err(|e| format!("banner `{addr}`: {e}"))?;
                return Ok(server);
            }
        }
    }

    fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// The server's peak resident set in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.pid())
    }

    /// One control-verb round trip (`metrics` → one JSON line).
    pub fn metrics_json(&self) -> Result<String, String> {
        let mut s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        s.write_all(b"metrics\n")
            .map_err(|e| format!("metrics: {e}"))?;
        let mut line = String::new();
        BufReader::new(s)
            .read_line(&mut line)
            .map_err(|e| format!("metrics reply: {e}"))?;
        Ok(line)
    }

    /// Close stdin (the server's drain signal) and wait for a clean exit.
    /// `stdout` stays open meanwhile, so the server's closing summary
    /// line never hits a closed pipe.
    pub fn shutdown(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let mut child = self.child.take().expect("child present until shutdown");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(st)) if st.success() => return Ok(()),
                Ok(Some(st)) => return Err(format!("slo serve exited with {st}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("slo serve did not drain within 20 s".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// One request's client-side record.
pub struct Sample {
    pub latency_ms: f64,
    pub reply: String,
}

/// One persistent client connection: its write half and buffered reader.
type Conn = (TcpStream, BufReader<TcpStream>);

/// Send `lines` over `CONNECTIONS` persistent connections, each sending
/// its next line only after the previous reply arrived. The lines go in
/// chunks of `per_chunk`; between chunks the connections idle while `cal`
/// takes a calibration slice. Latency runs from the request write to the
/// full reply line. Returns each chunk's samples in request order.
pub fn closed_loop(
    addr: SocketAddr,
    lines: &[String],
    per_chunk: usize,
    cal: &mut Calibrator,
) -> Result<Chunks<Vec<Sample>>, String> {
    let mut conns = (0..CONNECTIONS)
        .map(|_| {
            let w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            w.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            let r = BufReader::new(w.try_clone().map_err(|e| format!("clone: {e}"))?);
            Ok((w, r))
        })
        .collect::<Result<Vec<Conn>, String>>()?;
    cal.chunks(lines.len().div_ceil(per_chunk), |c| {
        let end = ((c + 1) * per_chunk).min(lines.len());
        chunk_loop(&mut conns, &lines[c * per_chunk..end], c * per_chunk)
    })
}

/// One chunk of the closed loop; `first` is the index of `lines[0]`.
fn chunk_loop(conns: &mut [Conn], lines: &[String], first: usize) -> Result<Vec<Sample>, String> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Sample>>> = Mutex::new((0..lines.len()).map(|_| None).collect());
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|(w, r)| {
                let (next, slots) = (&next, &slots);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(line) = lines.get(i) else {
                        return Ok(());
                    };
                    let at = first + i;
                    let frame = format!("{line}\n");
                    let t = Instant::now();
                    w.write_all(frame.as_bytes())
                        .map_err(|e| format!("write request {at}: {e}"))?;
                    let mut reply = String::new();
                    let n = r
                        .read_line(&mut reply)
                        .map_err(|e| format!("read reply {at}: {e}"))?;
                    if n == 0 {
                        return Err(format!("server closed the connection at request {at}"));
                    }
                    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                    slots.lock().expect("slot lock")[i] = Some(Sample { latency_ms, reply });
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    for r in results {
        r?;
    }
    slots
        .into_inner()
        .expect("slot lock")
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "a request got no reply".to_string())
}

/// Write each request's program where its line points.
pub fn write_programs(dir: &Path, reqs: &[ServeReq]) -> Result<(), String> {
    for r in reqs {
        let p = dir.join(format!("{}.sir", r.name));
        std::fs::write(&p, &r.source).map_err(|e| format!("write {}: {e}", p.display()))?;
    }
    Ok(())
}

/// A request's expected result: its job through the pipeline's public
/// functions in-process, on the given engine.
pub fn reference(req: &ServeReq, engine: Engine) -> Result<JobRun, String> {
    let prog = slo_ir::parser::parse(&req.source).map_err(|e| format!("parse: {e}"))?;
    run_job(&prog, req.scheme, req.relax, engine)
}

/// Check one reply against its reference; `Err` names the mismatch.
fn check_reply(req: &ServeReq, reply: &Response, want: &JobRun) -> Result<(), String> {
    let got = (
        reply.status.as_str(),
        reply.id.as_str(),
        reply.types,
        reply.baseline_cycles,
        reply.optimized_cycles,
        reply.replayed,
    );
    let expected = (
        "optimized",
        req.name.as_str(),
        Some(want.types),
        Some(want.baseline.2),
        Some(want.optimized.2),
        false,
    );
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "(status, id, types, baseline, optimized, replayed) = {got:?}, want {expected:?}"
        ))
    }
}

/// The seeded subset replayed on the structured engine: its expectation
/// must equal the decoded-engine one.
fn check_structured(seed: u64, reqs: &[ServeReq], want: &[JobRun], out: &mut Outcome) {
    let mut rng = crate::gen::Rng::new(seed, 4);
    let mut idx: Vec<usize> = (0..reqs.len()).collect();
    rng.shuffle(&mut idx);
    idx.truncate(CHECKED_REQS);
    let got = par_map_bounded(WORKERS, &idx, |&i| reference(&reqs[i], Engine::Structured));
    for (&i, g) in idx.iter().zip(got) {
        match g {
            Ok(g) if g == want[i] => {}
            Ok(g) => out.fail(format!(
                "{}: structured engine {g:?} != decoded {:?}",
                reqs[i].name, want[i]
            )),
            Err(e) => out.fail(format!("{}: structured engine: {e}", reqs[i].name)),
        }
    }
}

/// A prepared serve workload: its server, the lines to send, and for
/// each line the index of its request in `reqs`.
pub struct Prepared {
    /// Holds the `.sir` files; the server runs here.
    pub work: WorkDir,
    /// The server's state directory (store, journal) under `work`.
    pub state: PathBuf,
    pub server: Server,
    pub reqs: Vec<ServeReq>,
    pub lines: Vec<String>,
    pub which: Vec<usize>,
    /// serve-warm: the replies the store population produced.
    pub cold_replies: Vec<Response>,
    /// Median set-up time, raw and host-normalized.
    pub setup_raw: f64,
    pub setup_s: f64,
}

/// The server flags of a workload, with its store (and journal) in
/// `state`: serve-cold journals and stores every fresh analysis;
/// serve-warm reads a filled store under a small LRU.
pub fn server_args(state: &Path, warm: bool) -> Vec<String> {
    let store = state.join("store").display().to_string();
    if warm {
        vec![
            "--store".into(),
            store,
            "--cache".into(),
            WARM_CACHE.to_string(),
        ]
    } else {
        let journal = state.join("journal.wal").display().to_string();
        vec!["--store".into(), store, "--journal".into(), journal]
    }
}

/// Fill the store at `store_dir` by running the pool through an
/// in-process service that writes through to it; returns each request's
/// (cold) reply.
fn populate(dir: &Path, store_dir: &Path, reqs: &[ServeReq]) -> Result<Vec<Response>, String> {
    let store = AnalysisStore::open(
        store_dir,
        slo_obs::Recorder::disabled(),
        FaultPlan::disabled(),
    )
    .map_err(|e| format!("open store: {e}"))?;
    let service = Service::new(ServiceConfig::builder().workers(WORKERS).build()).with_store(store);
    let mut jobs = Vec::new();
    for r in reqs {
        match Request::parse(dir, &r.line()) {
            Ok(Request::Jobs(j)) => jobs.extend(j),
            Ok(_) => return Err(format!("{}: not a job line", r.name)),
            Err(e) => return Err(format!("{}: {}", r.name, e.message)),
        }
    }
    let outcomes = service.run_batch(&jobs);
    outcomes
        .iter()
        .map(|o| match &o.status {
            JobStatus::Optimized(_) => Ok(Response::from_outcome(o)),
            s => Err(format!("store population: {} came back {}", o.id, s.kind())),
        })
        .collect()
}

/// Set up `reps` times between calibration slices and report the raw and
/// the host-normalized median; keep the last set-up and shut the others
/// down afterwards. A set-up generates the inputs, fills the store
/// (serve-warm, in-process through `Service`), and spawns a server with a
/// fresh state directory until its listen banner. Writing the `.sir`
/// files is file-system work, so it happens once, before and outside the
/// timing (the seed makes every repetition's programs identical).
pub fn setup(
    slo: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    reps: usize,
    cal: &mut Calibrator,
) -> Result<Prepared, String> {
    let work = WorkDir::new(workload)?;
    let warm = workload == "serve-warm";
    // serve-warm's pool is serve-cold's first WARM_POOL requests.
    let count = if warm {
        WARM_POOL
    } else {
        (COLD_PER_SECOND * seconds) as usize
    };
    write_programs(&work.0, &serve_reqs(seed, count))?;
    let mut retired = Vec::new();
    let ((server, reqs, cold_replies, state), setup_raw, setup_s) = cal.reps(
        reps,
        |rep| {
            let reqs = serve_reqs(seed, count);
            let state = work.0.join(format!("state-{rep}"));
            let cold_replies = if warm {
                populate(&work.0, &state.join("store"), &reqs)?
            } else {
                Vec::new()
            };
            let server = Server::spawn(slo, &work.0, &server_args(&state, warm))?;
            Ok((server, reqs, cold_replies, state))
        },
        |(earlier, ..)| retired.push(earlier.shutdown()),
    )?;
    retired.into_iter().collect::<Result<(), String>>()?;
    let which: Vec<usize> = if warm {
        warm_draws(seed, &reqs, (WARM_PER_SECOND * seconds) as usize)
    } else {
        (0..reqs.len()).collect()
    };
    let lines = which.iter().map(|&i| reqs[i].line()).collect();
    Ok(Prepared {
        work,
        state,
        server,
        reqs,
        lines,
        which,
        cold_replies,
        setup_raw,
        setup_s,
    })
}

/// The end-to-end run: set-up, timed closed loop, then checks.
pub fn run(slo: &Path, workload: &str, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut cal = Calibrator::new(WORKERS);
    let p = setup(slo, workload, seed, seconds, SETUP_REPS, &mut cal)?;
    let per_chunk = if workload == "serve-warm" {
        WARM_PER_SECOND
    } else {
        COLD_PER_SECOND
    };
    let chunks = closed_loop(p.server.addr, &p.lines, per_chunk as usize, &mut cal)?;
    let rss = p.server.peak_rss_mb()?;
    let Prepared {
        work: _work,
        server,
        reqs,
        which,
        cold_replies,
        setup_raw,
        setup_s,
        ..
    } = p;
    let (wall_raw, wall_s, factor) = (chunks.raw_s, chunks.norm_s(), chunks.factor);
    let n_chunks = chunks.outs.len();
    let samples: Vec<Sample> = chunks.outs.into_iter().flatten().collect();
    let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms * factor).collect();
    server.shutdown()?;

    let mut out = Outcome {
        attempted: samples.len() as u64,
        ..Outcome::default()
    };
    // Reference replies, computed outside the timed phase.
    let want: Vec<Result<JobRun, String>> =
        par_map_bounded(WORKERS, &reqs, |r| reference(r, Engine::Decoded));
    let mut want_ok = Vec::with_capacity(want.len());
    for (r, w) in reqs.iter().zip(want) {
        match w {
            Ok(w) => want_ok.push(w),
            Err(e) => return Err(format!("reference for {}: {e}", r.name)),
        }
    }
    let mut good = 0u64;
    let mut late = 0u64;
    let mut instructions = 0u64;
    for (s, &i) in samples.iter().zip(&which) {
        let req = &reqs[i];
        instructions += want_ok[i].instructions;
        let verdict = Response::parse(&s.reply).and_then(|reply| {
            check_reply(req, &reply, &want_ok[i])?;
            if workload == "serve-cold" && reply.cached {
                return Err("a distinct program came back cached".into());
            }
            if let Some(cold) = cold_replies.get(i) {
                let strip = |r: &Response| Response {
                    cached: false,
                    ..r.clone()
                };
                if strip(&reply) != strip(cold) {
                    return Err(format!("warm reply {reply:?} != cold reply {cold:?}"));
                }
            }
            Ok(())
        });
        match verdict {
            Ok(()) if s.latency_ms <= LATENCY_LIMIT_MS => good += 1,
            Ok(()) => late += 1,
            Err(e) => out.fail(format!("{} ({}): {e}", req.name, req.line())),
        }
    }
    for (req, (cold, w)) in reqs.iter().zip(cold_replies.iter().zip(&want_ok)) {
        if let Err(e) = check_reply(req, cold, w) {
            out.fail(format!("{} store population: {e}", req.name));
        }
    }
    check_structured(seed, &reqs, &want_ok, &mut out);

    out.metrics
        .push(Metric::new("setup_s", setup_s, "s").note(format!(
            "median of {SETUP_REPS} set-ups, host-normalized; raw {setup_raw:.4} s"
        )));
    out.metrics
        .push(Metric::new("wall_s", wall_s, "s").note(format!(
            "{} requests in {n_chunks} chunks, host-normalized (factor {factor:.4}); raw {wall_raw:.4} s; {}",
            samples.len(),
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
        Metric::new("goodput_ratio", good as f64 / out.attempted as f64, "ratio").note(format!(
            "{good}/{}; {late} correct but over {LATENCY_LIMIT_MS} ms",
            out.attempted
        )),
    );
    out.metrics
        .push(Metric::new("peak_rss_mb", rss, "MiB").note("slo serve VmHWM"));
    Ok(out)
}
