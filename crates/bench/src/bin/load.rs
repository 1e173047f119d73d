//! TCP load driver: latency and shed-rate under concurrent clients.
//!
//! Stands up an in-process [`slo_service::NetServer`] over a clean
//! service, then hammers it with N persistent client connections each
//! issuing job lines back-to-back. Measures per-request reply latency
//! (write → full reply line) over completed requests and the shed
//! rate the admission controller imposed. `--json` merges the tallies
//! into `BENCH_vm.json` under `load` (`load.p50_ms`, `load.p99_ms`,
//! `load.shed_rate`, ...).
//!
//! ```text
//! load [--clients N] [--requests N] [--inflight N] [--queue N]
//!      [--force-overload] [--json]
//! ```
//!
//! `--force-overload` clamps the admission pool to one permit and a
//! zero-length queue so concurrent clients *must* collide: the driver
//! then exits nonzero unless the server shed at least once — the
//! backpressure path is load-bearing, not decorative. In either mode
//! a lost or unparseable reply is fatal: every request gets exactly
//! one well-formed reply.

use bench::report::{json_flag, record_load, LoadStats};
use slo_service::{NetConfig, NetServer, Response, Service, ServiceConfig};
use std::time::{Duration, Instant};

fn flag_value(args: &[String], name: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn bool_flag(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

/// One client: a persistent connection issuing `requests` job lines
/// sequentially. Shed replies are counted and retried after the
/// server's hint; completed latencies are returned in milliseconds.
fn run_client(addr: &std::net::SocketAddr, line: &str, requests: usize) -> (Vec<f64>, usize) {
    use std::io::{BufRead as _, BufReader, Write as _};
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    // One write per request: a split line + newline would cross two
    // TCP segments and eat a Nagle/delayed-ACK stall per request.
    let frame = format!("{line}\n");
    let mut latencies = Vec::with_capacity(requests);
    let mut sheds = 0usize;
    let mut completed = 0usize;
    let mut attempts = 0usize;
    while completed < requests {
        attempts += 1;
        assert!(
            attempts <= requests * 200,
            "server never admitted this client's work"
        );
        let t0 = Instant::now();
        writer.write_all(frame.as_bytes()).expect("write frame");
        let mut reply = String::new();
        let n = reader.read_line(&mut reply).expect("read reply");
        assert!(n > 0, "reply lost: connection closed mid-session");
        let r = Response::parse(reply.trim()).expect("reply must parse");
        match r.status.as_str() {
            "shed" => {
                let hint = r.retry_after_ms.expect("shed replies carry retry_after_ms");
                sheds += 1;
                std::thread::sleep(Duration::from_millis(hint.min(50)));
            }
            "optimized" | "advisory" => {
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                completed += 1;
            }
            other => panic!("unexpected reply status `{other}`: {reply}"),
        }
    }
    (latencies, sheds)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = json_flag(&mut args);
    let force_overload = bool_flag(&mut args, "--force-overload");
    let clients = flag_value(&args, "--clients").unwrap_or(8);
    let requests = flag_value(&args, "--requests").unwrap_or(32);
    let inflight = flag_value(&args, "--inflight").unwrap_or(if force_overload { 1 } else { 4 });
    let queue = flag_value(&args, "--queue").unwrap_or(if force_overload { 0 } else { 16 });

    let dir = std::env::temp_dir().join(format!("slo-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(
        dir.join("job.sir"),
        "record pair { hot: i64, c1: i64, c2: i64 }\n\n\
         func main() -> i64 {\n\
         bb0:\n  r0 = alloc pair, 16\n  r1 = 0\n  jump bb1\n\
         bb1:\n  r2 = cmp.lt r1, 16\n  br r2, bb2, bb3\n\
         bb2:\n  r3 = indexaddr r0, pair, r1\n  r4 = fieldaddr r3, pair.hot\n\
         \x20 store r1, r4 : i64\n  r5 = load r4 : i64\n  r1 = add r1, 1\n  jump bb1\n\
         bb3:\n  r6 = fieldaddr r0, pair.c1\n  store 1, r6 : i64\n  r7 = load r6 : i64\n\
         \x20 ret r7\n}\n",
    )
    .expect("write job.sir");
    const LINE: &str = "job.sir scheme=ispbo";

    // Per-client fairness is keyed by peer IP and every load client is
    // 127.0.0.1, so the per-client share is what saturates first:
    // clamp it to 1 under forced overload, open it up otherwise.
    let service = Service::new(
        ServiceConfig::builder()
            .workers(inflight.max(1))
            .cache_capacity(64)
            .build(),
    );
    let server = NetServer::bind(NetConfig {
        addr: "127.0.0.1:0".to_string(),
        dir: dir.clone(),
        max_clients: clients + 4,
        max_inflight: inflight,
        queue_capacity: queue,
        per_client_inflight: if force_overload { 1 } else { clients.max(1) },
        read_timeout_ms: 10_000,
        retry_after_ms: 2,
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");

    println!(
        "load: {clients} client(s) x {requests} request(s), inflight {inflight}, queue {queue}{}",
        if force_overload {
            ", forced overload"
        } else {
            ""
        }
    );
    let t0 = Instant::now();
    let mut latencies: Vec<f64> = Vec::new();
    let mut sheds = 0usize;
    std::thread::scope(|s| {
        let runner = s.spawn(|| server.run(&service, None));
        let workers: Vec<_> = (0..clients)
            .map(|_| s.spawn(|| run_client(&addr, LINE, requests)))
            .collect();
        for w in workers {
            let (lat, shed) = w.join().expect("client thread");
            latencies.extend(lat);
            sheds += shed;
        }
        server.request_shutdown();
        runner.join().expect("server thread").expect("server run");
    });
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);

    let completed = latencies.len();
    assert_eq!(
        completed,
        clients * requests,
        "every request must complete exactly once"
    );
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let stats = LoadStats {
        clients,
        completed,
        sheds,
        shed_rate: sheds as f64 / (completed + sheds).max(1) as f64,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        throughput_rps: completed as f64 / wall.max(1e-9),
        wall_seconds: wall,
    };
    println!(
        "load: {} completed, {} shed ({:.1}%), p50 {:.2} ms, p99 {:.2} ms, {:.0} req/s in {:.2} s",
        stats.completed,
        stats.sheds,
        100.0 * stats.shed_rate,
        stats.p50_ms,
        stats.p99_ms,
        stats.throughput_rps,
        stats.wall_seconds
    );
    if json {
        record_load(stats);
    }
    if force_overload && sheds == 0 {
        println!("FAIL: forced overload produced zero sheds — backpressure is not engaging");
        std::process::exit(1);
    }
    println!("ok: every request answered; overload sheds with retry-after instead of buffering");
}
