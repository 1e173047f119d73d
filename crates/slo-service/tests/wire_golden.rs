//! Byte-for-byte goldens for the two JSON encodings other programs
//! read: the v1 wire reply ([`Response::to_json`], including the
//! journal-replay marker) and the Chrome trace ([`to_chrome_json`]).
//! The expected strings were captured from the hand-written encoders
//! that preceded the shared `slo_obs::json` codec; any change to them
//! is a wire or trace format change, not a refactor.

use slo::Evaluation;
use slo_obs::chrome::to_chrome_json;
use slo_obs::{ArgValue, EventKind, TraceEvent};
use slo_service::{Degradation, JobMetrics, JobOutcome, JobStatus, Optimized, Response, WireError};

/// Every byte class the escaper treats specially, plus multi-byte text.
const NASTY: &str = "q\"b\\s/n\nr\rt\tc\u{1}\u{1f}é🦀";

fn outcome(status: JobStatus) -> JobOutcome {
    JobOutcome {
        id: "job-1".to_string(),
        status,
        metrics: JobMetrics {
            cache_hit: true,
            ..JobMetrics::default()
        },
        attempts: 3,
        quarantined: false,
    }
}

fn optimized() -> JobOutcome {
    outcome(JobStatus::Optimized(Optimized {
        transformed: String::new(),
        num_transformed: 2,
        eval: Evaluation {
            baseline_cycles: u64::MAX,
            optimized_cycles: 800,
            baseline_instructions: 500,
            optimized_instructions: 500,
        },
        ipa_fingerprint: 7,
    }))
}

#[test]
fn wire_replies_match_golden_bytes() {
    let advisory = outcome(JobStatus::Advisory {
        reason: Degradation::Budget(format!("out of time {NASTY}")),
        report: Some("report".to_string()),
    });
    let failed = outcome(JobStatus::Failed(format!("boom {NASTY}\nsecond line")));
    let err = WireError {
        code: "bad-request",
        message: format!("quoted {NASTY}"),
    };
    let cases = [
        (
            Response::hello().to_json(),
            r#"{"v":1,"id":"hello","status":"ok","degradation":null,"attempts":0,"cached":false,"retry_after_ms":null}"#,
        ),
        (
            Response::error(NASTY, &err).to_json(),
            r#"{"v":1,"id":"q\"b\\s/n\nr\rt\tc\u0001\u001fé🦀","status":"error","degradation":null,"attempts":0,"cached":false,"retry_after_ms":null,"code":"bad-request","message":"quoted q\"b\\s/n\nr\rt\tc\u0001\u001fé🦀"}"#,
        ),
        (
            Response::shed("x", 125).to_json(),
            r#"{"v":1,"id":"x","status":"shed","degradation":null,"attempts":0,"cached":false,"retry_after_ms":125,"code":"overload","message":"admission queue full; retry after backoff"}"#,
        ),
        (
            Response::from_outcome(&optimized()).to_json(),
            r#"{"v":1,"id":"job-1","status":"optimized","degradation":null,"attempts":3,"cached":true,"retry_after_ms":null,"types":2,"baseline_cycles":18446744073709551615,"optimized_cycles":800}"#,
        ),
        (
            Response::from_outcome(&advisory).to_json(),
            r#"{"v":1,"id":"job-1","status":"advisory","degradation":"budget","attempts":3,"cached":true,"retry_after_ms":null,"message":"budget: out of time q\"b\\s/n\nr\rt\tc\u0001\u001fé🦀","report_available":true}"#,
        ),
        (
            Response::from_outcome(&failed).to_json(),
            r#"{"v":1,"id":"job-1","status":"failed","degradation":null,"attempts":3,"cached":true,"retry_after_ms":null,"code":"job-failed","message":"boom q\"b\\s/n"}"#,
        ),
        (
            Response::mark_replayed(&Response::from_outcome(&optimized()).to_json()),
            r#"{"v":1,"id":"job-1","status":"optimized","degradation":null,"attempts":3,"cached":true,"retry_after_ms":null,"types":2,"baseline_cycles":18446744073709551615,"optimized_cycles":800,"replayed":true}"#,
        ),
    ];
    for (got, want) in cases {
        assert_eq!(got, want);
    }
}

#[test]
fn chrome_trace_matches_golden_bytes() {
    let event = |kind, name: &str, ts_us, dur_us, tid, args| TraceEvent {
        kind,
        name: name.to_string(),
        cat: "pipeline",
        ts_us,
        dur_us,
        tid,
        args,
    };
    let events = [
        event(
            EventKind::Complete,
            "compile",
            10,
            90,
            1,
            vec![
                ("types", ArgValue::Int(-3)),
                ("ok", ArgValue::Bool(true)),
                ("rate", ArgValue::Float(0.5)),
                ("big", ArgValue::Float(1e21)),
                ("tiny", ArgValue::Float(1.5e-7)),
                ("whole", ArgValue::Float(2.0)),
            ],
        ),
        event(
            EventKind::Instant,
            NASTY,
            u64::MAX,
            0,
            2,
            vec![("msg", ArgValue::Str(NASTY.to_string()))],
        ),
        event(
            EventKind::Counter,
            "vm.instructions",
            0,
            0,
            1,
            vec![
                ("value", ArgValue::Float(f64::NAN)),
                ("inf", ArgValue::Float(f64::INFINITY)),
                ("min", ArgValue::Int(i64::MIN)),
            ],
        ),
    ];
    assert_eq!(
        to_chrome_json(&events, 3),
        concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"compile","cat":"pipeline","ph":"X","ts":10,"dur":90,"pid":1,"tid":1,"args":{"types":-3,"ok":true,"rate":0.5,"big":1000000000000000000000,"tiny":0.00000015,"whole":2}},"#,
            r#"{"name":"q\"b\\s/n\nr\rt\tc\u0001\u001fé🦀","cat":"pipeline","ph":"i","ts":18446744073709551615,"dur":0,"pid":1,"tid":2,"args":{"msg":"q\"b\\s/n\nr\rt\tc\u0001\u001fé🦀"}},"#,
            r#"{"name":"vm.instructions","cat":"pipeline","ph":"C","ts":0,"dur":0,"pid":1,"tid":1,"args":{"value":null,"inf":null,"min":-9223372036854775808}}"#,
            r#"],"displayTimeUnit":"ms","otherData":{"dropped":3}}"#,
        )
    );
}
