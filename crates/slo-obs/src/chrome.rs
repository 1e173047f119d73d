//! Chrome `trace_event` JSON serialization.
//!
//! Emits the "JSON Object Format" variant — a top-level object with a
//! `traceEvents` array — which both `chrome://tracing` and Perfetto
//! load directly. Every event carries the full golden schema checked by
//! [`crate::conform::check_chrome_trace`]: `name`, `cat`, `ph`, `ts`,
//! `dur`, `pid`, `tid`, `args`.

use crate::json::JsonValue;
use crate::{ArgValue, TraceEvent};

/// Serialize events (plus a dropped-event count) to Chrome trace JSON.
pub fn to_chrome_json(events: &[TraceEvent], dropped: u64) -> String {
    let events = events.iter().map(|ev| {
        let args = ev.args.iter().map(|(k, v)| {
            let v = match v {
                ArgValue::Int(i) => (*i).into(),
                ArgValue::Float(f) => (*f).into(),
                ArgValue::Str(s) => s.as_str().into(),
                ArgValue::Bool(b) => (*b).into(),
            };
            (*k, v)
        });
        JsonValue::object([
            ("name", ev.name.as_str().into()),
            ("cat", ev.cat.into()),
            ("ph", ev.kind.ph().to_string().into()),
            ("ts", ev.ts_us.into()),
            ("dur", ev.dur_us.into()),
            ("pid", 1u64.into()),
            ("tid", ev.tid.into()),
            ("args", JsonValue::object(args)),
        ])
    });
    JsonValue::object([
        ("traceEvents", JsonValue::Arr(events.collect())),
        ("displayTimeUnit", "ms".into()),
        (
            "otherData",
            JsonValue::object([("dropped", dropped.into())]),
        ),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Recorder};

    #[test]
    fn empty_trace_is_valid_shape() {
        let json = to_chrome_json(&[], 0);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"dropped\":0"));
    }

    #[test]
    fn event_carries_full_schema() {
        let ev = TraceEvent {
            kind: EventKind::Complete,
            name: "legality".into(),
            cat: "pipeline",
            ts_us: 10,
            dur_us: 5,
            tid: 1,
            args: vec![
                ("n", ArgValue::Int(3)),
                ("ok", ArgValue::Bool(true)),
                ("msg", ArgValue::Str("a \"b\"\n".into())),
                ("rate", ArgValue::Float(0.5)),
            ],
        };
        let json = to_chrome_json(&[ev], 2);
        for needle in [
            "\"name\":\"legality\"",
            "\"cat\":\"pipeline\"",
            "\"ph\":\"X\"",
            "\"ts\":10",
            "\"dur\":5",
            "\"pid\":1",
            "\"tid\":1",
            "\"n\":3",
            "\"ok\":true",
            "\"msg\":\"a \\\"b\\\"\\n\"",
            "\"rate\":0.5",
            "\"dropped\":2",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn recorder_roundtrip_passes_conformance() {
        let r = Recorder::enabled();
        {
            let _outer = r.span("pipeline", "compile");
            let _inner = r.span("pipeline", "legality");
        }
        r.counter("vm", "vm.instructions", 42.0);
        r.instant(
            "service",
            "cache-hit",
            vec![("job", ArgValue::Str("j0".into()))],
        );
        let json = r.to_chrome_json();
        crate::conform::check_chrome_trace(&json).expect("conformant");
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let ev = TraceEvent {
            kind: EventKind::Counter,
            name: "c".into(),
            cat: "vm",
            ts_us: 0,
            dur_us: 0,
            tid: 1,
            args: vec![("value", ArgValue::Float(f64::NAN))],
        };
        let json = to_chrome_json(&[ev], 0);
        assert!(json.contains("\"value\":null"));
    }
}
