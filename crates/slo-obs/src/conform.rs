//! Conformance checks for the exported observability surfaces.
//!
//! Two validators, used both by the test suite and by the
//! `slo trace-check` CLI subcommand (the CI `trace-smoke` job):
//!
//! * [`check_chrome_trace`] — golden-schema validation of Chrome
//!   `trace_event` JSON: every event has `name`/`cat`/`ph`/`ts`/`dur`/
//!   `pid`/`tid`, phases are known letters, and complete (`"X"`) spans
//!   nest properly per thread.
//! * [`check_prometheus`] — line-by-line validation of the Prometheus
//!   text exposition format emitted by `slo serve`'s `metrics prom`.
//!
//! Both parse through the crate's one JSON codec, [`crate::json`]; its
//! value type and parser are re-exported here for existing callers.

pub use crate::json::{parse_json, JsonValue};

/// A summary of a schema-valid Chrome trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Number of events in `traceEvents`.
    pub events: usize,
    /// Number of complete (`"X"`) spans.
    pub spans: usize,
    /// Distinct event names, sorted.
    pub names: Vec<String>,
    /// Dropped-event count from `otherData.dropped` (0 if absent).
    pub dropped: u64,
}

impl TraceSummary {
    /// Whether an event with this exact name is present.
    pub fn has(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }
}

/// Golden-schema validation of a Chrome `trace_event` JSON document.
///
/// Checks, in order:
/// 1. the document parses and has a `traceEvents` array;
/// 2. every event is an object with string `name`, string `cat`, a
///    one-letter `ph` in `{X,i,C,B,E,M}`, numeric non-negative `ts`
///    and `dur`, and numeric `pid`/`tid`;
/// 3. per `tid`, complete (`"X"`) spans nest: sorted by start (ties:
///    longer first), each span starts at-or-after its enclosing span's
///    start and ends at-or-before its end — no partial overlap.
///
/// Returns a [`TraceSummary`] for follow-on assertions (e.g. "all
/// seven pipeline phases present").
pub fn check_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = parse_json(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("missing traceEvents array")?;
    let dropped = doc
        .get("otherData")
        .and_then(|o| o.get("dropped")?.as_u64());
    let mut summary = TraceSummary {
        events: events.len(),
        dropped: dropped.unwrap_or(0),
        ..TraceSummary::default()
    };

    // (tid, ts, end) per complete span, for the nesting check.
    let mut spans: Vec<(u64, u64, u64)> = Vec::new();
    let mut names: Vec<String> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing string 'name'"))?;
        let missing = |what: &str, key: &str| format!("event {i} ({name}): missing {what} '{key}'");
        let text = |key| {
            ev.get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| missing("string", key))
        };
        let num = |key| {
            ev.get(key)
                .and_then(JsonValue::as_num)
                .ok_or_else(|| missing("numeric", key))
        };
        text("cat")?;
        let ph = text("ph")?;
        if !matches!(ph, "X" | "i" | "C" | "B" | "E" | "M") {
            return Err(format!("event {i} ({name}): unknown ph '{ph}'"));
        }
        let (ts, dur) = (num("ts")?, num("dur")?);
        if ts < 0.0 || dur < 0.0 {
            return Err(format!("event {i} ({name}): negative ts/dur"));
        }
        num("pid")?;
        let tid = num("tid")?;

        names.push(name.to_string());
        if ph == "X" {
            summary.spans += 1;
            spans.push((
                tid as u64,
                ts as u64,
                (ts as u64).saturating_add(dur as u64),
            ));
        }
    }

    // Nesting: per tid, sweep spans sorted by (start asc, end desc)
    // with a stack of open intervals.
    spans.sort_by_key(|a| (a.0, a.1, std::cmp::Reverse(a.2)));
    let mut stack: Vec<(u64, u64, u64)> = Vec::new();
    for &(tid, start, end) in &spans {
        while let Some(&(ttid, _, tend)) = stack.last() {
            if ttid != tid || tend <= start {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(_, tstart, tend)) = stack.last() {
            if start < tstart || end > tend {
                return Err(format!(
                    "spans overlap without nesting on tid {tid}: \
                     [{start},{end}] vs enclosing [{tstart},{tend}]"
                ));
            }
        }
        stack.push((tid, start, end));
    }

    names.sort();
    names.dedup();
    summary.names = names;
    Ok(summary)
}

/// A summary of a valid Prometheus exposition document.
#[derive(Debug, Clone, Default)]
pub struct PromSummary {
    /// Metric family names that have a `# TYPE` line, sorted.
    pub families: Vec<String>,
    /// Total number of sample lines.
    pub samples: usize,
}

impl PromSummary {
    /// Whether a metric family with this name was declared.
    pub fn has(&self, family: &str) -> bool {
        self.families.iter().any(|f| f == family)
    }
}

/// Line-by-line validation of the Prometheus text exposition format.
///
/// Rules enforced: `# HELP <name> <text>` and
/// `# TYPE <name> <counter|gauge|histogram|summary|untyped>` comment
/// shapes; sample lines are `name{labels} value` or `name value` with
/// a valid metric identifier, balanced quoted label values and a
/// parseable float; a sample whose base family has a `# TYPE` line
/// must appear *after* it.
pub fn check_prometheus(text: &str) -> Result<PromSummary, String> {
    fn valid_metric_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    let mut typed: Vec<String> = Vec::new();
    let mut summary = PromSummary::default();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let n = lineno + 1;
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(body) = rest.strip_prefix("HELP ") {
                let name = body.split_whitespace().next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {n}: HELP with invalid metric name '{name}'"));
                }
            } else if let Some(body) = rest.strip_prefix("TYPE ") {
                let mut it = body.split_whitespace();
                let name = it.next().unwrap_or("");
                let kind = it.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {n}: TYPE with invalid metric name '{name}'"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {n}: unknown metric type '{kind}'"));
                }
                typed.push(name.to_string());
            }
            // Other comments are allowed and ignored.
            continue;
        }
        if line.starts_with('#') {
            continue; // bare comment
        }

        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find(['{', ' ']) {
            Some(idx) => (&line[..idx], &line[idx..]),
            None => return Err(format!("line {n}: sample without value: '{line}'")),
        };
        if !valid_metric_name(name_part) {
            return Err(format!("line {n}: invalid metric name '{name_part}'"));
        }
        let value_part = if let Some(labels_rest) = rest.strip_prefix('{') {
            // Scan to the closing brace, honouring quoted label values.
            let mut in_str = false;
            let mut esc = false;
            let mut close = None;
            for (i, c) in labels_rest.char_indices() {
                if esc {
                    esc = false;
                } else if in_str && c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = !in_str;
                } else if !in_str && c == '}' {
                    close = Some(i);
                    break;
                }
            }
            let close = close.ok_or_else(|| format!("line {n}: unterminated label set"))?;
            let labels = &labels_rest[..close];
            for pair in split_labels(labels) {
                let pair = pair.trim();
                if pair.is_empty() {
                    continue;
                }
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("line {n}: label without '=': '{pair}'"))?;
                if !valid_metric_name(k.trim()) {
                    return Err(format!("line {n}: invalid label name '{k}'"));
                }
                let v = v.trim();
                if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                    return Err(format!("line {n}: label value not quoted: '{v}'"));
                }
            }
            &labels_rest[close + 1..]
        } else {
            rest
        };
        let mut fields = value_part.split_whitespace();
        let value = fields
            .next()
            .ok_or_else(|| format!("line {n}: sample without value"))?;
        if value.parse::<f64>().is_err() && !matches!(value, "NaN" | "+Inf" | "-Inf") {
            return Err(format!("line {n}: invalid sample value '{value}'"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {n}: invalid timestamp '{ts}'"));
            }
        }

        // If the family is (ever) TYPEd, the TYPE must already have
        // been seen: exposition order is HELP/TYPE before samples.
        let base = name_part
            .strip_suffix("_bucket")
            .or_else(|| name_part.strip_suffix("_sum"))
            .or_else(|| name_part.strip_suffix("_count"))
            .unwrap_or(name_part);
        let declared_later = text.lines().any(|l| {
            l.strip_prefix("# TYPE ")
                .map(|b| b.split_whitespace().next() == Some(base))
                .unwrap_or(false)
        });
        if declared_later && !typed.iter().any(|t| t == base || t == name_part) {
            return Err(format!(
                "line {n}: sample for '{name_part}' precedes its # TYPE line"
            ));
        }
        summary.samples += 1;
    }

    typed.sort();
    typed.dedup();
    summary.families = typed;
    Ok(summary)
}

/// Split a label body on commas that are outside quoted values.
fn split_labels(labels: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut esc = false;
    for (i, c) in labels.char_indices() {
        if esc {
            esc = false;
        } else if in_str && c == '\\' {
            esc = true;
        } else if c == '"' {
            in_str = !in_str;
        } else if !in_str && c == ',' {
            out.push(&labels[start..i]);
            start = i + 1;
        }
    }
    if start < labels.len() {
        out.push(&labels[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_check_rejects_missing_fields() {
        let bad =
            r#"{"traceEvents":[{"name":"x","cat":"c","ph":"X","ts":0,"pid":1,"tid":1,"args":{}}]}"#;
        let err = check_chrome_trace(bad).unwrap_err();
        assert!(err.contains("dur"), "{err}");
    }

    #[test]
    fn trace_check_rejects_partial_overlap() {
        let bad = r#"{"traceEvents":[
            {"name":"a","cat":"c","ph":"X","ts":0,"dur":10,"pid":1,"tid":1,"args":{}},
            {"name":"b","cat":"c","ph":"X","ts":5,"dur":10,"pid":1,"tid":1,"args":{}}
        ]}"#;
        let err = check_chrome_trace(bad).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn trace_check_accepts_nesting_and_other_tids() {
        let ok = r#"{"traceEvents":[
            {"name":"outer","cat":"c","ph":"X","ts":0,"dur":10,"pid":1,"tid":1,"args":{}},
            {"name":"inner","cat":"c","ph":"X","ts":2,"dur":3,"pid":1,"tid":1,"args":{}},
            {"name":"elsewhere","cat":"c","ph":"X","ts":5,"dur":10,"pid":1,"tid":2,"args":{}},
            {"name":"count","cat":"c","ph":"C","ts":1,"dur":0,"pid":1,"tid":1,"args":{"value":2}}
        ]}"#;
        let s = check_chrome_trace(ok).unwrap();
        assert_eq!(s.events, 4);
        assert_eq!(s.spans, 3);
        assert!(s.has("inner") && s.has("count"));
    }

    #[test]
    fn full_default_capacity_trace_checks_in_linear_time() {
        // A full recorder is the largest trace `slo trace-check` meets;
        // a parser that rescans the rest of the document for every
        // string character needs minutes on it.
        let r = crate::Recorder::with_capacity(crate::DEFAULT_CAPACITY);
        for i in 0..crate::DEFAULT_CAPACITY as u64 {
            let name = format!("job \"{i}\" é");
            match i % 3 {
                0 => r.complete("service", name, i * 10, 5, vec![("n", i.into())]),
                1 => r.instant("service", name, vec![("msg", "a\tb".into())]),
                _ => r.counter("vm", name, i as f64 / 3.0),
            }
        }
        r.counter("vm", "overflow", 0.0);
        let s = check_chrome_trace(&r.to_chrome_json()).expect("conformant");
        assert_eq!(s.events, crate::DEFAULT_CAPACITY);
        assert_eq!(s.dropped, 1);
    }

    #[test]
    fn prometheus_happy_path() {
        let text = "\
# HELP slo_jobs_total Jobs processed.
# TYPE slo_jobs_total counter
slo_jobs_total 42
# TYPE slo_jobs_degraded_total counter
slo_jobs_degraded_total{reason=\"budget\"} 3
slo_jobs_degraded_total{reason=\"panic\"} 1
# TYPE slo_cache_hit_rate gauge
slo_cache_hit_rate 0.5
";
        let s = check_prometheus(text).unwrap();
        assert_eq!(s.samples, 4);
        assert!(s.has("slo_jobs_total"));
        assert!(s.has("slo_cache_hit_rate"));
    }

    #[test]
    fn prometheus_rejects_bad_lines() {
        assert!(check_prometheus("# TYPE x florp\nx 1\n").is_err());
        assert!(check_prometheus("1bad_name 3\n").is_err());
        assert!(
            check_prometheus("m{a=b} 3\n").is_err(),
            "unquoted label value"
        );
        assert!(check_prometheus("m{a=\"b\"} notanumber\n").is_err());
        assert!(
            check_prometheus("m{a=\"b\" 3\n").is_err(),
            "unterminated labels"
        );
        assert!(
            check_prometheus("m 1\n# TYPE m counter\n").is_err(),
            "sample before TYPE"
        );
    }
}
