//! Profile feedback data — the paper's "feedback files".
//!
//! The PBO collection phase produces a [`Feedback`] holding, per function,
//! CFG **edge counts** from compiler-inserted instrumentation and sampled
//! **d-cache events** (miss counts and latencies) from the PMU, attributed
//! to individual load/store instructions. The use phase matches this data
//! back onto the IR (functions by name, blocks/instructions by stable id —
//! our stand-in for the paper's source-line + expression-counting CFG
//! matching).
//!
//! Feedback can be serialized to a line-oriented text format, merged across
//! training runs, and scaled.

use std::collections::HashMap;
use std::fmt;

/// Sampled d-cache events for one instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DcacheSample {
    /// Number of sampled accesses.
    pub samples: u64,
    /// Of those, how many missed their first-level cache.
    pub misses: u64,
    /// Total load-to-use latency (cycles) over the sampled accesses.
    pub total_latency: u64,
}

impl DcacheSample {
    /// Mean latency per sampled access (0 if never sampled).
    pub fn avg_latency(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.samples as f64
        }
    }

    /// Accumulate another sample record.
    pub fn merge(&mut self, other: &DcacheSample) {
        self.samples += other.samples;
        self.misses += other.misses;
        self.total_latency += other.total_latency;
    }
}

/// Stride statistics for one load/store site — the paper's "stride
/// information for pointer-chasing loads and stores" collected by the
/// PBO infrastructure (§2.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrideInfo {
    /// The most frequently observed address delta between consecutive
    /// executions of the instruction.
    pub dominant: i64,
    /// How many sampled deltas matched the dominant stride.
    pub hits: u64,
    /// Total sampled deltas.
    pub samples: u64,
}

impl StrideInfo {
    /// Fraction of deltas matching the dominant stride (0 when unsampled).
    pub fn confidence(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.hits as f64 / self.samples as f64
        }
    }
}

/// Distinct deltas a [`StrideTable`] counts per site.
const STRIDE_SLOTS: usize = 32;

/// Collection-side stride histogram for one load/store site, shared by
/// both VM engines: the site's last address plus at most
/// [`STRIDE_SLOTS`] `(delta, count)` entries, searched linearly. A delta
/// is counted if it is already present or a slot is free; later new
/// deltas are ignored.
#[derive(Debug, Clone, Default)]
pub(crate) struct StrideTable {
    last: Option<u64>,
    entries: Vec<(i64, u64)>,
}

impl StrideTable {
    /// Record one execution of the site at `addr`.
    #[inline]
    pub(crate) fn observe(&mut self, addr: u64) {
        let Some(prev) = self.last.replace(addr) else {
            return;
        };
        let delta = addr.wrapping_sub(prev) as i64;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == delta) {
            e.1 += 1;
        } else if self.entries.len() < STRIDE_SLOTS {
            self.entries.push((delta, 1));
        }
    }

    /// The most frequent delta, ties broken toward the smallest so the
    /// result does not depend on the order deltas were first seen.
    /// `None` if no delta was counted.
    pub(crate) fn dominant(&self) -> Option<StrideInfo> {
        let &(dominant, hits) = self
            .entries
            .iter()
            .max_by_key(|&&(d, c)| (c, std::cmp::Reverse(d)))?;
        Some(StrideInfo {
            dominant,
            hits,
            samples: self.entries.iter().map(|e| e.1).sum(),
        })
    }
}

/// The PMU sampling trigger: fires on every `period`-th memory access
/// by counting down (no per-access division), never when `period` is 0.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Countdown {
    left: u64,
    period: u64,
}

impl Countdown {
    pub(crate) fn new(period: u64) -> Self {
        Countdown {
            left: period,
            period,
        }
    }

    /// Count one access; true if it is sampled.
    #[inline]
    pub(crate) fn tick(&mut self) -> bool {
        if self.left > 1 {
            self.left -= 1;
            return false;
        }
        // 1: sample this access and reload; 0: period 0, never samples
        let fire = self.left == 1;
        self.left = self.period;
        fire
    }
}

/// Profile data for one function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FuncProfile {
    /// Times the function was entered.
    pub entry_count: u64,
    /// Edge execution counts keyed by `(from_block, to_block)`.
    pub edges: HashMap<(u32, u32), u64>,
    /// D-cache samples keyed by `(block, instr_index)`.
    pub samples: HashMap<(u32, u32), DcacheSample>,
    /// Stride statistics keyed by `(block, instr_index)`.
    pub strides: HashMap<(u32, u32), StrideInfo>,
}

impl FuncProfile {
    /// Incoming count of a block: sum of edge counts into it, or the
    /// entry count for block 0.
    pub fn block_count(&self, block: u32) -> u64 {
        let inflow: u64 = self
            .edges
            .iter()
            .filter(|((_, to), _)| *to == block)
            .map(|(_, c)| *c)
            .sum();
        if block == 0 {
            self.entry_count + inflow
        } else {
            inflow
        }
    }
}

/// A whole-program profile (the feedback file).
///
/// # Examples
///
/// ```
/// use slo_vm::Feedback;
///
/// let mut fb = Feedback::new(97);
/// fb.func_mut("main").entry_count = 1;
/// fb.func_mut("main").edges.insert((0, 1), 100);
/// let text = fb.to_text();
/// assert_eq!(Feedback::from_text(&text)?, fb);
/// # Ok::<(), slo_vm::FeedbackParseError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Feedback {
    /// Per-function profiles keyed by function name.
    pub funcs: HashMap<String, FuncProfile>,
    /// Sampling period used during collection (1 = every access).
    pub sample_period: u64,
}

impl Feedback {
    /// Empty feedback with the given sampling period.
    pub fn new(sample_period: u64) -> Self {
        Feedback {
            funcs: HashMap::new(),
            sample_period,
        }
    }

    /// Profile for a function, if present.
    pub fn func(&self, name: &str) -> Option<&FuncProfile> {
        self.funcs.get(name)
    }

    /// Get-or-create a function profile (collection side).
    pub fn func_mut(&mut self, name: &str) -> &mut FuncProfile {
        self.funcs.entry(name.to_string()).or_default()
    }

    /// Merge another feedback file (e.g. a second training input) into
    /// this one by summing counts.
    pub fn merge(&mut self, other: &Feedback) {
        for (name, fp) in &other.funcs {
            let dst = self.funcs.entry(name.clone()).or_default();
            dst.entry_count += fp.entry_count;
            for (e, c) in &fp.edges {
                *dst.edges.entry(*e).or_insert(0) += c;
            }
            for (k, s) in &fp.samples {
                dst.samples.entry(*k).or_default().merge(s);
            }
            for (k, st) in &fp.strides {
                let d = dst.strides.entry(*k).or_default();
                // keep whichever dominant stride has more evidence
                if st.hits > d.hits {
                    d.dominant = st.dominant;
                    d.hits = st.hits;
                }
                d.samples += st.samples;
            }
        }
    }

    /// Total edge-count volume (a cheap size proxy used in tests).
    pub fn total_edge_count(&self) -> u64 {
        self.funcs.values().flat_map(|f| f.edges.values()).sum()
    }

    /// Serialize to the line-oriented text format.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "feedback period={}", self.sample_period);
        let mut names: Vec<&String> = self.funcs.keys().collect();
        names.sort();
        for name in names {
            let fp = &self.funcs[name];
            let _ = writeln!(out, "func {name} entry={}", fp.entry_count);
            let mut edges: Vec<(&(u32, u32), &u64)> = fp.edges.iter().collect();
            edges.sort();
            for ((a, b), c) in edges {
                let _ = writeln!(out, "edge {a} {b} {c}");
            }
            let mut samples: Vec<(&(u32, u32), &DcacheSample)> = fp.samples.iter().collect();
            samples.sort_by_key(|(k, _)| **k);
            for ((b, i), s) in samples {
                let _ = writeln!(
                    out,
                    "sample {b} {i} {} {} {}",
                    s.samples, s.misses, s.total_latency
                );
            }
            let mut strides: Vec<(&(u32, u32), &StrideInfo)> = fp.strides.iter().collect();
            strides.sort_by_key(|(k, _)| **k);
            for ((b, i), st) in strides {
                let _ = writeln!(
                    out,
                    "stride {b} {i} {} {} {}",
                    st.dominant, st.hits, st.samples
                );
            }
        }
        out
    }

    /// Parse the text format produced by [`Feedback::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a [`FeedbackParseError`] naming the bad line.
    pub fn from_text(text: &str) -> Result<Self, FeedbackParseError> {
        let mut fb = Feedback::new(1);
        let mut cur: Option<String> = None;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let kw = parts.next().unwrap_or_default();
            let bad = |msg: &str| FeedbackParseError {
                line: lineno as u32 + 1,
                message: msg.to_string(),
            };
            match kw {
                "feedback" => {
                    let p = parts
                        .next()
                        .and_then(|s| s.strip_prefix("period="))
                        .ok_or_else(|| bad("expected period="))?;
                    fb.sample_period = p.parse().map_err(|_| bad("bad period"))?;
                }
                "func" => {
                    let name = parts.next().ok_or_else(|| bad("missing name"))?;
                    let entry = parts
                        .next()
                        .and_then(|s| s.strip_prefix("entry="))
                        .ok_or_else(|| bad("expected entry="))?
                        .parse()
                        .map_err(|_| bad("bad entry count"))?;
                    fb.func_mut(name).entry_count = entry;
                    cur = Some(name.to_string());
                }
                "edge" => {
                    let name = cur.as_ref().ok_or_else(|| bad("edge before func"))?;
                    let nums: Vec<u64> = parts
                        .map(|s| s.parse().map_err(|_| bad("bad edge number")))
                        .collect::<Result<_, _>>()?;
                    if nums.len() != 3 {
                        return Err(bad("edge needs 3 numbers"));
                    }
                    fb.func_mut(name)
                        .edges
                        .insert((nums[0] as u32, nums[1] as u32), nums[2]);
                }
                "sample" => {
                    let name = cur.as_ref().ok_or_else(|| bad("sample before func"))?;
                    let nums: Vec<u64> = parts
                        .map(|s| s.parse().map_err(|_| bad("bad sample number")))
                        .collect::<Result<_, _>>()?;
                    if nums.len() != 5 {
                        return Err(bad("sample needs 5 numbers"));
                    }
                    fb.func_mut(name).samples.insert(
                        (nums[0] as u32, nums[1] as u32),
                        DcacheSample {
                            samples: nums[2],
                            misses: nums[3],
                            total_latency: nums[4],
                        },
                    );
                }
                "stride" => {
                    let name = cur.as_ref().ok_or_else(|| bad("stride before func"))?;
                    let nums: Vec<i64> = parts
                        .map(|s| s.parse().map_err(|_| bad("bad stride number")))
                        .collect::<Result<_, _>>()?;
                    if nums.len() != 5 {
                        return Err(bad("stride needs 5 numbers"));
                    }
                    fb.func_mut(name).strides.insert(
                        (nums[0] as u32, nums[1] as u32),
                        StrideInfo {
                            dominant: nums[2],
                            hits: nums[3] as u64,
                            samples: nums[4] as u64,
                        },
                    );
                }
                _ => return Err(bad("unknown keyword")),
            }
        }
        Ok(fb)
    }
}

/// Error parsing a textual feedback file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackParseError {
    /// 1-based line number.
    pub line: u32,
    /// Description.
    pub message: String,
}

impl fmt::Display for FeedbackParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "feedback line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FeedbackParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fb() -> Feedback {
        let mut fb = Feedback::new(97);
        let f = fb.func_mut("main");
        f.entry_count = 1;
        f.edges.insert((0, 1), 100);
        f.edges.insert((1, 2), 99);
        f.samples.insert(
            (1, 3),
            DcacheSample {
                samples: 10,
                misses: 4,
                total_latency: 800,
            },
        );
        f.strides.insert(
            (1, 3),
            StrideInfo {
                dominant: 120,
                hits: 9,
                samples: 10,
            },
        );
        fb
    }

    #[test]
    fn stride_confidence() {
        let st = StrideInfo {
            dominant: 64,
            hits: 8,
            samples: 10,
        };
        assert!((st.confidence() - 0.8).abs() < 1e-12);
        assert_eq!(StrideInfo::default().confidence(), 0.0);
    }

    #[test]
    fn stride_table_bounds_distinct_deltas_and_breaks_ties_low() {
        let mut t = StrideTable::default();
        assert_eq!(t.dominant(), None);
        // deltas 1..=32 once each fill every slot...
        let mut addr = 1_000u64;
        t.observe(addr);
        for d in 1..=32u64 {
            addr += d;
            t.observe(addr);
        }
        // ...so a 33rd distinct delta is ignored, even when repeated
        for _ in 0..5 {
            addr += 1_000;
            t.observe(addr);
        }
        let st = t.dominant().expect("counted deltas");
        assert_eq!(st.samples, 32, "the 33rd delta must not be counted");
        // all tied at one hit: the smallest delta wins
        assert_eq!((st.dominant, st.hits), (1, 1));
        // a tracked delta keeps counting after the table is full
        addr += 7;
        t.observe(addr);
        let st = t.dominant().expect("counted deltas");
        assert_eq!((st.dominant, st.hits, st.samples), (7, 2, 33));
        // negative deltas order below positive ones on a tie
        let mut t = StrideTable::default();
        for a in [100u64, 108, 100] {
            t.observe(a);
        }
        let st = t.dominant().expect("counted deltas");
        assert_eq!((st.dominant, st.hits, st.samples), (-8, 1, 2));
    }

    #[test]
    fn countdown_fires_every_period_and_never_at_zero() {
        let fired = |period: u64, n: usize| {
            let mut c = Countdown::new(period);
            (1..=n).filter(|_| c.tick()).collect::<Vec<_>>()
        };
        assert_eq!(fired(1, 4), vec![1, 2, 3, 4]);
        assert_eq!(fired(3, 10), vec![3, 6, 9]);
        assert!(fired(0, 1_000).is_empty());
    }

    #[test]
    fn block_count_sums_inflow() {
        let fb = sample_fb();
        let f = fb.func("main").expect("main profile");
        assert_eq!(f.block_count(1), 100);
        assert_eq!(f.block_count(2), 99);
        assert_eq!(f.block_count(0), 1);
    }

    #[test]
    fn avg_latency() {
        let s = DcacheSample {
            samples: 10,
            misses: 4,
            total_latency: 800,
        };
        assert!((s.avg_latency() - 80.0).abs() < 1e-12);
        assert_eq!(DcacheSample::default().avg_latency(), 0.0);
    }

    #[test]
    fn merge_sums() {
        let mut a = sample_fb();
        let b = sample_fb();
        a.merge(&b);
        let f = a.func("main").expect("main");
        assert_eq!(f.entry_count, 2);
        assert_eq!(f.edges[&(0, 1)], 200);
        assert_eq!(f.samples[&(1, 3)].misses, 8);
    }

    #[test]
    fn text_roundtrip() {
        let fb = sample_fb();
        let text = fb.to_text();
        let back = Feedback::from_text(&text).expect("parse");
        assert_eq!(fb, back);
    }

    #[test]
    fn parse_errors() {
        assert!(Feedback::from_text("edge 0 1 2").is_err()); // before func
        assert!(Feedback::from_text("bogus").is_err());
        assert!(Feedback::from_text("func f entry=x").is_err());
        let e = Feedback::from_text("func f entry=1\nedge 1 2").expect_err("bad edge");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn merge_disjoint_functions() {
        let mut a = sample_fb();
        let mut b = Feedback::new(97);
        b.func_mut("other").entry_count = 5;
        a.merge(&b);
        assert_eq!(a.funcs.len(), 2);
        assert_eq!(a.func("other").expect("other").entry_count, 5);
    }
}
