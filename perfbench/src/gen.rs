//! Seeded input generation. The program under test only ever sees what
//! this module builds from `--seed`.
//!
//! Sizes are drawn *stratified*: `n` draws over a range take one uniform
//! value from each of `n` equal-width strata, then shuffle. The seed still
//! decides every size and the order, but the total work of a run (and its
//! latency quantiles) stays nearly the same from seed to seed, so the
//! spread the benchmark reports is run-to-run noise, not input luck.

use slo_ir::printer::print_program;
use slo_ir::Program;
use slo_service::pool::par_map_bounded;
use slo_workloads::art::{self, ArtConfig};
use slo_workloads::census::{self, CensusSpec};
use slo_workloads::mcf::{self, McfConfig};
use slo_workloads::moldyn::{self, MoldynConfig};
use std::collections::HashSet;

/// SplitMix64: tiny, seedable, and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per (seed, purpose) pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// `n` values in `[lo, hi)`, one uniform draw per equal-width stratum,
/// in stratum order.
fn strata(rng: &mut Rng, n: usize, lo: i64, hi: i64) -> Vec<i64> {
    let width = (hi - lo) as f64 / n.max(1) as f64;
    (0..n)
        .map(|i| lo + ((i as f64 + rng.unit()) * width) as i64)
        .collect()
}

/// The three Table 3 models that the optimizer really transforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Mcf,
    Art,
    Moldyn,
}

impl Model {
    pub fn name(self) -> &'static str {
        match self {
            Model::Mcf => "mcf",
            Model::Art => "art",
            Model::Moldyn => "moldyn",
        }
    }

    /// The model at size `n` (the one size knob each model has);
    /// iteration counts are fixed so an item's cost grows with `n`.
    pub fn build(self, n: i64) -> Program {
        match self {
            Model::Mcf => mcf::build_config(McfConfig {
                n,
                iters: 8,
                skew: 0,
            }),
            Model::Art => art::build_config(ArtConfig { n, passes: 3 }),
            Model::Moldyn => moldyn::build_config(MoldynConfig {
                n,
                steps: 2,
                neighbors: 6,
            }),
        }
    }

    /// Size range drawn per item: small enough that an item takes tens
    /// of milliseconds, large enough that the working set (70-250 KB)
    /// spills the simulated 16 KB L1.
    fn size_range(self) -> (i64, i64) {
        match self {
            Model::Mcf => (1_000, 2_000),
            Model::Art => (1_500, 3_300),
            Model::Moldyn => (600, 1_400),
        }
    }
}

/// One paper-sim item: a Table 3 configuration at a seeded size.
#[derive(Debug, Clone)]
pub struct SimItem {
    pub model: Model,
    pub pbo: bool,
    pub n: i64,
}

impl SimItem {
    /// The wire name of the item's weighting scheme.
    pub fn scheme(&self) -> &'static str {
        if self.pbo {
            "pbo"
        } else {
            "ispbo"
        }
    }

    pub fn label(&self) -> String {
        format!("{}-{}-n{}", self.model.name(), self.scheme(), self.n)
    }
}

/// Table 3's model rows: mcf and moldyn with and without PBO, art without.
const SIM_KINDS: [(Model, bool); 5] = [
    (Model::Mcf, false),
    (Model::Art, false),
    (Model::Moldyn, false),
    (Model::Mcf, true),
    (Model::Moldyn, true),
];

/// `count` paper-sim items, round-robin over the Table 3 rows so every
/// slow phase of the host hits every kind of item alike.
pub fn sim_items(seed: u64, count: usize) -> Vec<SimItem> {
    let mut rng = Rng::new(seed, 1);
    let per_kind = count.div_ceil(SIM_KINDS.len());
    let sizes: Vec<Vec<i64>> = SIM_KINDS
        .iter()
        .map(|(m, _)| {
            let (lo, hi) = m.size_range();
            let mut v = strata(&mut rng, per_kind, lo, hi);
            rng.shuffle(&mut v);
            v
        })
        .collect();
    (0..count)
        .map(|i| {
            let k = i % SIM_KINDS.len();
            let (model, pbo) = SIM_KINDS[k];
            SimItem {
                model,
                pbo,
                n: sizes[k][i / SIM_KINDS.len()],
            }
        })
        .collect()
}

/// One wire request of the serve workloads: a generated program (the
/// `.sir` file the line names) plus its scheme and legality mode.
#[derive(Debug, Clone)]
pub struct ServeReq {
    /// File stem; also the job id the server answers with.
    pub name: String,
    pub source: String,
    pub scheme: &'static str,
    pub relax: bool,
}

impl ServeReq {
    /// The wire line (manifest attribute syntax).
    pub fn line(&self) -> String {
        let relax = if self.relax { " relax" } else { "" };
        format!("{}.sir scheme={}{relax}", self.name, self.scheme)
    }
}

/// The batch driver's scheme mix plus a `pbo` and a `relax` share, as in
/// `examples/batch/smoke.txt`.
const SCHEMES: [(&str, bool); 6] = [
    ("ispbo", false),
    ("spbo", false),
    ("ispbo.no", false),
    ("ispbo.w", false),
    ("pbo", false),
    ("ispbo", true),
];

/// Program kinds of the serve mix: mostly census-style programs with
/// many record types (the parse/legality/plan-heavy write path); every
/// fifth request is one of the three models in turn, so split and peel
/// rewrites really happen.
fn serve_kind(i: usize) -> Option<Model> {
    const MODELS: [Model; 3] = [Model::Mcf, Model::Art, Model::Moldyn];
    (i % 5 == 2).then(|| MODELS[(i / 5) % MODELS.len()])
}

/// Table 1's range of record-type counts (ssearch 10 .. povray 275).
const CENSUS_TYPES: (i64, i64) = (10, 276);
/// Census programs come in blocks of this many (see [`Deck`]).
const CENSUS_BLOCK: usize = 16;

/// Endless blocks of (size, scheme) pairs. Each block draws one size per
/// equal-width stratum of `range`, pairs stratum `r` with scheme
/// `r + block number` (mod 6) and shuffles the block, so every block is
/// stratified in size and balanced across schemes whatever the seed.
struct Deck {
    block: usize,
    range: (i64, i64),
    dealt: usize,
    pending: Vec<(i64, (&'static str, bool))>,
}

impl Deck {
    fn new(block: usize, range: (i64, i64)) -> Deck {
        Deck {
            block,
            range,
            dealt: 0,
            pending: Vec::new(),
        }
    }

    fn next(&mut self, rng: &mut Rng) -> (i64, (&'static str, bool)) {
        if self.pending.is_empty() {
            let sizes = strata(rng, self.block, self.range.0, self.range.1);
            self.pending = sizes
                .into_iter()
                .enumerate()
                .map(|(r, size)| (size, SCHEMES[(r + self.dealt) % SCHEMES.len()]))
                .collect();
            rng.shuffle(&mut self.pending);
            self.dealt += 1;
        }
        self.pending
            .pop()
            .expect("a freshly dealt block is not empty")
    }
}

/// `count` serve requests, every one naming a distinct program, so each
/// misses the LRU, the store and the journal. The seeded draws happen in
/// order; building and printing the programs runs on two threads.
pub fn serve_reqs(seed: u64, count: usize) -> Vec<ServeReq> {
    enum Source {
        Census(CensusSpec),
        Model(Model, i64),
    }
    let mut rng = Rng::new(seed, 2);
    let mut census = Deck::new(CENSUS_BLOCK, CENSUS_TYPES);
    let mut models =
        [Model::Mcf, Model::Art, Model::Moldyn].map(|m| Deck::new(SCHEMES.len(), m.size_range()));
    let mut seen_sizes = HashSet::new();
    let drawn: Vec<(String, Source, (&'static str, bool))> = (0..count)
        .map(|i| {
            let name = format!("r{seed:x}x{i}");
            let (source, scheme) = match serve_kind(i) {
                None => {
                    let (types, scheme) = census.next(&mut rng);
                    (Source::Census(census_spec(&mut rng, &name, types)), scheme)
                }
                Some(m) => {
                    let (mut n, scheme) = models[m as usize].next(&mut rng);
                    // distinct sizes make distinct programs
                    while !seen_sizes.insert((m as usize, n)) {
                        n += 1;
                    }
                    (Source::Model(m, n), scheme)
                }
            };
            (name, source, scheme)
        })
        .collect();
    par_map_bounded(2, &drawn, |(name, source, (scheme, relax))| {
        let prog = match source {
            Source::Census(spec) => census::generate(spec, 2),
            Source::Model(m, n) => m.build(*n),
        };
        ServeReq {
            name: name.clone(),
            source: print_program(&prog),
            scheme,
            relax: *relax,
        }
    })
}

/// The census of a program with `types` record types; the record names
/// carry the request name, so no two requests share a program.
fn census_spec(rng: &mut Rng, name: &str, types: i64) -> CensusSpec {
    let types = types as usize;
    let legal = ((types as f64 * (0.05 + 0.2 * rng.unit())) as usize).max(1);
    let relax = legal + ((types - legal) as f64 * (0.2 + 0.6 * rng.unit())) as usize;
    // `CensusSpec` wants a static name; a run generates at most a few
    // thousand of these, so leaking them is harmless.
    CensusSpec {
        name: Box::leak(name.to_string().into_boxed_str()),
        types,
        legal,
        relax,
    }
}

/// Census blocks in serve-warm's hot set: enough programs that the
/// seed's draw of their censuses averages out.
pub const HOT_BLOCKS: usize = 2;

/// `n` seeded draws (pool indices) for serve-warm, skewed: three
/// requests in four go to a hot set, the fourth to the rest of the pool.
/// The hot set is the pool's first `HOT_BLOCKS` blocks of census
/// programs, which [`serve_reqs`] stratifies over Table 1's type range,
/// so its cost is the pool's whatever the seed. Each set is walked in seeded random
/// order, reshuffled per pass, so every member gets an equal share.
pub fn warm_draws(seed: u64, pool: &[ServeReq], n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 5);
    let hot: Vec<usize> = (0..pool.len())
        .filter(|&i| serve_kind(i).is_none())
        .take(HOT_BLOCKS * CENSUS_BLOCK)
        .collect();
    let rest: Vec<usize> = (0..pool.len()).filter(|i| !hot.contains(i)).collect();
    let mut walks = [Walk::new(hot), Walk::new(rest)];
    (0..n)
        .map(|k| walks[usize::from(k % 4 == 3)].next(&mut rng))
        .collect()
}

/// Endless passes over a set, each pass in a fresh random order.
struct Walk {
    order: Vec<usize>,
    pos: usize,
}

impl Walk {
    fn new(order: Vec<usize>) -> Walk {
        let pos = order.len();
        Walk { order, pos }
    }

    fn next(&mut self, rng: &mut Rng) -> usize {
        if self.pos == self.order.len() {
            rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

/// The first `count` paper-sim items as wire requests (the traced mode
/// feeds them through the serve layers too).
pub fn sim_reqs(seed: u64, count: usize) -> Vec<ServeReq> {
    sim_items(seed, count)
        .iter()
        .enumerate()
        .map(|(i, it)| ServeReq {
            name: format!("p{seed:x}x{i}"),
            source: print_program(&it.model.build(it.n)),
            scheme: it.scheme(),
            relax: false,
        })
        .collect()
}
