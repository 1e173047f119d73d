//! Property test: the cache simulator's move-to-front sets are exact
//! LRU. Random access streams run through [`CacheSim`] and through a
//! reference model that keeps an LRU timestamp per way and evicts the
//! first invalid way or else the oldest stamp. Every [`AccessResult`]
//! and the final [`CacheStats`] must be equal.

use proptest::prelude::*;
use slo_vm::{AccessResult, CacheConfig, CacheLevelConfig, CacheSim, CacheStats};

/// One level of the reference model: tags plus parallel LRU stamps.
struct StampLevel {
    cfg: CacheLevelConfig,
    sets: u64,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    tick: u64,
}

impl StampLevel {
    fn new(cfg: CacheLevelConfig) -> Self {
        let sets = (cfg.size / (cfg.line * cfg.assoc)).max(1);
        let ways = (sets * cfg.assoc) as usize;
        StampLevel {
            cfg,
            sets,
            tags: vec![u64::MAX; ways],
            stamps: vec![0; ways],
            tick: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let block = addr >> self.cfg.line.trailing_zeros();
        let assoc = self.cfg.assoc as usize;
        let base = (block & (self.sets - 1)) as usize * assoc;
        if let Some(w) = (0..assoc).find(|&w| self.tags[base + w] == block) {
            self.stamps[base + w] = self.tick;
            return true;
        }
        let victim = (0..assoc)
            .find(|&w| self.tags[base + w] == u64::MAX)
            .unwrap_or_else(|| {
                (0..assoc)
                    .min_by_key(|&w| self.stamps[base + w])
                    .expect("assoc >= 1")
            });
        self.tags[base + victim] = block;
        self.stamps[base + victim] = self.tick;
        false
    }

    fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
    }
}

/// The reference hierarchy, with the same charging rules as `CacheSim`.
struct StampSim {
    cfg: CacheConfig,
    levels: Vec<StampLevel>,
    stats: CacheStats,
}

impl StampSim {
    fn new(cfg: CacheConfig) -> Self {
        let levels = cfg.levels.iter().copied().map(StampLevel::new).collect();
        let stats = CacheStats {
            levels: vec![Default::default(); cfg.levels.len()],
            ..CacheStats::default()
        };
        StampSim { cfg, levels, stats }
    }

    fn access(&mut self, addr: u64, fp: bool) -> AccessResult {
        self.stats.accesses += 1;
        let first = if fp {
            self.cfg.fp_first_level.min(self.levels.len())
        } else {
            0
        };
        let mut first_level_miss = false;
        for i in first..self.levels.len() {
            if self.levels[i].access(addr) {
                self.stats.levels[i].hits += 1;
                return AccessResult {
                    latency: self.cfg.levels[i].latency,
                    first_level_miss,
                    served_by: i,
                };
            }
            self.stats.levels[i].misses += 1;
            first_level_miss |= i == first;
        }
        self.stats.memory_accesses += 1;
        if self.cfg.next_line_prefetch {
            let line = self.cfg.levels.first().map_or(64, |l| l.line);
            let next = addr.wrapping_add(line) & !(line - 1);
            for l in &mut self.levels {
                l.access(next);
            }
            self.stats.prefetches += 1;
        }
        AccessResult {
            latency: self.cfg.memory_latency,
            first_level_miss,
            served_by: self.levels.len(),
        }
    }

    fn flush(&mut self) {
        self.levels.iter_mut().for_each(StampLevel::flush);
    }
}

/// 2 sets x 2 ways of 64 B lines in front of a 4-way 1 KB level.
fn tiny(next_line_prefetch: bool) -> CacheConfig {
    CacheConfig {
        levels: vec![
            CacheLevelConfig {
                size: 256,
                line: 64,
                assoc: 2,
                latency: 1,
            },
            CacheLevelConfig {
                size: 1024,
                line: 64,
                assoc: 4,
                latency: 10,
            },
        ],
        memory_latency: 100,
        fp_first_level: 1,
        next_line_prefetch,
    }
}

fn geometries() -> Vec<(&'static str, CacheConfig)> {
    let default_pf = CacheConfig {
        next_line_prefetch: true,
        ..CacheConfig::default()
    };
    vec![
        ("default", CacheConfig::default()),
        ("default+prefetch", default_pf),
        ("tiny", tiny(false)),
        ("tiny+prefetch", tiny(true)),
    ]
}

/// Address spans the stream draws from: inside one tiny set, around
/// L1, around L2 and around L3 of the default geometry.
const SPANS: [u64; 4] = [512, 32 << 10, 1 << 20, 16 << 20];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn move_to_front_sets_match_stamp_lru(
        ops in prop::collection::vec((0u32..33, any::<u64>(), any::<bool>()), 1..3000),
    ) {
        for (name, cfg) in geometries() {
            let mut sim = CacheSim::new(cfg.clone());
            let mut reference = StampSim::new(cfg);
            for (i, &(sel, raw, fp)) in ops.iter().enumerate() {
                if sel == 32 {
                    sim.flush();
                    reference.flush();
                    continue;
                }
                let addr = 0x1000 + raw % SPANS[(sel % 4) as usize];
                let got = sim.access(addr, fp);
                let want = reference.access(addr, fp);
                prop_assert_eq!(got, want, "{}: access {} at 0x{:x} fp={}", name, i, addr, fp);
            }
            prop_assert_eq!(sim.stats(), &reference.stats, "{}: final stats", name);
        }
    }
}
