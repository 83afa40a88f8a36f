//! The keyed kernel + solution cache behind `parvc serve`.
//!
//! Repeat traffic is the serving tier's common case: the same instance
//! arrives again (same file, same generator spec, or the same graph
//! reached by an edit stream) and the exact optimum is already known.
//! The cache keys on **instance content**, not on how the instance was
//! named: [`CsrGraph::content_hash`] digests the canonical CSR arrays,
//! so `LOAD a graphs/x.dimacs` and `LOAD b gnp:200:0.05@7` share one
//! entry whenever they describe the same graph. The objective is part
//! of the key — a cardinality optimum is not a weighted optimum — so a
//! key is `(content hash, objective)`.
//!
//! Eviction is LRU over a fixed entry capacity. The cache persists to
//! one JSON file (the same serde-free subset the bench baselines use)
//! and reloads on startup, so a restarted server answers yesterday's
//! traffic from disk. Entries store the cover, its objective value,
//! and the tree-node count the original miss paid — the value the
//! operator sees amortized away on every subsequent hit.
//!
//! [`CsrGraph::content_hash`]: parvc_graph::CsrGraph::content_hash

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};

use parvc_bench::json::{self, obj, Value};

/// The objective a cached cover optimizes. Cardinality and weighted
/// optima for the same structure are distinct cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Objective {
    /// Minimum cardinality (plain MVC).
    Cardinality,
    /// Minimum total vertex weight.
    Weighted,
}

impl Objective {
    fn tag(self) -> &'static str {
        match self {
            Objective::Cardinality => "mvc",
            Objective::Weighted => "wmvc",
        }
    }
}

/// A cache key: instance content hash plus objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// [`CsrGraph::content_hash`](parvc_graph::CsrGraph::content_hash)
    /// of the instance.
    pub hash: u64,
    /// The objective the cover optimizes.
    pub objective: Objective,
}

impl CacheKey {
    /// The key's stable string form, used in the persistence file.
    pub fn to_token(self) -> String {
        format!("{:016x}:{}", self.hash, self.objective.tag())
    }

    fn parse(token: &str) -> Option<CacheKey> {
        let (hash, tag) = token.split_once(':')?;
        let hash = u64::from_str_radix(hash, 16).ok()?;
        let objective = match tag {
            "mvc" => Objective::Cardinality,
            "wmvc" => Objective::Weighted,
            _ => return None,
        };
        Some(CacheKey { hash, objective })
    }
}

/// A cached optimum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// The optimal cover, exactly as the original solve returned it.
    /// Hits reproduce this vector bit for bit.
    pub cover: Vec<u32>,
    /// The objective value: cover size (cardinality) or cover weight.
    pub cost: u64,
    /// Search-tree nodes the original (missing) solve visited — the
    /// work every subsequent hit avoids.
    pub tree_nodes: u64,
}

/// LRU result cache with optional disk persistence.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    map: BTreeMap<CacheKey, CacheEntry>,
    /// Recency order, oldest first. Capacity is small (hundreds), so
    /// the O(len) reorder on hit is noise next to the solve it avoids.
    order: VecDeque<CacheKey>,
    path: Option<PathBuf>,
    hits: u64,
    misses: u64,
    evictions: u64,
    persist_failures: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            map: BTreeMap::new(),
            order: VecDeque::new(),
            path: None,
            hits: 0,
            misses: 0,
            evictions: 0,
            persist_failures: 0,
        }
    }

    /// A cache persisted at `path`: loads the file if it exists (a
    /// missing or malformed file starts empty — the cache is an
    /// optimization, never a correctness dependency) and rewrites it
    /// on every mutation.
    pub fn persisted(capacity: usize, path: &Path) -> Self {
        let mut cache = ResultCache::new(capacity);
        cache.path = Some(path.to_path_buf());
        if let Ok(text) = std::fs::read_to_string(path) {
            cache.absorb_json(&text);
        }
        cache
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count (lookups that found nothing).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime LRU evictions (capacity pressure only; [`clear`]
    /// does not count).
    ///
    /// [`clear`]: ResultCache::clear
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Lifetime count of persistence writes that failed (the cache
    /// file was left as it was).
    pub fn persist_failures(&self) -> u64 {
        self.persist_failures
    }

    /// Looks up `key`, counting a hit or miss and refreshing recency.
    pub fn lookup(&mut self, key: CacheKey) -> Option<CacheEntry> {
        match self.map.get(&key) {
            Some(entry) => {
                self.hits += 1;
                let entry = entry.clone();
                self.touch(key);
                Some(entry)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently
    /// used entry when over capacity, then persists if configured.
    pub fn insert(&mut self, key: CacheKey, entry: CacheEntry) {
        if self.map.insert(key, entry).is_none() {
            self.order.push_back(key);
        } else {
            self.touch(key);
        }
        while self.map.len() > self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.persist();
    }

    /// Drops every entry (the `EVICT --cache` verb). Returns how many
    /// were dropped.
    pub fn clear(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        self.order.clear();
        self.persist();
        n
    }

    fn touch(&mut self, key: CacheKey) {
        if let Some(pos) = self.order.iter().position(|k| *k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key);
    }

    /// The persistence document: schema tag + entries in recency order
    /// (oldest first, so a reload rebuilds the same LRU order).
    pub fn to_json(&self) -> Value {
        let entries = self
            .order
            .iter()
            .filter_map(|k| self.map.get(k).map(|e| (k, e)))
            .map(|(k, e)| {
                obj(vec![
                    ("key", Value::Str(k.to_token())),
                    ("cost", Value::Num(e.cost)),
                    ("tree_nodes", Value::Num(e.tree_nodes)),
                    (
                        "cover",
                        Value::Arr(e.cover.iter().map(|&v| Value::Num(u64::from(v))).collect()),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("schema", Value::Num(1)),
            ("kind", Value::Str("parvc-serve-cache".into())),
            ("entries", Value::Arr(entries)),
        ])
    }

    fn absorb_json(&mut self, text: &str) {
        let Ok(doc) = json::parse(text) else { return };
        if doc.get("kind").and_then(Value::str) != Some("parvc-serve-cache") {
            return;
        }
        let Some(entries) = doc.get("entries").and_then(Value::arr) else {
            return;
        };
        for item in entries {
            let Some(key) = item
                .get("key")
                .and_then(Value::str)
                .and_then(CacheKey::parse)
            else {
                continue;
            };
            let (Some(cost), Some(tree_nodes), Some(cover)) = (
                item.get("cost").and_then(Value::num),
                item.get("tree_nodes").and_then(Value::num),
                item.get("cover").and_then(Value::arr),
            ) else {
                continue;
            };
            let cover: Vec<u32> = cover
                .iter()
                .filter_map(Value::num)
                .map(|v| v as u32)
                .collect();
            if self
                .map
                .insert(
                    key,
                    CacheEntry {
                        cover,
                        cost,
                        tree_nodes,
                    },
                )
                .is_none()
            {
                self.order.push_back(key);
            }
        }
        while self.map.len() > self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
    }

    /// Rewrites the cache file: the document goes to `<path>.tmp`,
    /// reaches the disk, and is renamed over `<path>`, so a crash
    /// mid-write leaves the previous file whole. Best-effort: a failed
    /// write is counted and degrades to an in-memory cache rather than
    /// failing the request that solved.
    fn persist(&mut self) {
        let Some(path) = &self.path else { return };
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let written = std::fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(self.to_json().to_pretty().as_bytes())?;
                f.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, path));
        if written.is_err() {
            self.persist_failures += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(hash: u64) -> CacheKey {
        CacheKey {
            hash,
            objective: Objective::Cardinality,
        }
    }

    fn entry(tag: u64) -> CacheEntry {
        CacheEntry {
            cover: vec![tag as u32, tag as u32 + 1],
            cost: tag,
            tree_nodes: 10 * tag,
        }
    }

    #[test]
    fn lru_evicts_oldest_and_counts() {
        let mut c = ResultCache::new(2);
        c.insert(key(1), entry(1));
        c.insert(key(2), entry(2));
        assert_eq!(c.lookup(key(1)), Some(entry(1)), "hit refreshes recency");
        c.insert(key(3), entry(3)); // evicts key(2), the LRU
        assert_eq!(c.lookup(key(2)), None);
        assert_eq!(c.lookup(key(1)), Some(entry(1)));
        assert_eq!(c.lookup(key(3)), Some(entry(3)));
        assert_eq!((c.hits(), c.misses(), c.evictions()), (3, 1, 1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.clear(), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn objective_separates_entries() {
        let mut c = ResultCache::new(8);
        let w = CacheKey {
            hash: 7,
            objective: Objective::Weighted,
        };
        c.insert(key(7), entry(1));
        c.insert(w, entry(2));
        assert_eq!(c.lookup(key(7)), Some(entry(1)));
        assert_eq!(c.lookup(w), Some(entry(2)));
    }

    #[test]
    fn key_token_round_trips() {
        for k in [
            key(0),
            key(u64::MAX),
            CacheKey {
                hash: 42,
                objective: Objective::Weighted,
            },
        ] {
            assert_eq!(CacheKey::parse(&k.to_token()), Some(k));
        }
        assert_eq!(CacheKey::parse("zz:mvc"), None);
        assert_eq!(CacheKey::parse("0:pvc"), None);
        assert_eq!(CacheKey::parse("no-colon"), None);
    }

    #[test]
    fn json_round_trips_with_order() {
        let mut c = ResultCache::new(4);
        c.insert(key(1), entry(1));
        c.insert(key(2), entry(2));
        c.lookup(key(1)); // key(2) is now the LRU
        let text = c.to_json().to_pretty();
        let mut back = ResultCache::new(4);
        back.absorb_json(&text);
        // Order survived: key(2) is the reloaded LRU, so filling the
        // cache evicts it first while key(1) stays resident.
        back.insert(key(3), entry(3));
        back.insert(key(4), entry(4));
        back.insert(key(5), entry(5));
        assert_eq!(back.lookup(key(2)), None, "reloaded LRU evicted first");
        assert_eq!(back.lookup(key(1)), Some(entry(1)));
    }

    #[test]
    fn malformed_persistence_starts_empty() {
        let mut c = ResultCache::new(4);
        c.absorb_json("not json at all");
        c.absorb_json("{\"kind\": \"something-else\", \"entries\": []}");
        c.absorb_json("{\"kind\": \"parvc-serve-cache\", \"entries\": [{\"key\": \"junk\"}]}");
        assert!(c.is_empty());
    }
}
