//! Canonical response cache for the serving tier.
//!
//! The daemon's contract is that every body it serves is the exact
//! `to_json()`/`to_csv()` bytes the CLI would print for the same
//! request. That makes rendered responses pure functions of the
//! *canonicalized* request — the parsed [`SweepSpec`]/[`ExploreSpec`]
//! (query keys go through the same `cli.rs` grammar as the CLI
//! flags), the experiment name, and the wire format — so they can be
//! cached and replayed byte-for-byte:
//!
//! * [`sweep_key`] / [`explore_key`] / [`experiment_key`] serialize a
//!   parsed request into canonical key bytes (every axis name and
//!   value in spec order, floats by `to_bits`, budgets by instruction
//!   count — the same platform-stable little-endian builders and
//!   FNV-1a addressing as the PR 8 store keys);
//! * [`ResponseCache`] holds the rendered bodies in a size-bounded
//!   in-memory LRU (logical-clock recency, no wallclock), with an
//!   optional `resp/` namespace in the [`ResultStore`] as a
//!   persistent second tier (each body a one-record batch file keyed
//!   by the full canonical key, like every other store entry; stale
//!   or corrupt files are silent misses, never a crash).
//!
//! Entries store the full canonical key alongside the body and
//! compare it on every lookup, so an FNV-1a address collision can
//! only cost a miss, never serve the wrong bytes. The byte-identity
//! invariant — a cached response equals a fresh render — is pinned by
//! tests here and in `tests/store_serve.rs`.

use crate::explore::ExploreSpec;
use crate::harness::Budget;
use crate::scenario::{lock_unpoisoned, SweepSpec};
use crate::store::ResultStore;
use fuleak_core::codec::{put_bytes, put_u32, put_u64, put_u8};
use fuleak_core::fxhash::FxHashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Route tags keep sweep/explore/experiment keys disjoint even if
/// their parameter serializations were ever to coincide.
const TAG_SWEEP: u8 = 1;
const TAG_EXPLORE: u8 = 2;
const TAG_EXPERIMENT: u8 = 3;

/// Wire formats a response can be cached under, tagged into the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFormat {
    /// `ResultTable::to_json` bytes.
    Json,
    /// `ResultTable::to_csv` bytes.
    Csv,
}

impl BodyFormat {
    fn tag(self) -> u8 {
        match self {
            BodyFormat::Json => 1,
            BodyFormat::Csv => 2,
        }
    }
}

fn put_budget(out: &mut Vec<u8>, budget: Budget) {
    // Instruction count only, like the store's sim keys: `--quick`
    // and `--budget 500000` render identical bytes, so they must
    // share an entry.
    put_u64(out, budget.instructions());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Canonical key bytes for a parsed sweep request.
pub fn sweep_key(spec: &SweepSpec, format: BodyFormat) -> Vec<u8> {
    let mut key = Vec::new();
    put_u8(&mut key, TAG_SWEEP);
    put_u8(&mut key, format.tag());
    put_budget(&mut key, spec.budget());
    put_u64(&mut key, spec.bench_names().len() as u64);
    for bench in spec.bench_names() {
        put_bytes(&mut key, bench.as_bytes());
    }
    put_u64(&mut key, spec.axes().len() as u64);
    for axis in spec.axes() {
        put_bytes(&mut key, axis.name.as_bytes());
        put_u64(&mut key, axis.values.len() as u64);
        for &v in &axis.values {
            put_u64(&mut key, v);
        }
    }
    // Evaluation axes multiply result rows, so they are part of the
    // rendered bytes; serialize the expanded, deduplicated point list
    // the table generator iterates.
    put_u8(&mut key, u8::from(spec.has_eval_axes()));
    if spec.has_eval_axes() {
        let points = spec.eval_points();
        put_u64(&mut key, points.len() as u64);
        for p in points {
            put_bytes(&mut key, p.policy.name().as_bytes());
            match p.slices {
                Some(n) => {
                    put_u8(&mut key, 1);
                    put_u32(&mut key, n);
                }
                None => put_u8(&mut key, 0),
            }
            put_f64(&mut key, p.leak);
            put_f64(&mut key, p.transition);
        }
    }
    key
}

/// Canonical key bytes for a parsed explore request.
pub fn explore_key(spec: &ExploreSpec, format: BodyFormat) -> Vec<u8> {
    let mut key = Vec::new();
    put_u8(&mut key, TAG_EXPLORE);
    put_u8(&mut key, format.tag());
    put_budget(&mut key, spec.budget());
    put_u64(&mut key, spec.bench_names().len() as u64);
    for bench in spec.bench_names() {
        put_bytes(&mut key, bench.as_bytes());
    }
    put_u64(&mut key, spec.policy_kinds().len() as u64);
    for kind in spec.policy_kinds() {
        put_bytes(&mut key, kind.name().as_bytes());
    }
    put_u64(&mut key, spec.slice_counts().len() as u64);
    for &n in spec.slice_counts() {
        put_u32(&mut key, n);
    }
    put_u64(&mut key, spec.leak_values().len() as u64);
    for &p in spec.leak_values() {
        put_f64(&mut key, p);
    }
    put_u64(&mut key, spec.transition_values().len() as u64);
    for &c in spec.transition_values() {
        put_f64(&mut key, c);
    }
    key
}

/// Canonical key bytes for a registry-experiment request.
pub fn experiment_key(name: &str, budget: Budget, format: BodyFormat) -> Vec<u8> {
    let mut key = Vec::new();
    put_u8(&mut key, TAG_EXPERIMENT);
    put_u8(&mut key, format.tag());
    put_budget(&mut key, budget);
    put_bytes(&mut key, name.as_bytes());
    key
}

/// One cached body: the full canonical key (compared on every lookup,
/// so address collisions cost a miss instead of serving wrong bytes),
/// the rendered bytes, and a logical-clock recency stamp.
#[derive(Debug)]
struct CacheEntry {
    key: Vec<u8>,
    body: Arc<Vec<u8>>,
    stamp: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: FxHashMap<u64, CacheEntry>,
    bytes: usize,
}

/// A size-bounded LRU over rendered response bodies, addressed by
/// FNV-1a of the canonical request key, with an optional persistent
/// second tier in the [`ResultStore`]'s `resp/` namespace.
///
/// Recency is a logical counter bumped per lookup — no wallclock —
/// and eviction drops least-recently-used entries until the byte
/// budget holds. All methods take `&self`; one cache serves every
/// server worker.
#[derive(Debug)]
pub struct ResponseCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    store: Mutex<Option<Arc<ResultStore>>>,
}

impl ResponseCache {
    /// Creates a cache bounded to `capacity` total body bytes.
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            inner: Mutex::new(CacheInner::default()),
            capacity,
            clock: AtomicU64::new(0),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            store: Mutex::new(None),
        }
    }

    /// Attaches (or detaches) the persistent tier. Memory stays
    /// authoritative; the store is consulted on memory misses and
    /// populated behind inserts.
    pub fn set_store(&self, store: Option<Arc<ResultStore>>) {
        *lock_unpoisoned(&self.store) = store;
    }

    /// The cached body for a canonical key, consulting memory first
    /// and then the persistent tier (a disk hit re-seeds memory).
    pub fn get(&self, key: &[u8]) -> Option<Arc<Vec<u8>>> {
        let addr = fuleak_core::codec::fnv1a(key);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut inner = lock_unpoisoned(&self.inner);
            if let Some(entry) = inner.map.get_mut(&addr) {
                if entry.key == key {
                    entry.stamp = stamp;
                    let body = Arc::clone(&entry.body);
                    drop(inner);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(body);
                }
            }
        }
        let disk = lock_unpoisoned(&self.store).clone();
        if let Some(body) = disk.as_ref().and_then(|st| st.load_response(key)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(self.insert(key, body));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Caches a freshly rendered body under its canonical key,
    /// writing through to the persistent tier if attached. Returns
    /// the shared copy to serve from.
    pub fn put(&self, key: &[u8], body: Vec<u8>) -> Arc<Vec<u8>> {
        if let Some(st) = lock_unpoisoned(&self.store).clone() {
            st.save_response(key, &body);
        }
        self.insert(key, body)
    }

    fn insert(&self, key: &[u8], mut body: Vec<u8>) -> Arc<Vec<u8>> {
        if body.len() > self.capacity {
            // Larger than the whole budget: serve it, don't cache it.
            return Arc::new(body);
        }
        // The budget charges `len()`, so a render's spare capacity
        // would stay resident uncharged: keep exactly the bytes.
        body.shrink_to_fit();
        let body = Arc::new(body);
        let addr = fuleak_core::codec::fnv1a(key);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(old) = inner.map.remove(&addr) {
            inner.bytes -= old.body.len();
        }
        inner.bytes += body.len();
        inner.map.insert(
            addr,
            CacheEntry {
                key: key.to_vec(),
                body: Arc::clone(&body),
                stamp,
            },
        );
        while inner.bytes > self.capacity {
            // Evict the least-recently-used entry: an O(n) stamp scan,
            // fine at the entry counts a response cache holds (bodies
            // dominate the footprint, not entries).
            let Some((&victim, _)) = inner
                .map
                .iter()
                .filter(|&(&a, _)| a != addr)
                .min_by_key(|(_, e)| e.stamp)
            else {
                break;
            };
            if let Some(old) = inner.map.remove(&victim) {
                inner.bytes -= old.body.len();
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        body
    }

    /// Bodies currently held in memory.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).map.len()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total body bytes currently held in memory.
    pub fn bytes(&self) -> usize {
        lock_unpoisoned(&self.inner).bytes
    }

    /// Lookups served (memory or disk) since construction.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing since construction.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the byte bound since construction.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli;

    fn spec_from_flags(pairs: &[(&str, &str)]) -> SweepSpec {
        let mut spec = SweepSpec::new(Budget::Custom(50_000));
        for (flag, value) in pairs {
            spec = cli::apply_sweep_flag(spec, flag, value).unwrap();
        }
        spec
    }

    #[test]
    fn equal_requests_share_a_key_and_different_ones_do_not() {
        let a = spec_from_flags(&[("--bench", "gzip"), ("--int-fus", "1:2")]);
        let b = spec_from_flags(&[("--bench", "gzip"), ("--int-fus", "1,2")]);
        assert_eq!(
            sweep_key(&a, BodyFormat::Json),
            sweep_key(&b, BodyFormat::Json),
            "range and list spellings canonicalize identically"
        );
        let c = spec_from_flags(&[("--bench", "gzip"), ("--int-fus", "1:3")]);
        assert_ne!(
            sweep_key(&a, BodyFormat::Json),
            sweep_key(&c, BodyFormat::Json)
        );
        assert_ne!(
            sweep_key(&a, BodyFormat::Json),
            sweep_key(&a, BodyFormat::Csv),
            "format is part of the key"
        );
        let quick = SweepSpec::new(Budget::Quick);
        let custom = SweepSpec::new(Budget::Custom(500_000));
        assert_eq!(
            sweep_key(&quick, BodyFormat::Json),
            sweep_key(&custom, BodyFormat::Json),
            "budgets alias by instruction count, like store keys"
        );
    }

    #[test]
    fn route_and_parameter_tags_keep_keys_disjoint() {
        let sweep = SweepSpec::new(Budget::Quick);
        let explore = ExploreSpec::new(Budget::Quick);
        assert_ne!(
            sweep_key(&sweep, BodyFormat::Json),
            explore_key(&explore, BodyFormat::Json)
        );
        assert_ne!(
            experiment_key("table3", Budget::Quick, BodyFormat::Json),
            experiment_key("figure7", Budget::Quick, BodyFormat::Json)
        );
    }

    #[test]
    fn cache_round_trips_exact_bytes() {
        let cache = ResponseCache::new(1 << 20);
        let key = experiment_key("table3", Budget::Quick, BodyFormat::Json);
        assert!(cache.get(&key).is_none());
        let body = b"{\"rows\": []}\n".to_vec();
        let served = cache.put(&key, body.clone());
        assert_eq!(*served, body);
        let again = cache.get(&key).expect("cached");
        assert_eq!(*again, body, "cached bytes must be identical");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn stored_bodies_keep_no_spare_capacity() {
        let cache = ResponseCache::new(1 << 20);
        let key = experiment_key("table3", Budget::Quick, BodyFormat::Json);
        let mut body = Vec::with_capacity(4096);
        body.extend_from_slice(&[7; 1024]);
        assert_eq!(body.capacity(), 4 * body.len());
        let served = cache.put(&key, body);
        assert_eq!(served.capacity(), served.len());
        let stored = cache.get(&key).expect("cached");
        assert!(Arc::ptr_eq(&served, &stored));
        assert_eq!(stored.capacity(), 1024);
        assert_eq!(cache.bytes(), 1024);
    }

    #[test]
    fn lru_eviction_respects_the_byte_bound_and_recency() {
        let cache = ResponseCache::new(10);
        let ka = experiment_key("a", Budget::Quick, BodyFormat::Json);
        let kb = experiment_key("b", Budget::Quick, BodyFormat::Json);
        let kc = experiment_key("c", Budget::Quick, BodyFormat::Json);
        cache.put(&ka, vec![1; 4]);
        cache.put(&kb, vec![2; 4]);
        assert!(cache.get(&ka).is_some(), "touch A so B is the LRU");
        cache.put(&kc, vec![3; 4]);
        assert!(cache.bytes() <= 10);
        assert!(cache.get(&kb).is_none(), "B was least recently used");
        assert!(cache.get(&ka).is_some());
        assert!(cache.get(&kc).is_some());
        assert_eq!(cache.evictions(), 1);
        // A body larger than the whole budget is served, not cached.
        let big = cache.put(&ka, vec![9; 64]);
        assert_eq!(big.len(), 64);
        assert!(cache.bytes() <= 10);
    }

    #[test]
    fn disk_tier_survives_a_fresh_memory_cache() {
        let dir = std::env::temp_dir().join(format!(
            "fuleak-respcache-test-{}-{:x}",
            std::process::id(),
            fuleak_core::codec::fnv1a(b"disk_tier_survives")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let key = experiment_key("table3", Budget::Quick, BodyFormat::Csv);
        let body = b"a,b\n1,2\n".to_vec();
        {
            let cache = ResponseCache::new(1 << 20);
            cache.set_store(Some(Arc::clone(&store)));
            cache.put(&key, body.clone());
        }
        let fresh = ResponseCache::new(1 << 20);
        fresh.set_store(Some(Arc::clone(&store)));
        let served = fresh.get(&key).expect("disk tier answers");
        assert_eq!(*served, body);
        assert_eq!(fresh.len(), 1, "disk hit re-seeds memory");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
