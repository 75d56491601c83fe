//! The sharded keyed store proper: batched ingest, tiered residency on
//! the shared residency ladder (`tiers.rs`), and per-key / merged
//! estimation.

use crate::core::{by_shard, Keyed, KeyedCore, Run};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::tiers::{Entry, Ladder, Rung, View};
use crate::tiers::{Tier, TierConfig, TierStats};
use exaloglog::adaptive::AdaptiveExaLogLog;
use exaloglog::compress::{check_header, compress, decompress};
use exaloglog::{EllConfig, EllError, ExaLogLog};

/// One keyed counter on the residency ladder: a resident sketch, sparse
/// or dense, boxed so the entry's inline size — paid by *every* slot,
/// cold ones included — stays small.
pub(crate) type Slot = Entry<Box<AdaptiveExaLogLog>>;

/// The flat store's per-key work on the ladder. Sessions park runs on a
/// demoted slot in one pending sketch.
impl Rung for Box<AdaptiveExaLogLog> {
    type Parked = Box<AdaptiveExaLogLog>;
    type Ctx = ();

    /// Entropy-coded (`compress`) once dense, canonical `ELLS` while
    /// sparse (both self-describing by magic).
    fn encode(&self, (): ()) -> Box<[u8]> {
        match self.as_dense() {
            Some(dense) => compress(dense),
            None => self.to_bytes(),
        }
        .into_boxed_slice()
    }

    /// Decompresses what [`check_header`] calls a compressed sketch and
    /// reads anything else as `ELLS`, then folds in the pending sketch.
    /// Monotone merge makes the result bit-identical to a slot that was
    /// never demoted.
    fn decode(bytes: &[u8], parked: Option<&Self::Parked>, (): ()) -> Self {
        let mut sketch = if check_header(bytes).is_ok() {
            AdaptiveExaLogLog::from_dense(
                decompress(bytes).expect("warm payloads are produced by this store"),
            )
        } else {
            AdaptiveExaLogLog::from_bytes(bytes).expect("warm payloads are produced by this store")
        };
        if let Some(delta) = parked {
            sketch
                .merge_from(delta)
                .expect("parked deltas share the store configuration");
        }
        Box::new(sketch)
    }

    fn heap_bytes(&self) -> usize {
        self.memory_bytes()
    }

    fn parked_bytes(parked: &Self::Parked) -> usize {
        parked.memory_bytes()
    }

    fn tier(&self) -> Tier {
        if self.is_sparse() {
            Tier::Sparse
        } else {
            Tier::Hot
        }
    }
}

/// A sharded, thread-safe map from string keys to adaptive sketches.
///
/// See the crate docs for the architecture; all ingest/query methods
/// take `&self`, so a store can be shared across ingest threads behind
/// an `Arc` (or plain scoped-thread borrows). Tiered residency (see
/// [`TierConfig`]) is configured once, before sharing, via
/// [`EllStore::set_tier_config`].
#[derive(Debug)]
pub struct EllStore {
    cfg: EllConfig,
    /// Token parameter used for newly created (sparse) keys.
    v: u32,
    /// Shard maps of slots.
    core: KeyedCore<Slot>,
    /// The access clock driving demotion decisions; advanced by
    /// [`EllStore::tick`], stamped into each slot on access.
    clock: AtomicU64,
    ladder: Ladder,
}

impl EllStore {
    /// Creates an empty store with `shards` shards (a power of two) and
    /// the given per-key sketch configuration, using the default token
    /// parameter `v = max(p + t, 26)`.
    ///
    /// # Errors
    ///
    /// Rejects a shard count that is zero or not a power of two.
    pub fn new(shards: usize, cfg: EllConfig) -> Result<Self, EllError> {
        let v = (u32::from(cfg.p()) + u32::from(cfg.t())).max(26);
        Self::with_token_parameter(shards, cfg, v)
    }

    /// Creates an empty store with an explicit token parameter for the
    /// sparse phase of new keys (`p + t ≤ v ≤ 58`).
    ///
    /// # Errors
    ///
    /// Rejects invalid shard counts and token parameters.
    pub fn with_token_parameter(shards: usize, cfg: EllConfig, v: u32) -> Result<Self, EllError> {
        let core = KeyedCore::new(shards)?;
        // Validate v eagerly so every later slot creation is infallible.
        AdaptiveExaLogLog::with_token_parameter(cfg, v)?;
        Ok(EllStore {
            cfg,
            v,
            core,
            clock: AtomicU64::new(0),
            ladder: Ladder::default(),
        })
    }

    /// The per-key sketch configuration.
    #[must_use]
    pub fn config(&self) -> &EllConfig {
        &self.cfg
    }

    /// The token parameter new keys start their sparse phase with.
    #[must_use]
    pub fn token_parameter(&self) -> u32 {
        self.v
    }

    /// The number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.core.shard_count()
    }

    /// Installs the tiered-residency configuration (see [`TierConfig`]
    /// for the lifecycle). Takes `&mut self` — configure tiering before
    /// sharing the store across threads, and before any key has been
    /// demoted cold (changing the spill directory does not move
    /// already-spilled payloads).
    pub fn set_tier_config(&mut self, tiers: TierConfig) {
        self.ladder.configure(tiers);
    }

    /// The active tiered-residency configuration.
    #[must_use]
    pub fn tier_config(&self) -> &TierConfig {
        self.ladder.tiers()
    }

    /// Advances the access clock by one tick and returns the new value.
    /// A "tick" is whatever cadence the caller chooses (a wall-clock
    /// interval, a batch boundary, an epoch) — idle age is measured in
    /// these units.
    pub fn tick(&self) -> u64 {
        self.advance_clock(1)
    }

    /// Advances the access clock by `ticks` at once.
    pub fn advance_clock(&self, ticks: u64) -> u64 {
        // ordering: Relaxed — the access clock is a coarse monotone
        // counter feeding the idle-age heuristic; only the atomicity of
        // the increment matters, never its order against slot data.
        self.clock.fetch_add(ticks, Ordering::Relaxed) + ticks
    }

    /// The current access-clock value.
    #[must_use]
    pub fn clock(&self) -> u64 {
        // ordering: Relaxed — a stale clock read only skews idle ages by
        // a tick; no data is published through the clock.
        self.clock.load(Ordering::Relaxed)
    }

    /// An empty sketch for a new key or a parked pending entry.
    fn new_delta(&self) -> AdaptiveExaLogLog {
        AdaptiveExaLogLog::with_token_parameter(self.cfg, self.v)
            .expect("parameters validated at store construction")
    }

    /// Inserts one `(key, element-hash)` observation (a direct
    /// single-shard path; use [`EllStore::ingest`] for batches).
    pub fn insert(&self, key: &str, hash: u64) {
        let (shard, key_hash) = self.core.locate(key);
        let run = Run {
            shard,
            key_hash,
            key,
            tag: (),
            hashes: &[hash],
        };
        self.ingest_shard(shard, &[run]);
    }

    /// Batched ingest: groups the batch into one run per key, ordered
    /// by shard (one probe of a batch-local table per event), so each
    /// key is looked up in its shard table once per batch. Per shard,
    /// every run folds under one write lock through the sketch's batched
    /// `insert_hashes`; a demoted key promotes back first.
    ///
    /// Per-key insertion order follows batch order, and the final state
    /// for any key depends only on the *set* of hashes it received — so
    /// splitting a workload across threads in any way yields the same
    /// store state.
    pub fn ingest(&self, batch: &[(&str, u64)]) {
        let mut hashes = Vec::new();
        let runs = self.core.group((), batch, &mut hashes);
        for (si, group) in by_shard(&runs) {
            self.ingest_shard(si, group);
        }
    }

    /// Folds one shard's runs of a direct ingest, each run being all of
    /// one key's hashes in the batch.
    fn ingest_shard(&self, si: usize, runs: &[Run<'_, ()>]) {
        let now = self.clock();
        let new = || self.new_value(());
        self.core
            .write(si)
            .fold(runs, new, Self::touch, |slot, run| {
                // A direct ingest always promotes a demoted slot — only
                // buffered session flushes park lazily.
                self.ladder.access(slot, now, ()).insert_hashes(run.hashes);
            });
    }

    /// Opens a buffered ingest session: inserts append to a session-local
    /// log, and each flush groups it once and folds every key's run of
    /// hashes straight into its shard slot (see
    /// [`crate::IngestSession`]). One session per ingesting thread is
    /// the intended shape.
    #[must_use]
    pub fn session(&self) -> crate::IngestSession<'_> {
        crate::Session::new(self, ())
    }

    /// Merges a standalone sketch into `key` (creating the key if
    /// absent) — the shard-and-merge shape for folding externally built
    /// sketches into the store. Promotes a demoted target first.
    ///
    /// # Errors
    ///
    /// Fails when the sketch's configuration differs from the store's,
    /// or when it is sparse with another token parameter: every sparse
    /// slot must merge with the deltas the store's sessions create.
    pub fn merge_key(&self, key: &str, sketch: &AdaptiveExaLogLog) -> Result<(), EllError> {
        if sketch.config() != &self.cfg {
            return Err(EllError::IncompatibleSketches {
                reason: format!("store {} vs sketch {}", self.cfg, sketch.config()),
            });
        }
        if let Some(v) = sketch.token_parameter().filter(|&v| v != self.v) {
            return Err(EllError::IncompatibleSketches {
                reason: format!("store token parameter {} vs sketch {v}", self.v),
            });
        }
        let (si, key_hash) = self.core.locate(key);
        let now = self.clock();
        let new = || Entry::new(Box::new(sketch.clone()), now);
        match self.core.write(si).entry(key_hash, key, new) {
            (_, true) => Ok(()),
            (slot, false) => self.ladder.access(slot, now, ()).merge_from(sketch),
        }
    }

    /// Places a restored slot under `key` unless the key is present;
    /// returns whether it was absent. A restored dense sketch keeps the
    /// coefficients its deserialization cached, so its first estimate
    /// costs no register scan, and a restored warm slot keeps its bytes,
    /// so re-snapshotting reuses the identical payload.
    pub(crate) fn place(&self, key: &str, slot: Slot) -> bool {
        self.core.insert(key, slot)
    }

    /// The distinct-count estimate for one key (`None` if the key has
    /// never been observed). Promotes a demoted key back to residency
    /// (per-key queries are accesses; use [`EllStore::estimates`] for
    /// residency-preserving bulk reads).
    #[must_use]
    pub fn estimate(&self, key: &str) -> Option<f64> {
        let (si, key_hash) = self.core.locate(key);
        {
            let table = self.core.read(si);
            let slot = table.get(key_hash, key)?;
            if let Some(sketch) = slot.value() {
                // A stamp under the read lock racing the demote sweep
                // only shifts which sweep tick sees the access; the sweep
                // re-checks residency under the write lock.
                slot.stamp(self.clock());
                return Some(sketch.estimate());
            }
        }
        // Demoted: promote under the write lock, then serve.
        let mut table = self.core.write(si);
        let slot = table.get_mut(key_hash, key)?;
        Some(self.ladder.access(slot, self.clock(), ()).estimate())
    }

    /// Whether `key` is currently dense and resident, i.e. in
    /// [`Tier::Hot`] (`None` if the key is absent).
    #[must_use]
    pub fn is_hot(&self, key: &str) -> Option<bool> {
        self.key_tier(key).map(|t| t == Tier::Hot)
    }

    /// The residency tier `key` currently occupies (`None` if absent).
    /// Does not count as an access.
    #[must_use]
    pub fn key_tier(&self, key: &str) -> Option<Tier> {
        self.core.with(key, Slot::tier)
    }

    /// Demotes every sufficiently idle key one tier down the residency
    /// ladder: resident → warm once idle for `warm_after` ticks, warm →
    /// cold once idle for `cold_after` more (requires a spill
    /// directory). A slot with parked session deltas is settled
    /// (revived and re-encoded) before demoting further, so payloads on
    /// disk always contain every flushed observation. Each shard's cold
    /// payloads go to the segment file in one write; if it fails, they
    /// all stay warm. Returns `(demoted_to_warm, demoted_to_cold)`.
    pub fn demote_idle(&self) -> (usize, usize) {
        self.ladder.demote_idle(&self.core, self.clock(), ())
    }

    /// Promotes every demoted key back to a resident sketch. Returns
    /// the number of promotions. After this, the store is
    /// indistinguishable from one that never tiered (bit-identical
    /// slots and snapshots).
    pub fn promote_all(&self) -> usize {
        self.ladder.promote_all(&self.core, (), |_| true)
    }

    /// Key-sorted `(key, payload)` pairs for snapshotting: resident
    /// slots serialize canonically (`ELLS`/`ELL1`), warm slots embed
    /// their compressed payload verbatim (no dense round trip), cold
    /// slots embed the spill bytes without changing residency. Parked
    /// deltas are settled first (by promoting every slot that holds
    /// some), so serialized payloads include every flushed observation.
    pub(crate) fn snapshot_payloads(&self) -> Vec<(String, Vec<u8>)> {
        self.ladder
            .promote_all(&self.core, (), |slot| slot.parked().is_some());
        self.core.sorted(|slot| match self.ladder.view(slot) {
            View::Live(sketch) => sketch.to_bytes(),
            View::Demoted(bytes, _) => bytes.into_owned(),
        })
    }

    /// Tier occupancy, transition counters, and footprint — the
    /// observability face of the residency layer.
    #[must_use]
    pub fn tier_stats(&self) -> TierStats {
        self.ladder.tier_stats(&self.core, self.memory_bytes())
    }

    /// The `state_entropy_bits` of one key's current state — the
    /// information-theoretic lower bound on its compressed size, for
    /// demotion-threshold tuning. Reads through warm/cold payloads
    /// without promoting. `None` if the key is absent.
    #[must_use]
    pub fn state_entropy_bits(&self, key: &str) -> Option<f64> {
        let dense = self
            .core
            .with(key, |slot| self.ladder.read(slot, (), |s| s.to_dense()))?;
        Some(exaloglog::compress::state_entropy_bits(&dense))
    }

    /// The number of distinct keys in the store.
    #[must_use]
    pub fn key_count(&self) -> usize {
        self.core.key_count()
    }

    /// Whether the store holds no keys at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.key_count() == 0
    }

    /// All keys, sorted (a point-in-time copy).
    #[must_use]
    pub fn keys(&self) -> Vec<String> {
        self.core.keys()
    }

    /// `(key, estimate)` for every key, sorted by key. Reads through
    /// warm/cold payloads without changing their residency.
    #[must_use]
    pub fn estimates(&self) -> Vec<(String, f64)> {
        self.core
            .sorted(|slot| self.ladder.read(slot, (), |s| s.estimate()))
    }

    /// A point-in-time copy of every entry as `(key, sketch)`, sorted by
    /// key (warm/cold slots decode without changing residency).
    #[must_use]
    pub fn entries(&self) -> Vec<(String, AdaptiveExaLogLog)> {
        self.core
            .sorted(|slot| self.ladder.read(slot, (), |s| (**s).clone()))
    }

    /// The union of all per-key sketches as one dense sketch — the
    /// "distinct elements across all keys" aggregate. Streams shard by
    /// shard under the read lock without copying keys and folds every
    /// slot straight into one accumulator: dense slots merge with the
    /// word-level scan that skips empty or identical register runs
    /// wholesale, and sparse slots stream their token hashes through the
    /// batched insert path. Warm/cold slots decode into a scratch sketch
    /// without changing residency.
    #[must_use]
    pub fn merged(&self) -> ExaLogLog {
        let mut acc = ExaLogLog::new(self.cfg);
        self.core.for_each(|_, slot| {
            // Empty or near-empty dense slots cost one word-level zero
            // scan inside merge_from — their all-zero runs are
            // classified as skippable wholesale.
            self.ladder
                .read(slot, (), |s| s.merge_into_dense(&mut acc))
                .expect("per-key sketches share the store configuration");
        });
        acc
    }

    /// The distinct-count estimate over the union of all keys.
    #[must_use]
    pub fn merged_estimate(&self) -> f64 {
        self.merged().estimate()
    }

    /// Deep in-memory footprint in bytes: store scaffolding, shard
    /// tables (every slot, not just occupied ones, with each slot's
    /// inline state), key arenas, and every slot's heap (registers, token vectors,
    /// warm payloads, parked deltas). Cold payloads live on disk and are
    /// *not* counted — see [`TierStats::spilled_bytes`].
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>() + self.core.memory_bytes(Slot::heap_bytes)
    }
}

impl Keyed for EllStore {
    type Value = Slot;
    type Tag = ();
    type Pin = ();

    fn core(&self) -> &KeyedCore<Slot> {
        &self.core
    }

    fn pinned<R>(&self, f: impl FnOnce(()) -> R) -> R {
        f(())
    }

    /// A new key's slot: an empty resident sketch, stamped now.
    fn new_value(&self, (): ()) -> Slot {
        Entry::new(Box::new(self.new_delta()), self.clock())
    }

    /// Reads the sketch a run into `slot` merges into first: the header
    /// and first token of a sparse resident or parked sketch.
    fn touch(slot: &Slot) -> u64 {
        match slot.value().or(slot.parked()).map(|s| &**s) {
            Some(AdaptiveExaLogLog::Sparse { tokens, .. }) => tokens.iter().next().unwrap_or(0),
            _ => 0,
        }
    }

    /// Folds one run of session hashes into its slot through the
    /// resident sketch's batched insert. Demoted slots **park** the hashes in their `pending`
    /// sketch instead of promoting — the session flush path must never
    /// pay a decompress. The result is bit-identical to inserting the
    /// hashes directly because register updates are monotone and
    /// order-free.
    fn merge_run(&self, slot: &mut Slot, run: &Run<'_, ()>, (): ()) {
        match self.ladder.target(slot) {
            Ok(sketch) => sketch.insert_hashes(run.hashes),
            Err(parked) => parked
                .get_or_insert_with(|| Box::new(self.new_delta()))
                .insert_hashes(run.hashes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::{mix64, SplitMix64};
    use std::collections::HashMap;

    fn cfg() -> EllConfig {
        EllConfig::new(2, 16, 6).unwrap()
    }

    #[test]
    fn slot_state_stays_small() {
        // Every slot pays this inline size, cold ones included.
        assert_eq!(Slot::STATE_BYTES, 32);
        // With its key hash and key place, a shard-table entry stays
        // under a cache line's worth of bytes.
        assert_eq!(crate::table::Table::<Slot>::SLOT_BYTES, 56);
    }

    #[test]
    fn rejects_bad_shard_counts() {
        assert!(EllStore::new(0, cfg()).is_err());
        assert!(EllStore::new(3, cfg()).is_err());
        assert!(EllStore::new(1, cfg()).is_ok());
        assert!(EllStore::new(64, cfg()).is_ok());
    }

    #[test]
    fn per_key_estimates_track_exact_counts() {
        let store = EllStore::new(4, EllConfig::optimal(10).unwrap()).unwrap();
        let mut rng = SplitMix64::new(1);
        let mut exact: HashMap<String, std::collections::HashSet<u64>> = HashMap::new();
        for i in 0..30_000u64 {
            let key = format!("k{}", i % 7);
            let h = mix64(rng.next_u64() % 5_000);
            exact.entry(key.clone()).or_default().insert(h);
            store.insert(&key, h);
        }
        assert_eq!(store.key_count(), 7);
        for (key, set) in &exact {
            let est = store.estimate(key).unwrap();
            let n = set.len() as f64;
            assert!(
                (est / n - 1.0).abs() < 0.12,
                "{key}: estimate {est} vs exact {n}"
            );
        }
        assert!(store.estimate("never-seen").is_none());
        // The merged estimate sees the union (all keys share one value
        // universe here).
        let union: std::collections::HashSet<u64> = exact.values().flatten().copied().collect();
        let merged = store.merged_estimate();
        assert!(
            (merged / union.len() as f64 - 1.0).abs() < 0.12,
            "merged {merged} vs union {}",
            union.len()
        );
    }

    #[test]
    fn dense_keys_read_as_hot() {
        let store = EllStore::new(2, cfg()).unwrap();
        let mut rng = SplitMix64::new(2);
        store.insert("cold", rng.next_u64());
        assert_eq!(store.is_hot("cold"), Some(false));
        let batch: Vec<(&str, u64)> = (0..50_000).map(|_| ("hot", rng.next_u64())).collect();
        store.ingest(&batch);
        assert_eq!(store.is_hot("hot"), Some(true));
        assert_eq!(store.is_hot("cold"), Some(false));
        assert_eq!(store.is_hot("missing"), None);
        // Hot keys keep counting correctly.
        let before = store.estimate("hot").unwrap();
        let more: Vec<(&str, u64)> = (0..50_000).map(|_| ("hot", rng.next_u64())).collect();
        store.ingest(&more);
        assert!(store.estimate("hot").unwrap() > before);
    }

    #[test]
    fn wide_register_configs_reach_the_hot_path_too() {
        // ELL(2,28) needs 36-bit registers; heavy keys promote to dense
        // exactly like 32-bit-aligned configurations.
        let store = EllStore::new(2, EllConfig::new(2, 28, 6).unwrap()).unwrap();
        let mut rng = SplitMix64::new(3);
        let batch: Vec<(&str, u64)> = (0..60_000).map(|_| ("big", rng.next_u64())).collect();
        store.ingest(&batch);
        assert_eq!(store.is_hot("big"), Some(true));
        assert!((store.estimate("big").unwrap() / 60_000.0 - 1.0).abs() < 0.15);
    }

    #[test]
    fn merge_key_folds_external_sketches() {
        let store = EllStore::new(4, cfg()).unwrap();
        let mut external = AdaptiveExaLogLog::new(cfg()).unwrap();
        let mut rng = SplitMix64::new(4);
        let hashes: Vec<u64> = (0..500).map(|_| rng.next_u64()).collect();
        external.insert_hashes(&hashes);
        store.merge_key("k", &external).unwrap();
        let direct = store.estimate("k").unwrap();
        assert!((direct / external.estimate() - 1.0).abs() < 1e-12);
        // Merging the same sketch again is idempotent.
        store.merge_key("k", &external).unwrap();
        assert_eq!(store.estimate("k").unwrap(), direct);
        // Incompatible configuration is rejected.
        let other = AdaptiveExaLogLog::new(EllConfig::new(2, 16, 7).unwrap()).unwrap();
        assert!(store.merge_key("k", &other).is_err());
        // So is a token set of another token parameter, even for a new
        // key: its slot could not take the store's session deltas.
        let mut foreign = AdaptiveExaLogLog::with_token_parameter(cfg(), 30).unwrap();
        foreign.insert_hash(7);
        let err = store.merge_key("new", &foreign).unwrap_err();
        assert!(err.to_string().contains("token parameter"), "{err}");
        assert!(store.estimate("new").is_none());
    }

    #[test]
    fn keys_and_estimates_are_sorted() {
        let store = EllStore::new(8, cfg()).unwrap();
        for key in ["zeta", "alpha", "mid"] {
            store.insert(key, 42);
        }
        assert_eq!(store.keys(), vec!["alpha", "mid", "zeta"]);
        let names: Vec<String> = store.estimates().into_iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(store.entries().len(), 3);
    }

    #[test]
    fn memory_accounts_for_keys_and_sketches() {
        let store = EllStore::new(2, cfg()).unwrap();
        let empty = store.memory_bytes();
        store.insert("some-key", 7);
        assert!(store.memory_bytes() > empty);
    }

    fn tiered_store(warm_after: u64) -> EllStore {
        let mut store = EllStore::new(4, cfg()).unwrap();
        store.set_tier_config(TierConfig::new().warm_after(warm_after));
        store
    }

    fn fill_key(store: &EllStore, key: &str, n: u64, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let batch: Vec<(&str, u64)> = (0..n).map(|_| (key, rng.next_u64())).collect();
        store.ingest(&batch);
    }

    #[test]
    fn demotion_and_promotion_preserve_estimates_bitwise() {
        let store = tiered_store(1);
        let twin = EllStore::new(4, cfg()).unwrap();
        for (key, n, seed) in [("dense", 50_000, 10), ("sparse", 40, 11)] {
            fill_key(&store, key, n, seed);
            fill_key(&twin, key, n, seed);
        }
        let before: Vec<_> = twin.estimates();
        store.tick();
        let (to_warm, _) = store.demote_idle();
        assert_eq!(to_warm, 2);
        assert_eq!(store.key_tier("dense"), Some(Tier::Warm));
        assert_eq!(store.key_tier("sparse"), Some(Tier::Warm));
        // Bulk reads serve through the payload without promoting.
        assert_eq!(store.estimates(), before);
        assert_eq!(store.key_tier("dense"), Some(Tier::Warm));
        // Per-key queries promote and still match bitwise.
        assert_eq!(
            store.estimate("dense").unwrap(),
            twin.estimate("dense").unwrap()
        );
        assert_eq!(store.key_tier("dense"), Some(Tier::Hot));
        assert_eq!(store.promote_all(), 1);
        assert_eq!(store.estimates(), before);
        let stats = store.tier_stats();
        assert_eq!(stats.demotions_warm, 2);
        assert_eq!(stats.promotions, 2);
    }

    #[test]
    fn warm_keys_shrink_resident_memory() {
        // A register-heavy configuration, so the per-key sketch heap —
        // what the warm tier compresses — dominates the table overhead.
        let mut store = EllStore::new(4, EllConfig::aligned32(11).unwrap()).unwrap();
        store.set_tier_config(TierConfig::new().warm_after(1));
        // Mid-cardinality keys: just past dense promotion but far from
        // register saturation, which is exactly the regime where the
        // range coder wins (and the regime idle tail keys live in).
        for i in 0..8 {
            fill_key(&store, &format!("key-{i}"), 4_000, 100 + i);
        }
        let resident = store.memory_bytes();
        store.tick();
        store.demote_idle();
        let demoted = store.memory_bytes();
        assert!(
            demoted * 2 < resident,
            "warm footprint {demoted} should be well under half of {resident}"
        );
    }

    #[test]
    fn cold_spill_round_trips_through_the_segment_file() {
        let dir = std::env::temp_dir().join(format!("ell-cold-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = EllStore::new(2, cfg()).unwrap();
        store.set_tier_config(
            TierConfig::new()
                .warm_after(1)
                .cold_after(2)
                .spill_dir(&dir),
        );
        let twin = EllStore::new(2, cfg()).unwrap();
        fill_key(&store, "glacier", 30_000, 42);
        fill_key(&twin, "glacier", 30_000, 42);
        store.tick();
        assert_eq!(store.demote_idle(), (1, 0));
        store.tick();
        assert_eq!(store.demote_idle(), (0, 1));
        assert_eq!(store.key_tier("glacier"), Some(Tier::Cold));
        let stats = store.tier_stats();
        assert!(stats.spilled_bytes > 0);
        assert_eq!(stats.cold_keys, 1);
        // Reading back from disk reproduces the estimate bitwise.
        assert_eq!(
            store.estimate("glacier").unwrap(),
            twin.estimate("glacier").unwrap()
        );
        assert_eq!(store.key_tier("glacier"), Some(Tier::Hot));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_sweep_spills_a_shard_in_one_write_and_reads_each_key_back() {
        // Twenty keys of one shard, sparse and dense, go cold in the same
        // sweep, so their payloads share one write to the segment file.
        let dir = std::env::temp_dir().join(format!("ell-batch-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = EllStore::new(1, cfg()).unwrap();
        store.set_tier_config(
            TierConfig::new()
                .warm_after(1)
                .cold_after(2)
                .spill_dir(&dir),
        );
        let twin = EllStore::new(1, cfg()).unwrap();
        let keys: Vec<String> = (0..20).map(|i| format!("key-{i}")).collect();
        for (i, key) in keys.iter().enumerate() {
            fill_key(&store, key, 50 + 400 * i as u64, i as u64);
            fill_key(&twin, key, 50 + 400 * i as u64, i as u64);
        }
        store.tick();
        assert_eq!(store.demote_idle(), (20, 0));
        store.tick();
        assert_eq!(store.demote_idle(), (0, 20));
        for key in &keys {
            assert_eq!(store.key_tier(key), Some(Tier::Cold), "{key}");
            assert_eq!(
                store.estimate(key).map(f64::to_bits),
                twin.estimate(key).map(f64::to_bits),
                "{key}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_spill_leaves_the_whole_batch_warm() {
        // The spill directory cannot be created under a plain file, so
        // the sweep's one write fails: every key of the batch stays
        // warm, each counted as a spill error.
        let blocker =
            std::env::temp_dir().join(format!("ell-spill-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let mut store = EllStore::new(1, cfg()).unwrap();
        store.set_tier_config(
            TierConfig::new()
                .warm_after(1)
                .cold_after(2)
                .spill_dir(blocker.join("spill")),
        );
        for i in 0..5 {
            fill_key(&store, &format!("key-{i}"), 100, i);
        }
        store.tick();
        assert_eq!(store.demote_idle(), (5, 0));
        store.tick();
        assert_eq!(store.demote_idle(), (0, 0));
        let stats = store.tier_stats();
        assert_eq!(
            (stats.warm_keys, stats.cold_keys, stats.spill_errors),
            (5, 0, 5)
        );
        std::fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn direct_ingest_into_a_warm_key_promotes_and_counts() {
        let store = tiered_store(1);
        let twin = EllStore::new(4, cfg()).unwrap();
        fill_key(&store, "k", 25_000, 7);
        fill_key(&twin, "k", 25_000, 7);
        store.tick();
        store.demote_idle();
        assert_eq!(store.key_tier("k"), Some(Tier::Warm));
        // More observations land after demotion.
        fill_key(&store, "k", 25_000, 8);
        fill_key(&twin, "k", 25_000, 8);
        assert_eq!(store.key_tier("k"), Some(Tier::Hot));
        assert_eq!(store.estimate("k").unwrap(), twin.estimate("k").unwrap());
    }

    #[test]
    fn one_batch_across_every_tier_matches_single_inserts() {
        // Hot, sparse, warm, cold and new keys over eight shards, fed
        // one interleaved batch: the store ends bit-identical to a twin
        // fed the same events one `insert` at a time.
        let dir = std::env::temp_dir().join(format!("ell-mixed-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tiered = |sub: &str| {
            let mut store = EllStore::new(8, cfg()).unwrap();
            store.set_tier_config(
                TierConfig::new()
                    .warm_after(1)
                    .cold_after(2)
                    .spill_dir(dir.join(sub)),
            );
            store
        };
        let batched = tiered("batched");
        let single = tiered("single");
        let class = |name: &str| (0..6).map(|i| format!("{name}-{i}")).collect::<Vec<_>>();
        let (cold, warm, hot, sparse, new) = (
            class("cold"),
            class("warm"),
            class("hot"),
            class("sparse"),
            class("new"),
        );
        let fill = |keys: &[String], per_key: u64, seed: u64| {
            for key in keys {
                fill_key(&batched, key, per_key, seed);
                fill_key(&single, key, per_key, seed);
            }
        };
        let idle = || {
            for store in [&batched, &single] {
                store.tick();
                store.demote_idle();
            }
        };
        fill(&cold, 3_000, 1);
        idle();
        fill(&warm, 40, 2);
        idle();
        fill(&hot, 3_000, 3);
        fill(&sparse, 20, 4);
        for (keys, tier) in [
            (&cold, Tier::Cold),
            (&warm, Tier::Warm),
            (&hot, Tier::Hot),
            (&sparse, Tier::Sparse),
        ] {
            for key in keys {
                assert_eq!(batched.key_tier(key), Some(tier), "{key}");
            }
        }
        let all: Vec<&str> = [&cold, &warm, &hot, &sparse, &new]
            .into_iter()
            .flatten()
            .map(String::as_str)
            .collect();
        let mut rng = SplitMix64::new(5);
        let batch: Vec<(&str, u64)> = (0..20_000)
            .map(|_| {
                let key = all[(rng.next_u64() % all.len() as u64) as usize];
                (key, mix64(rng.next_u64() % 50_000))
            })
            .collect();
        batched.ingest(&batch);
        for &(key, hash) in &batch {
            single.insert(key, hash);
        }
        assert_eq!(batched.snapshot_bytes(), single.snapshot_bytes());
        for key in all {
            assert_eq!(
                batched.estimate(key).map(f64::to_bits),
                single.estimate(key).map(f64::to_bits),
                "{key}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keys_sharing_a_hash_stay_apart_in_batches_and_flushes() {
        // Two keys forced onto one 64-bit key hash in shard 0, fed
        // through a direct batch and then a session flush: each ends
        // with exactly its own hashes, like a twin store fed the same
        // hashes under the real key hash.
        const FORCED: u64 = 0xC011_1DE5 << 32;
        let store = EllStore::new(2, cfg()).unwrap();
        let twin = EllStore::new(2, cfg()).unwrap();
        let mut rng = SplitMix64::new(17);
        let mut draw = |n: usize| (0..n).map(|_| rng.next_u64()).collect::<Vec<u64>>();
        let (left, right, more_left, more_right) = (draw(40), draw(3_000), draw(500), draw(20));
        let runs = |left: &'static str, l, r| {
            [("left", l), (left, r)].map(|(key, hashes)| Run {
                shard: 0,
                key_hash: FORCED,
                key,
                tag: (),
                hashes,
            })
        };
        store.ingest_shard(0, &runs("right", &left, &right));
        store.flush_runs(0, &runs("right", &more_left, &more_right));
        assert_eq!(store.key_count(), 2);
        for (key, first, then) in [("left", &left, &more_left), ("right", &right, &more_right)] {
            for &hash in first.iter().chain(then) {
                twin.insert(key, hash);
            }
            let got = store.core().read(0).get(FORCED, key).map(|slot| {
                let sketch = slot.value().expect("a flushed key stays resident");
                sketch.estimate()
            });
            assert_eq!(
                got.map(f64::to_bits),
                twin.estimate(key).map(f64::to_bits),
                "{key}"
            );
        }
    }

    #[test]
    fn entropy_is_observable_across_tiers() {
        let store = tiered_store(1);
        fill_key(&store, "k", 10_000, 9);
        let resident = store.state_entropy_bits("k").unwrap();
        assert!(resident > 0.0);
        store.tick();
        store.demote_idle();
        // Same state, same entropy — and no promotion happened.
        assert_eq!(store.state_entropy_bits("k").unwrap(), resident);
        assert_eq!(store.key_tier("k"), Some(Tier::Warm));
        assert!(store.state_entropy_bits("missing").is_none());
    }
}
