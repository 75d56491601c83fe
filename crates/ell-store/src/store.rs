//! The sharded keyed store proper: slot lifecycle, batched ingest,
//! tiered residency, and per-key / merged estimation.

use crate::core::{by_shard, Keyed, KeyedCore, Run};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::tiers::{SpillStore, Tier, TierConfig, TierCounters, TierStats};
use exaloglog::adaptive::AdaptiveExaLogLog;
use exaloglog::compress::{compress, decompress};
use exaloglog::{EllConfig, EllError, ExaLogLog};

/// One keyed counter plus its access-clock stamp.
///
/// The residency ladder: a resident key, sparse or dense, mutates under
/// the shard write lock ([`SlotState::Resident`]); idle keys demote to
/// compressed in-memory bytes ([`SlotState::Warm`]) and then to the
/// on-disk segment file ([`SlotState::Cold`]), where only the
/// `(segment, offset, len)` index entry stays resident. Any ingest or
/// per-key query promotes a warm/cold slot back to a resident sketch;
/// register merge is monotone, so the round trip is bit-lossless.
#[derive(Debug)]
pub(crate) struct Slot {
    state: SlotState,
    /// Access-clock value at the last ingest/query touch. Relaxed: the
    /// demotion sweep tolerates racy staleness (a stale stamp only
    /// delays or hastens demotion by one sweep, never loses data).
    touched: AtomicU64,
}

impl Slot {
    fn new(state: SlotState, now: u64) -> Self {
        Slot {
            state,
            touched: AtomicU64::new(now),
        }
    }

    /// A resident slot holding `sketch`.
    fn holding(sketch: AdaptiveExaLogLog, now: u64) -> Self {
        Slot::new(SlotState::Resident(Box::new(sketch)), now)
    }
}

#[derive(Debug)]
enum SlotState {
    /// The in-memory sketch, sparse tokens or dense registers, mutated
    /// under the shard write lock. Boxed so the enum's inline size —
    /// paid by *every* slot, including cold ones — stays small.
    Resident(Box<AdaptiveExaLogLog>),
    /// Compressed bytes in memory.
    Warm(WarmEntry),
    /// Bytes spilled to the segment file; only the index stays here.
    Cold(ColdEntry),
}

/// A warm slot: the serialized counter plus any session deltas parked
/// on it by lazy flushes (merged at promotion).
#[derive(Debug)]
struct WarmEntry {
    /// Self-describing payload: `ELLZ` (range-coded dense registers) or
    /// `ELLS` (canonical sparse serialization).
    bytes: Box<[u8]>,
    pending: Option<Box<AdaptiveExaLogLog>>,
}

/// A cold slot: the `(segment, offset, len)` address of the payload in
/// the spill segment file, plus parked session deltas.
#[derive(Debug)]
struct ColdEntry {
    segment: u32,
    len: u32,
    offset: u64,
    pending: Option<Box<AdaptiveExaLogLog>>,
}

impl SlotState {
    fn is_resident(&self) -> bool {
        matches!(self, SlotState::Resident(_))
    }

    fn has_pending(&self) -> bool {
        match self {
            SlotState::Warm(w) => w.pending.is_some(),
            SlotState::Cold(c) => c.pending.is_some(),
            SlotState::Resident(_) => false,
        }
    }

    /// Heap bytes owned by this slot beyond its inline enum size (the
    /// inline size is accounted through the shard table's slots).
    fn heap_bytes(&self) -> usize {
        let pending_bytes =
            |p: &Option<Box<AdaptiveExaLogLog>>| p.as_ref().map_or(0, |s| s.memory_bytes());
        match self {
            SlotState::Resident(s) => s.memory_bytes(),
            SlotState::Warm(w) => w.bytes.len() + pending_bytes(&w.pending),
            SlotState::Cold(c) => pending_bytes(&c.pending),
        }
    }
}

/// Serializes a sketch into its warm payload: range-coded `ELLZ` once
/// dense, canonical `ELLS` while sparse (both self-describing by magic).
fn encode_payload(sketch: &AdaptiveExaLogLog) -> Vec<u8> {
    match sketch.as_dense() {
        Some(dense) => compress(dense),
        None => sketch.to_bytes(),
    }
}

/// Decodes a warm/cold payload back into an adaptive sketch,
/// dispatching on the payload magic.
fn decode_payload(bytes: &[u8]) -> AdaptiveExaLogLog {
    if bytes.len() >= 4 && &bytes[..4] == b"ELLZ" {
        AdaptiveExaLogLog::from_dense(
            decompress(bytes).expect("warm payloads are produced by this store"),
        )
    } else {
        AdaptiveExaLogLog::from_bytes(bytes).expect("warm payloads are produced by this store")
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
    /// Shard maps of slots plus the handoff queues buffered sessions
    /// (see [`crate::IngestSession`]) park untagged runs of hashes on.
    core: KeyedCore<Slot, ()>,
    tiers: TierConfig,
    /// The access clock driving demotion decisions; advanced by
    /// [`EllStore::tick`], stamped into `Slot::touched` on access.
    clock: AtomicU64,
    spill: Option<SpillStore>,
    counters: TierCounters,
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
            tiers: TierConfig::new(),
            clock: AtomicU64::new(0),
            spill: None,
            counters: TierCounters::default(),
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
        self.spill = tiers
            .spill_directory()
            .map(|dir| SpillStore::new(dir.to_path_buf()));
        self.tiers = tiers;
    }

    /// The active tiered-residency configuration.
    #[must_use]
    pub fn tier_config(&self) -> &TierConfig {
        &self.tiers
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

    /// Rebuilds the resident sketch for a demoted slot state: decode
    /// the payload (from memory or the spill segment), then fold in any
    /// parked session deltas. Monotone merge makes the result
    /// bit-identical to a slot that was never demoted.
    fn revive_state(&self, state: &SlotState) -> AdaptiveExaLogLog {
        let (mut sketch, pending) = match state {
            SlotState::Warm(w) => (decode_payload(&w.bytes), w.pending.as_deref()),
            SlotState::Cold(c) => (decode_payload(&self.read_spill(c)), c.pending.as_deref()),
            _ => unreachable!("revive_state on a resident slot"),
        };
        if let Some(delta) = pending {
            sketch
                .merge_from(delta)
                .expect("parked deltas share the store configuration");
        }
        sketch
    }

    /// Replaces a warm/cold slot with its revived resident sketch.
    fn promote_slot(&self, slot: &mut Slot) {
        debug_assert!(!slot.state.is_resident());
        slot.state = SlotState::Resident(Box::new(self.revive_state(&slot.state)));
        TierCounters::count(&self.counters.promotions);
    }

    /// Records an access to `slot` under the shard write lock: promotes
    /// a warm/cold slot back to residency, stamps the access clock, and
    /// returns the resident sketch.
    fn access<'s>(&self, slot: &'s mut Slot, now: u64) -> &'s mut AdaptiveExaLogLog {
        if !slot.state.is_resident() {
            self.promote_slot(slot);
        }
        // ordering: Relaxed — idle-age stamp; the demote sweep reads it
        // under the same shard write lock, which is the happens-before
        // edge. See CONCURRENCY.md § "Tier demote vs promote".
        slot.touched.store(now, Ordering::Relaxed);
        match &mut slot.state {
            SlotState::Resident(s) => s,
            _ => unreachable!("promote_slot leaves the slot resident"),
        }
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
                self.access(slot, now).insert_hashes(run.hashes);
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
    /// or (both sides sparse) on a token-parameter mismatch.
    pub fn merge_key(&self, key: &str, sketch: &AdaptiveExaLogLog) -> Result<(), EllError> {
        if sketch.config() != &self.cfg {
            return Err(EllError::IncompatibleSketches {
                reason: format!("store {} vs sketch {}", self.cfg, sketch.config()),
            });
        }
        let (si, key_hash) = self.core.locate(key);
        let now = self.clock();
        let new = || Slot::holding(sketch.clone(), now);
        match self.core.write(si).entry(key_hash, key, new) {
            (_, true) => Ok(()),
            (slot, false) => self.access(slot, now).merge_from(sketch),
        }
    }

    /// Places a restored sketch under `key` as a resident slot unless
    /// the key is present; returns whether it was absent. Used by
    /// snapshot restoration. A restored dense sketch keeps the
    /// coefficients its deserialization cached, so its first estimate
    /// costs no register scan.
    pub(crate) fn place(&self, key: &str, sketch: AdaptiveExaLogLog) -> bool {
        self.core.insert(key, Slot::holding(sketch, self.clock()))
    }

    /// Places restored compressed bytes under `key` as a warm slot
    /// unless the key is present; returns whether it was absent.
    /// Snapshots of warm entries restore without a dense round trip, so
    /// re-snapshotting reuses the identical payload.
    pub(crate) fn place_warm(&self, key: &str, bytes: Vec<u8>) -> bool {
        let state = SlotState::Warm(WarmEntry {
            bytes: bytes.into_boxed_slice(),
            pending: None,
        });
        self.core.insert(key, Slot::new(state, self.clock()))
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
            match table.get(key_hash, key) {
                None => return None,
                Some(Slot {
                    state: SlotState::Resident(s),
                    touched,
                }) => {
                    // ordering: Relaxed — idle-age stamp written under
                    // the read lock; a stamp racing the demote sweep
                    // only shifts which sweep tick sees the access, it
                    // never corrupts state (the sweep re-checks
                    // residency under the write lock). See
                    // CONCURRENCY.md § "Tier demote vs promote".
                    touched.store(self.clock(), Ordering::Relaxed);
                    return Some(s.estimate());
                }
                Some(_) => {}
            }
        }
        // Demoted: promote under the write lock, then serve.
        let mut table = self.core.write(si);
        let slot = table.get_mut(key_hash, key)?;
        Some(self.access(slot, self.clock()).estimate())
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
        self.core.with(key, |slot| match &slot.state {
            SlotState::Resident(s) if s.is_sparse() => Tier::Sparse,
            SlotState::Resident(_) => Tier::Hot,
            SlotState::Warm(_) => Tier::Warm,
            SlotState::Cold(_) => Tier::Cold,
        })
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
        if !self.tiers.is_enabled() {
            return (0, 0);
        }
        let now = self.clock();
        let (mut to_warm, mut to_cold) = (0, 0);
        let due = |threshold: Option<u64>, idle| threshold.is_some_and(|t| idle >= t);
        let mut batch = Vec::new();
        for si in 0..self.core.shard_count() {
            let mut table = self.core.write(si);
            // Warm slots bound for the segment file with their payload
            // lengths; the payloads lie back to back in `batch`.
            let mut to_spill = Vec::new();
            batch.clear();
            for slot in table.values_mut() {
                // ordering: Relaxed — idle-age read under the shard write
                // lock, which orders it after every stamp written under the
                // read lock (release of read → acquire of write). A stale
                // stamp only delays demotion by one sweep. See
                // CONCURRENCY.md § "Tier demote vs promote".
                let idle = now.saturating_sub(slot.touched.load(Ordering::Relaxed));
                match &mut slot.state {
                    SlotState::Resident(s) if due(self.tiers.warm_threshold(), idle) => {
                        let bytes = encode_payload(s).into_boxed_slice();
                        slot.state = SlotState::Warm(WarmEntry {
                            bytes,
                            pending: None,
                        });
                        to_warm += 1;
                        TierCounters::count(&self.counters.demotions_warm);
                    }
                    SlotState::Warm(w)
                        if self.spill.is_some() && due(self.tiers.cold_threshold(), idle) =>
                    {
                        // Settle parked deltas into the payload before it
                        // leaves memory.
                        if let Some(pending) = w.pending.take() {
                            let mut sketch = decode_payload(&w.bytes);
                            sketch
                                .merge_from(&pending)
                                .expect("parked deltas share the store configuration");
                            w.bytes = encode_payload(&sketch).into_boxed_slice();
                        }
                        batch.extend_from_slice(&w.bytes);
                        let len = u32::try_from(w.bytes.len()).expect("payloads stay below 4 GiB");
                        to_spill.push((slot, len));
                    }
                    _ => {}
                }
            }
            let Some(spill) = self.spill.as_ref().filter(|_| !to_spill.is_empty()) else {
                continue;
            };
            let mut appended = spill.append(&batch);
            for (slot, len) in to_spill {
                match &mut appended {
                    Ok((segment, offset)) => {
                        slot.state = SlotState::Cold(ColdEntry {
                            segment: *segment,
                            len,
                            offset: *offset,
                            pending: None,
                        });
                        *offset += u64::from(len);
                        to_cold += 1;
                        TierCounters::count(&self.counters.demotions_cold);
                    }
                    // Stay warm; the payload is still safe in memory.
                    Err(_) => TierCounters::count(&self.counters.spill_errors),
                }
            }
        }
        (to_warm, to_cold)
    }

    /// Promotes every demoted key back to a resident sketch. Returns
    /// the number of promotions. After this, the store is
    /// indistinguishable from one that never tiered (bit-identical
    /// slots and snapshots).
    pub fn promote_all(&self) -> usize {
        let mut n = 0usize;
        self.core.for_each_mut(|slot| {
            if !slot.state.is_resident() {
                self.promote_slot(slot);
                n += 1;
            }
        });
        n
    }

    /// Key-sorted `(key, payload)` pairs for snapshotting: resident
    /// slots serialize canonically (`ELLS`/`ELL1`), warm slots embed
    /// their compressed payload verbatim (no dense round trip), cold
    /// slots embed the spill bytes without changing residency. Parked
    /// deltas are settled first (by promoting every slot that holds
    /// some), so serialized payloads include every flushed observation.
    pub(crate) fn snapshot_payloads(&self) -> Vec<(String, Vec<u8>)> {
        self.core.for_each_mut(|slot| {
            if slot.state.has_pending() {
                self.promote_slot(slot);
            }
        });
        self.core.sorted(|slot| match &slot.state {
            SlotState::Resident(s) => s.to_bytes(),
            SlotState::Warm(w) => w.bytes.to_vec(),
            SlotState::Cold(c) => self.read_spill(c),
        })
    }

    /// Reads a cold slot's payload back from the spill segment.
    fn read_spill(&self, c: &ColdEntry) -> Vec<u8> {
        self.spill
            .as_ref()
            .expect("cold entries exist only with a spill store")
            .read(c.segment, c.offset, c.len)
            .expect("cold payload unreadable — spill segment missing or truncated")
    }

    /// Tier occupancy, transition counters, and footprint — the
    /// observability face of the residency layer.
    #[must_use]
    pub fn tier_stats(&self) -> TierStats {
        let mut stats = TierStats {
            demotions_warm: TierCounters::get(&self.counters.demotions_warm),
            demotions_cold: TierCounters::get(&self.counters.demotions_cold),
            promotions: TierCounters::get(&self.counters.promotions),
            parked_deltas: TierCounters::get(&self.counters.parked_deltas),
            spill_errors: TierCounters::get(&self.counters.spill_errors),
            spilled_bytes: self.spill.as_ref().map_or(0, SpillStore::spilled_bytes),
            ..TierStats::default()
        };
        self.core.for_each(|_, slot| match &slot.state {
            SlotState::Resident(s) if s.is_sparse() => stats.sparse_keys += 1,
            SlotState::Resident(_) => stats.hot_keys += 1,
            SlotState::Warm(_) => stats.warm_keys += 1,
            SlotState::Cold(_) => stats.cold_keys += 1,
        });
        stats.resident_bytes = self.memory_bytes();
        stats
    }

    /// The `state_entropy_bits` of one key's current state — the
    /// information-theoretic lower bound on its compressed size, for
    /// demotion-threshold tuning. Reads through warm/cold payloads
    /// without promoting. `None` if the key is absent.
    #[must_use]
    pub fn state_entropy_bits(&self, key: &str) -> Option<f64> {
        let dense = self.core.with(key, |slot| match &slot.state {
            SlotState::Resident(s) => s.to_dense(),
            state => self.revive_state(state).to_dense(),
        })?;
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
        self.core.sorted(|slot| match &slot.state {
            SlotState::Resident(s) => s.estimate(),
            state => self.revive_state(state).estimate(),
        })
    }

    /// A point-in-time copy of every entry as `(key, sketch)`, sorted by
    /// key (warm/cold slots decode without changing residency).
    #[must_use]
    pub fn entries(&self) -> Vec<(String, AdaptiveExaLogLog)> {
        self.core.sorted(|slot| match &slot.state {
            SlotState::Resident(sk) => (**sk).clone(),
            state => self.revive_state(state),
        })
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
            match &slot.state {
                // Empty or near-empty dense slots cost one word-level
                // zero scan inside merge_from — their all-zero runs are
                // classified as skippable wholesale.
                SlotState::Resident(s) => s.merge_into_dense(&mut acc),
                state => self.revive_state(state).merge_into_dense(&mut acc),
            }
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
        core::mem::size_of::<Self>() + self.core.memory_bytes(|slot| slot.state.heap_bytes())
    }
}

impl Keyed for EllStore {
    type Value = Slot;
    type Tag = ();
    type Pin = ();

    fn core(&self) -> &KeyedCore<Slot, ()> {
        &self.core
    }

    fn pinned<R>(&self, f: impl FnOnce(()) -> R) -> R {
        f(())
    }

    /// A new key's slot: an empty resident sketch, stamped now.
    fn new_value(&self, (): ()) -> Slot {
        Slot::holding(self.new_delta(), self.clock())
    }

    /// Reads the sketch a run into `slot` merges into first: the header
    /// and first token of a sparse resident or parked sketch.
    fn touch(slot: &Slot) -> u64 {
        let sketch = match &slot.state {
            SlotState::Resident(s) => Some(s),
            SlotState::Warm(w) => w.pending.as_ref(),
            SlotState::Cold(c) => c.pending.as_ref(),
        };
        match sketch.map(|s| &**s) {
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
        match &mut slot.state {
            SlotState::Warm(WarmEntry { pending, .. })
            | SlotState::Cold(ColdEntry { pending, .. }) => {
                pending
                    .get_or_insert_with(|| Box::new(self.new_delta()))
                    .insert_hashes(run.hashes);
                TierCounters::count(&self.counters.parked_deltas);
            }
            SlotState::Resident(s) => s.insert_hashes(run.hashes),
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
        assert_eq!(core::mem::size_of::<SlotState>(), 32);
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
        store.flush_runs(0, &runs("right", &more_left, &more_right), true);
        assert_eq!(store.key_count(), 2);
        for (key, first, then) in [("left", &left, &more_left), ("right", &right, &more_right)] {
            for &hash in first.iter().chain(then) {
                twin.insert(key, hash);
            }
            let got = store
                .core()
                .read(0)
                .get(FORCED, key)
                .map(|slot| match &slot.state {
                    SlotState::Resident(s) => s.estimate(),
                    _ => unreachable!("a flushed key stays resident"),
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
