//! [`ResolutionService`] — online multi-intent resolution over a frozen
//! model snapshot.
//!
//! # Two serving paths
//!
//! * **Transductive (exact).** At load, the service replays each intent's
//!   frozen GNN over the snapshot's multiplex graph once — the "warm
//!   forward". Because every kernel is deterministic, the recomputed
//!   scores are bit-identical to the batch model's, and corpus-pair
//!   queries ([`ResolveQuery::CorpusPair`]) are answered from this cache
//!   exactly: a reloaded service reproduces the batch predictions to the
//!   bit (verified at load; the service refuses inconsistent snapshots).
//!
//! * **Inductive (incremental).** New records and ad-hoc pairs are
//!   embedded per intent by the snapshot's matchers, localized via the
//!   per-layer ANN indexes, and scored by
//!   [`GnnModel::forward_inductive`](flexer_graph::GnnModel::forward_inductive)
//!   over their k-NN neighbourhood, whose states are *pinned* from the
//!   warm forward. Edges point into a node and k-NN wiring is fixed from
//!   the initial representations (§4.1.3), so inserting a node never
//!   perturbs stored predictions — ingest is strictly additive.
//!
//! [`ResolutionService::ingest`] makes the inductive path durable: the new
//! record's candidate pairs join the ANN indexes (incremental
//! [`AnyIndex::add`]), their per-depth node states extend the pinned state
//! matrices, and their scores become servable corpus pairs.
//!
//! # Candidate generation
//!
//! The blocking tier is a [`ShardedBlocker`]: the record corpus and its
//! incremental blocker state partitioned by a deterministic title router
//! into N shard-local states. N = 1 is the monolithic case, and a
//! monolithic snapshot loads as exactly that, without re-indexing;
//! [`ResolutionService::sharded`] re-partitions into any N. `ingest()`
//! and record-level `resolve()` pair a new title only against its
//! *blocked candidates* — O(candidates) instead of O(records), fanned out
//! over the shards via `flexer-par` and merged exactly — and the blocker
//! grows with every ingest. Set [`ServeConfig::exhaustive`] to bypass the
//! blocker (the all-pairs parity baseline).
//!
//! # What is sharded, and what is shared
//!
//! Only the blocking tier is partitioned. The scoring tier — frozen
//! matchers and GNNs, the pinned per-depth node states, the per-layer ANN
//! indexes over *pair* embeddings — is shared: candidate pairs reference
//! records across shard boundaries, so pair-level state cannot be
//! partitioned by record without changing which neighbourhoods a pair
//! sees. That makes sharding a pure scale-out move: for any shard count
//! every answer is **bit-identical**, because
//!
//! 1. the merged shard-local candidate sets equal the monolithic blocker's
//!    candidate set exactly (global stop-gram coordination, `(distance,
//!    global id)` ANN merges — see `flexer_block::shard`), and
//! 2. blocking only selects which pairs are scored: every surviving pair
//!    is scored by the same kernel against the same shared pre-batch
//!    state, in the same order.
//!
//! This is asserted over shard counts and ingest orders by
//! `tests/shard.rs` and `tests/proptests.rs`.

use crate::arena::PinnedArena;
use crate::cache::LruCache;
use crate::error::ServeError;
use crate::metrics::{MetricsInner, ServeMetrics};
use flexer_ann::{AnyIndex, VectorIndex};
use flexer_block::ShardedBlocker;
use flexer_graph::{BatchInductiveTrace, InductiveTrace, NeighborArena, RowSource};
use flexer_nn::{Matrix, SparseMatrix};
use flexer_obs::{Counter, MetricsSnapshot, Recorder};
use flexer_store::{ModelSnapshot, ShardFrames};
use flexer_types::{
    DenseRecordId, IntentId, MatchTarget, RankedMatch, ResolveQuery, ResolveResponse, ShardConfig,
    WireIngestReport,
};
use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tunables of the serving tier.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Capacity of the hot pair-embedding LRU cache.
    pub cache_capacity: usize,
    /// Bypass the blocker and pair new titles against **every** stored
    /// record (quadratic). The explicit fallback for parity testing the
    /// blocked path against; off by default.
    pub exhaustive: bool,
    /// Route inductive scoring through the per-candidate reference kernel
    /// (one gather + GNN forward per candidate) instead of the batched
    /// data-oriented path. The two produce bit-identical scores; the
    /// reference path exists for differential tests and as the baseline
    /// the serve bench measures the batched speedup against. Off by
    /// default.
    pub reference_scoring: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { cache_capacity: 1024, exhaustive: false, reference_scoring: false }
    }
}

impl ServeConfig {
    /// Config with the blocker bypassed (all-pairs candidate generation).
    pub fn exhaustive() -> Self {
        Self { exhaustive: true, ..Self::default() }
    }

    /// Config with the per-candidate reference scoring kernel.
    pub fn reference() -> Self {
        Self { reference_scoring: true, ..Self::default() }
    }
}

/// What one [`ResolutionService::ingest`] call added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Id of the newly ingested record.
    pub record: usize,
    /// Pair id of the first candidate pair created for it.
    pub first_pair: usize,
    /// Number of candidate pairs created (one per blocked candidate; one
    /// per pre-existing record under [`ServeConfig::exhaustive`]).
    pub n_pairs: usize,
    /// Pre-existing records the blocker pruned (0 when exhaustive).
    pub n_suppressed: usize,
}

impl From<&IngestReport> for WireIngestReport {
    fn from(r: &IngestReport) -> Self {
        Self {
            record: r.record as u64,
            first_pair: r.first_pair as u64,
            n_pairs: r.n_pairs as u64,
            n_suppressed: r.n_suppressed as u64,
        }
    }
}

/// Per-intent pair embedding of one (a, b) title pair: a `P × dim` matrix
/// whose row `p` is the intent-`p` representation — one allocation per
/// pair, shared by reference through the LRU cache.
type PairEmbedding = Matrix;

/// Inductive scores of one candidate batch, in whichever shape the
/// configured kernel produces them.
enum ScoredBatch {
    /// Per-candidate, per-intent `(score, trace)` pairs — the reference
    /// kernel ([`ServeConfig::reference_scoring`]).
    Reference(Vec<Vec<(f32, InductiveTrace)>>),
    /// One batched trace per intent, all candidates at once — the
    /// data-oriented default.
    Batched(Vec<BatchInductiveTrace>),
}

/// Phase-1 output of one ingested title: per-candidate embeddings and the
/// batch's inductive scores.
type ScoredCandidates = (Vec<Arc<PairEmbedding>>, ScoredBatch);

/// Per-thread scratch of the batched scoring path, reused across queries:
/// the flat neighbour-id arena, its offsets, and the stacked candidate
/// feature buffer. Keeping these warm removes every per-query growth
/// allocation from the steady-state hot path.
#[derive(Default)]
struct BatchScratch {
    ids: Vec<u32>,
    offsets: Vec<usize>,
    features: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::default());
}

/// The online resolution service.
#[derive(Debug)]
pub struct ResolutionService {
    snapshot: ModelSnapshot,
    config: ServeConfig,
    /// Pairs the loaded snapshot was trained on (ingested pairs live past
    /// this watermark).
    n_train_pairs: usize,
    /// Records the loaded snapshot shipped (ingested records live past
    /// this watermark).
    n_train_records: usize,
    /// Serving-tier corpus: snapshot records plus everything ingested.
    records: Vec<String>,
    /// The candidate-generation tier: the blocker over `records`,
    /// partitioned into N shards; grows with ingest. `None` only in the
    /// router's scoring tier: the router's shard fan-out supplies the
    /// candidates.
    blocker: Option<ShardedBlocker>,
    /// Whether `to_snapshot` writes the blocking tier as per-shard frames
    /// (the service was loaded from frames or built sharded) instead of
    /// the monolithic field. The frames are not kept resident — that
    /// would hold a second, serialized copy of the blocker — they are
    /// regenerated from the live state.
    emit_frames: bool,
    /// Serving-tier candidate pairs (dense record-id refs), pair-id order.
    pairs: Vec<(DenseRecordId, DenseRecordId)>,
    /// Per intent layer: ANN index over initial representations; grows
    /// with ingest. Its id-major `data()` buffer doubles as the depth-0
    /// row source of the batched inductive forward.
    indexes: Vec<AnyIndex>,
    /// `pinned[p]`: under intent `p`'s GNN, the flat per-depth states of
    /// every served pair node — the state *entering* GNN layer `j + 1`
    /// (i.e. the output of layer `j`) lives at arena depth `j`, keyed by
    /// dense pair id; grows with ingest. Depth-0 inputs are the initial
    /// representations held by `indexes`.
    pinned: Vec<PinnedArena>,
    /// `scores[p][pair]`: match likelihood of every served pair under
    /// intent `p`; the transductive warm-forward values for training
    /// pairs, inductive values for ingested ones.
    scores: Vec<Vec<f32>>,
    cache: Mutex<LruCache<PairKey, Arc<PairEmbedding>>>,
    metrics: Mutex<MetricsInner>,
    /// Span/counter aggregator for the per-stage breakdown. A clone of the
    /// process-global recorder by default, so the blocking and store tiers'
    /// instrumentation lands in the same aggregate.
    recorder: Recorder,
    /// Embeddings the flood guard computed but refused to cache.
    flood_rejections: AtomicU64,
    /// Rows fed through `forward_inductive_batch` (B·P per batched call).
    ctr_forward_rows: Counter,
    /// Candidate records considered across record-level resolves.
    ctr_resolve_candidates: Counter,
}

/// Where a service's blocking tier comes from.
pub(crate) enum Layout {
    /// The snapshot's own layout: v3 frames keep their shard count, a
    /// monolithic blocker becomes the single shard of an N = 1 tier.
    Loaded,
    /// Partitioned under this config: frames that already match it are
    /// decoded as they are, anything else is re-partitioned.
    Sharded(ShardConfig),
    /// No local blocking tier: the router's shard fan-out supplies the
    /// candidates.
    Remote,
}

impl ResolutionService {
    /// Builds a service from a validated snapshot: runs the warm forward
    /// per intent, pins the per-depth node states, and verifies the
    /// recomputed scores reproduce the snapshot's batch scores exactly.
    ///
    /// The blocking tier keeps the snapshot's layout: a shard-aware (v3)
    /// snapshot is served over its N frames, a monolithic one as a
    /// single shard. Use [`Self::sharded`] to pick the shard count.
    pub fn new(snapshot: ModelSnapshot, config: ServeConfig) -> Result<Self, ServeError> {
        Self::build(snapshot, config, Layout::Loaded)
    }

    /// Builds a service whose blocking tier is partitioned into
    /// `shard_config.n_shards` shards. A v3 snapshot whose frames already
    /// match boots from them directly; any other snapshot — monolithic,
    /// or sharded differently — is re-partitioned by routing the corpus
    /// titles, which is exact and deterministic. [`Self::to_snapshot`]
    /// then writes this layout's frames.
    pub fn sharded(
        snapshot: ModelSnapshot,
        config: ServeConfig,
        shard_config: ShardConfig,
    ) -> Result<Self, ServeError> {
        shard_config.validate().map_err(ServeError::InconsistentSnapshot)?;
        Self::build(snapshot, config, Layout::Sharded(shard_config))
    }

    pub(crate) fn build(
        mut snapshot: ModelSnapshot,
        config: ServeConfig,
        layout: Layout,
    ) -> Result<Self, ServeError> {
        snapshot.validate()?;
        let p_intents = snapshot.n_intents();
        let n_pairs = snapshot.n_pairs();
        let graph = &snapshot.graph;
        for (p, matcher) in snapshot.matchers.iter().enumerate() {
            if matcher.embedding_dim() != graph.dim {
                return Err(ServeError::InconsistentSnapshot(format!(
                    "matcher {p} embeds into {} dims, graph features have {}",
                    matcher.embedding_dim(),
                    graph.dim
                )));
            }
        }

        let mut pinned = Vec::with_capacity(p_intents);
        let mut scores = Vec::with_capacity(p_intents);
        for (p, trained) in snapshot.trained.iter().enumerate() {
            let trace = trained.model.forward(graph);
            // The warm forward must reproduce the batch scores bit-for-bit
            // — the end-to-end serving invariant. A mismatch means the
            // snapshot's graph and weights do not belong together.
            let recomputed = trained.model.intent_scores(graph, &trace, p);
            if recomputed != trained.scores {
                return Err(ServeError::InconsistentSnapshot(format!(
                    "warm forward of intent {p} does not reproduce the snapshot's batch scores"
                )));
            }
            let l = trained.model.n_layers();
            let dims: Vec<usize> =
                (0..l.saturating_sub(1)).map(|j| trace.hidden(j).cols()).collect();
            let mut arena = PinnedArena::new(p_intents, dims);
            for j in 0..l.saturating_sub(1) {
                let full = trace.hidden(j);
                let d = full.cols();
                for q in 0..p_intents {
                    // Layer-q node rows are contiguous (node id =
                    // q·n_pairs + i): one block copy per (depth, layer).
                    arena.append_block(j, q, &full.data()[q * n_pairs * d..(q + 1) * n_pairs * d]);
                }
            }
            arena.add_rows(n_pairs);
            pinned.push(arena);
            scores.push(recomputed);
        }

        // The service takes ownership of the ANN indexes and the blocking
        // tier (they grow with ingest); `to_snapshot` reconstructs the
        // training-time prefix on demand. Keeping second copies inside
        // `self.snapshot` would double the dominant memory cost at scale.
        let indexes = std::mem::take(&mut snapshot.indexes);
        let frames = snapshot.sharding.take();
        let monolithic = snapshot.take_blocker();
        let (blocker, emit_frames) = match (layout, frames) {
            (Layout::Remote, _) => (None, false),
            (Layout::Loaded, Some(frames)) => (Some(frames.decode_all()?), true),
            (Layout::Loaded, None) => {
                let n = snapshot.records.len();
                let single = ShardedBlocker::from_parts(
                    ShardConfig::of(1),
                    vec![monolithic],
                    vec![(0..n as u32).collect()],
                    n,
                )
                .map_err(ServeError::InconsistentSnapshot)?;
                (Some(single), false)
            }
            (Layout::Sharded(shards), Some(frames)) if frames.config() == shards => {
                (Some(frames.decode_all()?), true)
            }
            (Layout::Sharded(shards), frames) => {
                // Only the backend config is needed, so one decoded shard
                // (or the monolithic blocker) supplies it; nothing is
                // merged just to be thrown away.
                let gen = match frames {
                    Some(frames) => frames.decode_shard(0)?.1.gen_config(),
                    None => monolithic.gen_config(),
                };
                let titles = snapshot.records.iter().map(String::as_str);
                (Some(ShardedBlocker::build(&gen, shards, titles)), true)
            }
        };
        let recorder = flexer_obs::global().clone();
        let ctr_forward_rows = recorder.counter("serve.forward.rows");
        let ctr_resolve_candidates = recorder.counter("serve.resolve.candidates");
        Ok(Self {
            n_train_pairs: n_pairs,
            n_train_records: snapshot.records.len(),
            records: snapshot.records.clone(),
            blocker,
            emit_frames,
            pairs: snapshot
                .pairs
                .iter()
                .map(|&(a, b)| (DenseRecordId::new(a as usize), DenseRecordId::new(b as usize)))
                .collect(),
            indexes,
            pinned,
            scores,
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            metrics: Mutex::new(MetricsInner::new()),
            recorder,
            flood_rejections: AtomicU64::new(0),
            ctr_forward_rows,
            ctr_resolve_candidates,
            snapshot,
            config,
        })
    }

    /// Loads a `.flexer` snapshot file and builds the service over it.
    pub fn load(path: impl AsRef<Path>, config: ServeConfig) -> Result<Self, ServeError> {
        Self::new(ModelSnapshot::load(path)?, config)
    }

    /// The serving configuration in effect.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The training-time model state this service was built from (graph,
    /// matchers, trained GNNs, corpus metadata). The `indexes` field is
    /// **empty** here and the blocker tier is absent (`blocker` is
    /// `Exhaustive`, `sharding` is `None`) — the service owns the growing
    /// ANN indexes and blocking tier; use [`Self::to_snapshot`] or
    /// [`Self::save`] for a complete snapshot.
    pub fn snapshot(&self) -> &ModelSnapshot {
        &self.snapshot
    }

    /// Reassembles the complete training-time snapshot. Ingested
    /// records/pairs are serving-tier state and are *not* part of it
    /// (index and blocker contents are truncated back to the training
    /// watermarks), so the result is byte-identical to the snapshot
    /// loaded — unless [`Self::sharded`] re-partitioned it, which is a
    /// new (itself byte-stable) layout. The blocking tier is written as
    /// per-shard frames when the service was loaded from frames or built
    /// sharded, as the monolithic field otherwise.
    pub fn to_snapshot(&self) -> ModelSnapshot {
        let mut snapshot = self.snapshot.clone();
        snapshot.indexes = self.indexes.iter().map(|i| i.truncated(self.n_train_pairs)).collect();
        if let Some(blocker) = &self.blocker {
            if self.emit_frames {
                let truncated = blocker.truncated(self.n_train_records);
                snapshot.sharding = Some(ShardFrames::from_blocker(&truncated));
            } else {
                // A monolithic load is a single shard whose local ids are
                // the global ids.
                snapshot.blocker = blocker.shards()[0].truncated(self.n_train_records);
            }
        }
        snapshot
    }

    /// Persists the training-time snapshot (see [`Self::to_snapshot`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        Ok(self.to_snapshot().save(path)?)
    }

    /// Number of served records (snapshot + ingested).
    pub fn n_records(&self) -> usize {
        self.records.len()
    }

    /// Number of served candidate pairs (snapshot + ingested).
    pub fn n_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Number of pairs the loaded snapshot was trained on; pairs at or
    /// past this watermark were ingested online.
    pub fn n_train_pairs(&self) -> usize {
        self.n_train_pairs
    }

    /// Number of records the loaded snapshot shipped; records at or past
    /// this watermark were ingested online.
    pub fn n_train_records(&self) -> usize {
        self.n_train_records
    }

    /// Name of the candidate-generation backend in effect
    /// (`"exhaustive"` when [`ServeConfig::exhaustive`] bypasses the
    /// snapshot's blocker).
    pub fn blocker_kind(&self) -> &'static str {
        match &self.blocker {
            Some(blocker) if !self.config.exhaustive => blocker.kind_name(),
            _ => "exhaustive",
        }
    }

    /// The partitioned blocking tier (a router's scoring tier has none).
    fn blocking_tier(&self) -> &ShardedBlocker {
        self.blocker.as_ref().expect("a local service always holds its blocking tier")
    }

    /// Number of shards in the blocking tier (1 for a monolithic load).
    pub fn n_shards(&self) -> usize {
        self.blocking_tier().n_shards()
    }

    /// Records held by each shard (balance diagnostics).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.blocking_tier().shard_sizes()
    }

    /// Shard-local candidate counts for a title — the per-shard work a
    /// candidate query costs, before the merge. Sums to the global
    /// candidate count (`None` for exhaustive blocking, where shards hold
    /// no state).
    pub fn local_candidate_counts(&self, title: &str) -> Option<Vec<usize>> {
        self.blocking_tier().local_candidate_counts(title)
    }

    /// Number of intents `P`.
    pub fn n_intents(&self) -> usize {
        self.snapshot.n_intents()
    }

    /// Title of a served record.
    pub fn record_title(&self, id: usize) -> &str {
        &self.records[id]
    }

    /// The two record ids of a served candidate pair.
    pub fn pair_records(&self, pair: usize) -> (usize, usize) {
        let (a, b) = self.pairs[pair];
        (a.index(), b.index())
    }

    /// Current counters and latency percentiles.
    pub fn metrics(&self) -> ServeMetrics {
        let cache = self.cache.lock().expect("cache lock").stats();
        let flood = self.flood_rejections.load(Ordering::Relaxed);
        self.metrics.lock().expect("metrics lock").snapshot(cache, flood)
    }

    /// The span/counter recorder this service reports into — a clone of
    /// [`flexer_obs::global`], so blocking-tier and store instrumentation
    /// aggregates alongside the serving spans.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Full observability snapshot: every span path, counter and value
    /// histogram recorded so far, plus instantaneous state gauges (arena
    /// occupancy, served records/pairs, cache hit rate).
    pub fn obs_snapshot(&self) -> MetricsSnapshot {
        let (hits, misses) = self.cache.lock().expect("cache lock").stats();
        let lookups = hits + misses;
        self.recorder.set_gauge("serve.records", self.records.len() as f64);
        self.recorder.set_gauge("serve.pairs", self.pairs.len() as f64);
        self.recorder
            .set_gauge("serve.arena.rows", self.pinned.first().map_or(0.0, |a| a.n_rows() as f64));
        self.recorder.set_gauge("serve.cache.hits", hits as f64);
        self.recorder.set_gauge("serve.cache.misses", misses as f64);
        self.recorder.set_gauge(
            "serve.cache.hit_rate",
            if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
        );
        self.recorder.set_gauge(
            "serve.cache.flood_rejections",
            self.flood_rejections.load(Ordering::Relaxed) as f64,
        );
        self.recorder.snapshot()
    }

    /// Resolves one query under one intent, returning up to `top_k`
    /// ranked candidates (pair queries return a single candidate).
    pub fn resolve(
        &self,
        query: &ResolveQuery,
        intent: IntentId,
        top_k: usize,
    ) -> Result<ResolveResponse, ServeError> {
        let out = self.resolve_with(query, &[intent], top_k, |t| self.candidate_records(t));
        Ok(out?.pop().expect("one response per requested intent"))
    }

    /// Resolves one query under **every** intent — the flexible-ER answer
    /// shape: one resolution per intent, not one global truth.
    pub fn resolve_all_intents(
        &self,
        query: &ResolveQuery,
        top_k: usize,
    ) -> Result<Vec<ResolveResponse>, ServeError> {
        let intents: Vec<IntentId> = (0..self.n_intents()).collect();
        self.resolve_with(query, &intents, top_k, |t| self.candidate_records(t))
    }

    /// Resolves a batch of queries under one intent, fanning out across
    /// the `flexer-par` thread budget. Results are in query order and
    /// bit-identical to serial resolves.
    pub fn resolve_batch(
        &self,
        queries: &[ResolveQuery],
        intent: IntentId,
        top_k: usize,
    ) -> Vec<Result<ResolveResponse, ServeError>> {
        flexer_par::parallel_map(queries.len(), |i| self.resolve(&queries[i], intent, top_k))
    }

    /// Ingests a new record: creates one candidate pair per **blocked
    /// candidate** (every pre-existing record under
    /// [`ServeConfig::exhaustive`]), embeds the pairs per intent,
    /// **incrementally** inserts the embeddings into the per-layer ANN
    /// indexes, scores each pair inductively under every intent, and makes
    /// the pairs servable. The blocker itself then absorbs the new record.
    ///
    /// Scoring is two-phase: every candidate pair is embedded, localized
    /// and scored against the *pre-ingest* state before anything mutates.
    /// That makes a surviving pair's score independent of which other
    /// pairs this ingest creates — so blocked and exhaustive ingests from
    /// the same service state produce bit-identical scores on the pairs
    /// both create.
    pub fn ingest(&mut self, title: &str) -> IngestReport {
        self.ingest_batch(&[title]).pop().expect("one report per ingested title")
    }

    /// Ingests a batch of records that arrived **together**: every title's
    /// candidate pairs are generated and scored against the pre-batch
    /// state (batch members are not candidates of each other), the
    /// scoring fans out across the `flexer-par` thread budget, and one
    /// serial merge step applies the mutations in input order.
    ///
    /// The batch is *simultaneous*, not a shorthand for sequential
    /// [`ResolutionService::ingest`] calls: scoring against the pre-batch
    /// state is what makes every title's phase-1 work independent (hence
    /// parallel), and it is the semantics a networked router reproduces
    /// bit-identically for any shard count. Results are bit-identical at
    /// any thread count, and a singleton batch is exactly `ingest`.
    pub fn ingest_batch(&mut self, titles: &[&str]) -> Vec<IngestReport> {
        let candidates: Vec<Vec<usize>> = {
            let _span = self.recorder.span("ingest.block");
            flexer_par::parallel_map(titles.len(), |i| self.candidate_records(titles[i]))
        };
        self.ingest_with(titles, candidates)
    }

    /// Ingests a batch whose per-title candidate records were generated
    /// against the pre-batch corpus — by this service's blocking tier, or
    /// by the router's shard fan-out. Phase 1 scores every title's
    /// candidate pairs against the pre-batch state in parallel; phase 2
    /// applies the mutations serially in input order, and the blocking
    /// tier (if held locally) absorbs the titles.
    pub(crate) fn ingest_with(
        &mut self,
        titles: &[&str],
        candidates: Vec<Vec<usize>>,
    ) -> Vec<IngestReport> {
        debug_assert_eq!(titles.len(), candidates.len());
        let pre_batch_records = self.records.len();
        self.recorder.record_value("ingest.batch_titles", titles.len() as u64);

        // Phase 1 (read-only): embed, localize and score each title's
        // candidate pairs against the pre-batch state. Titles are
        // independent by construction, so they fan out; per-title scoring
        // fans out again over candidates (nested regions split the thread
        // budget).
        let scored: Vec<ScoredCandidates> = {
            let _span = self.recorder.span("ingest.score");
            flexer_par::parallel_map(titles.len(), |i| {
                self.score_candidates(titles[i], &candidates[i])
            })
        };

        // Phase 2 (mutate): make the scored pairs servable, in input
        // order — pair ids, pinned rows and ANN inserts all append in the
        // same global sequence a serial ingest of the batch would produce.
        let mut reports = Vec::with_capacity(titles.len());
        {
            // Guard a clone (cheap `Arc` handle) so the span borrow does
            // not pin `self` immutably across the mutating merge.
            let recorder = self.recorder.clone();
            let _span = recorder.span("ingest.merge");
            for ((&title, cands), (embeddings, batch)) in titles.iter().zip(&candidates).zip(scored)
            {
                reports.push(self.apply_scored(title, cands, embeddings, batch, pre_batch_records));
                self.metrics.lock().expect("metrics lock").record_ingest();
            }
            // Global ids are assigned in input order, matching the record
            // ids `apply_scored` just handed out.
            if let Some(blocker) = &mut self.blocker {
                blocker.insert_batch(titles);
            }
        }
        self.recorder
            .set_gauge("serve.arena.rows", self.pinned.first().map_or(0.0, |a| a.n_rows() as f64));
        reports
    }

    /// Phase-1 worker: per-intent embeddings and inductive scores (plus
    /// traces, for pinning) of `title` against each candidate record, all
    /// read-only against the current state. The embedding stage bypasses
    /// the LRU cache: ingest pairs are one-shot keys that would evict the
    /// hot query set without ever being asked for again.
    fn score_candidates(&self, title: &str, candidates: &[usize]) -> ScoredCandidates {
        let titles: Vec<(&str, &str)> =
            candidates.iter().map(|&other| (self.records[other].as_str(), title)).collect();
        let embeddings = self.embed_pairs(&titles, false);
        let intents: Vec<IntentId> = (0..self.n_intents()).collect();
        let scored = if self.config.reference_scoring {
            // Independent per candidate: fan out, each candidate runs the
            // exact serial scoring kernel, so results are bit-identical at
            // any thread count.
            ScoredBatch::Reference(flexer_par::parallel_map(embeddings.len(), |j| {
                let neighbors = self.neighbors_of(&embeddings[j]);
                intents
                    .iter()
                    .map(|&p| self.score_pair_inductive(&embeddings[j], &neighbors, p))
                    .collect()
            }))
        } else {
            ScoredBatch::Batched(self.score_pairs_batched(&embeddings, &intents))
        };
        (embeddings, scored)
    }

    /// Phase-2 worker: appends one scored record's pairs to the serving
    /// state. `suppress_base` is the corpus size the candidates were
    /// generated against (the pre-batch watermark).
    fn apply_scored(
        &mut self,
        title: &str,
        candidates: &[usize],
        embeddings: Vec<Arc<PairEmbedding>>,
        scored: ScoredBatch,
        suppress_base: usize,
    ) -> IngestReport {
        let record = self.records.len();
        let first_pair = self.pairs.len();
        let p_intents = self.n_intents();
        match scored {
            ScoredBatch::Reference(per_pair) => {
                for (j, (per_intent, &other)) in per_pair.into_iter().zip(candidates).enumerate() {
                    for (p, (score, trace)) in per_intent.into_iter().enumerate() {
                        self.scores[p].push(score);
                        for t in 0..self.pinned[p].depths() {
                            for q in 0..p_intents {
                                self.pinned[p].push_row(t, q, trace.hidden[t].row(q));
                            }
                        }
                        self.pinned[p].add_rows(1);
                    }
                    self.append_pair(other, record, &embeddings[j]);
                }
            }
            ScoredBatch::Batched(traces) => {
                for (j, &other) in candidates.iter().enumerate() {
                    for (p, trace) in traces.iter().enumerate() {
                        self.scores[p].push(trace.score(j, p));
                        for t in 0..self.pinned[p].depths() {
                            for q in 0..p_intents {
                                self.pinned[p].push_row(t, q, trace.candidate_hidden(t, j, q));
                            }
                        }
                        self.pinned[p].add_rows(1);
                    }
                    self.append_pair(other, record, &embeddings[j]);
                }
            }
        }
        self.records.push(title.to_string());
        IngestReport {
            record,
            first_pair,
            n_pairs: candidates.len(),
            n_suppressed: suppress_base - candidates.len(),
        }
    }

    /// Makes one scored pair servable: its per-intent embedding rows join
    /// the ANN indexes and it gets the next dense pair id.
    fn append_pair(&mut self, other: usize, record: usize, emb: &PairEmbedding) {
        for (q, index) in self.indexes.iter_mut().enumerate() {
            index.add(emb.row(q));
        }
        self.pairs.push((DenseRecordId::new(other), DenseRecordId::new(record)));
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The record ids a new title is paired against: the shard fan-out /
    /// merge, or every stored record when the backend is exhaustive or
    /// bypassed by [`ServeConfig::exhaustive`].
    fn candidate_records(&self, title: &str) -> Vec<usize> {
        match &self.blocker {
            Some(blocker) if !self.config.exhaustive => {
                blocker.candidates(title).unwrap_or_else(|| (0..self.records.len()).collect())
            }
            _ => (0..self.records.len()).collect(),
        }
    }

    /// Resolves `query` under `intents`, drawing a record query's
    /// candidate records from `candidates` — this service's blocking tier,
    /// or the router's shard fan-out, which is bit-identical for any shard
    /// count. Records one latency sample; errors count as resolves too,
    /// so the counters stay comparable across endpoints.
    pub(crate) fn resolve_with(
        &self,
        query: &ResolveQuery,
        intents: &[IntentId],
        top_k: usize,
        candidates: impl FnOnce(&str) -> Vec<usize>,
    ) -> Result<Vec<ResolveResponse>, ServeError> {
        let t0 = Instant::now();
        let out = self.resolve_intents(query, intents, top_k, candidates);
        self.metrics.lock().expect("metrics lock").record_resolve(t0.elapsed());
        out
    }

    fn resolve_intents(
        &self,
        query: &ResolveQuery,
        intents: &[IntentId],
        top_k: usize,
        candidates: impl FnOnce(&str) -> Vec<usize>,
    ) -> Result<Vec<ResolveResponse>, ServeError> {
        let p_total = self.n_intents();
        for &p in intents {
            if p >= p_total {
                return Err(ServeError::IntentOutOfRange(p, p_total));
            }
        }
        match query {
            ResolveQuery::CorpusPair(pair) => {
                if *pair >= self.pairs.len() {
                    return Err(ServeError::UnknownPair(*pair, self.pairs.len()));
                }
                Ok(intents
                    .iter()
                    .map(|&p| {
                        let score = self.scores[p][*pair];
                        ResolveResponse {
                            intent: p,
                            matches: vec![RankedMatch {
                                target: MatchTarget::Pair(*pair),
                                score,
                                matched: score > 0.5,
                            }],
                        }
                    })
                    .collect())
            }
            ResolveQuery::TitlePair(a, b) => {
                let embs = {
                    let _span = self.recorder.span("resolve.embed");
                    self.embed_pairs(&[(a.as_str(), b.as_str())], true)
                };
                let _span = self.recorder.span("resolve.forward");
                let scores: Vec<f32> = if self.config.reference_scoring {
                    let neighbors = self.neighbors_of(&embs[0]);
                    intents
                        .iter()
                        .map(|&p| self.score_pair_inductive(&embs[0], &neighbors, p).0)
                        .collect()
                } else {
                    let traces = self.score_pairs_batched(&embs, intents);
                    traces.iter().zip(intents).map(|(t, &p)| t.score(0, p)).collect()
                };
                drop(_span);
                Ok(intents
                    .iter()
                    .zip(scores)
                    .map(|(&p, score)| ResolveResponse {
                        intent: p,
                        matches: vec![RankedMatch {
                            target: MatchTarget::AdHoc,
                            score,
                            matched: score > 0.5,
                        }],
                    })
                    .collect())
            }
            ResolveQuery::Record(title) => {
                // Query-driven collective ER: pair the query against its
                // blocked candidates (every served record when exhaustive)
                // and rank.
                let candidates = {
                    let _span = self.recorder.span("resolve.block");
                    candidates(title)
                };
                self.ctr_resolve_candidates.add(candidates.len() as u64);
                let titles: Vec<(&str, &str)> = candidates
                    .iter()
                    .map(|&r| (self.records[r].as_str(), title.as_str()))
                    .collect();
                let embeddings = {
                    let _span = self.recorder.span("resolve.embed");
                    self.embed_pairs(&titles, true)
                };
                // `scores[pi][j]`: requested intent `pi`, candidate `j`.
                let fwd_span = self.recorder.span("resolve.forward");
                let scores: Vec<Vec<f32>> = if self.config.reference_scoring {
                    // Independent per candidate: fan out, each candidate
                    // runs the exact serial scoring, so results are
                    // bit-identical at any thread count.
                    let per_candidate: Vec<Vec<f32>> =
                        flexer_par::parallel_map(embeddings.len(), |j| {
                            let neighbors = self.neighbors_of(&embeddings[j]);
                            intents
                                .iter()
                                .map(|&p| {
                                    self.score_pair_inductive(&embeddings[j], &neighbors, p).0
                                })
                                .collect()
                        });
                    (0..intents.len())
                        .map(|pi| per_candidate.iter().map(|s| s[pi]).collect())
                        .collect()
                } else {
                    let traces = self.score_pairs_batched(&embeddings, intents);
                    traces
                        .iter()
                        .zip(intents)
                        .map(|(trace, &p)| {
                            (0..candidates.len()).map(|j| trace.score(j, p)).collect()
                        })
                        .collect()
                };
                drop(fwd_span);
                let _span = self.recorder.span("resolve.rank");
                Ok(intents
                    .iter()
                    .enumerate()
                    .map(|(pi, &p)| {
                        let mut ranked: Vec<RankedMatch> = scores[pi]
                            .iter()
                            .zip(&candidates)
                            .map(|(&score, &r)| RankedMatch {
                                target: MatchTarget::Record(r),
                                score,
                                matched: score > 0.5,
                            })
                            .collect();
                        ranked.sort_by(|x, y| {
                            y.score
                                .partial_cmp(&x.score)
                                .expect("scores are finite")
                                .then_with(|| x.target.cmp_key().cmp(&y.target.cmp_key()))
                        });
                        ranked.truncate(top_k);
                        ResolveResponse { intent: p, matches: ranked }
                    })
                    .collect())
            }
        }
    }

    /// Per-intent embeddings of title pairs; misses are featurized and run
    /// through all P matchers as one batch. Takes borrowed titles so
    /// corpus-sized callers (ingest, record queries) never clone the
    /// stored record strings.
    ///
    /// `use_cache` routes the batch through the hot-pair LRU (resolve
    /// traffic, where repeats are the point). Ingest passes `false`: its
    /// `(stored record, new title)` keys are one-shot — the new title is
    /// about to *become* a record, so the same pairing never recurs as a
    /// query — and caching them both serialized parallel phase-1 workers
    /// on the cache lock and evicted the genuinely hot entries. That
    /// eviction churn is why blocked ingest used to *lose* to exhaustive
    /// at small corpus sizes.
    fn embed_pairs(&self, titles: &[(&str, &str)], use_cache: bool) -> Vec<Arc<PairEmbedding>> {
        let mut out: Vec<Option<Arc<PairEmbedding>>> = vec![None; titles.len()];
        let mut misses: Vec<usize> = Vec::new();
        if use_cache {
            // One lock pass covers the lookups *and* the hit/miss counters
            // (the cache counts its own traffic); an all-hit batch touches
            // no other lock and allocates nothing — keys are fixed-width
            // hashes and values are shared `Arc`s.
            let mut cache = self.cache.lock().expect("cache lock");
            for (i, (a, b)) in titles.iter().enumerate() {
                match cache.get(&PairKey::new(a, b)) {
                    Some(emb) => out[i] = Some(Arc::clone(emb)),
                    None => misses.push(i),
                }
            }
        } else {
            misses.extend(0..titles.len());
        }
        if !misses.is_empty() {
            let featurizer = &self.snapshot.featurizer;
            let df = &self.snapshot.df;
            let mut features = SparseMatrix::with_cols(featurizer.total_dim());
            // Pre-size from the candidate count: a feature row lands well
            // under 128 non-zeros, so one reservation covers the batch.
            features.reserve(misses.len(), misses.len() * 128);
            let mut row: Vec<(u32, f32)> = Vec::with_capacity(128);
            // The right-hand title is the same across a record query's (or
            // an ingest's) whole candidate batch — prepare and hash its
            // side once per candidate set, not once per probe.
            // `prepare_side` is a pure function of the title, so memoizing
            // by string equality cannot change any feature.
            let mut prepared_b: Option<(&str, flexer_matcher::PreparedSide)> = None;
            for &i in &misses {
                let (a, b) = titles[i];
                let ta = featurizer.prepare(a, df);
                if prepared_b.as_ref().map(|(t, _)| *t) != Some(b) {
                    prepared_b = Some((b, featurizer.prepare_side(b, df)));
                }
                let (_, side) = prepared_b.as_ref().expect("just filled");
                featurizer.features_into_prepared(&ta, side, &mut row);
                features.push_row_unsorted(&mut row);
            }
            let per_intent: Vec<Matrix> =
                self.snapshot.matchers.iter().map(|m| m.infer(&features).embeddings).collect();
            let dim = self.snapshot.graph.dim;
            let built: Vec<Arc<PairEmbedding>> = (0..misses.len())
                .map(|j| {
                    let mut emb = Matrix::zeros(per_intent.len(), dim);
                    for (q, e) in per_intent.iter().enumerate() {
                        emb.row_mut(q).copy_from_slice(e.row(j));
                    }
                    Arc::new(emb)
                })
                .collect();
            // Flood guard: a miss batch that would occupy more than half
            // the cache (a corpus-sized record query) would evict the
            // entire hot set for entries of mostly one-shot keys — compute
            // but skip caching those. The capacity is config, so the guard
            // itself needs no lock.
            if use_cache {
                if misses.len() <= self.config.cache_capacity / 2 {
                    let mut cache = self.cache.lock().expect("cache lock");
                    for (&i, emb) in misses.iter().zip(&built) {
                        let (a, b) = &titles[i];
                        cache.insert(PairKey::new(a, b), Arc::clone(emb));
                    }
                } else {
                    self.flood_rejections.fetch_add(misses.len() as u64, Ordering::Relaxed);
                }
            }
            for (&i, emb) in misses.iter().zip(built) {
                out[i] = Some(emb);
            }
        }
        out.into_iter().map(|e| e.expect("every slot filled")).collect()
    }

    /// Per-layer k-NN pair ids of a new pair's embedding (rank order).
    fn neighbors_of(&self, emb: &PairEmbedding) -> Vec<Vec<usize>> {
        let k = self.snapshot.k;
        self.indexes
            .iter()
            .enumerate()
            .map(|(q, index)| index.search(emb.row(q), k).into_iter().map(|h| h.id).collect())
            .collect()
    }

    /// Scores a batch of new pairs under every requested intent with one
    /// GNN forward per intent — the data-oriented hot path. Per-candidate
    /// ANN localization runs as one query-blocked pass over each layer's
    /// index (groups of candidates share every cache-hot index block; each
    /// per-query result is bitwise equal to the single-query kernel — the
    /// flat batch-search contract), the neighbour ids are flattened into
    /// one arena, the candidates' embeddings are stacked into one
    /// `(B·P) × dim` feature matrix, and stored states are *sliced* from
    /// the pinned arenas and index buffers — no per-candidate gather
    /// matrices, no per-candidate graph builds. Bit-identical to the
    /// reference kernel for every candidate (`flexer-graph`'s batch
    /// contract).
    fn score_pairs_batched(
        &self,
        embeddings: &[Arc<PairEmbedding>],
        intents: &[IntentId],
    ) -> Vec<BatchInductiveTrace> {
        let p_total = self.n_intents();
        let dim = self.snapshot.graph.dim;
        let b = embeddings.len();
        self.ctr_forward_rows.add((b * p_total) as u64);
        // Localize the whole batch one layer at a time: each layer's index
        // is streamed once per group of candidates instead of once per
        // candidate, and every per-query result stays bitwise equal to the
        // reference path's single-query `search`. The kernel toggle gates
        // this too, so toggling it off reproduces the full reference hot
        // path (per-candidate scans + naive matmul) for benchmarking.
        let k = self.snapshot.k;
        // Explicit flat paths (not nested spans): a dotted child of
        // `resolve.forward` would be double-counted by the prefix-summing
        // `span_sum_ns` the stage-coverage checks rely on.
        let t_localize = std::time::Instant::now();
        let neighbors: Vec<Vec<Vec<usize>>> = if flexer_nn::kernels::packed_kernels_enabled() {
            let mut by_layer: Vec<std::vec::IntoIter<Vec<usize>>> = self
                .indexes
                .iter()
                .enumerate()
                .map(|(q, index)| {
                    let queries: Vec<&[f32]> = embeddings.iter().map(|e| e.row(q)).collect();
                    index
                        .search_batch(&queries, k)
                        .into_iter()
                        .map(|hits| hits.into_iter().map(|h| h.id).collect::<Vec<usize>>())
                        .collect::<Vec<_>>()
                        .into_iter()
                })
                .collect();
            (0..b)
                .map(|_| {
                    by_layer.iter_mut().map(|it| it.next().expect("b lists per layer")).collect()
                })
                .collect()
        } else {
            flexer_par::parallel_map(b, |j| self.neighbors_of(&embeddings[j]))
        };
        self.recorder.record_span_ns("forward.localize", t_localize.elapsed().as_nanos() as u64);
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let BatchScratch { ids, offsets, features } = &mut *scratch;
            // Pre-size every gather buffer from the candidate count so a
            // batch bigger than any seen before grows each vector at most
            // once instead of amortizing doublings mid-loop.
            ids.clear();
            ids.reserve(b * p_total * self.snapshot.k);
            offsets.clear();
            offsets.reserve(b * p_total + 1);
            offsets.push(0);
            for per_layer in &neighbors {
                for list in per_layer {
                    ids.extend(list.iter().map(|&id| id as u32));
                    offsets.push(ids.len());
                }
            }
            features.clear();
            features.reserve(b * p_total * dim);
            for emb in embeddings {
                features.extend_from_slice(emb.data());
            }
            let stacked = Matrix::from_vec(b * p_total, dim, std::mem::take(features));
            let arena = NeighborArena::new(ids, offsets, p_total);
            let t_gnn = std::time::Instant::now();
            let traces = intents
                .iter()
                .map(|&p| {
                    let model = &self.snapshot.trained[p].model;
                    let sources: Vec<Vec<RowSource<'_>>> = (0..model.n_layers())
                        .map(|t| {
                            (0..p_total)
                                .map(|q| {
                                    if t == 0 {
                                        RowSource::new(self.indexes[q].data(), dim)
                                    } else {
                                        self.pinned[p].source(t - 1, q)
                                    }
                                })
                                .collect()
                        })
                        .collect();
                    model.forward_inductive_batch(&stacked, &arena, &sources)
                })
                .collect();
            self.recorder.record_span_ns("forward.gnn", t_gnn.elapsed().as_nanos() as u64);
            *features = stacked.into_vec();
            traces
        })
    }

    /// Scores one new pair under one intent's frozen GNN — the reference
    /// kernel ([`ServeConfig::reference_scoring`]) the batched path is
    /// verified against; returns the match likelihood and the full
    /// inductive trace (for ingest).
    fn score_pair_inductive(
        &self,
        emb: &PairEmbedding,
        neighbors: &[Vec<usize>],
        intent: IntentId,
    ) -> (f32, flexer_graph::InductiveTrace) {
        let p_total = self.n_intents();
        let dim = self.snapshot.graph.dim;
        let model = &self.snapshot.trained[intent].model;
        let neighbor_inputs: Vec<Vec<Matrix>> = (0..model.n_layers())
            .map(|t| {
                (0..p_total)
                    .map(|q| {
                        let ids = &neighbors[q];
                        let d = if t == 0 { dim } else { self.pinned[intent].dim(t - 1) };
                        let mut m = Matrix::zeros(ids.len(), d);
                        for (row, &id) in ids.iter().enumerate() {
                            let src = if t == 0 {
                                self.indexes[q].vector(id)
                            } else {
                                self.pinned[intent].row(t - 1, q, id)
                            };
                            m.row_mut(row).copy_from_slice(src);
                        }
                        m
                    })
                    .collect()
            })
            .collect();
        let trace = model.forward_inductive(emb, &neighbor_inputs);
        let score = trace.scores()[intent];
        (score, trace)
    }
}

/// Fixed-width hashed cache key of a title pair: two independent 64-bit
/// FNV-1a streams over the **length-prefixed** encoding
/// `len(a) ‖ a ‖ b`. The length prefix keeps the encoding injective
/// (`("x·y", "z")` and `("x", "y·z")` hash different byte streams no
/// matter what characters the titles contain), and 128 hashed bits make an
/// accidental collision astronomically unlikely at cache scale. Unlike the
/// old `String` key, building one allocates nothing — the cache-hit fast
/// path is heap-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PairKey(u128);

impl PairKey {
    fn new(a: &str, b: &str) -> Self {
        let mut h1: u64 = 0xcbf29ce484222325;
        let mut h2: u64 = 0x84222325cbf29ce4;
        let len = (a.len() as u64).to_le_bytes();
        for &byte in len.iter().chain(a.as_bytes()).chain(b.as_bytes()) {
            h1 = (h1 ^ u64::from(byte)).wrapping_mul(0x100000001b3);
            h2 = (h2 ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
        Self((u128::from(h1) << 64) | u128::from(h2))
    }
}

/// Deterministic ordering key for ranked-match tie-breaking.
trait TargetKey {
    fn cmp_key(&self) -> usize;
}

impl TargetKey for MatchTarget {
    fn cmp_key(&self) -> usize {
        match self {
            MatchTarget::Record(r) => *r,
            MatchTarget::Pair(p) => *p,
            MatchTarget::AdHoc => usize::MAX,
        }
    }
}
