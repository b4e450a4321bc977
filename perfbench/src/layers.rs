//! The traced run's layer replay and the isolated per-layer probes.
//!
//! [`Shadow`] replays the block, matcher and ANN stages of each served op
//! through those layers' public functions, on the same inputs and against
//! state kept in step with the service: a clone of the snapshot's blocker
//! and per-intent ANN indexes (grown exactly as ingest grows the
//! service's), and an LRU of the service's capacity fed the same key
//! sequence, so the replay embeds exactly the pairs the service missed.

use crate::trace::{SpanId, Tracer};
use flexer::ann::{AnyIndex, VectorIndex};
use flexer::block::BlockerState;
use flexer::nn::kernels::matmul_packed_into;
use flexer::nn::{Epilogue, Matrix, PackedB, SparseMatrix};
use flexer::serve::LruCache;
use flexer::store::ModelSnapshot;
use std::sync::Arc;
use std::time::Instant;

/// Summed replay work and time of one stage set.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTotals {
    pub ops: u64,
    pub candidates: u64,
    pub block_ns: u64,
    pub insert_ns: u64,
    pub inserts: u64,
    pub pairs_embedded: u64,
    pub featurize_ns: u64,
    pub infer_ns: u64,
    pub ann_ns: u64,
    /// True Equivalence matches of the replayed queries, and how many of
    /// them the blocker kept.
    pub golden_total: u64,
    pub golden_kept: u64,
}

impl StageTotals {
    /// Summed replayed block, matcher and ANN time, in nanoseconds.
    pub fn stages_ns(&self) -> u64 {
        self.block_ns + self.featurize_ns + self.infer_ns + self.ann_ns
    }
}

pub struct Shadow {
    snapshot: ModelSnapshot,
    blocker: BlockerState,
    indexes: Vec<AnyIndex>,
    /// The snapshot's corpus titles, then every replayed ingest in order.
    records: Vec<String>,
    cache: LruCache<u128, Arc<Matrix>>,
    capacity: usize,
    pub resolves: StageTotals,
    pub ingests: StageTotals,
    /// Cache lookups the replay counted (hits, misses), to check against
    /// the service's own counters.
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Fixed-width key of a (stored record, query) title pair.
fn pair_key(a: &str, b: &str) -> u128 {
    let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h2: u64 = 0x8422_2325_cbf2_9ce4;
    let len = (a.len() as u64).to_le_bytes();
    for &byte in len.iter().chain(a.as_bytes()).chain(b.as_bytes()) {
        h1 = (h1 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        h2 = (h2 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    (u128::from(h1) << 64) | u128::from(h2)
}

impl Shadow {
    /// A shadow of a service freshly loaded from `snapshot` with an
    /// embedding cache of `capacity` entries.
    pub fn new(snapshot: &ModelSnapshot, capacity: usize) -> Self {
        Self {
            blocker: snapshot.blocker.clone(),
            indexes: snapshot.indexes.clone(),
            records: snapshot.records.clone(),
            cache: LruCache::new(capacity),
            capacity,
            snapshot: snapshot.clone(),
            resolves: StageTotals::default(),
            ingests: StageTotals::default(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Returns the replayed state to the snapshot's, as a freshly loaded
    /// service starts; the replay totals are kept.
    pub fn reset(&mut self) {
        self.blocker = self.snapshot.blocker.clone();
        self.indexes = self.snapshot.indexes.clone();
        self.records = self.snapshot.records.clone();
        self.cache = LruCache::new(self.capacity);
    }

    /// Rows in each shadow ANN index (the service's pair count).
    pub fn index_rows(&self) -> usize {
        self.indexes.first().map_or(0, |i| i.len())
    }

    fn candidates(&self, title: &str) -> Vec<usize> {
        self.blocker.candidates(title).unwrap_or_else(|| (0..self.records.len()).collect())
    }

    /// Featurizes and embeds `(record, title)` pairs under every intent,
    /// one `P × dim` matrix per pair.
    fn embed(
        &self,
        titles: &[(&str, &str)],
        tracer: &mut Tracer,
        parent: SpanId,
        request: u64,
        totals: &mut StageTotals,
    ) -> Vec<Arc<Matrix>> {
        if titles.is_empty() {
            return Vec::new();
        }
        let snap = &self.snapshot;
        let (features, ns) = tracer.time("matcher.featurize", Some(parent), request, || {
            let mut features = SparseMatrix::with_cols(snap.featurizer.total_dim());
            let mut row = Vec::with_capacity(128);
            let side = snap.featurizer.prepare_side(titles[0].1, &snap.df);
            for (a, b) in titles {
                debug_assert_eq!(*b, titles[0].1, "one query title per batch");
                let ta = snap.featurizer.prepare(a, &snap.df);
                snap.featurizer.features_into_prepared(&ta, &side, &mut row);
                features.push_row_unsorted(&mut row);
            }
            features
        });
        totals.featurize_ns += ns;
        let (per_intent, ns) = tracer.time("matcher.infer", Some(parent), request, || {
            snap.matchers.iter().map(|m| m.infer(&features).embeddings).collect::<Vec<_>>()
        });
        totals.infer_ns += ns;
        totals.pairs_embedded += titles.len() as u64;
        let dim = snap.graph.dim;
        (0..titles.len())
            .map(|j| {
                let mut emb = Matrix::zeros(per_intent.len(), dim);
                for (q, e) in per_intent.iter().enumerate() {
                    emb.row_mut(q).copy_from_slice(e.row(j));
                }
                Arc::new(emb)
            })
            .collect()
    }

    /// k-NN localization of a candidate batch in every intent layer.
    fn localize(
        &self,
        embeddings: &[Arc<Matrix>],
        tracer: &mut Tracer,
        parent: SpanId,
        request: u64,
        totals: &mut StageTotals,
    ) {
        let k = self.snapshot.k;
        let (_, ns) = tracer.time("ann.search_batch", Some(parent), request, || {
            for (q, index) in self.indexes.iter().enumerate() {
                let queries: Vec<&[f32]> = embeddings.iter().map(|e| e.row(q)).collect();
                std::hint::black_box(index.search_batch(&queries, k));
            }
        });
        totals.ann_ns += ns;
    }

    /// Replays one record resolve; returns its candidate count.
    /// `true_matches` are the query's true Equivalence matches, for the
    /// blocker's golden recall.
    pub fn resolve(
        &mut self,
        title: &str,
        true_matches: &[usize],
        tracer: &mut Tracer,
        parent: SpanId,
        request: u64,
    ) -> usize {
        let mut totals = self.resolves;
        let (candidates, ns) =
            tracer.time("block.candidates", Some(parent), request, || self.candidates(title));
        totals.block_ns += ns;
        totals.candidates += candidates.len() as u64;
        totals.golden_total += true_matches.len() as u64;
        totals.golden_kept +=
            true_matches.iter().filter(|r| candidates.binary_search(r).is_ok()).count() as u64;

        // The service's cache protocol: look every pair up, embed the
        // misses as one batch, cache them unless the batch would flood
        // more than half the cache.
        let titles: Vec<(&str, &str)> =
            candidates.iter().map(|&r| (self.records[r].as_str(), title)).collect();
        let keys: Vec<u128> = titles.iter().map(|(a, b)| pair_key(a, b)).collect();
        let mut out: Vec<Option<Arc<Matrix>>> =
            keys.iter().map(|k| self.cache.get(k).cloned()).collect();
        let misses: Vec<usize> = (0..out.len()).filter(|&i| out[i].is_none()).collect();
        self.cache_hits += (out.len() - misses.len()) as u64;
        self.cache_misses += misses.len() as u64;
        let miss_titles: Vec<(&str, &str)> = misses.iter().map(|&i| titles[i]).collect();
        let built = self.embed(&miss_titles, tracer, parent, request, &mut totals);
        let cache_them = misses.len() <= self.capacity / 2;
        for (&i, emb) in misses.iter().zip(built) {
            if cache_them {
                self.cache.insert(keys[i], Arc::clone(&emb));
            }
            out[i] = Some(emb);
        }
        let embeddings: Vec<Arc<Matrix>> =
            out.into_iter().map(|e| e.expect("every slot filled")).collect();
        self.localize(&embeddings, tracer, parent, request, &mut totals);
        totals.ops += 1;
        self.resolves = totals;
        candidates.len()
    }

    /// Replays one simultaneous ingest batch: candidates and scoring
    /// inputs against the pre-batch state, then the in-order merge that
    /// grows the ANN indexes and the blocker. Returns each title's
    /// candidate count.
    pub fn ingest_batch(
        &mut self,
        titles: &[&str],
        tracer: &mut Tracer,
        parent: SpanId,
        request: u64,
    ) -> Vec<usize> {
        let mut totals = self.ingests;
        let (candidates, ns) = tracer.time("block.candidates", Some(parent), request, || {
            titles.iter().map(|t| self.candidates(t)).collect::<Vec<_>>()
        });
        totals.block_ns += ns;
        let mut embedded = Vec::with_capacity(titles.len());
        for (title, cands) in titles.iter().zip(&candidates) {
            totals.candidates += cands.len() as u64;
            let pairs: Vec<(&str, &str)> =
                cands.iter().map(|&r| (self.records[r].as_str(), *title)).collect();
            let embeddings = self.embed(&pairs, tracer, parent, request, &mut totals);
            self.localize(&embeddings, tracer, parent, request, &mut totals);
            embedded.push(embeddings);
        }
        for (title, embeddings) in titles.iter().zip(embedded) {
            for emb in &embeddings {
                for (q, index) in self.indexes.iter_mut().enumerate() {
                    index.add(emb.row(q));
                }
            }
            self.records.push(title.to_string());
            let (_, ns) =
                tracer.time("block.insert", Some(parent), request, || self.blocker.insert(title));
            totals.insert_ns += ns;
            totals.inserts += 1;
        }
        totals.ops += 1;
        self.ingests = totals;
        candidates.iter().map(Vec::len).collect()
    }
}

/// GEMM FLOPs of one candidate's inductive forward under every intent's
/// GNN, from the loaded models' weight shapes: per intent model, each
/// GraphSAGE layer and the head multiply `P` rows (one per intent layer)
/// by an `in × out` weight. Aggregation adds and the matcher are excluded.
pub fn gnn_flops_per_candidate(snapshot: &ModelSnapshot) -> f64 {
    let p = snapshot.n_intents() as f64;
    snapshot
        .trained
        .iter()
        .map(|t| {
            let layers: f64 = t
                .model
                .sage_layers()
                .iter()
                .map(|l| (l.linear().in_dim() * l.linear().out_dim()) as f64)
                .sum();
            let head = (t.model.head().in_dim() * t.model.head().out_dim()) as f64;
            2.0 * p * (layers + head)
        })
        .sum()
}

/// Achieved GFLOP/s of the packed GEMM at the shapes the loaded models'
/// batched forwards hit for a query of `candidates` candidates: `P ×
/// candidates` rows through every GraphSAGE layer's packed weights. Runs
/// for about `budget` seconds.
pub fn gemm_gflops(snapshot: &ModelSnapshot, candidates: usize, budget: f64) -> f64 {
    let rows = (snapshot.n_intents() * candidates).max(1);
    let shapes: Vec<(Matrix, PackedB, Vec<f32>)> = snapshot.trained[0]
        .model
        .sage_layers()
        .iter()
        .map(|l| {
            let w = &l.linear().w;
            let a = Matrix::from_fn(rows, w.rows(), |i, j| ((i * 31 + j * 17) % 97) as f32 / 97.0);
            (a, PackedB::pack(w), l.linear().b.clone())
        })
        .collect();
    let flops_per_pass: f64 =
        shapes.iter().map(|(a, b, _)| 2.0 * (a.rows() * a.cols() * b.cols()) as f64).sum();
    let mut out = Matrix::zeros(0, 0);
    let t0 = Instant::now();
    let mut passes = 0u64;
    while passes < 3 || t0.elapsed().as_secs_f64() < budget {
        for (a, b, bias) in &shapes {
            matmul_packed_into(std::hint::black_box(a), b, Epilogue::BiasRelu(bias), &mut out);
            std::hint::black_box(&out);
        }
        passes += 1;
    }
    flops_per_pass * passes as f64 / t0.elapsed().as_secs_f64() / 1e9
}

/// Median wall time of an empty `flexer_par::parallel_map` region at the
/// default thread budget, in microseconds.
pub fn par_region_us(reps: usize) -> f64 {
    let n = flexer::par::max_threads();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(flexer::par::parallel_map(n, std::hint::black_box));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
