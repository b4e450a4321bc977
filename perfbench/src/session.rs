//! One in-process service under measurement: every op is timed, and in a
//! traced window also wrapped in a span and followed by its layer replay
//! (see [`crate::layers::Shadow`]).

use crate::fixture::TOP_K;
use crate::layers::Shadow;
use crate::stats::OpCount;
use crate::trace::Tracer;
use flexer::obs::Recorder;
use flexer::serve::{IngestReport, ResolutionService, ServeMetrics, ShardedResolutionService};
use flexer::types::{ResolveQuery, ResolveResponse};
use std::time::Instant;

/// The in-process front-ends the workloads drive.
pub trait Frontend {
    /// Resolves a record query under one intent, or all when `None`.
    fn resolve_op(
        &self,
        title: &str,
        intent: Option<usize>,
    ) -> Result<Vec<ResolveResponse>, String>;
    fn ingest_op(&mut self, titles: &[&str]) -> Vec<IngestReport>;
    fn recorder(&self) -> &Recorder;
    fn n_pairs(&self) -> usize;
}

impl Frontend for ResolutionService {
    fn resolve_op(
        &self,
        title: &str,
        intent: Option<usize>,
    ) -> Result<Vec<ResolveResponse>, String> {
        let query = ResolveQuery::record(title);
        match intent {
            None => self.resolve_all_intents(&query, TOP_K),
            Some(p) => self.resolve(&query, p, TOP_K).map(|r| vec![r]),
        }
        .map_err(|e| e.to_string())
    }

    fn ingest_op(&mut self, titles: &[&str]) -> Vec<IngestReport> {
        self.ingest_batch(titles)
    }

    fn recorder(&self) -> &Recorder {
        ResolutionService::recorder(self)
    }

    fn n_pairs(&self) -> usize {
        ResolutionService::n_pairs(self)
    }
}

impl Frontend for ShardedResolutionService {
    fn resolve_op(
        &self,
        title: &str,
        intent: Option<usize>,
    ) -> Result<Vec<ResolveResponse>, String> {
        let query = ResolveQuery::record(title);
        match intent {
            None => self.resolve_all_intents(&query, TOP_K),
            Some(p) => self.resolve(&query, p, TOP_K).map(|r| vec![r]),
        }
        .map_err(|e| e.to_string())
    }

    fn ingest_op(&mut self, titles: &[&str]) -> Vec<IngestReport> {
        self.ingest_batch(titles)
    }

    fn recorder(&self) -> &Recorder {
        ShardedResolutionService::recorder(self)
    }

    fn n_pairs(&self) -> usize {
        ShardedResolutionService::n_pairs(self)
    }
}

/// The service's own stage spans and counters, read around each traced
/// resolve so they can be attributed to resolves alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgramStages {
    /// `resolve.forward`: localization + gather + GNN of a record query.
    pub forward_ns: u64,
    /// `forward.gnn`: the batched GNN forwards alone.
    pub gnn_ns: u64,
    pub rank_ns: u64,
    /// `serve.forward.rows`: rows fed to the batched forward.
    pub forward_rows: u64,
}

impl ProgramStages {
    fn read(recorder: &Recorder) -> Self {
        let sum = |path: &str| recorder.span_histogram(path).map_or(0, |h| h.sum());
        Self {
            forward_ns: sum("resolve.forward"),
            gnn_ns: sum("forward.gnn"),
            rank_ns: sum("resolve.rank"),
            forward_rows: recorder.counter("serve.forward.rows").get(),
        }
    }

    fn add_delta(&mut self, before: &Self, after: &Self) {
        self.forward_ns += after.forward_ns - before.forward_ns;
        self.gnn_ns += after.gnn_ns - before.gnn_ns;
        self.rank_ns += after.rank_ns - before.rank_ns;
        self.forward_rows += after.forward_rows - before.forward_rows;
    }
}

/// Tracing state of a traced window; it outlives the episodes' services.
pub struct Traced {
    pub tracer: Tracer,
    pub shadow: Shadow,
    /// Program stages summed over the traced resolves.
    pub program: ProgramStages,
    /// Ingest batches whose replayed candidate counts or index rows
    /// disagreed with the service.
    pub shadow_mismatches: u64,
    next_request: u64,
}

impl Traced {
    pub fn new(shadow: Shadow) -> Self {
        Self {
            tracer: Tracer::new(),
            shadow,
            program: ProgramStages::default(),
            shadow_mismatches: 0,
            next_request: 0,
        }
    }
}

/// Samples of a window's measured ops.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    pub resolve_ms: Vec<f64>,
    pub resolve_wall_s: f64,
    pub ingest_ms: Vec<f64>,
    pub ingest_wall_s: f64,
    pub ingested: u64,
    pub resolves: OpCount,
    pub ingests: OpCount,
}

impl Samples {
    pub fn merge(&mut self, other: Samples) {
        self.resolve_ms.extend(other.resolve_ms);
        self.resolve_wall_s += other.resolve_wall_s;
        self.ingest_ms.extend(other.ingest_ms);
        self.ingest_wall_s += other.ingest_wall_s;
        self.ingested += other.ingested;
        self.resolves.merge(other.resolves);
        self.ingests.merge(other.ingests);
    }

    /// Time spent inside measured ops.
    pub fn busy_s(&self) -> f64 {
        self.resolve_wall_s + self.ingest_wall_s
    }
}

/// Embedding-cache traffic between two metric reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheDelta {
    pub hits: u64,
    pub misses: u64,
    pub flood_rejections: u64,
}

impl CacheDelta {
    pub fn add(&mut self, m0: &ServeMetrics, m1: &ServeMetrics) {
        self.hits += m1.cache_hits - m0.cache_hits;
        self.misses += m1.cache_misses - m0.cache_misses;
        self.flood_rejections += m1.flood_rejections - m0.flood_rejections;
    }

    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// A front-end plus the samples of its measured ops.
pub struct Session<'t, F: Frontend> {
    pub frontend: F,
    pub traced: Option<&'t mut Traced>,
    pub samples: Samples,
}

impl<'t, F: Frontend> Session<'t, F> {
    pub fn new(frontend: F, traced: Option<&'t mut Traced>) -> Self {
        Self { frontend, traced, samples: Samples::default() }
    }

    /// An untimed op of the warm-up sequence. A traced window replays it
    /// too, so the shadow cache warms exactly like the service's, but
    /// leaves the replay totals untouched.
    pub fn warm(
        &mut self,
        title: &str,
        intent: Option<usize>,
    ) -> Result<Vec<ResolveResponse>, String> {
        let out = self.frontend.resolve_op(title, intent);
        if let Some(t) = self.traced.as_deref_mut() {
            let saved = (t.shadow.resolves, t.shadow.cache_hits, t.shadow.cache_misses);
            let root = t.tracer.open("warmup", None, u64::MAX);
            t.shadow.resolve(title, &[], &mut t.tracer, root, u64::MAX);
            t.tracer.close(root);
            (t.shadow.resolves, t.shadow.cache_hits, t.shadow.cache_misses) = saved;
        }
        out
    }

    /// One measured record resolve. `true_matches` feed the replayed
    /// blocker's golden recall.
    pub fn resolve(
        &mut self,
        title: &str,
        intent: Option<usize>,
        true_matches: &[usize],
    ) -> Result<Vec<ResolveResponse>, String> {
        let (out, ns) = match self.traced.as_deref_mut() {
            None => {
                let t0 = Instant::now();
                let out = self.frontend.resolve_op(title, intent);
                (out, t0.elapsed().as_nanos() as u64)
            }
            Some(t) => {
                let request = t.next_request;
                t.next_request += 1;
                let before = ProgramStages::read(self.frontend.recorder());
                let root = t.tracer.open("serve.resolve", None, request);
                let out = self.frontend.resolve_op(title, intent);
                let ns = t.tracer.close(root);
                let after = ProgramStages::read(self.frontend.recorder());
                t.program.add_delta(&before, &after);
                t.shadow.resolve(title, true_matches, &mut t.tracer, root, request);
                (out, ns)
            }
        };
        self.samples.resolve_ms.push(ns as f64 / 1e6);
        self.samples.resolve_wall_s += ns as f64 / 1e9;
        self.samples.resolves.record(out.is_ok());
        out
    }

    /// One measured ingest batch.
    pub fn ingest(&mut self, titles: &[&str]) -> Vec<IngestReport> {
        let (reports, ns) = match self.traced.as_deref_mut() {
            None => {
                let t0 = Instant::now();
                let reports = self.frontend.ingest_op(titles);
                (reports, t0.elapsed().as_nanos() as u64)
            }
            Some(t) => {
                let request = t.next_request;
                t.next_request += 1;
                let root = t.tracer.open("serve.ingest_batch", None, request);
                let reports = self.frontend.ingest_op(titles);
                let ns = t.tracer.close(root);
                let counts = t.shadow.ingest_batch(titles, &mut t.tracer, root, request);
                let agree = counts.len() == reports.len()
                    && counts.iter().zip(&reports).all(|(&c, r)| c == r.n_pairs)
                    && t.shadow.index_rows() == self.frontend.n_pairs();
                t.shadow_mismatches += u64::from(!agree);
                (reports, ns)
            }
        };
        self.samples.ingest_ms.push(ns as f64 / 1e6);
        self.samples.ingest_wall_s += ns as f64 / 1e9;
        self.samples.ingested += reports.len() as u64;
        self.samples.ingests.record(reports.len() == titles.len());
        reports
    }
}
