//! [`ShardedResolutionService`] — a named constructor for a
//! [`ResolutionService`] whose blocking tier is partitioned into N shards.
//!
//! Every service's blocking tier is a `ShardedBlocker` (see the
//! [`crate::service`] docs), so this type adds no behaviour: it is a
//! newtype kept for existing callers, delegating to
//! [`ResolutionService::sharded`] and the service's own methods. New code
//! should use [`ResolutionService`] directly.

use crate::error::ServeError;
use crate::metrics::ServeMetrics;
use crate::service::{IngestReport, ResolutionService, ServeConfig};
use flexer_obs::Recorder;
use flexer_store::ModelSnapshot;
use flexer_types::{IntentId, ResolveQuery, ResolveResponse, ShardConfig};

/// A [`ResolutionService`] built by [`ResolutionService::sharded`].
#[derive(Debug)]
pub struct ShardedResolutionService(ResolutionService);

impl ShardedResolutionService {
    /// See [`ResolutionService::sharded`].
    pub fn new(
        snapshot: ModelSnapshot,
        config: ServeConfig,
        shard_config: ShardConfig,
    ) -> Result<Self, ServeError> {
        ResolutionService::sharded(snapshot, config, shard_config).map(Self)
    }

    /// See [`ResolutionService::resolve`].
    pub fn resolve(
        &self,
        query: &ResolveQuery,
        intent: IntentId,
        top_k: usize,
    ) -> Result<ResolveResponse, ServeError> {
        self.0.resolve(query, intent, top_k)
    }

    /// See [`ResolutionService::resolve_all_intents`].
    pub fn resolve_all_intents(
        &self,
        query: &ResolveQuery,
        top_k: usize,
    ) -> Result<Vec<ResolveResponse>, ServeError> {
        self.0.resolve_all_intents(query, top_k)
    }

    /// See [`ResolutionService::ingest_batch`].
    pub fn ingest_batch(&mut self, titles: &[&str]) -> Vec<IngestReport> {
        self.0.ingest_batch(titles)
    }

    /// See [`ResolutionService::recorder`].
    pub fn recorder(&self) -> &Recorder {
        self.0.recorder()
    }

    /// See [`ResolutionService::n_pairs`].
    pub fn n_pairs(&self) -> usize {
        self.0.n_pairs()
    }

    /// See [`ResolutionService::metrics`].
    pub fn metrics(&self) -> ServeMetrics {
        self.0.metrics()
    }

    /// See [`ResolutionService::to_snapshot`].
    pub fn to_snapshot(&self) -> ModelSnapshot {
        self.0.to_snapshot()
    }
}
