//! Differential tests of the data-oriented serving hot path: the batched
//! SoA kernel (the default) must produce **bit-identical** responses,
//! ingest reports and served state to the per-candidate reference kernel
//! ([`ServeConfig::reference_scoring`]) — for every query shape, at any
//! thread count, under any shard layout, and over both index backends.

use flexer_core::{FlexErConfig, FlexErModel, InParallelModel, PipelineContext};
use flexer_datasets::AmazonMiConfig;
use flexer_serve::{ResolutionService, ServeConfig};
use flexer_store::{IndexKind, ModelSnapshot};
use flexer_types::{ResolveQuery, Scale, ShardConfig};

/// One shared training run per index backend for the whole test binary.
fn trained_snapshot(kind: IndexKind) -> ModelSnapshot {
    static FLAT: std::sync::OnceLock<ModelSnapshot> = std::sync::OnceLock::new();
    static IVF: std::sync::OnceLock<ModelSnapshot> = std::sync::OnceLock::new();
    let build = || {
        let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(23).generate();
        let config = FlexErConfig::fast();
        let ctx = PipelineContext::new(bench, &config.matcher).unwrap();
        let base = InParallelModel::fit(&ctx, &config.matcher).unwrap();
        let model = FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).unwrap();
        (ctx, base, model, config)
    };
    match kind {
        IndexKind::Flat => FLAT
            .get_or_init(|| {
                let (ctx, base, model, config) = build();
                model.to_snapshot(&ctx, &base, &config, IndexKind::Flat).unwrap()
            })
            .clone(),
        IndexKind::Ivf(_) => IVF
            .get_or_init(|| {
                let (ctx, base, model, config) = build();
                model.to_snapshot(&ctx, &base, &config, kind).unwrap()
            })
            .clone(),
    }
}

fn ivf_kind() -> IndexKind {
    IndexKind::Ivf(flexer_ann::IvfConfig { nlist: 4, nprobe: 2, ..Default::default() })
}

/// The query mix every parity test drives: ad-hoc pairs, repeated titles
/// (cache hits), record queries over known and novel titles.
fn query_mix(svc: &ResolutionService) -> Vec<ResolveQuery> {
    let mut queries = vec![
        ResolveQuery::pair("Nike Air Max 2016", "NIKE air max 2016"),
        ResolveQuery::pair("alpha widget", "beta gadget"),
        ResolveQuery::record("BrandNew UltraWidget 9000 Pro Edition"),
    ];
    for i in (0..svc.n_records()).step_by(7).take(6) {
        queries.push(ResolveQuery::record(svc.record_title(i)));
    }
    // Repeats: the second occurrence is served from the embedding cache.
    queries.push(ResolveQuery::record(svc.record_title(0)));
    queries.push(ResolveQuery::pair("Nike Air Max 2016", "NIKE air max 2016"));
    queries
}

fn drive(svc: &ResolutionService) -> Vec<flexer_types::ResolveResponse> {
    let mut out = Vec::new();
    for q in query_mix(svc) {
        out.extend(svc.resolve_all_intents(&q, 10).unwrap());
    }
    out
}

#[test]
fn batched_and_reference_kernels_agree_on_every_query_shape() {
    for kind in [IndexKind::Flat, ivf_kind()] {
        let snapshot = trained_snapshot(kind);
        let batched = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
        let reference = ResolutionService::new(snapshot, ServeConfig::reference()).unwrap();
        assert_eq!(
            drive(&batched),
            drive(&reference),
            "batched responses diverge from the reference kernel"
        );
    }
}

#[test]
fn batched_ingest_reproduces_reference_state_exactly() {
    let titles = [
        "BrandNew UltraWidget 9000 Pro Edition",
        "Nike Air Max 2016 second listing",
        "totally unrelated garden hose 5m",
    ];
    for kind in [IndexKind::Flat, ivf_kind()] {
        let snapshot = trained_snapshot(kind);
        let mut batched = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
        let mut reference = ResolutionService::new(snapshot, ServeConfig::reference()).unwrap();
        let rb = batched.ingest_batch(&titles.iter().map(|t| &**t).collect::<Vec<_>>());
        let rr = reference.ingest_batch(&titles.iter().map(|t| &**t).collect::<Vec<_>>());
        assert_eq!(rb, rr, "ingest reports diverge");
        // Every ingested pair's served score must be bit-identical, and the
        // pinned state must feed later queries identically.
        for pair in batched.n_train_pairs()..batched.n_pairs() {
            assert_eq!(
                batched.resolve_all_intents(&ResolveQuery::CorpusPair(pair), 1).unwrap(),
                reference.resolve_all_intents(&ResolveQuery::CorpusPair(pair), 1).unwrap(),
                "ingested pair {pair} scores diverge"
            );
        }
        assert_eq!(drive(&batched), drive(&reference), "post-ingest queries diverge");
    }
}

#[test]
fn batched_path_is_thread_count_invariant() {
    let snapshot = trained_snapshot(IndexKind::Flat);
    let svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
    let serial = flexer_par::with_threads(1, || drive(&svc));
    let parallel = flexer_par::with_threads(8, || drive(&svc));
    assert_eq!(serial, parallel, "thread budget must not change any response bit");
}

#[test]
fn sharded_service_matches_reference_for_every_shard_count() {
    let snapshot = trained_snapshot(IndexKind::Flat);
    let mut reference = ResolutionService::new(snapshot.clone(), ServeConfig::reference()).unwrap();
    let titles = ["BrandNew UltraWidget 9000 Pro Edition", "Nike Air Max 2016 second listing"];
    let ref_reports = titles.map(|t| reference.ingest(t));
    let ref_responses = drive(&reference);
    for n_shards in [1usize, 2, 5] {
        let mut sharded = ResolutionService::sharded(
            snapshot.clone(),
            ServeConfig::default(),
            ShardConfig::of(n_shards),
        )
        .unwrap();
        let reports = titles.map(|t| sharded.ingest(t));
        assert_eq!(reports, ref_reports, "{n_shards}-shard ingest reports diverge");
        assert_eq!(
            drive(&sharded),
            ref_responses,
            "{n_shards}-shard batched responses diverge from the unsharded reference kernel"
        );
    }
}

/// End-to-end kernel differential: resolving with the packed/fused
/// matmul kernels disabled (the exact pre-packing naive sequence) must
/// produce bit-identical responses for every query shape and shard
/// count. This is the serving-tier gate for `flexer_nn::kernels`; it is
/// safe under concurrent tests because both paths are bit-identical.
#[test]
fn packed_kernels_toggle_is_invisible_across_shard_counts() {
    let snapshot = trained_snapshot(IndexKind::Flat);
    let svc = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
    let packed = drive(&svc);
    flexer_nn::kernels::set_packed_kernels(false);
    let naive = drive(&svc);
    flexer_nn::kernels::set_packed_kernels(true);
    assert_eq!(packed, naive, "packed kernels change a resolve response bit");
    for n_shards in [1usize, 2, 5] {
        let sharded = ResolutionService::sharded(
            snapshot.clone(),
            ServeConfig::default(),
            ShardConfig::of(n_shards),
        )
        .unwrap();
        let with_packed = drive(&sharded);
        flexer_nn::kernels::set_packed_kernels(false);
        let without = drive(&sharded);
        flexer_nn::kernels::set_packed_kernels(true);
        assert_eq!(with_packed, without, "{n_shards}-shard packed/naive divergence");
    }
}

#[test]
fn snapshot_round_trip_survives_batched_ingest() {
    // `to_snapshot` truncates the grown indexes back to the training
    // watermark via the slice-borrowing `AnyIndex::truncated`; the result
    // must stay byte-identical to the loaded snapshot.
    for kind in [IndexKind::Flat, ivf_kind()] {
        let snapshot = trained_snapshot(kind);
        let original = snapshot.to_bytes();
        let mut svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
        svc.ingest("BrandNew UltraWidget 9000 Pro Edition");
        svc.ingest("another listing entirely");
        assert_eq!(
            svc.to_snapshot().to_bytes(),
            original,
            "ingest must not leak into the exported training-time snapshot"
        );
    }
}
