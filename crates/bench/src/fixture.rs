//! The offline phase the serving bench bins share: generate a catalogue
//! corpus, sample and label training pairs, fit the in-parallel base and
//! FlexER, and export the trained snapshot.
//!
//! Each bin passes the knobs it benches at (corpus name, size, training
//! pairs, intents, GNN fan-in `k`, seed), so it trains exactly the model it
//! always has; the corpus itself is fixed by the seed.

use flexer_core::{FlexErConfig, FlexErModel, InParallelModel, PipelineContext};
use flexer_datasets::catalog::{Catalog, CatalogConfig, RecordCountDist};
use flexer_datasets::intents::IntentDef;
use flexer_datasets::mixture::{assemble_benchmark, component, sample_candidate_pairs, PairClass};
use flexer_datasets::perturb::NoiseConfig;
use flexer_datasets::taxonomy::{amazonmi_spec, Taxonomy, TaxonomyConfig};
use flexer_store::{IndexKind, ModelSnapshot};
use flexer_types::Scale;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The serving benches' default intents: equivalence, brand and main
/// category.
pub const INTENTS: [(IntentDef, &str); 3] = [
    (IntentDef::Equivalence, "Eq."),
    (IntentDef::SameBrand, "Brand"),
    (IntentDef::SameMainCategory, "Main-Cat."),
];

/// What to train.
#[derive(Debug, Clone, Copy)]
pub struct FixtureConfig<'a> {
    /// Benchmark name (also the `[name]` tag of the progress line).
    pub name: &'a str,
    /// Corpus size in records.
    pub n_records: usize,
    /// Labelled candidate pairs the model trains on.
    pub train_pairs: usize,
    /// The intents to label and train.
    pub intents: &'a [(IntentDef, &'a str)],
    /// Intra-layer k-NN fan-in; `None` keeps the fast preset's.
    pub k: Option<usize>,
    /// Corpus, sampling and training seed.
    pub seed: u64,
}

/// A trained corpus.
pub struct Fixture {
    /// The generated catalogue (ingest traffic is drawn from its titles).
    pub catalog: Catalog,
    /// The training context over the assembled benchmark.
    pub ctx: PipelineContext,
    /// The exported model.
    pub snapshot: ModelSnapshot,
    /// The seeded generator after corpus and pair sampling: bins draw
    /// their traffic from it, continuing the seed's stream.
    pub rng: StdRng,
    /// Wall time of the base and FlexER fits, in seconds.
    pub train_secs: f64,
}

/// Generates, trains and exports one corpus (see module docs).
pub fn train(cfg: &FixtureConfig<'_>) -> Fixture {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let taxonomy = Taxonomy::from_spec(&amazonmi_spec(), TaxonomyConfig::at_scale(Scale::Small));
    let catalog = Catalog::generate(
        taxonomy,
        &CatalogConfig {
            n_records: cfg.n_records,
            record_counts: RecordCountDist([0.35, 0.35, 0.2, 0.1]),
            noise: NoiseConfig::default(),
        },
        &mut rng,
    );
    let sampled = sample_candidate_pairs(
        &catalog,
        &[
            component(PairClass::Duplicate, 0.25),
            component(PairClass::SameFamilyDiffProduct(None), 0.45),
            component(PairClass::DiffMain(None), 0.3),
        ],
        cfg.train_pairs,
        &mut rng,
    );
    let bench = assemble_benchmark(cfg.name, &catalog, cfg.intents, sampled.candidates, cfg.seed);
    let mut config = FlexErConfig::fast().with_seed(cfg.seed);
    if let Some(k) = cfg.k {
        config = config.with_k(k);
    }
    let ctx = PipelineContext::new(bench, &config.matcher).expect("valid benchmark");
    eprintln!("[{}] training on {} pairs...", cfg.name, ctx.benchmark.n_pairs());
    let t0 = Instant::now();
    let base = InParallelModel::fit(&ctx, &config.matcher).expect("base fit");
    let model =
        FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).expect("flexer fit");
    let train_secs = t0.elapsed().as_secs_f64();
    let snapshot = model.to_snapshot(&ctx, &base, &config, IndexKind::Flat).expect("export");
    Fixture { catalog, ctx, snapshot, rng, train_secs }
}
