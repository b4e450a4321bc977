//! The benchmark's inputs and set-up: the AmazonMI-style catalog and its
//! training pairs (generated, not timed), the workload's seeded traffic,
//! and the timed path from those inputs to a ready-to-serve snapshot.
//!
//! The corpus, its training pairs and the model's training seed are fixed
//! ([`CORPUS_SEED`]); `--seed` draws the traffic (hot set, query and ingest
//! titles). With a corpus and model per seed, the trained model's quality
//! alone moved Equivalence recall by 12-13% between seeds, more than any
//! bound worth keeping.

use flexer::core::{FlexErConfig, FlexErModel, InParallelModel, PipelineContext};
use flexer::datasets::catalog::{Catalog, CatalogConfig, RecordCountDist};
use flexer::datasets::intents::IntentDef;
use flexer::datasets::mixture::{assemble_benchmark, component, sample_candidate_pairs, PairClass};
use flexer::datasets::perturb::{perturb_title, NoiseConfig};
use flexer::datasets::taxonomy::{amazonmi_spec, Taxonomy, TaxonomyConfig};
use flexer::datasets::vocab::COLORS;
use flexer::store::{IndexKind, ModelSnapshot};
use flexer::types::{MierBenchmark, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;

/// Seed of the corpus, its training pairs and the model's training.
pub const CORPUS_SEED: u64 = 17;
/// Records in the served corpus.
pub const CORPUS_RECORDS: usize = 10_000;
/// Training candidate pairs sampled over the corpus.
pub const TRAIN_PAIRS: usize = 360;
/// The intents every query is answered under, in intent-id order.
pub const INTENTS: [IntentDef; 3] =
    [IntentDef::Equivalence, IntentDef::SameBrand, IntentDef::SameMainCategory];
/// Ranked candidates returned per (query, intent).
pub const TOP_K: usize = 10;

/// Everything generated before any timed work.
pub struct Inputs {
    /// The traffic seed (`--seed`).
    pub seed: u64,
    pub catalog: Catalog,
    pub bench: MierBenchmark,
    /// Stream for the workload's query and ingest titles, from `seed`.
    pub rng: StdRng,
    titles: HashSet<String>,
}

/// A title not in the corpus, derived from one catalog record; labels of
/// its answers come from that record.
#[derive(Debug, Clone)]
pub struct Variant {
    pub title: String,
    pub source: usize,
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
        let taxonomy =
            Taxonomy::from_spec(&amazonmi_spec(), TaxonomyConfig::at_scale(Scale::Small));
        let catalog = Catalog::generate(
            taxonomy,
            &CatalogConfig {
                n_records: CORPUS_RECORDS,
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
            TRAIN_PAIRS,
            &mut rng,
        );
        let bench = assemble_benchmark(
            "perfbench-corpus",
            &catalog,
            &[(INTENTS[0], "Eq."), (INTENTS[1], "Brand"), (INTENTS[2], "Main-Cat.")],
            sampled.candidates,
            CORPUS_SEED,
        );
        let titles = catalog.dataset.iter().map(|r| r.title().to_string()).collect();
        Self { seed, catalog, bench, rng: StdRng::seed_from_u64(seed), titles }
    }

    pub fn n_records(&self) -> usize {
        self.catalog.dataset.len()
    }

    pub fn title(&self, record: usize) -> &str {
        self.catalog.dataset[record].title()
    }

    /// A fresh noisy listing of `source`'s product, drawn the way the
    /// catalog draws its duplicates and never equal to any title handed
    /// out before (corpus or variant).
    pub fn variant_of(&mut self, source: usize) -> Variant {
        let product = &self.catalog.products[self.catalog.product_of[source]];
        loop {
            let suffix = COLORS[self.rng.gen_range(0..COLORS.len())];
            let title =
                perturb_title(&product.base_title, suffix, NoiseConfig::default(), &mut self.rng);
            if self.titles.insert(title.clone()) {
                return Variant { title, source };
            }
        }
    }
}

/// Timings of one pass from the inputs to an encoded-and-decoded snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `PipelineContext::new` + `InParallelModel::fit` +
    /// `FlexErModel::fit_from_embeddings` + snapshot export.
    pub fit_s: f64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub snapshot_bytes: usize,
}

/// Trains the model on the inputs and round-trips its snapshot through the
/// byte codec, as a deployment ships it.
pub fn train_snapshot(inputs: &Inputs) -> (ModelSnapshot, Vec<u8>, SetupTimes) {
    let bench = inputs.bench.clone();
    let t0 = Instant::now();
    let config = FlexErConfig::fast().with_seed(CORPUS_SEED);
    let ctx = PipelineContext::new(bench, &config.matcher).expect("valid benchmark");
    let base = InParallelModel::fit(&ctx, &config.matcher).expect("base fit");
    let model =
        FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).expect("flexer fit");
    let snapshot = model.to_snapshot(&ctx, &base, &config, IndexKind::Flat).expect("export");
    let fit_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let bytes = snapshot.to_bytes();
    let encode_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let decoded = ModelSnapshot::from_bytes(&bytes).expect("snapshot decodes");
    let decode_s = t0.elapsed().as_secs_f64();
    let times = SetupTimes { fit_s, encode_s, decode_s, snapshot_bytes: bytes.len() };
    (decoded, bytes, times)
}
