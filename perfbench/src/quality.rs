//! Answer quality against the catalog's ground truth: the paper's MI-F
//! over the served `matched` flags, and Equivalence recall in the top-k.
//!
//! Every served record — corpus or ingested — is traced back to the
//! catalog record it was derived from, and a (query, record) pair is
//! labelled by `IntentDef::pair_label` on those two catalog records.

use crate::fixture::INTENTS;
use flexer::datasets::catalog::Catalog;
use flexer::types::{MatchTarget, ResolveResponse};

/// The served corpus as the labeller sees it.
pub struct Labels<'a> {
    catalog: &'a Catalog,
    /// Catalog record each served record was derived from.
    source: Vec<usize>,
    /// Served records per catalog product.
    by_product: Vec<Vec<usize>>,
}

impl<'a> Labels<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        let n = catalog.dataset.len();
        Self { catalog, source: (0..n).collect(), by_product: catalog.records_of.clone() }
    }

    /// Registers the next ingested record, derived from catalog `source`.
    pub fn ingested(&mut self, source: usize) {
        let id = self.source.len();
        self.source.push(source);
        self.by_product[self.catalog.product_of[source]].push(id);
    }

    /// Served records that truly match a query (same product as its
    /// source), minus `itself` — the served record whose title the query
    /// repeats verbatim, if any.
    pub fn true_matches(&self, source: usize, itself: Option<usize>) -> Vec<usize> {
        self.by_product[self.catalog.product_of[source]]
            .iter()
            .copied()
            .filter(|&r| Some(r) != itself)
            .collect()
    }
}

/// Per-intent confusion counts plus Equivalence recall at k.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    tp: [u64; INTENTS.len()],
    fp: [u64; INTENTS.len()],
    fn_: [u64; INTENTS.len()],
    eq_true: u64,
    eq_found: u64,
}

impl Quality {
    /// Scores one answer to a query derived from catalog record `source`;
    /// `itself` is the served record the query repeats verbatim (skipped).
    pub fn add(
        &mut self,
        labels: &Labels<'_>,
        source: usize,
        itself: Option<usize>,
        response: &ResolveResponse,
    ) {
        let p = response.intent;
        let intent = INTENTS[p];
        for m in &response.matches {
            let MatchTarget::Record(r) = m.target else { continue };
            if Some(r) == itself {
                continue;
            }
            let truth = intent.pair_label(labels.catalog, source, labels.source[r]);
            match (m.matched, truth) {
                (true, true) => self.tp[p] += 1,
                (true, false) => self.fp[p] += 1,
                (false, true) => self.fn_[p] += 1,
                (false, false) => {}
            }
        }
        if p == 0 {
            let truth = labels.true_matches(source, itself);
            self.eq_true += truth.len() as u64;
            self.eq_found += response
                .matches
                .iter()
                .filter(|m| m.matched)
                .filter(|m| matches!(m.target, MatchTarget::Record(r) if truth.contains(&r)))
                .count() as u64;
        }
    }

    /// MI-F: the per-intent F1 averaged over intents.
    pub fn mi_f1(&self) -> f64 {
        let f1s = (0..INTENTS.len()).map(|p| {
            let denom = 2 * self.tp[p] + self.fp[p] + self.fn_[p];
            if denom == 0 {
                0.0
            } else {
                2.0 * self.tp[p] as f64 / denom as f64
            }
        });
        f1s.sum::<f64>() / INTENTS.len() as f64
    }

    pub fn eq_recall(&self) -> f64 {
        if self.eq_true == 0 {
            0.0
        } else {
            self.eq_found as f64 / self.eq_true as f64
        }
    }

    pub fn eq_true(&self) -> u64 {
        self.eq_true
    }
}
