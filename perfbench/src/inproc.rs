//! Set-up and oracle helpers shared by the in-process workloads.

use crate::fixture::{train_snapshot, Inputs, Variant};
use crate::report::{Report, SetupSample};
use crate::stats::{median, percentile};
use flexer::serve::{IngestReport, ResolutionService, ServeConfig};
use flexer::store::ModelSnapshot;
use flexer::types::ResolveResponse;
use rand::Rng;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Titles per ingest batch.
pub const BATCH: usize = 12;
/// Every this many rounds, a round's resolves end with a flood probe.
pub const PROBE_EVERY: usize = 4;
/// Titles in a hot set.
const HOT_TITLES: usize = 8;
/// Candidate count every hot title has: eight of them fill 704 of the
/// 1024 cache entries, each well under the flood guard's half. One fixed
/// count gives every hot query the same work, so the latency median is a
/// property of the service, not of which titles a seed happened to draw.
const HOT_CANDIDATES: usize = 88;

/// Sets up `SETUPS` times from the same inputs — train, encode, decode,
/// load a service — recording each one's timings, and returns the decoded
/// snapshot every later service is loaded from. Every set-up must produce
/// the same snapshot bytes.
pub fn setup(inputs: &Inputs, report: &mut Report) -> ModelSnapshot {
    let mut kept: Option<(Vec<u8>, ModelSnapshot)> = None;
    for _ in 0..SETUPS {
        let (snapshot, bytes, times) = train_snapshot(inputs);
        let copy = snapshot.clone();
        let t0 = Instant::now();
        let svc = ResolutionService::new(snapshot, ServeConfig::default()).expect("service loads");
        let load_s = t0.elapsed().as_secs_f64();
        drop(svc);
        report.setups.push(SetupSample {
            total_s: times.fit_s + times.encode_s + times.decode_s + load_s,
            fit_s: times.fit_s,
            encode_s: times.encode_s,
            decode_s: times.decode_s,
            load_s,
            snapshot_bytes: times.snapshot_bytes,
        });
        match &kept {
            None => kept = Some((bytes, copy)),
            Some((first, _)) if *first != bytes => {
                report.notes.push("set-ups produced different snapshots".into());
                report.mismatches += 1;
            }
            Some(_) => {}
        }
    }
    kept.expect("at least one set-up").1
}

/// Counts answers that differ from the expected ones, noting the first.
pub fn check_answers(
    report: &mut Report,
    what: &str,
    got: &[Result<Vec<ResolveResponse>, String>],
    want: &[Result<Vec<ResolveResponse>, String>],
) {
    let bad = got.len().abs_diff(want.len()) + got.iter().zip(want).filter(|(g, w)| g != w).count();
    if bad > 0 {
        report.notes.push(format!("{what}: {bad} answers differ"));
        report.mismatches += bad as u64;
    }
}

pub fn check_reports(
    report: &mut Report,
    what: &str,
    got: &[Vec<IngestReport>],
    want: &[Vec<IngestReport>],
) {
    let bad = got.len().abs_diff(want.len()) + got.iter().zip(want).filter(|(g, w)| g != w).count();
    if bad > 0 {
        report.notes.push(format!("{what}: {bad} ingest batches differ"));
        report.mismatches += bad as u64;
    }
}

/// Candidate-count targets of a batch's listings: the medians of [`BATCH`]
/// equal strata of the corpus records' candidate counts, from records with
/// none to the heaviest. Listing `i` of every batch, and the query paired
/// with it, have within [`TOLERANCE`] of target `i` candidates, so each
/// batch spans the distribution and does alike work whatever the seed.
/// Listings drawn freely, or by their source record's stratum (a listing's
/// count strays far from its source's), made the work of a run's ingests
/// differ by 20% between seeds.
pub struct Strata {
    targets: Vec<usize>,
    /// Corpus records in ascending candidate-count order.
    by_count: Vec<usize>,
    /// The corpus records' 90th-percentile candidate count.
    heavy: usize,
}

/// Relative distance of a listing's candidate count from its target.
const TOLERANCE: f64 = 0.1;
/// Listings of one source tried before another source is drawn.
const TRIES: usize = 16;

impl Strata {
    pub fn new(inputs: &Inputs, snapshot: &ModelSnapshot) -> Self {
        let mut counted: Vec<(usize, usize)> = (0..inputs.n_records())
            .map(|r| (candidate_count(snapshot, inputs.title(r)), r))
            .collect();
        counted.sort_unstable();
        let n = counted.len();
        let targets = (0..BATCH).map(|i| counted[(2 * i + 1) * n / (2 * BATCH)].0).collect();
        let heavy = counted[9 * n / 10].0;
        Self { targets, by_count: counted.into_iter().map(|(_, r)| r).collect(), heavy }
    }

    fn fits(&self, i: usize, candidates: usize) -> bool {
        let target = self.targets[i];
        candidates.abs_diff(target) as f64 <= (TOLERANCE * target as f64).max(2.0)
    }

    /// Two fresh unseen listings of one product, each with about target
    /// `i`'s candidate count: one to ingest, one to query. Sources come
    /// from the records of stratum `i`.
    pub fn listings(
        &self,
        inputs: &mut Inputs,
        snapshot: &ModelSnapshot,
        i: usize,
    ) -> (Variant, Variant) {
        let n = self.by_count.len();
        let stratum = &self.by_count[i * n / BATCH..(i + 1) * n / BATCH];
        loop {
            let source = stratum[inputs.rng.gen_range(0..stratum.len())];
            let mut found: Option<Variant> = None;
            for _ in 0..TRIES {
                let v = inputs.variant_of(source);
                if self.fits(i, candidate_count(snapshot, &v.title)) {
                    match found.take() {
                        Some(first) => return (first, v),
                        None => found = Some(v),
                    }
                }
            }
        }
    }
}

/// Candidate counts of a flood probe: past the flood guard, which refuses
/// to cache a miss batch of more than half the default 1024-entry cache,
/// and narrow, so every probe does alike work. No corpus record has more
/// than ~270 candidates, so only a probe reaches the guard.
const PROBE_BAND: (usize, usize) = (600, 700);

/// A flood probe: a bundle listing, corpus titles joined by ` + `, whose
/// candidate set lies in [`PROBE_BAND`]. It belongs to no one catalog
/// record, so its answers are checked and digested but not scored.
pub fn flood_probe(inputs: &mut Inputs, snapshot: &ModelSnapshot) -> String {
    loop {
        let mut title = String::new();
        loop {
            let r = inputs.rng.gen_range(0..inputs.n_records());
            if !title.is_empty() {
                title.push_str(" + ");
            }
            title.push_str(inputs.title(r));
            let n = candidate_count(snapshot, &title);
            if n >= PROBE_BAND.0 {
                if n <= PROBE_BAND.1 {
                    return title;
                }
                break;
            }
        }
    }
}

/// Input properties of the drawn traffic: the candidate counts of the
/// ingested listings and of the probes, against the base corpus.
pub fn traffic_props(
    report: &mut Report,
    snapshot: &ModelSnapshot,
    strata: &Strata,
    listings: &[&str],
    probes: &[&str],
) {
    let mut counts: Vec<f64> =
        listings.iter().map(|t| candidate_count(snapshot, t) as f64).collect();
    counts.sort_by(f64::total_cmp);
    let targets: Vec<String> = strata.targets.iter().map(usize::to_string).collect();
    report.prop("listing_candidate_targets", targets.join(" "));
    report.prop(
        "listing_candidates_min_p50_p90_max",
        format!(
            "{} / {} / {} / {}",
            counts[0],
            median(&counts),
            percentile(&counts, 0.9),
            counts[counts.len() - 1]
        ),
    );
    let heavy = counts.iter().filter(|&&c| c > strata.heavy as f64).count();
    report.prop(
        "listing_share_above_corpus_p90",
        format!("{:.3} (> {} candidates)", heavy as f64 / counts.len() as f64, strata.heavy),
    );
    let probe_counts: Vec<String> =
        probes.iter().map(|p| candidate_count(snapshot, p).to_string()).collect();
    report.prop("flood_probes_per_episode", probes.len());
    report.prop("flood_probe_candidates", probe_counts.join(" "));
}

/// Draws the hot set: corpus titles, in seeded order, with exactly
/// [`HOT_CANDIDATES`] candidates.
pub fn hot_set(inputs: &mut Inputs, snapshot: &ModelSnapshot) -> Vec<usize> {
    let mut hot = Vec::with_capacity(HOT_TITLES);
    while hot.len() < HOT_TITLES {
        let r = inputs.rng.gen_range(0..inputs.n_records());
        let n = candidate_count(snapshot, inputs.title(r));
        if n == HOT_CANDIDATES && !hot.contains(&r) {
            hot.push(r);
        }
    }
    hot
}

pub fn candidate_count(snapshot: &ModelSnapshot, title: &str) -> usize {
    snapshot.blocker.candidates(title).map_or(snapshot.records.len(), |c| c.len())
}
