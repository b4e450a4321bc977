//! `ingest-mixed`: one closed-loop client writing beside reading. An
//! episode loads a fresh service and runs [`ROUNDS`] rounds; each round
//! ingests one batch of unseen listings, then resolves unseen listings of
//! the same products; every [`PROBE_EVERY`]th round ends with a flood
//! probe. Every embedding misses the cache and the flat ANN scan grows
//! with every ingest, so the matcher, ANN search, blocker insert and arena
//! append do most of the work. Every episode ends in the same state; the
//! window runs whole episodes.

use crate::fixture::{Inputs, Variant, CORPUS_SEED, TOP_K};
use crate::inproc::{
    check_answers, check_reports, flood_probe, setup, traffic_props, Strata, BATCH, PROBE_EVERY,
};
use crate::layers::Shadow;
use crate::quality::Labels;
use crate::report::{slice_p50, Report};
use crate::session::{CacheDelta, Samples, Session, Traced};
use crate::stats::{median, peak_rss_mb, reset_peak_rss};
use flexer::serve::{IngestReport, ResolutionService, ServeConfig};
use flexer::store::ModelSnapshot;
use flexer::types::{ResolveQuery, ResolveResponse};
use rand::Rng;

/// Rounds per episode.
const ROUNDS: usize = 16;
/// Corpus titles resolved before each episode's measured rounds.
const WARMUP: usize = 4;
/// Whole episodes a window runs at least.
const MIN_EPISODES: usize = 3;

type Answer = Result<Vec<ResolveResponse>, String>;

struct Round {
    ingest: Vec<Variant>,
    queries: Vec<Variant>,
    /// True Equivalence matches of each query once the round's batch is in.
    truths: Vec<Vec<usize>>,
    /// A flood probe resolved after the queries.
    probe: Option<String>,
}

/// One episode's outputs, in op order.
#[derive(PartialEq)]
struct Trail {
    reports: Vec<Vec<IngestReport>>,
    answers: Vec<Answer>,
}

pub fn run(mut inputs: Inputs, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let snapshot = setup(&inputs, &mut report);
    let warmup: Vec<usize> =
        (0..WARMUP).map(|_| inputs.rng.gen_range(0..inputs.n_records())).collect();
    let strata = Strata::new(&inputs, &snapshot);
    let drawn: Vec<(Vec<Variant>, Vec<Variant>, Option<String>)> = (0..ROUNDS)
        .map(|r| {
            let (ingest, queries) =
                (0..BATCH).map(|i| strata.listings(&mut inputs, &snapshot, i)).unzip();
            let probe =
                (r % PROBE_EVERY == PROBE_EVERY - 1).then(|| flood_probe(&mut inputs, &snapshot));
            (ingest, queries, probe)
        })
        .collect();
    let mut labels = Labels::new(&inputs.catalog);
    let rounds: Vec<Round> = drawn
        .into_iter()
        .map(|(ingest, queries, probe)| {
            for v in &ingest {
                labels.ingested(v.source);
            }
            let truths = queries.iter().map(|q| labels.true_matches(q.source, None)).collect();
            Round { ingest, queries, truths, probe }
        })
        .collect();
    let warm_titles: Vec<&str> = warmup.iter().map(|&r| inputs.title(r)).collect();

    let setup_peak_mb = peak_rss_mb(std::process::id());
    let base = window(&snapshot, &warm_titles, &rounds, seconds, None, &mut report);
    report.window_hit_ratios.push(("untraced", base.cache.hit_ratio()));
    report.peak_rss_mb = median(&base.rss_peaks_mb);
    for s in &base.episodes {
        report.absorb(s.clone());
    }
    let trail = base.trail;

    if traced {
        let mut tr = Traced::new(Shadow::new(&snapshot, ServeConfig::default().cache_capacity));
        // Half the window: the replays roughly double each op's wall time,
        // and the minimum episode count still applies.
        let t = window(&snapshot, &warm_titles, &rounds, seconds / 2.0, Some(&mut tr), &mut report);
        report.window_hit_ratios.push(("traced", t.cache.hit_ratio()));
        check_answers(&mut report, "traced episode", &t.trail.answers, &trail.answers);
        check_reports(&mut report, "traced episode", &t.trail.reports, &trail.reports);
        let mut merged = Samples::default();
        for s in &t.episodes {
            merged.merge(s.clone());
        }
        report.op("resolve (traced)", merged.resolves);
        report.op("ingest_batch (traced)", merged.ingests);
        let overhead = slice_p50(&t.episodes) / slice_p50(&base.episodes);
        report.session_layers(&merged, &tr, t.cache, t.n_pairs, &snapshot, overhead);
        crate::write_trace(&tr, &report, "ingest-mixed", inputs.seed);
    }

    // Oracle: the reference kernel replays one episode outside the window.
    let mut reference = ResolutionService::new(snapshot.clone(), ServeConfig::reference())
        .expect("reference loads");
    let expected = replay(&mut reference, &warm_titles, &rounds);
    check_answers(&mut report, "reference episode", &trail.answers, &expected.answers);
    check_reports(&mut report, "reference episode", &trail.reports, &expected.reports);

    // Digest and quality over the first episode, in op order.
    {
        let mut l = Labels::new(&inputs.catalog);
        let mut answers = trail.answers.iter();
        for (round, reports) in rounds.iter().zip(&trail.reports) {
            for (v, r) in round.ingest.iter().zip(reports) {
                l.ingested(v.source);
                report.digest.ingest(r);
            }
            let sources = round.queries.iter().map(|q| Some(q.source));
            for source in sources.chain(round.probe.iter().map(|_| None)) {
                match answers.next() {
                    Some(Ok(responses)) => {
                        for resp in responses {
                            report.digest.response(resp);
                            if let Some(source) = source {
                                report.quality.add(&l, source, None, resp);
                            }
                        }
                    }
                    Some(Err(e)) => report.digest.error(e),
                    None => {}
                }
            }
        }
    }

    let candidates: usize = trail.reports.iter().flatten().map(|r| r.n_pairs).sum();
    report.prop("seed", inputs.seed);
    report.prop("corpus_seed", CORPUS_SEED);
    report.prop("corpus_records", inputs.n_records());
    report.prop("blocker", reference.blocker_kind());
    report.prop("rounds_per_episode", ROUNDS);
    report.prop("episodes", base.episodes.len());
    report.prop("records_ingested_per_episode", ROUNDS * BATCH);
    report.prop("final_pairs", base.n_pairs);
    report.prop(
        "candidates_per_ingest",
        format!("{:.1}", candidates as f64 / (ROUNDS * BATCH) as f64),
    );
    let listings: Vec<&str> =
        rounds.iter().flat_map(|r| &r.ingest).map(|v| v.title.as_str()).collect();
    let probes: Vec<&str> = rounds.iter().filter_map(|r| r.probe.as_deref()).collect();
    traffic_props(&mut report, &snapshot, &strata, &listings, &probes);
    report.prop(
        "flood_rejections_per_episode",
        base.cache.flood_rejections / base.episodes.len() as u64,
    );
    report.prop("eq_true_matches", report.quality.eq_true());
    report.prop("setup_peak_rss_mb", format!("{setup_peak_mb:.1}"));
    let peaks: Vec<String> = base.rss_peaks_mb.iter().map(|mb| format!("{mb:.1}")).collect();
    report.prop("episode_peak_rss_mb", peaks.join(" "));
    report.prop(
        "peak_rss_scope",
        if base.rss_scoped { "median over episodes" } else { "whole run (peak reset refused)" },
    );
    report
}

/// What one measured window observed.
struct Window {
    /// Each episode's samples.
    episodes: Vec<Samples>,
    /// The first episode's outputs; every later one must equal them.
    trail: Trail,
    cache: CacheDelta,
    /// Pairs served at the end of an episode.
    n_pairs: usize,
    /// Each episode's peak resident set, from loading its service to its
    /// last op. The set-ups' peak would otherwise hide any growth in
    /// serving.
    rss_peaks_mb: Vec<f64>,
    /// False where the peak could not be reset before each episode; the
    /// peaks then include the set-ups'.
    rss_scoped: bool,
}

/// Runs whole episodes, each on a freshly loaded service after the same
/// warm-up, until the measured ops have taken `seconds` and at least
/// [`MIN_EPISODES`] ran.
fn window(
    snapshot: &ModelSnapshot,
    warm_titles: &[&str],
    rounds: &[Round],
    seconds: f64,
    mut traced: Option<&mut Traced>,
    report: &mut Report,
) -> Window {
    let mut episodes: Vec<Samples> = Vec::new();
    let mut cache = CacheDelta::default();
    let mut first: Option<Trail> = None;
    let mut rss_peaks_mb = Vec::new();
    let mut rss_scoped = true;
    loop {
        rss_scoped &= reset_peak_rss();
        let svc = ResolutionService::new(snapshot.clone(), ServeConfig::default()).expect("loads");
        if let Some(t) = traced.as_deref_mut() {
            t.shadow.reset();
        }
        let mut session = Session::new(svc, traced.as_deref_mut());
        for t in warm_titles {
            let _ = session.warm(t, None);
        }
        let m0 = session.frontend.metrics();
        let trail = episode(&mut session, rounds);
        let m1 = session.frontend.metrics();
        cache.add(&m0, &m1);
        let n_pairs = session.frontend.n_pairs();
        episodes.push(session.samples);
        rss_peaks_mb.push(peak_rss_mb(std::process::id()));
        match &first {
            None => first = Some(trail),
            Some(f) if *f != trail => {
                report.notes.push(format!("episode {} diverged from the first", episodes.len()));
                report.mismatches += 1;
            }
            Some(_) => {}
        }
        let busy: f64 = episodes.iter().map(Samples::busy_s).sum();
        if episodes.len() >= MIN_EPISODES && busy >= seconds {
            let trail = first.expect("one episode ran");
            return Window { episodes, trail, cache, n_pairs, rss_peaks_mb, rss_scoped };
        }
    }
}

fn episode(session: &mut Session<'_, ResolutionService>, rounds: &[Round]) -> Trail {
    let mut trail = Trail { reports: Vec::new(), answers: Vec::new() };
    for round in rounds {
        let titles: Vec<&str> = round.ingest.iter().map(|v| v.title.as_str()).collect();
        trail.reports.push(session.ingest(&titles));
        for (q, truth) in round.queries.iter().zip(&round.truths) {
            trail.answers.push(session.resolve(&q.title, None, truth));
        }
        if let Some(probe) = &round.probe {
            trail.answers.push(session.resolve(probe, None, &[]));
        }
    }
    trail
}

/// The same episode on another service, untimed.
fn replay(svc: &mut ResolutionService, warm_titles: &[&str], rounds: &[Round]) -> Trail {
    for t in warm_titles {
        let _ = svc.resolve_all_intents(&ResolveQuery::record(*t), TOP_K);
    }
    let mut trail = Trail { reports: Vec::new(), answers: Vec::new() };
    for round in rounds {
        let titles: Vec<&str> = round.ingest.iter().map(|v| v.title.as_str()).collect();
        trail.reports.push(svc.ingest_batch(&titles));
        let titles = round.queries.iter().map(|q| q.title.as_str());
        for title in titles.chain(round.probe.as_deref()) {
            trail.answers.push(
                svc.resolve_all_intents(&ResolveQuery::record(title), TOP_K)
                    .map_err(|e| e.to_string()),
            );
        }
    }
    trail
}
