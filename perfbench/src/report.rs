//! What one run measured, and how it is printed: a readable block of
//! every metric with its unit, then the one-line JSON result.

use crate::layers::{gemm_gflops, gnn_flops_per_candidate, par_region_us};
use crate::quality::Quality;
use crate::session::{CacheDelta, Samples, Traced};
use crate::stats::{hd_median, mean, median, tail, Digest, OpCount};
use flexer::store::ModelSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, in output order: (name, unit).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("resolve_qps", "1/s"),
    ("resolve_p50_ms", "ms"),
    ("resolve_tail_ms", "ms"),
    ("ingest_rps", "records/s"),
    ("ingest_batch_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("mi_f1", "ratio"),
    ("eq_recall_at_k", "ratio"),
];

/// Per-layer metrics of the traced run, in output order: (name, unit).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("core.fit_ms", "ms"),
    ("store.encode_ms", "ms"),
    ("store.decode_ms", "ms"),
    ("store.snapshot_bytes", "bytes"),
    ("serve.load_ms", "ms"),
    ("serve.resolve_ms", "ms"),
    ("serve.ingest_batch_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("serve.coverage", "ratio"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.flood_rejections", "count"),
    ("block.candidates_per_query", "count"),
    ("block.candidates_us", "us"),
    ("block.insert_us", "us"),
    ("block.golden_recall", "ratio"),
    ("matcher.pairs_embedded", "count"),
    ("matcher.featurize_us_per_pair", "us"),
    ("matcher.infer_us_per_pair", "us"),
    ("ann.index_rows", "count"),
    ("ann.search_us_per_query", "us"),
    ("graph.forward_rows", "count"),
    ("graph.forward_ms", "ms"),
    ("graph.achieved_gflops", "GFLOP/s"),
    ("nn.gemm_gflops", "GFLOP/s"),
    ("nn.flops_per_resolve", "FLOP"),
    ("par.region_us", "us"),
    ("router.resolve_ms", "ms"),
    ("router.inproc_ms", "ms"),
    ("wire.overhead_ms", "ms"),
    ("wire.bytes_per_resolve", "bytes"),
    ("router.ingest_batch_ms", "ms"),
    ("router.faults", "count"),
    ("router.rss_mb", "MB"),
    ("server.rss_mb", "MB"),
    ("trace.overhead", "ratio"),
];

/// The band the replayed stages (block, matcher, ANN) plus the service's
/// own GNN and rank spans must cover of the traced resolve time; what is
/// left is `serve.self_ms`. A traced run outside it fails.
pub const COVERAGE_BAND: (f64, f64) = (0.80, 1.10);

/// Median over slices of each slice's resolve p50.
pub fn slice_p50(slices: &[Samples]) -> f64 {
    let per: Vec<f64> =
        slices.iter().filter(|s| !s.resolve_ms.is_empty()).map(|s| median(&s.resolve_ms)).collect();
    median(&per)
}

/// Timings of one set-up, from the generated inputs to ready-to-serve.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSample {
    pub total_s: f64,
    pub fit_s: f64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub load_s: f64,
    pub snapshot_bytes: usize,
}

#[derive(Default)]
pub struct Report {
    pub setups: Vec<SetupSample>,
    /// The measured window's slices, one per episode. Throughputs and the
    /// tail are computed per slice and reported as the median over slices,
    /// so a burst of interference that hits a minority of slices does not
    /// move them; the p50s come from [`Self::per_op_medians`].
    pub windows: Vec<Samples>,
    pub ops: BTreeMap<&'static str, OpCount>,
    /// Answers or reports that differed from the oracle or from the first
    /// run of the same op.
    pub mismatches: u64,
    pub peak_rss_mb: f64,
    pub quality: Quality,
    pub digest: Digest,
    /// Cache hit ratio of each measured window, traced or not.
    pub window_hit_ratios: Vec<(&'static str, f64)>,
    /// Input properties that decide which layer works.
    pub props: Vec<(&'static str, String)>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn prop(&mut self, name: &'static str, value: impl ToString) {
        self.props.push((name, value.to_string()));
    }

    pub fn op(&mut self, name: &'static str, count: OpCount) {
        self.ops.entry(name).or_default().merge(count);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown layer metric {name}");
        self.layers.insert(name, value);
    }

    /// Adds one slice of the measured window.
    pub fn absorb(&mut self, samples: Samples) {
        self.op("resolve", samples.resolves);
        self.op("ingest_batch", samples.ingests);
        self.windows.push(samples);
    }

    /// Median over the window slices that ran resolves (or ingests) of a
    /// per-slice statistic.
    fn over_slices(&self, ingest: bool, f: impl Fn(&Samples) -> f64) -> f64 {
        let per: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| if ingest { !w.ingest_ms.is_empty() } else { !w.resolve_ms.is_empty() })
            .map(f)
            .collect();
        median(&per)
    }

    /// Each op's latency as the median of its repetitions. Every episode
    /// runs the same op sequence from the same state, so op `i` does the
    /// same work in each; its median drops the episodes a burst of
    /// interference slowed, which a per-episode median, set by the one or
    /// two ops at its rank, would keep.
    fn per_op_medians(&self, ingest: bool) -> Vec<f64> {
        let runs: Vec<&[f64]> = self
            .windows
            .iter()
            .map(|w| if ingest { w.ingest_ms.as_slice() } else { w.resolve_ms.as_slice() })
            .filter(|v| !v.is_empty())
            .collect();
        let ops = runs.iter().map(|r| r.len()).min().unwrap_or(0);
        (0..ops).map(|i| median(&runs.iter().map(|r| r[i]).collect::<Vec<_>>())).collect()
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|c| c.failed).sum::<u64>() + self.mismatches
    }

    /// Set-up samples' median of one field.
    pub fn setup_median(&self, f: impl Fn(&SetupSample) -> f64) -> f64 {
        median(&self.setups.iter().map(f).collect::<Vec<_>>())
    }

    /// Writes the set-up (core, store, serve load) and isolated (nn, par)
    /// layer metrics shared by every workload.
    fn common_layers(&mut self, snapshot: &ModelSnapshot, candidates_per_query: f64) {
        self.layer("core.fit_ms", 1e3 * self.setup_median(|s| s.fit_s));
        self.layer("store.encode_ms", 1e3 * self.setup_median(|s| s.encode_s));
        self.layer("store.decode_ms", 1e3 * self.setup_median(|s| s.decode_s));
        self.layer("store.snapshot_bytes", self.setup_median(|s| s.snapshot_bytes as f64));
        self.layer("serve.load_ms", 1e3 * self.setup_median(|s| s.load_s));
        let per_candidate = gnn_flops_per_candidate(snapshot);
        self.layer("nn.flops_per_resolve", per_candidate * candidates_per_query);
        let rows = candidates_per_query.round().max(1.0) as usize;
        self.layer("nn.gemm_gflops", gemm_gflops(snapshot, rows, 0.5));
        self.layer("par.region_us", par_region_us(2000));
    }

    /// Per-layer metrics of a traced in-process window. `n_pairs` is the
    /// service's pair count at the end of the window, `overhead` the traced
    /// window's resolve p50 over the untraced one's, both from the same
    /// warm-up sequence.
    pub fn session_layers(
        &mut self,
        samples: &Samples,
        traced: &Traced,
        cache: CacheDelta,
        n_pairs: usize,
        snapshot: &ModelSnapshot,
        overhead: f64,
    ) {
        let (r, i) = (&traced.shadow.resolves, &traced.shadow.ingests);
        let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        let resolves = r.ops.max(1);
        if (traced.shadow.cache_hits, traced.shadow.cache_misses) != (cache.hits, cache.misses) {
            self.notes.push(format!(
                "shadow cache saw {}/{} hits/misses, service {}/{}",
                traced.shadow.cache_hits, traced.shadow.cache_misses, cache.hits, cache.misses
            ));
            self.mismatches += 1;
        }
        if traced.shadow_mismatches > 0 || traced.shadow.index_rows() != n_pairs {
            self.notes.push(format!(
                "shadow blocker/ANN out of step: {} batches disagreed, {} rows vs {n_pairs} pairs",
                traced.shadow_mismatches,
                traced.shadow.index_rows(),
            ));
            self.mismatches += 1;
        }
        let serve_p50 = median(&samples.resolve_ms);
        self.layer("serve.resolve_ms", serve_p50);
        self.layer("serve.ingest_batch_ms", median(&samples.ingest_ms));
        let program = &traced.program;
        let call_ns = 1e6 * mean(&samples.resolve_ms);
        let accounted_ns = per(r.stages_ns() + program.gnn_ns + program.rank_ns, resolves);
        self.layer("serve.self_ms", (call_ns - accounted_ns) / 1e6);
        let coverage = accounted_ns / call_ns.max(1.0);
        self.layer("serve.coverage", coverage);
        // The replayed stages were timed apart from the call; if they do
        // not account for it, the per-layer split is not to be trusted.
        if !(COVERAGE_BAND.0..=COVERAGE_BAND.1).contains(&coverage) {
            self.notes.push(format!(
                "stage coverage {coverage:.3} is outside the stated band {:?}",
                COVERAGE_BAND
            ));
            self.mismatches += 1;
        }
        self.layer("serve.cache.hit_ratio", cache.hit_ratio());
        self.layer("serve.cache.flood_rejections", cache.flood_rejections as f64);
        let candidates = per(r.candidates, resolves);
        self.layer("block.candidates_per_query", candidates);
        self.layer("block.candidates_us", per(r.block_ns, resolves) / 1e3);
        self.layer("block.insert_us", per(i.insert_ns, i.inserts) / 1e3);
        self.layer(
            "block.golden_recall",
            if r.golden_total == 0 { 0.0 } else { r.golden_kept as f64 / r.golden_total as f64 },
        );
        let embedded = r.pairs_embedded + i.pairs_embedded;
        self.layer("matcher.pairs_embedded", embedded as f64);
        self.layer(
            "matcher.featurize_us_per_pair",
            per(r.featurize_ns + i.featurize_ns, embedded) / 1e3,
        );
        self.layer("matcher.infer_us_per_pair", per(r.infer_ns + i.infer_ns, embedded) / 1e3);
        self.layer("ann.index_rows", traced.shadow.index_rows() as f64);
        self.layer("ann.search_us_per_query", per(r.ann_ns, resolves) / 1e3);
        self.layer("graph.forward_rows", per(program.forward_rows, resolves));
        let forward_ns = program.forward_ns.saturating_sub(r.ann_ns);
        self.layer("graph.forward_ms", per(forward_ns, resolves) / 1e6);
        let flops = gnn_flops_per_candidate(snapshot) * r.candidates as f64;
        self.layer("graph.achieved_gflops", flops / (program.gnn_ns.max(1) as f64));
        self.layer("trace.overhead", overhead);
        self.common_layers(snapshot, candidates);
        let self_by_layer = traced.tracer.self_ns_by_layer();
        for (layer, ns) in self_by_layer {
            self.notes.push(format!("trace self time {layer}: {:.1} ms", ns as f64 / 1e6));
        }
    }

    /// The end-to-end metric values, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<f64> {
        let per_s = |n: f64, s: f64| if s > 0.0 { n / s } else { 0.0 };
        vec![
            self.setup_median(|s| s.total_s),
            self.over_slices(false, |w| per_s(w.resolve_ms.len() as f64, w.resolve_wall_s)),
            hd_median(&self.per_op_medians(false)),
            self.over_slices(false, |w| tail(&w.resolve_ms).value),
            self.over_slices(true, |w| per_s(w.ingested as f64, w.ingest_wall_s)),
            hd_median(&self.per_op_medians(true)),
            self.peak_rss_mb,
            self.quality.mi_f1(),
            self.quality.eq_recall(),
        ]
    }

    /// Prints the readable block, then the JSON result as the last line.
    pub fn print(&self, workload: &str, seed: u64, traced: bool) {
        let correct = self.failed() == 0;
        println!("workload {workload}  seed {seed}  trace {}", u8::from(traced));
        println!("answer digest {}", self.digest.hex());
        for (name, value) in &self.props {
            println!("  input {name:<34} {value}");
        }
        for (name, ratio) in &self.window_hit_ratios {
            println!("  window {name:<33} cache hit ratio {ratio:.4}");
        }
        let values = self.end_to_end();
        for ((name, unit), v) in END_TO_END.iter().zip(&values) {
            let slices = |ingest: bool| {
                self.windows
                    .iter()
                    .map(|w| if ingest { w.ingest_ms.len() } else { w.resolve_ms.len() })
                    .filter(|&n| n > 0)
                    .collect::<Vec<_>>()
            };
            let span = |n: &[usize]| match (n.iter().min(), n.iter().max()) {
                (Some(lo), Some(hi)) if lo != hi => format!("{lo}-{hi}"),
                (Some(lo), _) => lo.to_string(),
                _ => "0".into(),
            };
            let extra = match *name {
                "resolve_p50_ms" | "ingest_batch_p50_ms" => {
                    let n = slices(*name == "ingest_batch_p50_ms");
                    let ops = n.iter().min().copied().unwrap_or(0);
                    format!(
                        "  (Harrell-Davis median over {ops} ops of each op's median over {} slices)",
                        n.len()
                    )
                }
                "resolve_qps" | "resolve_tail_ms" => {
                    let n = slices(false);
                    let label = self
                        .windows
                        .iter()
                        .find(|w| !w.resolve_ms.is_empty())
                        .map(|w| tail(&w.resolve_ms).label())
                        .unwrap_or_default();
                    let label =
                        if *name == "resolve_tail_ms" { label + " " } else { String::new() };
                    format!("  ({label}median over {} slices of {} samples)", n.len(), span(&n))
                }
                "ingest_rps" => {
                    let n = slices(true);
                    format!("  (median over {} slices of {} batches)", n.len(), span(&n))
                }
                _ => String::new(),
            };
            println!("  {name:<40} {v:>14.4} {unit}{extra}");
        }
        let attempted = self.attempted();
        let failed = self.failed();
        println!(
            "  {:<40} {:>14.4} ratio  ({failed} failed of {attempted})",
            "failed_ratio",
            failed as f64 / attempted.max(1) as f64
        );
        for (op, c) in &self.ops {
            println!(
                "  ops {op:<36} attempted {} succeeded {} failed {}",
                c.attempted,
                c.attempted - c.failed,
                c.failed
            );
        }
        println!("  oracle mismatches {}", self.mismatches);
        for (name, unit) in PER_LAYER.iter().filter(|_| traced) {
            let v = self.layers.get(name).copied().unwrap_or(0.0);
            let note = if self.layers.contains_key(name) { "" } else { "  (not exercised)" };
            println!("  layer {name:<34} {v:>14.4} {unit}{note}");
        }
        for note in &self.notes {
            println!("  note {note}");
        }
        let mut metrics = String::new();
        let rows: Vec<(&str, &str, f64)> = if traced {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, self.layers.get(n).copied().unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END.iter().zip(&values).map(|(&(n, u), &v)| (n, u, v)).collect()
        };
        for (i, (name, unit, v)) in rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
        );
    }
}
