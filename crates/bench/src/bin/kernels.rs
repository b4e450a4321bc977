//! Dense-kernel harness for the packed/fused matmul path
//! (`flexer_nn::kernels`): micro-benches the GNN-hit GEMM shapes naive
//! vs packed (GFLOP/s and ns per output row), then measures the
//! end-to-end effect on a trained resolution service by summing the
//! `resolve.forward` stage span over an identical warm window with the
//! packed kernels toggled off and on.
//!
//! ```text
//! cargo run --release --bin kernels -- [--records N] [--seed N] [--json]
//! ```
//!
//! **Bars.** Every micro-bench shape and both end-to-end windows must be
//! bit-identical across the toggle (the kernels' core contract), and at
//! the full 10k-record scale the packed `resolve.forward` time must be
//! ≥ 1.5× faster than the naive sequence — the headline win of the
//! packed rebuild. Below 10k records the ratio is reported but not
//! enforced (small corpora under-fill the kernel).

use flexer_bench::fixture::{self, Fixture, FixtureConfig, INTENTS};
use flexer_bench::json::{array, write_bench_json, JsonObject};
use flexer_nn::kernels::{matmul_packed_into, set_packed_kernels, Epilogue, PackedB};
use flexer_nn::Matrix;
use flexer_serve::{ResolutionService, ServeConfig};
use flexer_types::ResolveQuery;
use std::time::Instant;

/// Training candidate pairs (matches the `serve` harness).
const TRAIN_PAIRS: usize = 360;
/// Warm repeats per toggle state for the end-to-end window.
const WARM_REPEATS: usize = 12;
/// The corpus scale at which the forward-speedup bar is enforced.
const BAR_RECORDS: usize = 10_000;
/// Required `resolve.forward` speedup (packed vs naive) at full scale.
const FORWARD_SPEEDUP_BAR: f64 = 1.5;

/// The GEMM shapes the serving forward actually hits, per model scale:
/// `(label, m, k, n)`. `m` is a corpus-sized candidate batch row count;
/// `k` is the concat width (3·d for relation-typed SAGE layers), `n` the
/// layer output width. The head is the skinny `d × intents` case.
const SHAPES: [(&str, usize, usize, usize); 6] = [
    ("mlp.tiny", 2048, 48, 32),
    ("sage.tiny", 2048, 96, 32),
    ("head.tiny", 2048, 32, 2),
    ("sage.small", 2048, 192, 64),
    ("sage.paper", 2048, 300, 100),
    ("sage.ragged", 2047, 99, 33),
];

/// Deterministic pseudo-random stream (bench fixture only).
struct Lcg(u64);

impl Lcg {
    fn next_f32(&mut self) -> f32 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) % 2048) as f32 / 1024.0 - 1.0
    }

    /// Post-ReLU-like value: ~1/3 exact zeros, exercising the naive
    /// kernel's zero-skip on both paths.
    fn next_activation(&mut self) -> f32 {
        let v = self.next_f32();
        if v < -0.33 {
            0.0
        } else {
            v.abs()
        }
    }
}

/// One micro-bench row.
struct ShapeResult {
    label: &'static str,
    m: usize,
    k: usize,
    n: usize,
    naive_gflops: f64,
    packed_gflops: f64,
    naive_ns_per_row: f64,
    packed_ns_per_row: f64,
}

/// Times `f` over enough repeats to fill ~30ms, returning seconds per
/// call (best of 3 batches, to shed scheduler noise).
fn time_per_call(flop: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: page in, grow scratch
    let reps = ((30e6 / flop.max(1.0)) as usize).clamp(3, 2_000);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

fn bench_shape(label: &'static str, m: usize, k: usize, n: usize, seed: u64) -> ShapeResult {
    let mut lcg = Lcg(seed ^ (m * 31 + k * 7 + n) as u64);
    let a = Matrix::from_fn(m, k, |_, _| lcg.next_activation());
    let b = Matrix::from_fn(k, n, |_, _| lcg.next_f32());
    let bias: Vec<f32> = (0..n).map(|_| lcg.next_f32()).collect();
    let pack = PackedB::pack(&b);
    let flop = 2.0 * (m * k * n) as f64;

    // The naive sequence the packed path replaced: triple-loop matmul,
    // then separate bias and ReLU sweeps.
    let mut naive_out = Matrix::zeros(0, 0);
    let naive_secs = time_per_call(flop, || {
        a.matmul_into(&b, &mut naive_out);
        naive_out.add_row_broadcast(&bias);
        flexer_nn::activation::relu_inplace(&mut naive_out);
    });
    let mut packed_out = Matrix::zeros(0, 0);
    let packed_secs = time_per_call(flop, || {
        matmul_packed_into(&a, &pack, Epilogue::BiasRelu(&bias), &mut packed_out);
    });

    // The contract before the numbers: bit-identical outputs.
    assert_eq!(naive_out.data().len(), packed_out.data().len());
    for (i, (x, y)) in naive_out.data().iter().zip(packed_out.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: element {i} diverges ({x} vs {y})");
    }

    ShapeResult {
        label,
        m,
        k,
        n,
        naive_gflops: flop / naive_secs / 1e9,
        packed_gflops: flop / packed_secs / 1e9,
        naive_ns_per_row: naive_secs * 1e9 / m as f64,
        packed_ns_per_row: packed_secs * 1e9 / m as f64,
    }
}

/// Warm window on one toggle state: `WARM_REPEATS` resolves of the same
/// record query. Returns (responses, forward span ns, sub-span ns, secs).
fn warm_window(
    svc: &ResolutionService,
    warm: &ResolveQuery,
    packed: bool,
) -> (Vec<flexer_types::ResolveResponse>, u64, [u64; 2], f64) {
    set_packed_kernels(packed);
    svc.resolve_all_intents(warm, 10).expect("toggle warm-up");
    let rec = flexer_obs::global();
    rec.reset();
    let mut responses = Vec::new();
    let t0 = Instant::now();
    for _ in 0..WARM_REPEATS {
        responses = svc.resolve_all_intents(warm, 10).expect("warm resolve");
    }
    let secs = t0.elapsed().as_secs_f64();
    let snap = svc.obs_snapshot();
    let forward_ns = snap.span_sum_ns("resolve.forward");
    let subs = [snap.span_sum_ns("forward.localize"), snap.span_sum_ns("forward.gnn")];
    (responses, forward_ns, subs, secs)
}

fn main() {
    let (n_records, seed, json, micro_only) = parse_args();

    // --- Micro-benches over the GNN-hit shapes.
    println!("== dense kernels: naive vs packed (bit-identity asserted per shape) ==");
    println!(
        "{:<14} {:>14} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "shape", "m x k x n", "naive GF/s", "packed GF/s", "naive ns/r", "packed ns/r", "ratio"
    );
    let mut shape_results = Vec::new();
    for (label, m, k, n) in SHAPES {
        let r = bench_shape(label, m, k, n, seed);
        println!(
            "{:<14} {:>14} {:>12.2} {:>12.2} {:>12.0} {:>12.0} {:>7.2}x",
            r.label,
            format!("{}x{}x{}", r.m, r.k, r.n),
            r.naive_gflops,
            r.packed_gflops,
            r.naive_ns_per_row,
            r.packed_ns_per_row,
            r.packed_gflops / r.naive_gflops,
        );
        shape_results.push(r);
    }
    // --- Micro-bench the batched ANN scan against the serving-shaped
    // workload: many candidate queries against a small frozen pair index.
    {
        use flexer_ann::{FlatIndex, VectorIndex};
        let (n_rows, dim, n_queries) = (360usize, 32usize, 2048usize);
        let mut lcg = Lcg(seed ^ 0xA11);
        let rows: Vec<f32> = (0..n_rows * dim).map(|_| lcg.next_f32()).collect();
        let index = FlatIndex::from_rows(dim, &rows);
        let qdata: Vec<f32> = (0..n_queries * dim).map(|_| lcg.next_f32()).collect();
        let queries: Vec<&[f32]> = qdata.chunks(dim).collect();
        let flop = (n_queries * n_rows * dim * 3) as f64;
        let serial_secs = time_per_call(flop, || {
            for q in &queries {
                std::hint::black_box(index.search(q, 6));
            }
        });
        let batch_secs = time_per_call(flop, || {
            std::hint::black_box(index.search_batch(&queries, 6));
        });
        println!(
            "{:<14} {:>14} {:>12.2} {:>12.2} {:>12.0} {:>12.0} {:>7.2}x",
            "scan.serve",
            format!("{n_queries}q x {n_rows}x{dim}"),
            flop / serial_secs / 1e9,
            flop / batch_secs / 1e9,
            serial_secs * 1e9 / n_queries as f64,
            batch_secs * 1e9 / n_queries as f64,
            serial_secs / batch_secs,
        );
    }
    if micro_only {
        return;
    }

    // --- End-to-end: the same offline phase as the `serve` harness, then
    // the warm record-resolve window under each toggle state.
    eprintln!("[kernels] training over {n_records} records, seed {seed}...");
    let Fixture { snapshot, .. } = fixture::train(&FixtureConfig {
        name: "kernels-corpus",
        n_records,
        train_pairs: TRAIN_PAIRS,
        intents: &INTENTS,
        k: Some(6),
        seed,
    });
    let serve_config = ServeConfig {
        exhaustive: true,
        cache_capacity: (4 * n_records).max(1024),
        ..ServeConfig::default()
    };
    let svc = ResolutionService::new(snapshot, serve_config).expect("load service");
    let warm = ResolveQuery::record(svc.record_title(0));

    // Naive first, packed second; identical cache state by construction
    // (the warm-up resolve before each window populates it).
    let (naive_resp, naive_forward_ns, naive_subs, naive_secs) = warm_window(&svc, &warm, false);
    let (packed_resp, packed_forward_ns, packed_subs, packed_secs) = warm_window(&svc, &warm, true);
    set_packed_kernels(true);
    assert_eq!(
        naive_resp, packed_resp,
        "packed kernels changed a resolve response bit at bench scale"
    );

    let cand = svc.obs_snapshot().counter("serve.resolve.candidates").unwrap_or(0);
    eprintln!(
        "[kernels] {} candidates/resolve, {} stored pairs",
        cand / WARM_REPEATS as u64,
        svc.n_pairs(),
    );
    let forward_speedup = naive_forward_ns as f64 / packed_forward_ns.max(1) as f64;
    let qps_naive = WARM_REPEATS as f64 / naive_secs;
    let qps_packed = WARM_REPEATS as f64 / packed_secs;
    println!(
        "resolve.forward     : {:.1}ms naive -> {:.1}ms packed over {WARM_REPEATS} warm resolves",
        naive_forward_ns as f64 / 1e6,
        packed_forward_ns as f64 / 1e6
    );
    println!("  forward speedup   : {forward_speedup:>10.2}x (packed vs naive, same service)");
    println!(
        "  forward breakdown : localize {:.1}ms -> {:.1}ms, gnn {:.1}ms -> {:.1}ms",
        naive_subs[0] as f64 / 1e6,
        packed_subs[0] as f64 / 1e6,
        naive_subs[1] as f64 / 1e6,
        packed_subs[1] as f64 / 1e6,
    );
    println!("  warm record qps   : {qps_naive:>10.2} naive, {qps_packed:.2} packed");
    if n_records >= BAR_RECORDS {
        assert!(
            forward_speedup >= FORWARD_SPEEDUP_BAR,
            "resolve.forward packed speedup at {n_records} records is {forward_speedup:.2}x \
             (need >= {FORWARD_SPEEDUP_BAR}x)"
        );
    } else {
        println!("  (speedup bar enforced at {BAR_RECORDS}+ records; reporting only)");
    }

    if json {
        let shapes_json = array(shape_results.iter().map(|r| {
            JsonObject::new()
                .str("shape", r.label)
                .int("m", r.m as u64)
                .int("k", r.k as u64)
                .int("n", r.n as u64)
                .num("naive_gflops", r.naive_gflops)
                .num("packed_gflops", r.packed_gflops)
                .num("naive_ns_per_row", r.naive_ns_per_row)
                .num("packed_ns_per_row", r.packed_ns_per_row)
                .num("kernel_speedup", r.packed_gflops / r.naive_gflops)
                .render()
        }));
        let doc = JsonObject::new()
            .str("bench", "kernels")
            .int("seed", seed)
            .int("n_records", svc.n_records() as u64)
            .int("warm_repeats", WARM_REPEATS as u64)
            .raw("shapes", shapes_json)
            .int("forward_naive_ns", naive_forward_ns)
            .int("forward_packed_ns", packed_forward_ns)
            .num("forward_speedup", forward_speedup)
            .num("record_qps_naive", qps_naive)
            .num("record_qps_packed", qps_packed)
            .render();
        let path = write_bench_json("kernels", &doc).expect("write BENCH_kernels.json");
        eprintln!("[kernels] wrote {}", path.display());
    }
}

fn parse_args() -> (usize, u64, bool, bool) {
    let mut n_records = 10_000usize;
    let mut seed = 17u64;
    let mut json = false;
    let mut micro_only = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--micro-only" => micro_only = true,
            "--records" => {
                i += 1;
                n_records = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--records expects an integer"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed expects an integer"));
            }
            "--json" => json = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    (n_records, seed, json, micro_only)
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: kernels [--records N] [--seed N] [--json] [--micro-only]");
    std::process::exit(2)
}
