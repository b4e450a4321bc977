//! Cluster harness for the networked resolution tier: trains one model,
//! pre-shards the snapshot, then boots the **real processes** — N
//! `shard-server`s plus a `router` (from `target/<profile>/`, next to
//! this binary) — and drives cold / ingest / warm load over TCP while an
//! in-process [`ResolutionService`] replays the exact same call
//! sequence. Every networked answer must be **bit-identical** to the
//! in-process one; what the harness measures is what the wire adds.
//!
//! ```text
//! cargo build --release -p flexer-serve --bins   # the processes to spawn
//! cargo run --release --bin cluster -- [--records N] [--seed N] \
//!     [--shards N] [--clients K] [--json]
//! ```
//!
//! Scenarios, in order:
//!
//! * **cold** — one client, every query resolved once against the
//!   freshly booted cluster and checked against the reference;
//! * **ingest** — batches through the router's single-writer lane, with
//!   the returned reports (record ids, pair ids, candidate/suppression
//!   counts) asserted equal to the in-process `ingest_batch`;
//! * **warm** — `--clients` concurrent clients, each with its own
//!   connection and its own [`flexer_obs::Histogram`] of per-resolve
//!   latencies; the per-client histograms are merged and the merge is
//!   asserted bit-exact against recording every sample into one
//!   histogram (the property that makes per-client recording safe).
//!
//! Peak RSS is sampled from `/proc/<pid>/status` for every child, and a
//! clean `Shutdown` must tear the whole tree down with zero exit codes.
//! `--json` writes `BENCH_cluster.json` for the `compare` gate.

use flexer_bench::fixture::{self, Fixture, FixtureConfig, INTENTS};
use flexer_bench::json::{array, write_bench_json, JsonObject};
use flexer_bench::proc::{sibling_bin, spawn_listening, ChildProc};
use flexer_obs::Histogram;
use flexer_serve::{ResolutionService, RouterClient, ServeConfig};
use flexer_types::{ResolveQuery, ShardConfig, WireIngestReport};
use rand::Rng;
use std::time::Instant;

/// Training candidate pairs (modest: the harness measures serving).
const TRAIN_PAIRS: usize = 320;
/// Corpus record queries in the cold pass.
const COLD_RECORDS: usize = 24;
/// Unseen-title and corpus-pair queries in the cold pass.
const COLD_EXOTIC: usize = 4;
/// Ingest batches × batch size pushed through the single-writer lane.
const INGEST_BATCHES: usize = 8;
const BATCH: usize = 12;
/// Record queries in the warm set; every client resolves the whole set
/// [`WARM_ROUNDS`] times.
const WARM_QUERIES: usize = 32;
const WARM_ROUNDS: usize = 3;
/// Rounds in the connection-pool comparison (same concurrent shape as
/// the warm pass, run against a pooled and a pool-of-1 router).
const POOL_ROUNDS: usize = 2;
const TOP_K: usize = 10;

fn main() {
    let args = parse_args();
    eprintln!(
        "[cluster] corpus of {} records, seed {}, {} shards, {} clients",
        args.n_records, args.seed, args.n_shards, args.clients
    );

    // --- Offline phase: train once, pre-shard the snapshot, save it.
    let Fixture { catalog, snapshot, mut rng, .. } = fixture::train(&FixtureConfig {
        name: "cluster-corpus",
        n_records: args.n_records,
        train_pairs: TRAIN_PAIRS,
        intents: &INTENTS,
        k: None,
        seed: args.seed,
    });
    let t0 = Instant::now();
    // Pre-shard: the deployable artifact both sides load below.
    let snapshot = ResolutionService::sharded(
        snapshot,
        ServeConfig::default(),
        ShardConfig::of(args.n_shards),
    )
    .expect("shard the snapshot")
    .to_snapshot();
    let snapshot_path =
        std::env::temp_dir().join(format!("flexer-cluster-{}.flexer", std::process::id()));
    snapshot.save(&snapshot_path).expect("save sharded snapshot");
    eprintln!(
        "[cluster] sharded + saved in {:.1}s ({})",
        t0.elapsed().as_secs_f64(),
        snapshot_path.display()
    );

    // --- The in-process reference replaying every call bit-for-bit.
    let mut reference = ResolutionService::new(snapshot.clone(), ServeConfig::default())
        .expect("load reference service");
    let n_intents = reference.n_intents();

    // --- Boot the real processes: N shard servers, then the router.
    let snapshot_arg = snapshot_path.to_str().expect("utf-8 temp path").to_string();
    let mut shards: Vec<ChildProc> = (0..args.n_shards)
        .map(|s| {
            spawn_listening(
                &sibling_bin("shard-server"),
                &["--snapshot", &snapshot_arg, "--shard", &s.to_string(), "--addr", "127.0.0.1:0"],
            )
        })
        .collect();
    let shard_addrs: Vec<String> = shards.iter().map(|c| c.addr.clone()).collect();
    let mut router = spawn_listening(
        &sibling_bin("router"),
        &["--snapshot", &snapshot_arg, "--shards", &shard_addrs.join(","), "--addr", "127.0.0.1:0"],
    );
    eprintln!("[cluster] router up at {} over shards {:?}", router.addr, shard_addrs);
    let mut client = RouterClient::connect(&*router.addr).expect("connect to router");

    let (n_shards, n_records, hello_intents) = client.hello().expect("hello");
    assert_eq!(n_shards as usize, args.n_shards);
    assert_eq!(n_records as usize, reference.n_records());
    assert_eq!(hello_intents as usize, n_intents);

    // --- Cold pass: single client, fresh caches on both sides.
    let cold_queries: Vec<ResolveQuery> = (0..COLD_RECORDS)
        .map(|i| ResolveQuery::record(reference.record_title((i * 13) % args.n_records)))
        .chain((0..COLD_EXOTIC).map(|i| ResolveQuery::record(format!("no such product {i}"))))
        .chain((0..COLD_EXOTIC).map(ResolveQuery::CorpusPair))
        .collect();
    let t0 = Instant::now();
    let mut checked = 0usize;
    for (i, query) in cold_queries.iter().enumerate() {
        let intent = i % n_intents;
        let over_wire = client.resolve(query.clone(), intent, TOP_K).expect("cold resolve");
        let in_process = reference.resolve(query, intent, TOP_K).map_err(|e| e.to_string());
        assert_eq!(over_wire, in_process, "cold divergence on {query:?} intent {intent}");
        checked += 1;
    }
    let cold_qps = checked as f64 / t0.elapsed().as_secs_f64();
    println!(
        "cold                : {cold_qps:>8.2} resolves/s over {checked} queries, bit-identical"
    );

    // --- Pool phase: the identical concurrent load through this router
    // (which keeps `NetConfig::pool` idle connections per replica) and
    // through a second router booted with `--pool 1`, isolating what
    // shard-connection reuse is worth under concurrency. Runs *before*
    // ingest because a router boot-validates shard record counts against
    // the snapshot and refuses grown shards; `pool1_router` then stays up
    // (idle) until teardown, since shutting a router down cascades to the
    // shard servers both routers share.
    let mut pool1_router = spawn_listening(
        &sibling_bin("router"),
        &[
            "--snapshot",
            &snapshot_arg,
            "--shards",
            &shard_addrs.join(","),
            "--addr",
            "127.0.0.1:0",
            "--pool",
            "1",
        ],
    );
    let pool_queries: Vec<ResolveQuery> = (0..WARM_QUERIES)
        .map(|i| ResolveQuery::record(reference.record_title((i * 7) % args.n_records)))
        .collect();
    let pool_expected: Vec<Result<_, String>> = reference
        .resolve_batch(&pool_queries, 0, TOP_K)
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect();
    let run_concurrent = |addr: &str| -> f64 {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..args.clients)
                .map(|_| {
                    let queries = &pool_queries;
                    let expected = &pool_expected;
                    scope.spawn(move || {
                        let mut client = RouterClient::connect(addr).expect("pool client connect");
                        for _ in 0..POOL_ROUNDS {
                            for (query, want) in queries.iter().zip(expected) {
                                let got =
                                    client.resolve(query.clone(), 0, TOP_K).expect("pool resolve");
                                assert_eq!(&got, want, "pool divergence on {query:?}");
                            }
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("pool client thread");
            }
        });
        (args.clients * POOL_ROUNDS * pool_queries.len()) as f64 / t0.elapsed().as_secs_f64()
    };
    let pool_warm_qps = run_concurrent(&router.addr);
    let pool1_warm_qps = run_concurrent(&pool1_router.addr);
    println!(
        "pool ({} clients)    : {pool_warm_qps:>8.2} resolves/s pooled, \
         {pool1_warm_qps:>8.2} resolves/s with pool=1 (reuse ratio {:.2})",
        args.clients,
        pool_warm_qps / pool1_warm_qps
    );

    // --- Ingest through the single-writer lane: identical reports.
    let titles: Vec<String> = (0..INGEST_BATCHES * BATCH)
        .map(|i| {
            let r = rng.gen_range(0..args.n_records);
            format!("{} listing {i}", catalog.dataset[r].title())
        })
        .collect();
    let t0 = Instant::now();
    for batch in titles.chunks(BATCH) {
        let over_wire = client.ingest_batch(batch.to_vec()).expect("ingest batch");
        let batch_refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        let in_process = reference.ingest_batch(&batch_refs);
        let in_process: Vec<WireIngestReport> = in_process.iter().map(Into::into).collect();
        assert_eq!(over_wire, in_process, "ingest report divergence");
    }
    let ingest_per_sec = titles.len() as f64 / t0.elapsed().as_secs_f64();
    println!(
        "ingest              : {ingest_per_sec:>8.1} ingests/s, {} batches of {BATCH}, \
         reports bit-identical",
        INGEST_BATCHES
    );

    // --- Warm pass: concurrent clients over the grown corpus, expected
    // answers pinned once by the reference.
    let grown = reference.n_records();
    let warm_queries: Vec<ResolveQuery> = (0..WARM_QUERIES)
        .map(|i| ResolveQuery::record(reference.record_title((i * 29) % grown)))
        .collect();
    let expected: Vec<Result<_, String>> = reference
        .resolve_batch(&warm_queries, 0, TOP_K)
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect();
    let t0 = Instant::now();
    let per_client: Vec<(Histogram, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|_| {
                let addr = router.addr.clone();
                let queries = &warm_queries;
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = RouterClient::connect(&*addr).expect("warm client connect");
                    let mut hist = Histogram::new();
                    let mut samples = Vec::with_capacity(WARM_ROUNDS * queries.len());
                    for _ in 0..WARM_ROUNDS {
                        for (query, want) in queries.iter().zip(expected) {
                            let q0 = Instant::now();
                            let got =
                                client.resolve(query.clone(), 0, TOP_K).expect("warm resolve");
                            let ns = q0.elapsed().as_nanos() as u64;
                            hist.record(ns);
                            samples.push(ns);
                            assert_eq!(&got, want, "warm divergence on {query:?}");
                        }
                    }
                    (hist, samples)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("warm client thread")).collect()
    });
    let warm_secs = t0.elapsed().as_secs_f64();
    let warm_resolves = args.clients * WARM_ROUNDS * warm_queries.len();
    let warm_qps = warm_resolves as f64 / warm_secs;

    // Merge the per-client histograms — and prove the merge is bit-exact:
    // folding client histograms (in any order) must equal recording every
    // raw sample into one histogram.
    let mut merged = Histogram::new();
    for (hist, _) in &per_client {
        merged.merge(hist);
    }
    let mut reversed = Histogram::new();
    for (hist, _) in per_client.iter().rev() {
        reversed.merge(hist);
    }
    let mut from_samples = Histogram::new();
    for (_, samples) in &per_client {
        for &ns in samples {
            from_samples.record(ns);
        }
    }
    assert_eq!(merged, reversed, "histogram merge must be order-independent");
    assert_eq!(merged, from_samples, "histogram merge must be bit-exact vs raw samples");
    assert_eq!(merged.count(), warm_resolves as u64);
    let (p50_us, p95_us, mean_us) = (
        merged.quantile(0.5) as f64 / 1e3,
        merged.quantile(0.95) as f64 / 1e3,
        merged.mean() / 1e3,
    );
    println!(
        "warm ({} clients)    : {warm_qps:>8.2} resolves/s, latency p50 {p50_us:.0} us, \
         p95 {p95_us:.0} us (merged over {} samples)",
        args.clients,
        merged.count()
    );

    // --- RSS per process, then a clean shutdown of the whole tree.
    let shard_rss_kb: Vec<u64> = shards.iter().map(|c| rss_kb(c.child.id())).collect();
    let router_rss_kb = rss_kb(router.child.id());
    println!("rss                 : router {} kB, shards {:?} kB", router_rss_kb, shard_rss_kb);

    client.shutdown().expect("clean shutdown");
    let status = router.child.wait().expect("router wait");
    assert!(status.success(), "router exited {status:?}");
    for (s, proc_) in shards.iter_mut().enumerate() {
        let status = proc_.child.wait().expect("shard wait");
        assert!(status.success(), "shard {s} exited {status:?}");
    }
    // The pool-comparison router goes last: its cascaded shard shutdowns
    // are best-effort no-ops now that the shards are already gone.
    let mut pool1_client =
        RouterClient::connect(&*pool1_router.addr).expect("pool-1 shutdown connect");
    pool1_client.shutdown().expect("pool-1 clean shutdown");
    let status = pool1_router.child.wait().expect("pool-1 router wait");
    assert!(status.success(), "pool-1 router exited {status:?}");
    let _ = std::fs::remove_file(&snapshot_path);
    println!("shutdown            : routers + {} shards exited cleanly", args.n_shards);

    if args.json {
        let doc = JsonObject::new()
            .str("bench", "cluster")
            .int("seed", args.seed)
            .int("n_records", args.n_records as u64)
            .int("n_shards", args.n_shards as u64)
            .int("clients", args.clients as u64)
            .int("warm_resolves", warm_resolves as u64)
            .num("cold_qps", cold_qps)
            .num("pool_warm_qps", pool_warm_qps)
            .num("pool1_warm_qps", pool1_warm_qps)
            .num("pool_reuse_ratio", pool_warm_qps / pool1_warm_qps)
            .num("ingest_per_sec", ingest_per_sec)
            .num("warm_qps", warm_qps)
            .num("warm_latency_p50_us", p50_us)
            .num("warm_latency_p95_us", p95_us)
            .num("warm_latency_mean_us", mean_us)
            .int("router_rss_kb", router_rss_kb)
            .raw("shard_rss_kb", array(shard_rss_kb.iter().map(|kb| kb.to_string())))
            .render();
        let path = write_bench_json("cluster", &doc).expect("write BENCH_cluster.json");
        eprintln!("[cluster] wrote {}", path.display());
    }
}

/// Resident-set size of a process in kB, from `/proc/<pid>/status`
/// (0 where procfs is unavailable).
fn rss_kb(pid: u32) -> u64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

struct Args {
    n_records: usize,
    seed: u64,
    n_shards: usize,
    clients: usize,
    json: bool,
}

fn parse_args() -> Args {
    let mut out = Args { n_records: 4000, seed: 17, n_shards: 2, clients: 4, json: false };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--records" => {
                i += 1;
                out.n_records = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--records expects a count"));
            }
            "--seed" => {
                i += 1;
                out.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--seed expects a number"));
            }
            "--shards" => {
                i += 1;
                out.n_shards = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| panic!("--shards expects a count >= 1"));
            }
            "--clients" => {
                i += 1;
                out.clients = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| panic!("--clients expects a count >= 1"));
            }
            "--json" => out.json = true,
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }
    out
}
