//! `cluster`: the real `router` and two `shard-server` processes (one
//! replica each) on loopback, driven by two closed-loop client
//! connections. An episode boots a fresh process tree and runs [`ROUNDS`]
//! rounds: one ingest batch through the router's single-writer lane, then
//! both clients resolve the hot titles plus unseen listings of the
//! round's products, and every [`PROBE_EVERY`]th round a flood probe.
//! Every answer and ingest report must equal, bit for
//! bit, an in-process `ShardedResolutionService` replaying the same
//! sequence outside the timed window.

use crate::fixture::{train_snapshot, Inputs, Variant, CORPUS_SEED, INTENTS, TOP_K};
use crate::inproc::{flood_probe, hot_set, traffic_props, Strata, BATCH, PROBE_EVERY};
use crate::layers::Shadow;
use crate::quality::Labels;
use crate::report::{slice_p50, Report, SetupSample};
use crate::session::{CacheDelta, Samples, Session, Traced};
use crate::stats::{median, peak_rss_mb, OpCount};
use flexer::serve::{IngestReport, RouterClient, ServeConfig, ShardedResolutionService};
use flexer::store::{frame_message, ModelSnapshot};
use flexer::types::{
    ResolveQuery, ResolveResponse, RouterRequest, RouterResponse, ShardConfig, WireIngestReport,
};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const CLIENTS: usize = 2;
/// Rounds per episode. They end an episode near 9.7k pairs, well clear of
/// 11,520, where the router's ANN storage doubles (360 pairs doubled five
/// times): 12 rounds ended on either side of it by seed, and the router's
/// peak memory with them, 43 or 51 MB.
const ROUNDS: usize = 10;
/// Episodes (each on a freshly set-up process tree) a run makes at least.
const MIN_EPISODES: usize = 3;
/// Bound on any single client exchange, so a hung process fails the run
/// instead of stalling it.
const CLIENT_IO: Duration = Duration::from_secs(30);
/// How long a process may take to exit after the shutdown request.
const EXIT_WAIT: Duration = Duration::from_secs(10);

type Answer = Result<ResolveResponse, String>;

/// One query of a round's resolve list.
#[derive(Clone)]
struct Query {
    title: String,
    /// The catalog record the query derives from; `None` for a flood probe.
    source: Option<usize>,
    /// The served record the query repeats verbatim (hot titles).
    itself: Option<usize>,
}

struct Round {
    ingest: Vec<Variant>,
    queries: Vec<Query>,
    /// True Equivalence matches of each query once the round's batch is in.
    truths: Vec<Vec<usize>>,
}

/// Intent client `c` resolves query `i` under: client 0 always asks for
/// Equivalence, so every query has an answer for `eq_recall_at_k`; client
/// 1 alternates the other intents.
fn intent_of(c: usize, i: usize) -> usize {
    if c == 0 {
        0
    } else {
        1 + i % (INTENTS.len() - 1)
    }
}

/// What the replay says every op of an episode returns.
struct Expected {
    reports: Vec<Vec<WireIngestReport>>,
    /// `answers[round][client][i]`.
    answers: Vec<Vec<Vec<Answer>>>,
}

/// Ingest reports per round; `None` where the call failed.
type SeenReports = Vec<Option<Vec<WireIngestReport>>>;
/// `answers[round][client][i]`; `None` where the call failed.
type SeenAnswers = Vec<Vec<Vec<Option<Answer>>>>;

/// One episode's client-observed outputs.
struct Observed {
    reports: SeenReports,
    answers: SeenAnswers,
    samples: Samples,
    wire_bytes: u64,
}

pub fn run(mut inputs: Inputs, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let bin_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .expect("the executable's directory");
    let work = crate::out_dir().join("work");
    std::fs::create_dir_all(&work).expect("create the work directory");
    let snapshot_path = work.join(format!("cluster-{}.flexer", std::process::id()));

    let (mut tree, unsharded, sharded_bytes) =
        setup(&inputs, &bin_dir, &snapshot_path, &mut report);
    let (rounds, strata) = plan(&mut inputs, &unsharded);

    // The replay, run before the window: its answers are the oracle and its
    // per-op times are `router.inproc_ms`.
    let sharded = ModelSnapshot::from_bytes(&sharded_bytes).expect("sharded snapshot decodes");
    let (expected, inproc) = replay(&sharded, &rounds, None);
    let mut episode_samples: Vec<Samples> = Vec::new();
    let mut first: Option<(SeenReports, SeenAnswers)> = None;
    // Peak resident sets of each episode's fresh process tree.
    let (mut router_mb, mut server_mb, mut tree_mb) = (Vec::new(), Vec::new(), Vec::new());
    let mut faults = 0u64;
    let mut wire_bytes = 0u64;
    let mut episodes = 0;
    let mut exits = OpCount::default();
    loop {
        let observed = episode(&mut tree, &rounds, &expected, &mut report);
        let (r_mb, s_mb) = tree.rss_mb();
        router_mb.push(r_mb);
        server_mb.push(s_mb);
        tree_mb.push(r_mb + s_mb);
        faults += tree.faults();
        exits.merge(tree.shutdown());
        episode_samples.push(observed.samples);
        wire_bytes += observed.wire_bytes;
        match &first {
            None => first = Some((observed.reports, observed.answers)),
            Some((reports, answers)) => {
                if *reports != observed.reports || *answers != observed.answers {
                    report.notes.push(format!("episode {episodes} diverged from the first"));
                    report.mismatches += 1;
                }
            }
        }
        episodes += 1;
        let busy: f64 = episode_samples.iter().map(Samples::busy_s).sum();
        if episodes >= MIN_EPISODES && busy >= seconds {
            break;
        }
        tree = setup_once(&inputs, &bin_dir, &snapshot_path, &sharded_bytes, &mut report);
    }
    let _ = std::fs::remove_file(&snapshot_path);
    let router_p50 = slice_p50(&episode_samples);
    let mut samples = Samples::default();
    for s in episode_samples {
        samples.merge(s.clone());
        report.absorb(s);
    }
    report.op("process_exit", exits);
    report.peak_rss_mb = median(&tree_mb);
    // The router does not expose its cache counters; the replay runs the
    // same sequence on the same scoring tier.
    report.window_hit_ratios.push(("replay", inproc.cache.hit_ratio()));

    if traced {
        let mut tr = Traced::new(Shadow::new(&unsharded, ServeConfig::default().cache_capacity));
        let (again, t) = replay(&sharded, &rounds, Some(&mut tr));
        if again.reports != expected.reports || again.answers != expected.answers {
            report.notes.push("traced replay diverged from the untraced one".into());
            report.mismatches += 1;
        }
        // The client-observed numbers are never traced: the overhead of
        // tracing the in-process replay is what the ratio reports.
        let inproc_p50 = median(&inproc.samples.resolve_ms);
        let overhead = median(&t.samples.resolve_ms) / inproc_p50;
        report.session_layers(&t.samples, &tr, t.cache, t.n_pairs, &unsharded, overhead);
        report.layer("router.resolve_ms", router_p50);
        report.layer("router.inproc_ms", inproc_p50);
        report.layer("wire.overhead_ms", router_p50 - inproc_p50);
        report.layer(
            "wire.bytes_per_resolve",
            wire_bytes as f64 / samples.resolve_ms.len().max(1) as f64,
        );
        report.layer("router.ingest_batch_ms", median(&samples.ingest_ms));
        report.layer("router.faults", faults as f64);
        report.layer("router.rss_mb", median(&router_mb));
        report.layer("server.rss_mb", median(&server_mb));
        crate::write_trace(&tr, &report, "cluster", inputs.seed);
    }

    // Digest and quality over the first episode, in op order.
    let (reports, answers) = first.expect("one episode ran");
    let mut labels = Labels::new(&inputs.catalog);
    for ((round, batch), per_client) in rounds.iter().zip(&reports).zip(&answers) {
        for (v, r) in round.ingest.iter().zip(batch.iter().flatten()) {
            labels.ingested(v.source);
            report.digest.ingest(&IngestReport {
                record: r.record as usize,
                first_pair: r.first_pair as usize,
                n_pairs: r.n_pairs as usize,
                n_suppressed: r.n_suppressed as usize,
            });
        }
        for list in per_client {
            for (q, answer) in round.queries.iter().zip(list) {
                match answer {
                    Some(Ok(resp)) => {
                        report.digest.response(resp);
                        if let Some(source) = q.source {
                            report.quality.add(&labels, source, q.itself, resp);
                        }
                    }
                    Some(Err(e)) => report.digest.error(e),
                    None => report.digest.error("no answer"),
                }
            }
        }
    }

    let candidates: u64 = expected.reports.iter().flatten().map(|r| r.n_pairs).sum();
    report.prop("seed", inputs.seed);
    report.prop("corpus_seed", CORPUS_SEED);
    report.prop("corpus_records", inputs.n_records());
    report.prop("shards_x_replicas", format!("{SHARDS} x 1"));
    report.prop("clients", CLIENTS);
    report.prop("rounds_per_episode", ROUNDS);
    report.prop("episodes", episodes);
    report.prop("records_ingested_per_episode", ROUNDS * BATCH);
    report.prop("final_pairs", inproc.n_pairs);
    report.prop(
        "candidates_per_ingest",
        format!("{:.1}", candidates as f64 / (ROUNDS * BATCH) as f64),
    );
    let listings: Vec<&str> =
        rounds.iter().flat_map(|r| &r.ingest).map(|v| v.title.as_str()).collect();
    let probes: Vec<&str> = rounds
        .iter()
        .flat_map(|r| &r.queries)
        .filter(|q| q.source.is_none())
        .map(|q| q.title.as_str())
        .collect();
    traffic_props(&mut report, &unsharded, &strata, &listings, &probes);
    report.prop("replay_flood_rejections", inproc.cache.flood_rejections);
    let resolves: usize = rounds.iter().map(|r| r.queries.len()).sum();
    report.prop("resolves_per_episode", CLIENTS * resolves);
    report.prop("router_faults", faults);
    report.prop("eq_true_matches", report.quality.eq_true());
    report
}

/// Draws the episode plan: the hot set, then per round a batch of unseen
/// listings to ingest and unseen listings of the same products to resolve,
/// plus every [`PROBE_EVERY`]th round a flood probe.
fn plan(inputs: &mut Inputs, snapshot: &ModelSnapshot) -> (Vec<Round>, Strata) {
    let hot: Vec<Query> = hot_set(inputs, snapshot)
        .into_iter()
        .map(|r| Query { title: inputs.title(r).to_string(), source: Some(r), itself: Some(r) })
        .collect();
    let strata = Strata::new(inputs, snapshot);
    let drawn: Vec<(Vec<Variant>, Vec<Query>)> = (0..ROUNDS)
        .map(|r| {
            let (ingest, queries): (Vec<Variant>, Vec<Variant>) =
                (0..BATCH).map(|i| strata.listings(inputs, snapshot, i)).unzip();
            let mut unseen: Vec<Query> = queries
                .into_iter()
                .map(|q| Query { title: q.title, source: Some(q.source), itself: None })
                .collect();
            if r % PROBE_EVERY == PROBE_EVERY - 1 {
                let title = flood_probe(inputs, snapshot);
                unseen.push(Query { title, source: None, itself: None });
            }
            (ingest, unseen)
        })
        .collect();
    let mut labels = Labels::new(&inputs.catalog);
    let rounds = drawn
        .into_iter()
        .map(|(ingest, unseen)| {
            for v in &ingest {
                labels.ingested(v.source);
            }
            let queries: Vec<Query> = hot.iter().cloned().chain(unseen).collect();
            let truths = queries
                .iter()
                .map(|q| q.source.map_or_else(Vec::new, |s| labels.true_matches(s, q.itself)))
                .collect();
            Round { ingest, queries, truths }
        })
        .collect();
    (rounds, strata)
}

/// The replay's timing and state, for the per-layer numbers.
struct ReplayOut {
    samples: Samples,
    cache: CacheDelta,
    n_pairs: usize,
}

/// Runs one episode's op sequence on an in-process sharded service: the
/// warm-up, then per round the ingest batch and each client's list in
/// client order.
fn replay(
    sharded: &ModelSnapshot,
    rounds: &[Round],
    traced: Option<&mut Traced>,
) -> (Expected, ReplayOut) {
    let svc = ShardedResolutionService::new(
        sharded.clone(),
        ServeConfig::default(),
        ShardConfig::of(SHARDS),
    )
    .expect("replay loads");
    let mut session = Session::new(svc, traced);
    for q in &rounds[0].queries[..hot_len(rounds)] {
        let _ = session.warm(&q.title, Some(0));
    }
    let m0 = session.frontend.metrics();
    let mut expected = Expected { reports: Vec::new(), answers: Vec::new() };
    for round in rounds {
        let titles: Vec<&str> = round.ingest.iter().map(|v| v.title.as_str()).collect();
        expected.reports.push(session.ingest(&titles).iter().map(as_wire).collect());
        let per_client = (0..CLIENTS)
            .map(|c| {
                round
                    .queries
                    .iter()
                    .zip(&round.truths)
                    .enumerate()
                    .map(|(i, (q, truth))| {
                        session
                            .resolve(&q.title, Some(intent_of(c, i)), truth)
                            .map(|mut v| v.pop().expect("one response"))
                    })
                    .collect()
            })
            .collect();
        expected.answers.push(per_client);
    }
    let m1 = session.frontend.metrics();
    let mut cache = CacheDelta::default();
    cache.add(&m0, &m1);
    let n_pairs = session.frontend.n_pairs();
    (expected, ReplayOut { samples: session.samples, cache, n_pairs })
}

fn hot_len(rounds: &[Round]) -> usize {
    rounds[0].queries.iter().take_while(|q| q.itself.is_some()).count()
}

fn as_wire(r: &IngestReport) -> WireIngestReport {
    WireIngestReport {
        record: r.record as u64,
        first_pair: r.first_pair as u64,
        n_pairs: r.n_pairs as u64,
        n_suppressed: r.n_suppressed as u64,
    }
}

/// Runs one episode against a booted tree.
fn episode(
    tree: &mut Tree,
    rounds: &[Round],
    expected: &Expected,
    report: &mut Report,
) -> Observed {
    let mut clients: Vec<RouterClient> = (0..CLIENTS)
        .map(|_| {
            RouterClient::connect_with_timeout(&*tree.router.addr, CLIENT_IO, CLIENT_IO)
                .expect("connect to the router")
        })
        .collect();
    for q in &rounds[0].queries[..hot_len(rounds)] {
        let _ = clients[0].resolve(ResolveQuery::record(q.title.as_str()), 0, TOP_K);
    }
    let mut obs = Observed {
        reports: Vec::new(),
        answers: Vec::new(),
        samples: Samples::default(),
        wire_bytes: 0,
    };
    for (r, round) in rounds.iter().enumerate() {
        let titles: Vec<String> = round.ingest.iter().map(|v| v.title.clone()).collect();
        let t0 = Instant::now();
        let got = clients[0].ingest_batch(titles).ok();
        let s = t0.elapsed().as_secs_f64();
        obs.samples.ingest_ms.push(s * 1e3);
        obs.samples.ingest_wall_s += s;
        obs.samples.ingests.record(got.is_some());
        obs.samples.ingested += got.as_ref().map_or(0, |g| g.len() as u64);
        if got.as_ref().is_some_and(|g| *g != expected.reports[r]) {
            report.notes.push(format!("round {r}: ingest reports differ from the replay"));
            report.mismatches += 1;
        }
        obs.reports.push(got);

        let t0 = Instant::now();
        let per_client: Vec<(Vec<Option<Answer>>, Vec<f64>, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let queries = &round.queries;
                    s.spawn(move || {
                        let mut answers = Vec::with_capacity(queries.len());
                        let mut lat = Vec::with_capacity(queries.len());
                        let mut bytes = 0u64;
                        for (i, q) in queries.iter().enumerate() {
                            let query = ResolveQuery::record(q.title.as_str());
                            let intent = intent_of(c, i);
                            let q0 = Instant::now();
                            let got = client.resolve(query.clone(), intent, TOP_K).ok();
                            lat.push(q0.elapsed().as_secs_f64() * 1e3);
                            if let Some(answer) = &got {
                                bytes += wire_bytes(query, intent, answer);
                            }
                            answers.push(got);
                        }
                        (answers, lat, bytes)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        obs.samples.resolve_wall_s += t0.elapsed().as_secs_f64();
        let mut answers = Vec::with_capacity(CLIENTS);
        for (c, (got, lat, bytes)) in per_client.into_iter().enumerate() {
            obs.samples.resolve_ms.extend(lat);
            obs.wire_bytes += bytes;
            for (i, answer) in got.iter().enumerate() {
                obs.samples.resolves.record(answer.is_some());
                if answer.as_ref().is_some_and(|a| *a != expected.answers[r][c][i]) {
                    report.mismatches += 1;
                    report.notes.push(format!("round {r} client {c} query {i}: answer differs"));
                }
            }
            answers.push(got);
        }
        obs.answers.push(answers);
    }
    tree.client = clients.into_iter().next();
    obs
}

/// Framed request plus response size of one resolve exchange.
fn wire_bytes(query: ResolveQuery, intent: usize, answer: &Answer) -> u64 {
    let request = RouterRequest::Resolve { query, intent: intent as u64, top_k: TOP_K as u64 };
    let response = RouterResponse::Resolve(answer.clone());
    (frame_message(&request).len() + frame_message(&response).len()) as u64
}

/// One set-up: train, encode, decode, pre-shard and load in process, save
/// the sharded snapshot, boot the process tree. Returns the tree, the
/// decoded unsharded snapshot and the sharded snapshot's bytes.
fn setup(
    inputs: &Inputs,
    bin_dir: &Path,
    path: &Path,
    report: &mut Report,
) -> (Tree, ModelSnapshot, Vec<u8>) {
    let (snapshot, _bytes, times) = train_snapshot(inputs);
    let unsharded = snapshot.clone();
    let t0 = Instant::now();
    let svc =
        ShardedResolutionService::new(snapshot, ServeConfig::default(), ShardConfig::of(SHARDS))
            .expect("sharded service loads");
    let load_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let sharded = svc.to_snapshot();
    drop(svc);
    let bytes = sharded.to_bytes();
    std::fs::write(path, &bytes).expect("write the sharded snapshot");
    let tree = Tree::boot(bin_dir, path).expect("boot the process tree");
    let ship_s = t0.elapsed().as_secs_f64();
    report.setups.push(SetupSample {
        total_s: times.fit_s + times.encode_s + times.decode_s + load_s + ship_s,
        fit_s: times.fit_s,
        encode_s: times.encode_s,
        decode_s: times.decode_s,
        load_s,
        snapshot_bytes: times.snapshot_bytes,
    });
    (tree, unsharded, bytes)
}

/// A later set-up, which must reproduce the first one's sharded bytes.
fn setup_once(
    inputs: &Inputs,
    bin_dir: &Path,
    path: &Path,
    first: &[u8],
    report: &mut Report,
) -> Tree {
    let (tree, _, bytes) = setup(inputs, bin_dir, path, report);
    if bytes != first {
        report.notes.push("set-ups produced different snapshots".into());
        report.mismatches += 1;
    }
    tree
}

/// A spawned serve process and the address it printed.
struct ChildProc {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl ChildProc {
    fn spawn(bin: &Path, args: &[&str]) -> std::io::Result<Self> {
        let mut child = Command::new(bin).args(args).stdout(Stdio::piped()).spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        for line in &mut lines {
            if let Some(addr) = line?.strip_prefix("LISTEN ") {
                let addr = addr.trim().to_string();
                // Keep draining so the child never blocks on a full pipe.
                let drain = std::thread::spawn(move || for _ in lines {});
                return Ok(Self { child, addr, drain: Some(drain) });
            }
        }
        let _ = child.kill();
        let status = child.wait()?;
        Err(std::io::Error::other(format!("{} exited ({status}) before LISTEN", bin.display())))
    }

    /// Waits up to [`EXIT_WAIT`] for the process to exit, killing it
    /// after that; true on a zero exit code.
    fn wait(&mut self) -> bool {
        let deadline = Instant::now() + EXIT_WAIT;
        let mut status = None;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(s)) => {
                    status = Some(s);
                    break;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        if status.is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        status.is_some_and(|s| s.success())
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        if self.drain.is_some() {
            let _ = self.child.kill();
            self.wait();
        }
    }
}

/// The router plus its shard servers.
struct Tree {
    router: ChildProc,
    shards: Vec<ChildProc>,
    /// A client connection kept for stats and shutdown.
    client: Option<RouterClient>,
}

impl Tree {
    fn boot(bin_dir: &Path, snapshot: &Path) -> std::io::Result<Self> {
        let snap = snapshot.to_str().expect("utf-8 path");
        let bin = |name: &str| -> PathBuf {
            bin_dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX))
        };
        let shards = (0..SHARDS)
            .map(|s| {
                ChildProc::spawn(
                    &bin("shard-server"),
                    &["--snapshot", snap, "--shard", &s.to_string(), "--addr", "127.0.0.1:0"],
                )
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let addrs: Vec<&str> = shards.iter().map(|c| c.addr.as_str()).collect();
        let router = ChildProc::spawn(
            &bin("router"),
            &["--snapshot", snap, "--shards", &addrs.join(","), "--addr", "127.0.0.1:0"],
        )?;
        let mut client = RouterClient::connect_with_timeout(&*router.addr, CLIENT_IO, CLIENT_IO)?;
        client.hello().map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(Self { router, shards, client: Some(client) })
    }

    /// Peak RSS of the router and the summed shard servers, in MiB.
    fn rss_mb(&self) -> (f64, f64) {
        let router = peak_rss_mb(self.router.child.id());
        let shards = self.shards.iter().map(|s| peak_rss_mb(s.child.id())).sum();
        (router, shards)
    }

    /// Timeouts, failovers, degraded fan-outs and deferred inserts the
    /// router counted.
    fn faults(&mut self) -> u64 {
        let Some(client) = self.client.as_mut() else { return 0 };
        let Ok(stats) = client.stats() else { return 1 };
        stats
            .iter()
            .filter(|(name, _)| {
                ["timeout", "failover", "degraded", "insert_deferred"]
                    .iter()
                    .any(|f| name.ends_with(&format!(".{f}")))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Shuts the tree down through the router and waits for every
    /// process; counts each process exit, failed unless it exited 0.
    fn shutdown(mut self) -> OpCount {
        let mut exits = OpCount::default();
        if let Some(mut client) = self.client.take() {
            let _ = client.shutdown();
        }
        exits.record(self.router.wait());
        for shard in &mut self.shards {
            exits.record(shard.wait());
        }
        exits
    }
}
