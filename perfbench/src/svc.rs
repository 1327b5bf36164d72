//! The service workloads: a `MatchingService` behind `TcpFacade`, driven
//! by a closed loop of one connection per worker thread.
//!
//! `svc-read-mostly` sends the `load_gen` read mix with a 4-seed query
//! pool; `svc-churn` writes on every 4th request of connection 0 and
//! queries from a 64-seed pool, so most queries miss the cache.
//! Connection 0 owns a `DeltaGraph` mirror; every batch it sends is valid
//! against the mirror, so any `Error` response is a service fault.

use std::io;
use std::time::{Duration, Instant};

use congest_approx::matching::{grouped_mwm_repair, mwm_grouped_with};
use congest_graph::{DeltaGraph, Graph, NodeId, ShardPartition};
use congest_mis::{luby_repair, LubyMis, MisResult};
use congest_service::{
    DeltaOp, MatchingService, Request, Response, ServiceConfig, ServiceServer, TcpClient, TcpFacade,
};
use congest_sim::{Engine, SimConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::check;
use crate::stats::{median, us, Report};
use crate::trace::Tracer;

/// Node count of the service graph.
pub const SVC_N: usize = 2_000;
/// Edge weights of the service graph are uniform in `[1, SVC_WEIGHT_MAX]`.
pub const SVC_WEIGHT_MAX: u64 = 32;
/// Requests per connection in the traced run.
const TRACED_REQUESTS: usize = 64;
/// Warm-up requests per connection before the timed window.
const WARMUP_REQUESTS: usize = 4;
/// Luby runs per executor when timing the cache-miss path.
const MISS_RUNS: usize = 32;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    ReadMostly,
    Churn,
}

impl Mix {
    pub const ALL: [Mix; 2] = [Mix::ReadMostly, Mix::Churn];

    fn pool(self) -> u64 {
        match self {
            Mix::ReadMostly => 4,
            Mix::Churn => 64,
        }
    }

    /// Whether request `i` of connection 0 is a write.
    fn writes_at(self, i: usize) -> bool {
        match self {
            Mix::ReadMostly => i > 0 && i.is_multiple_of(2048),
            Mix::Churn => i % 4 == 3,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Mix::ReadMostly => "svc-read-mostly",
            Mix::Churn => "svc-churn",
        }
    }
}

/// One connection's request stream.
pub struct Gen {
    rng: SmallRng,
    mix: Mix,
    n0: u32,
    /// Connection 0's mirror of the graph; `None` on the others.
    mirror: Option<DeltaGraph>,
    i: usize,
}

impl Gen {
    /// Connection `conn`'s stream; connection 0 writes when `writes`.
    pub fn new(mix: Mix, seed: u64, conn: usize, g: &Graph, writes: bool) -> Gen {
        Gen {
            rng: SmallRng::seed_from_u64(seed ^ (0x5EED_0000 + conn as u64)),
            mix,
            n0: g.num_nodes() as u32,
            mirror: (writes && conn == 0).then(|| DeltaGraph::new(g.clone())),
            i: 0,
        }
    }

    pub fn next_request(&mut self) -> Request {
        let i = self.i;
        self.i += 1;
        if let Some(mirror) = self.mirror.as_mut().filter(|_| self.mix.writes_at(i)) {
            let ops = draw_mutation(&mut self.rng, mirror);
            if !ops.is_empty() {
                return Request::ApplyDeltas { ops };
            }
        }
        draw_read(&mut self.rng, self.mix, self.n0)
    }
}

/// The `load_gen` read mix for `svc-read-mostly`; for `svc-churn`, 40 %
/// queries and the same reads in proportion for the rest.
fn draw_read(rng: &mut SmallRng, mix: Mix, n: u32) -> Request {
    let seed = rng.random_range(0..mix.pool());
    let (independent, matched, fingerprint, users, mis) = match mix {
        Mix::ReadMostly => (40, 70, 80, 90, 98),
        Mix::Churn => (30, 52, 58, 78, 98),
    };
    match rng.random_range(0..100u32) {
        r if r < independent => {
            let k = rng.random_range(2..=4usize);
            Request::IsIndependent {
                nodes: (0..k).map(|_| rng.random_range(0..n)).collect(),
            }
        }
        r if r < matched => Request::IsMatched {
            node: rng.random_range(0..n),
        },
        r if r < fingerprint => Request::Fingerprint,
        r if r < users => Request::MatchUsers { seed },
        r if r < mis => Request::MisQuery { seed },
        _ => Request::Stats,
    }
}

/// A batch of 1–3 ops, valid against `mirror`, applied to it as drawn.
fn draw_mutation(rng: &mut SmallRng, mirror: &mut DeltaGraph) -> Vec<DeltaOp> {
    let mut ops = Vec::new();
    for _ in 0..rng.random_range(1..=3usize) {
        let alive: Vec<u32> = (0..mirror.num_slots() as u32)
            .filter(|&v| mirror.is_alive(NodeId(v)))
            .collect();
        let pick = |rng: &mut SmallRng| alive[rng.random_range(0..alive.len())];
        let op = match rng.random_range(0..4u32) {
            0 => {
                let (u, v) = (pick(rng), pick(rng));
                (u != v && !mirror.has_edge(NodeId(u), NodeId(v)))
                    .then(|| DeltaOp::InsertEdge(u, v, rng.random_range(1..=SVC_WEIGHT_MAX)))
            }
            1 => {
                let v = pick(rng);
                mirror
                    .neighbors(NodeId(v))
                    .first()
                    .map(|&(u, _)| DeltaOp::RemoveEdge(v, u.0))
            }
            2 => Some(DeltaOp::AddNode(rng.random_range(1..=8u64))),
            _ => (alive.len() > 2).then(|| DeltaOp::RemoveNode(pick(rng))),
        };
        if let Some(op) = op {
            apply_op(mirror, &op);
            ops.push(op);
        }
    }
    let _ = mirror.take_log();
    ops
}

/// Applies one op that is known to be valid.
fn apply_op(g: &mut DeltaGraph, op: &DeltaOp) {
    match *op {
        DeltaOp::InsertEdge(u, v, w) => g.insert_edge(NodeId(u), NodeId(v), w),
        DeltaOp::RemoveEdge(u, v) => g.remove_edge(NodeId(u), NodeId(v)),
        DeltaOp::AddNode(w) => {
            g.add_node(w);
        }
        DeltaOp::RemoveNode(v) => g.remove_node(NodeId(v)),
    }
}

/// Response kinds, in tally order.
const KINDS: [&str; 9] = [
    "matching",
    "mis",
    "independent",
    "mate",
    "applied",
    "fingerprint",
    "stats",
    "overloaded",
    "error",
];

fn kind(resp: &Response) -> usize {
    match resp {
        Response::Matching { .. } => 0,
        Response::Mis { .. } => 1,
        Response::Independent(_) => 2,
        Response::Mate { .. } => 3,
        Response::Applied { .. } => 4,
        Response::FingerprintIs(_) => 5,
        Response::StatsSnapshot { .. } => 6,
        Response::Overloaded => 7,
        Response::Error(_) => 8,
    }
}

/// The response kind a request must get.
fn expected_kind(req: &Request) -> usize {
    match req {
        Request::MatchUsers { .. } => 0,
        Request::MisQuery { .. } => 1,
        Request::IsIndependent { .. } => 2,
        Request::IsMatched { .. } => 3,
        Request::ApplyDeltas { .. } => 4,
        Request::Fingerprint => 5,
        Request::Stats => 6,
    }
}

/// Whether `resp` is a served answer of the right kind for `req`.
fn answered(req: &Request, resp: &Response) -> Result<(), String> {
    match resp {
        Response::Error(msg) => Err(format!("error response: {msg}")),
        Response::Overloaded => Err("overloaded".to_string()),
        r if kind(r) != expected_kind(req) => Err(format!("{req:?} answered with {r:?}")),
        _ => Ok(()),
    }
}

/// A running service: worker queue, TCP frontend, and one connection
/// per client thread.
pub struct Svc {
    server: ServiceServer,
    facade: TcpFacade,
    clients: Vec<TcpClient>,
}

impl Svc {
    pub fn start(g: &Graph, threads: usize) -> io::Result<Svc> {
        let server = ServiceServer::spawn(MatchingService::new(g.clone(), config(threads)));
        let facade = TcpFacade::bind("127.0.0.1:0", server.client())?;
        let clients = (0..threads)
            .map(|_| TcpClient::connect(facade.local_addr()))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Svc {
            server,
            facade,
            clients,
        })
    }

    /// Closes the connections and stops both frontends.
    pub fn stop(self) -> MatchingService {
        drop(self.clients);
        self.facade.stop();
        self.server.shutdown()
    }
}

/// One request as sent over TCP.
struct Sent {
    req: Request,
    resp: Response,
    start: Instant,
    end: Instant,
    gen_ns: f64,
}

/// What one connection's closed loop saw.
#[derive(Default)]
struct ConnRun {
    latency_us: Vec<f64>,
    write_latency_us: Vec<f64>,
    tallies: [u64; 9],
    attempted: u64,
    failures: Vec<String>,
    mirror: Option<DeltaGraph>,
    /// Every request and response, kept only in the traced run.
    sent: Vec<Sent>,
}

/// Sends requests from `gen` on `client` until `more(i)` is false,
/// waiting for each answer before the next.
fn closed_loop(
    client: &mut TcpClient,
    mut gen: Gen,
    keep: bool,
    more: impl Fn(usize) -> bool,
) -> ConnRun {
    let mut run = ConnRun::default();
    let mut i = 0;
    while more(i) {
        i += 1;
        let t = Instant::now();
        let req = gen.next_request();
        let start = Instant::now();
        let resp = client.request(&req);
        let end = Instant::now();
        run.attempted += 1;
        let lat = us(end - start);
        run.latency_us.push(lat);
        if matches!(req, Request::ApplyDeltas { .. }) {
            run.write_latency_us.push(lat);
        }
        let resp = match resp {
            Ok(resp) => resp,
            Err(e) => {
                run.failures.push(format!("I/O error: {e}"));
                break;
            }
        };
        run.tallies[kind(&resp)] += 1;
        if let Err(why) = answered(&req, &resp) {
            run.failures.push(why);
        }
        if keep {
            run.sent.push(Sent {
                req,
                resp,
                start,
                end,
                gen_ns: (start - t).as_nanos() as f64,
            });
        }
    }
    run.mirror = gen.mirror;
    run
}

/// Runs one closed loop per connection, all at once. Only the first
/// drive of a service may write: the mirror starts from `g`.
fn drive(
    svc: &mut Svc,
    (mix, writes): (Mix, bool),
    seed: u64,
    g: &Graph,
    keep: bool,
    more: impl Fn(usize) -> bool + Sync,
) -> Vec<ConnRun> {
    let more = &more;
    std::thread::scope(|scope| {
        let handles: Vec<_> = svc
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let gen = Gen::new(mix, seed, c, g, writes);
                scope.spawn(move || closed_loop(client, gen, keep, more))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Checks the final state: the service's fingerprint equals the
/// mirror's, and one `MatchUsers` and one `MisQuery` answer per pooled
/// seed is a maximal matching / maximal independent set of the mirror.
fn validate(report: &mut Report, svc: &mut Svc, mix: Mix, mirror: &DeltaGraph) {
    let want = mirror.fingerprint();
    let got = svc.clients[0].request(&Request::Fingerprint);
    report.check(
        "final fingerprint",
        match got {
            Ok(Response::FingerprintIs(fp)) if fp == want => Ok(()),
            other => Err(format!("expected FingerprintIs({want}), got {other:?}")),
        },
    );
    let g = mirror.compact();
    let queue = svc.server.client();
    for seed in 0..mix.pool() {
        let outcome = match queue.request(Request::MatchUsers { seed }) {
            Response::Matching {
                fingerprint,
                weight,
                pairs,
                ..
            } if fingerprint == want => check::maximal_matching(&g, &pairs).and_then(|w| {
                (w == weight)
                    .then_some(())
                    .ok_or(format!("weight {weight} but the pairs weigh {w}"))
            }),
            other => Err(format!("unexpected answer {other:?}")),
        };
        report.check(&format!("MatchUsers seed {seed}"), outcome);
        let outcome = match queue.request(Request::MisQuery { seed }) {
            Response::Mis {
                fingerprint,
                in_set,
                ..
            } if fingerprint == want => {
                check::maximal_independent(&g, &check::flags(g.num_nodes(), in_set))
            }
            other => Err(format!("unexpected answer {other:?}")),
        };
        report.check(&format!("MisQuery seed {seed}"), outcome);
    }
}

/// Counts every request of `runs` and reports its failures.
fn absorb(report: &mut Report, runs: &[ConnRun]) {
    for run in runs {
        report.attempted += run.attempted;
        report.failed += run.failures.len() as u64;
        for why in run.failures.iter().take(5) {
            println!(
                "FAILED request: {}",
                why.chars().take(200).collect::<String>()
            );
        }
    }
}

fn print_tallies(report: &Report, prefix: &str, tallies: &[u64; 9]) {
    for (name, n) in KINDS.iter().zip(tallies) {
        report.info(&format!("{prefix}.{name}"), n);
    }
}

fn sum_tallies(runs: &[ConnRun]) -> [u64; 9] {
    let mut t = [0; 9];
    for run in runs {
        for (a, b) in t.iter_mut().zip(run.tallies) {
            *a += b;
        }
    }
    t
}

/// Builds the service `reps` times; returns the last one and the
/// median set-up time in seconds (graph generation included).
pub fn setup(
    reps: usize,
    threads: usize,
    gen: impl Fn() -> Graph,
) -> io::Result<(Graph, Svc, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        if let Some((_, svc)) = last.take() {
            Svc::stop(svc);
        }
        let t = Instant::now();
        let g = gen();
        let svc = Svc::start(&g, threads)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some((g, svc));
    }
    let (g, svc) = last.expect("at least one set-up");
    Ok((g, svc, median(&times)))
}

/// The timed run of a service workload.
pub fn svc_timed(
    report: &mut Report,
    mix: Mix,
    g: &Graph,
    mut svc: Svc,
    seed: u64,
    window: Duration,
) {
    let _ = drive(&mut svc, (mix, false), seed ^ 0xAAAA, g, false, |i| {
        i < WARMUP_REQUESTS
    });
    let start = Instant::now();
    let runs = drive(&mut svc, (mix, true), seed, g, false, |_| {
        start.elapsed() < window
    });
    let wall_s = start.elapsed().as_secs_f64();
    absorb(report, &runs);
    let mirror = runs[0]
        .mirror
        .as_ref()
        .expect("connection 0 keeps the mirror");
    validate(report, &mut svc, mix, mirror);
    let service = svc.stop();
    report.info("cache_hits", service.stats().cache_hits);
    report.info("cache_misses", service.stats().cache_misses);
    print_tallies(report, "responses", &sum_tallies(&runs));

    let lat: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.latency_us.iter().copied())
        .collect();
    report.info("window_s", wall_s);
    report.metric(
        "throughput_rps",
        lat.len() as f64 / wall_s,
        "1/s",
        lat.len(),
    );
    report.timing("p50_us", &lat, "us");
    if mix == Mix::Churn {
        let writes: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.write_latency_us.iter().copied())
            .collect();
        report.timing("write_p50_us", &writes, "us");
    }
    let ms: Vec<f64> = lat.iter().map(|l| l / 1e3).collect();
    report.timing("latency_ms", &ms, "ms");
    report.metric(
        "throughput_ops",
        lat.len() as f64 / wall_s,
        "1/s",
        lat.len(),
    );
}

/// Raw samples a traced service part hands back for the layer metrics
/// that pool both service workloads.
#[derive(Default)]
pub struct SvcLayers {
    /// `MatchingService::handle` times in µs: read, query hit, query
    /// miss, write.
    pub handle_us: [Vec<f64>; 4],
    pub gen_ns: Vec<f64>,
}

const HANDLE_CATEGORIES: [&str; 4] = ["read", "query_hit", "query_miss", "write"];

fn category(req: &Request, resp: &Response) -> usize {
    match (req, resp) {
        (Request::ApplyDeltas { .. }, _) => 3,
        (_, Response::Matching { cached, .. } | Response::Mis { cached, .. }) => {
            if *cached {
                1
            } else {
                2
            }
        }
        _ => 0,
    }
}

/// The traced run of a service workload: the TCP trace, then the same
/// requests through a fresh `ServiceServer` queue, then directly into a
/// fresh `MatchingService::handle`. Returns traced ÷ untraced median
/// latency when `untraced_first`, and the samples pooled across both
/// service workloads.
pub fn svc_traced(
    report: &mut Report,
    tr: &mut Tracer,
    mix: Mix,
    g: &Graph,
    seed: u64,
    threads: usize,
    untraced_first: bool,
) -> io::Result<(Option<f64>, SvcLayers)> {
    let mut layers = SvcLayers::default();
    let more = |i| i < TRACED_REQUESTS;
    let untraced = if untraced_first {
        let mut svc = Svc::start(g, threads)?;
        let runs = drive(&mut svc, (mix, true), seed, g, false, more);
        svc.stop();
        absorb(report, &runs);
        let lat: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.latency_us.iter().copied())
            .collect();
        Some(median(&lat))
    } else {
        None
    };

    // Layer 1: TCP.
    let mut svc = Svc::start(g, threads)?;
    let mut runs = drive(&mut svc, (mix, true), seed, g, true, more);
    absorb(report, &runs);
    let queue = svc.server.client();
    let (batches, max_batch, overloads) = (
        queue.batches_served(),
        queue.max_batch_seen(),
        queue.overload_rejections(),
    );
    let mirror = runs[0]
        .mirror
        .take()
        .expect("connection 0 keeps the mirror");
    validate(report, &mut svc, mix, &mirror);
    svc.stop();
    let sent: Vec<Vec<Sent>> = runs.into_iter().map(|r| r.sent).collect();

    // Layer 2: the worker queue, same per-connection streams, same
    // concurrency.
    let server = ServiceServer::spawn(MatchingService::new(g.clone(), config(threads)));
    let queue_times: Vec<Vec<(Instant, Instant)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sent
            .iter()
            .map(|conn| {
                let client = server.client();
                scope.spawn(move || {
                    conn.iter()
                        .map(|s| {
                            let start = Instant::now();
                            let _ = client.request(s.req.clone());
                            (start, Instant::now())
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("queue replay thread panicked"))
            .collect()
    });
    server.shutdown();

    // Layer 3: the service core, requests interleaved round-robin across
    // connections so its counts repeat exactly.
    let mut service = MatchingService::new(g.clone(), config(threads));
    let mut handled: Vec<Vec<(Instant, Instant, Response)>> =
        sent.iter().map(|_| Vec::new()).collect();
    let mut tallies = [0u64; 9];
    let mut writes = Vec::new();
    for i in 0..TRACED_REQUESTS {
        for (c, conn) in sent.iter().enumerate() {
            let Some(s) = conn.get(i) else { continue };
            let start = Instant::now();
            let resp = service.handle(&s.req);
            let end = Instant::now();
            tallies[kind(&resp)] += 1;
            layers.handle_us[category(&s.req, &resp)].push(us(end - start));
            if let (Request::ApplyDeltas { ops }, Response::Applied { .. }) = (&s.req, &resp) {
                writes.push((ops.clone(), resp.clone()));
            }
            handled[c].push((start, end, resp));
        }
    }

    // Spans: each TCP request, its queue replay as child, and the handle
    // call as grandchild.
    for (c, conn) in sent.iter().enumerate() {
        for (i, s) in conn.iter().enumerate() {
            let id = ((mix as u64) << 48) | ((c as u64) << 32) | i as u64;
            let tcp = tr.record("service.tcp", None, id, s.start, s.end);
            let (qs, qe) = queue_times[c][i];
            let q = tr.record("service.server", Some(tcp), id, qs, qe);
            let (hs, he, _) = &handled[c][i];
            tr.record("service.core.handle", Some(q), id, *hs, *he);
            layers.gen_ns.push(s.gen_ns);
        }
    }

    let suffix = if mix == Mix::ReadMostly { "" } else { ".churn" };
    let rtt = tr.dur_us_of("service.tcp");
    let n_tcp = sent.iter().map(Vec::len).sum::<usize>();
    let rtt = &rtt[rtt.len() - n_tcp..];
    let own = |name: &str| {
        let v = tr.self_us_of(name);
        v[v.len() - n_tcp..].to_vec()
    };
    let (tcp_self, queue_self, handle_self) = (
        own("service.tcp"),
        own("service.server"),
        own("service.core.handle"),
    );
    let rtt_med = median(rtt);
    report.metric(&format!("service.tcp.rtt_us{suffix}"), rtt_med, "us", n_tcp);
    report.metric(
        &format!("service.tcp.overhead_us{suffix}"),
        median(&tcp_self),
        "us",
        n_tcp,
    );
    let sum = median(&tcp_self) + median(&queue_self) + median(&handle_self);
    report.info(
        &format!("trace.self_sum_over_rtt.{}", mix.name()),
        format!(
            "{:.4} (tcp {:.1} + queue {:.1} + handle {:.1} us vs rtt {rtt_med:.1} us)",
            sum / rtt_med,
            median(&tcp_self),
            median(&queue_self),
            median(&handle_self)
        ),
    );
    print_tallies(report, &format!("count.responses.{}", mix.name()), &tallies);
    let stats = service.stats().clone();
    let lookups = stats.cache_hits + stats.cache_misses;

    match mix {
        Mix::ReadMostly => {
            wire_layer(report, &sent);
            let queue_rtt: Vec<f64> = queue_times
                .iter()
                .flatten()
                .map(|&(s, e)| us(e - s))
                .collect();
            report.metric(
                "service.server.queue_rtt_us",
                median(&queue_rtt),
                "us",
                queue_rtt.len(),
            );
            report.metric(
                "service.server.queue_wait_us",
                median(&queue_self),
                "us",
                n_tcp,
            );
            report.metric("service.server.batches_served", batches as f64, "count", 1);
            report.metric(
                "service.server.max_batch_seen",
                max_batch as f64,
                "count",
                1,
            );
            report.metric(
                "service.server.overload_rejections",
                overloads as f64,
                "count",
                1,
            );
            report.info("count.service.cache_hits.svc-read-mostly", stats.cache_hits);
            report.info("count.service.cache_lookups.svc-read-mostly", lookups);
        }
        Mix::Churn => {
            report.count("service.cache_hits", stats.cache_hits);
            report.count("service.cache_lookups", lookups);
            report.metric(
                "service.cache_hit_ratio",
                stats.cache_hits as f64 / lookups.max(1) as f64,
                "ratio",
                lookups as usize,
            );
            report.count(
                "service.cross_shard_messages",
                service.cross_shard_messages(),
            );
            miss_path(report, service.graph(), threads);
            write_layer(report, g, &writes);
        }
    }
    Ok((untraced.map(|u| rtt_med / u), layers))
}

fn config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        shards: threads,
        ..ServiceConfig::default()
    }
}

/// Encode and decode cost and frame sizes of the traced requests and
/// responses; every frame must decode back to the value encoded.
fn wire_layer(report: &mut Report, sent: &[Vec<Sent>]) {
    const REPS: u32 = 16;
    let (mut enc, mut dec, mut req_bytes, mut resp_bytes) = (vec![], vec![], 0usize, 0usize);
    let mut roundtrip = Ok(());
    for s in sent.iter().flatten() {
        let resp = &s.resp;
        let t = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(std::hint::black_box(&s.req).encode());
            std::hint::black_box(std::hint::black_box(resp).encode());
        }
        enc.push((t.elapsed() / REPS).as_nanos() as f64);
        let (rb, sb) = (s.req.encode(), resp.encode());
        req_bytes += rb.len() + 4;
        resp_bytes += sb.len() + 4;
        let t = Instant::now();
        for _ in 0..REPS {
            let _ = std::hint::black_box(Request::decode(std::hint::black_box(&rb)));
            let _ = std::hint::black_box(Response::decode(std::hint::black_box(&sb)));
        }
        dec.push((t.elapsed() / REPS).as_nanos() as f64);
        if Request::decode(&rb).as_ref() != Ok(&s.req) || Response::decode(&sb).as_ref() != Ok(resp)
        {
            roundtrip = Err(format!("{:?} does not survive the wire", s.req));
        }
    }
    report.check("wire round trip", roundtrip);
    let n = enc.len();
    report.metric("service.wire.encode_ns", median(&enc), "ns", n);
    report.metric("service.wire.decode_ns", median(&dec), "ns", n);
    report.metric(
        "service.wire.req_bytes",
        req_bytes as f64 / n as f64,
        "B",
        n,
    );
    report.metric(
        "service.wire.resp_bytes",
        resp_bytes as f64 / n as f64,
        "B",
        n,
    );
}

/// A cache miss's engine run: Luby through `run` against `run_sharded`
/// over `threads` contiguous shards, as `MisQuery` runs it.
fn miss_path(report: &mut Report, g: &Graph, threads: usize) {
    let cfg = SimConfig::congest_for(g);
    let partition = ShardPartition::contiguous(g.num_nodes(), threads);
    let (mut seq, mut sharded) = (Vec::new(), Vec::new());
    let mut identical = Ok(());
    for seed in 0..MISS_RUNS as u64 {
        let t = Instant::now();
        let a = Engine::build(g, cfg.clone(), |_| LubyMis::new()).run(seed);
        seq.push(us(t.elapsed()));
        let t = Instant::now();
        let b = Engine::build(g, cfg.clone(), |_| LubyMis::new()).run_sharded(seed, &partition);
        sharded.push(us(t.elapsed()));
        if a.outputs != b.outcome.outputs || a.stats != b.outcome.stats {
            identical = Err(format!("seed {seed}: run and run_sharded differ"));
        }
        let in_set: Vec<bool> = a
            .outputs
            .iter()
            .map(|o| *o == Some(MisResult::InSet))
            .collect();
        report.check("miss-path MIS", check::maximal_independent(g, &in_set));
    }
    report.check("run ≡ run_sharded", identical);
    report.metric("sim.miss_run_us", median(&seq), "us", seq.len());
    report.metric(
        "sim.miss_run_sharded_us",
        median(&sharded),
        "us",
        sharded.len(),
    );
}

/// Replays every accepted batch on a `DeltaGraph` mirror, timing each
/// step `ApplyDeltas` takes, and checks that the mirror's fingerprint
/// and repair rounds equal the service's answer.
fn write_layer(report: &mut Report, g: &Graph, writes: &[(Vec<DeltaOp>, Response)]) {
    let seed = ServiceConfig::default().seed;
    let mut overlay = DeltaGraph::new(g.clone());
    let mut graph = overlay.compact();
    let cfg = SimConfig::congest_for(&graph);
    let mut live_mis = Engine::build(&graph, cfg.clone(), |_| LubyMis::new())
        .run(seed)
        .into_outputs();
    let (run, _) = mwm_grouped_with(&graph, cfg, seed);
    let mut live_pairs: Vec<(NodeId, NodeId)> = run
        .matching
        .edges(&graph)
        .map(|e| graph.endpoints(e))
        .collect();
    let mut t: [Vec<f64>; 5] = Default::default();
    let (mut mis_rounds, mut match_rounds) = (0u64, 0u64);
    for (ops, resp) in writes {
        let start = Instant::now();
        let mut scratch = overlay.clone();
        t[0].push(us(start.elapsed()));
        for op in ops {
            apply_op(&mut scratch, op);
        }
        overlay = scratch;
        let deltas = overlay.take_log();
        let start = Instant::now();
        graph = overlay.compact();
        t[1].push(us(start.elapsed()));
        let start = Instant::now();
        let fp = overlay.fingerprint();
        t[2].push(us(start.elapsed()));
        let start = Instant::now();
        let misr = luby_repair(&graph, &live_mis, &deltas, seed, false);
        t[3].push(us(start.elapsed()));
        let start = Instant::now();
        let mrep = grouped_mwm_repair(&graph, &live_pairs, &deltas, seed, false);
        t[4].push(us(start.elapsed()));
        mis_rounds += misr.rounds as u64;
        match_rounds += mrep.rounds as u64;
        let agrees = matches!(resp, Response::Applied { fingerprint, matching_repair_rounds, mis_repair_rounds, .. }
            if *fingerprint == fp
                && *matching_repair_rounds as usize == mrep.rounds
                && *mis_repair_rounds as usize == misr.rounds);
        report.check(
            "write replay",
            agrees
                .then_some(())
                .ok_or(format!("service answered {resp:?}")),
        );
        live_mis = misr.results;
        live_pairs = mrep
            .matching
            .edges(&graph)
            .map(|e| graph.endpoints(e))
            .collect();
    }
    let n = writes.len();
    if n == 0 {
        report.check(
            "write replay",
            Err("the traced trace has no writes".to_string()),
        );
        return;
    }
    let names = [
        "graph.overlay_clone_us",
        "graph.compact_us",
        "graph.fingerprint_us",
        "mis.luby_repair_us",
        "core.grouped_repair_us",
    ];
    for (name, v) in names.iter().zip(&t) {
        report.metric(name, median(v), "us", n);
    }
    report.count("mis.repair_rounds", mis_rounds);
    report.count("core.repair_rounds", match_rounds);
}

impl SvcLayers {
    pub fn extend(&mut self, other: SvcLayers) {
        for (a, b) in self.handle_us.iter_mut().zip(other.handle_us) {
            a.extend(b);
        }
        self.gen_ns.extend(other.gen_ns);
    }
}

/// Per-layer metrics pooled over both traced service workloads.
pub fn pooled_layers(report: &mut Report, layers: &SvcLayers) {
    for (name, v) in HANDLE_CATEGORIES.iter().zip(&layers.handle_us) {
        let name = format!("service.core.handle_us.{name}");
        if v.is_empty() {
            report.check(&name, Err("no samples".to_string()));
        } else {
            report.metric(&name, median(v), "us", v.len());
        }
    }
    let g = &layers.gen_ns;
    report.metric(
        "bench.gen_us",
        g.iter().sum::<f64>() / g.len() as f64 / 1e3,
        "us",
        g.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streams(mix: Mix, seed: u64, g: &Graph) -> Vec<Vec<Request>> {
        (0..2)
            .map(|c| {
                let mut gen = Gen::new(mix, seed, c, g, true);
                (0..TRACED_REQUESTS).map(|_| gen.next_request()).collect()
            })
            .collect()
    }

    /// Replays the streams round-robin into a fresh service, as the
    /// traced run's handle layer does; returns the response tallies and
    /// the service counters.
    fn replay(g: &Graph, streams: &[Vec<Request>]) -> ([u64; 9], u64, u64, u64) {
        let mut service = MatchingService::new(g.clone(), config(2));
        let mut tallies = [0; 9];
        for i in 0..TRACED_REQUESTS {
            for s in streams {
                let resp = service.handle(&s[i]);
                assert!(answered(&s[i], &resp).is_ok(), "{:?} got {resp:?}", s[i]);
                tallies[kind(&resp)] += 1;
            }
        }
        let st = service.stats();
        (
            tallies,
            st.cache_hits,
            st.cache_misses,
            service.cross_shard_messages(),
        )
    }

    #[test]
    fn streams_are_valid_and_their_counts_repeat() {
        let g = crate::weighted_gnp(300, 1, SVC_WEIGHT_MAX, 5);
        for mix in [Mix::ReadMostly, Mix::Churn] {
            let a = streams(mix, 9, &g);
            assert_eq!(a, streams(mix, 9, &g), "same seed, same requests");
            assert_ne!(a, streams(mix, 10, &g), "the seed matters");
            let writes = a[0]
                .iter()
                .filter(|r| matches!(r, Request::ApplyDeltas { .. }))
                .count();
            assert_eq!(writes > 0, mix == Mix::Churn);
            assert_eq!(replay(&g, &a), replay(&g, &a));
        }
    }

    #[test]
    fn churn_mirror_tracks_the_service() {
        let g = crate::weighted_gnp(300, 1, SVC_WEIGHT_MAX, 6);
        let mut gen = Gen::new(Mix::Churn, 3, 0, &g, true);
        let mut service = MatchingService::new(g.clone(), config(2));
        for _ in 0..200 {
            let req = gen.next_request();
            let resp = service.handle(&req);
            assert!(answered(&req, &resp).is_ok(), "{req:?} got {resp:?}");
        }
        let mirror = gen.mirror.expect("connection 0 mirrors");
        assert_eq!(mirror.fingerprint(), service.fingerprint());
    }
}
