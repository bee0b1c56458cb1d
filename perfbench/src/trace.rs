//! The traced run: per-layer figures for one workload.
//!
//! It builds the service in process the way `oak-serve` does and serves
//! it over the same epoll edge on loopback, then times calls into each
//! layer by wrapping the real implementations at their public seams,
//! all from the benchmark's own code:
//!
//! - `Handler::handle` (the service), with the request id the client
//!   sent in `X-Bench-Req`, so a span correlates with its client span;
//! - `EventSink::record` (WAL append, via the store installed as the
//!   engine's sink);
//! - `OakStore::maybe_snapshot` (the compaction `oak-serve` runs inline
//!   after each report; here the wrapper makes that same call);
//! - `ClusterStatusSource::wait_for_commit` (replication commit wait).
//!
//! Decode, engine ingest, page modification and the rewriter are timed
//! by direct calls on the workload's own request stream, single-threaded
//! so the allocation counter attributes exactly.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written when the run ends.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use oak_core::engine::{Oak, OakConfig};
use oak_core::events::{EventSink, SequencedEvent};
use oak_core::matching::NoFetch;
use oak_core::report::PerfReport;
use oak_edge::{AnyServer, Backend, EdgeConfig};
use oak_http::{Handler, Method, Request, Response, ServerLimits, TransportStats};
use oak_server::{ClusterRuntime, ClusterStatusSource, HealthState, OakService, ServiceObs};
use oak_store::{OakStore, StoreOptions};

use crate::loadgen;
use crate::server::{free_port, Servers};
use crate::workload::{Encoding, Plan, Req, ALT_TAG, DEFAULT_TAG};
use crate::{json_num, json_str, median, percentile, Metric, Outcome};

/// Allocation calls so far, process-wide (see `main`'s global allocator).
fn allocs() -> u64 {
    oak_bench::alloc::snapshot().0
}

/// One timed interval at a layer boundary.
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The span that caused this one (0 for a client request).
    pub parent: u64,
    /// The client request this span belongs to (its client span's id).
    pub request: u64,
    pub start: Instant,
    pub end: Instant,
    /// Whether the request is a page GET (else a report POST).
    pub page: bool,
}

impl Span {
    pub fn client(id: u64, req: Req, start: Instant, end: Instant) -> Span {
        Span {
            name: "client.request",
            id,
            parent: 0,
            request: id,
            start,
            end,
            page: req.is_page(),
        }
    }

    fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// In-memory span store.
#[derive(Default)]
pub struct Tracer {
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    enabled: AtomicBool,
}

thread_local! {
    /// The handle span open on this worker thread: `(span id, request id)`.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

impl Tracer {
    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span buffer lock").push(span);
    }

    fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records a span under the handle span open on this thread.
    fn child(&self, name: &'static str, start: Instant, end: Instant) {
        let (parent, request) = CURRENT.with(Cell::get);
        let id = self.next_id();
        self.record(Span {
            name,
            id,
            parent,
            request,
            start,
            end,
            page: false,
        });
    }
}

/// The service's `Handler`, timed; after a report it runs the same
/// inline `maybe_snapshot` call `OakService::with_durability` makes.
struct TracedHandler {
    inner: Arc<OakService>,
    store: Option<Arc<OakStore>>,
    /// In a cluster the live engine is the runtime's replica.
    cluster: Option<Arc<ClusterRuntime>>,
    tracer: Arc<Tracer>,
}

impl TracedHandler {
    /// `OakService`'s post-ingest compaction check; whether it snapshotted.
    fn maybe_snapshot(&self, request: &Request) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        if request.method != Method::Post {
            return false;
        }
        let took = match self.cluster.as_ref().and_then(|c| c.live_engine()) {
            Some(engine) => store.maybe_snapshot(&engine),
            None => self.inner.with_oak(|oak| store.maybe_snapshot(oak)),
        };
        matches!(took, Ok(true))
    }
}

impl Handler for TracedHandler {
    fn handle(&self, request: &Request) -> Response {
        if !self.tracer.on() {
            let response = self.inner.handle(request);
            self.maybe_snapshot(request);
            return response;
        }
        let request_id = request
            .header("x-bench-req")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let id = self.tracer.next_id();
        CURRENT.with(|c| c.set((id, request_id)));
        let start = Instant::now();
        let response = self.inner.handle(request);
        let snap_start = Instant::now();
        if self.maybe_snapshot(request) {
            self.tracer
                .child("store.snapshot", snap_start, Instant::now());
        }
        let end = Instant::now();
        CURRENT.with(|c| c.set((0, 0)));
        self.tracer.record(Span {
            name: "service.handle",
            id,
            parent: request_id,
            request: request_id,
            start,
            end,
            page: request.method == Method::Get,
        });
        response
    }

    fn admit(&self, method: Method, target: &str) -> Option<Response> {
        self.inner.admit(method, target)
    }

    fn shed_exempt(&self, target: &str) -> bool {
        self.inner.shed_exempt(target)
    }
}

/// The WAL, timed at `EventSink::record`.
struct TracedSink {
    inner: Arc<OakStore>,
    tracer: Arc<Tracer>,
}

impl EventSink for TracedSink {
    fn record(&self, shard: Option<usize>, event: &SequencedEvent) {
        if !self.tracer.on() {
            return self.inner.record(shard, event);
        }
        let start = Instant::now();
        self.inner.record(shard, event);
        self.tracer.child("store.record", start, Instant::now());
    }
}

/// The replication runtime, timed at `wait_for_commit`.
struct TracedCluster {
    inner: Arc<ClusterRuntime>,
    tracer: Arc<Tracer>,
}

impl ClusterStatusSource for TracedCluster {
    fn partitions(&self) -> Vec<oak_cluster::PartitionStatus> {
        self.inner.partitions()
    }

    fn is_primary_for(&self, user: &str) -> bool {
        self.inner.is_primary_for(user)
    }

    fn live_engine(&self) -> Option<Arc<Oak>> {
        self.inner.live_engine()
    }

    fn leads_maintenance(&self) -> bool {
        self.inner.leads_maintenance()
    }

    fn wait_for_commit(&self, user: &str, seq: u64) -> bool {
        if !self.tracer.on() {
            return self.inner.wait_for_commit(user, seq);
        }
        let start = Instant::now();
        let ok = self.inner.wait_for_commit(user, seq);
        self.tracer
            .child("cluster.commit_wait", start, Instant::now());
        ok
    }
}

/// Per-operation samples from direct calls into the engine layers.
#[derive(Default)]
struct Direct {
    decode_json_us: Vec<f64>,
    decode_binary_us: Vec<f64>,
    decode_allocs: u64,
    ingest_us: Vec<f64>,
    ingest_allocs: u64,
    violations: u64,
    activations: u64,
    modify_us: Vec<f64>,
    modify_allocs: u64,
    rewritten: u64,
    rewrite_us: Vec<f64>,
}

impl Direct {
    fn reports(&self) -> usize {
        self.ingest_us.len()
    }
}

/// Replays the workload's whole request stream through the engine
/// layers in process: report decode, `Oak::ingest_report`,
/// `Oak::modify_page_cow`, and the `oak-html` rewriter on every page
/// the engine rewrote.
fn direct_calls(plan: &Plan) -> Result<Direct, String> {
    let oak = Oak::new(OakConfig::default());
    for rule in oak_core::spec::parse_rules(&plan.rules_text).map_err(|e| e.to_string())? {
        oak.add_rule(rule)?;
    }
    let mut d = Direct::default();
    let phases = [&plan.seed_phase, &plan.goodput_phase, &plan.latency_phase];
    for (tick, &req) in phases.into_iter().flatten().enumerate() {
        let now = oak_core::Instant(tick as u64);
        let user = &plan.users[req.user()];
        match req {
            Req::Report { body, .. } => {
                let body = &plan.bodies[body as usize];
                let a0 = allocs();
                let t0 = Instant::now();
                let decoded = match user.encoding {
                    Encoding::Json => PerfReport::from_json_bytes(body),
                    Encoding::Binary => PerfReport::from_binary(body),
                };
                let t1 = Instant::now();
                let a1 = allocs();
                let mut report = decoded.map_err(|e| format!("report decode: {e}"))?;
                report.user.clone_from(&user.name);
                let a2 = allocs();
                let t2 = Instant::now();
                let outcome = oak.ingest_report(now, &report, &NoFetch);
                let t3 = Instant::now();
                let a3 = allocs();
                let decode_us = (t1 - t0).as_secs_f64() * 1e6;
                match user.encoding {
                    Encoding::Json => d.decode_json_us.push(decode_us),
                    Encoding::Binary => d.decode_binary_us.push(decode_us),
                }
                d.decode_allocs += a1 - a0;
                d.ingest_us.push((t3 - t2).as_secs_f64() * 1e6);
                d.ingest_allocs += a3 - a2;
                d.violations += outcome.violations.len() as u64;
                d.activations += outcome.activated.len() as u64;
                std::hint::black_box(outcome);
            }
            Req::Page { page, .. } => {
                let path = format!("/p/{page}.html");
                let html = &plan.pages[page as usize];
                let a0 = allocs();
                let t0 = Instant::now();
                let modified = oak.modify_page_cow(now, &user.name, &path, html);
                let t1 = Instant::now();
                let a1 = allocs();
                d.modify_us.push((t1 - t0).as_secs_f64() * 1e6);
                d.modify_allocs += a1 - a0;
                let rewritten = !modified.applied.is_empty();
                std::hint::black_box(modified);
                if rewritten {
                    d.rewritten += 1;
                    let t0 = Instant::now();
                    let mut rewriter = oak_html::Rewriter::new(html);
                    rewriter.replace_all(DEFAULT_TAG, ALT_TAG);
                    std::hint::black_box(rewriter.apply_cow());
                    d.rewrite_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
    }
    Ok(d)
}

/// The in-process service, its edge, and (in a cluster) the follower
/// `oak-serve` processes.
struct Stack {
    server: AnyServer,
    service: Arc<OakService>,
    cluster: Option<Arc<ClusterRuntime>>,
    followers: Option<Servers>,
}

fn boot(
    plan: &Plan,
    bin: &Path,
    inputs: &Path,
    state: &Path,
    tracer: &Arc<Tracer>,
) -> Result<Stack, String> {
    std::fs::create_dir_all(state).map_err(|e| format!("state dir: {e}"))?;
    let rules_path = inputs.join("site.oakrules");
    let site = oak_server::load_root(&inputs.join("site")).map_err(|e| format!("site: {e}"))?;
    let config = OakConfig::default();
    let obs = ServiceObs::wall(256, 500);
    let mut followers = None;
    let mut cluster = None;
    let (oak, store) = if plan.spec.cluster {
        let http: Vec<u16> = (0..3)
            .map(|_| free_port())
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let peers: Vec<String> = (0..3)
            .map(|_| free_port().map(|p| format!("127.0.0.1:{p}")))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let runtime = ClusterRuntime::start(
            0,
            peers.clone(),
            &state.join("store0"),
            config,
            StoreOptions::default(),
        )
        .map_err(|e| format!("cluster runtime: {e}"))?;
        runtime.seed_rules_when_primary(rules_path.clone());
        followers = Some(
            Servers::spawn_followers(bin, inputs, state, &peers, &http)
                .map_err(|e| format!("spawning followers: {e}"))?,
        );
        let store = runtime.store();
        cluster = Some(runtime);
        (Oak::new(config), store)
    } else if plan.spec.store {
        let boot = OakStore::boot(state.join("store"), config, StoreOptions::default())
            .map_err(|e| format!("store: {e}"))?;
        let mut oak = boot.oak;
        boot.store.set_obs(Arc::clone(&obs.store));
        oak.set_event_sink(Arc::new(TracedSink {
            inner: Arc::clone(&boot.store),
            tracer: Arc::clone(tracer),
        }));
        oak_server::load_rules_into(&oak, &rules_path).map_err(|e| format!("rules: {e}"))?;
        (oak, Some(boot.store))
    } else {
        let oak = Oak::new(config);
        oak_server::load_rules_into(&oak, &rules_path).map_err(|e| format!("rules: {e}"))?;
        (oak, None)
    };

    let t0 = Instant::now();
    let transport = Arc::new(TransportStats::default());
    let service = OakService::new(oak, site)
        .with_health(HealthState::Booting)
        .with_clock(move || oak_core::Instant(t0.elapsed().as_millis() as u64))
        .with_transport_stats(Arc::clone(&transport))
        .with_obs(Arc::clone(&obs))
        .into_shared();
    service.set_edge_backend(Backend::Epoll);
    let handler = Arc::new(TracedHandler {
        inner: Arc::clone(&service),
        store,
        cluster: cluster.clone(),
        tracer: Arc::clone(tracer),
    });
    let server = AnyServer::start_with_config(
        Backend::Epoll,
        0,
        handler,
        ServerLimits::default(),
        transport,
        Some(Arc::clone(&obs.http)),
        EdgeConfig::default(),
    )
    .map_err(|e| format!("edge: {e}"))?;
    if let Some(stats) = server.edge_stats() {
        service.set_edge_stats(stats);
    }
    if let Some(runtime) = &cluster {
        service.set_cluster_status(Arc::new(TracedCluster {
            inner: Arc::clone(runtime),
            tracer: Arc::clone(tracer),
        }));
        // Ready once this node holds the lease and has seeded the rules
        // through the WAL.
        let deadline = Instant::now() + Duration::from_secs(60);
        while !(runtime.leads_maintenance()
            && runtime.live_engine().is_some_and(|e| e.rules().count() > 0))
        {
            if Instant::now() > deadline {
                return Err("in-process cluster node never became primary".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    service.set_health(HealthState::Serving);
    Ok(Stack {
        server,
        service,
        cluster,
        followers,
    })
}

/// Samples the edge worker-queue depth until `stop` is set.
fn sample_queue(stats: &oak_edge::EdgeStats, stop: &AtomicBool) -> u64 {
    let mut max = 0;
    while !stop.load(Ordering::Relaxed) {
        max = max.max(stats.snapshot().worker_queue_depth);
        std::thread::sleep(Duration::from_micros(200));
    }
    max
}

/// Self time of a span: its duration minus the part its children cover
/// (children of one handle span run sequentially on its thread).
fn self_us(span: &Span, children: &[&Span]) -> f64 {
    span.us() - children.iter().map(|c| c.us()).sum::<f64>()
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Spans written to the dump, at most; a full browse run makes ~10⁶.
const DUMP_REQUESTS: u64 = 20_000;

pub fn run(
    plan: &Plan,
    bin: &Path,
    work: &Path,
    out: &Path,
    threads: usize,
) -> Result<Outcome, String> {
    let direct = direct_calls(plan)?;

    let inputs = work.join("inputs");
    plan.write_inputs(&inputs)
        .map_err(|e| format!("writing inputs: {e}"))?;
    let tracer = Arc::new(Tracer::default());
    let stack = boot(plan, bin, &inputs, &work.join("state"), &tracer)?;
    let addr = stack.server.addr();
    let edge = stack.server.edge_stats().ok_or("epoll edge has no stats")?;

    let mut attempted = 0;
    let mut failed = 0;
    let mut first_error = None;
    let mut absorb = |t: &loadgen::Tally| {
        attempted += t.attempted;
        failed += t.failed;
        if first_error.is_none() {
            first_error.clone_from(&t.first_error);
        }
    };
    let (seeded, _) = loadgen::closed_loop(plan, addr, &plan.seed_phase, threads, None);
    absorb(&seeded);
    let (untraced, untraced_wall) =
        loadgen::closed_loop(plan, addr, &plan.goodput_phase, threads, None);
    absorb(&untraced);

    tracer.enabled.store(true, Ordering::Relaxed);
    let wakeups_before = edge.snapshot().wakeups;
    let stop = AtomicBool::new(false);
    let (traced, traced_wall, latency, queue_max) = std::thread::scope(|s| {
        let sampler = s.spawn(|| sample_queue(&edge, &stop));
        let (traced, wall) =
            loadgen::closed_loop(plan, addr, &plan.goodput_phase, threads, Some(&tracer));
        let latency = loadgen::open_loop(
            plan,
            addr,
            &plan.latency_phase,
            plan.spec.open_rate,
            threads,
            Some(&tracer),
        );
        stop.store(true, Ordering::Relaxed);
        let queue_max = sampler.join().expect("queue sampler panicked");
        (traced, wall, latency, queue_max)
    });
    tracer.enabled.store(false, Ordering::Relaxed);
    absorb(&traced);
    absorb(&latency);
    let edge_end = edge.snapshot();
    let traced_requests = traced.attempted + latency.attempted;

    let Stack {
        mut server,
        service,
        cluster,
        followers,
    } = stack;
    server.shutdown();
    drop(followers);
    drop(cluster);
    drop(service);

    let untraced_rps = (untraced.attempted - untraced.failed) as f64 / untraced_wall.as_secs_f64();
    let traced_rps = (traced.attempted - traced.failed) as f64 / traced_wall.as_secs_f64();
    let spans = std::mem::take(&mut *tracer.spans.lock().expect("span buffer lock"));
    let layers = Layers::from_spans(&spans, &direct);

    let mut metrics = layers.metrics(&direct);
    metrics.extend([
        Metric::new("edge.worker_queue_depth.max", queue_max as f64, "count"),
        Metric::new(
            "edge.loop_lag_us.max",
            edge_end.max_loop_lag_us as f64,
            "us",
        ),
        Metric::new(
            "edge.wakeups_per_req",
            (edge_end.wakeups - wakeups_before) as f64 / traced_requests.max(1) as f64,
            "count/req",
        ),
        Metric::new(
            "trace.overhead_frac",
            1.0 - traced_rps / untraced_rps,
            "fraction",
        ),
    ]);
    write_outputs(out, plan, &spans, &layers, &metrics)?;
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        max_lateness_us: latency.max_lateness_us,
        first_error,
    })
}

/// Rows of the layer table, in request order.
const LAYERS: [&str; 9] = [
    "edge (transport)",
    "decode",
    "ingest",
    "page.modify",
    "rewrite",
    "store.record",
    "store.snapshot",
    "cluster.commit_wait",
    "unattributed",
];

/// Per-request layer figures folded from the spans.
struct Layers {
    transport_us: Vec<f64>,
    handle_page_us: Vec<f64>,
    handle_report_us: Vec<f64>,
    record_us: Vec<f64>,
    snapshot_ms: Vec<f64>,
    commit_wait_ms: Vec<f64>,
    unattributed_us: Vec<f64>,
    /// Sum of self time per layer over the traced requests, µs.
    totals: Vec<(&'static str, f64)>,
    reports: u64,
}

impl Layers {
    fn from_spans(spans: &[Span], direct: &Direct) -> Layers {
        let by_id: std::collections::HashMap<u64, &Span> = spans
            .iter()
            .filter(|s| s.name == "client.request")
            .map(|s| (s.id, s))
            .collect();
        let mut children: std::collections::HashMap<u64, Vec<&Span>> = Default::default();
        for s in spans
            .iter()
            .filter(|s| s.name != "client.request" && s.name != "service.handle")
        {
            children.entry(s.parent).or_default().push(s);
        }
        // Layers inside the handler that spans cannot see are charged at
        // their mean direct-call cost: decode + ingest per report, modify
        // (which includes the rewrite) per page.
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let per = |total: f64, n: usize| total / n.max(1) as f64;
        let reports = direct.decode_json_us.len() + direct.decode_binary_us.len();
        let decode = per(
            sum(&direct.decode_json_us) + sum(&direct.decode_binary_us),
            reports,
        );
        let ingest = per(sum(&direct.ingest_us), direct.ingest_us.len());
        let modify = per(sum(&direct.modify_us), direct.modify_us.len());
        let rewrite = per(sum(&direct.rewrite_us), direct.modify_us.len());

        let mut l = Layers {
            transport_us: Vec::new(),
            handle_page_us: Vec::new(),
            handle_report_us: Vec::new(),
            record_us: Vec::new(),
            snapshot_ms: Vec::new(),
            commit_wait_ms: Vec::new(),
            unattributed_us: Vec::new(),
            totals: LAYERS.iter().map(|&name| (name, 0.0)).collect(),
            reports: 0,
        };
        let mut total = |name: &'static str, us: f64| {
            if let Some((_, t)) = l.totals.iter_mut().find(|(n, _)| *n == name) {
                *t += us;
            }
        };
        let mut transport_us = Vec::new();
        let mut unattributed = Vec::new();
        let (mut page_us, mut report_us) = (Vec::new(), Vec::new());
        let mut reports = 0;
        for handle in spans.iter().filter(|s| s.name == "service.handle") {
            let Some(client) = by_id.get(&handle.request) else {
                continue;
            };
            let kids = children.get(&handle.id).map_or(&[][..], Vec::as_slice);
            let transport = client.us() - handle.us();
            transport_us.push(transport);
            total("edge (transport)", transport);
            let inner = if handle.page {
                page_us.push(handle.us());
                total("page.modify", modify - rewrite);
                total("rewrite", rewrite);
                modify
            } else {
                reports += 1;
                report_us.push(handle.us());
                total("decode", decode);
                total("ingest", ingest);
                decode + ingest
            };
            for kid in kids {
                total(kid.name, kid.us());
            }
            let rest = self_us(handle, kids) - inner;
            total("unattributed", rest);
            unattributed.push(rest);
        }
        for s in spans {
            match s.name {
                "store.record" => l.record_us.push(s.us()),
                "store.snapshot" => l.snapshot_ms.push(s.us() / 1e3),
                "cluster.commit_wait" => l.commit_wait_ms.push(s.us() / 1e3),
                _ => {}
            }
        }
        l.transport_us = sorted(transport_us);
        l.unattributed_us = sorted(unattributed);
        l.handle_page_us = sorted(page_us);
        l.handle_report_us = sorted(report_us);
        l.record_us = sorted(std::mem::take(&mut l.record_us));
        l.commit_wait_ms = sorted(std::mem::take(&mut l.commit_wait_ms));
        l.reports = reports;
        l
    }

    fn metrics(&self, d: &Direct) -> Vec<Metric> {
        let per = |n: u64, of: usize| n as f64 / of.max(1) as f64;
        let reports = d.reports();
        vec![
            Metric::new(
                "edge.transport_us.p50",
                percentile(&self.transport_us, 0.5),
                "us",
            ),
            Metric::new(
                "edge.transport_us.p90",
                percentile(&self.transport_us, 0.9),
                "us",
            ),
            Metric::new(
                "service.handle_us.page.p50",
                percentile(&self.handle_page_us, 0.5),
                "us",
            ),
            Metric::new(
                "service.handle_us.report.p50",
                percentile(&self.handle_report_us, 0.5),
                "us",
            ),
            Metric::new("decode.us.json.p50", median(&d.decode_json_us), "us"),
            Metric::new("decode.us.binary.p50", median(&d.decode_binary_us), "us"),
            Metric::new(
                "decode.allocs_per_report",
                per(d.decode_allocs, reports),
                "count",
            ),
            Metric::new("ingest.us.p50", median(&d.ingest_us), "us"),
            Metric::new(
                "ingest.us.p90",
                percentile(&sorted(d.ingest_us.clone()), 0.9),
                "us",
            ),
            Metric::new(
                "ingest.allocs_per_report",
                per(d.ingest_allocs, reports),
                "count",
            ),
            Metric::new(
                "ingest.violations_per_report",
                per(d.violations, reports),
                "count",
            ),
            Metric::new(
                "ingest.activation_frac",
                per(d.activations, reports),
                "fraction",
            ),
            Metric::new("page.modify_us.p50", median(&d.modify_us), "us"),
            Metric::new(
                "page.allocs_per_page",
                per(d.modify_allocs, d.modify_us.len()),
                "count",
            ),
            Metric::new(
                "page.rewritten_frac",
                per(d.rewritten, d.modify_us.len()),
                "fraction",
            ),
            Metric::new("rewrite.us.p50", median(&d.rewrite_us), "us"),
            Metric::new(
                "store.record_us.p50",
                percentile(&self.record_us, 0.5),
                "us",
            ),
            Metric::new(
                "store.record_us.p99",
                percentile(&self.record_us, 0.99),
                "us",
            ),
            Metric::new(
                "store.events_per_report",
                per(self.record_us.len() as u64, self.reports as usize),
                "count",
            ),
            Metric::new("store.snapshots", self.snapshot_ms.len() as f64, "count"),
            Metric::new(
                "store.snapshot_ms.max",
                self.snapshot_ms.iter().copied().fold(0.0, f64::max),
                "ms",
            ),
            Metric::new(
                "store.snapshot_ms.total",
                self.snapshot_ms.iter().fold(0.0, |a, b| a + b),
                "ms",
            ),
            Metric::new(
                "cluster.commit_wait_ms.p50",
                percentile(&self.commit_wait_ms, 0.5),
                "ms",
            ),
            Metric::new(
                "cluster.commit_wait_ms.p90",
                percentile(&self.commit_wait_ms, 0.9),
                "ms",
            ),
            Metric::new(
                "unattributed_us.p50",
                percentile(&self.unattributed_us, 0.5),
                "us",
            ),
        ]
    }
}

/// Writes the span dump and the layer table next to the run record.
fn write_outputs(
    out: &Path,
    plan: &Plan,
    spans: &[Span],
    layers: &Layers,
    metrics: &[Metric],
) -> Result<(), String> {
    let origin = spans
        .iter()
        .map(|s| s.start)
        .min()
        .unwrap_or_else(Instant::now);
    let at = |t: Instant| (t - origin).as_secs_f64() * 1e6;
    let io = |e: std::io::Error| format!("writing trace output: {e}");

    let file = std::fs::File::create(out.join("spans.jsonl")).map_err(io)?;
    let mut w = std::io::BufWriter::new(file);
    let first = spans
        .iter()
        .filter(|s| s.name == "client.request")
        .map(|s| s.request)
        .min()
        .unwrap_or(0);
    for s in spans
        .iter()
        .filter(|s| s.request >= first && s.request < first + DUMP_REQUESTS)
    {
        writeln!(
            w,
            "{{\"name\": {}, \"id\": {}, \"parent\": {}, \"request\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
            json_str(s.name),
            s.id,
            s.parent,
            s.request,
            at(s.start),
            at(s.end)
        )
        .map_err(io)?;
    }
    w.flush().map_err(io)?;

    let grand: f64 = layers.totals.iter().map(|(_, t)| t.max(0.0)).sum();
    let mut table = format!(
        "# {} (seed {}): self time per layer over {} traced requests\n{:<24} {:>14} {:>8}\n",
        plan.spec.name,
        plan.seed,
        layers.transport_us.len(),
        "layer",
        "self_ms",
        "share"
    );
    let mut rows = String::new();
    for (name, us) in &layers.totals {
        table.push_str(&format!(
            "{name:<24} {:>14.3} {:>7.1}%\n",
            us / 1e3,
            100.0 * us.max(0.0) / grand.max(1e-9)
        ));
        if !rows.is_empty() {
            rows.push_str(", ");
        }
        rows.push_str(&format!("{}: {}", json_str(name), json_num(us / 1e3)));
    }
    std::fs::write(out.join("layers.txt"), &table).map_err(io)?;
    let metric_rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    std::fs::write(
        out.join("layers.json"),
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"self_ms\": {{{rows}}}, \"metrics\": {{{}}}}}\n",
            json_str(plan.spec.name),
            plan.seed,
            metric_rows.join(", ")
        ),
    )
    .map_err(io)?;
    eprint!("{table}");
    Ok(())
}
