//! `serve_hot` and `serve_spill`: many default-spec tenants behind one
//! `CoresetService`, driven by one closed-loop caller. Every request
//! crosses the real SBCSRV1 frame codec.
//!
//! A tenant's visit is an insert of its next batch and a delete of its
//! oldest, so every tenant's state stays stationary; every few visits a
//! mid-stream `query` of the visited tenant follows. Inserts and deletes
//! are the writes, queries the reads.
//!
//! `serve_hot` visits 96 tenants round-robin with no memory budget.
//! `serve_spill` has a hot set of tenants that gets most visits, round-
//! robin, and a cold set whose tenants take turns at every 20th visit. A
//! cold tenant keeps a longer window, so it is always fatter than a hot
//! one. The budget holds the hot set plus one cold tenant; with the
//! `Shed` policy and a spill directory, every cold visit restores its
//! tenant and admission evicts the fattest other live tenant, the cold
//! one visited before. Restores are thus a fixed minority of requests.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sbc::api::{
    frame_requests, tenant_pipeline, unframe_responses, ApiRequest, ApiResponse, CoresetPoint,
    ServerStatsReport, TenantSpec, MIN_SUPPORTED_VERSION, PROTOCOL_VERSION,
};
use sbc::geometry::dataset;
use sbc::{GridParams, Point, SbcError, SpaceReport, StreamCoresetBuilder, StreamOp};
use sbc_serve::{Client, CoresetService, InProcess, OverloadPolicy, ServeConfig, Transport};

use crate::churn::Churn;
use crate::harness::{
    cpu_ns, median, peak_rss_mib, quantile, Opts, Phase, Report, Tracer, Window, OUT_DIR,
};
use crate::layers;

/// A traffic mix.
#[derive(Clone, Copy)]
pub struct Mix {
    name: &'static str,
    full: Sizes,
    tiny: Sizes,
}

#[derive(Clone, Copy)]
struct Sizes {
    /// Tenants visited round-robin.
    hot: usize,
    /// Tenants visited in turn at every `cold_every`-th visit, under a
    /// budget that holds the hot ones and one cold one; 0 for none and
    /// no budget.
    cold: usize,
    cold_every: u64,
    /// Points per request.
    batch: usize,
    /// Batches a hot and a cold tenant's window holds.
    hot_batches: usize,
    cold_batches: usize,
    /// Points in each tenant's pool.
    pool: usize,
    /// One query after every `query_every` visits.
    query_every: u64,
    min_ops: u64,
    setup_reps: usize,
    /// Tenants whose served coresets are checked.
    checked: usize,
}

pub const HOT: Mix = Mix {
    name: "serve_hot",
    full: Sizes {
        hot: 96,
        cold: 0,
        cold_every: 0,
        batch: 16,
        hot_batches: 16,
        cold_batches: 0,
        pool: 4096,
        query_every: 4,
        min_ops: 2250,
        setup_reps: 3,
        checked: 4,
    },
    tiny: Sizes {
        hot: 6,
        cold: 0,
        cold_every: 0,
        batch: 8,
        hot_batches: 4,
        cold_batches: 0,
        pool: 256,
        query_every: 4,
        min_ops: 45,
        setup_reps: 2,
        checked: 2,
    },
};

pub const SPILL: Mix = Mix {
    name: "serve_spill",
    full: Sizes {
        hot: 24,
        cold: 40,
        cold_every: 20,
        batch: 16,
        hot_batches: 8,
        cold_batches: 32,
        pool: 4096,
        query_every: 4,
        min_ops: 2250,
        setup_reps: 3,
        checked: 4,
    },
    tiny: Sizes {
        hot: 4,
        cold: 4,
        cold_every: 4,
        batch: 8,
        hot_batches: 4,
        cold_batches: 32,
        pool: 512,
        query_every: 4,
        min_ops: 45,
        setup_reps: 2,
        checked: 2,
    },
};

/// Counts the bytes of every frame crossing the transport.
struct Counted {
    inner: InProcess,
    request_bytes: u64,
    response_bytes: u64,
}

impl Transport for Counted {
    fn round_trip(&mut self, frame: &[u8]) -> Result<Vec<u8>, SbcError> {
        self.request_bytes += frame.len() as u64;
        let reply = self.inner.round_trip(frame)?;
        self.response_bytes += reply.len() as u64;
        Ok(reply)
    }
}

enum Request<'a> {
    Open(u64, TenantSpec),
    Insert(u64, &'a [Point]),
    Delete(u64, &'a [Point]),
    Query(u64),
}

/// The caller's side of the service. Untraced it is the typed client;
/// traced, the benchmark encodes, hands the frame to
/// `CoresetService::handle_frame` and decodes itself, with a span
/// around each step.
enum Conn {
    Client(Client<Counted>),
    Direct {
        service: CoresetService,
        request_bytes: u64,
        response_bytes: u64,
    },
}

impl Conn {
    fn new(config: ServeConfig, traced: bool) -> Conn {
        let service = CoresetService::new(config);
        let mut conn = if traced {
            Conn::Direct {
                service,
                request_bytes: 0,
                response_bytes: 0,
            }
        } else {
            Conn::Client(Client::new(Counted {
                inner: InProcess::new(service),
                request_bytes: 0,
                response_bytes: 0,
            }))
        };
        match &mut conn {
            Conn::Client(c) => {
                c.hello().expect("protocol negotiation");
            }
            Conn::Direct { service, .. } => {
                let hello = ApiRequest::Hello {
                    min_version: MIN_SUPPORTED_VERSION,
                    max_version: PROTOCOL_VERSION,
                };
                let reply = service.handle_frame(&frame_requests(&[hello]));
                let ok = matches!(
                    unframe_responses(&reply).as_deref(),
                    Ok([ApiResponse::HelloAck { .. }])
                );
                assert!(ok, "protocol negotiation");
            }
        }
        conn
    }

    fn service(&mut self) -> &mut CoresetService {
        match self {
            Conn::Client(c) => c.transport_mut().inner.service_mut(),
            Conn::Direct { service, .. } => service,
        }
    }

    fn stats(&mut self) -> ServerStatsReport {
        self.service().server_stats()
    }

    /// Frame bytes sent and received so far.
    fn bytes(&mut self) -> (u64, u64) {
        match self {
            Conn::Client(c) => {
                let t = c.transport_mut();
                (t.request_bytes, t.response_bytes)
            }
            Conn::Direct {
                request_bytes,
                response_bytes,
                ..
            } => (*request_bytes, *response_bytes),
        }
    }

    /// Makes one request; a query returns the served coreset.
    fn call(&mut self, tracer: &mut Tracer, req: &Request) -> Result<Vec<CoresetPoint>, String> {
        match self {
            Conn::Client(c) => {
                let done = match *req {
                    Request::Open(t, spec) => c.open(t, spec).map(|_| Vec::new()),
                    Request::Insert(t, points) => c.insert(t, points).map(|_| Vec::new()),
                    Request::Delete(t, points) => c.delete(t, points).map(|_| Vec::new()),
                    Request::Query(t) => c.query(t).map(|(_, points)| points),
                };
                done.map_err(|e| e.to_string())
            }
            Conn::Direct {
                service,
                request_bytes,
                response_bytes,
            } => {
                let frame = tracer.span(layers::ENCODE, || {
                    let api = match *req {
                        Request::Open(tenant, spec) => ApiRequest::Open { tenant, spec },
                        Request::Insert(tenant, points) => ApiRequest::Insert {
                            tenant,
                            points: points.to_vec(),
                        },
                        Request::Delete(tenant, points) => ApiRequest::Delete {
                            tenant,
                            points: points.to_vec(),
                        },
                        Request::Query(tenant) => ApiRequest::Query { tenant },
                    };
                    frame_requests(&[api])
                });
                let restores = service.server_stats().restores;
                let t0 = Instant::now();
                let reply = service.handle_frame(&frame);
                let t1 = Instant::now();
                let layer = match req {
                    Request::Open(..) => layers::OPEN,
                    _ if service.server_stats().restores > restores => layers::HANDLE_RESTORE,
                    _ => layers::HANDLE,
                };
                tracer.record(layer, t0, t1);
                *request_bytes += frame.len() as u64;
                *response_bytes += reply.len() as u64;
                let responses = tracer
                    .span(layers::DECODE, || unframe_responses(&reply))
                    .map_err(|e| e.to_string())?;
                match responses.as_slice() {
                    [ApiResponse::CoresetReply { points, .. }] => Ok(points.clone()),
                    [ApiResponse::Opened { .. } | ApiResponse::Applied { .. }] => Ok(Vec::new()),
                    other => Err(format!("{other:?}")),
                }
            }
        }
    }
}

/// One tenant's spec and its stream.
struct Tenant {
    spec: TenantSpec,
    churn: Churn,
}

/// The tenant of each visit: the hot ones round-robin, and at every
/// `cold_every`-th visit the next cold one, in a seeded order.
struct Visits {
    next: u64,
    hot: usize,
    cold_every: u64,
    cold_order: Vec<usize>,
}

impl Visits {
    fn new(z: &Sizes, seed: u64) -> Visits {
        let mut cold_order: Vec<usize> = (z.hot..z.hot + z.cold).collect();
        cold_order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xc01d));
        Visits {
            next: 0,
            hot: z.hot,
            cold_every: z.cold_every,
            cold_order,
        }
    }

    fn draw(&mut self) -> usize {
        let g = self.next;
        self.next += 1;
        if self.cold_order.is_empty() {
            return (g % self.hot as u64) as usize;
        }
        let (cycle, at) = (g / self.cold_every, g % self.cold_every);
        if at == self.cold_every - 1 {
            self.cold_order[cycle as usize % self.cold_order.len()]
        } else {
            ((cycle * (self.cold_every - 1) + at) % self.hot as u64) as usize
        }
    }
}

/// One request of a visit: `(tenant, visit)` for the writes.
#[derive(Clone, Copy, Debug)]
enum Step {
    Insert(usize, usize),
    Delete(usize, usize),
    Query(usize),
}

/// What the window saw once `min_ops` operations were done.
struct Probe {
    stats: ServerStatsReport,
    bytes: (u64, u64),
    requests: u64,
    visits: Vec<usize>,
}

pub fn run(opts: &Opts, mix: Mix) -> Report {
    let z = if opts.tiny { mix.tiny } else { mix.full };
    let tenants: Vec<Tenant> = (0..(z.hot + z.cold) as u64)
        .map(|t| {
            let spec = TenantSpec {
                seed: opts.seed ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..TenantSpec::default()
            };
            let gp = GridParams::from_log_delta(spec.log_delta, spec.dims as usize);
            // Each tenant has its own clusters; the generator emits them
            // one after another.
            let mut pool = dataset::gaussian_mixture(gp, z.pool, 2, 0.08, spec.seed);
            pool.shuffle(&mut StdRng::seed_from_u64(spec.seed));
            let batches = if (t as usize) < z.hot {
                z.hot_batches
            } else {
                z.cold_batches
            };
            Tenant {
                churn: Churn::new(pool, batches * z.batch, z.batch),
                spec,
            }
        })
        .collect();
    let fills: Vec<Vec<Point>> = tenants.iter().map(|t| t.churn.fill()).collect();
    let budget_bytes = budget(&tenants, z.hot);
    let spill = Path::new(OUT_DIR).join(format!("spill-{}", std::process::id()));
    let mut tracer = Tracer::new(opts.traced);
    let mut failed_setup = 0u64;

    // Set-up: a fresh service, every tenant opened and filled, repeated.
    let mut setups = Vec::with_capacity(z.setup_reps);
    let mut conn = None;
    for rep in 0..z.setup_reps {
        drop(conn.take());
        let config = ServeConfig {
            budget_bytes,
            spill_dir: (budget_bytes > 0).then(|| fresh_dir(&spill)),
            policy: OverloadPolicy::Shed,
            ..ServeConfig::default()
        };
        let mut c = Conn::new(config, opts.traced);
        tracer.set_op(rep as u64);
        let t0 = cpu_ns();
        for (id, (t, fill)) in tenants.iter().zip(&fills).enumerate() {
            let id = id as u64;
            let mut ok = c.call(&mut tracer, &Request::Open(id, t.spec)).is_ok();
            for batch in fill.chunks(z.batch) {
                ok &= c.call(&mut tracer, &Request::Insert(id, batch)).is_ok();
            }
            failed_setup += u64::from(!ok);
        }
        setups.push((cpu_ns() - t0) as f64 / 1e9);
        conn = Some(c);
    }
    let mut conn = conn.expect("at least one set-up");
    if failed_setup > 0 {
        eprintln!(
            "{}: {failed_setup} tenants failed to open or fill",
            mix.name
        );
    }

    tracer.set_phase(Phase::Window);
    conn.service().take_admission_ns();
    let start_stats = conn.stats();
    let start_bytes = conn.bytes();
    let mut visits = Visits::new(&z, opts.seed);
    let mut done_visits = vec![0usize; tenants.len()];
    let mut queue: VecDeque<Step> = VecDeque::new();
    let mut probe: Option<Probe> = None;
    let mut w = Window::open();
    let mut op = 0u64;
    // The window and the probe both end on a visit boundary, so every
    // tenant's history is whole visits.
    while !(queue.is_empty() && w.done(opts, z.min_ops)) {
        if queue.is_empty() {
            // One visit: insert, delete, and every few visits a query.
            let t = visits.draw();
            let v = done_visits[t];
            done_visits[t] += 1;
            queue.extend([Step::Insert(t, v), Step::Delete(t, v)]);
            if visits.next.is_multiple_of(z.query_every) {
                queue.push_back(Step::Query(t));
            }
        }
        tracer.set_op(op);
        let step = queue.pop_front().expect("a visit was queued");
        let (t, done) = match step {
            Step::Query(t) => {
                let t0 = cpu_ns();
                let served = conn.call(&mut tracer, &Request::Query(t as u64));
                w.reads.push(t0, cpu_ns());
                (t, served.map(drop))
            }
            Step::Insert(t, v) | Step::Delete(t, v) => {
                let insert = matches!(step, Step::Insert(..));
                let churn = &tenants[t].churn;
                let points = if insert {
                    churn.inserts(v)
                } else {
                    churn.deletes(v)
                };
                let req = if insert {
                    Request::Insert(t as u64, &points)
                } else {
                    Request::Delete(t as u64, &points)
                };
                let t0 = cpu_ns();
                let done = conn.call(&mut tracer, &req);
                w.writes.push(t0, cpu_ns());
                w.updates += points.len() as u64;
                (t, done.map(drop))
            }
        };
        if let Err(e) = done {
            eprintln!("{}: {step:?} of tenant {t} failed: {e}", mix.name);
            w.failed += 1;
        }
        op += 1;
        if probe.is_none() && op >= z.min_ops && queue.is_empty() {
            probe = Some(Probe {
                stats: conn.stats(),
                bytes: conn.bytes(),
                requests: op,
                visits: done_visits.clone(),
            });
        }
    }
    w.close();
    let peak_rss = peak_rss_mib();
    let admission = {
        let mut ns = conn.service().take_admission_ns();
        ns.sort_unstable();
        quantile(&ns, 0.5)
    };
    let p = probe.expect("the window holds min_ops operations");

    // Output check: sampled tenants' served coresets against local
    // reference pipelines that replay the same requests.
    tracer.set_phase(Phase::Check);
    let mut spaces: Vec<SpaceReport> = Vec::new();
    let mut bad = 0u64;
    let stride = (tenants.len() / z.checked).max(1);
    for t in (0..tenants.len()).step_by(stride).take(z.checked) {
        tracer.set_op(t as u64);
        let served = conn.call(&mut tracer, &Request::Query(t as u64));
        let (builder, space) =
            traced_reference(&tenants[t], done_visits[t], p.visits[t], &mut tracer);
        spaces.push(space);
        let expected = tracer.span(layers::STREAM_FINISH, || builder.finish_ref());
        let same = match (served, expected) {
            (Ok(served), Ok(coreset)) => same_served(&served, &coreset),
            _ => false,
        };
        if !same {
            eprintln!(
                "{}: tenant {t}: served coreset differs from its reference",
                mix.name
            );
            bad += 1;
        }
    }
    drop(conn);
    let _ = std::fs::remove_dir_all(&spill);

    let failed = w.failed + failed_setup + bad;
    let mut r = Report {
        correct: bad == 0,
        attempted: w.ops() + z.checked as u64,
        failed,
        ..Report::default()
    };
    let window_stats = |f: fn(&ServerStatsReport) -> u64| f(&p.stats) - f(&start_stats);
    let requests = (p.requests as f64).max(1.0);
    if opts.traced {
        let (ingest_ns, _) = tracer.total(layers::STREAM_INGEST, Phase::Check);
        let updates: usize = (0..tenants.len())
            .step_by(stride)
            .take(z.checked)
            .map(|t| tenants[t].churn.window() + 2 * z.batch * done_visits[t])
            .sum();
        let mut l = layers::Ledger {
            ingest_ns_per_update: ingest_ns as f64 / updates as f64,
            finish_ref_ms: tracer.mean_ms(layers::STREAM_FINISH, Phase::Check),
            encode_us: tracer.mean_ms(layers::ENCODE, Phase::Window) * 1e3,
            decode_us: tracer.mean_ms(layers::DECODE, Phase::Window) * 1e3,
            request_bytes: (p.bytes.0 - start_bytes.0) as f64 / requests,
            response_bytes: (p.bytes.1 - start_bytes.1) as f64 / requests,
            handle_us: tracer.mean_ms(layers::HANDLE, Phase::Window) * 1e3,
            handle_restore_us: tracer.mean_ms(layers::HANDLE_RESTORE, Phase::Window) * 1e3,
            evictions: window_stats(|s| s.evictions) as f64,
            restores: window_stats(|s| s.restores) as f64,
            overloaded: window_stats(|s| s.overloaded) as f64,
            open_ms: tracer.mean_ms(layers::OPEN, Phase::Setup),
            admission_p50_ns: admission as f64,
            ..layers::Ledger::default()
        };
        l.space(&spaces);
        l.emit(&mut r);
        r.traced_window(&tracer, &w);
        crate::write_spans(opts, mix.name, &tracer);
    } else {
        r.end_to_end(median(setups), &w, p.stats.peak_measured_bytes, peak_rss);
    }
    crate::ingest::exact_space(&mut r, &spaces);
    r.exact("evictions", p.stats.evictions);
    r.exact("restores", p.stats.restores);
    r.exact("overloaded", p.stats.overloaded);
    r.exact("peak_measured_bytes", p.stats.peak_measured_bytes);
    r.exact("request_bytes", p.bytes.0 - start_bytes.0);
    r.exact("response_bytes", p.bytes.1 - start_bytes.1);
    r.exact("budget_bytes", budget_bytes as u64);
    r
}

/// The budget of a mix with cold tenants: the hot tenants' footprints
/// after their fill, plus room for one cold tenant but not two (0, no
/// budget, without cold tenants).
fn budget(tenants: &[Tenant], hot: usize) -> usize {
    if tenants.len() == hot {
        return 0;
    }
    let footprints: Vec<usize> = tenants
        .iter()
        .map(|t| reference(t, 0).1.measured_bytes)
        .collect();
    let (hot_fp, cold_fp) = footprints.split_at(hot);
    let max_hot = hot_fp.iter().max().copied().unwrap_or(0);
    let (min_cold, max_cold) = (
        cold_fp.iter().min().copied().unwrap_or(0),
        cold_fp.iter().max().copied().unwrap_or(0),
    );
    if min_cold <= max_hot || 2 * min_cold <= max_cold {
        eprintln!(
            "serve_spill: footprints do not separate (hot up to {max_hot}, cold {min_cold}..{max_cold}); \
             restores will not follow the cold visits"
        );
    }
    hot_fp.iter().sum::<usize>() + (max_cold + 2 * min_cold) / 2
}

/// Empties (or creates) the spill directory of a fresh service.
fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the spill directory");
    dir.to_path_buf()
}

/// A local pipeline built the way the service builds a tenant's, fed
/// the tenant's fill and its first `visits` visits, with its space report.
fn reference(t: &Tenant, visits: usize) -> (StreamCoresetBuilder, SpaceReport) {
    traced_reference(t, visits, visits, &mut Tracer::new(false))
}

/// [`reference`] with spans around its ingest calls; the space report
/// is the one after `probe` visits.
fn traced_reference(
    t: &Tenant,
    visits: usize,
    probe: usize,
    tracer: &mut Tracer,
) -> (StreamCoresetBuilder, SpaceReport) {
    let (params, sp) = tenant_pipeline(&t.spec).expect("default spec is valid");
    let mut b = StreamCoresetBuilder::new(params, sp, &mut StdRng::seed_from_u64(t.spec.seed));
    let fill = t.churn.fill();
    tracer.span(layers::STREAM_INGEST, || b.insert_batch(&fill));
    let mut space = None;
    for v in 0..visits {
        if v == probe {
            space = Some(b.space_report());
        }
        let ins = t.churn.inserts(v);
        let del: Vec<StreamOp> = t
            .churn
            .deletes(v)
            .into_iter()
            .map(StreamOp::Delete)
            .collect();
        tracer.span(layers::STREAM_INGEST, || {
            b.insert_batch(&ins);
            b.process_all(&del);
        });
    }
    let space = space.unwrap_or_else(|| b.space_report());
    (b, space)
}

fn same_served(served: &[CoresetPoint], reference: &sbc::Coreset) -> bool {
    let entries = reference.entries();
    served.len() == entries.len()
        && served.iter().zip(entries).all(|(s, e)| {
            s.point == e.point
                && s.weight.to_bits() == e.weight.to_bits()
                && s.level == e.level
                && s.part == e.part as u64
        })
}
