//! `serve-events`: the daemon's event loop, in process.
//!
//! Five `TeEngine`s (abilene, nsf, germany, att, geant; budget 5, gravity
//! total 100) each replay a seeded trace of 3,000 `apply_demand_update`
//! calls (1–3 overrides, rate = base × U[0.5, 2]) with link `L_j` going down
//! after update 10j+5 and up after 10j+10 (j < 300): 15,000 demand updates
//! and 3,000 link events per repetition. Links are drawn only from those
//! whose removal leaves the topology connected, so no operation may fail.
//! Every 500 updates the engine is checked against a cold rebuild with the
//! clock stopped.
//!
//! The same `lp` and `ospf` layers as the batch workloads, used
//! incrementally: tiny per-destination LPs through `PhaseOneCache`,
//! `compile_destination`, `LsaDelta` apply. No Adam, no full SPF.

use super::{common_layer_metrics, Tracing};
use crate::harness::{peak_rss_mb, Options, RepClock, Report, Setups, SplitMix64};
use crate::stats::{geomean, median, percentile};
use crate::trace::{Recorder, Trace};
use coyote_core::{build_all_dags, optu_within_dags, DagMode};
use coyote_graph::{Graph, NodeId};
use coyote_serve::json;
use coyote_serve::{
    DemandModel, DemandUpdate, EngineConfig, Server, ServerConfig, TeEngine, UpdateOutcome,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

const TOPOLOGIES: [&str; 5] = ["abilene", "nsf", "germany", "att", "geant"];
const UPDATES: usize = 3_000;
const SMOKE_UPDATES: usize = 300;
/// The engine is compared with a cold rebuild this many times per trace
/// (every 500 updates of the full trace).
const CHECKPOINTS: usize = 6;
/// Served quality is sampled after updates `100k + 3`: no link is down then
/// (links are down only from update `10j + 5` to `10j + 10`).
const QUALITY_EVERY: usize = 100;
const QUALITY_PHASE: usize = 3;
const HTTP_REQUESTS: usize = 500;

/// One step of a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A batch of demand overrides `(src, dst, rate)`.
    Demand(Vec<(usize, usize, f64)>),
    /// A link going down or coming back.
    Link {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
        /// True when the link recovers.
        up: bool,
    },
}

/// One engine and the trace it will replay.
pub struct Lane {
    /// Topology name.
    pub topology: &'static str,
    engine: TeEngine,
    /// The seeded trace.
    pub ops: Vec<Op>,
}

/// Physical links whose removal leaves every pair connected.
fn non_bridge_links(graph: &Graph) -> Vec<(usize, usize)> {
    let root = NodeId(0);
    let mut links = Vec::new();
    for e in graph.edges() {
        let (a, b) = graph.endpoints(e);
        if a.index() >= b.index() {
            continue;
        }
        let failed: Vec<_> = [graph.find_edge(a, b), graph.find_edge(b, a)]
            .into_iter()
            .flatten()
            .collect();
        let rest = graph.without_edges(&failed);
        if rest
            .nodes()
            .all(|t| rest.is_reachable(root, t) && rest.is_reachable(t, root))
        {
            links.push((a.index(), b.index()));
        }
    }
    links
}

/// The trace of one topology: `updates` demand updates, a link event pair
/// every ten.
fn generate_ops(engine: &TeEngine, updates: usize, rng: &mut SplitMix64) -> Vec<Op> {
    let graph = engine.pristine_graph();
    let base = engine.demands();
    let pairs: Vec<(usize, usize, f64)> = base
        .pairs()
        .filter(|&(s, t, v)| s != t && v > 0.0)
        .map(|(s, t, v)| (s.index(), t.index(), v))
        .collect();
    let links = non_bridge_links(graph);
    let mut ops = Vec::with_capacity(updates + updates / 5);
    let mut down = None;
    for i in 1..=updates {
        let overrides = (0..1 + rng.below(3))
            .map(|_| {
                let (s, t, v) = pairs[rng.below(pairs.len())];
                (s, t, v * rng.uniform(0.5, 2.0))
            })
            .collect();
        ops.push(Op::Demand(overrides));
        if i % 10 == 5 {
            let (a, b) = links[rng.below(links.len())];
            ops.push(Op::Link { a, b, up: false });
            down = Some((a, b));
        } else if i % 10 == 0 {
            if let Some((a, b)) = down.take() {
                ops.push(Op::Link { a, b, up: true });
            }
        }
    }
    ops
}

/// Fresh engines and their traces. The engines mutate as they replay, so
/// every repetition starts from its own set-up.
pub fn setup(opts: &Options, rec: &mut Recorder) -> Result<Vec<Lane>, String> {
    let (topologies, updates): (&[&'static str], usize) = if opts.smoke {
        (&TOPOLOGIES[..1], SMOKE_UPDATES)
    } else {
        (&TOPOLOGIES, UPDATES)
    };
    let mut rng = SplitMix64(opts.seed);
    let mut lanes = Vec::with_capacity(topologies.len());
    for &topology in topologies {
        rec.set_request(|| topology.to_string());
        let engine = rec
            .span("serve.engine.new", || {
                TeEngine::new(&EngineConfig {
                    topology: topology.to_string(),
                    model: DemandModel::Gravity { total: Some(100.0) },
                    budget: 5,
                })
            })
            .map_err(|e| format!("{topology}: {e}"))?;
        let ops = generate_ops(&engine, updates, &mut rng);
        lanes.push(Lane {
            topology,
            engine,
            ops,
        });
    }
    Ok(lanes)
}

/// What one repetition measured.
#[derive(Default)]
struct RepOutput {
    /// Caller-side latency of every demand update, µs, per topology.
    demand_us: Vec<Vec<f64>>,
    /// Caller-side latency of every link event, µs, per topology.
    event_us: Vec<Vec<f64>>,
    /// Cold-rebuild time at every checkpoint, µs, per topology.
    cold_us: Vec<Vec<f64>>,
    reopt_us: u64,
    lies: usize,
    dirty_on_demand: usize,
    delta_prefixes: usize,
    fakes_added: usize,
    errors: u64,
    checkpoints: u64,
    checkpoints_failed: u64,
    /// Served max utilization over `OPTU` of the current demands.
    quality: Vec<f64>,
    /// Final `(epoch, max utilization bits)` per topology.
    digest: Vec<(u64, u64)>,
}

impl RepOutput {
    fn demand_pooled(&self) -> Vec<f64> {
        self.demand_us.concat()
    }

    fn event_pooled(&self) -> Vec<f64> {
        self.event_us.concat()
    }

    fn latencies(&self) -> impl Iterator<Item = &f64> {
        self.demand_us.iter().chain(&self.event_us).flatten()
    }

    fn wall_secs(&self) -> f64 {
        self.latencies().sum::<f64>() * 1e-6
    }

    fn ops(&self) -> u64 {
        self.latencies().count() as u64
    }

    fn note(&mut self, out: &UpdateOutcome) {
        self.reopt_us += out.reopt_micros;
        self.lies += out.delta_fakes_added + out.delta_fakes_retracted;
        self.delta_prefixes += out.delta_prefixes;
        self.fakes_added += out.delta_fakes_added;
    }
}

/// Replays every lane's trace. `quality` additionally samples the served
/// quality against `OPTU`, clock stopped.
fn rep(lanes: Vec<Lane>, rec: &mut Recorder, quality: bool) -> Result<RepOutput, String> {
    let mut out = RepOutput::default();
    for lane in lanes {
        let Lane {
            topology,
            mut engine,
            ops,
        } = lane;
        let mut demand_us = Vec::new();
        let mut event_us = Vec::new();
        let mut cold_us = Vec::new();
        let mut applied = 0;
        let demand_updates = ops.iter().filter(|op| matches!(op, Op::Demand(_))).count();
        let verify_every = demand_updates.max(CHECKPOINTS) / CHECKPOINTS;
        for (k, op) in ops.iter().enumerate() {
            rec.set_request(|| format!("{topology}/{k}"));
            match op {
                Op::Demand(overrides) => {
                    let updates: Vec<DemandUpdate> = overrides
                        .iter()
                        .map(|&(s, t, rate)| DemandUpdate {
                            src: NodeId(s),
                            dst: NodeId(t),
                            rate,
                        })
                        .collect();
                    let span = rec.open("serve.demand");
                    let started = Instant::now();
                    let result = engine.apply_demand_update(&updates);
                    demand_us.push(started.elapsed().as_secs_f64() * 1e6);
                    rec.close(span);
                    applied += 1;
                    match result {
                        Ok(o) => {
                            out.note(&o);
                            out.dirty_on_demand += o.dirty_destinations.len();
                            if quality && applied % QUALITY_EVERY == QUALITY_PHASE {
                                let graph = engine.current_graph();
                                let dags = build_all_dags(graph, DagMode::Augmented)
                                    .map_err(|e| format!("{topology}: {e}"))?;
                                let optimum = optu_within_dags(graph, &dags, engine.demands())
                                    .map_err(|e| format!("{topology}: {e}"))?;
                                out.quality.push(o.max_utilization / optimum);
                            }
                        }
                        Err(_) => out.errors += 1,
                    }
                    if applied % verify_every == 0 {
                        // The cold rebuild is the check, not the event loop:
                        // its LPs and SPF runs stay out of the counters.
                        let sink = coyote_obs::uninstall();
                        let check = rec.span("serve.verify", || engine.verify_against_cold());
                        if let Some(sink) = sink {
                            coyote_obs::install(sink);
                        }
                        out.checkpoints += 1;
                        match check {
                            Ok(c) if c.identical => cold_us.push(c.cold_micros as f64),
                            _ => out.checkpoints_failed += 1,
                        }
                    }
                }
                Op::Link { a, b, up } => {
                    let span = rec.open("serve.link_event");
                    let started = Instant::now();
                    let result = engine.apply_link_event(NodeId(*a), NodeId(*b), *up);
                    event_us.push(started.elapsed().as_secs_f64() * 1e6);
                    rec.close(span);
                    match result {
                        Ok(o) => out.note(&o),
                        Err(_) => out.errors += 1,
                    }
                }
            }
        }
        out.digest
            .push((engine.epoch(), engine.max_utilization().to_bits()));
        out.demand_us.push(demand_us);
        out.event_us.push(event_us);
        out.cold_us.push(cold_us);
    }
    Ok(out)
}

fn ms(us: f64) -> f64 {
    us * 1e-3
}

/// End-to-end metrics.
pub fn run_untraced(opts: &Options) -> Result<Report, String> {
    let mut setups = Setups::default();
    let mut clock = RepClock::new(opts);
    let mut outs: Vec<RepOutput> = Vec::new();
    loop {
        let lanes = setups.run(|| setup(opts, &mut Recorder::off()))?;
        let out = rep(lanes, &mut Recorder::off(), outs.is_empty())?;
        let more = clock.record(out.wall_secs());
        outs.push(out);
        if !more {
            break;
        }
    }
    setups.top_up(|| setup(opts, &mut Recorder::off()));
    let rss = peak_rss_mb();

    let first = &outs[0];
    let mut report = Report {
        reps: outs.len(),
        ..Report::default()
    };
    setups.report(&mut report);
    let per_rep = |f: &dyn Fn(&RepOutput) -> f64| outs.iter().map(f).collect::<Vec<_>>();
    report.set_median("wall_s", &per_rep(&|o| o.wall_secs()));
    // Percentiles are over the samples pooled across topologies and
    // repetitions.
    let demand: Vec<f64> = outs.iter().flat_map(RepOutput::demand_pooled).collect();
    let event: Vec<f64> = outs.iter().flat_map(RepOutput::event_pooled).collect();
    report.set("op_ms", ms(median(&demand)));
    report.set("heavy_op_ms", ms(median(&event)));
    report.samples.insert("op_ms".into(), demand.len());
    report.samples.insert("heavy_op_ms".into(), event.len());
    report
        .per_rep
        .insert("op_ms".into(), per_rep(&|o| ms(median(&o.demand_pooled()))));
    report.per_rep.insert(
        "heavy_op_ms".into(),
        per_rep(&|o| ms(median(&o.event_pooled()))),
    );
    report.set("peak_rss_mb", rss);
    report.set("quality_ratio", geomean(&first.quality).unwrap_or(f64::NAN));
    report
        .samples
        .insert("quality_ratio".into(), first.quality.len());
    report.set("lies", first.lies as f64);

    report.attempted = outs.iter().map(|o| o.ops() + o.checkpoints).sum();
    report.failed = outs.iter().map(|o| o.errors + o.checkpoints_failed).sum();
    report.check(
        "no update fails and every checkpoint is identical to a cold rebuild",
        report.failed == 0,
        format!(
            "{} updates, {} checkpoints per repetition",
            first.ops(),
            first.checkpoints
        ),
    );
    report.check(
        "served quality is finite and at least 1",
        first
            .quality
            .iter()
            .all(|q| q.is_finite() && *q >= 1.0 - 1e-6),
        format!("{} samples", first.quality.len()),
    );
    report.check(
        "final engine state and churn identical across repetitions",
        outs.iter()
            .all(|o| o.digest == first.digest && o.lies == first.lies),
        format!("{} repetitions", outs.len()),
    );
    Ok(report)
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .map_err(|e| e.to_string())?;
    let (head, payload) = reply
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed HTTP reply".to_string())?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "{method} {path}: {}",
            head.lines().next().unwrap_or("")
        ));
    }
    Ok(payload.to_string())
}

/// The HTTP leg: one worker, one client, loopback, one connection per
/// request (as the server requires). Returns the median `GET /state` round
/// trip and the median `POST /demand` overhead (round trip minus the
/// reply's `reopt_micros`), both µs.
fn http_leg(opts: &Options) -> Result<(f64, f64), String> {
    let mut lanes = setup(
        &Options {
            smoke: true,
            ..opts.clone()
        },
        &mut Recorder::off(),
    )?;
    let Lane { engine, ops, .. } = lanes.remove(0);
    let server = Server::start(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            batch_recompile_micros: None,
        },
    )
    .map_err(|e| e.to_string())?;
    let addr = server.addr();
    let run = || -> Result<(f64, f64), String> {
        let mut state_us = Vec::with_capacity(HTTP_REQUESTS);
        for _ in 0..HTTP_REQUESTS {
            let started = Instant::now();
            http(addr, "GET", "/state", "")?;
            state_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        let demands = ops.iter().filter_map(|op| match op {
            Op::Demand(overrides) => Some(overrides),
            Op::Link { .. } => None,
        });
        let mut overhead_us = Vec::with_capacity(HTTP_REQUESTS);
        for overrides in demands.cycle().take(HTTP_REQUESTS) {
            let items: Vec<String> = overrides
                .iter()
                .map(|(s, t, rate)| format!("{{\"src\":{s},\"dst\":{t},\"rate\":{rate}}}"))
                .collect();
            let body = format!("{{\"updates\":[{}]}}", items.join(","));
            let started = Instant::now();
            let reply = http(addr, "POST", "/demand", &body)?;
            let rtt = started.elapsed().as_secs_f64() * 1e6;
            let reopt = json::parse(&reply)?
                .get("reopt_micros")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| "reply without reopt_micros".to_string())?;
            overhead_us.push(rtt - reopt);
        }
        Ok((median(&state_us), median(&overhead_us)))
    };
    let result = run();
    server.shutdown();
    server.join();
    result
}

/// Per-layer metrics and the span trace.
pub fn run_traced(opts: &Options) -> Result<(Report, Trace), String> {
    let reference = rep(
        setup(opts, &mut Recorder::off())?,
        &mut Recorder::off(),
        false,
    )?;
    let mut tracing = Tracing::new();
    tracing.install();
    let lanes = setup(opts, &mut tracing.rec)?;
    let traced = rep(lanes, &mut tracing.rec, false)?;
    let (trace, snapshot) = tracing.finish();

    let mut report = Report {
        reps: 1,
        ..Report::default()
    };
    common_layer_metrics(&mut report, &trace, &snapshot);
    let demand = traced.demand_pooled();
    let event = traced.event_pooled();
    report.samples.insert("serve.demand".into(), demand.len());
    report
        .samples
        .insert("serve.link_event".into(), event.len());
    report.set(
        "serve.demand_p99_us",
        percentile(&demand, 99.0).unwrap_or(0.0),
    );
    report.set(
        "serve.event_p99_us",
        percentile(&event, 99.0).unwrap_or(0.0),
    );
    report.set(
        "serve.reopt_share",
        traced.reopt_us as f64 * 1e-6 / traced.wall_secs(),
    );
    let cold: Vec<f64> = traced.cold_us.concat();
    report
        .samples
        .insert("serve.cold_rebuild".into(), cold.len());
    report.set(
        "serve.cold_rebuild_ms",
        ms(crate::stats::median_or_zero(&cold)),
    );
    // Per topology, so a small and a large network weigh the same.
    let vs_cold: Vec<f64> = traced
        .cold_us
        .iter()
        .zip(&traced.event_us)
        .filter(|(c, e)| !c.is_empty() && !e.is_empty())
        .map(|(c, e)| median(c) / median(e))
        .collect();
    report.set(
        "serve.event_vs_cold_ratio",
        geomean(&vs_cold).unwrap_or(0.0),
    );
    let per_update = |total: usize, n: usize| total as f64 / n.max(1) as f64;
    report.set(
        "serve.dirty_per_demand",
        per_update(traced.dirty_on_demand, demand.len()),
    );
    report.set(
        "serve.delta_prefixes_per_update",
        per_update(traced.delta_prefixes, demand.len() + event.len()),
    );
    report.set(
        "serve.fakes_added_per_update",
        per_update(traced.fakes_added, demand.len() + event.len()),
    );
    report.set(
        "obs.overhead_ratio",
        traced.wall_secs() / reference.wall_secs(),
    );
    report
        .per_rep
        .insert("untraced_wall_s".into(), vec![reference.wall_secs()]);
    report
        .per_rep
        .insert("traced_wall_s".into(), vec![traced.wall_secs()]);

    // Environmental, so a host without loopback skips the leg, not the run.
    match http_leg(opts) {
        Ok((state_rtt, demand_overhead)) => {
            report.set("serve.http.state_rtt_us", state_rtt);
            report.set("serve.http.demand_overhead_us", demand_overhead);
            report
                .samples
                .insert("serve.http".into(), 2 * HTTP_REQUESTS);
            report.notes.push("HTTP leg over loopback".into());
        }
        Err(e) => report.notes.push(format!("HTTP leg skipped: {e}")),
    }

    report.attempted = reference.ops() + reference.checkpoints + traced.ops() + traced.checkpoints;
    report.failed =
        reference.errors + reference.checkpoints_failed + traced.errors + traced.checkpoints_failed;
    report.check(
        "no update fails and every checkpoint is identical to a cold rebuild",
        report.failed == 0,
        format!(
            "{} updates, {} checkpoints per repetition",
            traced.ops(),
            traced.checkpoints
        ),
    );
    report.check(
        "traced repetition ends in the untraced engine state",
        traced.digest == reference.digest && traced.lies == reference.lies,
        format!("{} engines", traced.digest.len()),
    );
    Ok((report, trace))
}
