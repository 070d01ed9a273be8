//! The three workloads, rebuilt from the program's public API, and one
//! benchmark iteration of each: build, run, summarize, check and render
//! every simulated run the workload is made of.

use std::cell::Cell;
use std::rc::Rc;

use ispn_core::{FlowId, TokenBucketSpec};
use ispn_experiments::churn::{ChurnConfig, ChurnOutcome};
use ispn_experiments::extensions::admission::{HIGH_TARGET_PKT, LOW_TARGET_PKT};
use ispn_experiments::hetmix::{self, HetMixPoint};
use ispn_experiments::mesh::aggregate_class;
use ispn_experiments::table3::{self, Table3, HIGH_PRIORITY_TARGET_PKT, LOW_PRIORITY_TARGET_PKT};
use ispn_experiments::{fig1, report, Fig1Network, PaperConfig};
use ispn_net::{FlowConfig, FlowReport, LinkId, Network, PoliceAction};
use ispn_scenario::{
    AdmissionSpec, DisciplineMatrix, DisciplineSpec, FlowDef, MeasurementPlan, NullObserver,
    PointResult, RouteSpec, ScenarioBuilder, ScenarioSet, ServiceSpec, Sim, SourceSpec,
    SweepReport, SweepRunner, TelemetryCollector, TopologySpec, WorkloadSpec,
};
use ispn_sched::Averaging;
use ispn_signal::SignalEvent;
use ispn_sim::SimTime;

use crate::checks;
use crate::timing::{host_now, secs_since};
use crate::trace::Tracer;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 3: 22 classed on/off flows and two TCP connections over the
    /// four Unified hops of the Figure-1 chain, 600 simulated seconds.
    PaperChain,
    /// Dynamic signalling on the Figure-1 chain: 200 setups/s, 0.1 s mean
    /// holding time, Section-9 admission on every forward link.
    ChurnStorm,
    /// The heterogeneous-mix sweep: 12 single-link points (4 disciplines ×
    /// 3 load levels) through a parallel sweep runner.
    HetmixSweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperChain,
        Workload::ChurnStorm,
        Workload::HetmixSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperChain => "paper-chain",
            Workload::ChurnStorm => "churn-storm",
            Workload::HetmixSweep => "hetmix-sweep",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Setup arrival rate of `churn-storm`, per second.
pub const CHURN_ARRIVALS_PER_SEC: f64 = 200.0;
/// Mean holding time of an admitted `churn-storm` flow, seconds.
pub const CHURN_MEAN_HOLDING_S: f64 = 0.1;
/// The flows-per-class levels of `hetmix-sweep`.
pub const HETMIX_LEVELS: [usize; 3] = [1, 2, 3];

/// Discipline names as links report them, in metric order.
pub const DISCIPLINES: [&str; 4] = ["FIFO", "FIFO+", "WFQ", "Unified"];

/// Source models, in metric order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// The Appendix's two-state Markov on/off source.
    OnOff = 0,
    /// Constant bit rate.
    Cbr = 1,
    /// Poisson arrivals.
    Poisson = 2,
}

impl SourceKind {
    /// Every source model, in metric order.
    pub const ALL: [SourceKind; 3] = [SourceKind::OnOff, SourceKind::Cbr, SourceKind::Poisson];
}

/// Deterministic work counts of one iteration (summed over its runs;
/// high-water marks and structure sizes take the largest run's value).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulator events dispatched.
    pub events: u64,
    /// Packet-hops: Σ `LinkReport::packets_sent`.
    pub hops: u64,
    /// Buffer drops, over every link.
    pub drops: u64,
    /// Packets the flows' sources put into the network.
    pub generated: u64,
    /// Packets delivered end to end.
    pub delivered: u64,
    /// Monitor record calls: one per generated, delivered, dropped or
    /// inactive-discarded packet and one per packet-hop.
    pub monitor_samples: u64,
    /// Peak pending-event count.
    pub queue_high_water: u64,
    /// Peak depth of any port queue.
    pub peak_depth: u64,
    /// Scheduler packet-pool segment allocations.
    pub pool_grow_events: u64,
    /// Peak pooled-segment count.
    pub pool_segments_hw: u64,
    /// Structural size of the flow table, bytes.
    pub flow_table_bytes: u64,
    /// Structural size of the per-link reservation state, bytes.
    pub reservation_state_bytes: u64,
    /// Completed setup requests.
    pub requests: u64,
    /// Setups admitted on every hop.
    pub accepted: u64,
    /// Per-link admission verdicts.
    pub verdicts: u64,
    /// Packet-hops per discipline, in [`DISCIPLINES`] order.
    pub hops_by_disc: [u64; 4],
    /// Generated packets per source model, in [`SourceKind`] order.
    pub generated_by_source: [u64; 3],
}

impl Counts {
    /// Fold another run's counts into these.
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.hops += o.hops;
        self.drops += o.drops;
        self.generated += o.generated;
        self.delivered += o.delivered;
        self.monitor_samples += o.monitor_samples;
        self.queue_high_water = self.queue_high_water.max(o.queue_high_water);
        self.peak_depth = self.peak_depth.max(o.peak_depth);
        self.pool_grow_events += o.pool_grow_events;
        self.pool_segments_hw = self.pool_segments_hw.max(o.pool_segments_hw);
        self.flow_table_bytes = self.flow_table_bytes.max(o.flow_table_bytes);
        self.reservation_state_bytes = self.reservation_state_bytes.max(o.reservation_state_bytes);
        self.requests += o.requests;
        self.accepted += o.accepted;
        self.verdicts += o.verdicts;
        for i in 0..4 {
            self.hops_by_disc[i] += o.hops_by_disc[i];
        }
        for i in 0..3 {
            self.generated_by_source[i] += o.generated_by_source[i];
        }
    }

    /// Engine, link and flow counts of a finished run.  `flows` are the
    /// per-flow reports to count; `kind_of` names each flow's source model.
    fn collect(
        net: &Network,
        flows: &[FlowReport],
        kind_of: impl Fn(FlowId) -> Option<SourceKind>,
    ) -> Counts {
        let telemetry = net.net_telemetry();
        let mut c = Counts {
            events: net.events_processed(),
            queue_high_water: net.event_queue_high_water(),
            peak_depth: net.peak_port_depth(),
            pool_grow_events: net.sched_pool_grow_events(),
            pool_segments_hw: net.sched_pool_segments_high_water(),
            flow_table_bytes: net.flow_table_bytes(),
            reservation_state_bytes: net.reservation_state_bytes(),
            verdicts: telemetry.admission_accepted() + telemetry.admission_rejected(),
            ..Counts::default()
        };
        for link in 0..net.monitor().num_links() {
            let lr = net.monitor().link_report(link);
            c.hops += lr.packets_sent;
            c.drops += lr.drops;
            let name = net.discipline_name(LinkId(link));
            if let Some(d) = DISCIPLINES.iter().position(|&n| n == name) {
                c.hops_by_disc[d] += lr.packets_sent;
            }
        }
        for r in flows {
            c.generated += r.generated;
            c.delivered += r.delivered;
            c.monitor_samples += r.generated
                + r.delivered
                + r.dropped_at_edge
                + r.dropped_buffer
                + r.dropped_inactive;
            if let Some(kind) = kind_of(r.flow) {
                c.generated_by_source[kind as usize] += r.generated;
            }
        }
        c.monitor_samples += c.hops;
        c
    }
}

/// Packet-hops transmitted so far, over every link.
pub fn hops_so_far(net: &Network) -> u64 {
    (0..net.monitor().num_links())
        .map(|l| net.monitor().link_report(l).packets_sent)
        .sum()
}

/// The flow population a workload's layer drivers replay.
#[derive(Debug, Clone, Default)]
pub struct Shape {
    /// Flow configurations of the workload's largest run.
    pub flows: Vec<FlowConfig>,
    /// Mean packet-hops per generated packet.
    pub hops_per_packet: f64,
}

impl Shape {
    fn of(net: &Network, counts: &Counts) -> Shape {
        Shape {
            flows: (0..net.num_flows())
                .map(|i| net.flow_config(FlowId(i as u32)).clone())
                .collect(),
            hops_per_packet: counts.hops as f64 / counts.generated.max(1) as f64,
        }
    }
}

/// One simulated run: its summary payload, host stage times, counts and
/// check results.
#[derive(Debug)]
pub struct PointRun<P> {
    /// The experiment's own summary of the run.
    pub payload: P,
    /// Host seconds in `Sim::run_until`.
    pub run_s: f64,
    /// Host seconds in the report and summarize calls.
    pub report_s: f64,
    /// Host seconds in the benchmark's own checks and counting.
    pub check_s: f64,
    /// Host seconds for the whole point.
    pub wall_s: f64,
    /// Deterministic work counts.
    pub counts: Counts,
    /// The run's flow population.
    pub shape: Shape,
    /// Check violations (empty = the run is correct).
    pub failures: Vec<String>,
    /// Spans recorded while the point ran.
    pub tracer: Tracer,
}

/// Advance `sim` from `from` to `horizon` and return the host seconds
/// spent in `Sim::run_until`.  Traced, the run is stepped in slices of one
/// simulated second, each a span carrying its event and hop deltas; the
/// stepping granularity changes no simulated outcome.
fn run_sim(
    sim: &mut Sim,
    from: SimTime,
    horizon: SimTime,
    tr: &mut Tracer,
    parent: Option<u32>,
) -> f64 {
    if !tr.is_on() {
        let t = host_now();
        sim.run_until(horizon);
        return secs_since(t);
    }
    let counts = |sim: &Sim| (sim.network().events_processed(), hops_so_far(sim.network()));
    let span = tr.open("run_until", parent);
    let first = counts(sim);
    let mut before = first;
    let mut total = 0.0;
    let mut at = from;
    while at < horizon {
        let next = SimTime::from_secs(at.as_secs_f64().floor() as u64 + 1).min(horizon);
        let slice = tr.open("run_until.slice", span);
        let t = host_now();
        sim.run_until(next);
        total += secs_since(t);
        tr.close(slice);
        let after = counts(sim);
        tr.count(slice, after.0 - before.0, after.1 - before.1);
        before = after;
        at = next;
    }
    tr.close(span);
    tr.count(span, before.0 - first.0, before.1 - first.1);
    total
}

/// Every flow slot's monitor report.
fn all_flow_reports(net: &mut Network) -> Vec<FlowReport> {
    (0..net.num_flows())
        .map(|i| net.monitor_mut().flow_report(FlowId(i as u32)))
        .collect()
}

fn paper_config(seed: u64) -> PaperConfig {
    PaperConfig {
        seed,
        ..PaperConfig::paper()
    }
}

/// `paper-chain`: Table 3 built, run for 600 s and summarized.
fn paper_point(cfg: &PaperConfig, tr: &mut Tracer) -> PointRun<Table3> {
    let start = host_now();
    let span = tr.open("point paper-chain", None);
    let b = tr.open("build", span);
    let mut sc = table3::build(cfg);
    tr.close(b);
    let run_s = run_sim(&mut sc.sim, SimTime::ZERO, cfg.duration, tr, span);
    let s = tr.open("summarize", span);
    let t = host_now();
    let table = table3::summarize(cfg, &mut sc);
    let report_s = secs_since(t);
    tr.close(s);

    let t = host_now();
    let net = sc.sim.network_mut();
    let mut failures = checks::network(net);
    failures.extend(checks::pg_bounds(&table));
    let reports = all_flow_reports(net);
    let onoff: Vec<FlowId> = sc.flows.iter().map(|&(_, f)| f).collect();
    let counts = Counts::collect(net, &reports, |f| {
        onoff.contains(&f).then_some(SourceKind::OnOff)
    });
    let shape = Shape::of(net, &counts);
    let check_s = secs_since(t);
    tr.close(span);
    PointRun {
        payload: table,
        run_s,
        report_s,
        check_s,
        wall_s: secs_since(start),
        counts,
        shape,
        failures,
        tracer: Tracer::new(start, false),
    }
}

/// The churn experiment's scenario: the Figure-1 chain, Unified with two
/// priority classes and the Section-9 admission controller (safety factor
/// 1.6) on every forward link, carrying the churn workload.
pub fn churn_sim(cfg: &ChurnConfig) -> Sim {
    let paper = &cfg.paper;
    let pt = paper.packet_time();
    let forward: Vec<LinkId> = (0..fig1::NUM_LINKS).map(LinkId).collect();
    let admission = AdmissionSpec {
        realtime_quota: 0.9,
        class_targets: vec![pt.mul_f64(HIGH_TARGET_PKT), pt.mul_f64(LOW_TARGET_PKT)],
        measurement_window_secs: 10.0,
        util_safety_factor: Some(1.6),
        sample_interval: SimTime::SECOND,
    };
    ScenarioBuilder::new(TopologySpec::chain_duplex(5))
        .link_profile(Fig1Network::link_profile(paper))
        .disciplines(DisciplineMatrix::default().with_links(
            &forward,
            DisciplineSpec::Unified {
                priority_classes: 2,
                averaging: Averaging::RunningMean,
            },
        ))
        .admission_on(forward, admission)
        .workload(WorkloadSpec::Churn(cfg.workload()))
        .build()
        .expect("the churn scenario is valid")
}

fn churn_config(seed: u64) -> ChurnConfig {
    ChurnConfig::new(
        paper_config(seed),
        CHURN_ARRIVALS_PER_SEC,
        CHURN_MEAN_HOLDING_S,
    )
}

/// The per-hop delay target of a churn priority class, packet times.
fn churn_target_pkt(priority: u8) -> f64 {
    if priority == 0 {
        HIGH_TARGET_PKT
    } else {
        LOW_TARGET_PKT
    }
}

/// `churn-storm`: the churn scenario run for 600 s, summarized the way the
/// churn experiment does, then drained for one more second.
fn churn_point(cfg: &ChurnConfig, tr: &mut Tracer) -> PointRun<ChurnOutcome> {
    let start = host_now();
    let paper = &cfg.paper;
    let forward: Vec<LinkId> = (0..fig1::NUM_LINKS).map(LinkId).collect();
    let span = tr.open("point churn-storm", None);
    let b = tr.open("build", span);
    let mut sim = churn_sim(cfg);
    tr.close(b);

    // Count completed setups as they happen: the reference the decision
    // log is checked against.
    let completed = Rc::new(Cell::new((0u64, 0u64)));
    let seen = completed.clone();
    sim.on_signal(move |event, _| {
        let (acc, rej) = seen.get();
        match event {
            SignalEvent::Accepted { .. } => seen.set((acc + 1, rej)),
            SignalEvent::Rejected { .. } => seen.set((acc, rej + 1)),
            _ => {}
        }
    });

    let mut run_s = run_sim(&mut sim, SimTime::ZERO, paper.duration, tr, span);

    let s = tr.open("summarize", span);
    let t = host_now();
    let pt_secs = paper.packet_time().as_secs_f64();
    let mut violations = 0;
    let mut worst_bound_fraction: f64 = 0.0;
    for record in sim.churn_flow_reports() {
        let Some(priority) = record.priority else {
            continue;
        };
        if record.report.delivered == 0 {
            continue;
        }
        let bound_secs = churn_target_pkt(priority) * record.hops as f64 * pt_secs;
        let fraction = record.report.max_delay / bound_secs;
        worst_bound_fraction = worst_bound_fraction.max(fraction);
        if fraction > 1.0 {
            violations += 1;
        }
    }
    let mut mean_utilization = 0.0;
    let mut worst_utilization: f64 = 0.0;
    for &link in &forward {
        let u = sim
            .network()
            .monitor()
            .link_report(link.index())
            .utilization;
        mean_utilization += u / forward.len() as f64;
        worst_utilization = worst_utilization.max(u);
    }
    let mut report_s = secs_since(t);
    tr.close(s);

    let d = tr.open("drain", span);
    sim.drain_churn();
    tr.close(d);
    let end = paper.duration + SimTime::SECOND;
    run_s += run_sim(&mut sim, paper.duration, end, tr, span);

    let s = tr.open("summarize", span);
    let t = host_now();
    let residual_reserved_bps = forward
        .iter()
        .map(|&l| {
            sim.network()
                .admission(l)
                .expect("admission enabled")
                .reserved_guaranteed_bps()
        })
        .sum();
    let decisions: Vec<bool> = sim
        .signaling()
        .decision_log()
        .iter()
        .map(|&(_, a)| a)
        .collect();
    let accepted = decisions.iter().filter(|&&a| a).count();
    let outcome = ChurnOutcome {
        offered_erlangs: cfg.offered_erlangs(),
        offered: decisions.len(),
        accepted,
        rejected: decisions.len() - accepted,
        decisions,
        mean_utilization,
        worst_utilization,
        violations,
        worst_bound_fraction,
        residual_reserved_bps,
    };
    report_s += secs_since(t);
    tr.close(s);

    let t = host_now();
    let (acc, rej) = completed.get();
    let mut failures = checks::churn_drained(
        sim.network(),
        &forward,
        outcome.decisions.len(),
        (acc + rej) as usize,
    );
    if sim.signaling().pending() != 0 {
        failures.push(format!(
            "{} signalling transactions still pending after the drain",
            sim.signaling().pending()
        ));
    }
    // Every admission's record: flows whose slot was reclaimed report the
    // snapshot taken when their last packet had left (nothing in flight);
    // live flows are covered slot by slot below.
    let live: Vec<FlowId> = sim.churn_admitted().iter().map(|r| r.flow).collect();
    let records = sim.churn_flow_reports();
    let mut live_seen = Vec::new();
    for rec in records.iter().rev() {
        if live.contains(&rec.flow) && !live_seen.contains(&rec.flow) {
            live_seen.push(rec.flow);
            continue;
        }
        if let Err(e) = checks::flow_balance(&rec.report, 0) {
            failures.push(format!("reclaimed {e}"));
        }
    }
    failures.extend(checks::network(sim.network_mut()));
    let reports: Vec<FlowReport> = records.into_iter().map(|r| r.report).collect();
    let net = sim.network();
    let mut counts = Counts::collect(net, &reports, |_| Some(SourceKind::OnOff));
    counts.requests = acc + rej;
    counts.accepted = acc;
    let shape = Shape::of(net, &counts);
    let check_s = secs_since(t);
    tr.close(span);
    PointRun {
        payload: outcome,
        run_s,
        report_s,
        check_s,
        wall_s: secs_since(start),
        counts,
        shape,
        failures,
        tracer: Tracer::new(start, false),
    }
}

/// One `hetmix-sweep` point's scenario: a single shared link carrying
/// `level` flows of each real-time class plus the datagram background —
/// the heterogeneous-mix experiment's wiring.
pub fn hetmix_sim(cfg: &PaperConfig, spec: DisciplineSpec, level: usize) -> Sim {
    let pt = cfg.packet_time();
    let a = cfg.avg_rate_pps;
    let bucket = TokenBucketSpec::per_packets(a, 50.0, cfg.packet_bits);
    let cbr_clock_bps = 1.1 * a * cfg.packet_bits as f64;
    let one_hop = || RouteSpec::Span { first: 0, hops: 1 };
    let predicted = |priority: u8, target_pkt: f64| ServiceSpec::Predicted {
        priority,
        bucket,
        target_delay: pt.mul_f64(target_pkt),
        loss_rate: 0.001,
        police: PoliceAction::Drop,
    };
    let mut builder = ScenarioBuilder::chain(2)
        .link_profile(Fig1Network::link_profile(cfg))
        .discipline(spec);
    for _ in 0..level {
        builder = builder.flow(
            FlowDef::new(
                one_hop(),
                ServiceSpec::Guaranteed {
                    clock_rate_bps: cbr_clock_bps,
                },
            )
            .source(SourceSpec::cbr(a, cfg.packet_bits)),
        );
    }
    for i in 0..level {
        builder = builder.flow(
            FlowDef::new(one_hop(), predicted(0, HIGH_PRIORITY_TARGET_PKT))
                .source(SourceSpec::onoff_paper(a, cfg.flow_seed(i as u32))),
        );
    }
    for i in 0..level {
        builder = builder.flow(
            FlowDef::new(one_hop(), predicted(1, LOW_PRIORITY_TARGET_PKT)).source(
                SourceSpec::poisson(a, cfg.packet_bits, cfg.flow_seed(1000 + i as u32)),
            ),
        );
    }
    builder = builder.flow(FlowDef::new(one_hop(), ServiceSpec::Datagram).source(
        SourceSpec::poisson(2.0 * a, cfg.packet_bits, cfg.flow_seed(2000)),
    ));
    builder.build().expect("the mix scenario is valid")
}

/// `hetmix-sweep`: one (discipline, level) point built, run for 600 s and
/// aggregated per class.
fn hetmix_point(
    cfg: &PaperConfig,
    spec: DisciplineSpec,
    level: usize,
    tr: &mut Tracer,
) -> PointRun<HetMixPoint> {
    let start = host_now();
    let span = tr.open(format!("point {} level {level}", spec.label()), None);
    let b = tr.open("build", span);
    let mut sim = hetmix_sim(cfg, spec, level);
    tr.close(b);
    let run_s = run_sim(&mut sim, SimTime::ZERO, cfg.duration, tr, span);
    let r = tr.open("report", span);
    let t = host_now();
    let report = sim.report(&MeasurementPlan::default());
    let payload = HetMixPoint {
        scheduler: spec.label(),
        level,
        utilization: report.links[0].utilization,
        classes: vec![
            aggregate_class(&report.flows[0..level], cfg, "Guaranteed-CBR"),
            aggregate_class(&report.flows[level..2 * level], cfg, "Predicted-High"),
            aggregate_class(&report.flows[2 * level..3 * level], cfg, "Predicted-Low"),
            aggregate_class(&report.flows[3 * level..], cfg, "Datagram"),
        ],
    };
    let report_s = secs_since(t);
    tr.close(r);

    let t = host_now();
    let flows = sim.flows().to_vec();
    let net = sim.network_mut();
    let failures = checks::network(net);
    let reports = all_flow_reports(net);
    let counts = Counts::collect(net, &reports, |f| {
        let i = flows.iter().position(|&g| g == f)?;
        Some(match i / level {
            0 => SourceKind::Cbr,
            1 => SourceKind::OnOff,
            _ => SourceKind::Poisson,
        })
    });
    let shape = Shape::of(net, &counts);
    let check_s = secs_since(t);
    tr.close(span);
    PointRun {
        payload,
        run_s,
        report_s,
        check_s,
        wall_s: secs_since(start),
        counts,
        shape,
        failures,
        tracer: Tracer::new(start, false),
    }
}

/// Host seconds to construct every scenario of one iteration, without
/// running them.
pub fn setup_s(w: Workload, seed: u64) -> f64 {
    let cfg = paper_config(seed);
    let t = host_now();
    match w {
        Workload::PaperChain => drop(table3::build(&cfg)),
        Workload::ChurnStorm => drop(churn_sim(&churn_config(seed))),
        Workload::HetmixSweep => {
            for spec in hetmix::discipline_set() {
                for level in HETMIX_LEVELS {
                    drop(hetmix_sim(&cfg, spec, level));
                }
            }
        }
    }
    secs_since(t)
}

/// One benchmark iteration: every simulated run of the workload, its
/// rendering, its checks and its digest.
#[derive(Debug)]
pub struct Iteration {
    /// Σ host seconds in `Sim::run_until`.
    pub run_s: f64,
    /// Σ host seconds in report and summarize calls.
    pub report_s: f64,
    /// Host seconds rendering the experiment's text output.
    pub render_s: f64,
    /// Host seconds for the whole iteration, the benchmark's own checks
    /// excluded.
    pub wall_s: f64,
    /// Host seconds of each sweep point.
    pub point_s: Vec<f64>,
    /// Host seconds of the whole sweep.
    pub sweep_s: f64,
    /// Σ point host seconds, as the sweep runner's telemetry collector
    /// saw them.
    pub sweep_busy_s: f64,
    /// Worker threads the sweep ran on.
    pub threads: usize,
    /// Deterministic work counts.
    pub counts: Counts,
    /// The flow population of the largest run.
    pub shape: Shape,
    /// FNV-1a digest of the rendered output and the deterministic counts.
    pub digest: u64,
    /// Simulated runs attempted.
    pub attempted: usize,
    /// Simulated runs that panicked or failed a check.
    pub failed: usize,
    /// What failed.
    pub failures: Vec<String>,
    /// Mean relative gap to the paper's Table 3 (`paper-chain` only).
    pub paper_gap: Option<f64>,
    /// Spans recorded during the iteration.
    pub tracer: Tracer,
}

/// Run every point of `set` through `point` and fold the results.
fn sweep<P: Sync, R: Send>(
    set: &ScenarioSet<P>,
    threads: usize,
    tr: &mut Tracer,
    parent: Option<u32>,
    point: impl Fn(&P, &mut Tracer) -> PointRun<R> + Sync,
) -> (Iteration, Vec<SweepReport<PointResult<R>>>) {
    let proto = tr.fresh();
    let span = tr.open("sweep", parent);
    let collector = TelemetryCollector::new(&NullObserver);
    let runner = SweepRunner::parallel(threads);
    let t = host_now();
    let reports = runner.run_streaming(
        set,
        |p| {
            let mut ptr = proto.fresh();
            let mut run = point(p, &mut ptr);
            run.tracer = ptr;
            run
        },
        &collector,
    );
    let sweep_s = secs_since(t);
    tr.close(span);

    let threads = runner.threads().min(set.len()).max(1);
    let mut it = Iteration {
        run_s: 0.0,
        report_s: 0.0,
        render_s: 0.0,
        wall_s: 0.0,
        point_s: Vec::new(),
        sweep_s,
        sweep_busy_s: collector.summary().total_wall_s(),
        threads,
        counts: Counts::default(),
        shape: Shape::default(),
        digest: 0,
        attempted: reports.len(),
        failed: 0,
        failures: Vec::new(),
        paper_gap: None,
        tracer: Tracer::new(host_now(), false),
    };
    let mut check_s = 0.0;
    let mut payloads = Vec::with_capacity(reports.len());
    for r in reports {
        let result = match r.result {
            Ok(run) => {
                it.run_s += run.run_s;
                it.report_s += run.report_s;
                check_s += run.check_s;
                it.point_s.push(run.wall_s);
                it.counts.add(&run.counts);
                if run.shape.flows.len() >= it.shape.flows.len() {
                    it.shape = run.shape;
                }
                if !run.failures.is_empty() {
                    it.failed += 1;
                    it.failures.extend(run.failures);
                }
                tr.absorb(run.tracer, span);
                Ok(run.payload)
            }
            Err(e) => {
                it.failed += 1;
                it.failures.push(e.to_string());
                Err(e)
            }
        };
        payloads.push(SweepReport {
            index: r.index,
            tags: r.tags,
            result,
        });
    }
    // The checks ran inside the points, spread over the sweep's threads.
    it.wall_s = sweep_s - check_s / threads as f64;
    (it, payloads)
}

/// Mean of |ours − paper| / paper over the 24 published cells of Table 3
/// (mean, 99.9th percentile and maximum of its eight rows).
pub fn paper_gap(t: &Table3) -> f64 {
    let mut sum = 0.0;
    let mut cells = 0;
    for &(label, path, mean, p999, max, _) in &report::PAPER_TABLE3 {
        let Some(row) = t
            .rows
            .iter()
            .find(|r| r.kind.label() == label && r.path_length == path)
        else {
            return f64::NAN;
        };
        for (ours, paper) in [(row.mean, mean), (row.p999, p999), (row.max, max)] {
            sum += (ours - paper).abs() / paper;
            cells += 1;
        }
    }
    sum / cells as f64
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The digest of an iteration's simulated output: its rendered text, its
/// deterministic counts and (for churn) the decision sequence.
fn digest(rendered: &str, c: &Counts, decisions: &[bool]) -> u64 {
    let mut h = fnv1a(rendered.as_bytes(), 0xCBF2_9CE4_8422_2325);
    for v in [
        c.events,
        c.hops,
        c.drops,
        c.generated,
        c.delivered,
        c.requests,
        c.accepted,
        c.verdicts,
    ] {
        h = fnv1a(&v.to_le_bytes(), h);
    }
    let bits: Vec<u8> = decisions.iter().map(|&d| u8::from(d)).collect();
    fnv1a(&bits, h)
}

/// Run one iteration of `w` at `seed`.  `tr` decides whether spans are
/// recorded (and so whether the simulations are stepped in slices).
pub fn run_iteration(w: Workload, seed: u64, threads: usize, tr: Tracer) -> Iteration {
    run_iteration_for(w, seed, PaperConfig::paper().duration, threads, tr)
}

/// [`run_iteration`] with every simulation shortened to `duration` (for
/// tests of the benchmark itself).
pub fn run_iteration_for(
    w: Workload,
    seed: u64,
    duration: SimTime,
    threads: usize,
    mut tr: Tracer,
) -> Iteration {
    let root = tr.open(format!("iteration {}", w.name()), None);
    let cfg = PaperConfig {
        duration,
        ..paper_config(seed)
    };
    let (mut it, rendered, decisions) = match w {
        Workload::PaperChain => {
            let set = ScenarioSet::over("seed", vec![seed]);
            let (mut it, reports) = sweep(&set, 1, &mut tr, root, |_, tr| paper_point(&cfg, tr));
            let t = host_now();
            let r = tr.open("render", root);
            let text = match &reports[0].result {
                Ok(table) => {
                    it.paper_gap = Some(paper_gap(table));
                    report::render_table3(table)
                }
                Err(e) => e.to_string(),
            };
            tr.close(r);
            it.render_s = secs_since(t);
            (it, text, Vec::new())
        }
        Workload::ChurnStorm => {
            let churn = ChurnConfig {
                paper: cfg.clone(),
                ..churn_config(seed)
            };
            let set = ScenarioSet::over("load", vec![CHURN_ARRIVALS_PER_SEC]);
            let (mut it, reports) = sweep(&set, 1, &mut tr, root, |_, tr| churn_point(&churn, tr));
            let t = host_now();
            let r = tr.open("render", root);
            let text = report::render_churn(&reports);
            tr.close(r);
            it.render_s = secs_since(t);
            let decisions = match &reports[0].result {
                Ok(o) => o.decisions.clone(),
                Err(_) => Vec::new(),
            };
            (it, text, decisions)
        }
        Workload::HetmixSweep => {
            let set = hetmix::scenario_set(&HETMIX_LEVELS);
            let (mut it, reports) = sweep(&set, threads, &mut tr, root, |&(spec, level), tr| {
                hetmix_point(&cfg, spec, level, tr)
            });
            let t = host_now();
            let r = tr.open("render", root);
            let text = report::render_hetmix(&reports);
            tr.close(r);
            it.render_s = secs_since(t);
            (it, text, Vec::new())
        }
    };
    tr.close(root);
    it.digest = digest(&rendered, &it.counts, &decisions);
    it.wall_s += it.render_s;
    it.tracer = tr;
    it
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_experiments::churn;

    fn short(seed: u64, secs: u64) -> PaperConfig {
        PaperConfig {
            seed,
            duration: SimTime::from_secs(secs),
            ..PaperConfig::paper()
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn the_churn_rebuild_matches_the_experiment() {
        let cfg = ChurnConfig::new(short(7, 20), CHURN_ARRIVALS_PER_SEC, CHURN_MEAN_HOLDING_S);
        let ours = churn_point(&cfg, &mut Tracer::new(host_now(), false));
        let theirs = churn::run(&cfg);
        assert!(ours.failures.is_empty(), "{:?}", ours.failures);
        assert_eq!(ours.payload.decisions, theirs.decisions);
        assert_eq!(ours.payload.violations, theirs.violations);
        assert_eq!(ours.payload.mean_utilization, theirs.mean_utilization);
        assert!(ours.counts.requests > 100);
    }

    #[test]
    fn the_hetmix_rebuild_matches_the_experiment() {
        let cfg = short(11, 10);
        for spec in hetmix::discipline_set() {
            let ours = hetmix_point(&cfg, spec, 2, &mut Tracer::new(host_now(), false));
            let theirs = hetmix::run_point(&cfg, spec, 2);
            assert!(ours.failures.is_empty(), "{:?}", ours.failures);
            assert_eq!(format!("{:?}", ours.payload), format!("{theirs:?}"));
        }
    }

    #[test]
    fn one_seed_gives_one_digest_traced_or_not() {
        for w in Workload::ALL {
            let run = |seed, on| {
                let it = run_iteration_for(
                    w,
                    seed,
                    SimTime::from_secs(6),
                    2,
                    Tracer::new(host_now(), on),
                );
                assert_eq!(it.failed, 0, "{}: {:?}", w.name(), it.failures);
                it
            };
            let first = run(5, false);
            let traced = run(5, true);
            assert_eq!(first.digest, run(5, false).digest, "{}", w.name());
            assert_eq!(first.digest, traced.digest, "{}", w.name());
            assert!(traced.tracer.spans().len() > 6, "{}", w.name());
            assert_ne!(first.digest, run(6, false).digest, "{}", w.name());
        }
    }

    #[test]
    fn a_paper_chain_run_passes_its_checks() {
        let cfg = short(3, 20);
        let run = paper_point(&cfg, &mut Tracer::new(host_now(), false));
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        assert!(run.counts.hops > run.counts.generated);
        assert_eq!(
            run.counts.hops_by_disc[3] + run.counts.hops_by_disc[0],
            run.counts.hops
        );
        let gap = paper_gap(&run.payload);
        assert!(gap.is_finite() && gap > 0.0);
    }
}
