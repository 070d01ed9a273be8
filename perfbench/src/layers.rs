//! Layer drivers: each times calls into one layer's public functions,
//! replaying the workload's own shape (its flows, class mix and measured
//! peak depths).  Every driver returns host nanoseconds per operation.

use std::hint::black_box;
use std::time::Instant;

use ispn_core::admission::{AdmissionConfig, AdmissionController};
use ispn_core::{FlowId, Packet, ServiceClass, TokenBucketSpec};
use ispn_net::{Agent, AgentApi, FlowConfig, LinkId, Monitor, Network, PoliceAction, Topology};
use ispn_sched::{
    Averaging, Discipline, Fifo, FifoPlus, GuaranteedInstall, QueueDiscipline, SchedContext,
    Unified, Wfq,
};
use ispn_signal::{SignalConfig, Signaling};
use ispn_sim::{EventQueue, SimTime};
use ispn_traffic::{CbrSource, OnOffConfig, OnOffSource, PoissonSource};

use crate::probe::xorshift;
use crate::timing::host_now;
use crate::workloads::{Shape, SourceKind};

const MBIT: f64 = 1_000_000.0;
const PACKET_BITS: u64 = 1000;
const PACKET_TIME: SimTime = SimTime::MILLISECOND;

fn ns_per(t: Instant, ops: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `EventQueue` push + pop, held at `depth` pending events; host ns per
/// operation (a push or a pop).
pub fn event_queue_ns_per_op(depth: u64, ops: u64) -> f64 {
    let mut rng: u64 = 0x2545_F491_4F6C_DD1D;
    let mut q: EventQueue<u64> = EventQueue::new();
    // Pending events spread over a few packet times, as a port's
    // transmissions and a source's timers are.
    let spread = 4 * PACKET_TIME.as_nanos();
    for i in 0..depth.max(1) {
        q.push(SimTime::from_nanos(xorshift(&mut rng) % spread), i);
    }
    let t = host_now();
    for _ in 0..ops {
        let (at, e) = q.pop().expect("the queue is held at depth");
        q.push(
            at + SimTime::from_nanos(1 + xorshift(&mut rng) % spread),
            black_box(e),
        );
    }
    ns_per(t, 2 * ops)
}

/// The flow-id and class of each of the shape's flows, with guaranteed
/// clock rates.
fn classes(shape: &Shape) -> Vec<(FlowId, ServiceClass, Option<f64>)> {
    shape
        .flows
        .iter()
        .enumerate()
        .map(|(i, f)| (FlowId(i as u32), f.class, f.spec.clock_rate_bps()))
        .collect()
}

/// A fresh discipline of the named kind with the shape's guaranteed flows
/// installed; a flow the discipline refuses (its reservations would
/// exceed the link) is offered as datagram traffic instead.
fn discipline(name: &str, flows: &mut [(FlowId, ServiceClass, Option<f64>)]) -> Discipline {
    let mut d: Discipline = match name {
        "FIFO" => Fifo::new().into(),
        "FIFO+" => FifoPlus::new(Averaging::RunningMean).into(),
        "WFQ" => Wfq::equal_share(MBIT, flows.len().max(1)).into(),
        "Unified" => Unified::new(MBIT, 2, Averaging::RunningMean).into(),
        other => panic!("no driver for discipline {other}"),
    };
    for (flow, class, rate) in flows.iter_mut() {
        if let Some(r) = *rate {
            if matches!(d.install_guaranteed(*flow, r), GuaranteedInstall::Refused) {
                *class = ServiceClass::Datagram;
                *rate = None;
            }
        }
    }
    d
}

/// One enqueue and one dequeue per packet through the named discipline,
/// held at `depth` queued packets, flows drawn from the shape's mix; host
/// ns per packet.
pub fn sched_ns_per_pkt(name: &str, shape: &Shape, depth: u64, pkts: u64) -> f64 {
    let mut flows = classes(shape);
    if flows.is_empty() {
        return 0.0;
    }
    let mut d = discipline(name, &mut flows);
    let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut now = SimTime::ZERO;
    let mut seq = 0;
    let mut offer = |d: &mut Discipline, now: SimTime| {
        let (flow, class, _) = flows[(xorshift(&mut rng) % flows.len() as u64) as usize];
        seq += 1;
        d.enqueue(
            now,
            Packet::data(flow, seq, PACKET_BITS, now),
            SchedContext::new(class, now),
        );
    };
    for _ in 0..depth.max(1) {
        offer(&mut d, now);
    }
    let t = host_now();
    for _ in 0..pkts {
        now += PACKET_TIME;
        offer(&mut d, now);
        black_box(d.dequeue(now));
    }
    ns_per(t, pkts)
}

/// The shape's flows re-routed onto one bare link, policers removed so
/// every injected packet is transmitted; `flows` are the classes the
/// discipline accepted.
fn bare_link(
    shape: &Shape,
    flows: &[(FlowId, ServiceClass, Option<f64>)],
    disc: Discipline,
) -> (Network, Vec<FlowId>) {
    let (topo, _, links) = Topology::chain(2, MBIT, SimTime::MILLISECOND, 10_000);
    let mut net = Network::new(topo);
    net.set_discipline(links[0], disc);
    let ids = shape
        .flows
        .iter()
        .zip(flows)
        .map(|(f, &(_, class, _))| {
            let mut cfg = match class {
                ServiceClass::Datagram => FlowConfig::datagram(Vec::new()),
                _ => f.clone(),
            };
            cfg.route = vec![LinkId(0)];
            cfg.edge_policer = None;
            cfg.sink = None;
            net.add_flow(cfg)
        })
        .collect();
    (net, ids)
}

/// A bare Unified `Network` link fed pre-generated packets through
/// `inject` and `run_until`, in bursts of `depth`; host ns per
/// packet-hop.
pub fn port_ns_per_hop(shape: &Shape, depth: u64, pkts: u64) -> f64 {
    let mut flows = classes(shape);
    if flows.is_empty() {
        return 0.0;
    }
    let unified = discipline("Unified", &mut flows);
    let (mut net, ids) = bare_link(shape, &flows, unified);
    let burst = depth.clamp(1, 1000);
    let mut rng: u64 = 0xD1B5_4A32_D192_ED03;
    let packets: Vec<FlowId> = (0..pkts)
        .map(|_| ids[(xorshift(&mut rng) % ids.len() as u64) as usize])
        .collect();
    let mut horizon = SimTime::ZERO;
    let t = host_now();
    for (seq, chunk) in packets.chunks(burst as usize).enumerate() {
        let now = net.now().max(horizon);
        for &flow in chunk {
            net.inject(Packet::data(flow, seq as u64, PACKET_BITS, now));
        }
        horizon = now + PACKET_TIME.saturating_mul(chunk.len() as u64 + 2);
        net.run_until(horizon);
    }
    let elapsed = t.elapsed().as_nanos() as f64;
    let hops = net.monitor().link_report(0).packets_sent;
    elapsed / hops.max(1) as f64
}

/// A traffic source's timer callback at 85 packets/s, called directly
/// with an [`AgentApi`]; host ns per packet it sends.
pub fn source_ns_per_pkt(kind: SourceKind, calls: u64) -> f64 {
    let rate = 85.0;
    let flow = FlowId(0);
    let mut source: Box<dyn Agent> = match kind {
        SourceKind::OnOff => Box::new(OnOffSource::new(flow, OnOffConfig::paper(rate, 17))),
        SourceKind::Cbr => Box::new(CbrSource::new(flow, rate, PACKET_BITS)),
        SourceKind::Poisson => Box::new(PoissonSource::new(flow, rate, PACKET_BITS, 17)),
    };
    source.start(&mut AgentApi::new(SimTime::ZERO));
    let gap = SimTime::from_secs_f64(1.0 / rate);
    let mut now = SimTime::ZERO;
    let mut sent = 0;
    let t = host_now();
    for _ in 0..calls {
        now += gap;
        let mut api = AgentApi::new(now);
        source.on_timer(0, &mut api);
        sent += api.pending_sends() as u64;
        black_box(api);
    }
    ns_per(t, sent)
}

/// The monitor's record calls in the workload's mix: per packet one
/// `record_generated`, `hops_per_packet` transmissions and one delivery;
/// host ns per record call.
pub fn monitor_ns_per_sample(shape: &Shape, pkts: u64) -> f64 {
    let flows = classes(shape);
    if flows.is_empty() {
        return 0.0;
    }
    let hops = shape.hops_per_packet.round().max(1.0) as usize;
    let mut m = Monitor::new(flows.len(), hops);
    let mut rng: u64 = 0xA076_1D64_78BD_642F;
    let mut now = SimTime::ZERO;
    let mut calls = 0;
    let t = host_now();
    for _ in 0..pkts {
        now += PACKET_TIME;
        let (flow, class, _) = flows[(xorshift(&mut rng) % flows.len() as u64) as usize];
        m.record_generated(flow, now);
        let wait = SimTime::from_nanos(xorshift(&mut rng) % 20_000_000);
        for link in 0..hops {
            m.record_transmission(link, class, wait, PACKET_TIME, PACKET_BITS, now);
        }
        m.record_delivery(flow, wait, now);
        calls += 2 + hops as u64;
    }
    black_box(&m);
    ns_per(t, calls)
}

/// Setup, hop-by-hop processing and teardown of flows on a bare
/// Figure-1-like chain (4 Unified links under Section-9 admission), the
/// class mix cycling through the shape's flows; host µs per request.
pub fn signal_us_per_request(shape: &Shape, requests: u64) -> f64 {
    let (topo, _, links) = Topology::chain(5, MBIT, SimTime::MILLISECOND, 200);
    let mut net = Network::new(topo);
    let targets = vec![
        PACKET_TIME.saturating_mul(30),
        PACKET_TIME.saturating_mul(300),
    ];
    for &l in &links {
        net.set_discipline(l, Unified::new(MBIT, 2, Averaging::RunningMean));
        net.enable_admission(
            l,
            AdmissionController::new(AdmissionConfig::new(MBIT, 0.9, targets.clone()), 10.0),
            SimTime::SECOND,
        );
    }
    let mut sig = Signaling::new(SignalConfig::default());
    let bucket = TokenBucketSpec::per_packets(85.0, 20.0, PACKET_BITS);
    let mix: Vec<ServiceClass> = if shape.flows.is_empty() {
        vec![ServiceClass::Guaranteed]
    } else {
        shape.flows.iter().map(|f| f.class).collect()
    };
    let settle = |sig: &mut Signaling, net: &mut Network| {
        while sig.pending() > 0 {
            black_box(sig.process_next(net));
        }
    };
    let t = host_now();
    for i in 0..requests {
        let first = (i % 4) as usize;
        let hops = 1 + (i / 4 % (4 - first as u64)) as usize;
        let route = links[first..first + hops].to_vec();
        let cfg = match mix[i as usize % mix.len()] {
            ServiceClass::Predicted { priority } => FlowConfig::predicted(
                route,
                priority.min(1),
                bucket,
                targets[usize::from(priority.min(1))].saturating_mul(hops as u64),
                0.001,
                PoliceAction::Drop,
            ),
            _ => FlowConfig::guaranteed(route, 170_000.0),
        };
        let (_, flow) = sig.submit(&mut net, cfg);
        settle(&mut sig, &mut net);
        sig.teardown(&mut net, flow);
        settle(&mut sig, &mut net);
    }
    t.elapsed().as_nanos() as f64 / 1e3 / requests.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        let route = vec![LinkId(0)];
        let bucket = TokenBucketSpec::per_packets(85.0, 50.0, PACKET_BITS);
        Shape {
            flows: vec![
                FlowConfig::guaranteed(route.clone(), 170_000.0),
                FlowConfig::predicted(
                    route.clone(),
                    0,
                    bucket,
                    PACKET_TIME.saturating_mul(20),
                    0.001,
                    PoliceAction::Drop,
                ),
                FlowConfig::datagram(route),
            ],
            hops_per_packet: 2.0,
        }
    }

    #[test]
    fn every_driver_measures_some_work() {
        let s = shape();
        assert!(event_queue_ns_per_op(64, 1000) > 0.0);
        for name in crate::workloads::DISCIPLINES {
            assert!(sched_ns_per_pkt(name, &s, 8, 1000) > 0.0, "{name}");
        }
        assert!(port_ns_per_hop(&s, 8, 1000) > 0.0);
        for kind in SourceKind::ALL {
            assert!(source_ns_per_pkt(kind, 1000) > 0.0, "{kind:?}");
        }
        assert!(monitor_ns_per_sample(&s, 1000) > 0.0);
        assert!(signal_us_per_request(&s, 20) > 0.0);
    }
}
