//! One benchmark run: set-up repetitions, a warm-up iteration, timed
//! iterations until the time budget is spent, and — when traced — the
//! traced iterations and layer drivers that give the per-layer metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::layers;
use crate::probe::{probe_ns, REFERENCE_NS};
use crate::timing::{host_now, max, median};
use crate::trace::Tracer;
use crate::workloads::{run_iteration, setup_s, Iteration, SourceKind, Workload, DISCIPLINES};

/// Set-up repetitions after every timed iteration, so they sample the host
/// over the whole run; `setup_s` is their median.
const SETUP_REPS: usize = 20;
/// Timed iterations per run, at the least, whatever the time budget.
const MIN_ITERATIONS: usize = 3;
/// Repetitions of each layer driver; its metric is their median.
const DRIVER_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload's seed.
    pub seed: u64,
    /// Host seconds to spend on timed iterations.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Worker threads for sweeps.
    pub threads: usize,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Simulated runs attempted.
    pub attempted: usize,
    /// Simulated runs that panicked, failed a check or changed digest.
    pub failed: usize,
    /// What failed.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines: the digest and every timed repetition.
    pub log: Vec<String>,
    /// The traced run's spans, as JSON.
    pub spans_json: Option<String>,
}

impl Outcome {
    /// Count an iteration's runs; a digest that differs from `reference`
    /// fails every run of the iteration.
    fn account(&mut self, it: &Iteration, reference: u64, label: &str) {
        self.attempted += it.attempted;
        let mut failed = it.failed;
        self.failures.extend(it.failures.iter().cloned());
        if it.digest != reference {
            failed = it.attempted;
            self.failures.push(format!(
                "{label} iteration digest {:016x} differs from {reference:016x}",
                it.digest
            ));
        }
        self.failed += failed;
    }
}

/// One timed repetition with the host-speed probe taken around it.
struct Rep {
    it: Iteration,
    probe_ns: f64,
}

impl Rep {
    fn ns_per_hop(&self) -> f64 {
        self.it.run_s * 1e9 / self.it.counts.hops.max(1) as f64
    }

    /// The factor that expresses this repetition's host times at the
    /// reference host speed.
    fn scale(&self) -> f64 {
        REFERENCE_NS / self.probe_ns
    }
}

fn timed(o: &Options, traced: bool, epoch: Instant) -> Rep {
    let before = probe_ns();
    let it = run_iteration(o.workload, o.seed, o.threads, Tracer::new(epoch, traced));
    let after = probe_ns();
    Rep {
        it,
        probe_ns: (before + after) / 2.0,
    }
}

/// The distance between the first and third quartiles, as a share of the
/// median.
fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let pos = p * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (q(0.75) - q(0.25)) / median(&v)
}

/// Peak resident memory of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run the benchmark.
pub fn run(o: &Options) -> Outcome {
    let epoch = host_now();
    let mut out = Outcome::default();

    // Set-up times, each scaled by the probe taken next to its batch.
    let set_up = |into: &mut Vec<f64>, probe: f64| {
        into.extend((0..SETUP_REPS).map(|_| setup_s(o.workload, o.seed) * REFERENCE_NS / probe));
    };
    let mut setup = Vec::new();

    // Warm-up: caches, allocator pools and the page table settle.  Its
    // runs are checked and its digest is the reference; it is not timed.
    let warm = run_iteration(o.workload, o.seed, o.threads, Tracer::new(epoch, false));
    let reference = warm.digest;
    out.account(&warm, reference, "warm-up");
    // Read before the timed iterations and the probe: the allocator's
    // retained memory grows with the number of iterations, which depends
    // on host speed, and the probe's own buffers are not the program's.
    let rss_mb = peak_rss_mb();
    out.log.push(format!(
        "workload={} seed={} digest={reference:016x} events={} hops={}{}",
        o.workload.name(),
        o.seed,
        warm.counts.events,
        warm.counts.hops,
        warm.paper_gap
            .map_or(String::new(), |g| format!(" paper_gap={g}")),
    ));

    let deadline = host_now() + Duration::from_secs_f64(o.seconds);
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    while plain.len() < MIN_ITERATIONS || host_now() < deadline {
        let rep = timed(o, false, epoch);
        out.account(&rep.it, reference, "untraced");
        out.log.push(format!(
            "rep {} untraced wall_s={} run_s={} ns_per_hop={} probe_ns={}",
            plain.len(),
            rep.it.wall_s,
            rep.it.run_s,
            rep.ns_per_hop(),
            rep.probe_ns
        ));
        set_up(&mut setup, rep.probe_ns);
        plain.push(rep);
        if o.trace {
            let rep = timed(o, true, epoch);
            out.account(&rep.it, reference, "traced");
            out.log.push(format!(
                "rep {} traced wall_s={} run_s={} probe_ns={}",
                traced.len(),
                rep.it.wall_s,
                rep.it.run_s,
                rep.probe_ns
            ));
            traced.push(rep);
        }
    }

    let of = |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let m = &mut out.metrics;
    if !o.trace {
        m.insert(
            "ns_per_hop",
            median(&of(&plain, &|r| r.ns_per_hop() * r.scale())),
        );
        m.insert("wall_s", median(&of(&plain, &|r| r.it.wall_s * r.scale())));
        m.insert("setup_s", median(&setup));
        m.insert("peak_rss_mb", rss_mb);
        return out;
    }

    // Per-layer metrics: deterministic counts from the warm-up iteration,
    // stage times from the untraced repetitions, unit costs from the
    // layer drivers.
    let c = &warm.counts;
    let run_s = median(&of(&plain, &|r| r.it.run_s));
    let mut drivers = Tracer::new(epoch, true);
    let mut drive = |name: &str, f: &dyn Fn() -> f64| -> f64 {
        let span = drivers.open(format!("layer {name}"), None);
        let v = median(&(0..DRIVER_REPS).map(|_| f()).collect::<Vec<_>>());
        drivers.close(span);
        v
    };
    let shape = &warm.shape;
    let depth = c.peak_depth.max(1);
    let eq_ns = drive("sim.event_queue", &|| {
        layers::event_queue_ns_per_op(c.queue_high_water.max(1), 400_000)
    });
    let sched_ns: Vec<f64> = DISCIPLINES
        .iter()
        .map(|&d| {
            drive(&format!("sched.{d}"), &|| {
                layers::sched_ns_per_pkt(d, shape, depth, 200_000)
            })
        })
        .collect();
    let port_ns = drive("net.port", &|| {
        layers::port_ns_per_hop(shape, depth, 100_000)
    });
    let source_ns: Vec<f64> = SourceKind::ALL
        .into_iter()
        .map(|s| {
            drive(&format!("traffic.{s:?}"), &|| {
                layers::source_ns_per_pkt(s, 200_000)
            })
        })
        .collect();
    let monitor_ns = drive("monitor", &|| layers::monitor_ns_per_sample(shape, 100_000));
    let signal_us = drive("signal", &|| layers::signal_us_per_request(shape, 2_000));

    let attributed_ns = c.events as f64 * 2.0 * eq_ns
        + (0..4)
            .map(|d| c.hops_by_disc[d] as f64 * sched_ns[d])
            .sum::<f64>()
        + (0..3)
            .map(|k| c.generated_by_source[k] as f64 * source_ns[k])
            .sum::<f64>()
        + c.monitor_samples as f64 * monitor_ns
        + c.requests as f64 * signal_us * 1e3;

    let sweep_overhead: Vec<f64> = of(&plain, &|r| {
        r.it.sweep_s - r.it.point_s.iter().sum::<f64>() / r.it.threads as f64
    });
    let efficiency: Vec<f64> = of(&plain, &|r| {
        r.it.sweep_busy_s / (r.it.threads as f64 * r.it.sweep_s)
    });
    let all_points: Vec<f64> = plain.iter().flat_map(|r| r.it.point_s.clone()).collect();
    let run_per_probe = of(&plain, &|r| r.it.run_s / r.probe_ns);

    let mut spans = traced
        .pop()
        .expect("at least one traced iteration")
        .it
        .tracer;
    let traced_run_s = median(&of(&traced, &|r| r.it.run_s));
    spans.absorb(drivers, None);
    let m = &mut out.metrics;
    m.insert("sim.events", c.events as f64);
    m.insert("sim.events_per_hop", c.events as f64 / c.hops.max(1) as f64);
    m.insert("sim.queue_high_water", c.queue_high_water as f64);
    m.insert("sim.event_queue.ns_per_op", eq_ns);
    for (name, v) in [
        "sched.fifo.ns_per_pkt",
        "sched.fifo_plus.ns_per_pkt",
        "sched.wfq.ns_per_pkt",
        "sched.unified.ns_per_pkt",
    ]
    .into_iter()
    .zip(&sched_ns)
    {
        m.insert(name, *v);
    }
    m.insert("sched.peak_depth", c.peak_depth as f64);
    m.insert("sched.pool_grow_events", c.pool_grow_events as f64);
    m.insert("sched.pool_segments_hw", c.pool_segments_hw as f64);
    m.insert("net.hops", c.hops as f64);
    m.insert("net.drops", c.drops as f64);
    m.insert("net.port.ns_per_hop", port_ns);
    m.insert("net.flow_table_bytes", c.flow_table_bytes as f64);
    m.insert(
        "net.reservation_state_bytes",
        c.reservation_state_bytes as f64,
    );
    m.insert("traffic.generated", c.generated as f64);
    m.insert("traffic.onoff.ns_per_pkt", source_ns[0]);
    m.insert("traffic.cbr.ns_per_pkt", source_ns[1]);
    m.insert("traffic.poisson.ns_per_pkt", source_ns[2]);
    m.insert("monitor.samples", c.monitor_samples as f64);
    m.insert("monitor.record.ns_per_sample", monitor_ns);
    m.insert("signal.requests", c.requests as f64);
    m.insert(
        "signal.accept_ratio",
        c.accepted as f64 / c.requests.max(1) as f64,
    );
    m.insert("admission.verdicts", c.verdicts as f64);
    m.insert("signal.us_per_request", signal_us);
    m.insert("scenario.run_s", run_s);
    m.insert("scenario.report_s", median(&of(&plain, &|r| r.it.report_s)));
    m.insert("scenario.render_s", median(&of(&plain, &|r| r.it.render_s)));
    m.insert("sweep.points", warm.point_s.len() as f64);
    m.insert("sweep.point_s_p50", median(&all_points));
    m.insert(
        "sweep.point_s_max",
        median(&of(&plain, &|r| max(&r.it.point_s))),
    );
    m.insert("sweep.overhead_s", median(&sweep_overhead));
    m.insert("sweep.parallel_efficiency", median(&efficiency));
    m.insert("layers.attributed_share", attributed_ns / (run_s * 1e9));
    m.insert("trace.overhead_s", traced_run_s - run_s);
    m.insert("trace.spans", spans.spans().len() as f64);
    m.insert(
        "checks.error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    m.insert("experiments.paper_gap", warm.paper_gap.unwrap_or(0.0));
    m.insert("host.probe_ns", median(&of(&plain, &|r| r.probe_ns)));
    m.insert(
        "host.raw_ns_per_hop",
        median(&of(&plain, &|r| r.ns_per_hop())),
    );
    m.insert("host.raw_wall_s", median(&of(&plain, &|r| r.it.wall_s)));
    m.insert("host.run_probe_ratio_spread", spread(&run_per_probe));
    m.insert("host.run_s_spread", spread(&of(&plain, &|r| r.it.run_s)));
    out.spans_json = Some(spans.to_json());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::run_iteration_for;
    use ispn_sim::SimTime;

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        // statistics.quantiles(n=4, method='inclusive') of 1..=5 gives 2 and 4.
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0 / 3.0);
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn a_changed_digest_fails_every_run_of_the_iteration() {
        let it = run_iteration_for(
            Workload::ChurnStorm,
            1,
            SimTime::from_secs(5),
            1,
            Tracer::new(host_now(), false),
        );
        let mut out = Outcome::default();
        out.account(&it, it.digest, "same");
        assert_eq!((out.attempted, out.failed), (1, 0), "{:?}", out.failures);
        out.account(&it, it.digest ^ 1, "changed");
        assert_eq!((out.attempted, out.failed), (2, 1));
    }
}
