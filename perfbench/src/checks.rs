//! Correctness checks on a finished simulation, through public APIs only.
//! Each returns the list of violations it found (empty = pass).

use ispn_core::FlowId;
use ispn_experiments::table3::Table3;
use ispn_net::{FlowReport, LinkId, Network};

/// Packet conservation for one flow:
/// `generated == delivered + dropped_at_edge + dropped_buffer + in_flight`.
///
/// `dropped_at_source` and `dropped_inactive` stand outside the identity:
/// a packet the source's own policer refuses, or one submitted while the
/// flow holds no reservation, never enters the network and is never
/// counted as generated.  The monitor's warm-up cut applies to every
/// monitor counter but not to the network's in-flight count, so the
/// identity holds only for runs without a warm-up — which all the
/// benchmark's workloads are.
pub fn flow_balance(r: &FlowReport, in_flight: u64) -> Result<(), String> {
    let accounted = r.delivered + r.dropped_at_edge + r.dropped_buffer + in_flight;
    if r.generated == accounted {
        Ok(())
    } else {
        Err(format!(
            "{}: generated {} != delivered {} + edge drops {} + buffer drops {} \
             + in flight {}",
            r.flow, r.generated, r.delivered, r.dropped_at_edge, r.dropped_buffer, in_flight
        ))
    }
}

/// [`flow_balance`] over every flow slot of the network, and
/// utilization ≤ 1 on every link.
pub fn network(net: &mut Network) -> Vec<String> {
    let mut failures = Vec::new();
    for i in 0..net.num_flows() {
        let flow = FlowId(i as u32);
        let in_flight = u64::from(net.flow_in_flight(flow));
        let report = net.monitor_mut().flow_report(flow);
        if let Err(e) = flow_balance(&report, in_flight) {
            failures.push(e);
        }
    }
    for link in 0..net.monitor().num_links() {
        let u = net.monitor().link_report(link).utilization;
        if !(0.0..=1.0).contains(&u) {
            failures.push(format!("link {link}: utilization {u} outside [0, 1]"));
        }
    }
    failures
}

/// Every Guaranteed row's maximum delay within its Parekh–Gallager bound.
pub fn pg_bounds(t: &Table3) -> Vec<String> {
    t.rows
        .iter()
        .filter_map(|row| {
            let bound = row.pg_bound?;
            (row.max > bound).then(|| {
                format!(
                    "{} path {}: max {} exceeds the P-G bound {}",
                    row.kind.label(),
                    row.path_length,
                    row.max,
                    bound
                )
            })
        })
        .collect()
}

/// After a churn drain: no guaranteed bandwidth left reserved on any of
/// the admission-controlled links, and one logged decision per request.
pub fn churn_drained(
    net: &Network,
    links: &[LinkId],
    decisions: usize,
    requests: usize,
) -> Vec<String> {
    let mut failures = Vec::new();
    for &link in links {
        match net.admission(link) {
            Some(a) if a.reserved_guaranteed_bps() == 0.0 => {}
            Some(a) => failures.push(format!(
                "link {}: {} bit/s still reserved after the drain",
                link.index(),
                a.reserved_guaranteed_bps()
            )),
            None => failures.push(format!("link {}: no admission controller", link.index())),
        }
    }
    if decisions != requests {
        failures.push(format!(
            "decision log holds {decisions} entries for {requests} completed requests"
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(generated: u64, delivered: u64, edge: u64, buffer: u64) -> FlowReport {
        FlowReport {
            flow: FlowId(3),
            mean_delay: 0.0,
            p999_delay: 0.0,
            max_delay: 0.0,
            generated,
            delivered,
            dropped_at_source: 7,
            dropped_at_edge: edge,
            dropped_buffer: buffer,
            dropped_inactive: 5,
        }
    }

    #[test]
    fn a_balanced_flow_passes() {
        assert!(flow_balance(&report(100, 90, 4, 3), 3).is_ok());
    }

    #[test]
    fn a_report_that_breaks_conservation_fails() {
        // One packet vanished: generated but neither delivered, dropped
        // nor in flight.
        let err = flow_balance(&report(100, 90, 4, 3), 2).unwrap_err();
        assert!(err.starts_with("flow3: "), "{err}");
        // One packet appeared from nowhere.
        assert!(flow_balance(&report(100, 91, 4, 3), 3).is_err());
    }
}
