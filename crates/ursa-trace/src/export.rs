//! Trace exporter: the Chrome trace-event format (a single JSON object
//! with a `traceEvents` array), loadable in Perfetto (`ui.perfetto.dev`)
//! or `chrome://tracing`. Each request becomes a process (pid = trace id),
//! each hop a named thread, so the call tree reads as a swimlane diagram
//! with queue/wait/blocked sub-slices nested inside each hop's slice.
//!
//! It is hand-rolled on the workspace's one JSON layer
//! ([`ursa_metrics::json`]): the workspace builds offline with no serde,
//! and the needed subset of JSON is tiny.

use std::io::{self, Write};
use ursa_metrics::json::esc;
use ursa_sim::time::SimTime;
use ursa_sim::trace::Trace;

/// Builder for a Chrome trace-event file.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

fn us(t: SimTime) -> f64 {
    t.as_secs_f64() * 1e6
}

impl ChromeTrace {
    /// An empty trace file.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Adds one request as a process: one thread per hop (named after
    /// its service), a complete slice for the hop's enqueue→respond
    /// interval, and nested sub-slices for queue wait, downstream
    /// waits, and blocked-submit intervals.
    pub fn add_trace(&mut self, t: &Trace, service_names: &[String]) {
        let pid = t.id;
        self.events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\
             \"args\":{{\"name\":\"request {pid} (class {})\"}}}}",
            t.class.0
        ));
        for s in &t.spans {
            let tid = s.node;
            let svc = service_names
                .get(s.service.0)
                .map(String::as_str)
                .unwrap_or("?");
            let svc = esc(svc);
            self.events.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{svc} #{tid}\"}}}}"
            ));
            let edge = match s.parent {
                Some((_, e)) => format!("{e:?}"),
                None => "Root".to_string(),
            };
            self.events.push(format!(
                "{{\"ph\":\"X\",\"name\":\"{svc}\",\"cat\":\"{edge}\",\
                 \"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"node\":{tid},\"nested_wait_us\":{:.3}}}}}",
                us(s.enqueue_at),
                us(s.respond_at) - us(s.enqueue_at),
                s.nested_wait.as_secs_f64() * 1e6,
            ));
            if s.start_at > s.enqueue_at {
                self.events.push(format!(
                    "{{\"ph\":\"X\",\"name\":\"queue\",\"cat\":\"wait\",\
                     \"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3}}}",
                    us(s.enqueue_at),
                    us(s.start_at) - us(s.enqueue_at),
                ));
            }
            for &(b, e) in &s.waits {
                self.events.push(format!(
                    "{{\"ph\":\"X\",\"name\":\"downstream-wait\",\"cat\":\"wait\",\
                     \"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3}}}",
                    us(b),
                    us(e) - us(b),
                ));
            }
            for &(b, e) in &s.blocked {
                self.events.push(format!(
                    "{{\"ph\":\"X\",\"name\":\"blocked-submit\",\"cat\":\"wait\",\
                     \"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3}}}",
                    us(b),
                    us(e) - us(b),
                ));
            }
        }
    }

    /// Adds every trace in `traces`.
    pub fn add_traces(&mut self, traces: &[Trace], service_names: &[String]) {
        for t in traces {
            self.add_trace(t, service_names);
        }
    }

    /// Writes the complete trace-event JSON object.
    pub fn write<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(b"{\"traceEvents\":[\n")?;
        for (i, e) in self.events.iter().enumerate() {
            let sep = if i + 1 < self.events.len() {
                ",\n"
            } else {
                "\n"
            };
            w.write_all(e.as_bytes())?;
            w.write_all(sep.as_bytes())?;
        }
        w.write_all(b"],\"displayTimeUnit\":\"ms\"}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::ChromeTrace;
    use ursa_metrics::json::parse_json;
    use ursa_sim::prelude::*;
    use ursa_sim::trace::Trace;

    fn sample_traces() -> (Vec<Trace>, Vec<String>) {
        let topo = Topology::new(
            vec![
                ServiceCfg::new("front\"end", 2.0),
                ServiceCfg::new("leaf", 2.0),
            ],
            vec![ClassCfg {
                name: "req".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)).with_child(
                    EdgeKind::NestedRpc,
                    CallNode::leaf(ServiceId(1), WorkDist::Constant(0.002)),
                ),
            }],
        )
        .unwrap();
        let names: Vec<String> = topo.services().iter().map(|s| s.name.clone()).collect();
        let mut sim = Simulation::new(topo, SimConfig::default(), 21);
        sim.enable_tracing(1000, 1.0);
        sim.set_rate(ClassId(0), RateFn::Constant(100.0));
        sim.run_for(SimDur::from_secs(5));
        (sim.take_traces(), names)
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let (traces, names) = sample_traces();
        assert!(!traces.is_empty());
        let mut ct = ChromeTrace::new();
        ct.add_traces(&traces, &names);
        let mut buf = Vec::new();
        ct.write(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        parse_json(&text).expect("valid JSON");
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("front\\\"end"), "service names are escaped");
        assert!(text.contains("downstream-wait"));
    }
}
