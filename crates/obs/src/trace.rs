//! Chrome-trace (`chrome://tracing` / Perfetto) rendering of the event
//! log.
//!
//! While a registry's detail gate is on — `PREDATA_TRACE=path`,
//! `PREDATA_LINEAGE`, or
//! [`Registry::set_trace_path`](crate::Registry::set_trace_path) — every recorded
//! event is kept. [`crate::Registry::trace_json`] turns that log into
//! the JSON array both viewers load directly: one metadata event
//! (`"ph":"M"`) naming each recording thread, one *complete* event
//! (`"ph":"X"`, microseconds since the process epoch) per event that
//! took time, and the [`crate::lineage`] view of the same log as *flow
//! events* — `"s"` at a chunk's first stage, `"f"` at a terminal one,
//! `"t"` between, all of one chunk sharing an `id` — so each chunk's
//! journey draws as arrows across threads.
//! [`crate::Registry::export`] writes it once, at shutdown; nothing is
//! streamed.

use crate::metrics::{json_str, Log};

/// Render `log` as Chrome-trace JSON.
pub(crate) fn render(log: &Log) -> String {
    let mut events: Vec<String> = Vec::with_capacity(log.threads.len() + log.events.len());
    for (tid, name) in &log.threads {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            json_str(name)
        ));
    }
    for (tid, ev) in log.events.iter().filter(|(_, ev)| ev.dur_ns() > 0) {
        events.push(format!(
            "{{\"name\":{},\"cat\":\"predata\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{tid},\"args\":{{\"step\":{}}}}}",
            json_str(ev.stage),
            ev.t0_ns / 1_000,
            ev.dur_ns() / 1_000,
            ev.step
        ));
    }
    for chunk in crate::lineage::view(&log.events) {
        // Flow ids must be unique per chunk; ranks and steps are far
        // below 10^6 in any run this middleware hosts.
        let id = chunk.src_rank * 1_000_000 + chunk.step;
        for (i, (stage, mark)) in chunk.events().into_iter().enumerate() {
            let ph = match (i, stage.is_terminal()) {
                (0, _) => 's',
                (_, true) => 'f',
                _ => 't',
            };
            events.push(format!(
                "{{\"name\":\"chunk\",\"cat\":\"lineage\",\"ph\":\"{ph}\",\"id\":{id},\
                 \"ts\":{},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"src\":{},\"step\":{},\"stage\":{}}}}}",
                mark.at_ns / 1_000,
                mark.tid,
                chunk.src_rank,
                chunk.step,
                json_str(stage.name())
            ));
        }
    }
    format!("[{}]", events.join(","))
}

#[cfg(test)]
mod tests {
    use crate::{mark_in, span_in, Registry};

    /// One private registry with its own gate and log: nothing here can
    /// meet another test's events.
    #[test]
    fn log_renders_complete_metadata_and_flow_events() {
        let reg = Registry::new();
        drop(span_in(&reg, "before-detail", 0));
        reg.set_detail(true);
        {
            let _pull = span_in(&reg, "pull", 7).chunk(3);
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        mark_in(&reg, "routed", 7).chunk(3);
        mark_in(&reg, "written", 7).chunk(3);
        drop(span_in(&reg, "finalize", 2));
        let json = reg.trace_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(!json.contains("before-detail"), "logged only while on");
        assert!(json.contains("\"name\":\"pull\",\"cat\":\"predata\",\"ph\":\"X\""));
        assert!(json.contains("\"args\":{\"step\":7}"));
        assert!(json.contains("\"ph\":\"M\""), "thread metadata present");
        // Stage order, not log order: routed starts the chain.
        let id = 3 * 1_000_000 + 7;
        for (ph, stage) in [("s", "routed"), ("t", "rdma_done"), ("f", "written")] {
            assert!(
                json.contains(&format!("\"ph\":\"{ph}\",\"id\":{id}"))
                    && json.contains(&format!("\"stage\":\"{stage}\"")),
                "missing flow {ph} at {stage}: {json}"
            );
        }
        assert!(
            !json.contains("\"name\":\"routed\""),
            "a mark is no X event"
        );
    }

    #[test]
    fn export_writes_the_trace_to_the_installed_path() {
        let path = std::env::temp_dir().join(format!("obs-trace-{}.json", std::process::id()));
        let reg = Registry::new();
        reg.set_trace_path(path.clone());
        assert!(reg.detail(), "a trace destination turns detail on");
        {
            let _s = span_in(&reg, "trace-stage", 2);
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        reg.export().unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.contains("trace-stage"));
        assert_eq!(
            back,
            reg.trace_json(),
            "the log stays: lineage reads it too"
        );
        std::fs::remove_file(path).ok();
    }
}
