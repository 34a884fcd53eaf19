//! Shared infrastructure for the benchmark binaries.
//!
//! Each binary regenerates one table or figure of the paper's evaluation
//! (§6); see DESIGN.md's experiment index. Results print as aligned
//! text tables (the paper's rows/series) and, with `--json PATH`, as
//! machine-readable JSON so EXPERIMENTS.md numbers stay regenerable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::fs::File;
use std::io::Write as _;
use std::str::FromStr;
use std::time::Instant;

/// A simple aligned-column table printer.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Display>(headers: &[S]) -> TextTable {
        TextTable {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row<S: Display>(&mut self, cells: &[S]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Prints labelled rule-class splits (Figure 7's max switch and
/// network, `RuleClasses`) as one table.
pub fn print_rule_classes(rows: &[(String, softcell_controller::RuleClasses)]) {
    let mut t = TextTable::new(&[
        "rules of",
        "T1 unqualified",
        "T1 from-mb",
        "T1 port-qualified",
        "goto-stage",
        "T2",
        "T3",
        "swaps",
        "total",
    ]);
    for (label, c) in rows {
        t.row(&[
            label.clone(),
            c.unqualified.to_string(),
            c.from_mb.to_string(),
            c.port_qualified.to_string(),
            c.goto_stage.to_string(),
            c.type2.to_string(),
            c.type3.to_string(),
            c.swaps.to_string(),
            c.total().to_string(),
        ]);
    }
    t.print();
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Writes a serializable result to a JSON file if `--json PATH` was
/// passed on the command line.
pub fn maybe_dump_json<T: serde::Serialize>(args: &[String], value: &T) {
    let Some(path) = arg_value::<String>(args, "--json") else {
        return;
    };
    let mut f = File::create(&path).expect("create json output");
    let s = serde_json::to_string_pretty(value).expect("serialize");
    f.write_all(s.as_bytes()).expect("write json");
    eprintln!("wrote {path}");
}

/// Writes a telemetry snapshot to the path given by `--telemetry PATH`
/// (JSON) and prints its human-readable report. No flag, no output —
/// callers can merge and pass their snapshot unconditionally.
pub fn maybe_dump_telemetry(args: &[String], snapshot: &softcell_telemetry::Snapshot) {
    let Some(path) = arg_value::<String>(args, "--telemetry") else {
        return;
    };
    println!("{}", snapshot.report());
    let mut f = File::create(&path).expect("create telemetry output");
    let s = serde_json::to_string_pretty(snapshot).expect("serialize telemetry");
    f.write_all(s.as_bytes()).expect("write telemetry");
    eprintln!("wrote {path}");
}

/// Arms process-global trace sampling when `--trace PATH` was passed:
/// one root in 64 is recorded end to end, plus every root slower than
/// the default outlier bound. Returns whether tracing is on so callers
/// can add a dedicated capture phase.
pub fn maybe_arm_tracing(args: &[String]) -> bool {
    if arg_value::<String>(args, "--trace").is_none() {
        return false;
    }
    softcell_telemetry::Registry::global()
        .tracer()
        .set_sampling(64, softcell_telemetry::DEFAULT_SLOW_US);
    true
}

/// Writes the snapshot's retained spans as Chrome `trace_event` JSON to
/// the `--trace PATH` argument (loadable in Perfetto or
/// `chrome://tracing`). No flag, no output.
pub fn maybe_dump_trace(args: &[String], snapshot: &softcell_telemetry::Snapshot) {
    let Some(path) = arg_value::<String>(args, "--trace") else {
        return;
    };
    let mut f = File::create(&path).expect("create trace output");
    f.write_all(snapshot.to_chrome_trace().as_bytes())
        .expect("write trace");
    eprintln!(
        "wrote {path} ({} spans, {} complete traces)",
        snapshot.spans.len(),
        snapshot.complete_traces().len()
    );
}

/// One real over-the-wire exchange against a freshly started sharded
/// controller, run with every root sampled: the exported trace is
/// guaranteed to contain spans that crossed the framed transport — the
/// agent-side `wire_rtt` and the server-side `serve_frame` and
/// `handle_*` spans (plus `queue_wait`, had the request found its
/// domain busy) share one trace id, and the path request produces a
/// `flow_mod_batch` + barrier leg. Benches call this
/// at the end of a `--trace` run, regardless of where the sweep left
/// the 1-in-N arrival counter.
pub fn wire_trace_capture(shards: usize) {
    use softcell_controller::agent::ControllerApi;
    use softcell_controller::server::ControllerServer;
    use softcell_controller::wire::ChannelController;
    use softcell_policy::clause::ClauseId;
    use softcell_policy::{ServicePolicy, SubscriberAttributes};
    use softcell_types::{BaseStationId, SimTime, UeId, UeImsi};

    softcell_telemetry::Registry::global()
        .tracer()
        .set_sampling(1, softcell_telemetry::DEFAULT_SLOW_US);
    let subscribers: Vec<SubscriberAttributes> = (0..8)
        .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
        .collect();
    let server =
        ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers, shards)
            .expect("sharded server");
    let (agent_end, controller_end) = softcell_ctlchan::loopback_pair();
    let serving = server.serve(controller_end);
    let mut ctl = ChannelController::connect(agent_end, BaseStationId(0)).expect("hello");
    ctl.attach_ue(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
        .expect("attach");
    // one root covers the path demand AND its barrier fence, so a
    // single trace spans packet-in -> plan -> commit -> flow_mod_batch
    // -> barrier ack, all across the wire
    {
        use softcell_ctlchan::{Frame, Message, PacketIn};
        let sp = softcell_telemetry::Registry::global()
            .tracer()
            .root("flow_install");
        let chan = ctl.channel();
        chan.set_trace(sp.ctx());
        let raw = chan
            .request(&Message::PacketIn(PacketIn::PathRequest {
                bs: BaseStationId(0),
                clause: ClauseId(2),
            }))
            .expect("path request");
        Frame::new_checked(raw.as_slice()).expect("reply frame");
        chan.barrier().expect("barrier");
        chan.set_trace(softcell_telemetry::TraceContext::NONE);
    }
    ctl.detach_ue(UeImsi(0)).expect("detach");
    drop(ctl);
    serving.join().expect("serve thread").expect("clean close");
    server.shutdown();
}

/// Whether `--quick` was passed (reduced problem sizes for smoke runs).
pub fn is_quick(args: &[String]) -> bool {
    args.iter().any(|a| a == "--quick")
}

/// Parses `--flag VALUE`: `Ok(None)` when the flag is absent, `Err` with
/// a usage message when its value is missing (end of line, or another
/// `--flag` where the value belongs) or does not parse as a `T`.
fn parse_arg<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(pos + 1)
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{flag}: cannot read {value:?}"))
}

/// The value of a `--flag VALUE` argument, `None` when the flag is
/// absent. A flag given with a missing or unparsable value is a usage
/// error: it is printed and the process exits with status 2, so a typo
/// never silently runs the default.
pub fn arg_value<T: FromStr>(args: &[String], flag: &str) -> Option<T> {
    parse_arg(args, flag).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_trace_capture_yields_one_trace_across_the_wire() {
        wire_trace_capture(2);
        let snapshot = softcell_telemetry::Registry::global().snapshot();
        let traces = snapshot.complete_traces();
        let install = traces
            .values()
            .find(|spans| spans.iter().any(|s| s.kind == "flow_install"))
            .expect("the flow_install root is a complete trace");
        let kinds: Vec<&str> = install.iter().map(|s| s.kind.as_str()).collect();
        for kind in [
            "wire_rtt",
            "serve_frame",
            "handle_path_tag",
            "flow_mod_batch",
        ] {
            assert!(kinds.contains(&kind), "{kind} missing from {kinds:?}");
        }
        // the domain was free, so the serve thread ran the request itself
        assert!(!kinds.contains(&"queue_wait"), "{kinds:?}");
        let handle = install
            .iter()
            .find(|s| s.kind == "handle_path_tag")
            .unwrap();
        let parent = install.iter().find(|s| s.span_id == handle.parent).unwrap();
        assert_eq!(parent.kind, "serve_frame", "the handler nests in its frame");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["k", "median", "max"]);
        t.row(&["8", "1214", "1697"]);
        t.row(&["20", "600", "900"]);
        let s = t.render();
        assert!(s.contains("1214"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only one"]);
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["prog", "--quick", "--n", "500"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(is_quick(&args));
        assert_eq!(parse_arg::<usize>(&args, "--n"), Ok(Some(500)));
        assert_eq!(parse_arg::<usize>(&args, "--k"), Ok(None));
        assert_eq!(parse_arg::<String>(&args, "--n"), Ok(Some("500".into())));
    }

    #[test]
    fn a_flag_without_a_usable_value_is_a_usage_error() {
        let args: Vec<String> = ["prog", "--replicas", "x", "--telemetry", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(
            parse_arg::<usize>(&args, "--replicas").is_err(),
            "unparsable"
        );
        assert!(
            parse_arg::<String>(&args, "--telemetry").is_err(),
            "a flag follows"
        );
        assert!(parse_arg::<String>(&args, "--json").is_err(), "end of line");
    }
}
