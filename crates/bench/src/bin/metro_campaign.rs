//! Metro-at-scale scenario campaign — "a day in the life of a million
//! UEs" (DESIGN.md §14).
//!
//! Runs one or more named scenarios from the regression matrix: a
//! deterministic, time-compressed virtual day over the real stack
//! (cohort tier) plus a statistical model of the full `--ues`
//! population (macro tier), with composable overlays — commuter
//! handoff storms, base-station sleep/wake, gateway failure + reroute,
//! a replicated-controller `kill -9`, flash crowds. Invariants are
//! checked continuously; the first violating event is reported with
//! its seed and virtual timestamp for replay.
//!
//! Usage:
//!   metro_campaign [--scenarios name[,name...]] [--ues N]
//!                  [--compress N] [--cohort N] [--seed N]
//!                  [--slice SECS] [--report PATH] [--telemetry PATH]
//!                  [--trace PATH] [--fabric-dump] [--quick]
//!
//! `--trace PATH` arms 1-in-64 causal-trace sampling for the whole
//! campaign and writes the retained spans as Chrome `trace_event` JSON
//! (Perfetto-loadable); the run ends with one fully sampled
//! over-the-wire exchange so the export always contains a trace that
//! crossed the framed transport.
//!
//! `--scenarios all` (the default) stacks every overlay on one day.
//! `--quick` switches to the reduced 4-station preset. Exits nonzero
//! if any scenario records a violation.

use softcell_bench::{
    arg_value, is_quick, maybe_arm_tracing, maybe_dump_telemetry, maybe_dump_trace,
    wire_trace_capture,
};
use softcell_scenario::{overlays_for, CampaignConfig, CampaignReport, SCENARIOS};
use softcell_types::SimDuration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tracing = maybe_arm_tracing(&args);
    let names: Vec<String> = arg_value::<String>(&args, "--scenarios")
        .or_else(|| arg_value(&args, "--scenario"))
        .unwrap_or_else(|| "all".into())
        .split(',')
        .map(str::to_string)
        .collect();
    for name in &names {
        if overlays_for(name).is_none() {
            eprintln!("unknown scenario {name:?}; known: {SCENARIOS:?} (+ seeded-violation)");
            std::process::exit(2);
        }
    }

    let mut reports = Vec::new();
    let mut dumps = Vec::new();
    for name in &names {
        let overlays = overlays_for(name).expect("validated above");
        let mut cfg = if is_quick(&args) {
            CampaignConfig::small(name, overlays)
        } else {
            CampaignConfig::metro(name, overlays)
        };
        if let Some(ues) = arg_value(&args, "--ues") {
            cfg.ues = ues;
        }
        if let Some(c) = arg_value(&args, "--compress") {
            cfg.compress = c;
        }
        if let Some(c) = arg_value(&args, "--cohort") {
            cfg.cohort_cap = c;
        }
        if let Some(s) = arg_value(&args, "--seed") {
            cfg.seed = s;
        }
        if let Some(s) = arg_value(&args, "--slice") {
            cfg.slice = SimDuration::from_secs(s);
        }
        cfg.capture_fabric_dump = args.iter().any(|a| a == "--fabric-dump");

        eprintln!(
            "==> {name}: {} modeled UEs, cohort {}, {} stations expected, day {}s / {}x",
            cfg.ues,
            cfg.cohort(),
            cfg.topology.base_station_count(),
            cfg.virtual_day.as_micros() / 1_000_000,
            cfg.compress
        );
        match cfg.run() {
            Ok(out) => {
                println!("{}", out.report.summary_line());
                for v in &out.report.violations {
                    println!("    {v}");
                    println!("    {}", v.replay_coordinates());
                }
                if let Some(d) = out.fabric_dump {
                    dumps.push((name.clone(), d));
                }
                reports.push(out.report);
            }
            Err(e) => {
                eprintln!("{name}: campaign driver failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let campaign = CampaignReport { scenarios: reports };
    if let Some(path) = arg_value::<String>(&args, "--report") {
        std::fs::write(&path, campaign.to_json()).expect("write report");
        eprintln!("wrote {path}");
    }
    for (name, dump) in &dumps {
        let path = format!("/tmp/softcell-fabric-{name}.txt");
        std::fs::write(&path, dump).expect("write fabric dump");
        eprintln!("wrote {path}");
    }
    if tracing {
        wire_trace_capture(4);
    }
    let snapshot = softcell_telemetry::Registry::global().snapshot();
    maybe_dump_telemetry(&args, &snapshot);
    maybe_dump_trace(&args, &snapshot);

    if !campaign.clean() {
        eprintln!("campaign VIOLATED");
        std::process::exit(1);
    }
    eprintln!("campaign clean");
}
