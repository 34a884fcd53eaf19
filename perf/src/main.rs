//! `softcell-perf`: the repo's performance yardstick. See `perf/README.md`.

mod catalog;
mod compare;
mod json;
mod probe;
mod report;
mod span;
mod stats;
mod workloads;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use catalog::{FABRIC, METRO, RUN_SECONDS, STORM, WIRE, WORKLOADS};
use json::{obj, Value};
use report::RunDetail;
use workloads::RunArgs;

const USAGE: &str = "\
usage:
  softcell-perf --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
        one run of one workload; the last stdout line is the result as JSON
  softcell-perf --all [--seed N] [--seconds S] [--out DIR]
        every workload, untraced then traced, each in its own process;
        writes DIR/results.json and DIR/trace_<workload>.json
  softcell-perf compare A.json B.json
        judges B against A, metric by metric; exits 1 on a regression
  softcell-perf selfcheck [--seed N] [--seconds S] [--out DIR]
        runs --all twice and compares the two sets
  softcell-perf probe multi-clause
        the eligibility probe behind fabric_forward's policy choice
workloads: metro_churn wire_flow_setup fabric_forward path_install_storm
defaults: --seed 7, --seconds 30 (traced runs under --all get half), --out perf/out";

/// Spans written to a Chrome trace file: the head of the run.
const TRACE_FILE_SPANS: usize = 200_000;
const DEFAULT_SEED: u64 = 7;

struct Cli {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some("all") => {
                flags.insert("all".to_string(), String::new());
            }
            Some(key) => {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                flags.insert(key.to_string(), value.clone());
            }
            None => positional.push(a.clone()),
        }
    }
    Ok(Cli { flags, positional })
}

impl Cli {
    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} {v}: not a number")),
        }
    }

    fn out_dir(&self) -> Option<PathBuf> {
        self.flags.get("out").map(PathBuf::from)
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn detail_path(dir: &Path, workload: &str, traced: bool) -> PathBuf {
    dir.join(format!(
        "run_{workload}_{}.json",
        if traced { "traced" } else { "untraced" }
    ))
}

/// One run of one workload in this process.
fn run_one(workload: &str, args: &RunArgs, out: Option<&Path>) -> Result<RunDetail, String> {
    let run = match workload {
        METRO => workloads::metro_churn::run,
        WIRE => workloads::wire_flow_setup::run,
        FABRIC => workloads::fabric_forward::run,
        STORM => workloads::path_install_storm::run,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let t = Instant::now();
    let outcome = run(args);
    let wall_s = t.elapsed().as_secs_f64();
    let detail = RunDetail::new(
        workload,
        args.seed,
        args.seconds,
        args.trace,
        wall_s,
        &outcome,
    );
    if let Some(dir) = out {
        write_file(
            &detail_path(dir, workload, args.trace),
            &(detail.to_json().render() + "\n"),
        )?;
        if args.trace {
            write_file(
                &dir.join(format!("trace_{workload}.json")),
                &span::chrome_trace(&outcome.spans, TRACE_FILE_SPANS),
            )?;
        }
    }
    Ok(detail)
}

/// Every workload, untraced then traced, each in a child process so
/// `peak_rss_mb` is per workload. Returns the runs and whether all were
/// correct.
fn run_all(seed: u64, seconds: f64, dir: &Path) -> Result<(Vec<RunDetail>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        for traced in [false, true] {
            let secs = if traced { seconds / 2.0 } else { seconds };
            let status = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &secs.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(dir)
                .status()
                .map_err(|e| format!("spawn {}: {e}", w.name))?;
            if !status.success() {
                return Err(format!("{} (trace {traced}) exited with {status}", w.name));
            }
            let path = detail_path(dir, w.name, traced);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            runs.push(RunDetail::from_json(&json::parse(&text)?)?);
        }
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let results = obj([
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("host_cores", Value::Num(cores as f64)),
        (
            "runs",
            Value::Arr(runs.iter().map(RunDetail::to_json).collect()),
        ),
    ]);
    let path = dir.join("results.json");
    write_file(&path, &(results.render() + "\n"))?;

    println!(
        "== end-to-end summary, seed {seed}, {cores} cores ({})",
        path.display()
    );
    for r in runs.iter().filter(|r| !r.traced) {
        let cells: Vec<String> = r
            .metrics
            .iter()
            .map(|(name, s)| format!("{name}={:.6}", s.value))
            .collect();
        println!(
            "   {:<20} {} failed_share={:.3e}",
            r.workload,
            cells.join(" "),
            r.failed_share()
        );
    }
    let correct = runs.iter().all(RunDetail::correct);
    Ok((runs, correct))
}

fn read_results(path: &str) -> Result<Vec<RunDetail>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text)?
        .get("runs")
        .ok_or_else(|| format!("{path}: no `runs`"))?
        .as_array()
        .iter()
        .map(RunDetail::from_json)
        .collect()
}

fn report_comparison(a: &[RunDetail], b: &[RunDetail], forbid_unresolved: bool) -> ExitCode {
    let c = compare::compare(a, b);
    print!("{}", c.table);
    println!(
        "{} unresolved; {}",
        c.unresolved,
        if c.failed {
            "REGRESSION"
        } else {
            "no regression"
        }
    );
    if c.failed || (forbid_unresolved && c.unresolved > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    let cli = parse_cli(args)?;
    let seed: u64 = cli.number("seed", DEFAULT_SEED)?;
    let seconds: f64 = cli.number("seconds", RUN_SECONDS as f64)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let default_out = PathBuf::from("perf/out");

    match cli.positional.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = cli.positional.as_slice() else {
                return Err("compare takes two result files".into());
            };
            return Ok(report_comparison(
                &read_results(a)?,
                &read_results(b)?,
                false,
            ));
        }
        Some("selfcheck") => {
            let dir = cli.out_dir().unwrap_or(default_out);
            let (a, ok_a) = run_all(seed, seconds, &dir.join("selfcheck_a"))?;
            let (b, ok_b) = run_all(seed, seconds, &dir.join("selfcheck_b"))?;
            let code = report_comparison(&a, &b, true);
            return Ok(if ok_a && ok_b {
                code
            } else {
                ExitCode::FAILURE
            });
        }
        Some("probe") => {
            if cli.positional.get(1).map(String::as_str) != Some("multi-clause") {
                return Err("the one probe is `probe multi-clause`".into());
            }
            print!("{}", probe::multi_clause());
            return Ok(ExitCode::SUCCESS);
        }
        Some(other) => return Err(format!("unknown command `{other}`")),
        None => {}
    }

    if cli.flags.contains_key("all") {
        let (_, correct) = run_all(seed, seconds, &cli.out_dir().unwrap_or(default_out))?;
        return Ok(if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let workload = cli
        .flags
        .get("workload")
        .ok_or("no --workload and no command")?;
    let trace = match cli.flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let args = RunArgs {
        seed,
        seconds,
        trace,
    };
    let detail = run_one(workload, &args, cli.out_dir().as_deref())?;
    print!("{}", detail.table());
    println!("{}", detail.contract_line());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("softcell-perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
