//! `fedbench` command line. With `--workload` it measures one workload and
//! prints one result line; without, it runs every workload in a child
//! process of its own (so peak RSS is per workload) and relays their lines.

use fedbench::names::{Metric, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use fedbench::spans::Spans;
use fedbench::{layers, names, workload};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: fedbench [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>] [--quick] [--selfcheck] [--list]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        quick: false,
        selfcheck: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<24} {}", w.name, w.why);
    }
    for (title, table) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        println!("{title} metrics (name, unit, better, bound):");
        for m in table {
            let bound = m.bound.map_or("-".to_string(), |b| format!("{b}"));
            println!(
                "  {:<34} {:<6} {:<6} {:<5} {}",
                m.name,
                m.unit,
                m.better.as_str(),
                bound,
                m.moves
            );
        }
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The row that names the hardware and toolchain a result came from.
fn header(args: &Args) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "fedbench: cores={cores} rustc=\"{}\" git={} seed={} seconds={} trace={} quick={}",
        tool_line("rustc", &["-V"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
    );
}

fn write_spans(w: &Workload, spans: &Spans) -> Result<(), String> {
    // <target>/<profile>/fedbench -> <target>/fedbench/spans-<workload>.json
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("executable has no target directory")?
        .join("fedbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}.json", w.name));
    std::fs::write(&path, spans.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Measures one workload in this process and prints its result line.
fn run_one(w: &Workload, args: &Args) -> Result<(), String> {
    let mut spans = Spans::new(w.name);
    let (metrics, tally, table) = if args.trace {
        let (m, t) = layers::traced(w, args.seed, args.quick, &mut spans)?;
        (m, t, PER_LAYER)
    } else {
        let (m, t) = workload::end_to_end(w, args.seed, args.seconds, args.quick, &mut spans)?;
        (m, t, END_TO_END)
    };
    write_spans(w, &spans)?;
    println!("{}", metrics.result_line(table, tally)?);
    Ok(())
}

/// Runs `w` in a child process and returns its result line.
fn run_child(w: &Workload, args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {}: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!("child for {} exited with {}", w.name, out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("child for {} printed nothing", w.name))
}

fn metric_value(line: &str, name: &str) -> Result<f64, String> {
    let value = fed_profile::json::parse(line)?;
    value
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("result line has no metric {name}"))
}

/// Runs every workload, one child each; prints each result line prefixed
/// by its workload name.
fn run_all(args: &Args) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for w in WORKLOADS {
        let line = run_child(w, args)?;
        println!("{} {line}", w.name);
        lines.push(line);
    }
    Ok(lines)
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(m: &Metric, first: f64, second: f64) -> f64 {
    match m.better {
        names::Better::Lower => (second - first) / first,
        names::Better::Higher => (first - second) / first,
    }
}

/// Two full sets from one build must agree within the benchmark's own bounds.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let first = run_all(args)?;
    let second = run_all(args)?;
    let mut ok = true;
    println!(
        "{:<24} {:<18} {:>14} {:>14} {:>9} {:>6}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for (w, (a, b)) in WORKLOADS.iter().zip(first.iter().zip(&second)) {
        for m in END_TO_END {
            let (x, y) = (metric_value(a, m.name)?, metric_value(b, m.name)?);
            let worse = worsening(m, x, y);
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let verdict = if worse > bound {
                ok = false;
                "FAIL"
            } else {
                ""
            };
            println!(
                "{:<24} {:<18} {x:>14.6} {y:>14.6} {:>8.2}% {:>5.0}% {verdict}",
                w.name,
                m.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, String> {
    if args.list {
        list();
        return Ok(true);
    }
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; use --release".into());
    }
    match &args.workload {
        Some(name) => {
            let w = names::workload(name).ok_or(format!("unknown workload {name}; see --list"))?;
            header(args);
            run_one(w, args).map(|()| true)
        }
        None if args.selfcheck => selfcheck(args),
        None => run_all(args).map(|_| true),
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fedbench: {e}");
            ExitCode::FAILURE
        }
    }
}
