//! Command-line experiment runner.
//!
//! ```text
//! fed-experiments                      # run every registered experiment
//! fed-experiments fig1 arch            # run selected experiments
//! fed-experiments --seed 7 fig1
//! fed-experiments run scenarios/wan-lognormal.toml
//! fed-experiments run --profile @fair-vs-static
//! fed-experiments run --trace @zipf-hotspot
//! fed-experiments run @flash-crowd-100k
//! fed-experiments parity @all          # whole-library cross-engine gate
//! fed-experiments bench-diff old.json BENCH_cluster.json
//! ```

use std::process::ExitCode;

/// One unit of work named on the command line.
enum Command {
    /// A registered experiment id (or `smoke:*` / `profile-smoke:*`
    /// pseudo-id).
    Experiment(String),
    /// `run [--profile] [--trace] <path.toml|@name>` — execute one
    /// scenario file.
    Run {
        target: String,
        profile: bool,
        trace: bool,
    },
    /// `parity <path.toml|@name|@all>` — cross-engine parity gate.
    Parity(String),
    /// `bench-diff <old.json> <new.json>` — the next two positional
    /// arguments; `--threshold F` may stand anywhere.
    BenchDiff(Vec<String>),
}

fn print_help() {
    println!("usage: fed-experiments [--seed N] [ids...]");
    println!("\nexperiments (default: all, in this order):");
    for e in fed_experiments::REGISTRY {
        println!("  {:<12} {}", e.id, e.summary);
    }
    println!("\nscenario files:");
    println!("  run [--profile] [--trace] <path.toml|@name>");
    println!("                              execute one declarative scenario");
    println!("                              (@name resolves to scenarios/<name>.toml;");
    println!("                              the file's own seed applies; --profile forces");
    println!("                              profiling on and writes traces/TRACE_<name>.json;");
    println!("                              --trace forces per-event dissemination tracing");
    println!("                              and writes traces/TRACE_<name>.events.json)");
    println!("  parity <path.toml|@name|@all>");
    println!(
        "                              seq-vs-cluster bit-identity gate at shards {:?}",
        fed_experiments::scenario_run::PARITY_SHARDS
    );
    println!("                              plus the file's own shard count");
    println!("\nbenchmark artifacts:");
    println!("  bench-diff <old.json> <new.json> [--threshold F]");
    println!("                              per-row events/s diff of two BENCH_* arrays;");
    println!(
        "                              fails on drops past the threshold (default {})",
        fed_experiments::bench_diff::DEFAULT_THRESHOLD
    );
    println!("\nlarge-population smoke:");
    for (_, grammar, summary) in fed_experiments::PSEUDO_IDS {
        println!("  {grammar}");
        println!("                              {summary}");
    }
}

fn main() -> ExitCode {
    let mut seed = 42u64;
    let mut threshold = None;
    let mut commands: Vec<Command> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("--seed requires an integer value");
                    return ExitCode::FAILURE;
                }
            },
            "--threshold" => match args.next().and_then(|v| v.parse().ok()) {
                Some(f) => threshold = Some(f),
                None => {
                    eprintln!("--threshold requires a fraction (e.g. 0.5)");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            "run" | "parity" => {
                let mut profile = false;
                let mut trace = false;
                let mut target = args.next();
                if arg == "run" {
                    loop {
                        match target.as_deref() {
                            Some("--profile") => profile = true,
                            Some("--trace") => trace = true,
                            _ => break,
                        }
                        target = args.next();
                    }
                }
                let Some(target) = target else {
                    eprintln!("{arg} requires a target: a scenario .toml path or @name");
                    return ExitCode::FAILURE;
                };
                commands.push(if arg == "run" {
                    Command::Run {
                        target,
                        profile,
                        trace,
                    }
                } else {
                    Command::Parity(target)
                });
            }
            "bench-diff" => commands.push(Command::BenchDiff(Vec::new())),
            other => match commands.last_mut() {
                Some(Command::BenchDiff(paths)) if paths.len() < 2 => paths.push(other.to_string()),
                _ => commands.push(Command::Experiment(other.to_string())),
            },
        }
    }
    if commands
        .iter()
        .any(|c| matches!(c, Command::BenchDiff(paths) if paths.len() != 2))
    {
        eprintln!("bench-diff requires two paths: <old.json> <new.json>");
        return ExitCode::FAILURE;
    }
    if commands.is_empty() {
        commands = fed_experiments::experiment_ids()
            .map(|id| Command::Experiment(id.to_string()))
            .collect();
    }
    // One failure path: a command's error and a panic under it (an
    // engine's exhausted event budget or a handler's panic) both print
    // one `error:` line and exit 1. The silent hook keeps the panic's
    // location and backtrace off stderr; its message is the line.
    std::panic::set_hook(Box::new(|_| {}));
    for command in &commands {
        let result = std::panic::catch_unwind(|| run_command(command, seed, threshold))
            .unwrap_or_else(|payload| Err(fed_sim::exec::panic_message(&*payload)));
        if let Err(e) = result {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn run_command(command: &Command, seed: u64, threshold: Option<f64>) -> Result<(), String> {
    match command {
        Command::Experiment(id) => {
            eprintln!("=== running {id} (seed {seed}) ===");
            fed_experiments::run_by_id(id, seed)
        }
        Command::Run {
            target,
            profile,
            trace,
        } => {
            eprintln!("=== running scenario {target} ===");
            fed_experiments::run_scenario_target(target, *profile, *trace)
        }
        Command::Parity(target) => {
            eprintln!("=== parity gate {target} ===");
            fed_experiments::parity_target(target)
        }
        Command::BenchDiff(paths) => {
            let (old, new) = (&paths[0], &paths[1]);
            eprintln!("=== bench-diff {old} vs {new} ===");
            fed_experiments::bench_diff_target(old, new, threshold)
        }
    }
}
