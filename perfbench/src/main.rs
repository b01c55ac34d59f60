//! Command line of the facade benchmark; see the library docs.

use cqa_perfbench::result_json;
use cqa_perfbench::workloads::{child_main, run, ChildKind, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <restart|serve|ingest> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(Config {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
        run_dir: cwd
            .join(".bench_run")
            .join(format!("{}-{}", workload.name(), std::process::id())),
        exe,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A restart sample: `perfbench child <kind> <store dir> <0|1>`.
    if args.first().map(String::as_str) == Some("child") && args.len() == 4 {
        let Some(kind) = ChildKind::parse(&args[1]) else {
            eprintln!("unknown child kind {}", args[1]);
            return ExitCode::FAILURE;
        };
        child_main(kind, &PathBuf::from(&args[2]), args[3] == "1");
        return ExitCode::SUCCESS;
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.run_dir);
    match result {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            println!("{}", result_json(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}
