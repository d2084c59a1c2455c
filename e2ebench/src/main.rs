//! Command-line entry point; see the crate docs and `README.md`.

use std::process::ExitCode;

/// The workloads `--workload all` runs, each in its own process.
const ALL: [&str; 3] = ["mem_mix", "disk_spill", "live_rw"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(at) = args.windows(2).position(|w| w == ["--workload", "all"]) {
        return run_all(args, at + 1);
    }
    let cfg = match e2ebench::parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match std::panic::catch_unwind(|| e2ebench::run(&cfg)) {
        Ok(Ok(outcome)) if outcome.invalid.is_some() => {
            for line in &outcome.report {
                eprintln!("# {line}");
            }
            eprintln!("e2ebench: {}", outcome.invalid.unwrap_or_default());
            ExitCode::FAILURE
        }
        Ok(Ok(outcome)) => {
            for line in &outcome.report {
                println!("# {line}");
            }
            for m in &outcome.metrics {
                println!("# {} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("e2ebench: wrong or failed operations; see the report");
                ExitCode::FAILURE
            }
        }
        Ok(Err(e)) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
        Err(_) => {
            eprintln!("e2ebench: the run panicked");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in a child process of its own (so each reports its
/// own peak memory) and passes their reports through, one after another.
fn run_all(mut args: Vec<String>, value: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2ebench: cannot find this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut status = ExitCode::SUCCESS;
    for workload in ALL {
        args[value] = workload.to_owned();
        println!("# ==== {workload}");
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(s) if s.success() => {}
            Ok(_) | Err(_) => {
                eprintln!("e2ebench: {workload} failed");
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}
