//! `cpubench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exit codes: 0 when every
//! output check passed, 1 when a check failed or the run could not
//! complete, 2 on a usage error.

use std::process::ExitCode;

use cpubench::{run, Args, USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run::run(&args) {
        Ok(line) => {
            println!("{}", line.json);
            if line.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
    }
}
