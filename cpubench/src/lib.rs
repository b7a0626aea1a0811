//! `cpubench` — end-to-end and per-layer CPU-time benchmark of the two
//! steps of the paper's method: G-SWFIT faultload generation and the
//! injection campaign. See `BENCHMARK.md` beside this crate for why each
//! workload and metric exists.
//!
//! The benchmark drives the repository's crates only through their public
//! functions and changes no program code.

pub mod calib;
pub mod campaign;
pub mod check;
pub mod clock;
pub mod gen;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod stats;

/// Command-line usage.
pub const USAGE: &str = "usage: cpubench --workload <table5-w2k|churn-xp|faultload-gen> \
                         --seed <u64> [--seconds <1..=600>] [--trace <0|1>]";

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 5 cell (Nimbus-2000 x Wren).
    Table5W2k,
    /// Short journaled slots on Nimbus-XP x Heron.
    ChurnXp,
    /// The G-SWFIT faultload-generation loop.
    FaultloadGen,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Table5W2k,
        Workload::ChurnXp,
        Workload::FaultloadGen,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table5W2k => "table5-w2k",
            Workload::ChurnXp => "churn-xp",
            Workload::FaultloadGen => "faultload-gen",
        }
    }
}

/// Validated command-line arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload`, `--seed` (both required), `--seconds` (default
    /// 10) and `--trace` (default 0).
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first bad argument.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    );
                }
                "--seed" => {
                    let v = value()?;
                    seed = Some(
                        v.parse()
                            .map_err(|_| format!("--seed `{v}` is not an unsigned integer"))?,
                    );
                }
                "--seconds" => {
                    let v = value()?;
                    seconds = v
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("--seconds `{v}` is not in 1..=600"))?;
                }
                "--trace" => {
                    trace = match value()? {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace `{v}` is not 0 or 1")),
                    };
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&args)
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload churn-xp --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::ChurnXp,
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
        let a = parse("--seed 1 --workload faultload-gen").unwrap();
        assert_eq!((a.seconds, a.trace), (10, false));
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for (line, msg) in [
            ("--workload nope --seed 1", "unknown workload"),
            ("--workload table5-w2k --seed -3", "not an unsigned integer"),
            (
                "--workload table5-w2k --seed banana",
                "not an unsigned integer",
            ),
            ("--workload table5-w2k", "--seed is required"),
            ("--seed 1", "--workload is required"),
            ("--workload table5-w2k --seed", "needs a value"),
            (
                "--workload table5-w2k --seed 1 --seconds 0",
                "not in 1..=600",
            ),
            ("--workload table5-w2k --seed 1 --trace 2", "not 0 or 1"),
            (
                "--workload table5-w2k --seed 1 --jobs 2",
                "unknown argument",
            ),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(msg), "{line}: {err}");
        }
    }
}
