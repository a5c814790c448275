//! The flags both binaries take: `--workload W --seed N --seconds S
//! --trace 0|1` (the driver's contract) plus `--round R` for a child.

use crate::manifest::{RUN_SECONDS, SEED};
use crate::workloads::{spec, Spec, WORKLOADS};

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `None` runs every workload.
    pub workload: Option<String>,
    pub seed: u64,
    /// Seconds of timed work a run is sized for; op counts scale with it.
    pub seconds: f64,
    pub trace: bool,
    pub round: usize,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: SEED,
            seconds: f64::from(RUN_SECONDS),
            trace: false,
            round: 1,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    spec(&value).ok_or_else(|| {
                        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload `{value}`; one of {known:?}")
                    })?;
                    out.workload = Some(value);
                }
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    out.seconds = value
                        .parse()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 60.0)
                        .ok_or_else(bad)?;
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--round" => out.round = value.parse().map_err(|_| bad())?,
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(out)
    }

    /// The workloads this invocation covers, in table order.
    pub fn selected(&self) -> Vec<&'static Spec> {
        WORKLOADS
            .iter()
            .filter(|w| self.workload.as_deref().is_none_or(|name| name == w.name))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_flags_parse() {
        let a = parse("--workload cdc_stream --seed 11 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("cdc_stream"), 11, 3.0, true)
        );
        assert_eq!(a.selected().len(), 1);
        assert_eq!(parse("").unwrap().selected().len(), WORKLOADS.len());
    }

    #[test]
    fn bad_flags_are_refused() {
        for line in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--what 1",
            "--seed",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }
}
