//! The harness binaries' command line. Each binary declares what it accepts
//! once, in its usage string: `[--flag]` is a switch, `[--flag VALUE]` a
//! flag that takes a value and `[name]` the one bare argument. [`parse`]
//! reads `std::env::args` against it, and the getters on [`Cli`] convert
//! and check each value, so a binary reads its whole command line before it
//! does any work. Any error prints `error: …` and the usage to stderr and
//! exits with status 2.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

use dsm_sim::topology::TopologyKind;
use dsm_workloads::{App, Scale};

use crate::experiment::ExperimentConfig;
use crate::parallel;

/// Why a command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag the binary does not declare.
    UnknownFlag(String),
    /// A valued flag with nothing after it.
    MissingValue(String),
    /// A value that does not convert, or names a machine that cannot run.
    BadValue { flag: String, value: String, expected: String },
    /// A bare argument the binary has no room for.
    ExtraPositional(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadValue { flag, value, expected } => {
                write!(f, "bad {flag} {value:?}: {expected}")
            }
            CliError::ExtraPositional(arg) => write!(f, "unexpected argument {arg:?}"),
        }
    }
}

impl std::error::Error for CliError {}

/// A command line that matched its usage: the switches given and the raw
/// values, the positional filed under its name.
#[derive(Debug)]
pub struct Cli {
    usage: &'static str,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

fn exit(usage: &str, e: &CliError) -> ! {
    eprintln!("error: {e}\nusage: {usage}");
    std::process::exit(2)
}

/// Parse the process's arguments against `usage`, or exit with status 2.
pub fn parse(usage: &'static str) -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    try_parse(usage, &args).unwrap_or_else(|e| exit(usage, &e))
}

/// Parse `args`, the command line without the program name, against the
/// `[...]` groups of `usage`. `-j` stands for `--jobs` where that is declared.
pub fn try_parse(usage: &'static str, args: &[String]) -> Result<Cli, CliError> {
    let groups: Vec<Vec<&'static str>> = usage
        .split('[')
        .skip(1)
        .map(|g| g.split(']').next().unwrap_or_default().split_whitespace().collect())
        .filter(|g: &Vec<_>| !g.is_empty())
        .collect();
    let positional = groups.iter().map(|g| g[0]).find(|name| !name.starts_with('-'));
    let mut cli = Cli { usage, switches: Vec::new(), values: Vec::new() };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let name = if arg == "-j" { "--jobs" } else { arg.as_str() };
        match groups.iter().find(|g| g[0] == name && name.starts_with('-')) {
            Some(g) if g.len() == 1 => cli.switches.push(g[0]),
            Some(g) => {
                let value = args.next().ok_or_else(|| CliError::MissingValue(arg.clone()))?;
                cli.values.push((g[0], value.clone()));
            }
            None if arg.starts_with('-') => return Err(CliError::UnknownFlag(arg.clone())),
            None => match positional.filter(|p| cli.value(p).is_none()) {
                Some(p) => cli.values.push((p, arg.clone())),
                None => return Err(CliError::ExtraPositional(arg.clone())),
            },
        }
    }
    Ok(cli)
}

impl Cli {
    /// Whether `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The raw value of a valued flag or of the positional (by its name);
    /// the last one given wins.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// `name`'s value through `conv`, or `default` when it is absent.
    pub fn try_get<T>(
        &self,
        name: &str,
        default: T,
        conv: impl Fn(&str) -> Result<T, String>,
    ) -> Result<T, CliError> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => conv(v).map_err(|expected| CliError::BadValue {
                flag: name.to_string(),
                value: v.to_string(),
                expected,
            }),
        }
    }

    /// [`Cli::try_get`], exiting with status 2 on a bad value.
    pub fn get<T>(&self, name: &str, default: T, conv: impl Fn(&str) -> Result<T, String>) -> T {
        self.try_get(name, default, conv).unwrap_or_else(|e| exit(self.usage, &e))
    }

    /// `--scale test|scaled|paper`, `scaled` when absent.
    pub fn scale(&self) -> Scale {
        self.get("--scale", Scale::Scaled, scale)
    }

    /// `--telemetry-out DIR`, `None` (no export) when absent.
    pub fn telemetry_out(&self) -> Option<PathBuf> {
        self.value("--telemetry-out").map(PathBuf::from)
    }

    /// The worker count asked for: `--jobs N`, else `env` (the value of
    /// `DSM_JOBS`, which must then be a count). `None` leaves the hardware
    /// parallelism.
    pub fn try_jobs(&self, env: Option<String>) -> Result<Option<usize>, CliError> {
        match (self.value("--jobs"), env) {
            (None, Some(value)) => number(&value).map(Some).map_err(|expected| {
                CliError::BadValue { flag: "DSM_JOBS".into(), value, expected }
            }),
            _ => self.try_get("--jobs", None, |s| number(s).map(Some)),
        }
    }

    /// Size the worker pool from [`Cli::try_jobs`] (`--jobs 0` means 1) and
    /// return the worker count.
    pub fn jobs(&self) -> usize {
        let jobs = self.try_jobs(std::env::var("DSM_JOBS").ok());
        if let Some(n) = jobs.unwrap_or_else(|e| exit(self.usage, &e)) {
            parallel::set_jobs(n.max(1));
        }
        parallel::jobs()
    }
}

/// A count.
pub fn number<T: FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| "expected a non-negative integer".to_string())
}

/// A count of at least one.
pub fn positive<T: FromStr + Default + PartialEq>(s: &str) -> Result<T, String> {
    number(s).and_then(|n| if n != T::default() { Ok(n) } else { Err("expected at least 1".into()) })
}

/// An input scale.
pub fn scale(s: &str) -> Result<Scale, String> {
    match s {
        "test" => Ok(Scale::Test),
        "scaled" => Ok(Scale::Scaled),
        "paper" => Ok(Scale::Paper),
        _ => Err("expected test, scaled or paper".into()),
    }
}

/// A node count `n`, taken only if the experiment `at(n)` passes
/// [`ExperimentConfig::validate`].
pub fn procs(at: impl Fn(usize) -> ExperimentConfig) -> impl Fn(&str) -> Result<usize, String> {
    move |s| {
        let n = number(s)?;
        at(n).validate().map_err(|e| e.to_string())?;
        Ok(n)
    }
}

/// A workload, by its name in any case.
pub fn app(s: &str) -> Result<App, String> {
    let found = App::EXTENDED.into_iter().find(|a| a.name().eq_ignore_ascii_case(s));
    let names: Vec<&str> = App::EXTENDED.iter().map(|a| a.name()).collect();
    found.ok_or_else(|| format!("expected one of {}", names.join(", ")))
}

/// An interconnect layout, by [`TopologyKind::name`].
pub fn layout(s: &str) -> Result<TopologyKind, String> {
    let names: Vec<&str> = TopologyKind::ALL.iter().map(|k| k.name()).collect();
    TopologyKind::from_name(s).ok_or_else(|| format!("expected one of {}", names.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "t [n] [--smoke] [--scale S] [--jobs N] [--procs N]";

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        try_parse(USAGE, &args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn bad(flag: &str, value: &str, expected: &str) -> CliError {
        CliError::BadValue { flag: flag.into(), value: value.into(), expected: expected.into() }
    }

    #[test]
    fn declared_flags_parse_in_any_order() {
        let cli = parse(&["--scale", "test", "7", "--smoke", "--procs", "4"]).unwrap();
        assert!(cli.has("--smoke"));
        assert_eq!(cli.scale(), Scale::Test);
        assert_eq!(cli.value("n"), Some("7"));
        assert_eq!(cli.try_get("--procs", 32, number::<usize>), Ok(4));
        assert!(!parse(&[]).unwrap().has("--smoke"));
    }

    #[test]
    fn unknown_flag_is_refused() {
        assert_eq!(parse(&["--smok"]).unwrap_err(), CliError::UnknownFlag("--smok".into()));
        // `-j` is only an alias where `--jobs` is declared, and a
        // positional's name is not a flag.
        assert_eq!(try_parse("t", &["-j".into()]).unwrap_err(), CliError::UnknownFlag("-j".into()));
        assert_eq!(parse(&["n"]).unwrap().value("n"), Some("n"));
    }

    #[test]
    fn valued_flag_at_the_end_is_missing_its_value() {
        assert_eq!(parse(&["--procs"]).unwrap_err(), CliError::MissingValue("--procs".into()));
        assert_eq!(parse(&["--smoke", "-j"]).unwrap_err(), CliError::MissingValue("-j".into()));
    }

    #[test]
    fn bad_values_name_the_flag_and_what_was_expected() {
        let cli = parse(&["--scale", "huge", "--jobs", "abc"]).unwrap();
        assert_eq!(
            cli.try_get("--scale", Scale::Scaled, scale),
            Err(bad("--scale", "huge", "expected test, scaled or paper"))
        );
        assert_eq!(
            cli.try_jobs(None),
            Err(bad("--jobs", "abc", "expected a non-negative integer"))
        );
    }

    #[test]
    fn machine_values_carry_the_config_error() {
        let lu = |n| ExperimentConfig::test(App::Lu, n);
        let cli = parse(&["--procs", "3"]).unwrap();
        let err = cli.try_get("--procs", 32, procs(lu)).unwrap_err();
        let text = ExperimentConfig::test(App::Lu, 3).validate().unwrap_err().to_string();
        assert_eq!(err, bad("--procs", "3", &text));
        let cli = parse(&["256"]).unwrap();
        assert!(cli.try_get("n", 8, procs(lu)).is_err());
        assert_eq!(layout("ring"), Ok(TopologyKind::Ring));
        assert!(layout("nosuch").unwrap_err().contains("hypercube"));
        assert_eq!(app("OCEAN"), Ok(App::Ocean));
        assert!(app("gcc").is_err());
        assert_eq!(positive::<u64>("0"), Err("expected at least 1".into()));
    }

    #[test]
    fn second_positional_is_refused() {
        assert_eq!(parse(&["8", "16"]).unwrap_err(), CliError::ExtraPositional("16".into()));
        assert_eq!(try_parse("t", &["8".into()]).unwrap_err(), CliError::ExtraPositional("8".into()));
    }

    #[test]
    fn j_is_an_alias_of_jobs() {
        assert_eq!(parse(&["-j", "3"]).unwrap().try_jobs(None), Ok(Some(3)));
        assert_eq!(parse(&["--jobs", "0"]).unwrap().try_jobs(None), Ok(Some(0)));
    }

    #[test]
    fn dsm_jobs_is_the_fallback_for_jobs() {
        let env = |s: &str| Some(s.to_string());
        assert_eq!(parse(&[]).unwrap().try_jobs(env("5")), Ok(Some(5)));
        assert_eq!(parse(&["-j", "2"]).unwrap().try_jobs(env("5")), Ok(Some(2)));
        assert_eq!(parse(&[]).unwrap().try_jobs(env("0")), Ok(Some(0)));
        assert_eq!(
            parse(&[]).unwrap().try_jobs(env("many")),
            Err(bad("DSM_JOBS", "many", "expected a non-negative integer"))
        );
        // `--jobs` wins, so DSM_JOBS is not read at all.
        assert_eq!(parse(&["--jobs", "3"]).unwrap().try_jobs(env("many")), Ok(Some(3)));
        assert_eq!(parse(&[]).unwrap().try_jobs(None), Ok(None));
    }

    #[test]
    fn absent_values_take_their_defaults() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.scale(), Scale::Scaled);
        assert_eq!(cli.try_get("n", 8, number::<usize>), Ok(8));
        assert_eq!(cli.try_get("--procs", 32, number::<usize>), Ok(32));
        assert_eq!(cli.value("--telemetry-out"), None);
    }
}
