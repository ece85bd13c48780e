//! Command-line flags, read the same way by every front end: the
//! `gpu-autotune` binary, the experiment binaries and the `sad_search`
//! example.
//!
//! A front end wraps its arguments in [`Args`] and looks up each flag
//! it reads — a typed value, a switch, or a group such as the engine
//! or the selection flags (`--filter` may repeat). Then
//! [`Args::finish`] rejects every argument no lookup claimed with
//! ``unknown flag `--x` ``, so a mistyped or unsupported flag fails the
//! run instead of being ignored. [`parse_env`] does all of this for a
//! binary's process arguments.
//!
//! A flag's value is the argument after it, unless that argument is
//! itself a flag (starts with `--`), in which case the value is
//! missing. A repeated flag takes its last value, but every occurrence
//! must be well formed. A lookup whose flag has a missing or unusable
//! value fails with `<flag> needs <what>`, the wording the front ends
//! have always used; errors are messages ready to print.

use std::str::FromStr;
use std::sync::Arc;

use crate::engine::{EngineConfig, EvalEngine, FaultPlan, ResultStore};
use crate::space::{Filter, Sample, Selection};

/// Arguments being read, with the ones a lookup has claimed.
#[derive(Debug)]
pub struct Args {
    args: Vec<String>,
    claimed: Vec<bool>,
}

impl Args {
    /// Wrap `args` (without the program name).
    pub fn new(args: Vec<String>) -> Self {
        let claimed = vec![false; args.len()];
        Self { args, claimed }
    }

    /// Whether the switch `flag` is given.
    pub fn switch(&mut self, flag: &str) -> bool {
        let mut found = false;
        for (a, claimed) in self.args.iter().zip(&mut self.claimed) {
            if a == flag {
                *claimed = true;
                found = true;
            }
        }
        found
    }

    /// The value of every occurrence of `flag`, in order.
    fn values(&mut self, flag: &str, needs: &str) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        for i in 0..self.args.len() {
            if self.args[i] != flag {
                continue;
            }
            self.claimed[i] = true;
            match self.args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    self.claimed[i + 1] = true;
                    out.push(v.clone());
                }
                _ => return Err(format!("{flag} needs {needs}")),
            }
        }
        Ok(out)
    }

    /// The last value of `flag`, converted by `parse`; a value `parse`
    /// rejects is unusable.
    pub fn value_with<T>(
        &mut self,
        flag: &str,
        needs: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        for v in self.values(flag, needs)? {
            last = Some(parse(&v).ok_or_else(|| format!("{flag} needs {needs}"))?);
        }
        Ok(last)
    }

    /// The last value of `flag` as text.
    pub fn text(&mut self, flag: &str, needs: &str) -> Result<Option<String>, String> {
        self.value_with(flag, needs, |v| Some(v.to_string()))
    }

    /// The last value of `flag`, parsed.
    pub fn number<T: FromStr>(&mut self, flag: &str, needs: &str) -> Result<Option<T>, String> {
        self.value_with(flag, needs, |v| v.parse().ok())
    }

    /// The last value of `flag`, parsed; zero and below are unusable.
    pub fn positive<T: FromStr + PartialOrd + Default>(
        &mut self,
        flag: &str,
        needs: &str,
    ) -> Result<Option<T>, String> {
        self.value_with(flag, needs, |v| v.parse().ok().filter(|n| *n > T::default()))
    }

    /// The path `flag` names for a file the run will write, checked by
    /// [`writable_parent`].
    pub fn output(&mut self, flag: &str) -> Result<Option<String>, String> {
        let path = self.text(flag, "a path")?;
        if let Some(p) = &path {
            writable_parent(p)?;
        }
        Ok(path)
    }

    /// `--jobs N`: evaluation worker threads, 1 when absent.
    pub fn jobs(&mut self) -> Result<usize, String> {
        Ok(self.positive("--jobs", "a number >= 1")?.unwrap_or(1))
    }

    /// The engine flags: `--jobs N`, `--sim-fuel N`, `--check-races`,
    /// `--retries N`, `--inject-faults`, `--fault-seed N` (which
    /// requires `--inject-faults`) and `--store-dir <dir>`, whose result
    /// store is opened here.
    pub fn engine_flags(&mut self) -> Result<EngineFlags, String> {
        let mut config = EngineConfig { jobs: self.jobs()?, ..Default::default() };
        config.sim_fuel = self.positive("--sim-fuel", "a positive number of steps")?;
        config.check_races = self.switch("--check-races");
        if let Some(n) = self.positive("--retries", "a number >= 1")? {
            config.retry.max_attempts = n;
        }
        let fault_seed = self.number("--fault-seed", "a number")?;
        config.fault_plan = match (self.switch("--inject-faults"), fault_seed) {
            (false, None) => None,
            (false, Some(_)) => return Err("--fault-seed requires --inject-faults".to_string()),
            (true, None) => Some(FaultPlan::default()),
            (true, Some(seed)) => Some(FaultPlan::with_seed(seed)),
        };
        let store = match self.text("--store-dir", "a directory")? {
            Some(dir) => Some(Arc::new(
                ResultStore::open(&dir)
                    .map_err(|e| format!("cannot open result store {dir}: {e}"))?,
            )),
            None => None,
        };
        Ok(EngineFlags { config, store })
    }

    /// The selection flags: every `--filter axis=value`, plus
    /// `--sample N` and `--sample-seed S` (which requires `--sample`).
    pub fn selection(&mut self) -> Result<Selection, String> {
        let filters = self
            .values("--filter", "axis=value")?
            .iter()
            .map(|raw| Filter::parse(raw).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let count = self.positive("--sample", "a number >= 1")?;
        let seed = self.number("--sample-seed", "a number")?;
        if seed.is_some() && count.is_none() {
            return Err("--sample-seed requires --sample".to_string());
        }
        Ok(Selection {
            filters,
            sample: count.map(|count| Sample { count, seed: seed.unwrap_or(0) }),
        })
    }

    /// Claim the first argument no lookup has claimed, unless it is a
    /// flag. Read positionals after every flag, so that flag values are
    /// already claimed.
    pub fn positional(&mut self) -> Option<String> {
        let unclaimed = self.claimed.iter().position(|&claimed| !claimed);
        let i = unclaimed.filter(|&i| !self.args[i].starts_with("--"))?;
        self.claimed[i] = true;
        Some(self.args[i].clone())
    }

    /// Finish reading: ``unknown flag `<arg>` `` for the first argument
    /// no lookup claimed.
    pub fn finish(self) -> Result<(), String> {
        match self.args.iter().zip(&self.claimed).find(|(_, &claimed)| !claimed) {
            Some((a, _)) => Err(format!("unknown flag `{a}`")),
            None => Ok(()),
        }
    }
}

/// Read the process arguments with `read`, then [`Args::finish`]. On
/// any error, print it to stderr and exit with status 1.
pub fn parse_env<T>(read: impl FnOnce(&mut Args) -> Result<T, String>) -> T {
    let mut args = Args::new(std::env::args().skip(1).collect());
    match read(&mut args).and_then(|value| args.finish().map(|()| value)) {
        Ok(value) => value,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// [`parse_env`] for a binary that reads no flags: any argument fails.
pub fn no_flags() {
    parse_env(|_| Ok(()));
}

/// The engine flags of a front end: each search gets a fresh engine
/// (its own memo cache), and all of them share the one `--store-dir`
/// store.
#[derive(Debug)]
pub struct EngineFlags {
    /// Workers, retries, fuel, fault injection and race checking.
    pub config: EngineConfig,
    /// The opened `--store-dir` result store.
    pub store: Option<Arc<ResultStore>>,
}

impl EngineFlags {
    /// A fresh engine with these settings.
    pub fn engine(&self) -> EvalEngine {
        let engine = EvalEngine::new(self.config);
        match &self.store {
            Some(store) => engine.with_store(Arc::clone(store)),
            None => engine,
        }
    }
}

/// Check that `path` can plausibly be created: its parent directory,
/// when it names one, must already exist. Run before a long search, so
/// a doomed export fails in seconds instead of after the search.
pub fn writable_parent(path: &str) -> Result<(), String> {
    match std::path::Path::new(path).parent() {
        Some(parent) if !parent.as_os_str().is_empty() && !parent.is_dir() => Err(format!(
            "cannot write {path}: parent directory `{}` does not exist",
            parent.display()
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn repeated_flags_take_their_last_value() {
        let mut a = args(&["--jobs", "2", "--filter", "a=1", "--jobs", "3", "--filter", "b=2"]);
        assert_eq!(a.jobs(), Ok(3));
        assert_eq!(a.values("--filter", "axis=value").unwrap(), ["a=1", "b=2"]);
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn every_occurrence_must_be_well_formed() {
        let mut a = args(&["--jobs", "0", "--jobs", "2"]);
        assert_eq!(a.jobs(), Err("--jobs needs a number >= 1".to_string()));
    }

    #[test]
    fn a_flag_is_never_another_flags_value() {
        let mut a = args(&["--trace-out", "--profile"]);
        assert_eq!(a.output("--trace-out"), Err("--trace-out needs a path".to_string()));
        let mut a = args(&["--seed", "--jobs", "2"]);
        assert_eq!(a.jobs(), Ok(2));
        assert_eq!(a.number::<u64>("--seed", "a number"), Err("--seed needs a number".into()));
    }

    #[test]
    fn unclaimed_arguments_are_unknown_flags() {
        let mut a = args(&["--verbose", "--jbos", "2"]);
        assert!(a.switch("--verbose"));
        assert!(!a.switch("--profile"));
        assert_eq!(a.jobs(), Ok(1));
        assert_eq!(a.finish(), Err("unknown flag `--jbos`".to_string()));
        let mut a = args(&["--profile", "stray"]);
        assert!(a.switch("--profile"));
        assert_eq!(a.finish(), Err("unknown flag `stray`".to_string()));
    }

    #[test]
    fn selection_checks_its_dependencies() {
        let mut a = args(&["--sample-seed", "4"]);
        assert_eq!(a.selection(), Err("--sample-seed requires --sample".to_string()));
        let mut a = args(&["--sample", "x"]);
        assert_eq!(a.selection(), Err("--sample needs a number >= 1".to_string()));
        let mut a = args(&["--filter", "tile"]);
        assert_eq!(a.selection(), Err("bad filter `tile` (expected axis=value)".to_string()));
        let mut a = args(&["--filter", "tile=16", "--sample", "3", "--sample-seed", "9"]);
        let s = a.selection().unwrap();
        assert_eq!(s.filters, [Filter { axis: "tile".into(), value: "16".into() }]);
        assert_eq!(s.sample, Some(Sample { count: 3, seed: 9 }));
    }

    #[test]
    fn engine_flags_read_the_fault_flags_together() {
        let mut a = args(&["--fault-seed", "9"]);
        let err = a.engine_flags().unwrap_err();
        assert_eq!(err, "--fault-seed requires --inject-faults");
        let mut a = args(&["--inject-faults", "--fault-seed", "9", "--retries", "2"]);
        let config = a.engine_flags().unwrap().config;
        assert_eq!(config.fault_plan, Some(FaultPlan::with_seed(9)));
        assert_eq!(config.retry.max_attempts, 2);
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn outputs_need_an_existing_parent() {
        let mut a = args(&["--metrics-out", "/no/such/dir/m.json"]);
        assert_eq!(
            a.output("--metrics-out"),
            Err("cannot write /no/such/dir/m.json: parent directory `/no/such/dir` does not exist"
                .to_string())
        );
        assert_eq!(writable_parent("m.json"), Ok(()));
    }
}
