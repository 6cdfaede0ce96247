//! The argument layer every subcommand shares: one flag scanner driven by
//! a per-subcommand [`Spec`], the dialect resolver, feature selection →
//! composition, the `--write`/`--check` golden-file gate, and the error
//! type `main` turns into an exit code.
//!
//! Exit codes: 0 success; 1 rejection, failure or drift; 2 usage.

use sqlweave_core::Composed;
use sqlweave_dialects::Dialect;
use sqlweave_sql_features::catalog;
use std::process::ExitCode;
use std::str::FromStr;

/// Why a subcommand stopped early; `main` reports it and picks the exit
/// code.
pub enum CliError {
    /// Malformed invocation: print the usage text, exit 2.
    Usage,
    /// Print the message, exit 1: input rejected, a file unreadable, an
    /// inventory drifted.
    Failed(String),
    /// Print the message, exit 2: an argument value the usage text does not
    /// explain, or an internal error.
    Fatal(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failed(msg)
    }
}

/// What a subcommand returns: an exit code, or the error `main` reports.
pub type CmdResult = Result<ExitCode, CliError>;

/// How a flag consumes the argument after it.
#[derive(Clone, Copy)]
pub enum Flag {
    /// No value (`--recover`).
    Switch,
    /// Always takes the next argument (`--dialect NAME`).
    Value,
    /// Takes the next argument unless it is absent or another flag
    /// (`--codes [LIST]`); the bare form counts as a switch.
    OptionalValue,
}

/// One subcommand's argument grammar. Anything starting with `--` that is
/// not declared here is a usage error; everything else is positional.
pub struct Spec {
    pub flags: &'static [(&'static str, Flag)],
    /// Whether `--format text|json` is accepted.
    pub format: bool,
    /// Most positional arguments accepted (`usize::MAX` for a list).
    pub max_positionals: usize,
}

/// Arguments scanned against a [`Spec`].
pub struct Args {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    pub positionals: Vec<String>,
    /// `--format json` (the last `--format` wins).
    pub json: bool,
}

impl Spec {
    pub fn scan(&self, args: &[String]) -> Result<Args, CliError> {
        let mut out = Args {
            values: Vec::new(),
            switches: Vec::new(),
            positionals: Vec::new(),
            json: false,
        };
        let mut rest = args.iter().peekable();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                out.positionals.push(arg.clone());
                continue;
            }
            if self.format && arg == "--format" {
                out.json = match rest.next().map(String::as_str) {
                    Some("json") => true,
                    Some("text") => false,
                    _ => return Err(CliError::Usage),
                };
                continue;
            }
            let Some(&(name, kind)) = self.flags.iter().find(|(name, _)| name == arg) else {
                return Err(CliError::Usage);
            };
            match kind {
                Flag::Switch => out.switches.push(name),
                Flag::Value => out
                    .values
                    .push((name, rest.next().ok_or(CliError::Usage)?.clone())),
                Flag::OptionalValue => match rest.next_if(|v| !v.starts_with("--")) {
                    Some(v) => out.values.push((name, v.clone())),
                    None => out.switches.push(name),
                },
            }
        }
        if out.positionals.len() > self.max_positionals {
            return Err(CliError::Usage);
        }
        Ok(out)
    }
}

impl Args {
    /// Whether switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// Every value given for `flag`, in order.
    pub fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.values
            .iter()
            .filter(move |(name, _)| *name == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The last value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let (_, v) = self.values.iter().rev().find(|(name, _)| *name == flag)?;
        Some(v)
    }

    /// The last value of `flag` parsed as `T`. A value that does not parse
    /// or fails `valid` is a usage error, wherever it appears.
    pub fn parsed<T: FromStr>(
        &self,
        flag: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, CliError> {
        let mut last = None;
        for v in self.values(flag) {
            last = Some(v.parse().ok().filter(&valid).ok_or(CliError::Usage)?);
        }
        Ok(last)
    }

    /// The single positional argument, if any.
    pub fn positional(&self) -> Option<&str> {
        self.positionals.first().map(String::as_str)
    }

    /// `--dialect NAME`, resolved.
    pub fn dialect(&self) -> Result<Option<Dialect>, CliError> {
        self.value("--dialect").map(dialect).transpose()
    }

    /// `--write FILE` / `--check FILE`.
    pub fn golden(&self) -> Golden<'_> {
        Golden {
            write: self.value("--write"),
            check: self.value("--check"),
        }
    }
}

/// Resolve a preset dialect by name.
fn dialect(name: &str) -> Result<Dialect, CliError> {
    Dialect::ALL
        .into_iter()
        .find(|d| d.name() == name)
        .ok_or_else(|| {
            format!("unknown dialect `{name}`; run `sqlweave dialects` for the list").into()
        })
}

/// Complete a feature selection against the catalog and compose it. An
/// empty selection is a usage error.
pub fn compose_features(features: &[String]) -> Result<Composed, CliError> {
    if features.is_empty() {
        return Err(CliError::Usage);
    }
    let cat = catalog();
    let config = cat
        .complete(features.iter().cloned())
        .map_err(|e| format!("invalid selection: {e}"))?;
    Ok(cat
        .pipeline()
        .compose(&config)
        .map_err(|e| format!("composition failed: {e}"))?)
}

/// Read a whole file, failing with "cannot read `PATH`: …".
pub fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}").into())
}

/// Write a JSON document (plus a trailing newline) and say so on stderr.
pub fn write_doc(path: &str, doc: &str) -> Result<(), CliError> {
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// The golden-file workflow of the inventory commands: `--write` refreshes
/// the checked-in document, `--check` fails on any drift from it.
pub struct Golden<'a> {
    write: Option<&'a str>,
    check: Option<&'a str>,
}

impl Golden<'_> {
    /// Whether neither `--write` nor `--check` was given.
    pub fn is_off(&self) -> bool {
        self.write.is_none() && self.check.is_none()
    }

    pub fn write(&self, doc: &str) -> Result<(), CliError> {
        self.write.map_or(Ok(()), |path| write_doc(path, doc))
    }

    /// Compare `doc` with the `--check` file; `what` names the inventory in
    /// the drift message.
    pub fn check(&self, doc: &str, what: &str) -> Result<(), CliError> {
        let Some(path) = self.check else {
            return Ok(());
        };
        if read_file(path)?.trim_end() != doc {
            return Err(format!(
                "{what} inventory drifted from `{path}`; \
                 rerun with `--write {path}` and review the diff"
            )
            .into());
        }
        eprintln!("inventory matches {path}");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        flags: &[
            ("--dialect", Flag::Value),
            ("--recover", Flag::Switch),
            ("--codes", Flag::OptionalValue),
            ("--limit", Flag::Value),
        ],
        format: true,
        max_positionals: 1,
    };

    fn scan(v: &[&str]) -> Result<Args, CliError> {
        SPEC.scan(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn is_usage(r: Result<Args, CliError>) -> bool {
        matches!(r, Err(CliError::Usage))
    }

    #[test]
    fn scans_declared_flags_and_positionals() {
        let a = scan(&[
            "--recover",
            "--format",
            "json",
            "--dialect",
            "core",
            "SELECT 1",
        ])
        .ok()
        .unwrap();
        assert!(a.has("--recover") && a.json);
        assert_eq!(a.value("--dialect"), Some("core"));
        assert_eq!(a.positional(), Some("SELECT 1"));
        // The last `--format` and the last value win.
        let a = scan(&[
            "--format",
            "json",
            "--format",
            "text",
            "--dialect",
            "a",
            "--dialect",
            "b",
        ])
        .ok()
        .unwrap();
        assert!(!a.json);
        assert_eq!(a.value("--dialect"), Some("b"));
        assert_eq!(a.values("--dialect").collect::<Vec<_>>(), ["a", "b"]);
    }

    #[test]
    fn optional_value_flag_takes_a_value_only_when_one_follows() {
        let a = scan(&["--codes", "SW001", "--recover"]).ok().unwrap();
        assert_eq!(a.value("--codes"), Some("SW001"));
        assert!(!a.has("--codes"));
        let a = scan(&["--codes", "--recover"]).ok().unwrap();
        assert!(a.has("--codes") && a.value("--codes").is_none());
        assert!(scan(&["--codes"]).ok().unwrap().has("--codes"));
    }

    #[test]
    fn malformed_invocations_are_usage_errors() {
        assert!(is_usage(scan(&["--format", "yaml"])));
        assert!(is_usage(scan(&["--format"])));
        assert!(is_usage(scan(&["--dialect"])));
        assert!(is_usage(scan(&["--bogus", "SELECT 1"])));
        assert!(is_usage(scan(&["a", "b"])));
        let a = scan(&["--limit", "0"]).ok().unwrap();
        assert!(matches!(
            a.parsed::<usize>("--limit", |&n| n > 0),
            Err(CliError::Usage)
        ));
        // A bad value is rejected even when a later one is good.
        let a = scan(&["--limit", "x", "--limit", "4"]).ok().unwrap();
        assert!(a.parsed::<usize>("--limit", |_| true).is_err());
        let a = scan(&["--limit", "4"]).ok().unwrap();
        assert_eq!(
            a.parsed::<usize>("--limit", |&n| n > 0).ok().unwrap(),
            Some(4)
        );
    }

    #[test]
    fn bad_dialect_name_points_at_the_list_command() {
        assert_eq!(dialect("pico").ok(), Some(Dialect::Pico));
        let Err(CliError::Failed(msg)) = dialect("nope") else {
            panic!("a bad dialect name must fail with a message");
        };
        assert!(
            msg.contains("`nope`") && msg.contains("run `sqlweave dialects`"),
            "{msg}"
        );
    }
}
