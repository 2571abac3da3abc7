//! Hand-rolled flag parsing for the `coopcache` binary.
//!
//! Deliberately dependency-free: the grammar is tiny (one subcommand,
//! `--flag value` pairs) and the offered crate set has no argument
//! parser, so a 150-line parser beats pulling one in.

use coopcache_core::{PlacementScheme, PolicyKind};
use coopcache_proxy::Discovery;
use coopcache_trace::TraceProfile;
use coopcache_types::{ByteSize, DurationMs};
use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: subcommand plus `--key value` flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag argument).
    pub command: String,
    flags: BTreeMap<String, String>,
}

/// Error produced while parsing or interpreting arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

fn err(msg: impl Into<String>) -> ArgError {
    ArgError(msg.into())
}

impl ParsedArgs {
    /// Parses `argv` (without the program name).
    ///
    /// # Errors
    ///
    /// Rejects missing subcommands, flags without values, duplicate
    /// flags, and stray positional arguments.
    pub fn parse<I, S>(argv: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut items = argv.into_iter().map(Into::into);
        let command = items.next().ok_or_else(|| err("missing subcommand"))?;
        if command.starts_with('-') {
            return Err(err(format!("expected a subcommand, got flag {command}")));
        }
        let mut flags = BTreeMap::new();
        while let Some(item) = items.next() {
            let Some(key) = item.strip_prefix("--") else {
                return Err(err(format!("unexpected positional argument {item:?}")));
            };
            let value = items
                .next()
                .ok_or_else(|| err(format!("flag --{key} needs a value")))?;
            if flags.insert(key.to_owned(), value).is_some() {
                return Err(err(format!("flag --{key} given twice")));
            }
        }
        Ok(Self { command, flags })
    }

    /// The raw value of a flag, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// A flag parsed via `FromStr`, if present.
    ///
    /// # Errors
    ///
    /// Reports the flag name on parse failure.
    pub fn get_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError>
    where
        T::Err: fmt::Display,
    {
        self.get(key)
            .map(|raw| {
                raw.parse()
                    .map_err(|e| err(format!("--{key} {raw:?}: {e}")))
            })
            .transpose()
    }

    /// A flag parsed via `FromStr`, or a default.
    ///
    /// # Errors
    ///
    /// Reports the flag name on parse failure.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: fmt::Display,
    {
        Ok(self.get_opt(key)?.unwrap_or(default))
    }

    /// A `true`/`false` flag (also `yes`/`no`, `1`/`0`), false when absent.
    ///
    /// # Errors
    ///
    /// Reports the flag name for any other value.
    pub fn get_bool(&self, key: &str) -> Result<bool, ArgError> {
        match self.get(key) {
            None | Some("false" | "no" | "0") => Ok(false),
            Some("true" | "yes" | "1") => Ok(true),
            Some(other) => Err(err(format!("--{key} {other:?}: expected true or false"))),
        }
    }

    /// Ensures only the listed flags were used.
    ///
    /// # Errors
    ///
    /// Names the first unknown flag.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for key in self.flags.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(err(format!(
                    "unknown flag --{key} for `{}` (allowed: {})",
                    self.command,
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

/// Parses a byte size: raw bytes (`4096`) or suffixed (`100KB`, `10MB`,
/// `1GB`, decimal units).
///
/// # Errors
///
/// Rejects malformed numbers, unknown suffixes and sizes past `u64`
/// bytes.
pub fn parse_size(raw: &str) -> Result<ByteSize, ArgError> {
    let raw = raw.trim();
    let (digits, factor) = if let Some(d) = raw.strip_suffix("GB") {
        (d, 1_000_000_000)
    } else if let Some(d) = raw.strip_suffix("MB") {
        (d, 1_000_000)
    } else if let Some(d) = raw.strip_suffix("KB") {
        (d, 1_000)
    } else if let Some(d) = raw.strip_suffix('B') {
        (d, 1)
    } else {
        (raw, 1)
    };
    let value: u64 = digits
        .trim()
        .parse()
        .map_err(|e| err(format!("invalid size {raw:?}: {e}")))?;
    value
        .checked_mul(factor)
        .map(ByteSize::from_bytes)
        .ok_or_else(|| err(format!("invalid size {raw:?}: too large")))
}

/// Parses a placement scheme name.
///
/// # Errors
///
/// Lists the accepted names on failure.
pub fn parse_scheme(raw: &str) -> Result<PlacementScheme, ArgError> {
    match raw {
        "adhoc" | "ad-hoc" => Ok(PlacementScheme::AdHoc),
        "ea" => Ok(PlacementScheme::Ea),
        "ea-tie-store" => Ok(PlacementScheme::EaTieStore),
        other => Err(err(format!(
            "unknown scheme {other:?} (adhoc, ea, ea-tie-store)"
        ))),
    }
}

/// Parses a replacement policy name.
///
/// # Errors
///
/// Lists the accepted names on failure.
pub fn parse_policy(raw: &str) -> Result<PolicyKind, ArgError> {
    match raw {
        "lru" => Ok(PolicyKind::Lru),
        "lfu" => Ok(PolicyKind::Lfu),
        "fifo" => Ok(PolicyKind::Fifo),
        "gdsf" => Ok(PolicyKind::Gdsf),
        "gds" => Ok(PolicyKind::Gds),
        "slru" => Ok(PolicyKind::Slru),
        "s3fifo" => Ok(PolicyKind::S3Fifo),
        other => Err(err(format!(
            "unknown policy {other:?} (lru, lfu, fifo, gdsf, gds, slru, s3fifo)"
        ))),
    }
}

/// Parses a discovery mechanism: `icp`, `isolated`, or `digest:SECONDS`.
///
/// # Errors
///
/// Lists the accepted forms on failure, and rejects a digest period past
/// `u64` milliseconds.
pub fn parse_discovery(raw: &str) -> Result<Discovery, ArgError> {
    if raw == "icp" {
        return Ok(Discovery::Icp);
    }
    if raw == "isolated" {
        return Ok(Discovery::Isolated);
    }
    if let Some(secs) = raw.strip_prefix("digest:") {
        let ms = secs
            .parse::<u64>()
            .map_err(|e| err(format!("invalid digest period {secs:?}: {e}")))?
            .checked_mul(1_000)
            .ok_or_else(|| err(format!("invalid digest period {secs:?}: too large")))?;
        return Ok(Discovery::Digest {
            refresh_every: DurationMs::from_millis(ms),
            fp_rate: 0.01,
        });
    }
    Err(err(format!(
        "unknown discovery {raw:?} (icp, isolated, digest:SECONDS)"
    )))
}

/// Parses a built-in trace profile name.
///
/// # Errors
///
/// Lists the accepted names on failure.
pub fn parse_profile(raw: &str) -> Result<TraceProfile, ArgError> {
    match raw {
        "small" => Ok(TraceProfile::small()),
        "medium" => Ok(TraceProfile::medium()),
        "bu94" => Ok(TraceProfile::bu94()),
        other => Err(err(format!(
            "unknown profile {other:?} (small, medium, bu94)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_and_flags() {
        let a = ParsedArgs::parse(["simulate", "--caches", "8", "--scheme", "ea"]).unwrap();
        assert_eq!(a.command, "simulate");
        assert_eq!(a.get("caches"), Some("8"));
        assert_eq!(a.get_or("caches", 4u16).unwrap(), 8);
        assert_eq!(a.get_or("missing", 4u16).unwrap(), 4);
        assert_eq!(a.get_opt::<u16>("missing").unwrap(), None);
        assert!(a.expect_only(&["caches", "scheme"]).is_ok());
        assert!(a.expect_only(&["caches"]).is_err());
    }

    #[test]
    fn rejects_malformed_command_lines() {
        assert!(ParsedArgs::parse(Vec::<String>::new()).is_err());
        assert!(ParsedArgs::parse(["--caches", "8"]).is_err());
        assert!(ParsedArgs::parse(["run", "stray"]).is_err());
        assert!(ParsedArgs::parse(["run", "--flag"]).is_err());
        assert!(ParsedArgs::parse(["run", "--a", "1", "--a", "2"]).is_err());
        let a = ParsedArgs::parse(["run", "--caches", "x"]).unwrap();
        assert!(a.get_or("caches", 4u16).is_err());
    }

    #[test]
    fn size_parsing() {
        assert_eq!(parse_size("4096").unwrap(), ByteSize::from_bytes(4096));
        assert_eq!(parse_size("100KB").unwrap(), ByteSize::from_kb(100));
        assert_eq!(parse_size("10MB").unwrap(), ByteSize::from_mb(10));
        assert_eq!(parse_size("1GB").unwrap(), ByteSize::from_gb(1));
        assert_eq!(parse_size("512B").unwrap(), ByteSize::from_bytes(512));
        assert!(parse_size("ten").is_err());
        assert!(parse_size("10TB").is_err());
    }

    #[test]
    fn scheme_policy_discovery_profile_parsing() {
        assert_eq!(parse_scheme("ea").unwrap(), PlacementScheme::Ea);
        assert_eq!(parse_scheme("adhoc").unwrap(), PlacementScheme::AdHoc);
        assert!(parse_scheme("best").is_err());
        assert_eq!(parse_policy("gdsf").unwrap(), PolicyKind::Gdsf);
        assert_eq!(parse_policy("s3fifo").unwrap(), PolicyKind::S3Fifo);
        assert!(parse_policy("mru").is_err());
        assert_eq!(parse_discovery("icp").unwrap(), Discovery::Icp);
        assert!(matches!(
            parse_discovery("digest:60").unwrap(),
            Discovery::Digest { .. }
        ));
        assert!(parse_discovery("digest:x").is_err());
        assert!(parse_discovery("gossip").is_err());
        assert_eq!(parse_profile("small").unwrap(), TraceProfile::small());
        assert!(parse_profile("huge").is_err());
    }
}
