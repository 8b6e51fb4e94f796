//! `lint.toml` — rule levels and path policies.
//!
//! The parser understands exactly the TOML subset the checked-in config
//! uses: `[section]` headers, `key = "string"`, and `key = [ … ]`
//! string arrays (single-line or multi-line), with `#` comments. That
//! keeps the analyzer self-contained — no TOML crate, same discipline
//! as the hand-rolled lexer.

use std::collections::BTreeMap;

/// Severity of a rule, from `lint.toml`'s `[levels]` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Rule disabled.
    Allow,
    /// Reported, but does not fail the run.
    Warn,
    /// Reported and fails the run (nonzero exit).
    Deny,
}

impl Level {
    /// The lowercase name used in `lint.toml` and in diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Allow => "allow",
            Level::Warn => "warn",
            Level::Deny => "deny",
        }
    }

    fn parse(s: &str) -> Option<Level> {
        match s {
            "allow" => Some(Level::Allow),
            "warn" => Some(Level::Warn),
            "deny" => Some(Level::Deny),
            _ => None,
        }
    }
}

/// Every rule the engine knows, with its id and one-line summary.
/// (`A1` polices the escape hatch itself, so the hatch cannot silently
/// rot into reason-less suppressions.)
pub const RULES: &[(&str, &str)] = &[
    ("D1", "nondeterminism sources in library code"),
    ("P1", "panicking calls in library code"),
    ("F1", "bare float (in)equality against a literal"),
    ("L1", "crate-layering violation in a manifest"),
    ("U1", "unsafe code"),
    ("A1", "malformed or reason-less demt-lint directive"),
    ("P2", "pub fn with a transitively reachable panic site"),
    ("A2", "stale allow(...) directive suppressing nothing"),
    (
        "D2",
        "order-sensitive float accumulation over an unordered source",
    ),
];

/// Returns true when `id` names a rule the engine implements.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == id)
}

/// Parsed configuration: rule levels plus path policies.
#[derive(Debug, Clone)]
pub struct Config {
    /// Per-rule severity; rules absent from `lint.toml` default to deny.
    pub levels: BTreeMap<String, Level>,
    /// Path prefixes (relative to the workspace root, `/`-separated)
    /// skipped entirely.
    pub exclude: Vec<String>,
    /// The designated timing modules: files where `Instant::now` /
    /// `SystemTime` are legitimate (they feed wall-clock *reporting*
    /// fields, never scheduling decisions).
    pub timing: Vec<String>,
    /// `[p2] baseline`: workspace-relative path of the P2
    /// panic-reachability baseline file.
    pub p2_baseline: String,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            levels: BTreeMap::new(),
            exclude: vec![
                "vendor".to_string(),
                "target".to_string(),
                "crates/lint/tests/fixtures".to_string(),
            ],
            timing: Vec::new(),
            p2_baseline: "panic_reach.toml".to_string(),
        }
    }
}

impl Config {
    /// Effective level for a rule id (deny unless configured otherwise).
    pub fn level(&self, rule: &str) -> Level {
        self.levels.get(rule).copied().unwrap_or(Level::Deny)
    }

    /// True when the `/`-separated relative path falls under an
    /// excluded prefix.
    pub fn is_excluded(&self, rel: &str) -> bool {
        self.exclude
            .iter()
            .any(|p| rel == p || rel.starts_with(&format!("{p}/")))
    }

    /// True when the file is a designated timing module.
    pub fn is_timing_module(&self, rel: &str) -> bool {
        self.timing.iter().any(|p| p == rel)
    }

    /// Parses `lint.toml` text. Errors carry a line number and are
    /// meant for the CLI to print verbatim.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config {
            exclude: Vec::new(),
            timing: Vec::new(),
            ..Config::default()
        };
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("lint.toml:{lineno}: expected `key = value`"));
            };
            let key = key.trim();
            let mut value = value.trim().to_string();
            // Multi-line array: keep consuming lines until the `]`.
            if value.starts_with('[') && !value.ends_with(']') {
                for (_, cont) in lines.by_ref() {
                    let cont = strip_comment(cont);
                    value.push(' ');
                    value.push_str(cont.trim());
                    if cont.trim_end().ends_with(']') {
                        break;
                    }
                }
                if !value.ends_with(']') {
                    return Err(format!("lint.toml:{lineno}: unterminated array for {key}"));
                }
            }
            match section.as_str() {
                "levels" => {
                    let level = parse_string(&value)
                        .and_then(|v| Level::parse(&v))
                        .ok_or_else(|| {
                            format!(
                                "lint.toml:{lineno}: {key} must be \"allow\", \"warn\" or \"deny\""
                            )
                        })?;
                    if !known_rule(key) {
                        return Err(format!("lint.toml:{lineno}: unknown rule id {key}"));
                    }
                    cfg.levels.insert(key.to_string(), level);
                }
                "paths" => {
                    let items = parse_string_array(&value).ok_or_else(|| {
                        format!("lint.toml:{lineno}: {key} must be an array of strings")
                    })?;
                    match key {
                        "exclude" => cfg.exclude = items,
                        "timing" => cfg.timing = items,
                        other => {
                            return Err(format!("lint.toml:{lineno}: unknown paths key {other}"))
                        }
                    }
                }
                "p2" => match key {
                    "baseline" => {
                        cfg.p2_baseline = parse_string(&value).ok_or_else(|| {
                            format!("lint.toml:{lineno}: baseline must be a string path")
                        })?;
                    }
                    other => return Err(format!("lint.toml:{lineno}: unknown p2 key {other}")),
                },
                other => {
                    return Err(format!("lint.toml:{lineno}: unknown section [{other}]"));
                }
            }
        }
        Ok(cfg)
    }
}

/// Parses a `panic_reach.toml` baseline: the quoted fn keys inside the
/// `[p2] entries = [ … ]` array, each with its 1-based line number (so
/// a stale entry can be reported *at* its line). Tolerant of comments
/// and blank lines; anything else that is not part of the expected
/// shape is an error.
pub fn parse_baseline(text: &str) -> Result<Vec<(String, u32)>, String> {
    let mut out: Vec<(String, u32)> = Vec::new();
    let mut in_entries = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() || line == "[p2]" {
            continue;
        }
        if !in_entries {
            match line.as_str() {
                "entries = [" => in_entries = true,
                "entries = []" => {}
                _ => {
                    return Err(format!(
                        "panic_reach.toml:{lineno}: expected `[p2]` / `entries = [`"
                    ))
                }
            }
            continue;
        }
        if line == "]" {
            in_entries = false;
            continue;
        }
        let key = parse_string(line.trim_end_matches(','))
            .ok_or_else(|| format!("panic_reach.toml:{lineno}: expected a quoted fn key"))?;
        out.push((key, lineno));
    }
    if in_entries {
        return Err("panic_reach.toml: unterminated entries array".to_string());
    }
    Ok(out)
}

/// Renders a baseline file for `--update-baseline`: sorted keys, one
/// per line, with the regeneration recipe in the header.
pub fn render_baseline(keys: &[String]) -> String {
    let mut out = String::from(
        "# demt-lint P2 panic-reachability baseline.\n\
         #\n\
         # Every entry is a `pub` library fn from which a panic site is\n\
         # transitively reachable over the workspace call graph. CI forbids\n\
         # this file from gaining entries; shrink it by converting panic\n\
         # paths to typed Results or annotating `allow(P2, reason)` at the\n\
         # fn, then regenerate with: demt lint --update-baseline\n\
         [p2]\n\
         entries = [\n",
    );
    for key in keys {
        out.push_str(&format!("  \"{key}\",\n"));
    }
    out.push_str("]\n");
    out
}

/// Drops a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// `"value"` → `value`.
fn parse_string(v: &str) -> Option<String> {
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
}

/// `["a", "b"]` → `[a, b]` (trailing comma tolerated).
fn parse_string_array(v: &str) -> Option<Vec<String>> {
    let inner = v.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_real_shape() {
        let cfg = Config::parse(
            r#"
# comment
[levels]
D1 = "deny"
F1 = "warn"   # inline comment

[paths]
exclude = ["vendor", "target"]
timing = [
  "crates/api/src/lib.rs",
  "crates/sim/src/experiment.rs",
]
"#,
        )
        .expect("parses");
        assert_eq!(cfg.level("D1"), Level::Deny);
        assert_eq!(cfg.level("F1"), Level::Warn);
        assert_eq!(cfg.level("P1"), Level::Deny, "unset rules default to deny");
        assert!(cfg.is_excluded("vendor/serde/src/lib.rs"));
        assert!(!cfg.is_excluded("crates/api/src/lib.rs"));
        assert!(cfg.is_timing_module("crates/sim/src/experiment.rs"));
    }

    #[test]
    fn rejects_unknown_rules_and_bad_levels() {
        assert!(Config::parse("[levels]\nZZ = \"deny\"\n").is_err());
        assert!(Config::parse("[levels]\nD1 = \"fatal\"\n").is_err());
        assert!(Config::parse("[nope]\nx = \"y\"\n").is_err());
    }

    #[test]
    fn parses_p2_section() {
        let cfg = Config::parse(
            r#"
[p2]
baseline = "audits/panic_reach.toml"
"#,
        )
        .expect("parses");
        assert_eq!(cfg.p2_baseline, "audits/panic_reach.toml");
        // Indexing is never a P2 edge, so `index_edges` is no key.
        let err = Config::parse("[p2]\nindex_edges = false\n").unwrap_err();
        assert!(err.contains("unknown p2 key index_edges"), "{err}");
        // D2 evidence is built into the parser; there is no [d2] section.
        assert!(Config::parse("[d2]\nordered_sources = []\n").is_err());
        // Defaults when the section is absent.
        let cfg = Config::parse("[levels]\nD1 = \"deny\"\n").expect("parses");
        assert_eq!(cfg.p2_baseline, "panic_reach.toml");
    }

    #[test]
    fn baseline_round_trips() {
        let keys = vec![
            "demt-api::plan::solve".to_string(),
            "demt-platform::FreeSet::release".to_string(),
        ];
        let text = render_baseline(&keys);
        let parsed = parse_baseline(&text).expect("round-trips");
        let back: Vec<String> = parsed.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(back, keys);
        // Line numbers point at the entries themselves.
        assert!(parsed.iter().all(|(_, l)| *l > 8));
        assert_eq!(
            parse_baseline("[p2]\nentries = []\n").expect("empty ok"),
            vec![]
        );
        assert!(parse_baseline("garbage\n").is_err());
    }
}
