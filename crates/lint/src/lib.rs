//! `pstore-lint`: project-specific static analysis for the workspace.
//!
//! The dynamic correctness layers (the `pstore-verify` sweep, the
//! golden-summary gate) catch violations when a run *executes*
//! them. This crate is the source-level complement: it enforces the
//! conventions those layers depend on before any schedule can exhibit a
//! violation, in the spirit of predictive analyses like IsoPredict.
//!
//! Six rules with stable ids (see `docs/static_analysis.md` for the full
//! catalogue, waiver syntax and JSON schema; SA-02 is retired — the typed
//! event schema turned what it checked into a compile error):
//!
//! * **SA-01** — invariant-registry coherence: every `InvariantId` code
//!   must have a checker reference in `pstore-verify`, a section in
//!   `docs/invariants.md` and a test mention; dead doc codes fail too.
//! * **SA-03** — determinism: no wall-clock reads and no `HashMap` /
//!   `HashSet` iteration feeding serialized or printed output in the
//!   deterministic crates (`core`, `dbms`, `sim`, `forecast`, `b2w`).
//! * **SA-04** — concurrency hygiene: no `std::thread::spawn` and no raw
//!   `std::sync` primitives outside `vendor/` and marked sync shims, so
//!   threads and locks live in a handful of named files.
//! * **SA-05** — every `unsafe` site carries a `// SAFETY:` comment; the
//!   run also emits a workspace unsafe inventory.
//! * **SA-06** — every `#[allow(...)]` of a workspace-denied lint
//!   carries a justification comment.
//!
//! Findings can be waived inline with a comment naming the rule and a
//! mandatory reason — `pstore-lint: allow(SA-03): documented why` — on
//! (or directly above) the offending line; a malformed waiver is itself
//! reported under the meta-rule **SA-00**.

pub mod lexer;
pub mod rules;
mod waiver;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::Lexed;
pub use waiver::Waiver;

/// Stable rule identifiers. `SA-00` is the meta-rule for malformed
/// waivers.
pub const RULE_IDS: [&str; 6] = ["SA-00", "SA-01", "SA-03", "SA-04", "SA-05", "SA-06"];

/// True if `id` names a known rule (`SA-00` … `SA-06`, less the retired `SA-02`).
pub fn is_known_rule(id: &str) -> bool {
    RULE_IDS.contains(&id)
}

/// One diagnostic: a rule fired at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id, e.g. `"SA-03"`.
    pub rule: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line, or 0 for whole-file/workspace findings.
    pub line: u32,
    /// Human-readable explanation with the expected remedy.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// One entry of the workspace unsafe inventory (every `unsafe` site,
/// vendor included, with or without a `SAFETY:` comment).
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// Site kind: `block`, `fn`, `impl` or `trait`.
    pub kind: &'static str,
    /// Whether a `SAFETY:` comment was found adjacent to the site.
    pub has_safety_comment: bool,
}

/// One source file loaded into the workspace model.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Raw file contents.
    pub text: String,
    /// Token stream + comments.
    pub lexed: Lexed,
    /// True when the file lives under a `tests/` directory.
    pub is_test_file: bool,
    /// Line of the first `#[cfg(test)]` in the file, if any. Code at or
    /// after this line is treated as test text by rules that exempt
    /// tests.
    pub test_start_line: Option<u32>,
    /// Parsed inline waivers.
    pub waivers: Vec<Waiver>,
}

impl SourceFile {
    /// True when `line` falls in test code (a `tests/` file, or at/after
    /// the first `#[cfg(test)]` of a src file).
    pub fn line_is_test(&self, line: u32) -> bool {
        self.is_test_file || self.test_start_line.is_some_and(|t| line >= t)
    }

    /// The crate this file belongs to (`crates/<name>/…` → `<name>`),
    /// `"vendor"` for vendored stubs, `""` for the root package.
    pub fn crate_name(&self) -> &str {
        let mut parts = self.rel_path.split('/');
        match parts.next() {
            Some("crates") => parts.next().unwrap_or(""),
            Some("vendor") => "vendor",
            _ => "",
        }
    }

    /// True when the file declares itself a sync shim with a
    /// `pstore-lint: sync-shim` marker comment. SA-04 exempts such files
    /// — they are the sanctioned doorways to `std::sync` and
    /// `std::thread`.
    pub fn is_sync_shim(&self) -> bool {
        self.lexed
            .comments
            .iter()
            .any(|c| c.text.contains("pstore-lint: sync-shim"))
    }
}

/// The loaded workspace: all Rust sources plus the documents the rules
/// cross-check.
pub struct Workspace {
    /// Absolute root the paths are relative to.
    pub root: PathBuf,
    /// All `.rs` files, sorted by path for deterministic output.
    pub files: Vec<SourceFile>,
    /// Markdown documents by relative path (currently
    /// `docs/invariants.md`).
    pub docs: BTreeMap<String, String>,
    /// Clippy lints denied in `[workspace.lints.clippy]` of the root
    /// `Cargo.toml` (falls back to the committed policy when absent, so
    /// fixture trees stay small).
    pub denied_lints: Vec<String>,
}

/// Directories scanned for Rust sources, relative to the root.
const SCAN_DIRS: [&str; 4] = ["crates", "vendor", "src", "examples"];

/// Path prefixes never scanned (deliberate-violation fixtures, build
/// output).
fn is_excluded(rel: &str) -> bool {
    rel.starts_with("crates/lint/tests/fixtures/") || rel.starts_with("target/")
}

impl Workspace {
    /// Loads every Rust source under the scan roots plus the documents
    /// and lint policy the rules need.
    ///
    /// # Errors
    /// Propagates I/O errors other than missing scan directories (a
    /// fixture tree may only contain `crates/`).
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut paths = Vec::new();
        for dir in SCAN_DIRS {
            let d = root.join(dir);
            if d.is_dir() {
                collect_rs(&d, &mut paths)?;
            }
        }
        let mut rels: Vec<String> = paths
            .iter()
            .filter_map(|p| {
                p.strip_prefix(root)
                    .ok()
                    .map(|r| r.to_string_lossy().replace('\\', "/"))
            })
            .filter(|r| !is_excluded(r))
            .collect();
        rels.sort();
        rels.dedup();

        let mut files = Vec::with_capacity(rels.len());
        for rel in rels {
            let text = fs::read_to_string(root.join(&rel))?;
            files.push(load_source(rel, text));
        }

        let mut docs = BTreeMap::new();
        for doc in ["docs/invariants.md", "docs/static_analysis.md"] {
            if let Ok(text) = fs::read_to_string(root.join(doc)) {
                docs.insert(doc.to_string(), text);
            }
        }

        let denied_lints = fs::read_to_string(root.join("Cargo.toml"))
            .ok()
            .map(|t| parse_denied_lints(&t))
            .filter(|v| !v.is_empty())
            .unwrap_or_else(default_denied_lints);

        Ok(Workspace {
            // Absolute so the JSON report is unambiguous wherever the
            // binary was invoked from.
            root: root.canonicalize().unwrap_or_else(|_| root.to_path_buf()),
            files,
            docs,
            denied_lints,
        })
    }

    /// Looks up a loaded file by relative path.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path == rel)
    }
}

/// Builds the in-memory model for one source file.
fn load_source(rel_path: String, text: String) -> SourceFile {
    let lexed = lexer::lex(&text);
    let is_test_file = rel_path.split('/').any(|seg| seg == "tests");
    let test_start_line = find_cfg_test(&lexed);
    let waivers = waiver::parse_waivers(&lexed);
    SourceFile {
        rel_path,
        text,
        lexed,
        is_test_file,
        test_start_line,
        waivers,
    }
}

/// Line of the first `#[cfg(test)]` attribute, if any.
fn find_cfg_test(lexed: &Lexed) -> Option<u32> {
    let t = &lexed.toks;
    for i in 0..t.len() {
        if t[i].is_punct('#')
            && t.get(i + 1).is_some_and(|x| x.is_punct('['))
            && t.get(i + 2).is_some_and(|x| x.is_ident("cfg"))
            && t.get(i + 3).is_some_and(|x| x.is_punct('('))
            && t.get(i + 4).is_some_and(|x| x.is_ident("test"))
            && t.get(i + 5).is_some_and(|x| x.is_punct(')'))
        {
            return Some(t[i].line);
        }
    }
    None
}

/// Walks `dir` recursively collecting `.rs` files.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Parses `[workspace.lints.clippy]` entries set to `"deny"` from the
/// root manifest.
fn parse_denied_lints(cargo_toml: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_section = false;
    for line in cargo_toml.lines() {
        let l = line.trim();
        if l.starts_with('[') {
            in_section = l == "[workspace.lints.clippy]";
            continue;
        }
        if !in_section || l.is_empty() || l.starts_with('#') {
            continue;
        }
        if let Some((name, value)) = l.split_once('=') {
            if value.trim().trim_matches('"') == "deny" {
                out.push(name.trim().to_string());
            }
        }
    }
    out
}

/// The committed workspace lint policy, used when no root manifest is
/// available (fixture trees).
fn default_denied_lints() -> Vec<String> {
    [
        "unwrap_used",
        "expect_used",
        "float_cmp",
        "cast_possible_truncation",
        "cast_sign_loss",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect()
}

/// A finding that was suppressed by an inline waiver.
#[derive(Debug, Clone)]
pub struct WaivedFinding {
    /// The suppressed finding.
    pub finding: Finding,
    /// The waiver's mandatory reason.
    pub reason: String,
}

/// The result of a full lint run.
pub struct LintReport {
    /// Findings that survive waivers, sorted `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a well-formed waiver.
    pub waived: Vec<WaivedFinding>,
    /// Every `unsafe` site in the workspace (vendor included).
    pub unsafe_inventory: Vec<UnsafeSite>,
}

impl LintReport {
    /// Process exit code under the `pstore-trace` contract:
    /// 0 clean, 1 findings.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.findings.is_empty())
    }
}

/// Runs every rule over the loaded workspace and applies waivers.
pub fn run(ws: &Workspace) -> LintReport {
    let mut raw: Vec<Finding> = Vec::new();
    raw.extend(rules::sa01::check(ws));
    raw.extend(rules::sa03::check(ws));
    raw.extend(rules::sa04::check(ws));
    let (sa05, unsafe_inventory) = rules::sa05::check(ws);
    raw.extend(sa05);
    raw.extend(rules::sa06::check(ws));

    // Malformed waivers are findings themselves and cannot be waived.
    let mut findings: Vec<Finding> = Vec::new();
    let mut waived: Vec<WaivedFinding> = Vec::new();
    for f in &ws.files {
        for w in &f.waivers {
            if let Some(problem) = w.problem() {
                findings.push(Finding {
                    rule: "SA-00",
                    file: f.rel_path.clone(),
                    line: w.line,
                    message: problem,
                });
            }
        }
    }

    for finding in raw {
        match waiver::find_covering(ws, &finding) {
            Some(reason) => waived.push(WaivedFinding { finding, reason }),
            None => findings.push(finding),
        }
    }

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    LintReport {
        findings,
        waived,
        unsafe_inventory,
    }
}

/// Serialises the report as the stable `pstore-lint/v1` JSON document
/// (see `docs/static_analysis.md` for the schema).
pub fn to_json(report: &LintReport, ws: &Workspace) -> String {
    let mut out = String::from("{\"format\":\"pstore-lint/v1\"");
    out.push_str(&format!(
        ",\"root\":{},\"files_scanned\":{}",
        json_str(&ws.root.display().to_string()),
        ws.files.len()
    ));
    push_findings(&mut out, "findings", report.findings.iter());
    out.push_str(",\"waived\":[");
    for (i, w) in report.waived.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_finding_obj(&mut out, &w.finding, Some(&w.reason));
    }
    out.push_str("],\"unsafe_inventory\":[");
    for (i, s) in report.unsafe_inventory.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"kind\":{},\"has_safety_comment\":{}}}",
            json_str(&s.file),
            s.line,
            json_str(s.kind),
            s.has_safety_comment
        ));
    }
    out.push_str("]}");
    out
}

fn push_findings<'a>(out: &mut String, key: &str, it: impl Iterator<Item = &'a Finding>) {
    out.push_str(&format!(",{}:[", json_str(key)));
    for (i, f) in it.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_finding_obj(out, f, None);
    }
    out.push(']');
}

fn push_finding_obj(out: &mut String, f: &Finding, reason: Option<&str>) {
    out.push_str(&format!(
        "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}",
        json_str(f.rule),
        json_str(&f.file),
        f.line,
        json_str(&f.message)
    ));
    if let Some(r) = reason {
        out.push_str(&format!(",\"reason\":{}", json_str(r)));
    }
    out.push('}');
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn denied_lints_parse_from_manifest() {
        let toml = r#"
[workspace.lints.clippy]
unwrap_used = "deny"
float_cmp = "deny"
something = "warn"

[lints]
workspace = true
"#;
        let lints = parse_denied_lints(toml);
        assert_eq!(lints, vec!["unwrap_used", "float_cmp"]);
    }

    #[test]
    fn cfg_test_marker_found() {
        let f = load_source(
            "crates/x/src/lib.rs".into(),
            "fn a() {}\n#[cfg(test)]\nmod tests {}\n".into(),
        );
        assert_eq!(f.test_start_line, Some(2));
        assert!(!f.line_is_test(1));
        assert!(f.line_is_test(2));
        assert!(f.line_is_test(3));
    }

    #[test]
    fn crate_name_extraction() {
        let f = load_source("crates/sim/src/fast.rs".into(), String::new());
        assert_eq!(f.crate_name(), "sim");
        let v = load_source("vendor/rand/src/lib.rs".into(), String::new());
        assert_eq!(v.crate_name(), "vendor");
        let r = load_source("src/lib.rs".into(), String::new());
        assert_eq!(r.crate_name(), "");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
