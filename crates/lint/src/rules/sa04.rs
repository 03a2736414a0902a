//! SA-04 — concurrency hygiene: threads and locks live in named places.
//!
//! A simulated cluster is single-threaded and the sweep over independent
//! cells is the reproduction's only parallelism, so a thread or a lock
//! anywhere else is either a mistake or a design change that should be
//! argued for. Outside `vendor/` and designated sync shims, this rule
//! flags in production sources:
//!
//! * `std::thread::{spawn, Builder, scope}` (and the bare `thread::…`
//!   forms) — threads come from the sweep's scoped map
//!   (`crates/bench/src/sweep.rs`);
//! * imports or paths naming raw `std::sync` primitives (`Mutex`,
//!   `RwLock`, `Condvar`, `Barrier`, `Once`, `OnceLock`, `mpsc`, the
//!   atomics) — route them through the crate's sync shim so its
//!   cross-thread surface is one readable list. `Arc` is allowed: it is
//!   reference counting, not scheduling-relevant synchronisation.
//!
//! A sync shim announces itself with a `pstore-lint: sync-shim` marker
//! comment; see `crates/bench/src/sweep.rs` and
//! `crates/telemetry/src/sync.rs`. Test code is exempt.

use crate::lexer::TokKind;
use crate::{Finding, Workspace};

/// `std::sync` items considered raw synchronisation primitives.
const PRIMITIVES: [&str; 14] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "Once",
    "OnceLock",
    "OnceCell",
    "mpsc",
    "atomic",
    "AtomicBool",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI64",
];

/// Runs the rule.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &ws.files {
        if f.crate_name() == "vendor" || f.is_test_file || f.is_sync_shim() {
            continue;
        }
        // Only crates/*/src and the root src/ are in scope; bench bins
        // and examples drive experiments, but they still ride the same
        // engine, so they are held to the same rule.
        if !(f.rel_path.starts_with("crates/") || f.rel_path.starts_with("src/")) {
            continue;
        }
        let toks = &f.lexed.toks;
        for i in 0..toks.len() {
            if f.line_is_test(toks[i].line) {
                continue;
            }
            // Thread creation in any path form: `thread::{spawn,
            // Builder, scope}`. A preceding `:` means the path already
            // matched one token earlier (`std::thread::…`) or goes
            // through a shim re-export (`sync::thread::…`), which is
            // sanctioned.
            if toks[i].is_ident("thread")
                && !(i > 0 && toks[i - 1].is_punct(':'))
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| {
                    t.is_ident("spawn") || t.is_ident("Builder") || t.is_ident("scope")
                })
            {
                // Re-anchor bare `thread::…` to `std::thread::…` when
                // the two tokens before are `std ::`.
                let via_std = i >= 3
                    && toks[i - 3].is_ident("std")
                    && toks[i - 2].is_punct(':')
                    && toks[i - 1].is_punct(':');
                let _ = via_std; // both forms are flagged identically
                findings.push(Finding {
                    rule: "SA-04",
                    file: f.rel_path.clone(),
                    line: toks[i].line,
                    message: format!(
                        "thread::{} outside a sync shim — the sweep's scoped map \
                         (crates/bench/src/sweep.rs) is the one place that spawns threads",
                        toks[i + 3].text
                    ),
                });
            }
            // `std :: thread :: {spawn, Builder, scope}` full paths.
            if toks[i].is_ident("std")
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_ident("thread"))
                && toks.get(i + 4).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 5).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 6).is_some_and(|t| {
                    t.is_ident("spawn") || t.is_ident("Builder") || t.is_ident("scope")
                })
            {
                findings.push(Finding {
                    rule: "SA-04",
                    file: f.rel_path.clone(),
                    line: toks[i].line,
                    message: format!(
                        "std::thread::{} outside a sync shim — the sweep's scoped map \
                         (crates/bench/src/sweep.rs) is the one place that spawns threads",
                        toks[i + 6].text
                    ),
                });
            }
            // `std :: sync :: …` — scan the rest of the use/path for
            // primitive names.
            if toks[i].is_ident("std")
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_ident("sync"))
            {
                let mut j = i + 4;
                let mut named: Vec<&str> = Vec::new();
                while j < toks.len() {
                    let t = &toks[j];
                    if t.is_punct(';') || t.is_punct('=') || t.line > toks[i].line + 3 {
                        break;
                    }
                    if t.kind == TokKind::Ident {
                        if let Some(p) = PRIMITIVES.iter().find(|p| t.is_ident(p)) {
                            if !named.contains(p) {
                                named.push(p);
                            }
                        }
                    }
                    j += 1;
                }
                if !named.is_empty() {
                    findings.push(Finding {
                        rule: "SA-04",
                        file: f.rel_path.clone(),
                        line: toks[i].line,
                        message: format!(
                            "raw std::sync primitive{} ({}) outside a sync shim — route \
                             through the crate's shim module (marker `pstore-lint: sync-shim`)",
                            if named.len() > 1 { "s" } else { "" },
                            named.join(", "),
                        ),
                    });
                }
            }
        }
    }
    findings
}
