//! The invariant registry (`InvariantId::ALL`, the `invariants!` rows of
//! `crates/core/src/invariant.rs`) held against the three places that must
//! know each invariant: its family's table in docs/invariants.md, which
//! the rows generate; a checker in this crate's sources; and a test.

use std::fs;
use std::path::{Path, PathBuf};

use pstore_core::InvariantId;

fn family(id: InvariantId) -> &'static str {
    id.code().split_once('-').map_or("", |(family, _)| family)
}

/// The table of family `fam` as docs/invariants.md carries it between
/// `<!-- invariants:FAM:begin -->` and `<!-- invariants:FAM:end -->`.
fn family_table(fam: &str) -> String {
    let mut out = String::from(
        "| Id | Invariant | Paper ref | Checker |\n|----|-----------|-----------|---------|\n",
    );
    for &id in InvariantId::ALL.iter().filter(|&&id| family(id) == fam) {
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            id.code(),
            id.summary(),
            id.paper_ref(),
            id.checker()
        ));
    }
    out
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `id` is named, by code or by variant, in `text`.
fn mentions(text: &str, id: InvariantId) -> bool {
    text.contains(id.code()) || text.contains(&format!("{id:?}"))
}

#[test]
#[cfg_attr(miri, ignore)] // reads the checkout
fn registry_matches_doc_tables_checkers_and_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut problems = Vec::new();

    let doc = fs::read_to_string(root.join("docs/invariants.md")).unwrap_or_default();
    let mut families: Vec<&str> = InvariantId::ALL.iter().map(|&id| family(id)).collect();
    families.dedup();
    for fam in families {
        let (begin, end) = (
            format!("<!-- invariants:{fam}:begin -->"),
            format!("<!-- invariants:{fam}:end -->"),
        );
        let committed = doc
            .split_once(&begin)
            .and_then(|(_, rest)| rest.split_once(&end))
            .map(|(table, _)| table.trim());
        let generated = family_table(fam);
        if committed != Some(generated.trim()) {
            problems.push(format!(
                "docs/invariants.md: the {fam} table is not what the registry generates; \
                 put this between the markers:\n{begin}\n{generated}{end}"
            ));
        }
    }

    // Checker sources, and test text: whole files under a `tests/`
    // directory, and a source file from its first `#[cfg(test)]` on.
    let (mut checkers, mut tests) = (String::new(), String::new());
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    for file in files {
        let text = fs::read_to_string(&file).unwrap_or_default();
        let rel = file.strip_prefix(&root).unwrap_or(&file);
        if rel.starts_with("crates/verify/src") {
            checkers.push_str(&text);
        }
        if rel.components().any(|c| c.as_os_str() == "tests") {
            tests.push_str(&text);
        } else if let Some(at) = text.find("#[cfg(test)]") {
            tests.push_str(&text[at..]);
        }
    }
    for &id in InvariantId::ALL {
        if !mentions(&checkers, id) {
            problems.push(format!(
                "{} ({id:?}) is named nowhere in crates/verify/src: mention the code or the \
                 variant where it is checked",
                id.code()
            ));
        }
        if !mentions(&tests, id) {
            problems.push(format!(
                "{} ({id:?}) is named in no test: reference it from the test that exercises it",
                id.code()
            ));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n\n"));
}
