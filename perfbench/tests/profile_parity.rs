//! The benchmark must time the codegen `xp` ships with. A package with its
//! own `[workspace]` does not inherit the root manifest's profiles, so
//! `perfbench/Cargo.toml` copies `[profile.release]`; this test fails when
//! the copy and the root table differ.

use std::path::Path;

/// Every `[profile.release…]` table of a manifest: its header, then its
/// `key = value` lines with comments and blank lines dropped, sorted.
fn release_tables(manifest: &str) -> Vec<(String, Vec<String>)> {
    let mut tables: Vec<(String, Vec<String>)> = Vec::new();
    let mut current: Option<(String, Vec<String>)> = None;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            tables.extend(current.take());
            if line.starts_with("[profile.release") {
                current = Some((line.to_string(), Vec::new()));
            }
        } else if let Some((_, keys)) = current.as_mut().filter(|_| !line.is_empty()) {
            keys.push(line.split_whitespace().collect::<Vec<_>>().join(" "));
        }
    }
    tables.extend(current);
    for (_, keys) in &mut tables {
        keys.sort();
    }
    tables.sort();
    tables
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = release_tables(&read(&here.join("../Cargo.toml")));
    let bench = release_tables(&read(&here.join("Cargo.toml")));
    assert!(
        !root.is_empty(),
        "the root manifest has a [profile.release] table"
    );
    assert_eq!(
        bench, root,
        "perfbench/Cargo.toml's release profile must equal the root manifest's"
    );
}

#[test]
fn release_tables_ignore_layout_and_other_tables() {
    let a = "[package]\nname = \"x\"\n[profile.release]\nlto = \"thin\" # why\n\ncodegen-units = 1\n[profile.dev]\nopt-level = 2\n";
    let b = "[profile.release]\ncodegen-units  =  1\nlto = \"thin\"\n";
    assert_eq!(release_tables(a), release_tables(b));
    let c = "[profile.release]\nlto = \"fat\"\ncodegen-units = 1\n";
    assert_ne!(release_tables(a), release_tables(c));
}
