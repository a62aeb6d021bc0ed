//! `--self-check`: the ways this package can silently drift from the
//! program it measures, checked from its own files.
//!
//! * **Build parity.** A nested workspace ignores the root manifest's
//!   `[profile.release]`, so the table is copied into `Cargo.toml` here;
//!   the check fails if the two differ.
//! * **Forbidden API.** ROADMAP item 2 removes or merges the batched
//!   replay path, the extra SSC reads and one shard representation; a
//!   ledger that referenced them would have to be edited by the change it
//!   is meant to judge. The names live in `forbidden_api.txt` (not in
//!   `src/`, which must not contain them).
//! * **Manifest.** `BENCHMARK.json` names exactly the workloads and
//!   metrics this program prints.

use std::fs;
use std::path::Path;

use crate::report::{END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;

/// The `key = value` lines of `[table]` in a TOML document, whitespace
/// and comments removed, sorted.
fn toml_table(doc: &str, table: &str) -> Option<Vec<String>> {
    let header = format!("[{table}]");
    let mut lines = doc.lines().skip_while(|l| l.trim() != header);
    lines.next()?;
    let mut entries: Vec<String> = lines
        .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    entries.sort();
    Some(entries)
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Byte offsets at which `needle` occurs in `text` as a whole identifier
/// (or path): not preceded or followed by an identifier character.
fn identifier_hits(text: &str, needle: &str) -> Vec<usize> {
    text.match_indices(needle)
        .map(|(at, _)| at)
        .filter(|&at| {
            let before = text[..at].chars().next_back();
            let after = text[at + needle.len()..].chars().next();
            !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
        })
        .collect()
}

/// The strings of every `"name"` member inside the array that is the
/// value of top-level key `key`. Enough JSON for a manifest this program
/// generated itself.
fn names_in_array(json: &str, key: &str) -> Vec<String> {
    let Some(start) = json.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let Some(open) = json[start..].find('[') else {
        return Vec::new();
    };
    let body = &json[start + open..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    body.split("\"name\"")
        .skip(1)
        .filter_map(|rest| {
            let rest = rest.trim_start().strip_prefix(':')?.trim_start();
            let rest = rest.strip_prefix('"')?;
            Some(rest[..rest.find('"')?].to_string())
        })
        .collect()
}

fn check_names(json: &str, key: &str, expected: &[&str], problems: &mut Vec<String>) {
    let got = names_in_array(json, key);
    if got != expected {
        let missing: Vec<&&str> = expected
            .iter()
            .filter(|e| !got.iter().any(|g| g == **e))
            .collect();
        let extra: Vec<&String> = got
            .iter()
            .filter(|g| !expected.contains(&g.as_str()))
            .collect();
        problems.push(format!(
            "BENCHMARK.json \"{key}\" differs from what the program prints: \
             missing {missing:?}, unknown {extra:?} (or the order differs); \
             regenerate it with --print-manifest"
        ));
    }
}

/// Runs every check; returns the problems found (empty when clean).
pub fn run(bench_dir: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    let root = bench_dir.join("..");
    let read = |p: &Path, problems: &mut Vec<String>| match fs::read_to_string(p) {
        Ok(s) => s,
        Err(e) => {
            problems.push(format!("cannot read {}: {e}", p.display()));
            String::new()
        }
    };

    let ours = read(&bench_dir.join("Cargo.toml"), &mut problems);
    let theirs = read(&root.join("Cargo.toml"), &mut problems);
    let (ours, theirs) = (
        toml_table(&ours, "profile.release"),
        toml_table(&theirs, "profile.release"),
    );
    if ours.is_none() || ours != theirs {
        problems.push(format!(
            "[profile.release] differs: benchmark/Cargo.toml has {ours:?}, the root has {theirs:?}"
        ));
    }

    let forbidden = read(&bench_dir.join("forbidden_api.txt"), &mut problems);
    let forbidden: Vec<&str> = forbidden
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    if forbidden.is_empty() {
        problems.push("forbidden_api.txt lists nothing".to_string());
    }
    match fs::read_dir(bench_dir.join("src")) {
        Ok(dir) => {
            for entry in dir.flatten() {
                let path = entry.path();
                if path.extension().is_none_or(|e| e != "rs") {
                    continue;
                }
                let text = read(&path, &mut problems);
                for name in &forbidden {
                    for at in identifier_hits(&text, name) {
                        let line = text[..at].lines().count().max(1);
                        problems.push(format!(
                            "{}:{line}: uses `{name}`, which ROADMAP item 2 removes",
                            path.display()
                        ));
                    }
                }
            }
        }
        Err(e) => problems.push(format!("cannot list benchmark/src: {e}")),
    }

    let manifest = read(&root.join("BENCHMARK.json"), &mut problems);
    let names = |defs: &[crate::report::MetricDef]| defs.iter().map(|d| d.name).collect::<Vec<_>>();
    check_names(
        &manifest,
        "workloads",
        &WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>(),
        &mut problems,
    );
    check_names(&manifest, "end_to_end", &names(&END_TO_END), &mut problems);
    check_names(&manifest, "per_layer", &names(&PER_LAYER), &mut problems);
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_tables_compare_modulo_layout() {
        let a = "[package]\nname = \"x\"\n\n[profile.release]\n# why\nlto = \"fat\"\ncodegen-units = 1\n\n[dependencies]\n";
        let b = "[profile.release]\ncodegen-units=1   # one unit\nlto   =   \"fat\"\n";
        assert_eq!(
            toml_table(a, "profile.release"),
            toml_table(b, "profile.release")
        );
        assert_eq!(
            toml_table(a, "profile.release").unwrap(),
            vec!["codegen-units=1", "lto=\"fat\""]
        );
        let thin = "[profile.release]\nlto = \"thin\"\ncodegen-units = 1\n";
        assert_ne!(
            toml_table(a, "profile.release"),
            toml_table(thin, "profile.release")
        );
        assert_eq!(toml_table("[package]\n", "profile.release"), None);
    }

    #[test]
    fn identifiers_match_whole_words_only() {
        let text = "x.frob_into(1); Dev::frob(2); frob (3); refrob(4); // frob\n";
        assert_eq!(identifier_hits(text, "frob").len(), 3);
        assert_eq!(identifier_hits(text, "Dev::frob").len(), 1);
        assert_eq!(identifier_hits("Dev::frob_into(1)", "Dev::frob").len(), 0);
    }

    #[test]
    fn manifest_names_are_extracted_per_section() {
        let json = r#"{"workloads": [{"name": "a", "why": "x"}, {"name":"b","why":"y"}],
            "end_to_end": [{"name": "m1", "unit": "s"}], "per_layer": []}"#;
        assert_eq!(names_in_array(json, "workloads"), ["a", "b"]);
        assert_eq!(names_in_array(json, "end_to_end"), ["m1"]);
        assert!(names_in_array(json, "per_layer").is_empty());
        assert!(names_in_array(json, "absent").is_empty());
    }

    /// The generated manifest passes its own extraction.
    #[test]
    fn generated_manifest_round_trips() {
        let json = crate::report::manifest();
        let mut problems = Vec::new();
        check_names(
            &json,
            "end_to_end",
            &END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>(),
            &mut problems,
        );
        check_names(
            &json,
            "per_layer",
            &PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>(),
            &mut problems,
        );
        assert!(problems.is_empty(), "{problems:?}");
    }
}
