//! Golden-snapshot comparison shared by the integration tests that pin
//! rendered output under `tests/golden/`.
//!
//! To bless a snapshot after an intentional change, rerun the test that
//! owns it with `RACELLM_BLESS=1`, e.g.
//!
//! ```text
//! RACELLM_BLESS=1 cargo test -p racellm --test it_analyze
//! ```

use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compare `rendered` against `tests/golden/<name>`, or rewrite the
/// snapshot when `RACELLM_BLESS=1`. Any drift fails with a line diff.
pub fn check(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("RACELLM_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e});\nrerun this test with RACELLM_BLESS=1 to create it",
            path.display()
        )
    });
    if golden != rendered {
        panic!(
            "{name} drifted from its golden snapshot:\n{}\nIf the change is intentional, re-bless with RACELLM_BLESS=1.",
            diff(&golden, rendered)
        );
    }
}

/// Minimal line diff: every differing line as `-golden` / `+current`.
fn diff(golden: &str, current: &str) -> String {
    let g: Vec<&str> = golden.lines().collect();
    let c: Vec<&str> = current.lines().collect();
    let mut out = String::new();
    for i in 0..g.len().max(c.len()) {
        match (g.get(i), c.get(i)) {
            (Some(a), Some(b)) if a == b => {}
            (a, b) => {
                if let Some(a) = a {
                    out.push_str(&format!("  line {:3}: -{a}\n", i + 1));
                }
                if let Some(b) = b {
                    out.push_str(&format!("  line {:3}: +{b}\n", i + 1));
                }
            }
        }
    }
    if out.is_empty() {
        out.push_str("  (only trailing whitespace differs)\n");
    }
    out
}
