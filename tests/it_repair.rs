//! Corpus-wide repair sweep: acceptance floor + golden snapshots.
//!
//! The rendered repair-rate table is pinned byte-for-byte under
//! `tests/golden/repair_table.md`, and every kernel's row (outcome,
//! edits, patch size, candidates tried) under
//! `tests/golden/repair_kernels.tsv`. To bless after an intentional
//! change:
//!
//! ```text
//! RACELLM_BLESS=1 cargo test -p racellm --test it_repair
//! ```

use racellm::repair;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(file)
}

/// Compare against the snapshot `file`, or rewrite it when
/// `RACELLM_BLESS=1`.
fn check(file: &str, rendered: &str) {
    let path = golden_path(file);
    if std::env::var_os("RACELLM_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e});\nrun `RACELLM_BLESS=1 cargo test -p racellm --test it_repair` to create it",
            path.display()
        )
    });
    if golden != rendered {
        let mut diff = String::new();
        for (i, (g, c)) in golden.lines().zip(rendered.lines()).enumerate() {
            if g != c {
                diff.push_str(&format!("  line {:3}: -{g}\n  line {:3}: +{c}\n", i + 1, i + 1));
            }
        }
        panic!(
            "{file} drifted from its golden snapshot:\n{diff}\nIf the change is intentional, re-bless with RACELLM_BLESS=1."
        );
    }
}

/// One row per kernel, tab-separated: id, name, outcome, edits,
/// patch_lines, candidates_tried.
fn render_rows(summary: &repair::SweepSummary) -> String {
    let mut out = String::from("id\tname\toutcome\tedits\tpatch_lines\tcandidates_tried\n");
    for r in &summary.rows {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            r.id, r.name, r.outcome, r.edits, r.patch_lines, r.candidates_tried
        );
    }
    out
}

/// One sweep serves four claims: every emitted certificate is
/// complete, the certified-repair rate clears the 60% acceptance
/// floor, and both the rendered table and the per-kernel rows match
/// their golden snapshots.
#[test]
fn repair_sweep_meets_floor_and_matches_golden() {
    let cfg = repair::RepairConfig::default();
    let summary = repair::sweep_corpus(&cfg);
    for row in &summary.rows {
        assert!(
            row.outcome != "fixed" || row.patch_lines > 0,
            "{}: fixed with an empty patch",
            row.name
        );
    }
    assert!(
        summary.repair_rate() >= 60.0,
        "certified repair rate {:.1}% is below the 60% acceptance floor",
        summary.repair_rate()
    );
    check("repair_table.md", &repair::render_table(&summary));
    check("repair_kernels.tsv", &render_rows(&summary));
}
