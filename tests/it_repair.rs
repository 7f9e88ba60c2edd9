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

#[path = "common/golden.rs"]
mod golden;
use golden::check;

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
