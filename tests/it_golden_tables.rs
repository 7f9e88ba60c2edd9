//! Golden snapshots: the rendered Tables 2–6 are pinned byte-for-byte
//! under `tests/golden/`. Any drift — a cell, a metric digit, even
//! column padding — fails with a line diff.
//!
//! To bless a new snapshot after an intentional change:
//!
//! ```text
//! RACELLM_BLESS=1 cargo test -p racellm --test it_golden_tables
//! ```

use racellm::eval;

#[path = "common/golden.rs"]
mod golden;
use golden::check;

#[test]
fn table2_matches_golden() {
    check("table2.md", &eval::format_detection_table("Table 2", &eval::table2()));
}

#[test]
fn table3_matches_golden() {
    check("table3.md", &eval::format_detection_table("Table 3", &eval::table3()));
}

#[test]
fn table4_matches_golden() {
    check("table4.md", &eval::format_cv_table("Table 4", &eval::table4()));
}

#[test]
fn table5_matches_golden() {
    check("table5.md", &eval::format_detection_table("Table 5", &eval::table5()));
}

#[test]
fn table6_matches_golden() {
    check("table6.md", &eval::format_cv_table("Table 6", &eval::table6()));
}
