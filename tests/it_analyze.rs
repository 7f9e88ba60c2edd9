//! Analyze-engine golden snapshots: every corpus kernel's
//! `/v1/analyze` verdicts, race counts and full response bytes, plus
//! the default-seed `xcheck --smoke` agreement matrix, pinned under
//! `tests/golden/`. The three detectors are composed in one place
//! (`xcheck::detect`); these snapshots prove that every surface built
//! on it keeps its output byte-identical. To bless after an
//! intentional change:
//!
//! ```text
//! RACELLM_BLESS=1 cargo test -p racellm --test it_analyze
//! ```

use racellm::{drb_gen, serve, xcheck};
use std::fmt::Write as _;
use std::hash::Hasher;

#[path = "common/golden.rs"]
mod golden;
use golden::check;

fn tri(v: Option<bool>) -> &'static str {
    match v {
        Some(true) => "true",
        Some(false) => "false",
        None => "null",
    }
}

/// One row per corpus kernel, tab-separated: id, name, the four wire
/// verdicts (`null` kept), static and dynamic race counts, whether a
/// variable pair is reported, and a 64-bit FxHash of the full response
/// body.
#[test]
fn analyze_rows_match_golden() {
    let mut out = String::from(
        "id\tname\tstatic\tdynamic\tllm\tconsensus\tstatic_races\tdynamic_races\tvar_pairs\tbody_fxhash\n",
    );
    for k in drb_gen::corpus() {
        let body = serve::analyze::response_body(&k.code);
        let r: serve::analyze::AnalyzeResponse = serde_json::from_str(&body).unwrap();
        let mut h = par::hash::FxHasher::default();
        h.write(body.as_bytes());
        let v = &r.verdicts;
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}",
            k.id,
            k.name,
            tri(v.static_verdict),
            tri(v.dynamic),
            v.llm,
            tri(v.consensus),
            r.static_races.len(),
            r.dynamic_races.len(),
            r.var_pairs.is_some(),
            h.finish()
        );
    }
    check("analyze_kernels.tsv", &out);
}

/// The agreement matrix `racellm-cli xcheck --smoke` prints at the
/// default seed.
#[test]
fn xcheck_smoke_matrix_matches_golden() {
    let r = xcheck::smoke(xcheck::XConfig::default().seed).expect("smoke gate passes");
    check("xcheck_matrix.txt", &r.matrix.render());
}
