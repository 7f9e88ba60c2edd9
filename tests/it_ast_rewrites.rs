//! AST-rewrite golden snapshot: for every corpus kernel and every
//! kernel the default `xcheck --smoke` sweep generates, a 64-bit FxHash
//! of each rewrite's output, pinned in `tests/golden/ast_rewrites.tsv`.
//! The rewrites are the ones that walk the tree to change or inspect
//! it: xcheck's semantics-preserving and label-flipping mutations, the
//! repair edits, the shrinker, drb-gen's augmentations, racecheck's
//! call inlining, `strip_spans`, directive collection and the surrogate
//! features. To bless after an intentional change:
//!
//! ```text
//! RACELLM_BLESS=1 cargo test -p racellm --test it_ast_rewrites
//! ```

use racellm::minic::TranslationUnit;
use racellm::xcheck::{FlipMutation, RepairEdit, SemMutation};
use racellm::{drb_gen, llm, minic, racecheck, xcheck};
use std::fmt::Write as _;
use std::hash::Hasher;

#[path = "common/golden.rs"]
mod golden;
use golden::check;

const FLIPS: [FlipMutation; 7] = [
    FlipMutation::DropReduction,
    FlipMutation::DropSyncRegion,
    FlipMutation::AddAtomic,
    FlipMutation::DropPrivate,
    FlipMutation::AddPrivate,
    FlipMutation::OffsetZero,
    FlipMutation::OffsetOne,
];

fn fx(s: &str) -> String {
    let mut h = par::hash::FxHasher::default();
    h.write(s.as_bytes());
    format!("{:016x}", h.finish())
}

/// Hash of a rewrite's printed output, `-` when it does not apply.
fn printed(u: Option<TranslationUnit>) -> String {
    u.map_or_else(|| "-".to_string(), |u| fx(&minic::print_unit(&u)))
}

/// Every repair edit the repair loop can build for this unit: the four
/// per-variable edits for each renameable variable, then the two
/// structural edits. One hash over all outputs, in that order.
fn repairs(unit: &TranslationUnit) -> String {
    let mut edits = Vec::new();
    for var in drb_gen::collect_names(unit) {
        edits.push(RepairEdit::AddReduction { var: var.clone() });
        edits.push(RepairEdit::WrapAtomic { var: var.clone() });
        edits.push(RepairEdit::AddPrivate { var: var.clone() });
        edits.push(RepairEdit::WrapCritical { var });
    }
    edits.push(RepairEdit::DropNowait);
    edits.push(RepairEdit::SerializeBody);
    let mut all = String::new();
    for e in &edits {
        let _ = writeln!(all, "{e:?}\t{}", printed(xcheck::apply_repair(unit, e)));
    }
    fx(&all)
}

/// The tab-separated rewrite columns of one kernel (`-` everywhere when
/// it does not parse).
fn row(code: &str, kernel: Option<&drb_gen::spec::Kernel>) -> String {
    let Ok(unit) = minic::parse(code) else {
        return "unparseable".to_string();
    };
    let mut cols: Vec<String> = Vec::new();
    cols.extend(SemMutation::ALL.iter().map(|&m| printed(xcheck::apply_sem(&unit, m))));
    cols.extend(FLIPS.iter().map(|&m| printed(xcheck::apply_flip(&unit, m))));
    cols.push(repairs(&unit));
    cols.push(match xcheck::verdicts_of_code(code) {
        Some(sig) if !sig.unanimous() => fx(&xcheck::shrink(code, sig)),
        _ => "-".to_string(),
    });
    for m in drb_gen::augment::Mutation::ALL {
        cols.push(match kernel.and_then(|k| drb_gen::augment::mutate(k, m, 7)) {
            Some(k) => fx(&format!("{}\n{}\n{}\n{:?}", k.name, k.code, k.trimmed_code, k.pairs)),
            None => "-".to_string(),
        });
    }
    cols.push(fx(&format!("{:?}", racecheck::inline::inline_unit(&unit))));
    let mut stripped = unit.clone();
    stripped.strip_spans();
    cols.push(fx(&format!("{stripped:?}")));
    cols.push(minic::visit::collect_directives(&unit).len().to_string());
    cols.push(fx(&format!("{:?}", llm::features::CodeFeatures::extract(code))));
    cols.join("\t")
}

#[test]
fn ast_rewrites_match_golden() {
    let mut out = String::from("kernel");
    for m in SemMutation::ALL {
        let _ = write!(out, "\t{}", m.tag());
    }
    for m in FLIPS {
        let _ = write!(out, "\t{}", m.tag());
    }
    out.push_str(
        "\trepairs\tshrink\taug-rename\taug-reformat\taug-comments\tinline\tstrip\tdirectives\tfeatures\n",
    );
    let corpus: Vec<(String, String, Option<&drb_gen::spec::Kernel>)> = drb_gen::corpus()
        .iter()
        .map(|k| (k.name.clone(), k.trimmed_code.clone(), Some(k)))
        .collect();
    let cfg = xcheck::XConfig::default();
    let generated: Vec<(String, String, Option<&drb_gen::spec::Kernel>)> =
        xcheck::generate(cfg.seed, cfg.count).into_iter().map(|k| (k.name, k.code, None)).collect();
    let inputs: Vec<_> = corpus.into_iter().chain(generated).collect();
    let rows = par::par_map(&inputs, par::default_workers(), |(_, code, k)| row(code, *k));
    for ((name, _, _), r) in inputs.iter().zip(rows) {
        let _ = writeln!(out, "{name}\t{r}");
    }
    check("ast_rewrites.tsv", &out);
}
