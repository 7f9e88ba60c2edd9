//! Delta-debugging shrinker over `minic` ASTs.
//!
//! Given a kernel on which the detectors disagree, greedily apply the
//! smallest reductions that keep the *exact* disagreement signature
//! (the full [`Verdicts`] triple): remove one statement, unwrap one
//! pragma to its bare body, or drop one clause. Every accepted
//! reduction restarts the candidate enumeration, so the result is a
//! local minimum — no single reduction preserves the signature — and
//! the process is fully deterministic.

use crate::mutate::for_each_directive_mut;
use crate::verdict::{verdicts_of_code, Verdicts};
use minic::ast::*;
use minic::Span;

/// Upper bound on accepted reductions (a generated kernel has well
/// under 100 statements; this is a runaway guard, not a tuning knob).
const MAX_STEPS: usize = 200;

/// Shrink `code` while `verdicts_of_code` keeps returning exactly
/// `sig`. Returns the minimized source (at worst, `code` reprinted
/// as-is if nothing can be removed).
pub fn shrink(code: &str, sig: Verdicts) -> String {
    let Some(mut current) = minic::parse(code).ok() else {
        return code.to_string();
    };
    let mut steps = 0;
    'outer: while steps < MAX_STEPS {
        steps += 1;
        for candidate in candidates(&current) {
            let printed = minic::print_unit(&candidate);
            if verdicts_of_code(&printed) == Some(sig) {
                current = candidate;
                continue 'outer;
            }
        }
        break;
    }
    minic::print_unit(&current)
}

/// Whether a shrunk kernel still reproduces the signature (used by the
/// acceptance tests and the triage report).
pub fn reproduces(code: &str, sig: Verdicts) -> bool {
    verdicts_of_code(code) == Some(sig)
}

/// All single-step reductions of a unit, in deterministic order:
/// statement removals (DFS order), pragma unwraps, clause removals,
/// then top-level item removals.
fn candidates(unit: &TranslationUnit) -> Vec<TranslationUnit> {
    let mut out = Vec::new();
    for t in 0..count_stmts(unit) {
        if let Some(u) = remove_stmt(unit, t) {
            out.push(u);
        }
    }
    for t in 0..count_omp(unit) {
        if let Some(u) = unwrap_omp(unit, t) {
            out.push(u);
        }
    }
    for t in 0..count_clauses(unit) {
        if let Some(u) = remove_clause(unit, t) {
            out.push(u);
        }
    }
    for t in 0..unit.items.len() {
        let mut u = unit.clone();
        u.items.remove(t);
        out.push(u);
    }
    out
}

// ---- statement removal ------------------------------------------------

fn count_stmts(unit: &TranslationUnit) -> usize {
    fn stmt(s: &Stmt) -> usize {
        let entries = match s {
            Stmt::Block(b) => b.stmts.len(),
            _ => 0,
        };
        entries + s.children().map(stmt).sum::<usize>()
    }
    unit.items
        .iter()
        .map(|item| match item {
            Item::Func(f) => f.body.stmts.len() + f.body.stmts.iter().map(stmt).sum::<usize>(),
            _ => 0,
        })
        .sum()
}

/// Remove the `target`-th statement (DFS order over all block entry
/// lists) from a clone of the unit.
fn remove_stmt(unit: &TranslationUnit, target: usize) -> Option<TranslationUnit> {
    fn stmt(s: &mut Stmt, n: &mut usize, target: usize) -> bool {
        match s {
            Stmt::Block(b) => block(&mut b.stmts, n, target),
            _ => s.children_mut().any(|c| stmt(c, n, target)),
        }
    }
    fn block(stmts: &mut Vec<Stmt>, n: &mut usize, target: usize) -> bool {
        for i in 0..stmts.len() {
            if *n == target {
                stmts.remove(i);
                return true;
            }
            *n += 1;
            if stmt(&mut stmts[i], n, target) {
                return true;
            }
        }
        false
    }
    let mut u = unit.clone();
    let mut n = 0;
    let done = u.items.iter_mut().any(|item| match item {
        Item::Func(f) => block(&mut f.body.stmts, &mut n, target),
        _ => false,
    });
    done.then_some(u)
}

// ---- pragma unwrapping ------------------------------------------------

fn count_omp(unit: &TranslationUnit) -> usize {
    minic::visit::collect_directives(unit).len()
}

/// Replace the `target`-th `Stmt::Omp` (source order) with its bare
/// body (or an empty statement for stand-alone directives).
fn unwrap_omp(unit: &TranslationUnit, target: usize) -> Option<TranslationUnit> {
    fn stmt(s: &mut Stmt, n: &mut usize, target: usize) -> bool {
        if let Stmt::Omp { body, .. } = s {
            if *n == target {
                *s = match body.take() {
                    Some(b) => *b,
                    None => Stmt::Empty(Span::DUMMY),
                };
                return true;
            }
            *n += 1;
        }
        s.children_mut().any(|c| stmt(c, n, target))
    }
    let mut u = unit.clone();
    let mut n = 0;
    let done = u.items.iter_mut().any(|item| match item {
        Item::Func(f) => f.body.stmts.iter_mut().any(|s| stmt(s, &mut n, target)),
        _ => false,
    });
    done.then_some(u)
}

// ---- clause removal ---------------------------------------------------

fn count_clauses(unit: &TranslationUnit) -> usize {
    minic::visit::collect_directives(unit).iter().map(|d| d.clauses.len()).sum()
}

/// Remove the `target`-th clause (across all directives, source order).
fn remove_clause(unit: &TranslationUnit, target: usize) -> Option<TranslationUnit> {
    let mut u = unit.clone();
    let (mut n, mut done) = (0usize, false);
    for_each_directive_mut(&mut u, &mut |d| {
        if done {
            return;
        }
        if n + d.clauses.len() > target {
            d.clauses.remove(target - n);
            done = true;
        } else {
            n += d.clauses.len();
        }
    });
    done.then_some(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verdict::verdicts_of_code;

    #[test]
    fn shrink_preserves_signature_and_removes_noise() {
        // Static FP generator (opaque subscript, runtime-disjoint) with
        // extra statements that contribute nothing to the disagreement.
        let code = "int a[32];\nint idx[32];\nint z;\n\nint main() {\n  int i;\n  z = 0;\n  z = z + 5;\n  for (i = 0; i < 32; i++) {\n    idx[i] = i;\n  }\n  for (i = 0; i < 32; i++) {\n    a[i] = 0;\n  }\n  #pragma omp parallel for\n  for (i = 0; i < 32; i++) {\n    a[idx[i]] = i;\n  }\n  return 0;\n}\n";
        let sig = verdicts_of_code(code).unwrap();
        assert!(!sig.unanimous(), "fixture should disagree: {}", sig.summary());
        let small = shrink(code, sig);
        assert!(reproduces(&small, sig), "shrunk kernel must reproduce");
        // The decoy scalar work must be gone.
        assert!(!small.contains("z + 5"), "decoy survived:\n{small}");
        assert!(small.len() < code.len());
    }

    #[test]
    fn candidate_counts_match_structure() {
        let u = minic::parse(
            "int x;\nint main() {\n  #pragma omp parallel for private(x) schedule(static)\n  for (int i = 0; i < 4; i++) {\n    x = i;\n  }\n  return 0;\n}\n",
        )
        .unwrap();
        assert_eq!(count_omp(&u), 1);
        assert_eq!(count_clauses(&u), 2);
        // The omp statement, the loop-body statement, and the return.
        assert_eq!(count_stmts(&u), 3);
        // Every enumerated candidate prints and re-parses.
        for c in candidates(&u) {
            let printed = minic::print_unit(&c);
            let _ = minic::parse(&printed);
        }
    }
}
