//! Conservative call-site inlining.
//!
//! DataRaceBench contains kernels whose racy accesses hide behind helper
//! functions (`foo(a, i)` called from a parallel loop). The detector
//! inlines calls to functions *defined in the same unit* before event
//! collection, substituting parameter names with the textual argument
//! expressions, so the dependence analysis sees through one (bounded)
//! level of calls — like a context-insensitive interprocedural analysis.

use minic::ast::*;
use std::collections::HashMap;

/// Maximum inlining depth (guards against recursion).
const MAX_DEPTH: u32 = 3;

/// Inline intra-unit calls in every function body.
pub fn inline_unit(unit: &TranslationUnit) -> TranslationUnit {
    let funcs: HashMap<String, FuncDef> = unit
        .items
        .iter()
        .filter_map(|i| match i {
            Item::Func(f) => Some((f.name.clone(), f.clone())),
            _ => None,
        })
        .collect();
    let mut out = unit.clone();
    for item in &mut out.items {
        if let Item::Func(f) = item {
            f.body.stmts.iter_mut().for_each(|s| inline_stmt(s, &funcs, 0));
        }
    }
    out
}

fn inline_stmt(s: &mut Stmt, funcs: &HashMap<String, FuncDef>, depth: u32) {
    if let Stmt::Expr(Expr::Call { callee, args, span }) = s {
        let expanded = match funcs.get(callee) {
            Some(f) if depth < MAX_DEPTH => expand(f, args, *span),
            _ => None,
        };
        if let Some(block) = expanded {
            *s = Stmt::Block(block);
            inline_stmt(s, funcs, depth + 1);
        }
        return;
    }
    s.children_mut().for_each(|c| inline_stmt(c, funcs, depth));
}

/// Expand a call into the callee body with parameters renamed to the
/// argument expressions. Only simple arguments (identifiers, literals,
/// `&x`) are substitutable; otherwise the call is left alone.
fn expand(f: &FuncDef, args: &[Expr], span: minic::Span) -> Option<Block> {
    if f.params.len() != args.len() {
        return None;
    }
    let mut subst: HashMap<String, Expr> = HashMap::new();
    for (p, a) in f.params.iter().zip(args) {
        let simple = matches!(
            a,
            Expr::Ident { .. }
                | Expr::IntLit { .. }
                | Expr::FloatLit { .. }
                | Expr::Unary { op: UnOp::AddrOf, .. }
        );
        if !simple {
            return None;
        }
        // `&x` passed for a pointer parameter: the callee's `*p`/`p[…]`
        // accesses hit `x`; substituting the root name preserves the
        // aliasing relationship the detector needs.
        let replacement = match a {
            Expr::Unary { op: UnOp::AddrOf, expr, .. } => (**expr).clone(),
            other => other.clone(),
        };
        subst.insert(p.name.clone(), replacement);
    }
    let mut body = f.body.clone();
    body.stmts.iter_mut().for_each(|s| subst_stmt(s, &subst));
    body.span = span;
    Some(body)
}

/// Substitute into the statement's own expressions and its children.
/// Array dimensions and clause expressions are deliberately left alone.
fn subst_stmt(s: &mut Stmt, subst: &HashMap<String, Expr>) {
    match s {
        Stmt::Decl(d) => {
            for v in &mut d.vars {
                match &mut v.init {
                    Some(Init::Expr(e)) => subst_expr(e, subst),
                    Some(Init::List(es)) => es.iter_mut().for_each(|e| subst_expr(e, subst)),
                    None => {}
                }
            }
        }
        Stmt::Expr(e)
        | Stmt::Return(Some(e), _)
        | Stmt::If { cond: e, .. }
        | Stmt::While { cond: e, .. }
        | Stmt::DoWhile { cond: e, .. } => subst_expr(e, subst),
        Stmt::For(f) => {
            match &mut f.init {
                ForInit::Empty => {}
                ForInit::Decl(d) => {
                    for v in &mut d.vars {
                        if let Some(Init::Expr(e)) = &mut v.init {
                            subst_expr(e, subst);
                        }
                    }
                }
                ForInit::Expr(e) => subst_expr(e, subst),
            }
            f.cond.iter_mut().chain(&mut f.step).for_each(|e| subst_expr(e, subst));
        }
        _ => {}
    }
    s.children_mut().for_each(|c| subst_stmt(c, subst));
}

fn subst_expr(e: &mut Expr, subst: &HashMap<String, Expr>) {
    if let Expr::Ident { name, span } = e {
        if let Some(rep) = subst.get(name) {
            // Point the substituted expression at the use site, so race
            // reports refer to caller-side locations.
            let span = *span;
            *e = rep.clone();
            *e.span_mut() = span;
        }
        return;
    }
    e.children_mut().for_each(|c| subst_expr(c, subst));
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::parse;

    #[test]
    fn inlines_simple_call() {
        let src = r#"
int a[100];
void work(int i) { a[i] = a[i + 1]; }
int main() {
  #pragma omp parallel for
  for (int i = 0; i < 99; i++)
    work(i);
  return 0;
}
"#;
        let unit = inline_unit(&parse(src).unwrap());
        let Item::Func(main) = unit.items.iter().find(|i| matches!(i, Item::Func(f) if f.name == "main")).unwrap()
        else {
            unreachable!()
        };
        let printed = minic::printer::print_unit(&TranslationUnit {
            preprocessor: vec![],
            items: vec![Item::Func(main.clone())],
        });
        assert!(printed.contains("a[i] = a[i + 1]"), "{printed}");
    }

    #[test]
    fn leaves_unknown_calls() {
        let src = "int main() { printf(\"x\"); return 0; }";
        let unit = inline_unit(&parse(src).unwrap());
        let printed = minic::print_unit(&unit);
        assert!(printed.contains("printf"));
    }

    #[test]
    fn recursion_bounded() {
        let src = "void f() { f(); } int main() { f(); return 0; }";
        // Must terminate.
        let _ = inline_unit(&parse(src).unwrap());
    }

    #[test]
    fn complex_args_not_inlined() {
        let src = "void g(int x) { int y = x; } int main() { g(1 + 2); return 0; }";
        let unit = inline_unit(&parse(src).unwrap());
        let printed = minic::print_unit(&unit);
        assert!(printed.contains("g(1 + 2)"));
    }

    #[test]
    fn addr_of_substitutes_root() {
        let src = r#"
void incr(int* p) { *p = *p + 1; }
int x;
int main() {
  #pragma omp parallel
  { incr(&x); }
  return 0;
}
"#;
        let unit = inline_unit(&parse(src).unwrap());
        let printed = minic::print_unit(&unit);
        assert!(printed.contains("*x = *x + 1"), "{printed}");
    }
}
