//! Directive collection.

use crate::ast::*;
use crate::pragma::Directive;

/// Collect every directive in a unit, in source order.
pub fn collect_directives(unit: &TranslationUnit) -> Vec<&Directive> {
    fn stmt<'a>(s: &'a Stmt, out: &mut Vec<&'a Directive>) {
        if let Stmt::Omp { dir, .. } = s {
            out.push(dir);
        }
        s.children().for_each(|c| stmt(c, out));
    }
    let mut out = Vec::new();
    for item in &unit.items {
        match item {
            Item::Func(f) => f.body.stmts.iter().for_each(|s| stmt(s, &mut out)),
            Item::Pragma(d) => out.push(d),
            Item::Global(_) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::pragma::DirectiveKind;

    #[test]
    fn collects_nested_directives() {
        let src = r#"
void f() {
  #pragma omp parallel
  {
    #pragma omp for
    for (int i = 0; i < 10; i++) {
      #pragma omp critical
      { int x = 1; }
    }
  }
}
"#;
        let u = parse(src).unwrap();
        let ds = collect_directives(&u);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds[0].kind, DirectiveKind::Parallel);
        assert_eq!(ds[1].kind, DirectiveKind::For);
        assert!(matches!(ds[2].kind, DirectiveKind::Critical(None)));
    }
}
