//! Failure injection: malformed inputs and outputs anywhere in the
//! pipeline must degrade, never panic (paper §4.5's parsing challenge,
//! plus frontend robustness).

use racellm::{drb_gen, drb_ml, eval, finetune, hbsan, llm, minic, racecheck, serve};

#[test]
fn parser_survives_mutated_kernels() {
    // Mutate corpus kernels by deleting characters; parsing may fail but
    // must not panic, and failures must be clean errors.
    let corpus = racellm::drb_gen::corpus();
    for (n, k) in corpus.iter().step_by(17).enumerate() {
        let mut s = k.trimmed_code.clone();
        let cut = (n * 37) % s.len().max(1);
        s.remove(cut.min(s.len().saturating_sub(1)));
        let _ = minic::parse(&s); // Ok or Err, never panic
    }
}

#[test]
fn detectors_survive_parse_failures() {
    assert!(racecheck::check_source("int main() {").is_err());
    assert!(hbsan::check_source("int main() {", &hbsan::Config::default()).is_err());
}

#[test]
fn verdict_parser_handles_adversarial_responses() {
    let cases = [
        "",
        "Maybe?",
        "yes and no",
        "No race... wait, actually yes, there is a data race on x!",
        "```json\n{\"data_race\": 1}\n```",
        "The answer is:\n\n\n",
        "NO DATA RACE WHATSOEVER",
        "yes\nyes\nyes",
        "\u{0000}\u{FFFF} yes",
    ];
    for c in cases {
        let _ = eval::parse_verdict(c); // must not panic
    }
    assert_eq!(eval::parse_verdict("```json\n{\"data_race\": 1}\n```"), eval::Verdict::Yes);
    assert_eq!(eval::parse_verdict("NO DATA RACE WHATSOEVER"), eval::Verdict::No);
}

#[test]
fn pair_parser_handles_truncated_json() {
    let cases = [
        "yes\n{\"variable_names\": [\"a[i]\"",
        "yes\n{\"variable_names\": [], \"variable_locations\": []}",
        "yes\n{\"variable_names\": [\"x\", \"y\"], \"variable_locations\": [\"not\", \"numbers\"]}",
        "yes {",
        "yes }",
    ];
    for c in cases {
        let _ = eval::parse_pairs(c); // Option, never panic
    }
}

#[test]
fn interpreter_rejects_runaway_and_oob_programs() {
    let loops = "int main() { for (;;) { int x; x = 1; } return 0; }";
    let unit = minic::parse(loops).unwrap();
    assert!(matches!(
        hbsan::run(&unit, &hbsan::Config { fuel: 5_000, ..Default::default() }),
        Err(hbsan::RtError::FuelExhausted)
    ));

    let oob = "int a[2]; int main() { a[99] = 1; return 0; }";
    let unit = minic::parse(oob).unwrap();
    assert!(matches!(
        hbsan::run(&unit, &hbsan::Config::default()),
        Err(hbsan::RtError::BadAddress(_))
    ));

    let div0 = "int main() { int x = 1 / 0; return x; }";
    let unit = minic::parse(div0).unwrap();
    assert!(matches!(
        hbsan::run(&unit, &hbsan::Config::default()),
        Err(hbsan::RtError::DivByZero)
    ));
}

#[test]
fn unknown_code_gets_feature_fallback_not_a_crash() {
    // Arbitrary (non-corpus) code through the analyze engine.
    let exotic = r#"
double q[32];
void kernel(void)
{
  int t;
  #pragma omp parallel for schedule(guided, 3)
  for (t = 0; t < 31; t++)
    q[t] = q[t + 1] * 0.5;
}
"#;
    let report = serve::analyze::analyze_code(exotic);
    assert_eq!(report.verdicts.static_verdict, Some(true));
    assert_eq!(report.models.len(), 4);
}

/// A kernel whose every schedule runs out of fuel. The static detector
/// flags the unprotected `x` update, but no dynamic verdict exists.
const FUEL_BURNER: &str = "int x;
int main() {
  int i;
  #pragma omp parallel for
  for (i = 0; i < 4; i++) {
    while (1) { x = x + 1; }
  }
  return 0;
}
";

#[test]
fn unrunnable_kernel_reports_unknown_not_clean() {
    // "Could not run" must never be reported as "clean": the analyze
    // engine, and the CLI that prints it, keep the dynamic verdict
    // unknown.
    let r = serve::analyze::analyze_code(FUEL_BURNER);
    assert_eq!(r.verdicts.static_verdict, Some(true));
    assert_eq!(r.verdicts.dynamic, None);
    assert_eq!(r.verdicts.consensus, None);

    let path = std::env::temp_dir().join(format!("racellm-fuel-{}.c", std::process::id()));
    std::fs::write(&path, FUEL_BURNER).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_racellm-cli"))
        .arg("analyze")
        .arg(&path)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("static  : race = true"), "{stdout}");
    assert!(stdout.contains("dynamic : race = unknown"), "{stdout}");
    // Static flags the kernel, so the exit code still reports a race.
    assert_eq!(out.status.code(), Some(1), "{stdout}");
}

#[test]
fn dataset_builder_survives_truncated_kernels() {
    // The entry builder and the view analysis must degrade cleanly on
    // kernels whose code has been cut mid-token or whose pair labels
    // are gone: no panic, and the derived quantities stay sane.
    for (n, k) in drb_gen::corpus().iter().step_by(23).enumerate() {
        let mut k = k.clone();
        let cut = (n * 41) % k.trimmed_code.len().max(1);
        k.trimmed_code.truncate(cut);
        k.code.truncate(cut.min(k.code.len()));
        if n % 2 == 0 {
            k.pairs.clear();
        }
        let e = drb_ml::DrbMlEntry::from_kernel(&k);
        assert_eq!(e.code_len, e.trimmed_code.len());
        let _ = e.token_count();
        let _ = e.fits_prompt_budget();
        let v = e.to_view(0.5);
        assert!((0.0..=1.0).contains(&v.difficulty), "{}: {}", k.name, v.difficulty);
    }
}

#[test]
fn dataset_import_survives_corrupt_json() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/it-corrupt-dataset");
    let _ = std::fs::remove_dir_all(&dir);
    drb_ml::Dataset::generate().export_dir(&dir).unwrap();

    // Truncate one entry file mid-JSON: import must return Err, not panic.
    let victim = dir.join("DRB-ML-001.json");
    let text = std::fs::read_to_string(&victim).unwrap();
    std::fs::write(&victim, &text[..text.len() / 2]).unwrap();
    assert!(drb_ml::Dataset::import_dir(&dir).is_err());

    // Replace it with non-JSON garbage: still a clean error.
    std::fs::write(&victim, "\u{0}\u{0}not json at all").unwrap();
    assert!(drb_ml::Dataset::import_dir(&dir).is_err());

    // A corrupt index is also a clean error.
    std::fs::write(&victim, text).unwrap();
    std::fs::write(dir.join("index.json"), "[\"DRB-ML-001.json\", 17]").unwrap();
    assert!(drb_ml::Dataset::import_dir(&dir).is_err());

    // And a missing file listed by the index.
    std::fs::write(dir.join("index.json"), "[\"DRB-ML-999.json\"]").unwrap();
    assert!(drb_ml::Dataset::import_dir(&dir).is_err());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trainer_survives_degenerate_and_mutated_inputs() {
    let views = drb_ml::Dataset::generate().subset_views();
    let surrogate = llm::Surrogate::new(llm::ModelKind::StarChatBeta, &views);
    let cfg = finetune::TrainConfig { epochs: 2, ..finetune::TrainConfig::for_model(llm::ModelKind::StarChatBeta) };

    // Empty training set.
    let ft = finetune::FineTuned::train(&surrogate, &[], &cfg);
    let p = ft.prob(&surrogate, &views[0]);
    assert!((0.0..=1.0).contains(&p), "{p}");

    // Single-class training set (all racy).
    let racy: Vec<llm::KernelView> = views.iter().filter(|v| v.race).take(8).cloned().collect();
    let ft = finetune::FineTuned::train(&surrogate, &racy, &cfg);
    let _ = ft.predict(&surrogate, &views[0]);

    // Mutated views: truncated code, flipped labels, cleared pairs.
    let mutated: Vec<llm::KernelView> = views
        .iter()
        .step_by(9)
        .enumerate()
        .map(|(n, v)| {
            let cut = (n * 29) % v.trimmed_code.len().max(1);
            llm::KernelView::new(v.id, v.trimmed_code[..cut].to_string(), !v.race, Vec::new(), v.difficulty)
        })
        .collect();
    let ft = finetune::FineTuned::train(&surrogate, &mutated, &cfg);
    for v in mutated.iter().take(5) {
        let p = ft.prob(&surrogate, v);
        assert!((0.0..=1.0).contains(&p) && p.is_finite(), "{p}");
    }
}

#[test]
fn surrogate_answers_remain_parseable_under_every_style() {
    // The format-breaking paths (prose, malformed JSON) must still yield
    // a verdict through the fallback layers.
    let views = racellm::drb_ml::Dataset::generate().subset_views();
    for kind in llm::ModelKind::ALL {
        let s = llm::Surrogate::new(kind, &views);
        for v in views.iter().step_by(7) {
            let ans = s.answer_varid(v);
            let verdict = eval::parse_verdict(&ans);
            assert_ne!(verdict, eval::Verdict::Unknown, "{kind:?}: {ans}");
        }
    }
}

/// `int main(){int x=((…((1))…));}`, `depth` parentheses deep.
fn nested_parens(depth: usize) -> String {
    format!("int main(){{int x={}1{};return x;}}\n", "(".repeat(depth), ")".repeat(depth))
}

/// `int main(){{…{}…}return 0;}`, `depth` braces deep.
fn nested_braces(depth: usize) -> String {
    format!("int main(){{{}{}return 0;}}\n", "{".repeat(depth), "}".repeat(depth))
}

#[test]
fn ten_thousand_nested_levels_are_a_parse_error() {
    // ~20 KB bodies that used to overflow the parser's stack and abort
    // the whole process (CLI and server alike).
    for src in [nested_parens(10_000), nested_braces(10_000)] {
        let r = serve::analyze::analyze_code(&src);
        assert!(!r.parse_ok);
        let err = r.parse_error.expect("parse error reported");
        assert!(err.contains("nesting deeper than"), "{err}");
        let f = serve::fixer::fix_code(&src);
        assert!(!f.parse_ok);
        assert_eq!(f.outcome, "unparseable");

        let name = format!("racellm-deep-{}-{}.c", std::process::id(), src.len());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, &src).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_racellm-cli"))
            .arg("analyze")
            .arg(&path)
            .output()
            .unwrap();
        let _ = std::fs::remove_file(&path);
        let stderr = String::from_utf8_lossy(&out.stderr);
        // A clean exit 1 with the parse error, not a signal.
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("nesting deeper than"), "{stderr}");
    }
}

#[test]
fn kernel_nested_at_the_budget_runs_on_a_default_thread_stack() {
    // A racy stencil statement nested as deep as the parser allows,
    // once in braces and once in parentheses. Analyze and fix run on a
    // plain spawned thread (the 2 MiB default stack serve's workers
    // get) and must finish without overflowing it.
    let braces = |d: usize| {
        format!(
            "int a[64];\nint main() {{\n  #pragma omp parallel for\n  for (int i = 0; i < 63; i++) {}a[i] = a[i + 1] + 1;{}\n  return 0;\n}}\n",
            "{".repeat(d),
            "}".repeat(d)
        )
    };
    let parens = |d: usize| {
        format!(
            "int a[64];\nint main() {{\n  #pragma omp parallel for\n  for (int i = 0; i < 63; i++) a[i] = {}a[i + 1]{} + 1;\n  return 0;\n}}\n",
            "(".repeat(d),
            ")".repeat(d)
        )
    };
    for kernel in [&braces as &dyn Fn(usize) -> String, &parens] {
        let deepest = (0..minic::parser::MAX_NESTING as usize)
            .take_while(|&d| minic::parse(&kernel(d)).is_ok())
            .last()
            .expect("shallow nesting parses");
        let err = minic::parse(&kernel(deepest + 1)).expect_err("one level past the budget");
        assert!(err.msg.contains("nesting deeper than"), "{err}");
        let src = kernel(deepest);
        let (r, f) = std::thread::spawn(move || {
            (serve::analyze::analyze_code(&src), serve::fixer::fix_code(&src))
        })
        .join()
        .expect("analysis at the nesting budget fits a default thread stack");
        assert!(r.parse_ok, "{:?}", r.parse_error);
        assert_eq!(r.verdicts.static_verdict, Some(true));
        assert!(f.parse_ok);
        assert_ne!(f.outcome, "unparseable");
    }
}
