//! The request engines rebuilt from each layer's public functions, with
//! a span around every call.
//!
//! [`analyze`] composes exactly the calls `serve::analyze::response_body`
//! makes, and [`fix`] those of `serve::fixer::fix_body`. The traced run
//! checks every traced body against the untraced engine's bytes, so a
//! composition that drifts from the program fails the run instead of
//! timing something else.

use crate::trace::Recorder;
use llm::{feature_verdict, CodeFeatures, ModelKind};
use serve::analyze::{AnalyzeResponse, WireModel, WirePairs, WireVerdicts};
use serve::fixer::{FixResponse, WireCertificate, WireFix};
use std::hint::black_box;
use xcheck::{Verdicts, DEFAULT_SEEDS};

/// Counts taken at the same layer boundaries as the spans.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// `hbsan::lower` calls.
    pub lowers: u64,
    /// Kernels `hbsan::lower` rejected.
    pub lower_rejected: u64,
    /// Schedule sweeps.
    pub sweeps: u64,
    /// Sweeps that fell back to the AST interpreter.
    pub sweep_fallbacks: u64,
    /// `repair::fix_artifact` calls.
    pub fixes: u64,
    /// Candidates those calls certified or refuted.
    pub candidates: u64,
    /// Certified patches.
    pub certified: u64,
}

fn op_word(kind: depend::AccessKind) -> &'static str {
    match kind {
        depend::AccessKind::Read => "read",
        depend::AccessKind::Write => "write",
    }
}

/// `/v1/analyze`'s engine, traced layer by layer.
pub fn analyze(rec: &mut Recorder, source: &str, tally: &mut Tally) -> String {
    let root = rec.open("serve.analyze");
    // Every intermediate is dropped inside the root span, as in the engine.
    let body = analyze_layers(rec, source, tally);
    rec.close(root);
    body
}

fn analyze_layers(rec: &mut Recorder, source: &str, tally: &mut Tally) -> String {
    let trimmed = rec.span("minic.trim", || minic::trim_comments(source));
    let parsed = rec.span("minic.parse", || minic::parse(&trimmed.code));
    let (ast, parse_error) = match parsed {
        Ok(unit) => (Some(unit), None),
        Err(e) => (None, Some(e.to_string())),
    };
    let tokens = rec.span("llm.tokenize", || llm::tokenize(&trimmed.code));
    // The same feature work `AnalyzedKernel::from_parsed` does.
    let features = rec.span("llm.features", || {
        let features = CodeFeatures::from_parts(tokens.len(), ast.as_ref());
        let feature_vec = features.to_vector();
        let mut full_vec = llm::ngram_vector_of(&tokens);
        full_vec.extend_from_slice(&feature_vec);
        black_box((full_vec, features.surface_difficulty()));
        features
    });
    let (models, llm_verdict) = rec.span("llm.surrogate", || {
        let models: Vec<WireModel> = ModelKind::ALL
            .iter()
            .map(|k| WireModel {
                model: k.short().to_string(),
                verdict: feature_verdict(&features, *k),
            })
            .collect();
        (models, feature_verdict(&features, ModelKind::Gpt4))
    });

    let (verdicts, static_races, dynamic_races, var_pairs) = match &ast {
        Some(unit) => {
            let st = rec.span("racecheck.check", || racecheck::check(unit));
            let prog = rec.span("hbsan.lower", || hbsan::lower(unit).ok());
            tally.lowers += 1;
            tally.lower_rejected += u64::from(prog.is_none());
            let sweep = rec.span("hbsan.sweep", || {
                hbsan::check_adversarial_compiled(
                    unit,
                    prog.as_ref(),
                    &hbsan::Config::default(),
                    &DEFAULT_SEEDS,
                )
            });
            tally.sweeps += 1;
            let (dynamic, dynamic_races) = match sweep {
                Ok(sweep) => {
                    tally.sweep_fallbacks += u64::from(sweep.fell_back);
                    let rep = sweep.report;
                    let races: Vec<String> = rep
                        .races
                        .iter()
                        .take(5)
                        .map(hbsan::DynRace::describe)
                        .collect();
                    (Some(rep.has_race()), races)
                }
                Err(_) => {
                    tally.sweep_fallbacks += 1;
                    (None, Vec::new())
                }
            };
            let v = Verdicts {
                stat: st.has_race(),
                dynv: dynamic,
                llm: llm_verdict,
            };
            let pairs = st.races.first().map(|r| WirePairs {
                variable_names: vec![r.first.var.clone(), r.second.var.clone()],
                line_numbers: vec![r.first.span.line(), r.second.span.line()],
                operations: vec![op_word(r.first.kind).into(), op_word(r.second.kind).into()],
            });
            let verdicts = WireVerdicts {
                static_verdict: Some(v.stat),
                dynamic: v.dynv,
                llm: v.llm,
                consensus: v.consensus(),
            };
            let races: Vec<String> = st.races.iter().map(racecheck::Race::describe).collect();
            (verdicts, races, dynamic_races, pairs)
        }
        None => (
            WireVerdicts {
                static_verdict: None,
                dynamic: None,
                llm: llm_verdict,
                consensus: None,
            },
            Vec::new(),
            Vec::new(),
            None,
        ),
    };
    let resp = AnalyzeResponse {
        tokens: tokens.len(),
        parse_ok: parse_error.is_none(),
        parse_error,
        verdicts,
        static_races,
        dynamic_races,
        models,
        var_pairs,
    };
    rec.span("serve.serialize", || serde_json::to_string(&resp))
        .expect("response serialization is infallible")
}

/// `/v1/fix`'s engine, traced layer by layer. `repair` is timed through
/// its public entry only.
pub fn fix(rec: &mut Recorder, source: &str, tally: &mut Tally) -> String {
    let root = rec.open("serve.fix");
    let body = fix_layers(rec, source, tally);
    rec.close(root);
    body
}

fn fix_layers(rec: &mut Recorder, source: &str, tally: &mut Tally) -> String {
    let trimmed = rec.span("minic.trim", || minic::trim_comments(source));
    let ast = rec.span("minic.parse", || minic::parse(&trimmed.code).ok());
    let artifact = rec.span("llm.artifact", || {
        llm::AnalyzedKernel::from_parsed(&trimmed.code, ast)
    });
    let report = rec.span("repair.fix", || {
        repair::fix_artifact(&artifact, &repair::RepairConfig::default())
    });
    tally.fixes += 1;
    tally.candidates += report.candidates_tried as u64;

    let verdicts = report.verdicts.as_ref().map(|v| WireVerdicts {
        static_verdict: Some(v.stat),
        dynamic: v.dynv,
        llm: v.llm,
        consensus: v.consensus(),
    });
    let fix = report.fix().map(|f| WireFix {
        edits: f.edits.iter().map(repair::edit_label).collect(),
        patched_code: f.patched_code.clone(),
        patch: f.patch.clone(),
        patch_lines: f.patch_lines,
        certificate: WireCertificate {
            racecheck_clean: f.certificate.racecheck_clean,
            hbsan_seeds: f.certificate.hbsan_seeds.clone(),
            equivalent_seeds: f.certificate.equivalent_seeds.clone(),
            scratch: f.certificate.scratch.clone(),
            surrogate_clean: f.certificate.surrogate_clean,
        },
    });
    tally.certified += u64::from(fix.is_some());
    let resp = FixResponse {
        parse_ok: report.verdicts.is_some(),
        outcome: report.outcome.tag().to_string(),
        verdicts,
        candidates_tried: report.candidates_tried,
        fix,
    };
    rec.span("serve.serialize", || serde_json::to_string(&resp))
        .expect("response serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_engines_match_the_program_on_the_whole_corpus() {
        let mut rec = Recorder::new();
        let mut tally = Tally::default();
        for k in drb_gen::corpus() {
            assert_eq!(
                analyze(&mut rec, &k.code, &mut tally),
                serve::analyze::response_body(&k.code)
            );
            if k.race {
                assert_eq!(
                    fix(&mut rec, &k.code, &mut tally),
                    serve::fixer::fix_body(&k.code)
                );
            }
        }
        assert_eq!(tally.lowers, 201);
        assert!(tally.lower_rejected > 0 && tally.certified > 0);
    }
}
