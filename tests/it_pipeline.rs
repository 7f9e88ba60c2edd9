//! Integration: the full Figure-1 pipeline — prompts rendered from the
//! dataset, surrogate chat, response parsing, scoring — plus the
//! umbrella `Pipeline` API and the one-kernel analyze engine.

use racellm::{drb_ml, eval, llm, Pipeline};

#[test]
fn textual_pipeline_is_lossless_for_every_model_and_prompt() {
    // Whatever the model emits, the parser must recover a verdict; the
    // scored confusion must cover all 198 entries.
    let views = drb_ml::Dataset::generate().subset_views();
    for kind in llm::ModelKind::ALL {
        let s = llm::Surrogate::new(kind, &views);
        for strategy in [llm::PromptStrategy::P1, llm::PromptStrategy::P3] {
            let (c, exchanges) = eval::run_detection(&s, strategy, &views);
            assert_eq!(c.total(), 198, "{kind:?} {strategy:?}");
            assert!(exchanges.iter().all(|e| e.verdict.is_some()), "{kind:?} {strategy:?}");
        }
    }
}

#[test]
fn prompts_embed_the_code_and_match_listings() {
    let views = drb_ml::Dataset::generate().subset_views();
    let v = &views[0];
    for strategy in [
        llm::PromptStrategy::Bp1,
        llm::PromptStrategy::Bp2,
        llm::PromptStrategy::P2,
    ] {
        let turns = drb_ml::render(strategy, &v.trimmed_code);
        assert_eq!(turns.len(), 1);
        assert!(turns[0].contains(&v.trimmed_code));
        assert!(turns[0].contains("expert in High-Performance Computing"));
    }
    let p3 = drb_ml::render(llm::PromptStrategy::P3, &v.trimmed_code);
    assert_eq!(p3.len(), 2);
    assert!(p3[0].contains("Analyze data dependence"));
}

#[test]
fn pipeline_analyze_agrees_with_corpus_labels() {
    // A racy snippet straight from the corpus, through the analyze
    // engine behind `racellm-cli analyze`.
    let corpus = racellm::drb_gen::corpus();
    let racy = corpus
        .iter()
        .find(|k| k.race && k.behavior == racellm::drb_gen::ToolBehavior::Standard)
        .unwrap();
    let v = racellm::serve::analyze::analyze_code(&racy.code).verdicts;
    assert!(v.static_verdict == Some(true) || v.dynamic == Some(true), "{}", racy.name);
}

#[test]
fn detection_rows_deterministic_across_runs() {
    let p = Pipeline::new();
    let a = p.detection(llm::ModelKind::StarChatBeta, llm::PromptStrategy::P2);
    let b = p.detection(llm::ModelKind::StarChatBeta, llm::PromptStrategy::P2);
    assert_eq!(a, b);
}

#[test]
fn gpt_models_refuse_finetuning_like_the_api() {
    assert!(racellm::finetune::check_finetunable(llm::ModelKind::Gpt35Turbo).is_err());
    assert!(racellm::finetune::check_finetunable(llm::ModelKind::Gpt4).is_err());
}
