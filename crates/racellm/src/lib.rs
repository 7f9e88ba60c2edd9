//! `racellm` — reproduction of *Data Race Detection Using Large
//! Language Models* (Chen et al., Correctness @ SC'23).
//!
//! This umbrella crate re-exports the whole workspace and offers a
//! high-level [`Pipeline`] that mirrors the paper's Figure 1: DRB-ML
//! dataset construction → prompt engineering → (surrogate) LLM
//! inference → output parsing → metrics, alongside the traditional
//! static-tool baseline. Analyzing one arbitrary kernel with every
//! detector is [`serve::analyze::analyze_code`] — the engine behind
//! `racellm-cli analyze` and `POST /v1/analyze`, built on the one
//! detector stack [`xcheck::detect`].
//!
//! ```
//! let report = racellm::serve::analyze::analyze_code(r#"
//! int a[100];
//! int main(void) {
//!   int i;
//!   #pragma omp parallel for
//!   for (i = 0; i < 99; i++)
//!     a[i] = a[i + 1];
//!   return 0;
//! }
//! "#);
//! assert_eq!(report.verdicts.static_verdict, Some(true));
//! assert_eq!(report.verdicts.dynamic, Some(true));
//! ```

#![warn(missing_docs)]

pub use depend;
pub use drb_gen;
pub use drb_ml;
pub use eval;
pub use finetune;
pub use hbsan;
pub use llm;
pub use minic;
pub use racecheck;
pub use repair;
pub use serve;
pub use xcheck;

use llm::{KernelView, ModelKind, PromptStrategy, Surrogate};

/// The end-to-end pipeline of Figure 1.
pub struct Pipeline {
    views: Vec<KernelView>,
    surrogates: Vec<(ModelKind, Surrogate)>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Pipeline {
    /// Build the pipeline: generate the corpus, derive DRB-ML, calibrate
    /// the four surrogates. Views and surrogates come from the shared
    /// process-wide caches (`eval::corpus_views` / `corpus_surrogates`),
    /// so building a second pipeline — or running the table runners
    /// alongside one — re-analyzes nothing.
    pub fn new() -> Pipeline {
        let views = eval::corpus_views().to_vec();
        let surrogates = eval::corpus_surrogates().to_vec();
        Pipeline { views, surrogates }
    }

    /// The evaluation subset the pipeline was calibrated on.
    pub fn views(&self) -> &[KernelView] {
        &self.views
    }

    /// Surrogate for a model.
    pub fn surrogate(&self, kind: ModelKind) -> &Surrogate {
        &self.surrogates.iter().find(|(k, _)| *k == kind).expect("all four present").1
    }

    /// Run one calibrated detection experiment (model × prompt) over the
    /// evaluation subset.
    pub fn detection(&self, kind: ModelKind, strategy: PromptStrategy) -> eval::Confusion {
        eval::run_detection(self.surrogate(kind), strategy, &self.views).0
    }

    /// The traditional-tool baseline confusion over the subset.
    pub fn baseline(&self) -> eval::Confusion {
        eval::run_baseline(&self.views)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_analyzes_clean_code() {
        let r = serve::analyze::analyze_code(
            "int a[64]; int main(void) {\n#pragma omp parallel for\nfor (int i=0;i<64;i++) a[i]=i;\n return 0; }",
        );
        assert_eq!(r.verdicts.static_verdict, Some(false));
        assert_eq!(r.verdicts.dynamic, Some(false));
        assert_eq!(r.models.len(), 4);
    }

    #[test]
    fn pipeline_detection_matches_eval() {
        let p = Pipeline::new();
        let c = p.detection(ModelKind::Gpt4, PromptStrategy::P1);
        assert_eq!(c.total(), 198);
        assert!(p.baseline().f1() > c.f1());
    }
}
