//! The detector stack: the one place the three detectors are composed.
//!
//! [`detect`] runs all three on one [`AnalyzedKernel`] — one parse, one
//! lowered program — and every surface that reports "the static,
//! dynamic and LLM verdicts on a kernel" goes through it: the analyze
//! engine behind `racellm-cli analyze` and `/v1/analyze`, the repair
//! loop's detect step, and this crate's differential sweep. The three
//! detectors are `racecheck` (static), one `hbsan` adversarial schedule
//! sweep over [`DEFAULT_SEEDS`] through the artifact's cached bytecode
//! program (dynamic), and the surrogate-LLM feature verdict at GPT-4
//! depth (the uncalibrated path — calibration tables are keyed by
//! corpus kernel id and say nothing about arbitrary code).

use hbsan::{CompiledSweep, RtError};
use llm::{AnalyzedKernel, ModelKind};
use minic::TranslationUnit;

/// The schedule seeds every dynamic sweep and every repair certificate
/// uses.
pub const DEFAULT_SEEDS: [u64; 3] = [1, 7, 23];

/// One verdict per detector for one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdicts {
    /// `racecheck` static verdict.
    pub stat: bool,
    /// `hbsan` dynamic verdict; `None` when the kernel could not be
    /// executed (fuel, bad address, …) — "could not run", never "clean".
    pub dynv: Option<bool>,
    /// Surrogate-LLM feature verdict (GPT-4 analysis depth).
    pub llm: bool,
}

impl Verdicts {
    /// Whether all three detectors produced a verdict and agree.
    pub fn unanimous(&self) -> bool {
        matches!(self.dynv, Some(d) if d == self.stat && self.stat == self.llm)
    }

    /// The unanimous verdict, if any.
    pub fn consensus(&self) -> Option<bool> {
        self.unanimous().then_some(self.stat)
    }

    /// Human-readable one-liner.
    pub fn summary(&self) -> String {
        let yn = |b: bool| if b { "yes" } else { "no" };
        let d = match self.dynv {
            Some(d) => yn(d),
            None => "err",
        };
        format!("static={} dynamic={} llm={}", yn(self.stat), d, yn(self.llm))
    }
}

/// Everything the three detectors found on one parsed kernel.
#[derive(Debug)]
pub struct Detection {
    /// `racecheck`'s report.
    pub stat: racecheck::RaceReport,
    /// One observed adversarial sweep over [`DEFAULT_SEEDS`]: the merged
    /// race report plus each seed's output observation. `Err` when even
    /// the interpreter fallback could not execute the kernel.
    pub sweep: Result<CompiledSweep, RtError>,
    /// Surrogate-LLM feature verdict at GPT-4 depth.
    pub llm: bool,
}

impl Detection {
    /// The per-detector verdicts.
    pub fn verdicts(&self) -> Verdicts {
        Verdicts {
            stat: self.stat.has_race(),
            dynv: self.sweep.as_ref().ok().map(|s| s.report.has_race()),
            llm: self.llm,
        }
    }

    /// Whether the dynamic sweep left the bytecode executor: some seed
    /// ran on the AST interpreter, or the kernel could not be executed
    /// at all. A side channel for metrics; it never changes a verdict.
    pub fn fell_back(&self) -> bool {
        self.sweep.as_ref().map_or(true, |s| s.fell_back)
    }
}

/// Run the three detectors on an analyzed kernel; `None` when it does
/// not parse.
pub fn detect(artifact: &AnalyzedKernel) -> Option<Detection> {
    let unit = artifact.ast.as_ref()?;
    Some(Detection {
        stat: racecheck::check(unit),
        sweep: hbsan::check_adversarial_compiled(
            unit,
            artifact.oracle_program(),
            &hbsan::Config::default(),
            &DEFAULT_SEEDS,
        ),
        llm: llm::feature_verdict(&artifact.features, ModelKind::Gpt4),
    })
}

/// [`detect`]'s verdicts on a parsed unit (`code` must be the unit's
/// source: it feeds the token count).
pub fn verdicts_of_unit(unit: &TranslationUnit, code: &str) -> Verdicts {
    let artifact = AnalyzedKernel::from_parsed(code, Some(unit.clone()));
    detect(&artifact).expect("artifact holds a parsed unit").verdicts()
}

/// Parse and run [`detect`]; `None` when the code no longer parses (a
/// mutation or shrink step went wrong).
pub fn verdicts_of_code(code: &str) -> Option<Verdicts> {
    detect(&AnalyzedKernel::analyze(code)).map(|d| d.verdicts())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_race_is_unanimous() {
        let v = verdicts_of_code(
            "int a[64];\nint main() {\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 61; i++) {\n    a[i] = a[i + 1] + 1;\n  }\n  return 0;\n}\n",
        )
        .unwrap();
        assert!(v.stat);
        assert_eq!(v.dynv, Some(true));
        assert!(v.llm);
        assert!(v.unanimous());
        assert_eq!(v.consensus(), Some(true));
    }

    #[test]
    fn clean_kernel_is_unanimously_clean() {
        let v = verdicts_of_code(
            "int a[64];\nint main() {\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 64; i++) {\n    a[i] = i * 2;\n  }\n  return 0;\n}\n",
        )
        .unwrap();
        assert_eq!(v.summary(), "static=no dynamic=no llm=no");
        assert!(v.unanimous());
    }

    #[test]
    fn unparseable_code_yields_none() {
        assert!(verdicts_of_code("int main() {").is_none());
    }
}
