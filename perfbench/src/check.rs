//! Output checks. Every response is judged against the kernel's DRB
//! labels; a failed check counts against `error_ratio` and fails the run.

use crate::gen::Input;
use drb_gen::ToolBehavior;
use serve::analyze::{AnalyzeResponse, WireVerdicts};
use serve::fixer::FixResponse;

/// The static verdict `racecheck` is known to give for a kernel of this
/// behaviour class.
pub fn expected_static(input: &Input) -> bool {
    match input.behavior {
        ToolBehavior::EvadesStatic => false,
        ToolBehavior::TripsStatic => true,
        ToolBehavior::Standard | ToolBehavior::DynUnmodeled => input.race,
    }
}

fn check_verdicts(v: &WireVerdicts, input: &Input) -> Result<(), String> {
    let want = expected_static(input);
    if v.static_verdict != Some(want) {
        return Err(format!(
            "static verdict {:?}, expected {want}",
            v.static_verdict
        ));
    }
    if input.behavior != ToolBehavior::DynUnmodeled && v.dynamic != Some(input.race) {
        return Err(format!(
            "dynamic verdict {:?}, label {}",
            v.dynamic, input.race
        ));
    }
    Ok(())
}

/// Check a `/v1/analyze` body against the input's labels.
pub fn check_analyze(body: &str, input: &Input) -> Result<(), String> {
    let r: AnalyzeResponse =
        serde_json::from_str(body).map_err(|e| format!("analyze body does not parse: {e}"))?;
    if !r.parse_ok {
        return Err(format!("kernel reported unparseable: {:?}", r.parse_error));
    }
    check_verdicts(&r.verdicts, input)
}

/// What a checked `/v1/fix` body says.
#[derive(Debug, Clone, Default)]
pub struct FixFacts {
    /// A certified patch came back.
    pub certified: bool,
    /// The patched kernel, to be re-analyzed.
    pub patched: Option<String>,
}

/// Check a `/v1/fix` body against the input's labels.
pub fn check_fix(body: &str, input: &Input) -> Result<FixFacts, String> {
    let r: FixResponse =
        serde_json::from_str(body).map_err(|e| format!("fix body does not parse: {e}"))?;
    let v = r.verdicts.as_ref().ok_or("kernel reported unparseable")?;
    check_verdicts(v, input)?;
    let fix = match (r.outcome.as_str(), r.fix) {
        ("fixed", Some(f)) => f,
        ("clean" | "unfixed", None) => return Ok(FixFacts::default()),
        (outcome, f) => {
            return Err(format!(
                "outcome {outcome} with fix present: {}",
                f.is_some()
            ))
        }
    };
    if !fix.certificate.racecheck_clean {
        return Err("certificate is not racecheck-clean".into());
    }
    Ok(FixFacts {
        certified: true,
        patched: Some(fix.patched_code),
    })
}

/// A certified patch must re-analyze as static-clean and dynamic-clean.
pub fn check_patch(patched: &str) -> Result<(), String> {
    let r: AnalyzeResponse = serde_json::from_str(&serve::analyze::response_body(patched))
        .map_err(|e| format!("patched analyze body does not parse: {e}"))?;
    if r.verdicts.static_verdict != Some(false) || r.verdicts.dynamic != Some(false) {
        return Err(format!(
            "certified patch re-analyzes as static {:?}, dynamic {:?}",
            r.verdicts.static_verdict, r.verdicts.dynamic
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Input;

    #[test]
    fn corpus_answers_pass_and_a_flipped_label_fails() {
        let corpus = drb_gen::corpus();
        let k = corpus
            .iter()
            .find(|k| k.race && k.behavior == ToolBehavior::Standard)
            .unwrap();
        let input = Input {
            code: k.code.clone(),
            race: k.race,
            behavior: k.behavior,
        };
        check_analyze(&serve::analyze::response_body(&k.code), &input).unwrap();
        let facts = check_fix(&serve::fixer::fix_body(&k.code), &input).unwrap();
        if let Some(p) = &facts.patched {
            check_patch(p).unwrap();
        }
        let flipped = Input {
            race: !k.race,
            ..input
        };
        assert!(check_analyze(&serve::analyze::response_body(&k.code), &flipped).is_err());
        assert!(check_analyze("{", &flipped).is_err());
    }

    #[test]
    fn a_racy_patch_is_refused() {
        let corpus = drb_gen::corpus();
        let k = corpus
            .iter()
            .find(|k| k.race && k.behavior == ToolBehavior::Standard)
            .unwrap();
        assert!(check_patch(&k.code).is_err());
    }
}
