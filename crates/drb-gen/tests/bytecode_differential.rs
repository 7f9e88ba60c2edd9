//! The bytecode executor must be **observationally identical** to the
//! AST interpreter on the entire corpus: for every kernel × schedule
//! seed where lowering succeeds, `run_program` must produce the same
//! trace (event order, interned sites, raw heap addresses), the same
//! printed lines, exit code, and schedule-sensitivity flag — and it
//! must err exactly where the interpreter errs. On top of the raw runs,
//! the compiled adversarial sweep must merge to the same `DynReport`
//! (byte-for-byte, including the epoch interpreter and the reference
//! analyzer) as the interpreter-only sweep, and must also yield, per
//! seed, the interpreter's output observation.

use drb_gen::corpus;
use hbsan::{analyze, analyze_reference, Config};

const SEEDS: [u64; 3] = [1, 7, 23];

#[test]
fn bytecode_matches_interpreter_on_every_corpus_kernel() {
    let mut lowered = 0usize;
    let mut rejected = 0usize;
    let results: Vec<(bool, Vec<String>)> =
        par::par_map(corpus(), par::default_workers(), |k| {
            let Ok(unit) = minic::parse(&k.trimmed_code) else {
                return (false, Vec::new());
            };
            let prog = match hbsan::lower(&unit) {
                Ok(p) => p,
                Err(_) => return (false, Vec::new()),
            };
            let mut bad = Vec::new();
            for seed in SEEDS {
                let cfg = Config { seed, ..Config::default() };
                let fast = hbsan::run_program(&prog, &cfg);
                let slow = hbsan::run(&unit, &cfg);
                match (fast, slow) {
                    (Ok(f), Ok(s)) => {
                        if f.trace != s.trace {
                            bad.push(format!("{} seed {seed}: trace diverges", k.name));
                        }
                        if f.printed != s.printed {
                            bad.push(format!(
                                "{} seed {seed}: printed {:?} != {:?}",
                                k.name, f.printed, s.printed
                            ));
                        }
                        if f.exit != s.exit {
                            bad.push(format!(
                                "{} seed {seed}: exit {:?} != {:?}",
                                k.name, f.exit, s.exit
                            ));
                        }
                        if f.schedule_sensitive != s.schedule_sensitive {
                            bad.push(format!("{} seed {seed}: schedule_sensitive flag", k.name));
                        }
                        let fr = analyze(&f.trace);
                        if fr != analyze(&s.trace) {
                            bad.push(format!("{} seed {seed}: DynReport diverges", k.name));
                        }
                        if fr != analyze_reference(&f.trace) {
                            bad.push(format!("{} seed {seed}: reference analyzer", k.name));
                        }
                    }
                    // Errors must coincide (messages may differ; the
                    // fallback path reruns the interpreter and reports
                    // its error text).
                    (Err(_), Err(_)) => {}
                    (Ok(_), Err(e)) => {
                        bad.push(format!("{} seed {seed}: exec ok, interp err {e:?}", k.name))
                    }
                    (Err(e), Ok(_)) => {
                        bad.push(format!("{} seed {seed}: exec err {e:?}, interp ok", k.name))
                    }
                }
            }
            (true, bad)
        });
    let mut mismatches = Vec::new();
    for (low, bad) in results {
        if low {
            lowered += 1;
        } else {
            rejected += 1;
        }
        mismatches.extend(bad);
    }
    assert!(
        mismatches.is_empty(),
        "{} bytecode divergences:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
    // The fast path must cover the bulk of the corpus to be worth
    // anything; rejection is allowed (sections/single/tasks) but must
    // stay the exception.
    assert!(lowered >= 150, "only {lowered} of {} kernels lowered ({rejected} rejected)", lowered + rejected);
}

#[test]
fn compiled_sweep_matches_interpreter_sweep_on_every_corpus_kernel() {
    let results: Vec<(bool, Vec<String>)> = par::par_map(corpus(), par::default_workers(), |k| {
        let Ok(unit) = minic::parse(&k.trimmed_code) else {
            return (false, vec![format!("{}: does not parse", k.name)]);
        };
        let prog = hbsan::lower(&unit).ok();
        let cfg = Config::default();
        let compiled = hbsan::check_adversarial_compiled(&unit, prog.as_ref(), &cfg, &SEEDS);
        let reference = hbsan::check_adversarial(&unit, &cfg, &SEEDS);
        let mut bad = Vec::new();
        // The compiled sweep: the interpreter's report (or error), and
        // each seed's observation equal to an interpreter-only
        // observation.
        match (&compiled, &reference) {
            (Ok(o), Ok(r)) => {
                if o.report != *r {
                    bad.push(format!("{}: compiled report {:?} vs interp {r:?}", k.name, o.report));
                }
                if o.observations.len() != SEEDS.len() {
                    bad.push(format!("{}: {} observations", k.name, o.observations.len()));
                }
                for (&seed, got) in SEEDS.iter().zip(&o.observations) {
                    match hbsan::observe(&unit, &Config { seed, ..cfg.clone() }) {
                        Ok(want) if want == *got => {}
                        want => bad.push(format!(
                            "{} seed {seed}: observed {got:?} vs interp {want:?}",
                            k.name
                        )),
                    }
                }
            }
            (Err(eo), Err(er)) if eo == er => {}
            (o, r) => bad.push(format!("{}: compiled {o:?} vs interp {r:?}", k.name)),
        }
        (prog.is_none(), bad)
    });
    assert_eq!(results.len(), corpus().len());
    let rejected = results.iter().filter(|(rejected, _)| *rejected).count();
    assert!(rejected > 0, "no kernel exercises the interpreter fallback");
    let diffs: Vec<String> = results.into_iter().flat_map(|(_, bad)| bad).collect();
    assert!(diffs.is_empty(), "compiled sweep diverges:\n{}", diffs.join("\n"));
}
