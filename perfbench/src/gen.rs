//! Seeded inputs: the α-renamed kernel stream and the requests built
//! from it.
//!
//! Every input derives from the 201 corpus kernels through
//! `drb_gen::mutate(k, Mutation::Rename, round_seed)`, which renames
//! variables and keeps the kernel's labels. The stream walks the corpus
//! in order, one renaming round after another, and drops any kernel
//! whose source it has already produced, so a consumer never sees an
//! input twice and no cache in the program can answer it.

use drb_gen::{Kernel, Mutation, ToolBehavior};
use par::rng::mix;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// One kernel the benchmark sends, with the labels that judge the answer.
#[derive(Debug, Clone)]
pub struct Input {
    /// Source as a user would send it.
    pub code: String,
    /// DRB ground truth: does the kernel race?
    pub race: bool,
    /// How the detectors are known to treat the kernel.
    pub behavior: ToolBehavior,
}

/// The two request routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// `POST /v1/analyze`, or `serve::analyze::response_body` in-process.
    Analyze,
    /// `POST /v1/fix`, or `serve::fixer::fix_body` in-process.
    Fix,
}

impl Route {
    /// HTTP target.
    pub fn path(self) -> &'static str {
        match self {
            Route::Analyze => "/v1/analyze",
            Route::Fix => "/v1/fix",
        }
    }
}

/// Stable 64-bit digest (SipHash with fixed zero keys).
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// The endless, seeded, repeat-free stream of α-renamed corpus kernels.
pub struct Stream<'a> {
    corpus: &'a [Kernel],
    seed: u64,
    round: u64,
    pos: usize,
    fresh_this_round: usize,
    seen: HashSet<u64>,
}

impl<'a> Stream<'a> {
    /// Start the stream for a workload seed.
    pub fn new(corpus: &'a [Kernel], seed: u64) -> Stream<'a> {
        Stream {
            corpus,
            seed,
            round: 0,
            pos: 0,
            fresh_this_round: 0,
            seen: HashSet::new(),
        }
    }
}

impl Iterator for Stream<'_> {
    type Item = Input;

    fn next(&mut self) -> Option<Input> {
        loop {
            if self.pos == self.corpus.len() {
                // A whole round without one new kernel: the renaming
                // space is exhausted.
                if self.fresh_this_round == 0 {
                    return None;
                }
                self.pos = 0;
                self.round += 1;
                self.fresh_this_round = 0;
            }
            let k = &self.corpus[self.pos];
            self.pos += 1;
            let Some(m) = drb_gen::mutate(k, Mutation::Rename, mix(self.seed, self.round)) else {
                continue;
            };
            if self.seen.insert(digest(m.code.as_bytes())) {
                self.fresh_this_round += 1;
                return Some(Input {
                    code: m.code,
                    race: m.race,
                    behavior: m.behavior,
                });
            }
        }
    }
}

/// The stream's requests, in order: each kernel's analyze, then its fix
/// when the DRB label says the kernel races (the user's detect → fix
/// flow).
pub struct Requests<'a, 'c> {
    stream: &'a mut Stream<'c>,
    pending: Option<Input>,
}

impl<'a, 'c> Requests<'a, 'c> {
    /// Draw requests from `stream`.
    pub fn new(stream: &'a mut Stream<'c>) -> Requests<'a, 'c> {
        Requests {
            stream,
            pending: None,
        }
    }
}

impl Iterator for Requests<'_, '_> {
    type Item = (Input, Route);

    fn next(&mut self) -> Option<(Input, Route)> {
        if let Some(input) = self.pending.take() {
            return Some((input, Route::Fix));
        }
        let input = self.stream.next()?;
        if input.race {
            self.pending = Some(input.clone());
        }
        Some((input, Route::Analyze))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(seed: u64, n: usize) -> Vec<Input> {
        Stream::new(drb_gen::corpus(), seed).take(n).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        let a = first(7, 450);
        let b = first(7, 450);
        assert_eq!(a.len(), 450);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.code, y.code);
            assert_eq!(x.race, y.race);
            assert_eq!(x.behavior, y.behavior);
        }
        let c = first(8, 450);
        assert!(a.iter().zip(&c).any(|(x, y)| x.code != y.code));
    }

    #[test]
    fn no_input_repeats() {
        let corpus = drb_gen::corpus();
        let xs = first(3, 3 * corpus.len());
        let mut seen = HashSet::new();
        for x in &xs {
            assert!(seen.insert(x.code.clone()), "repeated input");
        }
        // Renaming never yields a plain corpus kernel.
        for k in corpus {
            assert!(!seen.contains(&k.code));
        }
    }

    #[test]
    fn labels_carry_over() {
        let corpus = drb_gen::corpus();
        // Round 0 is one renamed copy of every kernel, in corpus order.
        let xs = first(11, corpus.len());
        let races = xs.iter().filter(|x| x.race).count();
        assert_eq!(races, drb_gen::YES_COUNT);
        for (x, k) in xs.iter().zip(corpus) {
            assert_eq!((x.race, x.behavior), (k.race, k.behavior));
        }
    }

    #[test]
    fn fix_follows_its_analyze() {
        let mut s = Stream::new(drb_gen::corpus(), 5);
        let reqs: Vec<(Input, Route)> = Requests::new(&mut s).take(300).collect();
        let mut analyzed = 0;
        for (i, (input, route)) in reqs.iter().enumerate() {
            match route {
                Route::Analyze => analyzed += 1,
                Route::Fix => {
                    assert!(input.race);
                    let (prev, prev_route) = &reqs[i - 1];
                    assert_eq!(*prev_route, Route::Analyze);
                    assert_eq!(prev.code, input.code);
                }
            }
            // Every racy kernel's fix comes right after its analyze.
            if *route == Route::Analyze && input.race && i + 1 < reqs.len() {
                assert_eq!(reqs[i + 1].1, Route::Fix);
            }
        }
        assert!(analyzed > 150);
    }
}
