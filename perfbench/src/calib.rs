//! Host-speed calibration.
//!
//! The benchmark runs on a few virtual CPUs of a shared host, whose
//! speed drifts by up to 3× over minutes as other tenants come and go.
//! A time measured on such a host mixes the program's cost with the
//! host's current speed. To separate them, every run interleaves short
//! bursts of a fixed reference computation ([`unit`]) with the
//! workload and rescales each stretch of measured time by how fast the
//! reference ran around it: a measured time `t` next to a reference
//! median `r` reads as `t * NOMINAL_UNIT_US / r`, the time it would
//! take on a host that runs the reference in [`NOMINAL_UNIT_US`].
//!
//! The reference depends only on `std` and this file, never on the
//! program under test, so a change to the program moves the
//! calibrated times and leaves the reference alone. It does the kind
//! of work the program does — scan C source into tokens, count
//! identifiers in a hash map, build and walk a boxed expression tree,
//! interpret a small register loop over an array, sort strings — so a
//! slower host slows both alike.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// Reference time of one [`unit`] run right after a request, in
/// microseconds: about its median on a 2-vCPU x86-64 VM (Intel Xeon)
/// in its most common state. Calibrated times are expressed on a host
/// of this speed, so on that VM they read close to wall-clock times.
pub const NOMINAL_UNIT_US: f64 = 150.0;

/// A DataRaceBench-style kernel, the reference's input text.
const TEXT: &str = r#"
#include <stdio.h>
#include <omp.h>
int a[1000]; int b[1000]; double sum = 0.0;
int main(int argc, char* argv[]) {
  int i, j, len = 1000, tmp = 0;
  for (i = 0; i < len; i++) { a[i] = i; b[i] = 2 * i + 1; }
#pragma omp parallel for private(j) reduction(+:sum)
  for (i = 0; i < len - 1; i++) {
    for (j = 0; j < 4; j++) { tmp = a[i + 1] * b[j] + tmp; }
    a[i] = a[i + 1] + b[i] - tmp;
    sum += a[i] * 0.5;
  }
#pragma omp parallel
  {
#pragma omp single
    { b[0] = a[len - 1]; }
#pragma omp for nowait
    for (i = 1; i < len; i++) b[i] = b[i - 1] + a[i];
  }
  printf("a[500]=%d b[999]=%d sum=%f\n", a[500], b[999], sum);
  return 0;
}
"#;

/// FNV-1a: a fixed hash, so every process does the same work (the
/// standard hasher is seeded at random per process).
#[derive(Default)]
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf29ce484222325
        } else {
            self.0
        };
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
        self.0 = h;
    }
}

enum Expr {
    Num(i64),
    Var(usize),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
}

fn build(depth: u32, k: &mut u64) -> Expr {
    *k = k
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let pick = (*k >> 33) % 4;
    if depth == 0 || pick == 0 {
        return if (*k >> 40).is_multiple_of(2) {
            Expr::Num((*k >> 48) as i64 % 97)
        } else {
            Expr::Var((*k >> 44) as usize % 16)
        };
    }
    let l = Box::new(build(depth - 1, k));
    let r = Box::new(build(depth - 1, k));
    if pick == 1 {
        Expr::Mul(l, r)
    } else {
        Expr::Add(l, r)
    }
}

fn eval(e: &Expr, env: &[i64]) -> i64 {
    match e {
        Expr::Num(n) => *n,
        Expr::Var(v) => env[*v],
        Expr::Add(l, r) => eval(l, env).wrapping_add(eval(r, env)),
        Expr::Mul(l, r) => eval(l, env).wrapping_mul(eval(r, env)),
    }
}

#[derive(Clone, Copy)]
enum Op {
    Load(u8, u8),
    Store(u8, u8),
    AddI(u8, i64),
    Add(u8, u8),
    Jlt(u8, u8, u8),
}

/// One reference computation, about [`NOMINAL_UNIT_US`] on the
/// calibration host. Returns a checksum so nothing is optimised away.
pub fn unit() -> u64 {
    // Scan the text into tokens.
    let mut toks: Vec<String> = Vec::new();
    for _ in 0..2 {
        let mut cur = String::new();
        for c in TEXT.chars() {
            if c.is_ascii_alphanumeric() || c == '_' {
                cur.push(c);
            } else {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
                if !c.is_whitespace() {
                    toks.push(c.to_string());
                }
            }
        }
    }
    // Count identifiers.
    let mut counts: HashMap<&str, u32, BuildHasherDefault<Fnv>> = HashMap::default();
    for t in &toks {
        if t.as_bytes()[0].is_ascii_alphabetic() {
            *counts.entry(t.as_str()).or_default() += 1;
        }
    }
    let mut sum: u64 = counts.values().map(|&c| u64::from(c)).sum();
    // Build and walk an expression tree.
    let mut k = toks.len() as u64;
    let tree = build(9, &mut k);
    let env: Vec<i64> = (0..16).map(|i| i * 3 + 1).collect();
    sum = sum.wrapping_add(eval(&tree, &env) as u64);
    // Interpret a register loop over an array.
    let prog = [
        Op::Load(1, 0),
        Op::AddI(1, 3),
        Op::Add(2, 1),
        Op::Store(2, 0),
        Op::AddI(0, 1),
        Op::Jlt(0, 3, 0),
    ];
    let mut mem = vec![0i64; 512];
    let mut regs = [0i64, 0, 0, 512];
    let mut pc = 0usize;
    let mut steps = 0u32;
    while pc < prog.len() && steps < 12_000 {
        steps += 1;
        match prog[pc] {
            Op::Load(d, a) => regs[d as usize] = mem[regs[a as usize] as usize & 511],
            Op::Store(s, a) => mem[regs[a as usize] as usize & 511] = regs[s as usize],
            Op::AddI(d, n) => regs[d as usize] = regs[d as usize].wrapping_add(n),
            Op::Add(d, s) => regs[d as usize] = regs[d as usize].wrapping_add(regs[s as usize]),
            Op::Jlt(a, b, t) => {
                if regs[a as usize] < regs[b as usize] {
                    pc = t as usize;
                    continue;
                }
            }
        }
        pc += 1;
    }
    sum = sum.wrapping_add(mem.iter().sum::<i64>() as u64);
    // Sort the tokens.
    toks.sort_unstable();
    toks.dedup();
    sum.wrapping_add(toks.len() as u64)
}

/// Time one [`unit`], in microseconds.
pub fn time_unit() -> f64 {
    let t = Instant::now();
    black_box(unit());
    t.elapsed().as_secs_f64() * 1e6
}

/// Half-width of the window of neighbouring reference times whose
/// median calibrates one call.
const HALF: usize = 8;

/// Per-call calibration factors from the unit time taken after each
/// call: the nominal time over the median of the unit times within
/// [`HALF`] calls either side.
pub fn factors(units: &[f64]) -> Vec<f64> {
    (0..units.len())
        .map(|i| factor(&units[i.saturating_sub(HALF)..(i + HALF + 1).min(units.len())]))
        .collect()
}

/// One calibration factor for a stretch of time with reference times
/// `refs`: the nominal time over their median.
pub fn factor(refs: &[f64]) -> f64 {
    NOMINAL_UNIT_US / median(refs.to_vec())
}

/// The middle element of `v` (upper middle for an even count).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(NOMINAL_UNIT_US)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_deterministic() {
        let a = unit();
        assert_eq!(a, unit());
        assert!(time_unit() > 0.0);
    }

    #[test]
    fn factors_use_the_median_of_nearby_units() {
        // A host twice as slow for the second half of the run.
        let mut units = vec![NOMINAL_UNIT_US; 40];
        units.extend(vec![2.0 * NOMINAL_UNIT_US; 40]);
        // One unit hit by a preemption changes nothing.
        units[10] = 50.0 * NOMINAL_UNIT_US;
        let f = factors(&units);
        assert_eq!(f.len(), 80);
        assert_eq!(f[10], 1.0);
        assert_eq!(f[5], 1.0);
        assert_eq!(f[75], 0.5);
        assert_eq!(factor(&[NOMINAL_UNIT_US / 4.0]), 4.0);
    }
}
