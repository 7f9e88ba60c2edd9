//! `perfbench` — the racellm benchmark.
//!
//! ```text
//! perfbench --workload <core-cold|serve-cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload untraced and prints its end-to-end
//! metrics; `--trace 1` replays the workload's inputs serially with a
//! span around every layer call and prints the per-layer metrics. Every
//! response is checked against the DRB labels; any failed check makes
//! the run exit non-zero. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and every metric.

mod calib;
mod check;
mod gen;
mod load;
mod stats;
mod trace;
mod traced;

use gen::{Input, Route, Stream};
use serde_json::Value;
use serve::server::ServerHandle;
use serve::ServeConfig;
use stats::{quantile, ratio};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Cursor;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Fresh processes that time set-ups in each run; `setup_s` is the mean
/// of their medians. Set-up time differs between processes by up to a
/// third (memory layout); a mean over several keeps runs comparable.
const SETUP_PROCS: usize = 6;
/// Set-ups each of those processes times.
const SETUP_REPS: usize = 11;
/// Calibration units timed after each set-up.
const SETUP_UNITS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    CoreCold,
    ServeCold,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "core-cold" => Some(Workload::CoreCold),
            "serve-cold" => Some(Workload::ServeCold),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::CoreCold => "core-cold",
            Workload::ServeCold => "serve-cold",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("unexpected arguments: {argv:?}")),
        }
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload =
        Workload::parse(get("workload")?).ok_or("--workload must be core-cold or serve-cold")?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Attempts, failures, and the first few failure messages.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    fn attempt(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            self.note(e);
        }
    }

    /// A failed run-level check (not tied to one request).
    fn fail_run(&mut self, e: String) {
        self.failed += 1;
        self.note(e);
    }

    fn note(&mut self, e: String) {
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

/// Named metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn layer(&mut self, name: &str, self_us: &[f64]) {
        self.put(format!("{name}.calls"), self_us.len() as f64, "count");
        self.put(
            format!("{name}.total_ms"),
            self_us.iter().sum::<f64>() / 1e3,
            "ms",
        );
        self.put(format!("{name}.p50_us"), quantile(self_us, 0.5), "us");
        self.put(format!("{name}.p99_us"), quantile(self_us, 0.99), "us");
    }

    fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    let m = Value::Object(vec![
                        ("value".into(), Value::Float(*v)),
                        ("unit".into(), Value::Str((*u).into())),
                    ]);
                    (n.clone(), m)
                })
                .collect(),
        )
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    }
}

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut c) = serve::http::client::Client::connect(addr, Duration::from_secs(2)) {
            if let Ok((200, _)) = c.request("GET", "/healthz", &[], b"") {
                return Ok(());
            }
        }
        if Instant::now() > give_up {
            return Err("server did not become healthy within 10 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Build the corpus, and start the server when `serve` is set, until
/// `/healthz` answers 200.
fn set_up(serve: bool) -> Result<(Vec<drb_gen::Kernel>, Option<ServerHandle>), String> {
    let corpus = drb_gen::build()?;
    let server = if serve {
        let h = serve::server::start(serve_config()).map_err(|e| format!("server start: {e}"))?;
        wait_healthy(h.addr())?;
        Some(h)
    } else {
        None
    };
    Ok((corpus, server))
}

/// The median of [`SETUP_REPS`] timed set-ups in this process,
/// calibrated by the reference units timed after each (see [`calib`]).
fn time_set_ups(serve: bool) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut refs = Vec::with_capacity(SETUP_REPS * SETUP_UNITS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (_corpus, server) = set_up(serve)?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(h) = server {
            h.shutdown();
        }
        refs.extend((0..SETUP_UNITS).map(|_| calib::time_unit()));
    }
    Ok(stats::median(&times) * calib::factor(&refs))
}

/// `setup_s`: the mean over [`SETUP_PROCS`] fresh processes of this
/// binary (`--setup-probe`) of each one's median set-up time.
fn setup_seconds(serve: bool) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut medians = Vec::with_capacity(SETUP_PROCS);
    for _ in 0..SETUP_PROCS {
        let out = std::process::Command::new(&exe)
            .args(["--setup-probe", if serve { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| out.status.success());
        medians.push(secs.ok_or_else(|| format!("setup probe failed: {text}"))?);
    }
    Ok(medians.iter().sum::<f64>() / medians.len() as f64)
}

fn engine(route: Route, code: &str) -> String {
    match route {
        Route::Analyze => serve::analyze::response_body(code),
        Route::Fix => serve::fixer::fix_body(code),
    }
}

/// Check one engine body against the labels; fix bodies also have their
/// certified patch re-analyzed.
fn judge(route: Route, body: &str, input: &Input) -> (Result<(), String>, bool) {
    match route {
        Route::Analyze => (check::check_analyze(body, input), false),
        Route::Fix => match check::check_fix(body, input) {
            Ok(f) => (
                f.patched.as_deref().map_or(Ok(()), check::check_patch),
                f.certified,
            ),
            Err(e) => (Err(e), false),
        },
    }
}

/// Capacity reserved for a run's timed calls, above what a 60-second run
/// makes. Growing the list would copy it, and the copy's transient
/// memory would land in `peak_rss_mb` at a point that varies by run.
const CALLS_RESERVED: usize = 1 << 18;

/// One timed call: its route, its measured time in ms, and the time of
/// the calibration unit run right after it.
struct Call {
    route: Route,
    ms: f64,
    unit_us: f64,
}

/// The tail quantile reported per route. The fix route's latencies
/// have a gap: the oversized racy kernels, about 1.05 % of fix calls,
/// take 3-4× longer than any other. Its p99 sits on that edge and jumps
/// between the two sides from run to run, so the fix tail is read at
/// p99.5, inside the slow group. The analyze p99 falls inside a group
/// already.
const TAILS: [(Route, &str, &str, f64); 2] = [
    (Route::Analyze, "analyze", "p99", 0.99),
    (Route::Fix, "fix", "p99.5", 0.995),
];

/// Consecutive slices a run's calls are cut into. Each timing metric is
/// the middle of its values over the slices, so a stretch of a few
/// seconds in which the shared host misbehaves moves one or two slices,
/// not the result.
const SLICES: usize = 5;

/// Throughput and latency quantiles of one slice of calls, calibrated
/// by `factors`, and the measured (`raw.*`) ones.
fn timing_metrics(calls: &[Call], factors: &[f64]) -> Metrics {
    let mut by_route: HashMap<(Route, bool), Vec<f64>> = HashMap::new();
    let (mut busy_s, mut raw_busy_s) = (0.0, 0.0);
    for (c, f) in calls.iter().zip(factors) {
        busy_s += c.ms * f / 1e3;
        raw_busy_s += c.ms / 1e3;
        by_route.entry((c.route, true)).or_default().push(c.ms * f);
        by_route.entry((c.route, false)).or_default().push(c.ms);
    }
    let get = |route, calibrated| {
        by_route
            .get(&(route, calibrated))
            .map_or(&[][..], Vec::as_slice)
    };
    let n = calls.len() as f64;
    let mut m = Metrics::default();
    m.put("throughput_rps", ratio(n, busy_s), "req/s");
    for (calibrated, prefix) in [(true, ""), (false, "raw.")] {
        if !calibrated {
            m.put("raw.throughput_rps", ratio(n, raw_busy_s), "req/s");
        }
        for (route, name, tail, q) in TAILS {
            let t = get(route, calibrated);
            m.put(format!("{prefix}{name}_p50_ms"), quantile(t, 0.5), "ms");
            m.put(format!("{prefix}{name}_{tail}_ms"), quantile(t, q), "ms");
        }
    }
    m
}

/// The end-to-end metrics of a run of timed calls, calibrated call by
/// call (see [`calib`]): the timing metrics are the middle values over
/// [`SLICES`] slices of the run. `throughput_rps` is calls per second
/// of calibrated call time. `rss_mb` is the peak resident set read
/// right after the timed loop, before this analysis allocates.
fn call_metrics(calls: &[Call], checks: &Checks, certified: u64, rss_mb: f64) -> Metrics {
    let units: Vec<f64> = calls.iter().map(|c| c.unit_us).collect();
    let factors = calib::factors(&units);
    let size = calls.len().div_ceil(SLICES).max(1);
    let slices: Vec<Metrics> = calls
        .chunks(size)
        .zip(factors.chunks(size))
        .map(|(c, f)| timing_metrics(c, f))
        .collect();
    let mut m = timing_metrics(&[], &[]);
    for (i, (_, value, _)) in m.0.iter_mut().enumerate() {
        *value = stats::middle(slices.iter().map(|s| s.0[i].1).collect());
    }
    let fixes = calls.iter().filter(|c| c.route == Route::Fix).count();
    m.put(
        "error_ratio",
        ratio(checks.failed as f64, checks.attempted as f64),
        "1",
    );
    m.put(
        "fix_certified_ratio",
        ratio(certified as f64, fixes as f64),
        "1",
    );
    m.put("peak_rss_mb", rss_mb, "MB");
    m.put("calib.unit_us", stats::median(&units), "us");
    m.put("calls.analyze", (calls.len() - fixes) as f64, "count");
    m.put("calls.fix", fixes as f64, "count");
    m
}

/// `core-cold`: one in-process caller on fresh kernels. Generation and
/// checks run between calls, outside the timed calls; a calibration
/// unit runs right after each call.
fn core_cold(stream: &mut Stream<'_>, secs: f64, checks: &mut Checks) -> Metrics {
    let mut calls = Vec::with_capacity(CALLS_RESERVED);
    let mut certified = 0u64;
    let window = Duration::from_secs_f64(secs);
    let t0 = Instant::now();
    for (input, route) in gen::Requests::new(stream) {
        if t0.elapsed() >= window {
            break;
        }
        let t = Instant::now();
        let body = black_box(engine(route, black_box(&input.code)));
        let ms = ms(t.elapsed());
        calls.push(Call {
            route,
            ms,
            unit_us: calib::time_unit(),
        });
        let (check, cert) = judge(route, &body, &input);
        certified += u64::from(cert);
        checks.attempt(check);
    }
    call_metrics(&calls, checks, certified, peak_rss_mb())
}

/// Counter deltas scraped from `/metrics` around a load window.
struct Scrape(String);

impl Scrape {
    fn take(h: &ServerHandle) -> Scrape {
        Scrape(h.render_metrics())
    }

    fn get(&self, name: &str) -> f64 {
        serve::metrics::scrape_value(&self.0, name).unwrap_or(0.0)
    }

    fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.get(name) - before.get(name)
    }
}

/// What the server's `/metrics` counters saw over a load window.
#[derive(Default)]
struct LoadStats {
    hit_ratio: f64,
    batch_mean: f64,
    rejected_429: f64,
    expired_504: f64,
    oracle_fallbacks: f64,
}

impl LoadStats {
    fn between(before: &Scrape, after: &Scrape) -> LoadStats {
        let hits = after.delta(before, "racellm_cache_hits_total");
        let misses = after.delta(before, "racellm_cache_misses_total");
        LoadStats {
            hit_ratio: ratio(hits, hits + misses),
            batch_mean: ratio(
                after.delta(before, "racellm_batch_size_sum"),
                after.delta(before, "racellm_batch_size_count"),
            ),
            rejected_429: after.delta(before, "racellm_queue_rejected_total"),
            expired_504: after.delta(before, "racellm_deadline_expired_total")
                + after.delta(before, "racellm_worker_expired_total"),
            oracle_fallbacks: after.delta(before, "racellm_oracle_fallbacks_total"),
        }
    }
}

/// `serve-cold`: the `core-cold` stream over HTTP, closed loop on one
/// keep-alive connection: each request is sent when the answer to the
/// previous one is in. Latency runs from the first byte sent to the
/// last byte received; a calibration unit runs right after each
/// response. The body is then checked: it must equal the in-process
/// engine's body for the same code, which is judged against the labels.
fn serve_cold(
    h: &ServerHandle,
    stream: &mut Stream<'_>,
    secs: f64,
    checks: &mut Checks,
) -> Result<(Metrics, LoadStats), String> {
    let mut client = load::Client::connect(h.addr())?;
    let mut calls = Vec::with_capacity(CALLS_RESERVED);
    let mut certified = 0u64;
    let before = Scrape::take(h);
    let window = Duration::from_secs_f64(secs);
    let t0 = Instant::now();
    for (input, route) in gen::Requests::new(stream) {
        if t0.elapsed() >= window {
            break;
        }
        let rendered = load::render_post(route.path(), &input.code);
        let (reply, ms) = client.post(&rendered);
        calls.push(Call {
            route,
            ms,
            unit_us: calib::time_unit(),
        });
        let answer = match reply {
            Ok((200, body)) => {
                let expected = engine(route, &input.code);
                if body == expected.as_bytes() {
                    let (check, cert) = judge(route, &expected, &input);
                    certified += u64::from(cert);
                    check
                } else {
                    Err("HTTP body differs from the in-process body".into())
                }
            }
            Ok((status, _)) => Err(format!("HTTP {status}")),
            Err(e) => Err(format!("HTTP: {e}")),
        };
        checks.attempt(answer);
    }
    let rss_mb = peak_rss_mb();
    let load = LoadStats::between(&before, &Scrape::take(h));
    if load.hit_ratio != 0.0 {
        checks.fail_run(format!(
            "serve-cold cache hit ratio {} is not 0",
            load.hit_ratio
        ));
    }
    Ok((call_metrics(&calls, checks, certified, rss_mb), load))
}

/// Per-request results of the traced replay.
#[derive(Default)]
struct Replay {
    rec: trace::Recorder,
    layers: traced::Tally,
    /// Untraced engine time of every request.
    untraced_ns: u64,
    /// HTTP latency minus the untraced engine time of the same request.
    overhead_us: Vec<f64>,
}

/// Replay one request serially: the HTTP parse of the rendered request,
/// the untraced engine and the traced composition (alternating which
/// goes first), then the same request over HTTP.
fn replay_one(
    rp: &mut Replay,
    client: &mut load::Client,
    j: u64,
    route: Route,
    input: &Input,
    checks: &mut Checks,
) {
    rp.rec.set_request(j);
    let rendered = load::render_post(route.path(), &input.code);
    let limits = serve::http::Limits::default();
    let parsed = rp.rec.span("serve.http_parse", || {
        serve::http::read_request(
            &mut serve::http::Conn::new(Cursor::new(&rendered[..])),
            &limits,
        )
    });
    if parsed.is_err() {
        checks.fail_run("rendered request does not parse".into());
    }

    let untraced = |code: &str| {
        let t = Instant::now();
        let body = black_box(engine(route, black_box(code)));
        (body, t.elapsed().as_nanos() as u64)
    };
    let traced = |rp: &mut Replay, code: &str| match route {
        Route::Analyze => traced::analyze(&mut rp.rec, code, &mut rp.layers),
        Route::Fix => traced::fix(&mut rp.rec, code, &mut rp.layers),
    };
    let (body_t, (body, engine_ns)) = if j.is_multiple_of(2) {
        let u = untraced(&input.code);
        (traced(rp, &input.code), u)
    } else {
        let t = traced(rp, &input.code);
        (t, untraced(&input.code))
    };
    if body_t != body {
        checks.fail_run("traced composition differs from the program's body".into());
    }
    if let (Err(e), _) = judge(route, &body, input) {
        checks.fail_run(e);
    }
    rp.untraced_ns += engine_ns;

    // Every input is fresh, so the server computes this answer too.
    let (reply, http_ms) = client.post(&rendered);
    let r = match reply {
        Ok((200, b)) if b == body.as_bytes() => Ok(()),
        Ok((200, _)) => Err("HTTP body differs from the in-process body".into()),
        Ok((s, _)) => Err(format!("HTTP {s}")),
        Err(e) => Err(format!("HTTP: {e}")),
    };
    checks.attempt(r);
    rp.overhead_us.push(http_ms * 1e3 - engine_ns as f64 / 1e3);
}

/// Every layer the traced run times, in report order.
const LAYERS: [&str; 12] = [
    "minic.trim",
    "minic.parse",
    "racecheck.check",
    "llm.tokenize",
    "llm.features",
    "llm.surrogate",
    "llm.artifact",
    "hbsan.lower",
    "hbsan.sweep",
    "repair.fix",
    "serve.serialize",
    "serve.http_parse",
];

fn layer_metrics(rp: &Replay, load: &LoadStats) -> Metrics {
    let spans = rp.rec.spans();
    let by = trace::self_times_by_name(spans);
    let mut m = Metrics::default();
    for name in LAYERS {
        m.layer(name, by.get(name).map_or(&[][..], Vec::as_slice));
    }
    m.layer("serve.overhead", &rp.overhead_us);
    let t = &rp.layers;
    m.put("hbsan.lower.rejected", t.lower_rejected as f64, "count");
    m.put(
        "hbsan.sweep.fallback_ratio",
        ratio(t.sweep_fallbacks as f64, t.sweeps as f64),
        "1",
    );
    m.put(
        "repair.fix.candidates_mean",
        ratio(t.candidates as f64, t.fixes as f64),
        "count",
    );
    m.put(
        "repair.fix.certified_ratio",
        ratio(t.certified as f64, t.fixes as f64),
        "1",
    );
    m.put("serve.cache.hit_ratio", load.hit_ratio, "1");
    m.put("serve.batch.mean_size", load.batch_mean, "count");
    m.put("serve.rejected_429", load.rejected_429, "count");
    m.put("serve.expired_504", load.expired_504, "count");
    m.put("serve.oracle_fallbacks", load.oracle_fallbacks, "count");

    // Coverage: layer self time inside the engine roots over the
    // untraced engine time of the same requests.
    let selfs = trace::self_times(spans);
    let is_root = |s: &trace::Span| matches!(s.name, "serve.analyze" | "serve.fix");
    let (mut layer_ns, mut traced_ns) = (0u64, 0u64);
    for (s, t) in spans.iter().zip(&selfs) {
        if is_root(s) {
            traced_ns += s.dur_ns();
        } else if s.parent.is_some_and(|p| is_root(&spans[p])) {
            layer_ns += t;
        }
    }
    m.put(
        "trace.coverage",
        ratio(layer_ns as f64, rp.untraced_ns as f64),
        "1",
    );
    m.put(
        "trace.overhead",
        ratio(traced_ns as f64, rp.untraced_ns as f64) - 1.0,
        "1",
    );
    m
}

/// The traced run's serial replay of `requests` for `secs` seconds, each
/// also sent to the server `h`.
fn replay(
    h: &ServerHandle,
    secs: f64,
    requests: impl Iterator<Item = (Input, Route)>,
    checks: &mut Checks,
) -> Result<Replay, String> {
    let mut client = load::Client::connect(h.addr())?;
    let mut rp = Replay::default();
    let window = Duration::from_secs_f64(secs);
    let t0 = Instant::now();
    for (j, (input, route)) in (0u64..).zip(requests) {
        if t0.elapsed() >= window {
            break;
        }
        replay_one(&mut rp, &mut client, j, route, &input, checks);
    }
    Ok(rp)
}

fn provenance(args: &Args, checks: &Checks) -> Value {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cfg = serve_config();
    Value::Object(vec![
        ("workload".into(), Value::Str(args.workload.name().into())),
        ("seed".into(), Value::Int(args.seed as i64)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("git_rev".into(), Value::Str(rev)),
        ("nproc".into(), Value::Int(nproc as i64)),
        (
            "par_workers".into(),
            Value::Int(par::default_workers() as i64),
        ),
        ("client_connections".into(), Value::Int(1)),
        (
            "calib_nominal_unit_us".into(),
            Value::Float(calib::NOMINAL_UNIT_US),
        ),
        ("serve_config".into(), Value::Str(format!("{cfg:?}"))),
        (
            "errors".into(),
            Value::Array(checks.errors.iter().cloned().map(Value::Str).collect()),
        ),
    ])
}

fn run(args: &Args) -> Result<(Checks, Metrics, Option<trace::Recorder>), String> {
    let mut checks = Checks::default();
    let serves = args.workload == Workload::ServeCold;
    let setup_s = if args.trace {
        0.0
    } else {
        setup_seconds(serves)?
    };
    let (corpus, server) = set_up(serves || args.trace)?;
    let secs = args.seconds;
    let mut stream = Stream::new(&corpus, args.seed);

    let result = match (args.trace, args.workload, &server) {
        (false, Workload::CoreCold, _) => {
            let mut m = Metrics::default();
            m.put("setup_s", setup_s, "s");
            m.0.extend(core_cold(&mut stream, secs, &mut checks).0);
            (m, None)
        }
        (false, Workload::ServeCold, Some(h)) => {
            let mut m = Metrics::default();
            m.put("setup_s", setup_s, "s");
            m.0.extend(serve_cold(h, &mut stream, secs, &mut checks)?.0 .0);
            (m, None)
        }
        // Traced run: `serve-cold` first runs its own untraced loop for
        // half the time (load, cache and queue counters); then the
        // workload's requests are replayed serially with spans.
        (true, workload, Some(h)) => {
            let (load, replay_s) = match workload {
                Workload::CoreCold => (LoadStats::default(), secs),
                Workload::ServeCold => (
                    serve_cold(h, &mut stream, secs / 2.0, &mut checks)?.1,
                    secs / 2.0,
                ),
            };
            let rp = replay(h, replay_s, gen::Requests::new(&mut stream), &mut checks)?;
            (layer_metrics(&rp, &load), Some(rp.rec))
        }
        _ => unreachable!("serve-cold and traced runs start a server"),
    };
    if let Some(h) = server {
        h.shutdown();
    }
    Ok((checks, result.0, result.1))
}

fn main() {
    if let [flag, serve] = &std::env::args().skip(1).collect::<Vec<_>>()[..] {
        if flag == "--setup-probe" {
            match time_set_ups(serve == "1") {
                Ok(secs) => println!("{secs}"),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    std::process::exit(1);
                }
            }
            return;
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (checks, metrics, rec) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    let out_dir = std::path::Path::new(".bench_out");
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Some(rec) = &rec {
        let written = std::fs::create_dir_all(out_dir).and_then(|()| {
            let mut f = std::io::BufWriter::new(std::fs::File::create(
                out_dir.join(format!("spans-{tag}.tsv")),
            )?);
            rec.write_tsv(&mut f)?;
            std::io::Write::flush(&mut f)
        });
        if let Err(e) = written {
            eprintln!("perfbench: could not write spans: {e}");
        }
    }

    for (name, value, unit) in &metrics.0 {
        println!("{name:<32} {value:>14.4} {unit}");
    }
    for e in &checks.errors {
        println!("FAILED: {e}");
    }
    let prov = provenance(&args, &checks);
    let correct = checks.failed == 0;
    let keep: &[&str] = if args.trace { &[] } else { &END_TO_END };
    let reported = Metrics(
        metrics
            .0
            .into_iter()
            .filter(|(n, _, _)| args.trace || keep.contains(&n.as_str()))
            .collect(),
    );
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Int(checks.attempted as i64)),
        ("failed".into(), Value::Int(checks.failed as i64)),
        ("metrics".into(), reported.to_json()),
    ]);
    let record = Value::Object(vec![
        ("provenance".into(), prov.clone()),
        ("result".into(), result.clone()),
    ]);
    let _ = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(
            out_dir.join(format!("result-{tag}.json")),
            serde_json::to_string_pretty(&record).unwrap_or_default(),
        )
    });
    println!(
        "provenance {}",
        serde_json::to_string(&prov).unwrap_or_default()
    );
    println!("{}", serde_json::to_string(&result).unwrap_or_default());
    if !correct {
        std::process::exit(1);
    }
}

/// The end-to-end metrics `--trace 0` reports (`error_ratio` is printed
/// above the result line; it is 0 on every passing run).
const END_TO_END: [&str; 8] = [
    "setup_s",
    "throughput_rps",
    "analyze_p50_ms",
    "analyze_p99_ms",
    "fix_p50_ms",
    "fix_p99.5_ms",
    "fix_certified_ratio",
    "peak_rss_mb",
];
