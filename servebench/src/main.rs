//! `servebench`: the served-editor benchmark.
//!
//! ```text
//! servebench --eelserved PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the `eelserved` binary, running as its own process, through
//! one named workload (`cold-mixed`, `warm-sessions`, `twin-fleet`; see
//! `corpus.rs` and README.md). A run is a fixed number of whole
//! *rounds*, `ceil(--seconds / the workload's nominal round length)`:
//! each round spawns a fresh daemon, primes it (set-up), sends the
//! workload's fixed request sequence (the timed phase), reads the
//! daemon's counters and `/proc` figures, and shuts it down. Output
//! checks run after the timed phases, never inside them.
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`, which adds an in-process replay of the inputs
//! through the layers' public functions, see `trace.rs`). A readable
//! report goes to stderr.

mod check;
mod corpus;
mod daemon;
mod drive;
mod trace;

use check::Checker;
use corpus::Workload;
use daemon::{Daemon, Metrics};
use eel_serve::{Request, Response};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// p99 needs at least ten samples beyond it.
const MIN_TIMED_REQUESTS: usize = 1000;

/// `setup_s` is the median of at least this many set-ups: a run with
/// fewer rounds sets up (and shuts down) extra daemons first.
const MIN_SETUPS: usize = 15;

/// No new round starts after this much of the run: the checks and the
/// traced replay still have to fit in the run's time limit. (Only a
/// program several times slower than the nominal round lengths gets
/// here; the report then says the run was cut short.)
const LAST_ROUND_START: Duration = Duration::from_secs(110);

struct Args {
    eelserved: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut eelserved = None;
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--eelserved" => eelserved = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed: bad seed {value:?}"))?
            }
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0.0,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        eelserved: eelserved.ok_or("--eelserved PATH is required")?,
        workload: workload.ok_or("--workload NAME is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The distinct requests of a workload and the three sequences (prime,
/// session, one-shot) as indices into them.
struct Plan {
    requests: Vec<Request>,
    /// `(input, op)` of each distinct request.
    pairs: Vec<(usize, &'static str)>,
    prime: Vec<usize>,
    timed: Vec<usize>,
    oneshot: Vec<usize>,
}

impl Plan {
    fn new(w: &Workload) -> Plan {
        let mut index: HashMap<(usize, &'static str), usize> = HashMap::new();
        let mut plan = Plan {
            requests: Vec::new(),
            pairs: Vec::new(),
            prime: Vec::new(),
            timed: Vec::new(),
            oneshot: Vec::new(),
        };
        let mut intern = |plan: &mut Plan, r: &corpus::Req| {
            *index.entry((r.input, r.op)).or_insert_with(|| {
                plan.requests.push(w.inputs[r.input].request(r.op));
                plan.pairs.push((r.input, r.op));
                plan.requests.len() - 1
            })
        };
        for r in &w.prime {
            let i = intern(&mut plan, r);
            plan.prime.push(i);
        }
        for r in &w.timed {
            let i = intern(&mut plan, r);
            plan.timed.push(i);
        }
        for r in &w.oneshot {
            let i = intern(&mut plan, r);
            plan.oneshot.push(i);
        }
        plan
    }
}

/// One round: fresh daemon, set-up, timed phase, counters, shutdown.
struct Round {
    setup_s: f64,
    timed_s: f64,
    latencies_us: Vec<f64>,
    cpu_ms: f64,
    hwm_kb: f64,
    /// VmRSS growth from ready to the end of the round.
    rss_growth_kb: f64,
    /// Ops the daemon computed since it started (priming included).
    computed_since_start: f64,
    /// Daemon counters over the timed phase.
    delta: Metrics,
    /// Priming replies, by position in the prime sequence.
    primed: Vec<Response>,
    /// Session replies, by position in the timed sequence (kept for
    /// workloads whose timed replies are checked after the phase).
    replies: Vec<Response>,
    /// Timed replies that were not a memory hit byte-identical to the
    /// primed reply of the same request (warm-sessions).
    warm_mismatches: u64,
    /// Timed error replies: count per blanked reason.
    failures: BTreeMap<String, u64>,
    failed: u64,
}

/// Set-up: spawns a daemon and sends the priming requests. Returns the
/// daemon, its `VmRSS` when ready, the priming replies and the set-up
/// time in seconds.
fn set_up(
    w: &Workload,
    plan: &Plan,
    bin: &std::path::Path,
) -> std::io::Result<(Daemon, f64, Vec<Response>, f64)> {
    let started = Instant::now();
    let daemon = Daemon::spawn(bin, w.cache_bytes)?;
    let rss_ready = daemon.status_kb("VmRSS")?;
    let client = daemon.client();
    let mut primed: Vec<Option<Response>> = vec![None; plan.prime.len()];
    drive::session(&client, &plan.requests, &plan.prime, w.window, |k, r| {
        primed[k] = Some(r);
    })?;
    let primed = primed
        .into_iter()
        .map(|r| r.expect("every prime answered"))
        .collect();
    Ok((daemon, rss_ready, primed, started.elapsed().as_secs_f64()))
}

fn round(w: &Workload, plan: &Plan, bin: &std::path::Path) -> Result<Round, String> {
    let io = |e: std::io::Error| e.to_string();
    let (daemon, rss_ready, primed, setup_s) = set_up(w, plan, bin).map_err(io)?;
    let client = daemon.client();

    // Warm replies are compared with the primed reply of the same
    // request as they arrive (a memcmp, small next to a round trip), so
    // no reply needs to be kept.
    let mut primed_by_request: Vec<Option<&Response>> = vec![None; plan.requests.len()];
    for (k, &i) in plan.prime.iter().enumerate() {
        primed_by_request[i] = Some(&primed[k]);
    }
    let keep_replies = plan.oneshot.is_empty();
    let mut failures: BTreeMap<String, u64> = BTreeMap::new();
    let mut failed = 0u64;
    let mut warm_mismatches = 0u64;
    let mut tally = |order: &[usize], k: usize, r: &Response| {
        if let Response::Err(msg) = r {
            failed += 1;
            *failures.entry(check::reason(msg)).or_default() += 1;
        }
        if !keep_replies {
            let same = match (r, primed_by_request[order[k]]) {
                (
                    Response::Ok {
                        tier: eel_serve::CacheTier::Memory,
                        body,
                        ..
                    },
                    Some(Response::Ok { body: want, .. }),
                ) => body == want,
                _ => false,
            };
            warm_mismatches += u64::from(!same);
        }
    };

    let before = daemon.metrics().map_err(io)?;
    let cpu_before = daemon.cpu_ms().map_err(io)?;
    let timed_start = Instant::now();
    let mut replies: Vec<Option<Response>> = Vec::new();
    let latencies_us = if plan.oneshot.is_empty() {
        replies = vec![None; plan.timed.len()];
        drive::session(&client, &plan.requests, &plan.timed, w.window, |k, r| {
            tally(&plan.timed, k, &r);
            replies[k] = Some(r);
        })
        .map_err(io)?
    } else {
        // Two connections on two threads: the session, and one-shot
        // requests beside it. Each thread tallies its own replies.
        let tally = std::sync::Mutex::new(&mut tally);
        let (s, o) = std::thread::scope(|scope| {
            let oneshot = scope.spawn(|| {
                drive::oneshot(&client, &plan.requests, &plan.oneshot, |k, r| {
                    (tally.lock().expect("tally lock"))(&plan.oneshot, k, &r);
                })
            });
            let session = drive::session(&client, &plan.requests, &plan.timed, w.window, |k, r| {
                (tally.lock().expect("tally lock"))(&plan.timed, k, &r);
            });
            (session, oneshot.join().expect("one-shot client thread"))
        });
        let mut all = s.map_err(io)?;
        all.extend(o.map_err(io)?);
        all
    };
    let timed_s = timed_start.elapsed().as_secs_f64();
    let cpu_ms = daemon.cpu_ms().map_err(io)? - cpu_before;
    let after = daemon.metrics().map_err(io)?;
    let hwm_kb = daemon.status_kb("VmHWM").map_err(io)?;
    let rss_growth_kb = daemon.status_kb("VmRSS").map_err(io)? - rss_ready;
    daemon.stop().map_err(io)?;
    Ok(Round {
        setup_s,
        timed_s,
        latencies_us,
        cpu_ms,
        hwm_kb,
        rss_growth_kb,
        computed_since_start: after.sum_matching("serve.ops.", ".computed"),
        delta: after.since(&before),
        primed,
        replies: replies.into_iter().flatten().collect(),
        warm_mismatches,
        failures,
        failed,
    })
}

/// The counts one round must repeat exactly: ops computed, fragment
/// hits, and CFG blocks built, over the timed phase.
fn exact_counts(r: &Round) -> (u64, u64, u64) {
    (
        r.delta.sum_matching("serve.ops.", ".computed") as u64,
        r.delta.value("serve.cache.fragment.hit") as u64,
        r.delta.value("core.cfg.blocks") as u64,
    )
}

/// Whether two rounds answered one request alike: the same bytes from
/// the same tier, or the same error. (Fragment accounting is compared
/// as a count, see [`exact_counts`].)
fn same_reply(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (
            Response::Ok {
                body: x, tier: t, ..
            },
            Response::Ok {
                body: y, tier: u, ..
            },
        ) => x == y && t == u,
        (Response::Err(x), Response::Err(y)) => x == y,
        _ => false,
    }
}

fn run(args: &Args) -> Result<String, String> {
    let run_started = Instant::now();
    let w = corpus::build(&args.workload, args.seed)?;
    let plan = Plan::new(&w);
    eprintln!(
        "servebench: {}: {} images, {} set-up and {} timed requests per round (seed {}, \
         inputs made in {:.2}s)",
        w.name,
        w.inputs.len(),
        plan.prime.len(),
        w.timed_len(),
        args.seed,
        run_started.elapsed().as_secs_f64()
    );
    if w.timed_len() < MIN_TIMED_REQUESTS {
        return Err(format!(
            "{} times {} requests a round, fewer than {MIN_TIMED_REQUESTS}",
            w.name,
            w.timed_len()
        ));
    }
    let wanted = ((args.seconds / w.round_seconds).ceil() as usize).max(1);
    let mut setups = Vec::new();
    for _ in wanted..MIN_SETUPS {
        let (daemon, _, _, setup_s) =
            set_up(&w, &plan, &args.eelserved).map_err(|e| e.to_string())?;
        daemon.stop().map_err(|e| e.to_string())?;
        setups.push(setup_s);
    }
    let mut checking = Duration::ZERO;

    let mut rounds: Vec<Round> = Vec::new();
    let mut checker = Checker::new(&w);
    while rounds.len() < wanted {
        if !rounds.is_empty() && run_started.elapsed() > LAST_ROUND_START {
            eprintln!(
                "servebench: cut short after {} of {wanted} rounds",
                rounds.len()
            );
            break;
        }
        let r = round(&w, &plan, &args.eelserved)?;
        // Checks, outside the timed phase: the first round's replies in
        // full, every later round's against the first's byte for byte.
        let checks_started = Instant::now();
        if let Some(first) = rounds.first() {
            let n = rounds.len() + 1;
            let differs = |a: &[Response], b: &[Response]| {
                a.len() != b.len() || a.iter().zip(b).any(|(x, y)| !same_reply(x, y))
            };
            if differs(&r.primed, &first.primed) || differs(&r.replies, &first.replies) {
                checker
                    .failures
                    .push(format!("round {n}: replies differ from round 1's"));
            }
            // Ops computed and fragment hits must repeat exactly. (The
            // CFG-block count is only reported: it drifts with two
            // requests in flight, see README.md.)
            let (want, got) = (exact_counts(first), exact_counts(&r));
            if (got.0, got.1) != (want.0, want.1) {
                checker.failures.push(format!(
                    "round {n}: {} ops computed and {} fragment hits, round 1 had {} and {}",
                    got.0, got.1, want.0, want.1
                ));
            }
        } else {
            for (k, &i) in plan.prime.iter().enumerate() {
                let (input, op) = plan.pairs[i];
                if w.inputs[input].runnable {
                    checker.reply(input, op, &r.primed[k]);
                }
            }
            // Twins are checked against a cold in-process run; every
            // other kept reply against the input itself.
            if !r.replies.is_empty() {
                let cold = check::cold_twin_results(&w, &plan);
                for (k, &i) in plan.timed.iter().enumerate() {
                    let (input, op) = plan.pairs[i];
                    match cold.get(&i) {
                        Some(Ok(body)) => checker.twin_reply(input, op, &r.replies[k], body),
                        Some(Err(e)) => checker.failures.push(format!("cold {op}: {e}")),
                        None => checker.reply(input, op, &r.replies[k]),
                    }
                }
            }
        }
        if r.warm_mismatches > 0 {
            checker.failures.push(format!(
                "{} timed replies were not memory hits identical to their primed replies",
                r.warm_mismatches
            ));
        }
        if !plan.oneshot.is_empty() && exact_counts(&r).0 != 0 {
            checker
                .failures
                .push("ops were computed during a warm timed phase".into());
        }
        checking += checks_started.elapsed();
        eprintln!(
            "servebench: round {}: set-up {:.4}s, {:.1} req/s, p50 {:.4} ms, p99 {:.4} ms, \
             cpu {:.4} ms/req",
            rounds.len() + 1,
            r.setup_s,
            r.latencies_us.len() as f64 / r.timed_s,
            median(r.latencies_us.clone()) / 1e3,
            quantile(&mut r.latencies_us.clone(), 0.99) / 1e3,
            r.cpu_ms / r.latencies_us.len() as f64,
        );
        setups.push(r.setup_s);
        rounds.push(r);
    }

    let attempted: usize = rounds.iter().map(|r| r.latencies_us.len()).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let mut reasons: BTreeMap<String, u64> = BTreeMap::new();
    for r in &rounds {
        for (reason, n) in &r.failures {
            *reasons.entry(reason.clone()).or_default() += n;
        }
    }
    eprintln!(
        "servebench: {} rounds in {:.2}s (checks {:.2}s), ops attempted {attempted}, failed {failed}",
        rounds.len(),
        run_started.elapsed().as_secs_f64(),
        checking.as_secs_f64()
    );
    for (reason, n) in &reasons {
        eprintln!("servebench:   {n} x {reason}");
    }
    for f in checker.failures.iter().take(20) {
        eprintln!("servebench: CHECK FAILED: {f}");
    }
    let correct = checker.failures.is_empty();

    let metrics = if args.trace {
        trace::per_layer(&w, &plan, &rounds, &checker)
    } else {
        end_to_end(&rounds, &setups, &checker)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The value at quantile `q` of `values`, linearly interpolated.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(mut values: Vec<f64>) -> f64 {
    quantile(&mut values, 0.5)
}

/// The end-to-end metrics. Each timing is its own best over the run's
/// fixed number of rounds (highest throughput, lowest latency and CPU
/// per request): host noise on a shared machine only ever slows a
/// round down, so the best of a fixed number of rounds is the steadiest
/// estimate of what the program costs. Every round times at least
/// 1,000 requests, so ten lie beyond its p99.
/// Set-up time is the median over every set-up of the run (at least
/// [`MIN_SETUPS`]), memory the median over the rounds.
fn end_to_end(rounds: &[Round], setups: &[f64], checker: &Checker) -> Vec<Metric> {
    let each = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let best_low = |f: &dyn Fn(&Round) -> f64| each(f).into_iter().fold(f64::INFINITY, f64::min);
    let best_high = |f: &dyn Fn(&Round) -> f64| each(f).into_iter().fold(0.0, f64::max);
    let per_round = |f: &dyn Fn(&Round) -> f64| median(each(f));
    let ratio = |(a, b): (u64, u64)| b as f64 / a.max(1) as f64;
    let slowdowns = &checker.slowdowns;
    let geomean =
        (slowdowns.iter().map(|s| s.ln()).sum::<f64>() / slowdowns.len().max(1) as f64).exp();
    let e2e = |name: &str, value: f64, unit: &'static str| (name.to_string(), value, unit);
    vec![
        e2e(
            "throughput_rps",
            best_high(&|r| r.latencies_us.len() as f64 / r.timed_s),
            "1/s",
        ),
        e2e(
            "latency_p50_ms",
            best_low(&|r| median(r.latencies_us.clone()) / 1e3),
            "ms",
        ),
        e2e(
            "latency_p99_ms",
            best_low(&|r| quantile(&mut r.latencies_us.clone(), 0.99) / 1e3),
            "ms",
        ),
        e2e(
            "cpu_ms_per_req",
            best_low(&|r| r.cpu_ms / r.latencies_us.len() as f64),
            "ms",
        ),
        e2e("peak_rss_mb", per_round(&|r| r.hwm_kb / 1024.0), "MiB"),
        e2e("setup_s", median(setups.to_vec()), "s"),
        e2e("code_growth", ratio(checker.text_bytes), "ratio"),
        e2e("instrument_slowdown", geomean, "ratio"),
    ]
}
