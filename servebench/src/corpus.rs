//! The workloads' inputs, generated from the run's seed.
//!
//! Every workload is a fixed sequence of requests over a fixed number
//! of images: the seed picks the random programs, never how many
//! images or requests there are, so work counts (and the share of
//! failing operations) are the same for every seed. Generating inputs
//! is the benchmark's own work and is timed by no metric.

use eel_cc::ast::Program;
use eel_cc::Personality;
use eel_exe::{Image, Machine};
use eel_progen::GenConfig;
use std::collections::HashSet;
use std::sync::Arc;

/// The fixed counter-insertion script every named SPARC image gets as
/// its `edit` request.
pub const EDIT_SCRIPT: &str = "counter main\napply\n";

/// The five whole-image ops the daemon caches.
pub const ANALYSIS_OPS: [&str; 5] = ["disasm", "cfg-summary", "liveness", "stat", "instrument"];

/// The ops a twin gets (`stat` builds no CFG, so it has no fragments).
pub const TWIN_OPS: [&str; 4] = ["disasm", "cfg-summary", "liveness", "instrument"];

/// Interpreter budget (statements + expression nodes) for the oracle
/// run of a generated program; programs that need more are redrawn.
const INTERP_BUDGET: u64 = 2_000_000;

/// Generated programs whose SPARC run executes more instructions than
/// this are redrawn, so the emulator checks stay affordable (the MIPS
/// emulator is several times slower than the SPARC one).
const MAX_EXECUTED: u64 = 100_000;

/// Generated programs that execute fewer instructions than this are
/// redrawn too: a run that takes no conditional branch needs no edge
/// counter, so "instrumented executes more" would not be a check.
const MIN_EXECUTED: u64 = 1_000;

/// A seeded MIPS image above this much text could lose branch reach
/// when instrumented (a known fault: the generic rewriter has no branch
/// relaxation), and whether it does depends on the seed. Seeded MIPS
/// images stay below it; the fault is shown by a fixed input instead.
const MAX_SEEDED_MIPS_TEXT: usize = 32 << 10;

/// No size constraint.
const ANY: std::ops::Range<usize> = 0..usize::MAX;

/// One image the workload sends.
pub struct Input {
    /// Stable name for reports, e.g. `suite/spim/gcc` or `rand/a1/mips`.
    pub label: String,
    /// The image as generated.
    pub image: Image,
    /// Its WEF bytes, exactly as sent.
    pub wef: Vec<u8>,
    /// The source program, for the interpreter oracle (shared by an
    /// image's twins, so the oracle runs once per program).
    pub program: Option<Arc<Program>>,
    /// For a stripped twin: the input it was stripped from.
    pub stripped_from: Option<usize>,
    /// For a one-routine twin: the base image it was mutated from.
    pub twin_of: Option<usize>,
    /// Whether the output checks emulate it (twins are built to be
    /// analysed, not run).
    pub runnable: bool,
    /// The requests this image gets, in order.
    pub ops: Vec<&'static str>,
}

impl Input {
    fn new(label: String, image: Image, program: Option<Arc<Program>>) -> Input {
        let ops: Vec<&'static str> = if image.machine == Machine::Sparc {
            ANALYSIS_OPS.iter().copied().chain(["edit"]).collect()
        } else {
            ANALYSIS_OPS.to_vec()
        };
        Input {
            label,
            wef: image.to_bytes(),
            image,
            program,
            stripped_from: None,
            twin_of: None,
            runnable: true,
            ops,
        }
    }

    /// The request for one of this input's ops.
    pub fn request(&self, op: &str) -> eel_serve::Request {
        let payload = if op == "edit" {
            eel_serve::Payload::Edit {
                wef: self.wef.clone(),
                script: EDIT_SCRIPT.into(),
            }
        } else {
            eel_serve::Payload::Inline(self.wef.clone())
        };
        eel_serve::Request {
            op: op.into(),
            payload,
        }
    }
}

/// One request of a workload: an input and one of its ops.
#[derive(Clone, Copy)]
pub struct Req {
    /// Index into [`Workload::inputs`].
    pub input: usize,
    /// The op name.
    pub op: &'static str,
}

/// A workload: its inputs and its request sequences.
pub struct Workload {
    /// The workload's name, as `--workload` spells it.
    pub name: &'static str,
    /// Every distinct image the workload sends.
    pub inputs: Vec<Input>,
    /// Set-up requests, answered before the timed phase.
    pub prime: Vec<Req>,
    /// The timed requests sent on the session connection.
    pub timed: Vec<Req>,
    /// Session in-flight window for the timed requests.
    pub window: u32,
    /// Timed one-shot (protocol v1) requests sent on a second
    /// connection, concurrently with the session.
    pub oneshot: Vec<Req>,
    /// The daemon's `--cache-bytes`.
    pub cache_bytes: usize,
    /// Nominal length of one timed phase, in seconds, as measured on a
    /// 2-core machine: a run of `--seconds S` runs `ceil(S / this)`
    /// rounds, however fast the program under test is.
    pub round_seconds: f64,
}

impl Workload {
    fn new(name: &'static str, window: u32, cache_bytes: usize, round_seconds: f64) -> Workload {
        Workload {
            name,
            inputs: Vec::new(),
            prime: Vec::new(),
            timed: Vec::new(),
            window,
            oneshot: Vec::new(),
            cache_bytes,
            round_seconds,
        }
    }

    fn push(&mut self, input: Input) -> usize {
        self.inputs.push(input);
        self.inputs.len() - 1
    }

    /// Every (input, op) pair of the given inputs, in input order.
    fn all_requests(&self, inputs: &[usize]) -> Vec<Req> {
        inputs
            .iter()
            .flat_map(|&i| {
                self.inputs[i]
                    .ops
                    .iter()
                    .map(move |&op| Req { input: i, op })
            })
            .collect()
    }

    /// Timed requests per timed phase, both connections together.
    pub fn timed_len(&self) -> usize {
        self.timed.len() + self.oneshot.len()
    }
}

/// The workload names, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 3] = ["cold-mixed", "warm-sessions", "twin-fleet"];

/// Builds the named workload's inputs from `seed`.
///
/// # Errors
///
/// An unknown name, or a generator that cannot produce an input.
pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
    match name {
        "cold-mixed" => cold_mixed(seed),
        "warm-sessions" => warm_sessions(seed),
        "twin-fleet" => twin_fleet(seed),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// splitmix64 over (seed, stream, index): independent program seeds
/// for every draw of every input class.
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(index)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A generated program compiled for both machines, with its oracle run
/// known to be affordable.
struct Drawn {
    program: Arc<Program>,
    sparc: Image,
    mips: Image,
}

/// Draws programs from `config` until one compiles for both machines
/// with SPARC text in `sparc_text` and MIPS text in `mips_text`,
/// interprets within budget, and runs few enough instructions.
/// Deterministic in `(seed, stream)`.
fn draw(
    seed: u64,
    stream: u64,
    config: &GenConfig,
    sparc_text: std::ops::Range<usize>,
    mips_text: std::ops::Range<usize>,
) -> Result<Drawn, String> {
    for index in 0..20_000 {
        let program = eel_progen::random_program(mix(seed, stream, index), config);
        let Ok(sparc) = eel_cc::compile_ast(&program, &eel_cc::Options::default()) else {
            continue;
        };
        if !sparc_text.contains(&sparc.text.len()) {
            continue;
        }
        let Ok(mips) = eel_progen::compile_mips(&program) else {
            continue;
        };
        if !mips_text.contains(&mips.text.len()) || mips.text.len() > MAX_SEEDED_MIPS_TEXT {
            continue;
        }
        if eel_cc::interpret(&program, INTERP_BUDGET).is_err() {
            continue;
        }
        match eel_emu::run_image(&sparc) {
            Ok(out) if (MIN_EXECUTED..=MAX_EXECUTED).contains(&out.executed) => {}
            _ => continue,
        }
        return Ok(Drawn {
            program: Arc::new(program),
            sparc,
            mips,
        });
    }
    Err(format!(
        "no acceptable program in stream {stream} for seed {seed}"
    ))
}

/// One [`draw`]: seed, stream, shape, SPARC and MIPS text ranges.
type Spec = (
    u64,
    u64,
    GenConfig,
    std::ops::Range<usize>,
    std::ops::Range<usize>,
);

/// Runs independent draws on two threads (input generation is the
/// benchmark's own work; no daemon runs yet), results in spec order.
fn draw_all(specs: Vec<Spec>) -> Result<Vec<Drawn>, String> {
    let mut slots: Vec<Option<Result<Drawn, String>>> = Vec::new();
    slots.resize_with(specs.len(), || None);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|t| {
                let specs = &specs;
                s.spawn(move || {
                    (t..specs.len())
                        .step_by(2)
                        .map(|i| {
                            let (seed, stream, config, sparc, mips) = specs[i].clone();
                            (i, draw(seed, stream, &config, sparc, mips))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (i, d) in worker.join().expect("draw thread") {
                slots[i] = Some(d);
            }
        }
    });
    slots
        .into_iter()
        .map(|d| d.expect("every spec drawn"))
        .collect()
}

/// Pushes the stripped twin of input `of`.
fn push_stripped(w: &mut Workload, of: usize) -> usize {
    let source = &w.inputs[of];
    let mut image = source.image.clone();
    image.strip();
    let mut twin = Input::new(
        format!("{}/stripped", source.label),
        image,
        source.program.clone(),
    );
    // A stripped image has no `main` for the edit script to name.
    twin.ops.retain(|&op| op != "edit");
    twin.stripped_from = Some(of);
    w.push(twin)
}

/// Routine extents as the symbol table gives them (each runs to the next
/// routine symbol or the end of text), in address order.
fn routine_extents(image: &Image) -> Vec<(u32, u32)> {
    let mut starts: Vec<u32> = image
        .symbols
        .iter()
        .filter(|s| s.kind == eel_exe::SymbolKind::Routine)
        .map(|s| s.value)
        .collect();
    starts.sort_unstable();
    starts.dedup();
    let ends = starts.iter().skip(1).copied().chain([image.text_end()]);
    starts.iter().copied().zip(ends).collect()
}

/// A routine as the fragment tier keys it: machine, start and bytes.
fn routine_bytes(image: &Image, start: u32, end: u32) -> (Machine, u32, Vec<u8>) {
    let lo = (start - image.text_addr) as usize;
    let hi = (end - image.text_addr) as usize;
    (image.machine, start, image.text[lo..hi].to_vec())
}

/// Shape of the fixed program whose MIPS twin's `instrument` loses
/// branch reach; seed-independent, so its failure count is the same in
/// every run.
const OVERFLOW_CONFIG: GenConfig = GenConfig {
    functions: 3,
    stmts_per_fn: 5,
    max_depth: 3,
    globals: 3,
    arrays: 2,
};
const OVERFLOW_SEED: u64 = 6;
const SECOND_BIG_SEED: u64 = 7;

/// The seed of cold-mixed's fixed small programs.
const FIXED_SEED: u64 = 0;

/// How many fixed small programs cold-mixed sends: enough that a round
/// has over 1,000 requests, so each round's own p99 has ten beyond it.
const FIXED_SMALL: u64 = 64;

/// `cold-mixed`: every request computes. The progen suite under both
/// compiler personalities (byte-identical duplicates dropped), stripped
/// twins of the gcc suite, MIPS twins of every program that compiles for
/// MIPS, fifteen seeded random programs in five size bands, 64 fixed
/// small programs, and two fixed large programs.
///
/// Seeded programs get no stripped twin: a program that never prints
/// leaves the runtime's `__print_int` uncalled, and eel-strip then merges
/// it into the routine before it, so the routine-count check would fail
/// on some seeds only.
fn cold_mixed(seed: u64) -> Result<Workload, String> {
    let mut w = Workload::new("cold-mixed", 1, 256 << 20, 3.0);
    let mut order: Vec<usize> = Vec::new();

    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    for workload in eel_progen::suite() {
        let program = Arc::new(eel_cc::parse(&workload.source).map_err(|e| e.to_string())?);
        for (personality, tag) in [(Personality::Gcc, "gcc"), (Personality::SunPro, "sunpro")] {
            let image = eel_progen::compile(&workload, personality).map_err(|e| e.to_string())?;
            if !seen.insert(image.to_bytes()) {
                continue;
            }
            let i = w.push(Input::new(
                format!("suite/{}/{tag}", workload.name),
                image,
                Some(program.clone()),
            ));
            order.push(i);
            if personality == Personality::Gcc {
                order.push(push_stripped(&mut w, i));
            }
        }
        // `li` dispatches through function pointers, which the MIPS
        // generator does not support yet.
        if let Ok(image) = eel_progen::compile_mips(&program) {
            order.push(w.push(Input::new(
                format!("suite/{}/mips", workload.name),
                image,
                Some(program),
            )));
        }
    }

    let small = GenConfig {
        functions: 3,
        stmts_per_fn: 3,
        max_depth: 2,
        globals: 3,
        arrays: 2,
    };
    let medium = GenConfig {
        functions: 4,
        stmts_per_fn: 4,
        max_depth: 2,
        globals: 3,
        arrays: 2,
    };
    // Five narrow size bands (SPARC text within 5% of the target), three
    // programs each: the seed picks the programs, but every seed's corpus
    // has nearly the same amount of code, so its cost varies little.
    // Then a fixed group of small programs, the same for every seed:
    // with the suite they hold the middle of the latency distribution,
    // so the median does not sit on the edge between fixed and seeded
    // inputs.
    const TARGETS_KB: [usize; 5] = [3, 6, 9, 12, 15];
    let mut specs: Vec<Spec> = Vec::new();
    for (b, target) in TARGETS_KB.into_iter().enumerate() {
        let config = if target <= 3 { small } else { medium };
        let band = (target << 10) * 19 / 20..(target << 10) * 21 / 20;
        for k in 0..3u64 {
            specs.push((seed, (b as u64) << 8 | k, config, band.clone(), ANY));
        }
    }
    for k in 0..FIXED_SMALL {
        specs.push((FIXED_SEED, 0x300 | k, small, 0..4 << 10, ANY));
    }
    let mut drawn = draw_all(specs)?.into_iter();
    for target in TARGETS_KB {
        for k in 0..3 {
            let d = drawn.next().expect("drawn per spec");
            let label = format!("rand/{target}k-{k}");
            order.push(w.push(Input::new(label.clone(), d.sparc, Some(d.program.clone()))));
            order.push(w.push(Input::new(format!("{label}/mips"), d.mips, Some(d.program))));
        }
    }
    for (k, d) in drawn.enumerate() {
        let label = format!("fixed/small{k}");
        order.push(w.push(Input::new(label.clone(), d.sparc, Some(d.program.clone()))));
        order.push(w.push(Input::new(format!("{label}/mips"), d.mips, Some(d.program))));
    }

    let program = Arc::new(eel_progen::random_program(OVERFLOW_SEED, &OVERFLOW_CONFIG));
    let sparc =
        eel_cc::compile_ast(&program, &eel_cc::Options::default()).map_err(|e| e.to_string())?;
    let mips = eel_progen::compile_mips(&program)?;
    order.push(w.push(Input::new("fixed/big".into(), sparc, Some(program.clone()))));
    order.push(w.push(Input::new("fixed/big/mips".into(), mips, Some(program))));
    // A second large program (whose MIPS twin instruments fine), so the
    // heaviest 1% of a round's requests are all fixed ones and p99 does
    // not sit on the edge between fixed and seeded inputs.
    let program = Arc::new(eel_progen::random_program(
        SECOND_BIG_SEED,
        &OVERFLOW_CONFIG,
    ));
    let sparc =
        eel_cc::compile_ast(&program, &eel_cc::Options::default()).map_err(|e| e.to_string())?;
    let mips = eel_progen::compile_mips(&program)?;
    order.push(w.push(Input::new(
        "fixed/big2".into(),
        sparc,
        Some(program.clone()),
    )));
    order.push(w.push(Input::new("fixed/big2/mips".into(), mips, Some(program))));

    w.timed = w.all_requests(&order);
    // Priming finishes both machines' lazy set-up without touching any
    // timed image.
    let tiny = Arc::new(eel_cc::parse("fn main() { return 7; }").map_err(|e| e.to_string())?);
    let tiny_sparc =
        eel_cc::compile_ast(&tiny, &eel_cc::Options::default()).map_err(|e| e.to_string())?;
    let tiny_mips = eel_progen::compile_mips(&tiny)?;
    for (label, image) in [("prime/sparc", tiny_sparc), ("prime/mips", tiny_mips)] {
        let mut input = Input::new(label.into(), image, Some(tiny.clone()));
        input.ops = vec!["disasm"];
        input.runnable = false;
        let i = w.push(input);
        w.prime.push(Req {
            input: i,
            op: "disasm",
        });
    }
    Ok(w)
}

/// `warm-sessions`: every timed request is a memory-cache hit. 24 tiny
/// SPARC programs and MIPS twins of 8 of them, every op of every image
/// primed; the timed phase cycles through the primed pairs on a
/// 16-deep session while a second connection sends one-shot requests.
fn warm_sessions(seed: u64) -> Result<Workload, String> {
    const SESSION_REQUESTS: usize = 20_000;
    const ONESHOT_REQUESTS: usize = 50;
    let mut w = Workload::new("warm-sessions", 16, 64 << 20, 0.5);
    let tiny = GenConfig {
        functions: 1,
        stmts_per_fn: 2,
        max_depth: 1,
        globals: 2,
        arrays: 1,
    };
    let specs = (0..24u64)
        .map(|k| (seed, 0x100 | k, tiny, 0..4 << 10, ANY))
        .collect();
    let mut all = Vec::new();
    for (k, d) in draw_all(specs)?.into_iter().enumerate() {
        all.push(w.push(Input::new(
            format!("tiny/{k}"),
            d.sparc,
            Some(d.program.clone()),
        )));
        if k < 8 {
            all.push(w.push(Input::new(
                format!("tiny/{k}/mips"),
                d.mips,
                Some(d.program),
            )));
        }
    }
    w.prime = w.all_requests(&all);
    // A stride coprime with the pair count visits every pair once per
    // cycle, in an order unlike the priming order.
    let pairs = w.prime.len();
    let stride = (pairs / 3..pairs)
        .find(|&s| gcd(s, pairs) == 1)
        .unwrap_or(1);
    w.timed = (0..SESSION_REQUESTS)
        .map(|n| w.prime[n * stride % pairs])
        .collect();
    w.oneshot = (0..ONESHOT_REQUESTS)
        .map(|n| w.prime[(n * 7 + 3) % pairs])
        .collect();
    Ok(w)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// `twin-fleet`: set-up primes the fragment tier with six SPARC base
/// images (text within 5% of 20 KiB) and two MIPS bases (within 5% of
/// 18 KiB); the timed phase sends distinct one-routine twins of them
/// (`eel_progen::mutate_routine`), 35 per SPARC base and 20 per MIPS
/// base (1,000 requests), each getting the four CFG-consuming ops, two
/// requests in flight.
fn twin_fleet(seed: u64) -> Result<Workload, String> {
    const SPARC_BASES: u64 = 6;
    const SPARC_TWINS: usize = 35;
    const MIPS_TWINS: usize = 20;
    let mut w = Workload::new("twin-fleet", 2, 512 << 20, 1.25);
    let many = GenConfig {
        functions: 16,
        stmts_per_fn: 2,
        max_depth: 1,
        globals: 3,
        arrays: 2,
    };
    let fewer = GenConfig {
        functions: 12,
        ..many
    };
    let mut specs: Vec<Spec> = (0..SPARC_BASES)
        .map(|k| (seed, 0x200 | k, many, 19456..21504, ANY))
        .collect();
    specs.extend((0..2).map(|k| (seed, 0x280 | k, fewer, ANY, 17510..19354)));
    let mut bases: Vec<(usize, usize)> = Vec::new();
    for (k, d) in draw_all(specs)?.into_iter().enumerate() {
        let mut base = if (k as u64) < SPARC_BASES {
            Input::new(format!("base/{k}"), d.sparc, Some(d.program))
        } else {
            Input::new(format!("base/{k}/mips"), d.mips, Some(d.program))
        };
        base.ops = TWIN_OPS.to_vec();
        let twins = if base.image.machine == Machine::Sparc {
            SPARC_TWINS
        } else {
            MIPS_TWINS
        };
        bases.push((w.push(base), twins));
    }
    let base_ids: Vec<usize> = bases.iter().map(|b| b.0).collect();
    w.prime = w.all_requests(&base_ids);

    // Twin j bumps the first immediate of eligible routine j (mod their
    // count) j/8 + 1 times. A twin is kept only if its changed routine,
    // as the fragment tier keys it (machine, start, bytes), appears in no
    // base and no earlier twin: bases share runtime routines at equal
    // addresses, and a routine changed the same way in two bases would
    // be one fragment, found by whichever twin comes second.
    let mut seen: HashSet<(Machine, u32, Vec<u8>)> = HashSet::new();
    for &(b, _) in &bases {
        let image = &w.inputs[b].image;
        for (start, end) in routine_extents(image) {
            seen.insert(routine_bytes(image, start, end));
        }
    }
    let mut twins_of: Vec<Vec<usize>> = Vec::new();
    for &(b, count) in &bases {
        let mut twins = Vec::new();
        let mut j = 0usize;
        while twins.len() < count {
            let mut image = w.inputs[b].image.clone();
            let mut changed = (String::new(), 0);
            for _ in 0..=j / 8 {
                changed = eel_progen::mutate_routine(&mut image, j)
                    .ok_or_else(|| format!("{} has no mutable routine", w.inputs[b].label))?;
            }
            j += 1;
            if j > 64 * count {
                return Err(format!("too few distinct twins of {}", w.inputs[b].label));
            }
            let (start, end) = routine_extents(&image)
                .into_iter()
                .rfind(|&(start, _)| start <= changed.1)
                .expect("the changed word lies in a routine");
            if !seen.insert(routine_bytes(&image, start, end)) {
                continue;
            }
            let mut twin = Input::new(
                format!("{}/twin{}-{}", w.inputs[b].label, twins.len(), changed.0),
                image,
                None,
            );
            twin.ops = TWIN_OPS.to_vec();
            twin.runnable = false;
            twin.twin_of = Some(b);
            twins.push(w.push(twin));
        }
        twins_of.push(twins);
    }
    // Interleave the bases' twins so MIPS twins are spread through the
    // phase rather than bunched at its end.
    let longest = twins_of.iter().map(Vec::len).max().unwrap_or(0);
    let mut order = Vec::new();
    for n in 0..longest {
        for twins in &twins_of {
            if let Some(&t) = twins.get(n) {
                order.push(t);
            }
        }
    }
    w.timed = w.all_requests(&order);
    Ok(w)
}
