//! The traced run: per-layer figures without tracing inside the
//! program. The workload's inputs are replayed in-process, on one
//! thread, through the layers' public functions, each call timed from
//! outside; the daemon-side figures come from its own counters (the
//! `metrics` op) over the rounds' timed phases.

use crate::check::Checker;
use crate::corpus::{Workload, EDIT_SCRIPT, TWIN_OPS};
use crate::{median, Metric, Plan, Round};
use eel_core::{Analysis, Executable, Liveness};
use eel_exe::{Image, Machine};
use eel_serve::{FragmentTier, Response, SessionFrame, SessionReply, CACHED_OPS};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A plain in-memory fragment tier: the replay measures the fragment
/// path, not a storage backend.
#[derive(Default)]
struct MemTier(RefCell<HashMap<(u64, String), Vec<u8>>>);

impl FragmentTier for MemTier {
    fn load(&self, key: u64, op: &str) -> Option<Vec<u8>> {
        self.0.borrow().get(&(key, op.to_string())).cloned()
    }
    fn store(&self, key: u64, op: &str, bytes: &[u8]) {
        self.0
            .borrow_mut()
            .insert((key, op.to_string()), bytes.to_vec());
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Per-layer times of one replay pass, in seconds, plus the per-request
/// compute each layer attributes to the request path.
#[derive(Default)]
struct Pass {
    layers: BTreeMap<String, f64>,
    /// Time of each `(input, op)` through the path the daemon takes.
    per_pair: HashMap<(usize, &'static str), f64>,
    /// Load plus analysis time of each input.
    per_input: HashMap<usize, f64>,
    routine_keys: u64,
    words: u64,
    blocks: u64,
}

impl Pass {
    fn add(&mut self, layer: &str, seconds: f64) {
        *self.layers.entry(layer.to_string()).or_default() += seconds;
    }
}

fn replay(w: &Workload, plan: &Plan, replies: &[&Response]) -> Pass {
    let mut pass = Pass::default();
    let mut inputs: Vec<usize> = Vec::new();
    for &i in plan.timed.iter().chain(&plan.oneshot) {
        let input = plan.pairs[i].0;
        if !inputs.contains(&input) {
            inputs.push(input);
        }
    }

    let mut analyses: HashMap<usize, Arc<Analysis>> = HashMap::new();
    for &i in &inputs {
        let t = Instant::now();
        let image = Image::from_bytes(&w.inputs[i].wef);
        let load = secs(t);
        pass.add("exe.load_ms", load);
        let Ok(image) = image else { continue };
        let t = Instant::now();
        let analysis = Analysis::compute(Arc::new(image));
        let analysis_s = secs(t);
        pass.add("core.analysis_ms", analysis_s);
        pass.per_input.insert(i, load + analysis_s);
        if let Ok(a) = analysis {
            analyses.insert(i, Arc::new(a));
        }
    }

    for &i in &inputs {
        let Some(a) = analyses.get(&i) else { continue };
        let t = Instant::now();
        for routine in a.routines() {
            black_box(eel_core::routine_key(a.image(), routine));
        }
        pass.add("core.routine_key", secs(t));
        pass.routine_keys += a.routines().len() as u64;
        if a.machine() != Machine::Sparc {
            continue;
        }
        // Every routine's CFG once, hidden routines found on the way
        // included, then liveness over each.
        let mut exec = Executable::from_analysis(a);
        let mut k = 0;
        while let Some(&id) = exec.all_routine_ids().get(k) {
            k += 1;
            let t = Instant::now();
            let Ok(cfg) = exec.build_cfg(id) else {
                continue;
            };
            pass.add("core.cfg_ms", secs(t));
            let r = exec.routine(id);
            pass.words += u64::from(r.end().saturating_sub(r.start()) / 4);
            pass.blocks += cfg.block_count() as u64;
            let t = Instant::now();
            black_box(Liveness::compute(&cfg));
            pass.add("core.liveness_ms", secs(t));
        }
    }

    for &i in &inputs {
        let Some(a) = analyses.get(&i) else { continue };
        let machine = if a.machine() == Machine::Sparc {
            "sparc"
        } else {
            "mips"
        };
        for op in CACHED_OPS {
            let t = Instant::now();
            black_box(eel_serve::run_op_with(op, a, 1).ok());
            let s = secs(t);
            pass.add(&format!("ops.{machine}.{op}_ms"), s);
            // SPARC CFG ops take the fragment path in the daemon; their
            // request-path time comes from the fragment replay below.
            if machine == "mips" || !TWIN_OPS.contains(op) {
                pass.per_pair.insert((i, op), s);
            }
        }
        let named =
            a.machine() == Machine::Sparc && w.inputs[i].image.find_symbol("main").is_some();
        if named {
            let t = Instant::now();
            let mut session = eel_edit::EditSession::from_analysis(Arc::clone(a));
            black_box(session.run_script_to_image(EDIT_SCRIPT).ok());
            let s = secs(t);
            pass.add("edit.apply_ms", s);
            pass.per_pair.insert((i, "edit"), s);
        }
    }

    // The fragment path against a tier primed by the workload's set-up
    // images (priming untimed).
    let tier = MemTier::default();
    for &p in &plan.prime {
        let (i, op) = plan.pairs[p];
        let a = analyses.get(&i).cloned().or_else(|| {
            Analysis::compute(Arc::new(w.inputs[i].image.clone()))
                .ok()
                .map(Arc::new)
        });
        if let Some(a) = a.filter(|a| a.machine() == Machine::Sparc) {
            if TWIN_OPS.contains(&op) {
                black_box(eel_serve::run_op_fragments(op, &a, 1, &tier).ok());
            }
        }
    }
    for &i in &inputs {
        let Some(a) = analyses.get(&i).filter(|a| a.machine() == Machine::Sparc) else {
            continue;
        };
        for op in TWIN_OPS {
            let t = Instant::now();
            black_box(eel_serve::run_op_fragments(op, a, 1, &tier).ok());
            let s = secs(t);
            pass.add("ops.fragment_ms", s);
            pass.per_pair.insert((i, op), s);
        }
    }

    // Transport-side layers, per timed request.
    let timed: Vec<usize> = plan.timed.iter().chain(&plan.oneshot).copied().collect();
    let t = Instant::now();
    for &i in &timed {
        black_box(eel_serve::content_hash(&w.inputs[plan.pairs[i].0].wef));
    }
    pass.add("serve.content_hash", secs(t));
    let t = Instant::now();
    for (k, &i) in timed.iter().enumerate() {
        let request = SessionFrame::Request {
            id: k as u64,
            request: plan.requests[i].clone(),
        };
        let reply = SessionReply::Tagged {
            id: k as u64,
            response: replies[k].clone(),
        };
        let mut wire = Vec::new();
        let _ = eel_serve::write_frame(&mut wire, &request.encode());
        let _ = eel_serve::write_frame(&mut wire, &reply.encode());
        let mut reader = wire.as_slice();
        let a = eel_serve::read_frame(&mut reader).ok();
        let b = eel_serve::read_frame(&mut reader).ok();
        black_box(a.map(|a| SessionFrame::decode(&a).ok()));
        black_box(b.map(|b| SessionReply::decode(&b).ok()));
    }
    pass.add("serve.frame_codec", secs(t));
    pass
}

/// Every per-layer metric of the traced run.
pub fn per_layer(w: &Workload, plan: &Plan, rounds: &[Round], checker: &Checker) -> Vec<Metric> {
    let first = &rounds[0];
    // The reply each timed request got: the session's own in order (or,
    // for warm-sessions, the primed reply of the same request).
    let mut primed: HashMap<usize, &Response> = HashMap::new();
    for (k, &i) in plan.prime.iter().enumerate() {
        primed.insert(i, &first.primed[k]);
    }
    let replies: Vec<&Response> = plan
        .timed
        .iter()
        .chain(&plan.oneshot)
        .enumerate()
        .map(|(k, i)| first.replies.get(k).unwrap_or_else(|| primed[i]))
        .collect();

    let started = Instant::now();
    let pass = replay(w, plan, &replies);
    eprintln!("servebench: traced replay took {:.2}s", secs(started));

    let timed_requests = replies.len() as f64;
    let layer = |name: &str| pass.layers.get(name).copied().unwrap_or(0.0);
    let mut out: Vec<Metric> = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| out.push((name.to_string(), value, unit));
    push("exe.load_ms", layer("exe.load_ms") * 1e3, "ms");
    push("core.analysis_ms", layer("core.analysis_ms") * 1e3, "ms");
    push("core.cfg_ms", layer("core.cfg_ms") * 1e3, "ms");
    push(
        "core.cfg_ns_per_word",
        layer("core.cfg_ms") * 1e9 / pass.words.max(1) as f64,
        "ns/word",
    );
    push("core.liveness_ms", layer("core.liveness_ms") * 1e3, "ms");
    for machine in ["sparc", "mips"] {
        for op in CACHED_OPS {
            let name = format!("ops.{machine}.{op}_ms");
            push(&name, layer(&name) * 1e3, "ms");
        }
    }
    push("edit.apply_ms", layer("edit.apply_ms") * 1e3, "ms");
    push("ops.fragment_ms", layer("ops.fragment_ms") * 1e3, "ms");
    push(
        "core.routine_key_us",
        layer("core.routine_key") * 1e6 / pass.routine_keys.max(1) as f64,
        "us",
    );
    push(
        "serve.content_hash_us",
        layer("serve.content_hash") * 1e6 / timed_requests,
        "us",
    );
    push(
        "serve.frame_codec_us",
        layer("serve.frame_codec") * 1e6 / timed_requests,
        "us",
    );

    // Daemon counters over the timed phases.
    let sum = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let hist = |r: &Round| -> (f64, f64) {
        CACHED_OPS
            .iter()
            .chain(&["edit"])
            .fold((0.0, 0.0), |(c, s), op| {
                let (dc, ds) = r.delta.histogram(&format!("serve.latency.{op}"));
                (c + dc, s + ds)
            })
    };
    let server_us = sum(&|r| hist(r).1) / sum(&|r| hist(r).0).max(1.0);
    let client_us = sum(&|r| r.latencies_us.iter().sum()) / sum(&|r| r.latencies_us.len() as f64);
    let ratio = |hit: &str, miss: &str| {
        let h = sum(&|r| r.delta.value(hit));
        h / (h + sum(&|r| r.delta.value(miss))).max(1.0)
    };
    let (computed, fragment_hits, blocks) = crate::exact_counts(first);
    let repeats = rounds
        .iter()
        .all(|r| crate::exact_counts(r) == (computed, fragment_hits, blocks));
    push("serve.server_us_per_req", server_us, "us");
    push("serve.transport_us_per_req", client_us - server_us, "us");
    push(
        "serve.cache.hit_ratio",
        ratio("serve.cache.hit", "serve.cache.miss"),
        "ratio",
    );
    push(
        "serve.fragment.hit_ratio",
        ratio("serve.cache.fragment.hit", "serve.cache.fragment.miss"),
        "ratio",
    );
    push("serve.ops_computed", computed as f64, "count");
    push("serve.fragment_hits", fragment_hits as f64, "count");
    push("core.cfg_blocks", blocks as f64, "count");
    push(
        "serve.busy_replies",
        sum(&|r| r.delta.value("serve.busy") + r.delta.value("serve.session.busy")),
        "count",
    );
    push(
        "core.cfg_rebuild_factor",
        blocks as f64 / pass.blocks.max(1) as f64,
        "ratio",
    );
    push(
        "obs.rss_kb_per_computed",
        median(
            rounds
                .iter()
                .map(|r| r.rss_growth_kb / r.computed_since_start.max(1.0))
                .collect(),
        ),
        "kB",
    );
    push(
        "emu.original_instructions",
        checker.executed.0 as f64,
        "count",
    );
    push(
        "emu.instrumented_instructions",
        checker.executed.1 as f64,
        "count",
    );

    // The request path as the replay sees it, against the untraced
    // client latency of the same run. A primed request is a memory hit
    // and computes nothing; any other pays its op plus its share of the
    // image's load and analysis (which the daemon caches across ops).
    let timed = || plan.timed.iter().chain(&plan.oneshot);
    let primed_requests: std::collections::HashSet<usize> = plan.prime.iter().copied().collect();
    let mut uses: HashMap<usize, f64> = HashMap::new();
    for &i in timed().filter(|i| !primed_requests.contains(i)) {
        *uses.entry(plan.pairs[i].0).or_default() += 1.0;
    }
    let mut layer_sum_s = layer("serve.content_hash") + layer("serve.frame_codec");
    for &i in timed().filter(|i| !primed_requests.contains(i)) {
        let (input, op) = plan.pairs[i];
        let share = pass.per_input.get(&input).copied().unwrap_or(0.0) / uses[&input];
        layer_sum_s += pass.per_pair.get(&(input, op)).copied().unwrap_or(0.0) + share;
    }
    layer_sum_s /= timed_requests;
    push("trace.layer_sum_us", layer_sum_s * 1e6, "us");
    push("trace.untraced_us", client_us, "us");
    push("trace.diff_us", layer_sum_s * 1e6 - client_us, "us");
    push("trace.counts_repeat", f64::from(u8::from(repeats)), "count");

    if !repeats {
        let counts: Vec<_> = rounds.iter().map(crate::exact_counts).collect();
        eprintln!("servebench: per-round (ops computed, fragment hits, CFG blocks): {counts:?}");
    }
    eprintln!(
        "servebench: traced: layer sum {:.1}us/request vs untraced mean latency {:.1}us \
         (difference {:+.1}us); per round: ops computed {computed}, fragment hits \
         {fragment_hits}, CFG blocks {blocks} ({} across all {} rounds)",
        layer_sum_s * 1e6,
        client_us,
        layer_sum_s * 1e6 - client_us,
        if repeats {
            "identical"
        } else {
            "NOT identical"
        },
        rounds.len()
    );
    out
}
