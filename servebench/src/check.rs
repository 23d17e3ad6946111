//! Output checks. They run after a timed phase, never inside one, and
//! any mismatch fails the run.

use crate::corpus::{Input, Workload};
use crate::Plan;
use eel_cc::ast::Program;
use eel_core::Analysis;
use eel_exe::{Image, Machine, SymbolKind};
use eel_serve::Response;
use std::collections::HashMap;
use std::sync::Arc;

/// Interpreter budget for a program's oracle run (the suite's largest
/// workloads need tens of millions of steps).
const ORACLE_BUDGET: u64 = 200_000_000;

/// Whether an error reply is the known fault the benchmark counts
/// instead of hiding: MIPS `instrument` losing branch reach, because
/// the generic rewriter has no branch relaxation.
pub fn is_known_fault(input: &Input, op: &str, msg: &str) -> bool {
    op == "instrument" && input.image.machine == Machine::Mips && msg.contains("layout overflow")
}

/// A failure reason with addresses blanked, so one fault hit at many
/// addresses reads as one reason.
pub fn reason(msg: &str) -> String {
    msg.split_whitespace()
        .map(|w| if w.starts_with("0x") { "<addr>" } else { w })
        .collect::<Vec<_>>()
        .join(" ")
}

/// What one emulated run did.
#[derive(Clone)]
struct Run {
    exit: u32,
    output: Vec<u8>,
    executed: u64,
}

fn run(image: &Image) -> Result<Run, String> {
    let out = eel_emu::run_image(image).map_err(|e| e.to_string())?;
    Ok(Run {
        exit: out.exit_code,
        output: out.output,
        executed: out.executed,
    })
}

/// Checks replies against the inputs, accumulating failures and the
/// instrumentation figures the end-to-end metrics need.
pub struct Checker<'a> {
    w: &'a Workload,
    originals: HashMap<usize, Result<Run, String>>,
    oracles: HashMap<*const Program, Result<(u32, String), String>>,
    /// Every check that failed, as `input op: what`.
    pub failures: Vec<String>,
    /// Σ original and Σ instrumented text bytes over successful
    /// `instrument` replies.
    pub text_bytes: (u64, u64),
    /// Σ instructions executed by the runnable inputs, and by their
    /// instrumented versions.
    pub executed: (u64, u64),
    /// Instrumented ÷ original instructions executed, per runnable input.
    pub slowdowns: Vec<f64>,
}

impl<'a> Checker<'a> {
    /// A checker for one workload's inputs.
    pub fn new(w: &'a Workload) -> Checker<'a> {
        Checker {
            w,
            originals: HashMap::new(),
            oracles: HashMap::new(),
            failures: Vec::new(),
            text_bytes: (0, 0),
            executed: (0, 0),
            slowdowns: Vec::new(),
        }
    }

    fn fail(&mut self, input: usize, op: &str, what: impl std::fmt::Display) {
        let label = &self.w.inputs[input].label;
        self.failures.push(format!("{label} {op}: {what}"));
    }

    /// Checks one reply. Error replies other than the known fault fail
    /// the run; the known fault is the caller's to count.
    pub fn reply(&mut self, input: usize, op: &str, response: &Response) {
        let body = match response {
            Response::Ok { body, .. } => body,
            Response::Err(msg) if is_known_fault(&self.w.inputs[input], op, msg) => return,
            other => return self.fail(input, op, format!("unexpected reply {other:?}")),
        };
        let result = match op {
            "disasm" => self.disasm(input, body),
            "stat" => self.stat(input, body),
            "cfg-summary" => summary(body),
            "liveness" => liveness(body),
            "instrument" | "edit" => self.edited(input, op, body),
            other => Err(format!("no check for op {other:?}")),
        };
        if let Err(what) = result {
            self.fail(input, op, what);
        }
    }

    /// A twin's reply must be byte-identical to a cold in-process run
    /// of the same op, and a SPARC twin must have missed the fragment of
    /// at least its mutated routine.
    pub fn twin_reply(&mut self, input: usize, op: &str, response: &Response, cold: &[u8]) {
        match response {
            Response::Ok {
                body, fragments, ..
            } => {
                if body.as_slice() != cold {
                    self.fail(input, op, "differs from a cold in-process run");
                }
                let sparc = self.w.inputs[input].image.machine == Machine::Sparc;
                match fragments {
                    Some((hits, total)) if hits + 1 > *total => self.fail(
                        input,
                        op,
                        format!("{hits} fragment hits of {total}: the mutated routine hit"),
                    ),
                    None if sparc => self.fail(input, op, "no fragment accounting"),
                    _ => {}
                }
                if op == "instrument" {
                    if let Ok(image) = Image::from_bytes(body) {
                        self.count_growth(input, &image);
                    }
                }
            }
            other => self.fail(input, op, format!("unexpected reply {other:?}")),
        }
    }

    fn count_growth(&mut self, input: usize, instrumented: &Image) {
        self.text_bytes.0 += self.w.inputs[input].image.text.len() as u64;
        self.text_bytes.1 += instrumented.text.len() as u64;
    }

    /// The input's own run, checked once against the interpreter.
    fn original(&mut self, input: usize) -> Result<Run, String> {
        if let Some(r) = self.originals.get(&input) {
            return r.clone();
        }
        let i = &self.w.inputs[input];
        let result = run(&i.image).and_then(|r| {
            if let Some(program) = &i.program {
                let key = Arc::as_ptr(program);
                let oracle = self
                    .oracles
                    .entry(key)
                    .or_insert_with(|| {
                        eel_cc::interpret(program, ORACLE_BUDGET)
                            .map(|o| (o.exit_code as u32, o.output))
                            .map_err(|e| e.to_string())
                    })
                    .clone()?;
                if (r.exit, String::from_utf8_lossy(&r.output).into_owned()) != oracle {
                    return Err(format!(
                        "emulated exit {} differs from the interpreter's {}",
                        r.exit, oracle.0
                    ));
                }
            }
            Ok(r)
        });
        self.originals.insert(input, result.clone());
        result
    }

    /// `instrument` and `edit` replies are executables that must
    /// behave exactly like the input; an instrumented one must execute
    /// strictly more instructions.
    fn edited(&mut self, input: usize, op: &str, body: &[u8]) -> Result<(), String> {
        let image =
            Image::from_bytes(body).map_err(|e| format!("reply is not a WEF image: {e}"))?;
        if op == "instrument" {
            self.count_growth(input, &image);
        }
        if !self.w.inputs[input].runnable {
            return Ok(());
        }
        let original = self
            .original(input)
            .map_err(|e| format!("original run: {e}"))?;
        let edited = run(&image).map_err(|e| format!("edited run: {e}"))?;
        if (edited.exit, &edited.output) != (original.exit, &original.output) {
            return Err(format!(
                "edited run exits {} with {} output bytes, original exits {} with {}",
                edited.exit,
                edited.output.len(),
                original.exit,
                original.output.len()
            ));
        }
        if op == "instrument" {
            if edited.executed <= original.executed {
                return Err(format!(
                    "instrumented run executed {} instructions, original {}",
                    edited.executed, original.executed
                ));
            }
            self.executed.0 += original.executed;
            self.executed.1 += edited.executed;
            self.slowdowns
                .push(edited.executed as f64 / original.executed as f64);
        }
        Ok(())
    }

    /// `disasm` must list every routine's extent word by word in
    /// ascending order, each word matching the input's own bytes, and
    /// together cover the text from the first routine symbol to its end.
    fn disasm(&self, input: usize, body: &[u8]) -> Result<(), String> {
        let i = &self.w.inputs[input];
        let image = &i.image;
        let text = std::str::from_utf8(body).map_err(|_| "listing is not UTF-8".to_string())?;
        let words = image.text.len() / 4;
        let mut listed = vec![false; words];
        let mut next: Option<u32> = None;
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(body_line) = line.strip_prefix("  ") {
                let (addr, rest) = body_line
                    .split_once(':')
                    .ok_or_else(|| format!("malformed line {line:?}"))?;
                let addr = parse_hex(addr).ok_or_else(|| format!("bad address in {line:?}"))?;
                if Some(addr) != next {
                    return Err(format!("word {addr:#x} out of order (expected {next:x?})"));
                }
                let word = image
                    .word_at(addr)
                    .ok_or_else(|| format!("{addr:#x} is outside the text"))?;
                let slot = ((addr - image.text_addr) / 4) as usize;
                if std::mem::replace(&mut listed[slot], true) {
                    return Err(format!("word {addr:#x} listed twice"));
                }
                if !word_matches(image.machine, word, rest) {
                    return Err(format!(
                        "{addr:#x}: {rest:?} does not match word {word:#010x}"
                    ));
                }
                next = Some(addr + 4);
            } else {
                let start = line
                    .split_once(' ')
                    .and_then(|(a, _)| parse_hex(a))
                    .ok_or_else(|| format!("malformed routine header {line:?}"))?;
                next = Some(start);
            }
        }
        // The stripped twin's extents are its source's.
        let symbols = &self.w.inputs[i.stripped_from.unwrap_or(input)]
            .image
            .symbols;
        let first = symbols
            .iter()
            .filter(|s| s.kind == SymbolKind::Routine)
            .map(|s| s.value)
            .min()
            .unwrap_or(image.text_addr);
        let from = ((first.max(image.text_addr) - image.text_addr) / 4) as usize;
        if let Some(gap) = (from..words).find(|&k| !listed[k]) {
            return Err(format!(
                "word {:#x} of a routine extent is not listed",
                image.text_addr + 4 * gap as u32
            ));
        }
        Ok(())
    }

    /// `stat` names the right machine; on a stripped twin it finds the
    /// routine count of its source's symbol table.
    fn stat(&self, input: usize, body: &[u8]) -> Result<(), String> {
        let i = &self.w.inputs[input];
        let text = String::from_utf8_lossy(body);
        let field = |name: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(name))
                .map(str::trim)
                .ok_or_else(|| format!("no {name:?} line"))
        };
        if field("machine:")? != i.image.machine.name() {
            return Err(format!("reports machine {:?}", field("machine:")?));
        }
        if let Some(source) = i.stripped_from {
            let want = self.w.inputs[source]
                .image
                .symbols
                .iter()
                .filter(|s| s.kind == SymbolKind::Routine)
                .count();
            let got: usize = field("routines:")?
                .split_whitespace()
                .next()
                .and_then(|n| n.parse().ok())
                .ok_or("unparsable routine count")?;
            if got != want {
                return Err(format!("{got} routines inferred, symbol table has {want}"));
            }
        }
        Ok(())
    }
}

fn parse_hex(s: &str) -> Option<u32> {
    u32::from_str_radix(s.trim().strip_prefix("0x")?, 16).ok()
}

/// A listing line's text against the word it claims to show: SPARC
/// lines print the decoded instruction (or a dispatch-table word),
/// generic-pipeline lines print the raw word first.
fn word_matches(machine: Machine, word: u32, rest: &str) -> bool {
    match machine {
        Machine::Sparc => {
            let rest = rest.trim_start();
            rest == eel_isa::decode(word).to_string()
                || rest == format!(".word {word:#010x}  ; dispatch table")
        }
        _ => rest.trim_start().starts_with(&format!("{word:08x} ")),
    }
}

/// `cfg-summary` ends with a totals line counting one line per routine.
fn summary(body: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(body);
    let lines: Vec<&str> = text.lines().collect();
    let total = lines
        .last()
        .and_then(|l| l.strip_prefix("TOTAL: routines="))
        .and_then(|r| r.split_whitespace().next()?.parse::<usize>().ok())
        .ok_or("no TOTAL line")?;
    if total + 1 != lines.len() {
        return Err(format!(
            "TOTAL says {total} routines, {} lines",
            lines.len() - 1
        ));
    }
    Ok(())
}

/// `liveness` has one entry-live-in line per routine.
fn liveness(body: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(body);
    if text.lines().count() == 0 || !text.lines().all(|l| l.contains(": entry-live-in={")) {
        return Err("malformed liveness listing".into());
    }
    Ok(())
}

/// Cold in-process results for every timed request on a twin, by
/// request index, computed on two threads (the daemon is idle while
/// checks run).
pub fn cold_twin_results(w: &Workload, plan: &Plan) -> HashMap<usize, Result<Vec<u8>, String>> {
    let reqs: Vec<usize> = plan
        .timed
        .iter()
        .copied()
        .filter(|&i| w.inputs[plan.pairs[i].0].twin_of.is_some())
        .collect();
    let half = reqs.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = reqs
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut analysis: Option<(usize, Result<Arc<Analysis>, String>)> = None;
                    for &i in chunk {
                        let (input, op) = plan.pairs[i];
                        if analysis.as_ref().map(|a| a.0) != Some(input) {
                            let image = Arc::new(w.inputs[input].image.clone());
                            let a = Analysis::compute(image)
                                .map(Arc::new)
                                .map_err(|e| e.to_string());
                            analysis = Some((input, a));
                        }
                        let result = match &analysis.as_ref().expect("analysis computed").1 {
                            Ok(a) => eel_serve::run_op_with(op, a, 1),
                            Err(e) => Err(e.clone()),
                        };
                        out.push((i, result));
                    }
                    out
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("cold twin thread"))
            .collect()
    })
}
