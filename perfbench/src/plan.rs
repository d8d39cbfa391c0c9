//! Workload plans: which pool members run, in which seeded order, and in
//! which latency class.
//!
//! A plan is written as plain text so the runner and the in-process replay
//! read the same job list:
//!
//! - `programs/<name>.qasm` and `jobs.tsv` (`phase  class  kind  file
//!   seed`) for the two CLI workloads, where `phase` is `warmup` or the
//!   cycle number;
//! - `requests.jsonl` (one request line per pool member) and `rounds.tsv`
//!   (`phase  kind  line_a  line_b`, zero-based line numbers into
//!   `requests.jsonl`) for `serve-pairs`.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use morph_qalgo::Benchmark;
use morph_serve::JobRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::corpus::{program, shuffle, Class, Scope, INPUT_QUBIT};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One `verify --no-cache` process per job on 12–16-qubit programs.
    OneshotWide,
    /// `verify --cache-dir` over one-gate revision streams: one miss, then
    /// three hits per revision.
    EditLoopCache,
    /// Two keep-alive connections to `morph-serve --listen` in lockstep
    /// rounds.
    ServePairs,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::OneshotWide,
        Workload::EditLoopCache,
        Workload::ServePairs,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotWide => "oneshot-wide",
            Workload::EditLoopCache => "edit-loop-cache",
            Workload::ServePairs => "serve-pairs",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `oneshot-wide` classes with their slots per cycle of ten jobs. In
/// latency order the Clifford programs and QNN-14 take the lowest 30%,
/// XEB-15 the middle 40% (the median), Shor-15 the top 30% (the tail).
pub const ONESHOT_MIX: [(Class, usize); 5] = [
    (class(Benchmark::QuantumLock, 16, Scope::Pair), 1),
    (class(Benchmark::Qec, 15, Scope::Pair), 1),
    (class(Benchmark::Qnn, 14, Scope::Pair), 1),
    (class(Benchmark::Xeb, 15, Scope::Pair), 4),
    (class(Benchmark::Shor, 15, Scope::Pair), 3),
];

/// Pool members per `oneshot-wide` class: variants × verify seeds.
pub const ONESHOT_VARIANTS: u64 = 4;
/// Verify seeds per `oneshot-wide` variant.
pub const ONESHOT_SEEDS: u64 = 4;
/// Cycles written per `oneshot-wide` plan (far more than one run uses).
pub const ONESHOT_CYCLES: usize = 400;

/// The 7-qubit full-register classes of `edit-loop-cache` and
/// `serve-pairs`; they cost about the same per job.
pub const WIDE7: [Class; 3] = [
    class(Benchmark::Qnn, 7, Scope::Full),
    class(Benchmark::Xeb, 7, Scope::Full),
    class(Benchmark::Shor, 7, Scope::Full),
];

/// Revision streams per `edit-loop-cache` class.
pub const EDIT_VARIANTS: u64 = 8;
/// Revisions per stream (revision 0, the clean program, is the warm-up).
/// The plan's 96 cycles outlast a run at today's speed; a faster program
/// starts the plan over on an empty store. Set-up writes every program of
/// the pool, so the pool stays this small.
pub const EDIT_REVISIONS: usize = 4;
/// Unchanged re-verifications after each fresh one.
pub const EDIT_HITS: usize = 3;

/// `serve-pairs` pool: variants per class.
pub const SERVE_VARIANTS: u64 = 4;
/// `serve-pairs` pool: request seeds per variant.
pub const SERVE_SEEDS: u64 = 64;
/// Round kinds per cycle of ten rounds.
pub const SERVE_MIX: [(&str, usize); 3] = [("shared", 4), ("repeat", 3), ("distinct", 3)];
/// A repeat round re-sends requests from this many most recent fresh ones,
/// well inside the memory tier's LRU bound.
pub const SERVE_REPEAT_WINDOW: usize = 8;
/// Rounds written per `serve-pairs` plan.
pub const SERVE_ROUNDS: usize = 4000;

const fn class(bench: Benchmark, qubits: usize, scope: Scope) -> Class {
    Class {
        bench,
        qubits,
        scope,
    }
}

/// One CLI job of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliJob {
    /// `warmup` or the cycle number.
    pub phase: String,
    /// Program class label.
    pub class: String,
    /// Latency class: `oneshot`, `miss` or `hit`.
    pub kind: &'static str,
    /// Program file, relative to the plan directory.
    pub file: String,
    /// `verify --seed`.
    pub seed: u64,
}

/// One pool member of a CLI workload: the program file name, its text
/// and its verify seed.
#[derive(Debug, Clone)]
pub struct PoolProgram {
    /// File name under `programs/`.
    pub name: String,
    /// Program text.
    pub text: String,
    /// `verify --seed` (for `oneshot-wide`, the seeds range over
    /// `0..ONESHOT_SEEDS` instead).
    pub seed: u64,
}

fn oneshot_name(c: &Class, variant: u64) -> String {
    format!("{}-v{variant}", c.label())
}

fn edit_name(c: &Class, variant: u64, revision: usize) -> String {
    format!("{}-v{variant}-r{revision}", c.label())
}

/// The verify seed of an `edit-loop-cache` stream: distinct per stream, so
/// streams whose clean programs coincide (deterministic benchmarks) never
/// share a fingerprint.
pub fn edit_seed(class_index: usize, variant: u64) -> u64 {
    100 * class_index as u64 + variant
}

/// Every program of a CLI workload's pool.
///
/// # Panics
///
/// Panics for `serve-pairs`, whose pool is request lines.
pub fn cli_pool(w: Workload) -> Vec<PoolProgram> {
    let mut pool = Vec::new();
    match w {
        Workload::OneshotWide => {
            for (c, _) in ONESHOT_MIX {
                for v in 0..ONESHOT_VARIANTS {
                    pool.push(PoolProgram {
                        name: oneshot_name(&c, v),
                        text: program(&c, v, 0),
                        seed: 0,
                    });
                }
            }
        }
        Workload::EditLoopCache => {
            for (ci, c) in WIDE7.iter().enumerate() {
                for v in 0..EDIT_VARIANTS {
                    for r in 0..=EDIT_REVISIONS {
                        pool.push(PoolProgram {
                            name: edit_name(c, v, r),
                            text: program(c, v, r),
                            seed: edit_seed(ci, v),
                        });
                    }
                }
            }
        }
        Workload::ServePairs => panic!("serve-pairs has a request pool, not a program pool"),
    }
    pool
}

/// Every request line of the `serve-pairs` pool. A line's id is
/// `<class>-v<variant>-s<seed>`, so equal lines get equal responses.
pub fn serve_pool() -> Vec<String> {
    let mut lines = Vec::new();
    for c in WIDE7 {
        for v in 0..SERVE_VARIANTS {
            let text = program(&c, v, 0);
            for s in 0..SERVE_SEEDS {
                let seed = 1000 * v + s;
                let mut req = JobRequest::new(
                    format!("{}-v{v}-s{seed}", c.label()),
                    text.clone(),
                    vec![INPUT_QUBIT],
                );
                req.seed = seed;
                lines.push(req.to_json_line());
            }
        }
    }
    lines
}

/// The CLI job list of a plan: warm-up jobs first, then cycles.
fn cli_jobs(w: Workload, rng: &mut StdRng) -> Vec<CliJob> {
    let mut jobs = Vec::new();
    match w {
        Workload::OneshotWide => {
            for (c, _) in ONESHOT_MIX {
                jobs.push(CliJob {
                    phase: "warmup".into(),
                    class: c.label(),
                    kind: "oneshot",
                    file: format!(
                        "programs/{}.qasm",
                        oneshot_name(&c, rng.gen_range(0..ONESHOT_VARIANTS))
                    ),
                    seed: rng.gen_range(0..ONESHOT_SEEDS),
                });
            }
            let mut slots = Vec::new();
            for (c, n) in ONESHOT_MIX {
                slots.extend((0..n).map(|_| c));
            }
            for cycle in 0..ONESHOT_CYCLES {
                shuffle(&mut slots, rng);
                for c in &slots {
                    jobs.push(CliJob {
                        phase: cycle.to_string(),
                        class: c.label(),
                        kind: "oneshot",
                        file: format!(
                            "programs/{}.qasm",
                            oneshot_name(c, rng.gen_range(0..ONESHOT_VARIANTS))
                        ),
                        seed: rng.gen_range(0..ONESHOT_SEEDS),
                    });
                }
            }
        }
        Workload::EditLoopCache => {
            for (ci, c) in WIDE7.iter().enumerate() {
                let v = rng.gen_range(0..EDIT_VARIANTS);
                jobs.push(CliJob {
                    phase: "warmup".into(),
                    class: c.label(),
                    kind: "miss",
                    file: format!("programs/{}.qasm", edit_name(c, v, 0)),
                    seed: edit_seed(ci, v),
                });
            }
            // Interleave the streams in a seeded order; each stream's
            // revisions stay in order. One cycle is one revision: a fresh
            // verification, then the unchanged re-verifications.
            let mut next: Vec<(usize, u64, usize)> = (0..WIDE7.len())
                .flat_map(|ci| (0..EDIT_VARIANTS).map(move |v| (ci, v, 1)))
                .collect();
            let mut cycle = 0;
            while !next.is_empty() {
                let pick = rng.gen_range(0..next.len());
                let (ci, v, r) = next[pick];
                let c = &WIDE7[ci];
                for kind in std::iter::once("miss").chain((0..EDIT_HITS).map(|_| "hit")) {
                    jobs.push(CliJob {
                        phase: cycle.to_string(),
                        class: c.label(),
                        kind,
                        file: format!("programs/{}.qasm", edit_name(c, v, r)),
                        seed: edit_seed(ci, v),
                    });
                }
                cycle += 1;
                if r == EDIT_REVISIONS {
                    next.swap_remove(pick);
                } else {
                    next[pick].2 = r + 1;
                }
            }
        }
        Workload::ServePairs => unreachable!("serve-pairs plans rounds"),
    }
    jobs
}

/// One `serve-pairs` round: its kind and the two request line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// `warmup` or the cycle number.
    pub phase: String,
    /// `shared`, `repeat`, `distinct` (or `warmup`).
    pub kind: &'static str,
    /// Line numbers into `requests.jsonl` for the two connections.
    pub lines: [usize; 2],
}

/// Warm-up pool entries of `serve-pairs`: variant 0, seed 0 of each class.
fn serve_warmup_lines() -> Vec<usize> {
    (0..WIDE7.len())
        .map(|ci| ci * (SERVE_VARIANTS * SERVE_SEEDS) as usize)
        .collect()
}

fn serve_rounds(rng: &mut StdRng) -> Vec<Round> {
    let warm = serve_warmup_lines();
    let mut rounds: Vec<Round> = warm
        .iter()
        .map(|&l| Round {
            phase: "warmup".into(),
            kind: "warmup",
            lines: [l, l],
        })
        .collect();
    let pool_len = WIDE7.len() * (SERVE_VARIANTS * SERVE_SEEDS) as usize;
    let mut fresh: Vec<usize> = (0..pool_len).filter(|l| !warm.contains(l)).collect();
    shuffle(&mut fresh, rng);
    // Past the end of the pool the order wraps; by then every earlier use
    // of a line has long left the memory tier's LRU window.
    let mut cursor = 0usize;
    let mut take_fresh = || {
        let l = fresh[cursor % fresh.len()];
        cursor += 1;
        l
    };
    let mut recent: Vec<usize> = Vec::new();
    let mut kinds = Vec::new();
    for (k, n) in SERVE_MIX {
        kinds.extend((0..n).map(|_| k));
    }
    let cycles = SERVE_ROUNDS / kinds.len();
    for cycle in 0..cycles {
        shuffle(&mut kinds, rng);
        if cycle == 0 {
            // A repeat round needs earlier fresh requests.
            if let Some(i) = kinds.iter().position(|&k| k != "repeat") {
                kinds.swap(0, i);
            }
        }
        for &kind in &kinds {
            let lines = match kind {
                "shared" => {
                    let l = take_fresh();
                    recent.push(l);
                    [l, l]
                }
                "distinct" => {
                    let (a, b) = (take_fresh(), take_fresh());
                    recent.extend([a, b]);
                    [a, b]
                }
                _ => {
                    let window = &recent[recent.len().saturating_sub(SERVE_REPEAT_WINDOW)..];
                    let a = window[rng.gen_range(0..window.len())];
                    let b = window[rng.gen_range(0..window.len())];
                    [a, b]
                }
            };
            rounds.push(Round {
                phase: cycle.to_string(),
                kind,
                lines,
            });
        }
    }
    rounds
}

/// Writes the plan of `w` for `seed` into `dir`: the programs or request
/// lines the programs under test receive, and the job or round list.
///
/// # Errors
///
/// I/O errors writing the files.
pub fn write_plan(w: Workload, seed: u64, dir: &Path) -> io::Result<()> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    std::fs::create_dir_all(dir)?;
    match w {
        Workload::ServePairs => {
            let mut requests = String::new();
            for line in serve_pool() {
                requests.push_str(&line);
                requests.push('\n');
            }
            std::fs::write(dir.join("requests.jsonl"), requests)?;
            let mut tsv = String::new();
            for r in serve_rounds(&mut rng) {
                let _ = writeln!(
                    tsv,
                    "{}\t{}\t{}\t{}",
                    r.phase, r.kind, r.lines[0], r.lines[1]
                );
            }
            std::fs::write(dir.join("rounds.tsv"), tsv)?;
        }
        _ => {
            let programs = dir.join("programs");
            std::fs::create_dir_all(&programs)?;
            for p in cli_pool(w) {
                std::fs::write(programs.join(format!("{}.qasm", p.name)), p.text)?;
            }
            let mut tsv = String::new();
            for j in cli_jobs(w, &mut rng) {
                let _ = writeln!(
                    tsv,
                    "{}\t{}\t{}\t{}\t{}",
                    j.phase, j.class, j.kind, j.file, j.seed
                );
            }
            std::fs::write(dir.join("jobs.tsv"), tsv)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for e in std::fs::read_dir(&d).expect("plan directory is readable") {
                let p = e.expect("directory entry").path();
                if p.is_dir() {
                    stack.push(p);
                } else {
                    let rel = p
                        .strip_prefix(dir)
                        .expect("under dir")
                        .display()
                        .to_string();
                    files.push((rel, std::fs::read(&p).expect("plan file is readable")));
                }
            }
        }
        files.sort();
        files
    }

    fn temp_plan_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("perfbench-plan-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn the_same_seed_gives_byte_identical_plans() {
        for w in Workload::ALL {
            let (a, b, c) = (temp_plan_dir("a"), temp_plan_dir("b"), temp_plan_dir("c"));
            write_plan(w, 7, &a).expect("write plan");
            write_plan(w, 7, &b).expect("write plan");
            write_plan(w, 8, &c).expect("write plan");
            let (sa, sb, sc) = (snapshot(&a), snapshot(&b), snapshot(&c));
            assert_eq!(sa, sb, "{} is not deterministic", w.name());
            assert_ne!(sa, sc, "{} ignores its seed", w.name());
            for d in [a, b, c] {
                let _ = std::fs::remove_dir_all(d);
            }
        }
    }

    #[test]
    fn cycles_hold_the_class_shares() {
        let mut rng = StdRng::seed_from_u64(1);
        let jobs = cli_jobs(Workload::OneshotWide, &mut rng);
        let cycle0: Vec<&CliJob> = jobs.iter().filter(|j| j.phase == "0").collect();
        for (c, n) in ONESHOT_MIX {
            assert_eq!(cycle0.iter().filter(|j| j.class == c.label()).count(), n);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let jobs = cli_jobs(Workload::EditLoopCache, &mut rng);
        let timed: Vec<&CliJob> = jobs.iter().filter(|j| j.phase != "warmup").collect();
        assert_eq!(
            timed.len(),
            WIDE7.len() * EDIT_VARIANTS as usize * EDIT_REVISIONS * (1 + EDIT_HITS)
        );
        for cycle in timed.chunks(1 + EDIT_HITS) {
            assert_eq!(cycle[0].kind, "miss");
            assert!(cycle[1..]
                .iter()
                .all(|j| j.kind == "hit" && j.file == cycle[0].file));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let rounds = serve_rounds(&mut rng);
        let cycle0: Vec<&Round> = rounds.iter().filter(|r| r.phase == "0").collect();
        for (k, n) in SERVE_MIX {
            assert_eq!(cycle0.iter().filter(|r| r.kind == k).count(), n);
        }
        assert_ne!(cycle0[0].kind, "repeat");
    }

    #[test]
    fn fresh_serve_requests_never_repeat_within_a_plan() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        let mut fresh = 0;
        for r in serve_rounds(&mut rng)
            .iter()
            .filter(|r| r.phase != "warmup")
        {
            match r.kind {
                "shared" => {
                    assert_eq!(r.lines[0], r.lines[1]);
                    fresh += 1;
                    let new = seen.insert(r.lines[0]);
                    // Within one pass over the pool, fresh means unseen.
                    assert!(new || fresh > 700);
                }
                "distinct" => {
                    assert_ne!(r.lines[0], r.lines[1]);
                    fresh += 2;
                    let new = seen.insert(r.lines[0]) & seen.insert(r.lines[1]);
                    assert!(new || fresh > 700);
                }
                _ => assert!(seen.contains(&r.lines[0]) && seen.contains(&r.lines[1])),
            }
        }
    }
}
