//! Helper binary of the end-to-end benchmark (`perfbench/run.py` drives it).
//!
//! ```text
//! morph-perfbench gen <workload> <seed> <dir>     write the plan and its inputs
//! morph-perfbench pin <workload> <dir>            whole-run reference verdicts of the pool
//! morph-perfbench batch <requests.jsonl>          morph_serve::run_batch on the lines
//! morph-perfbench traced <workload> <dir> <secs>  in-process replay with layer spans
//! ```
//!
//! `pin` writes the pool's programs under `<dir>` and prints one JSON line
//! per pool member; `traced` prints one JSON object of per-layer figures
//! and per-job verdicts.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use morph_perfbench::plan::{self, Workload};
use morph_perfbench::spans::{recorder_cost_ns, self_by_name, Recorder, Span};
use morph_serve::{JobOutput, JobRequest, ServeConfig, Service};
use morphqpv::{
    CancelToken, CharacterizationCache, MorphError, SegmentedCache, SegmentedConfig,
    VerificationReport, Verifier,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Result<T> = std::result::Result<T, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["gen", w, seed, dir] => workload(w).and_then(|w| {
            let seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
            plan::write_plan(w, seed, Path::new(dir)).map_err(|e| e.to_string())
        }),
        ["pin", w, dir] => workload(w).and_then(|w| pin(w, Path::new(dir))),
        ["batch", file] => batch(Path::new(file)),
        ["traced", w, dir, secs] => workload(w).and_then(|w| {
            let secs = secs
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .ok_or_else(|| format!("bad seconds {secs:?}"))?;
            traced(w, Path::new(dir), Duration::from_secs_f64(secs))
        }),
        _ => Err("usage: morph-perfbench gen|pin|batch|traced ... (see source)".into()),
    };
    match out {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("morph-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn workload(name: &str) -> Result<Workload> {
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

/// The verifier `verify <file> --inputs 0` and a serve request with
/// `input_qubits: [0]` build from the program text.
fn build_verifier(text: &str) -> Result<Verifier> {
    let circuit = morph_qprog::parse_program(text).map_err(|e| e.to_string())?;
    let assertions = morphqpv::assertions_from_source(text).map_err(|e| e.to_string())?;
    let mut v = Verifier::new(circuit).input_qubits(&[morph_perfbench::corpus::INPUT_QUBIT]);
    for a in assertions {
        v = v.assert_that(a);
    }
    Ok(v)
}

/// `P`/`F` per assertion, in order.
fn verdicts(report: &VerificationReport) -> String {
    report
        .outcomes
        .iter()
        .map(|o| if o.verdict.passed() { 'P' } else { 'F' })
        .collect()
}

/// The whole-run reference: `verify --no-cache` (`cached == false`) or
/// the cached discipline shared by `verify --cache-dir` and `morph-serve`.
fn reference(text: &str, seed: u64, cached: bool) -> Result<(i32, String)> {
    let v = build_verifier(text)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let report = if cached {
        v.try_run_with_cache(&mut rng, &mut CharacterizationCache::in_memory())
    } else {
        v.try_run(&mut rng)
    }
    .map_err(|e| e.to_string())?;
    Ok((report.exit_code(), verdicts(&report)))
}

fn pin(w: Workload, dir: &Path) -> Result<()> {
    let mut stdout = io::stdout().lock();
    let mut emit = |line: String| writeln!(stdout, "{line}").map_err(|e| e.to_string());
    match w {
        Workload::ServePairs => {
            for (i, line) in plan::serve_pool().iter().enumerate() {
                let req = JobRequest::from_json_line(line)?;
                let (exit, v) = reference(&req.program, req.seed, true)?;
                emit(format!(
                    "{{\"mode\":\"cached\",\"line\":{i},\"exit\":{exit},\"verdicts\":\"{v}\"}}"
                ))?;
            }
        }
        _ => {
            let programs = dir.join("programs");
            std::fs::create_dir_all(&programs).map_err(|e| e.to_string())?;
            for p in plan::cli_pool(w) {
                let file = format!("programs/{}.qasm", p.name);
                std::fs::write(dir.join(&file), &p.text).map_err(|e| e.to_string())?;
                let (mode, seeds): (&str, Vec<u64>) = match w {
                    Workload::OneshotWide => ("nocache", (0..plan::ONESHOT_SEEDS).collect()),
                    _ => ("cached", vec![p.seed]),
                };
                for seed in seeds {
                    let (exit, v) = reference(&p.text, seed, mode == "cached")?;
                    emit(format!(
                        "{{\"mode\":\"{mode}\",\"file\":\"{file}\",\"seed\":{seed},\"exit\":{exit},\"verdicts\":\"{v}\"}}"
                    ))?;
                }
            }
        }
    }
    Ok(())
}

/// The serve configuration of `serve-pairs`: two workers, memory-only
/// cache, one stripe (matching `MORPH_SERVE_SHARDS=1` on the binary).
fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        shards: 1,
        ..ServeConfig::default()
    }
}

fn batch(file: &Path) -> Result<()> {
    let input = std::fs::File::open(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let stdout = io::stdout();
    morph_serve::run_batch(BufReader::new(input), stdout.lock(), &serve_config())
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// One CLI job read back from `jobs.tsv`.
struct Job {
    phase: String,
    kind: String,
    file: String,
    seed: u64,
}

fn read_jobs(dir: &Path) -> Result<Vec<Job>> {
    let text = std::fs::read_to_string(dir.join("jobs.tsv")).map_err(|e| e.to_string())?;
    text.lines()
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            if f.len() != 5 {
                return Err(format!("bad jobs.tsv line {l:?}"));
            }
            Ok(Job {
                phase: f[0].into(),
                kind: f[2].into(),
                file: f[3].into(),
                seed: f[4].parse().map_err(|_| format!("bad seed in {l:?}"))?,
            })
        })
        .collect()
}

/// Per-job outcome reported back to the runner for the verdict check.
struct Outcome {
    key: String,
    seed: u64,
    exit: i32,
    verdicts: String,
}

/// Figures gathered while replaying, turned into per-layer metrics.
#[derive(Default)]
struct Tally {
    jobs: u64,
    job_ns: Vec<u64>,
    quantum_ops: u64,
    solver_evaluations: u64,
    gets: u64,
    hits: u64,
    get_ns: u64,
    puts: u64,
    put_ns: u64,
    artifact_bytes: u64,
    avoided_ns: u64,
    hit_get_ns: u64,
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn per(total: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

fn median_ns(samples: &[u64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2] as f64,
        n => (s[n / 2 - 1] + s[n / 2]) as f64 / 2.0,
    }
}

/// Whether to start another cycle: always finish the one under way, so a
/// run's class shares are exact.
fn keep_going(start: Instant, budget: Duration, phase: &str, last_phase: &str) -> bool {
    phase == last_phase || start.elapsed() < budget
}

fn traced(w: Workload, dir: &Path, budget: Duration) -> Result<()> {
    let per_span_ns = recorder_cost_ns(100_000);
    let (mut metrics, rows, outcomes, spans_per_job, jobs) = match w {
        Workload::ServePairs => traced_serve(dir, budget)?,
        _ => traced_cli(w, dir, budget)?,
    };
    metrics.push(("trace.overhead_ms", ms(per_span_ns * spans_per_job)));
    let object = |pairs: &[(&str, f64)]| {
        let fields: Vec<String> = pairs
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect();
        format!("{{{}}}", fields.join(","))
    };
    let outcomes: Vec<String> = outcomes
        .iter()
        .map(|o| format!("[\"{}\",{},{},\"{}\"]", o.key, o.seed, o.exit, o.verdicts))
        .collect();
    println!(
        "{{\"metrics\":{},\"rows\":{},\"jobs_timed\":{jobs},\"jobs\":[{}]}}",
        object(&metrics),
        object(&rows),
        outcomes.join(",")
    );
    Ok(())
}

/// Per-layer metrics, per-job time rows (self time per layer, ms), job
/// outcomes, spans per job, and the number of timed jobs.
type Traced = (
    Vec<(&'static str, f64)>,
    Vec<(&'static str, f64)>,
    Vec<Outcome>,
    f64,
    u64,
);

/// Replays a CLI job list in-process, stage by stage, the way `verify`
/// runs it: `try_run` for `--no-cache`, and for `--cache-dir` the
/// `try_run_with_cache` discipline with a freshly opened disk cache per
/// job, so hits are disk hits as in a new process.
fn traced_cli(w: Workload, dir: &Path, budget: Duration) -> Result<Traced> {
    let jobs = read_jobs(dir)?;
    let cache_dir = dir.join("traced-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cancel = CancelToken::new();
    let mut rec = Recorder::new();
    let mut t = Tally::default();
    let mut outcomes = Vec::new();
    let mut char_ns_by_fp: HashMap<morph_store::Fingerprint, u64> = HashMap::new();
    let start = Instant::now();
    let mut last_phase = String::new();
    for (j, job) in jobs.iter().enumerate().filter(|(_, j)| j.phase != "warmup") {
        if !keep_going(start, budget, &job.phase, &last_phase) {
            break;
        }
        last_phase.clone_from(&job.phase);
        let root = rec.open("job", None, j);
        let (parsed, _) = rec.time("qprog.parse", Some(root), j, || {
            std::fs::read_to_string(dir.join(&job.file))
                .map_err(|e| e.to_string())
                .and_then(|text| build_verifier(&text))
        });
        let verifier = parsed?;
        let mut rng = StdRng::seed_from_u64(job.seed);
        let mut store_agrees = true;
        let report = if w == Workload::OneshotWide {
            let (ch, _) = rec.time("characterize", Some(root), j, || {
                morphqpv::try_characterize(
                    verifier.circuit(),
                    verifier.characterization_config(),
                    &mut rng,
                    &cancel,
                )
            });
            let ch = ch.map_err(|e| e.to_string())?;
            t.quantum_ops += ch.ledger.quantum_ops;
            rec.time("validate", Some(root), j, || {
                verifier.try_validate_with(ch, &mut rng, None, &cancel)
            })
            .0
        } else {
            let (cache, _) = rec.time("store.open", Some(root), j, || {
                CharacterizationCache::open(&cache_dir)
            });
            let mut cache = cache.map_err(|e| e.to_string())?;
            let char_seed: u64 = rng.gen();
            let (fp, _) = rec.time("fingerprint", Some(root), j, || {
                verifier.characterization_fingerprint(char_seed)
            });
            let (hit, get) = rec.time("store.get", Some(root), j, || cache.get(&fp));
            let get_ns = rec.spans()[get].duration_ns();
            t.gets += 1;
            t.get_ns += get_ns;
            store_agrees = (job.kind == "hit") == hit.is_some();
            let ch = match hit {
                Some(ch) => {
                    t.hits += 1;
                    t.hit_get_ns += get_ns;
                    t.avoided_ns += char_ns_by_fp.get(&fp).copied().unwrap_or(0);
                    ch
                }
                None => {
                    let (ch, c) = rec.time("characterize", Some(root), j, || {
                        verifier.try_characterize_for_seed(char_seed, &cancel)
                    });
                    let ch = ch.map_err(|e| e.to_string())?;
                    char_ns_by_fp.insert(fp, rec.spans()[c].duration_ns());
                    t.quantum_ops += ch.ledger.quantum_ops;
                    let (put, p) = rec.time("store.put", Some(root), j, || cache.put(fp, &ch));
                    put.map_err(|e| e.to_string())?;
                    t.puts += 1;
                    t.put_ns += rec.spans()[p].duration_ns();
                    let file = cache_dir.join(format!("{}.json", fp.to_hex()));
                    t.artifact_bytes += std::fs::metadata(file).map(|m| m.len()).unwrap_or(0);
                    ch
                }
            };
            rec.time("validate", Some(root), j, || {
                verifier.try_validate_with(ch, &mut rng, None, &cancel)
            })
            .0
        };
        let report = report.map_err(|e: MorphError| e.to_string())?;
        rec.close(root);
        t.jobs += 1;
        t.job_ns.push(rec.spans()[root].duration_ns());
        t.solver_evaluations += report.run.solver_evaluations;
        outcomes.push(Outcome {
            key: job.file.clone(),
            seed: job.seed,
            exit: report.exit_code(),
            // A hit where a miss was planned (or the reverse) fails the job.
            verdicts: if store_agrees {
                verdicts(&report)
            } else {
                format!("store answered a {} wrongly", job.kind)
            },
        });
    }
    let spans_per_job = per(rec.spans().len() as u64, t.jobs);
    let mut m = layer_metrics(rec.spans(), &t);
    m.push(("inprocess.job_p50_ms", ms(median_ns(&t.job_ns))));
    if w == Workload::EditLoopCache {
        m.extend(incremental(dir, &jobs, budget / 4, &mut outcomes)?);
    }
    let rows = self_by_name(rec.spans())
        .into_iter()
        .map(|(name, ns)| {
            let name = if name == "job" { "unattributed" } else { name };
            (name, ms(per(ns, t.jobs)))
        })
        .collect();
    Ok((m, rows, outcomes, spans_per_job, t.jobs))
}

/// Per-layer metrics of a CLI replay. Layers a workload never calls are
/// left out; the runner reports them as 0.
fn layer_metrics(spans: &[Span], t: &Tally) -> Vec<(&'static str, f64)> {
    let by_name = self_by_name(spans);
    let per_job = |name: &str| ms(per(by_name.get(name).copied().unwrap_or(0), t.jobs));
    vec![
        ("characterize.self_ms", per_job("characterize")),
        ("characterize.quantum_ops", per(t.quantum_ops, t.jobs)),
        ("validate.self_ms", per_job("validate")),
        (
            "validate.solver_evaluations",
            per(t.solver_evaluations, t.jobs),
        ),
        ("store.get_ms", ms(per(t.get_ns, t.gets))),
        ("store.put_ms", ms(per(t.put_ns, t.puts))),
        ("store.artifact_bytes", per(t.artifact_bytes, t.puts)),
        ("store.hit_share", per(t.hits, t.gets)),
        (
            "store.reuse_payoff",
            if t.hit_get_ns == 0 {
                0.0
            } else {
                t.avoided_ns as f64 / t.hit_get_ns as f64
            },
        ),
        ("qprog.parse_ms", per_job("qprog.parse")),
        ("unattributed_ms", per_job("job")),
    ]
}

/// Replays the first revision stream of the plan with incremental
/// verification against a disk segment cache opened per revision (as
/// `verify --incremental --cache-dir` runs it), and compares each verdict
/// with the whole-run verdict of the same revision.
fn incremental(
    dir: &Path,
    jobs: &[Job],
    budget: Duration,
    outcomes: &mut Vec<Outcome>,
) -> Result<Vec<(&'static str, f64)>> {
    let first = jobs
        .iter()
        .find(|j| j.phase != "warmup")
        .ok_or("empty plan")?;
    let stream = first
        .file
        .rsplit_once("-r")
        .map(|(s, _)| s.to_string())
        .ok_or("revision file without -r")?;
    let seg_dir = dir.join("traced-segments");
    let _ = std::fs::remove_dir_all(&seg_dir);
    let start = Instant::now();
    let (mut n, mut ns, mut hits, mut misses, mut mismatches) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for r in 0..=plan::EDIT_REVISIONS {
        if n >= 2 && start.elapsed() >= budget {
            break;
        }
        let file = format!("{stream}-r{r}.qasm");
        let text = std::fs::read_to_string(dir.join(&file)).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let mut cache = SegmentedCache::open(&seg_dir).map_err(|e| e.to_string())?;
        let v = build_verifier(&text)?.incremental(SegmentedConfig::from_env());
        let report = v
            .try_run_incremental(&mut StdRng::seed_from_u64(first.seed), &mut cache)
            .map_err(|e| e.to_string())?;
        ns += t0.elapsed().as_nanos() as u64;
        n += 1;
        let c = report.run.cache.unwrap_or_default();
        hits += c.segment_hits;
        misses += c.segment_misses;
        let (exit, whole) = reference(&text, first.seed, true)?;
        if whole != verdicts(&report) {
            mismatches += 1;
        }
        // The runner checks the whole-run verdicts against the pins; the
        // incremental ones are counted here, not failed.
        outcomes.push(Outcome {
            key: file,
            seed: first.seed,
            exit,
            verdicts: whole,
        });
    }
    Ok(vec![
        ("incremental.revision_ms", ms(per(ns, n))),
        ("incremental.segment_hit_share", per(hits, hits + misses)),
        ("incremental.verdict_mismatches", mismatches as f64),
    ])
}

/// One `serve-pairs` round read back from `rounds.tsv`.
struct PlannedRound {
    phase: String,
    lines: [usize; 2],
}

fn read_rounds(dir: &Path) -> Result<(Vec<String>, Vec<PlannedRound>)> {
    let requests =
        std::fs::read_to_string(dir.join("requests.jsonl")).map_err(|e| e.to_string())?;
    let lines: Vec<String> = requests.lines().map(str::to_string).collect();
    let text = std::fs::read_to_string(dir.join("rounds.tsv")).map_err(|e| e.to_string())?;
    let rounds = text
        .lines()
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let line = |i: usize| -> Result<usize> {
                let n: usize = f
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad rounds.tsv line {l:?}"))?;
                if n >= lines.len() {
                    return Err(format!("rounds.tsv names line {n} past the pool"));
                }
                Ok(n)
            };
            Ok(PlannedRound {
                phase: f[0].into(),
                lines: [line(2)?, line(3)?],
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((lines, rounds))
}

/// What the serve replay keeps of one job.
struct Served {
    round: usize,
    conn: usize,
    start: Instant,
    end: Instant,
    fingerprint: morph_store::Fingerprint,
    exit: i32,
    verdicts: String,
    solver_evaluations: u64,
    quantum_ops: u64,
    /// Kept for the first [`STORE_PROBE_ROUNDS`] rounds only, to time the
    /// memory tier on.
    characterization: Option<morphqpv::Characterization>,
}

/// Rounds whose characterizations the memory-tier probe reuses.
const STORE_PROBE_ROUNDS: usize = 8;

/// Replays the rounds through an in-process [`Service`]: two caller
/// threads, each `submit`→`wait` in lockstep. The service's own
/// `characterize` and `validate/assertion` spans (the `morph-trace`
/// recorder) split its time; the memory tier's `put`/`get` cost is timed
/// after the rounds, outside the job spans.
fn traced_serve(dir: &Path, budget: Duration) -> Result<Traced> {
    let (lines, rounds) = read_rounds(dir)?;
    let service = Service::start(&serve_config()).map_err(|e| e.to_string())?;
    let run = |line: &str| -> Result<JobOutput> {
        let req = JobRequest::from_json_line(line)?;
        service
            .submit(req)
            .map_err(|e| format!("{e:?}"))?
            .wait()
            .map_err(|e| format!("{e:?}"))
    };
    for r in rounds.iter().filter(|r| r.phase == "warmup") {
        run(&lines[r.lines[0]])?;
    }
    morph_trace::reset();
    morph_trace::set_enabled(true);

    let mut rec = Recorder::new();
    let timed: Vec<&PlannedRound> = rounds.iter().filter(|r| r.phase != "warmup").collect();
    let barrier = Barrier::new(2);
    let stop = AtomicBool::new(false);
    let results: Mutex<Vec<Result<Served>>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for conn in 0..2 {
            let (barrier, stop, results, timed, lines, run) =
                (&barrier, &stop, &results, &timed, &lines, &run);
            s.spawn(move || {
                let mut last_phase = String::new();
                for (round, r) in timed.iter().enumerate() {
                    if conn == 0 && !keep_going(start, budget, &r.phase, &last_phase) {
                        stop.store(true, Ordering::SeqCst);
                    }
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    last_phase.clone_from(&r.phase);
                    let t0 = Instant::now();
                    let out = run(&lines[r.lines[conn]]);
                    let t1 = Instant::now();
                    let served = out.map(|out| Served {
                        round,
                        conn,
                        start: t0,
                        end: t1,
                        fingerprint: out.fingerprint,
                        exit: out.report.exit_code(),
                        verdicts: verdicts(&out.report),
                        solver_evaluations: out.report.run.solver_evaluations,
                        quantum_ops: out.report.characterization.ledger.quantum_ops,
                        characterization: (round < STORE_PROBE_ROUNDS)
                            .then_some(out.report.characterization),
                    });
                    results
                        .lock()
                        .expect("no caller thread panics while holding the results")
                        .push(served);
                    barrier.wait();
                }
            });
        }
    });
    morph_trace::set_enabled(false);
    let summaries = morph_trace::span_summaries();
    service.shutdown();

    let mut results = results
        .into_inner()
        .map_err(|_| "a caller thread panicked")?
        .into_iter()
        .collect::<Result<Vec<Served>>>()?;
    results.sort_by_key(|r| (r.round, r.conn));
    let mut t = Tally::default();
    let mut outcomes = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut parse_ns = 0u64;
    for job in &results {
        let req = JobRequest::from_json_line(&lines[timed[job.round].lines[job.conn]])?;
        // The service parses every request's program; time the same calls
        // here, after the rounds, as the qprog layer's share of a job.
        let p0 = Instant::now();
        build_verifier(&req.program)?;
        parse_ns += p0.elapsed().as_nanos() as u64;
        let span = rec.push(Span {
            name: "job",
            start_ns: rec.ns_at(job.start),
            end_ns: rec.ns_at(job.end),
            parent: None,
            job: 2 * job.round + job.conn,
        });
        t.jobs += 1;
        t.job_ns.push(rec.spans()[span].duration_ns());
        t.solver_evaluations += job.solver_evaluations;
        if seen.insert(job.fingerprint) {
            t.quantum_ops += job.quantum_ops;
        }
        outcomes.push(Outcome {
            key: format!("line:{}", timed[job.round].lines[job.conn]),
            seed: req.seed,
            exit: job.exit,
            verdicts: job.verdicts.clone(),
        });
    }
    // Memory-tier cost per call: a put of each early characterization into
    // a fresh memory-only cache and a get back, as the service's stripe
    // does on a leader's publish and on a repeat's hit.
    let mut probed = std::collections::HashSet::new();
    for job in &results {
        let Some(ch) = &job.characterization else {
            continue;
        };
        if !probed.insert(job.fingerprint) {
            continue;
        }
        let mut cache = CharacterizationCache::in_memory();
        let t0 = Instant::now();
        let _ = cache.put(job.fingerprint, ch);
        let t1 = Instant::now();
        let got = cache.get(&job.fingerprint);
        let t2 = Instant::now();
        if got.is_none() {
            return Err("memory tier lost an artifact it was just given".into());
        }
        t.puts += 1;
        t.put_ns += (t1 - t0).as_nanos() as u64;
        t.gets += 1;
        t.get_ns += (t2 - t1).as_nanos() as u64;
    }
    let span_total = |name: &str| -> (u64, u64) {
        summaries
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.duration_ns))
    };
    let (n_char, char_ns) = span_total("characterize");
    let (_, val_ns) = span_total("validate/assertion");
    let hits = morph_trace::counter_total("serve/cache_hit");
    let leaders = morph_trace::counter_total("serve/characterize_leader");
    let job_total: u64 = t.job_ns.iter().sum();
    let mean_char = per(char_ns, n_char);
    let mean_get = per(t.get_ns, t.gets);
    let mean_put = per(t.put_ns, t.puts);
    // The service's memory tier has no span of its own: its time is the
    // service's own lookup counts times the per-call cost measured above
    // (a put per leader's publish, a get per hit).
    let store_ns = (leaders as f64 * mean_put + hits as f64 * mean_get) as u64;
    let unattributed_ns = job_total.saturating_sub(char_ns + val_ns + store_ns + parse_ns);
    // The hit, coalescing and validation counts come from the binary's
    // `--trace-json` export; the runner fills them in.
    let m = vec![
        ("characterize.self_ms", ms(per(char_ns, t.jobs))),
        ("characterize.quantum_ops", per(t.quantum_ops, t.jobs)),
        ("validate.self_ms", ms(per(val_ns, t.jobs))),
        (
            "validate.solver_evaluations",
            per(t.solver_evaluations, t.jobs),
        ),
        ("store.get_ms", ms(mean_get)),
        ("store.put_ms", ms(mean_put)),
        (
            "store.reuse_payoff",
            if mean_get == 0.0 {
                0.0
            } else {
                mean_char / mean_get
            },
        ),
        ("qprog.parse_ms", ms(per(parse_ns, t.jobs))),
        ("unattributed_ms", ms(per(unattributed_ns, t.jobs))),
        ("serve.service_ms", ms(median_ns(&t.job_ns))),
    ];
    let rows = vec![
        ("characterize", ms(per(char_ns, t.jobs))),
        ("validate", ms(per(val_ns, t.jobs))),
        ("store", ms(per(store_ns, t.jobs))),
        ("qprog.parse", ms(per(parse_ns, t.jobs))),
        ("unattributed", ms(per(unattributed_ns, t.jobs))),
    ];
    Ok((m, rows, outcomes, 1.0, t.jobs))
}
