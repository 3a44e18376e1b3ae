//! The benchmark of this repository: five workloads, each in a process
//! of its own, measured end to end (untraced) and layer by layer
//! (traced). See `README.md` beside this crate.
//!
//! ```text
//! benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--traced] [--check-repeat] [--quick]
//! benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1     (one run, as the driver makes it)
//! ```

mod cases;
mod host;
mod measure;
mod probe;
mod report;
mod spans;
mod stats;
mod workloads;

use std::fs;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use instencil::obs::Json;
use instencil_testkit::Rng;

use measure::{Acc, Outcome, Rep};
use report::{Dist, HostProbes, Rows, END_TO_END, EXACT, PER_LAYER};
use spans::SpanLog;
use workloads::{Mode, Phases, Until, Workload};

/// Where result and trace files go, relative to the repository root (the
/// directory the benchmark is run from).
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `--trace 0|1`: one run of one workload, ending in the result line.
    trace: Option<bool>,
    traced: bool,
    check_repeat: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: None,
        traced: false,
        check_repeat: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--traced" => args.traced = true,
            "--check-repeat" => args.check_repeat = true,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if let Some(w) = &args.workload {
        if workloads::build(w).is_none() {
            return Err(format!(
                "unknown workload {w}; there are: {}",
                workloads::NAMES.join(", ")
            ));
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace makes one run of one workload: name it with --workload".into());
    }
    if args.quick {
        args.seconds = args.seconds.min(2.0);
    }
    Ok(args)
}

fn num(v: Option<f64>) -> Json {
    v.filter(|v| v.is_finite()).map_or(Json::Null, Json::Num)
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// One measured workload: everything the table, the result file and the
/// result line are made of.
struct Run {
    end_to_end: Rows<Dist>,
    /// Numbers the result line carries where `end_to_end` says `n/a`.
    line_fallback: Vec<(&'static str, f64)>,
    exact: Rows<f64>,
    per_layer: Option<Rows<f64>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    rejected: Vec<String>,
    /// Leading members of the result file: what was run, and on what.
    detail: Vec<(&'static str, Json)>,
}

/// Measures one workload in this process.
fn run_workload(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Run {
    let mut log = SpanLog::new(traced);
    let main_flow = log.enter("bench", "main_flow");
    // The traced run leaves room for the per-layer probes.
    let budget = if traced { 0.6 * seconds } else { seconds };
    let mut rng = Rng::seed_from_u64(seed);
    let data: Vec<Vec<Vec<f64>>> = log
        .time("bench", "inputs", || {
            w.cases
                .iter()
                .map(|c| c.kernel.inputs(&c.shape, &mut rng))
                .collect()
        })
        .0;
    let mut accs: Vec<Acc> = w.cases.iter().map(|_| Acc::default()).collect();
    let mut rejected: Vec<Option<String>> = vec![None; w.cases.len()];

    let started = Instant::now();
    let idle = Phases {
        t1: Until::Count(0),
        jobs: Until::Count(0),
        tp: Until::Count(0),
    };
    let mut round = 0;
    let mut last_round = false;
    while !last_round {
        let elapsed = started.elapsed().as_secs_f64();
        let phases = match w.mode {
            // Set-ups repeat for their share of the seconds (3 to 100 of
            // them); the last one goes on to the steady phases.
            Mode::Steady { setup_share, last } => {
                last_round = (round >= 2 && elapsed >= setup_share * budget) || round >= 99;
                if last_round {
                    last
                } else {
                    idle
                }
            }
            Mode::Rounds { each } => {
                if round >= 3 && elapsed >= budget {
                    break;
                }
                each
            }
        };
        for (i, case) in w.cases.iter().enumerate() {
            if rejected[i].is_some() {
                continue;
            }
            let mut rep = Rep {
                case,
                data: &data[i],
                index: round,
                phases,
                job: w.job,
                seconds: budget,
                rng: &mut rng,
            };
            if let Outcome::Rejected(why) = rep.run(&mut log, &mut accs[i]) {
                rejected[i] = Some(format!("{}: {why}", case.name));
            }
        }
        round += 1;
    }
    log.exit(main_flow);
    let main_spans = log.recs().len();

    let kept: Vec<usize> = (0..w.cases.len())
        .filter(|&i| rejected[i].is_none())
        .collect();
    let cases: Vec<&cases::Case> = kept.iter().map(|&i| &w.cases[i]).collect();
    let kept_accs: Vec<&Acc> = kept.iter().map(|&i| &accs[i]).collect();
    let end_to_end = report::end_to_end(&cases, &kept_accs);
    let exact = report::exact_counts(&cases, &kept_accs, w.job);
    let line_fallback =
        report::one_thread_fallback(&cases, &kept_accs).map_or(Vec::new(), |f| f.to_vec());

    let per_layer = traced.then(|| {
        let probes = log.enter("bench", "probes");
        let host = log
            .time("bench", "host_probes", || HostProbes {
                triad: host::triad_gbs(host::STREAM_LEN),
                fma: host::fma_gflops(),
                timer_ns: host::timer_ns(),
            })
            .0;
        let items: Vec<probe::Items> = kept
            .iter()
            .map(|&i| probe::probe_case(&w.cases[i], &data[i], &accs[i], seed, seconds, &mut log))
            .collect();
        log.exit(probes);
        let recs = &log.recs()[..main_spans];
        report::per_layer(
            &cases,
            &kept_accs,
            &exact,
            &probe::fold(&items),
            &host,
            recs,
        )
    });

    let mut detail = vec![
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(traced)),
        ("host", host::host_json()),
        (
            "threads",
            obj(vec![
                ("t1_requested", Json::Num(1.0)),
                ("t1_resolved", Json::Num(1.0)),
                ("tp_requested", Json::Num(host::tp_request() as f64)),
                (
                    "tp_resolved",
                    num(kept_accs.first().map(|a| a.tp_threads as f64)),
                ),
            ]),
        ),
        (
            "array_bytes",
            Json::Num(cases.iter().map(|c| c.array_bytes()).sum::<usize>() as f64),
        ),
        ("set_up_repetitions", Json::Num(round as f64)),
    ];
    if traced {
        // Self time of every kind of span, probes included: where the
        // traced run's own wall went.
        let by = spans::self_time_by(log.recs(), |r| format!("{}:{}", r.layer, r.name));
        detail.push((
            "self_time_s",
            Json::Obj(by.into_iter().map(|(k, s)| (k, Json::Num(s))).collect()),
        ));
        let trace = spans::chrome_trace(log.recs(), w.name).to_string();
        if let Err(e) = fs::write(format!("{OUT_DIR}/trace_{}.json", w.name), trace) {
            eprintln!("cannot write the trace of {}: {e}", w.name);
        }
    }
    Run {
        end_to_end,
        line_fallback,
        exact,
        per_layer,
        attempted: accs.iter().map(|a| a.attempted).sum(),
        failed: accs.iter().map(|a| a.failed).sum(),
        failures: accs
            .iter()
            .flat_map(|a| a.failures.iter().cloned())
            .collect(),
        rejected: rejected.into_iter().flatten().collect(),
        detail,
    }
}

fn show(v: Option<f64>) -> String {
    match v {
        None => "n/a".into(),
        Some(v) if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e7) => format!("{v:.4e}"),
        Some(v) => format!("{v:.4}"),
    }
}

fn units(defs: &'static [report::Def], name: &str) -> &'static str {
    defs.iter().find(|d| d.name == name).map_or("", |d| d.unit)
}

/// Prints every metric of the run by name with its unit.
fn print_table(w: &Workload, run: &Run, args: &Args, traced: bool) {
    let mode = if traced { "traced" } else { "untraced" };
    println!(
        "== {} (seed {}, {} s, {mode}) ==",
        w.name, args.seed, args.seconds
    );
    if args.quick {
        println!("   --quick: a smoke run, NOT FOR CLAIMS");
    }
    if traced {
        println!("   end-to-end numbers of a traced run are not for claims either; the untraced run has them");
    }
    for (name, d) in &run.end_to_end {
        let spread = d.filter(|d| d.n > 0).map_or(String::new(), |d| {
            format!(
                "  (q1 {}, q3 {}, n {})",
                show(Some(d.q1)),
                show(Some(d.q3)),
                d.n
            )
        });
        println!(
            "  {name:<34} {:>14} {:<8}{spread}",
            show(d.map(|d| d.value)),
            units(&END_TO_END, name)
        );
    }
    let rows = run.per_layer.as_ref().unwrap_or(&run.exact);
    for (name, v) in rows {
        println!("  {name:<34} {:>14} {}", show(*v), units(&PER_LAYER, name));
    }
    let share = if run.attempted > 0 {
        run.failed as f64 / run.attempted as f64
    } else {
        1.0
    };
    println!(
        "  ops_attempted {}  ops_failed {}  fail_share {share}",
        run.attempted, run.failed
    );
    for r in &run.rejected {
        println!("  skipped (the pipeline rejects it): {r}");
    }
    for f in &run.failures {
        println!("  FAILED {f}");
    }
}

fn detail_path(workload: &str, traced: bool) -> String {
    format!(
        "{OUT_DIR}/run_{workload}_{}.json",
        if traced { "traced" } else { "untraced" }
    )
}

/// One run of one workload, as the driver makes it: table, result file,
/// and the result line last.
fn child(args: &Args, traced: bool) -> ExitCode {
    let name = args.workload.as_deref().expect("checked by the caller");
    let w = workloads::build(name).expect("checked by parse_args");
    if let Err(e) = fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let run = run_workload(&w, args.seed, args.seconds, traced);
    print_table(&w, &run, args, traced);

    let dist_json = |d: &Option<Dist>, unit: &str| {
        obj(vec![
            ("value", num(d.map(|d| d.value))),
            ("unit", Json::str(unit)),
            ("q1", num(d.map(|d| d.q1))),
            ("q3", num(d.map(|d| d.q3))),
            ("samples", num(d.map(|d| d.n as f64))),
        ])
    };
    let flat = |rows: &Rows<f64>| {
        Json::Obj(
            rows.iter()
                .map(|(n, v)| ((*n).to_owned(), num(*v)))
                .collect(),
        )
    };
    let mut doc = run.detail.clone();
    doc.extend([
        ("quick", Json::Bool(args.quick)),
        (
            "end_to_end",
            Json::Obj(
                run.end_to_end
                    .iter()
                    .map(|(n, d)| ((*n).to_owned(), dist_json(d, units(&END_TO_END, n))))
                    .collect(),
            ),
        ),
        ("exact", flat(&run.exact)),
        ("per_layer", run.per_layer.as_ref().map_or(Json::Null, flat)),
        ("ops_attempted", Json::Num(run.attempted as f64)),
        ("ops_failed", Json::Num(run.failed as f64)),
        (
            "failures",
            Json::Arr(run.failures.iter().map(Json::str).collect()),
        ),
        (
            "rejected",
            Json::Arr(run.rejected.iter().map(Json::str).collect()),
        ),
    ]);
    if let Err(e) = fs::write(detail_path(name, traced), obj(doc).to_string()) {
        eprintln!("cannot write the result file: {e}");
        return ExitCode::from(2);
    }

    // The result line: every end-to-end metric untraced, every per-layer
    // metric traced. A per-layer metric the workload does not exercise
    // reads 0 here (`n/a` in the table and `null` in the result file).
    let metrics: Vec<(String, Json)> = if let Some(rows) = &run.per_layer {
        rows.iter()
            .map(|(n, v)| {
                let v = v.filter(|v| v.is_finite()).unwrap_or(0.0);
                (
                    (*n).to_owned(),
                    obj(vec![
                        ("value", Json::Num(v)),
                        ("unit", Json::str(units(&PER_LAYER, n))),
                    ]),
                )
            })
            .collect()
    } else {
        let mut out = Vec::new();
        for (n, d) in &run.end_to_end {
            let fallback = run
                .line_fallback
                .iter()
                .find(|(f, _)| f == n)
                .map(|(_, v)| *v);
            if d.is_none() && fallback.is_some() {
                eprintln!("warning: {n} is n/a on this host (tp resolves to 1 thread); the result line carries the second one-thread pass");
            }
            let Some(v) = d.map(|d| d.value).or(fallback).filter(|v| v.is_finite()) else {
                eprintln!("{n} could not be measured: no result line");
                return ExitCode::from(3);
            };
            out.push((
                (*n).to_owned(),
                obj(vec![
                    ("value", Json::Num(v)),
                    ("unit", Json::str(units(&END_TO_END, n))),
                ]),
            ));
        }
        out
    };
    let line = obj(vec![
        ("correct", Json::Bool(run.failed == 0 && run.attempted > 0)),
        ("attempted", Json::Num(run.attempted.max(1) as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{line}");
    ExitCode::SUCCESS
}

/// Runs one workload in a fresh process (so peak memory and the
/// program's process-global memo tables are per workload) and returns
/// its result file.
fn spawn(name: &str, args: &Args, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        name,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // The run's table is passed on; its last line, the result line, is
    // for the driver and left out.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the run of {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let table = stdout.trim_end().rsplit_once('\n').map_or("", |(t, _)| t);
    println!("{table}");
    if !out.status.success() {
        return Err(format!("the run of {name} ended with {}", out.status));
    }
    let text = fs::read_to_string(detail_path(name, traced)).map_err(|e| e.to_string())?;
    Json::parse(&text)
}

/// Runs the chosen workloads once, untraced or traced.
fn suite(args: &Args, traced: bool) -> Result<Vec<Json>, String> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    names.into_iter().map(|n| spawn(n, args, traced)).collect()
}

fn failed_ops(runs: &[Json]) -> f64 {
    runs.iter()
        .filter_map(|r| r.get("ops_failed")?.as_f64())
        .sum()
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let json = Json::parse(&text)?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_owned(), bound))
        })
        .collect()
}

/// `--check-repeat`: the untraced suite twice on one seed. Every
/// end-to-end median must repeat within its bound, every exact count
/// exactly.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    let (first, second) = (suite(args, false)?, suite(args, false)?);
    let mut ok = failed_ops(&first) + failed_ops(&second) == 0.0;
    println!(
        "\n== check-repeat: two untraced runs of seed {} ==",
        args.seed
    );
    for (a, b) in first.iter().zip(&second) {
        let name = a.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (metric, bound) in &bounds {
            let field = |run: &Json, f: &str| run.get("end_to_end")?.get(metric)?.get(f)?.as_f64();
            let verdict = match (field(a, "value"), field(b, "value")) {
                (Some(x), Some(y)) => {
                    let diff = (x - y).abs() / x.min(y);
                    if diff > *bound {
                        ok = false;
                    }
                    format!(
                        "differ by {:.2} % (bound {:.0} %){}",
                        diff * 100.0,
                        bound * 100.0,
                        if diff > *bound {
                            "  BEYOND ITS BOUND"
                        } else {
                            ""
                        }
                    )
                }
                (None, None) => "n/a in both".into(),
                _ => {
                    ok = false;
                    "n/a in one run only  MISMATCH".into()
                }
            };
            let quart = |run: &Json| {
                format!(
                    "{} [{} .. {}]",
                    show(field(run, "value")),
                    show(field(run, "q1")),
                    show(field(run, "q3"))
                )
            };
            println!(
                "  {name:<16} {metric:<28} {}  |  {}  {verdict}",
                quart(a),
                quart(b)
            );
        }
        for count in EXACT {
            let get = |run: &Json| run.get("exact")?.get(count)?.as_f64();
            if get(a) != get(b) {
                ok = false;
                println!(
                    "  {name:<16} {count:<28} {} vs {}  COUNT DIFFERS",
                    show(get(a)),
                    show(get(b))
                );
            }
        }
    }
    println!(
        "{}",
        if ok {
            "check-repeat: ok (every exact count identical)"
        } else {
            "check-repeat: FAILED"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let (Some(traced), Some(_)) = (args.trace, &args.workload) {
        return child(&args, traced);
    }
    let outcome = if args.check_repeat {
        check_repeat(&args)
    } else {
        suite(&args, false).and_then(|mut runs| {
            if args.traced {
                runs.extend(suite(&args, true)?);
            }
            let doc = obj(vec![
                ("host", host::host_json()),
                ("seed", Json::Num(args.seed as f64)),
                ("seconds", Json::Num(args.seconds)),
                ("quick_not_for_claims", Json::Bool(args.quick)),
                ("runs", Json::Arr(runs.clone())),
            ]);
            fs::write(format!("{OUT_DIR}/results.json"), doc.to_string())
                .map_err(|e| e.to_string())?;
            println!("\nwrote {OUT_DIR}/results.json");
            Ok(failed_ops(&runs) == 0.0)
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
