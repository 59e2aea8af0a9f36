//! `run` one workload (the form `BENCHMARK.json` names) or all of them,
//! and `compare` two result sets. See `README.md`.

use geoproof_benchmark::compare::compare;
use geoproof_benchmark::contract::Contract;
use geoproof_benchmark::json::Json;
use geoproof_benchmark::layers::run_traced;
use geoproof_benchmark::procfs;
use geoproof_benchmark::rig::out_dir;
use geoproof_benchmark::run::{run_end_to_end, Outcome};
use geoproof_benchmark::workload::{self, Workload, C, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage:
  geoproof-benchmark run [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--smoke]
  geoproof-benchmark compare <a.json> <b.json>

run without --workload runs every workload, untraced then traced, one child
process each, and writes the result set to benchmark/out/results-seed<seed>.json.
--smoke halves the load (0.5 s windows).";

struct RunArgs {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: Contract::load().run_seconds,
        trace: false,
    };
    let mut seconds_given = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(workload::find(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if smoke && !seconds_given {
        parsed.seconds = workload::SMOKE_SECONDS;
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            parsed.seconds
        ));
    }
    Ok(parsed)
}

fn detail_path(workload: &str, trace: bool) -> std::path::PathBuf {
    out_dir().join(format!("last-{workload}-trace{}.json", u8::from(trace)))
}

/// Runs one workload in this process; the last stdout line is the result.
fn run_one(spec: &Workload, args: &RunArgs) -> ExitCode {
    println!(
        "workload {} seed {} seconds {} trace {} | C={C} auditor threads, host_cores={}, \
         link=loopback (link latency is not measured), ledger on {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cores(),
        procfs::filesystem_of(&out_dir()),
    );
    let Outcome {
        correct,
        attempted,
        failed,
        metrics,
        unbounded,
        notes,
    } = if args.trace {
        run_traced(spec, args.seed, args.seconds)
    } else {
        run_end_to_end(spec, args.seed, args.seconds)
    };
    metrics.print(if args.trace {
        "per-layer metrics"
    } else {
        "end-to-end metrics (median of per-window values)"
    });
    if !unbounded.0.is_empty() {
        unbounded.print("also measured, held to no bound (see README)");
    }
    for note in &notes {
        println!("NOTE: {note}");
    }
    let detail = Json::obj(vec![
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("notes", Json::Arr(notes.iter().map(Json::str).collect())),
        ("metrics", metrics.to_detail_json()),
        ("unbounded", unbounded.to_detail_json()),
    ]);
    if let Err(e) = std::fs::write(detail_path(spec.name, args.trace), detail.pretty()) {
        eprintln!("write result detail: {e}");
        return ExitCode::FAILURE;
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics.to_contract_json()),
    ]);
    println!("{}", line.compact());
    // A failed gate is a wrong result, not a slow one.
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs every workload, untraced then traced, each in its own process so
/// peak memory, CPU time and the obs registry are per workload.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut workloads = Vec::new();
    let mut clean = true;
    for spec in &WORKLOADS {
        let mut modes = Vec::new();
        for trace in [false, true] {
            let status = std::process::Command::new(&exe)
                .args(["run", "--workload", spec.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .status();
            let detail = std::fs::read_to_string(detail_path(spec.name, trace))
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text));
            match (status, detail) {
                (Ok(status), Ok(detail)) => {
                    let failed = detail.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
                    clean &= status.success() && failed == 0.0;
                    modes.push((if trace { "per_layer" } else { "end_to_end" }, detail));
                }
                (status, detail) => {
                    eprintln!("{} trace {trace}: {status:?} {:?}", spec.name, detail.err());
                    clean = false;
                }
            }
        }
        workloads.push((spec.name.to_owned(), Json::obj(modes)));
    }
    let set = Json::obj(vec![
        ("benchmark", Json::str("geoproof-benchmark")),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("auditor_threads", Json::Num(C as f64)),
        ("host_cores", Json::Num(host_cores() as f64)),
        ("link", Json::str("loopback")),
        (
            "ledger_filesystem",
            Json::str(procfs::filesystem_of(&out_dir())),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = out_dir().join(format!("results-seed{}.json", args.seed));
    if let Err(e) = std::fs::write(&path, set.pretty()) {
        eprintln!("write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("result set written to {}", path.display());
    if clean {
        ExitCode::SUCCESS
    } else {
        eprintln!("a gate failed or an audit failed; see the NOTE lines above");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => match parse_run(rest) {
            Ok(parsed) => match parsed.workload {
                Some(spec) => run_one(spec, &parsed),
                None => run_all(&parsed),
            },
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some((cmd, [a, b])) if cmd == "compare" => match compare(a, b) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
