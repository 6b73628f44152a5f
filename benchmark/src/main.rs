//! The HaTen2-rs benchmark: four ALS-sweep workloads, end-to-end metrics,
//! and an outside-in per-layer trace. See `benchmark/README.md`.
//!
//! ```text
//! haten2-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     One pass over one workload; the last line of standard output is
//!     the result object of the BENCHMARK.json contract.
//! haten2-benchmark run     [--seed N] [--workload NAME] [--seconds S]
//!                          [--repeat K] [--quick] [--out FILE]
//! haten2-benchmark trace   [--seed N] [--workload NAME] [--seconds S] [--quick]
//!                          [--out FILE]
//!     Every workload (or one), printed by metric name with units and
//!     written with the host descriptor to a result file.
//! haten2-benchmark compare A.json B.json
//!     A (parent) against B (change), judged by the end-to-end bounds.
//! ```

mod compare;
mod host;
mod hostspeed;
mod json;
mod procstat;
mod run;
mod span;
mod stats;
mod trace;
mod workloads;

use json::Json;
use run::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{out_dir, Spec, SPECS};

/// Length of a timed section unless `--seconds` says otherwise: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
/// Length of a `--quick` timed section.
const QUICK_SECONDS: f64 = 1.0;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    command: Command,
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: Option<f64>,
    repeat: usize,
    quick: bool,
    out: Option<PathBuf>,
    /// Contract form only: also write the workload's result-file entry
    /// here (how `run`/`trace` collect their isolated passes).
    outcome: Option<PathBuf>,
}

#[derive(Debug, PartialEq)]
enum Command {
    /// No subcommand: the contract's single pass; `true` = traced.
    Contract(bool),
    Run,
    Trace,
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter().peekable();
    let subcommand = it.next_if(|a| !a.starts_with("--")).map(String::as_str);
    let mut parsed = Args {
        command: Command::Contract(false),
        workload: None,
        seed: 1,
        seconds: None,
        repeat: 1,
        quick: false,
        out: None,
        outcome: None,
    };
    let mut positional = Vec::new();
    let mut trace_flag = None;
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = || SPECS.map(|s| s.name).join(", ");
                parsed.workload = Some(
                    Spec::named(name)
                        .ok_or_else(|| format!("unknown workload {name} (known: {})", known()))?,
                );
            }
            "--seed" => parsed.seed = number(value("an integer")?)?,
            "--seconds" => {
                let s: f64 = number(value("a number")?)?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {s} is not a positive duration"));
                }
                parsed.seconds = Some(s);
            }
            "--repeat" => parsed.repeat = number::<usize>(value("a count")?)?.max(1),
            "--trace" => trace_flag = Some(number::<u8>(value("0 or 1")?)? != 0),
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            "--outcome" => parsed.outcome = Some(PathBuf::from(value("a path")?)),
            "--quick" => parsed.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            path => positional.push(PathBuf::from(path)),
        }
    }
    parsed.command = match (subcommand, trace_flag) {
        (None, trace) => {
            if parsed.workload.is_none() {
                return Err("--workload is required without a subcommand".into());
            }
            Command::Contract(trace.unwrap_or(false))
        }
        (Some("run"), None) => Command::Run,
        (Some("trace"), None) => Command::Trace,
        (Some("compare"), None) => {
            match <[PathBuf; 2]>::try_from(std::mem::take(&mut positional)) {
                Ok([a, b]) => Command::Compare(a, b),
                Err(_) => return Err("compare takes exactly two result files".into()),
            }
        }
        (Some(_), Some(_)) => return Err("--trace belongs to the form without a subcommand".into()),
        (Some(other), None) => return Err(format!("unknown subcommand {other}")),
    };
    if !positional.is_empty() {
        return Err(format!("unexpected argument {}", positional[0].display()));
    }
    Ok(parsed)
}

fn number<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("cannot parse {text:?}"))
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }

    /// The selected workloads, at the selected size.
    fn specs(&self) -> Vec<Spec> {
        SPECS
            .iter()
            .filter(|s| self.workload.is_none_or(|w| w.name == s.name))
            .map(|s| if self.quick { s.quick() } else { s.clone() })
            .collect()
    }

    fn pass(&self, spec: &Spec, traced: bool) -> Result<Outcome, String> {
        if traced {
            trace::trace_workload(spec, self.seed, self.seconds())
        } else {
            run::run_workload(spec, self.seed, self.seconds())
        }
    }
}

/// One workload in a process of its own — the same isolation the
/// contract form has. In one process the allocator's retained heap would
/// carry from workload to workload: `parafac-dnn-smalljobs` read 38 MiB of
/// peak RSS after `parafac-dri-kb` in the same process, 18 MiB alone.
fn isolated_pass(args: &Args, spec: &Spec, traced: bool) -> Result<Json, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let entry = dir.join(format!("outcome-{}.json", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let status = std::process::Command::new(exe)
        .args([
            "--workload",
            spec.name,
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(args.quick.then_some("--quick"))
        .arg("--outcome")
        .arg(&entry)
        .status()
        .map_err(|e| format!("cannot start the pass over {}: {e}", spec.name))?;
    if !status.success() {
        return Err(format!("the pass over {} ended with {status}", spec.name));
    }
    let outcome = read_json(&entry);
    let _ = std::fs::remove_file(&entry);
    outcome
}

/// `run` / `trace`: every selected workload, `repeat` times over, printed
/// and written to a result file. Returns whether nothing failed. When
/// the file exists already and was measured the same way, the runs are
/// appended to it — so two builds can be measured alternately, each into
/// its own file.
fn suite(args: &Args, traced: bool) -> Result<bool, String> {
    let mode = if traced { "trace" } else { "run" };
    let path = match &args.out {
        Some(path) => path.clone(),
        None => out_dir().join(format!("{mode}-seed{}.json", args.seed)),
    };
    let header = vec![
        ("schema", Json::str("haten2-benchmark/1")),
        ("mode", Json::str(mode)),
        ("host", host::Host::describe().json()),
        ("seed", Json::Num(args.seed as f64)),
        ("quick", Json::Bool(args.quick)),
        ("seconds", Json::Num(args.seconds())),
    ];
    let mut runs = Vec::new();
    if path.exists() {
        let earlier = read_json(&path)?;
        if let Some((key, _)) = header.iter().find(|(k, v)| earlier.get(k) != Some(v)) {
            return Err(format!(
                "{} was measured with a different `{key}`; not appending to it",
                path.display()
            ));
        }
        runs = earlier
            .get("runs")
            .and_then(Json::as_arr)
            .map_or_else(Vec::new, <[Json]>::to_vec);
    }

    let mut ok = true;
    for _ in 0..args.repeat {
        let mut outcomes = Vec::new();
        for spec in args.specs() {
            let outcome = isolated_pass(args, &spec, traced)?;
            ok &= outcome.get("ops_failed").and_then(Json::as_f64) == Some(0.0);
            outcomes.push(outcome);
        }
        runs.push(Json::obj([("workloads", Json::Arr(outcomes))]));
    }
    let doc = Json::obj(header.into_iter().chain([("runs", Json::Arr(runs))]));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn read_json(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main_inner() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    match &args.command {
        Command::Contract(traced) => {
            let spec = args.specs().pop().expect("--workload was checked");
            let outcome = args.pass(&spec, *traced)?;
            outcome.print();
            if let Some(path) = &args.outcome {
                std::fs::write(path, outcome.json().pretty())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            println!("{}", outcome.result_line());
            // The result line carries correctness; the exit code says the
            // measurement itself completed.
            Ok(true)
        }
        Command::Run => suite(&args, false),
        Command::Trace => suite(&args, true),
        Command::Compare(a, b) => {
            let rows = compare::compare(&read_json(a)?, &read_json(b)?)?;
            Ok(compare::print(&rows))
        }
    }
}

/// Switch off glibc malloc's *dynamic* mmap/trim thresholds by pinning
/// the mmap threshold at its documented default (128 KiB; `man 3
/// mallopt`: setting it disables the adjustment, the trim threshold keeps
/// its default). Left on, the thresholds drift with the order in which the
/// first large buffers happen to be freed, and identical runs land in
/// different regimes: `tucker-dri-cubic` measured 0.62–0.81 s per sweep
/// and 53–84 MiB across six identical runs, against 0.67–0.70 s and
/// 47–49 MiB pinned. Pinned, every buffer of 128 KiB or more is mmapped
/// and unmapped, so allocation costs are paid — and show — in full.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator_policy() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // ints by value, touches only the allocator's own parameters, and runs
    // here before any other thread exists. A refusal (return 0) leaves the
    // defaults in place, which is only noisier.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator_policy() {}

fn main() -> ExitCode {
    pin_allocator_policy();
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("haten2-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn contract_form() {
        let a = parse("--workload durable-scan --seed 7 --seconds 12.5 --trace 1").unwrap();
        assert_eq!(a.command, Command::Contract(true));
        assert_eq!(a.workload.unwrap().name, "durable-scan");
        assert_eq!((a.seed, a.seconds()), (7, 12.5));
        assert_eq!(a.specs().len(), 1);
        let a = parse("--workload parafac-dri-kb --seed 1 --seconds 3 --trace 0").unwrap();
        assert_eq!(a.command, Command::Contract(false));
    }

    #[test]
    fn subcommands_and_defaults() {
        let a = parse("run").unwrap();
        assert_eq!(a.command, Command::Run);
        assert_eq!((a.seed, a.repeat, a.seconds()), (1, 1, DEFAULT_SECONDS));
        assert_eq!(a.specs().len(), SPECS.len());
        let a = parse("trace --quick --workload tucker-dri-cubic").unwrap();
        assert_eq!(a.command, Command::Trace);
        assert_eq!(a.seconds(), QUICK_SECONDS);
        assert_eq!(
            a.specs()[0].nnz * 10,
            Spec::named("tucker-dri-cubic").unwrap().nnz
        );
        let a = parse("compare a.json b.json").unwrap();
        assert_eq!(
            a.command,
            Command::Compare("a.json".into(), "b.json".into())
        );
    }

    /// `BENCHMARK.json` is written by hand; the code is what runs. Hold
    /// the two equal.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).unwrap().as_arr().unwrap().to_vec();
        let text = |j: &Json, key: &str| j.get(key).unwrap().as_str().unwrap().to_string();

        assert_eq!(list("paths"), [Json::str("benchmark")]);
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, SPECS.map(|s| s.name));

        let gates = list("end_to_end");
        assert_eq!(gates.len(), run::END_TO_END.len());
        for (json, gate) in gates.iter().zip(run::END_TO_END) {
            assert_eq!(
                (text(json, "name"), text(json, "unit")),
                (gate.name.into(), gate.unit.into())
            );
            assert_eq!(
                json.get("bound").unwrap().as_f64(),
                Some(gate.bound),
                "{}",
                gate.name
            );
            assert_eq!(text(json, "better"), "lower", "{}", gate.name);
        }

        let layers = list("per_layer");
        assert_eq!(layers.len(), trace::PER_LAYER.len());
        for (json, (name, unit)) in layers.iter().zip(trace::PER_LAYER) {
            assert_eq!(
                (text(json, "name"), text(json, "unit")),
                (name.to_string(), unit.to_string())
            );
            assert!(
                ["lower", "higher"].contains(&text(json, "better").as_str()),
                "{name}"
            );
        }
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for bad in [
            "",
            "--seed 3",
            "--workload nope",
            "run --seconds 0",
            "run --seconds x",
            "run --frobnicate",
            "run --trace 1",
            "run stray",
            "compare a.json",
            "frob",
            "--workload durable-scan --seed",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
