//! `drbw-benchmark`: the repo benchmark.
//!
//! ```text
//! drbw-benchmark run --workload <name|all> --seed <u64> [--seconds <n>] [--trace <0|1>] [--out <dir>] [--smoke]
//! drbw-benchmark summarize <dir> [<dir>]
//! drbw-benchmark bless
//! ```
//!
//! `run` executes one workload in this process — set-up, then the
//! measured section — and prints a header line, one `workload metric
//! value unit` line per metric, and last one JSON object holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Every layer is measured from outside, by timing calls
//! into the crates' public functions. See `README.md` beside this
//! package for what each workload is for.

mod batch_cold;
mod golden;
mod harness;
mod serve;
mod spec;
mod stats;
mod summarize;
mod tenants;
mod trace;
mod tsv;
mod tune_loop;

use harness::{ratio, RunSpec, Section, Setup};
use spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  drbw-benchmark run --workload <name|all> --seed <u64> [--seconds <n>] [--trace <0|1>] [--out <dir>] [--smoke]
  drbw-benchmark summarize <dir> [<dir>]
  drbw-benchmark bless";

fn main() -> ExitCode {
    let process_start = Instant::now();
    scrub_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|cmd| run(cmd, process_start)),
        Some("summarize") if (2..=3).contains(&args.len()) => {
            summarize::summarize(&args[1..].iter().map(PathBuf::from).collect::<Vec<_>>())
        }
        Some("bless") if args.len() == 1 => bless(),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}

/// Shipped defaults are what is measured: no `DRBW_*` knob and no thread
/// count inherited from the caller's shell reaches the program.
fn scrub_environment() {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_str().is_some_and(|k| k.starts_with("DRBW_") || k == "RAYON_NUM_THREADS"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
}

struct RunCommand {
    workload: String,
    spec: RunSpec,
    /// The under-five-seconds shape: the shipped model instead of
    /// training, and a second of ops unless `--seconds` says otherwise.
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunCommand, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out, mut smoke) = (None, None, None, false, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| format!("bad --seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?} or all"));
    }
    let seconds = seconds.unwrap_or(if smoke { 1.0 } else { RUN_SECONDS as f64 });
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {seconds}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    Ok(RunCommand { workload, spec: RunSpec { seed, seconds, trace }, smoke, out })
}

fn run(cmd: RunCommand, process_start: Instant) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; measure with `cargo run --release`".into());
    }
    if cmd.workload == "all" {
        return run_all(&cmd);
    }
    let setup = if cmd.smoke { harness::load_shipped_model() } else { harness::train() };
    let sec = match cmd.workload.as_str() {
        "batch-cold" => batch_cold::run(&cmd.spec, &setup),
        "tenants" => tenants::run(&cmd.spec, &setup),
        "tune-loop" => tune_loop::run(&cmd.spec, &setup),
        "serve-saturate" => serve::run_saturate(&cmd.spec, &setup),
        "serve-paced" => serve::run_paced(&cmd.spec, &setup),
        other => unreachable!("parse_run admitted {other:?}"),
    };
    let setup_s = sec.started().duration_since(process_start).as_secs_f64();
    let metrics = if cmd.spec.trace { per_layer(&sec, &setup) } else { end_to_end(&sec, setup_s)? };
    report(&cmd, &sec, &metrics)
}

/// One child process per workload, so set-up time and peak memory are
/// each workload's own.
fn run_all(cmd: &RunCommand) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    for workload in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child.args(["run", "--workload", workload, "--seed", &cmd.spec.seed.to_string()]);
        child.args(["--seconds", &cmd.spec.seconds.to_string(), "--trace", if cmd.spec.trace { "1" } else { "0" }]);
        if cmd.smoke {
            child.arg("--smoke");
        }
        if let Some(out) = &cmd.out {
            child.arg("--out").arg(out);
        }
        let status = child.status().map_err(|e| format!("cannot run {workload}: {e}"))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

/// The end-to-end metrics of an untraced run: the section at the pace of
/// its least-disturbed repetitions (see `harness::Headline`).
fn end_to_end(sec: &Section, setup_s: f64) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m = BTreeMap::new();
    m.insert("setup_s", setup_s);
    m.insert("wall_s", sec.headline.wall_s);
    m.insert("op_p50_ms", stats::percentile(&sec.headline.op_ms, 50.0));
    m.insert("throughput_mitems_per_s", ratio(sec.items as f64 / 1e6, sec.headline.wall_s));
    m.insert("peak_rss_mb", peak_rss_mb()?);
    Ok(m)
}

/// `VmHWM`: the most resident memory this process ever held.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The per-layer metrics of a traced run: every name of the table, 0
/// for a layer this workload does not exercise.
fn per_layer(sec: &Section, setup: &Setup) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|s| (s.name, 0.0)).collect();
    // Busy time and calls of every span name and call site that is a
    // layer (`<name>.busy_s`, `<name>.calls`).
    let layers = sec.tracer.layers();
    let mut covered_s = 0.0;
    for (name, layer) in &layers {
        if *name == trace::OP {
            continue;
        }
        covered_s += layer.busy_s;
        for (suffix, value) in [("busy_s", layer.busy_s), ("calls", layer.calls as f64)] {
            if let Some(slot) = spec::metric(&format!("{name}.{suffix}")).and_then(|s| m.get_mut(s.name)) {
                *slot = value;
            }
        }
    }
    for (name, value) in &sec.values {
        *m.get_mut(name).unwrap_or_else(|| panic!("{name} is not in spec::PER_LAYER")) = *value;
    }
    m.insert("core.training.collect_s", setup.collect_s);
    m.insert("mldt.fit_s", setup.fit_s);

    let ops = &sec.headline.op_ms;
    m.insert("harness.ops", sec.op_ms.len() as f64);
    m.insert("harness.failed_ops", sec.failures.len() as f64);
    // The budget sums: what no layer span covers is the harness's own.
    m.insert("harness.other_s", (sec.wall_s - covered_s).max(0.0));
    m.insert("harness.op_p90_ms", stats::percentile(ops, 90.0));
    if let Some((pct, ms)) = stats::tail(ops) {
        m.insert("harness.op_tail_pct", pct as f64);
        m.insert("harness.op_tail_ms", ms);
    }
    m.insert("trace.spans", sec.tracer.spans().len() as f64);
    // The same reduction the untraced run reports as `wall_s`, so the
    // two compare; the raw section is what the layer times add up to.
    m.insert("trace.wall_s", sec.headline.wall_s);
    m.insert("trace.raw_wall_s", sec.wall_s);
    m.insert("trace.coverage_share", ratio(covered_s, sec.wall_s));
    // What recording cost: the recordings made, at the measured price of
    // one. `summarize` compares traced and untraced wall time directly.
    let ns_per_record = trace::Tracer::calibrate_ns_per_record(100_000);
    m.insert("trace.overhead_share", ratio(sec.tracer.records() as f64 * ns_per_record / 1e9, sec.wall_s));
    m
}

/// Print the header, the metric lines and the result object; write the
/// metric file and the spans when `--out` was given.
fn report(cmd: &RunCommand, sec: &Section, metrics: &BTreeMap<&'static str, f64>) -> Result<bool, String> {
    let table: &[spec::MetricSpec] = if cmd.spec.trace { &PER_LAYER } else { &END_TO_END };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut text = format!(
        "# drbw-benchmark workload={} seed={} seconds={} trace={} smoke={} nproc={nproc} commit={}\n",
        cmd.workload,
        cmd.spec.seed,
        cmd.spec.seconds,
        cmd.spec.trace as u8,
        cmd.smoke as u8,
        git_commit()
    );
    let mut json = String::new();
    for m in table {
        let value = metrics[m.name];
        if !value.is_finite() {
            return Err(format!("{} is {value}", m.name));
        }
        text.push_str(&format!("{}\t{}\t{value}\t{}\n", cmd.workload, m.name, m.unit));
        json.push_str(&format!(
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if json.is_empty() { "" } else { ", " },
            m.name,
            m.unit
        ));
    }
    let (attempted, failed) = (sec.op_ms.len(), sec.failures.len());
    if !cmd.spec.trace {
        // Beside the median, how many ops it is the median of (the traced
        // table has the line already).
        text.push_str(&format!("{}\tharness.ops\t{attempted}\tcount\n", cmd.workload));
    }
    text.push_str(&format!(
        "{}\tharness.failed_ops_share\t{}\tratio\n",
        cmd.workload,
        ratio(failed as f64, attempted as f64)
    ));
    print!("{text}");
    for why in sec.failures.iter().take(10) {
        eprintln!("failed: {why}");
    }
    if failed > 10 {
        eprintln!("failed: ... and {} more", failed - 10);
    }
    if let Some(dir) = &cmd.out {
        write_outputs(dir, cmd, sec, &text).map_err(|e| format!("cannot write to {}: {e}", dir.display()))?;
    }
    let correct = failed == 0;
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}");
    Ok(correct)
}

fn write_outputs(dir: &Path, cmd: &RunCommand, sec: &Section, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}-{}", cmd.workload, cmd.spec.seed);
    std::fs::write(dir.join(format!("{stem}-t{}.tsv", cmd.spec.trace as u8)), text)?;
    if cmd.spec.trace {
        sec.tracer.write_jsonl(&dir.join(format!("spans-{stem}.jsonl")))?;
    }
    Ok(())
}

/// The checked-out commit, read from `.git` without running anything;
/// `unknown` where there is no repository (the driver's checkout).
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?.lines().find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Rewrite every golden file from a full run over every input.
fn bless() -> Result<bool, String> {
    let setup = harness::train();
    batch_cold::bless(&setup)
        .and_then(|()| tenants::bless(&setup))
        .and_then(|()| tune_loop::bless(&setup))
        .and_then(|()| serve::bless(&setup))
        .map_err(|e| format!("cannot write golden files: {e}"))?;
    println!("golden files rewritten under {}/golden; rebuild to compile them in", env!("CARGO_MANIFEST_DIR"));
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_takes_the_drivers_arguments() {
        let cmd =
            parse_run(&args("--workload tenants --seed 7 --seconds 12 --trace 1")).map_err(|e| e.to_string()).unwrap();
        assert_eq!(
            (cmd.workload.as_str(), cmd.spec.seed, cmd.spec.seconds, cmd.spec.trace),
            ("tenants", 7, 12.0, true)
        );
        assert_eq!(
            parse_run(&args("--workload tenants --seed 7")).ok().map(|c| c.spec.seconds),
            Some(RUN_SECONDS as f64)
        );
        for bad in [
            "--seed 7",
            "--workload nope --seed 1",
            "--workload tenants --seed x",
            "--workload tenants --seed 1 --trace 2",
            "--workload tenants --seed 1 --seconds 0",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad}");
        }
    }
}
