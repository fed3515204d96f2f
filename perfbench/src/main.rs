//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <mixed|sssp|handoff|sharded> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|tiny] [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
//! every correctness check passed, 1 when one failed, and 2 on bad
//! arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{alloc::Counting, Opts, Size, Workload};

#[global_allocator]
static ALLOC: Counting = Counting;

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::Mixed,
        seed: 0,
        seconds: 0.0,
        trace: false,
        size: Size::full(),
        out_dir: PathBuf::from(".bench_out"),
    };
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--size" => {
                opts.size = match value {
                    "full" => Size::full(),
                    "tiny" => Size::tiny(),
                    _ => return Err(format!("--size must be full or tiny, got {value:?}")),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    opts.seed = seed.ok_or("--seed is required")?;
    opts.seconds = seconds.ok_or("--seconds is required")?;
    opts.trace = trace.ok_or("--trace is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} threads available={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let report = perfbench::run(&opts);
    for m in &report.metrics {
        eprintln!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for e in &report.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
