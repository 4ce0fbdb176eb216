//! `ocelot-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--out DIR]`
//!
//! Prints the environment fingerprint, then — as the last line — one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. A full record of
//! the run is written to `DIR` (default `.perfbench`).

use std::path::PathBuf;
use std::process::ExitCode;

use ocelot_perfbench::report::result_line;
use ocelot_perfbench::workloads::Size;
use ocelot_perfbench::{run, Options};

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        out_dir: PathBuf::from(".perfbench"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ocelot-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ocelot-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for p in &outcome.checks.problems {
        eprintln!("ocelot-perfbench: check failed: {p}");
    }
    let file = opts.out_dir.join(format!(
        "{}-{}-seed{}-trace{}.json",
        opts.workload,
        opts.size.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir).and_then(|()| std::fs::write(&file, &outcome.record)) {
        eprintln!("ocelot-perfbench: cannot write {}: {e}", file.display());
    }
    println!("{{\"fingerprint\": {}}}", outcome.fingerprint.to_json());
    println!("{}", result_line(&outcome.checks, &outcome.metrics));
    ExitCode::SUCCESS
}
