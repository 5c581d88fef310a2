//! `asf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

use asf_perfbench::{run, trace};

const USAGE: &str =
    "usage: asf-perfbench --workload <paper-grid|huge-shard|serve-zipf> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("bad --seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok((
        workload.ok_or("missing --workload")?,
        seed.ok_or("missing --seed")?,
        seconds.ok_or("missing --seconds")?,
        trace.ok_or("missing --trace")?,
    ))
}

fn main() {
    let (workload, seed, seconds, traced) = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&workload, seed, seconds, traced) {
        Ok(report) => {
            if traced {
                match trace::write(&report.spans, &workload) {
                    Ok(path) => eprintln!("{workload}: trace written to {}", path.display()),
                    Err(e) => eprintln!("{workload}: could not write the trace: {e}"),
                }
            }
            println!("{}", report.scaling_json());
            println!("{}", report.to_json(traced));
        }
        Err(e) => {
            eprintln!("asf-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
