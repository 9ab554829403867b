//! `flowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name and unit, then, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero,
//! without that line, on bad arguments or when a forged delegation passes.

use identxx_flowbench::run::{run, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("flowbench: {err}");
            eprintln!("usage: flowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!(
                "# flowbench {} seed {} ({} s, trace {})",
                args.workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            if let Some(note) = &report.note {
                println!("# {note}");
            }
            for m in &report.metrics {
                println!("{:<36} {:>16.3} {}", m.name, m.value, m.unit);
            }
            println!(
                "# attempted {}, failed {}, correct {}",
                report.attempted, report.failed, report.correct
            );
            println!("{}", report.to_json());
        }
        Err(err) => {
            eprintln!("flowbench: {err}");
            std::process::exit(1);
        }
    }
}
