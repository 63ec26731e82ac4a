//! The benchmark CLI — the only entry point to the evaluation scenarios,
//! dispatched by name.
//!
//! ```text
//! totoro-bench --list
//! totoro-bench fig7 --nodes 300 --jobs 8
//! totoro-bench table3 --json
//! ```

use totoro_bench::scenario::run_scenario;
use totoro_bench::{logging, report, scenarios};

fn print_list() {
    report::emitln("available scenarios:");
    for s in scenarios::all() {
        report::emitln(format_args!("  {:<10} {}", s.name(), s.description()));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--list") | Some("--help") | Some("-h") => {
            report::emitln(
                "usage: totoro-bench <scenario> [--nodes N] [--seed S] [--jobs J] [--json] [--<key> <value>]",
            );
            print_list();
            if args.is_empty() {
                std::process::exit(2);
            }
        }
        Some(name) => match scenarios::find(name) {
            Some(s) => run_scenario(s.as_ref(), &args[1..]),
            None => {
                logging::error(format_args!("unknown scenario {name:?}"));
                print_list();
                std::process::exit(2);
            }
        },
    }
}
