//! The benchmark CLI — the one entry point to the evaluation scenarios,
//! the chaos sweep, deployments, the model checker and the trace analytics:
//!
//! ```text
//! totoro-bench --list
//! totoro-bench fig7 --nodes 300 --jobs 8
//! totoro-bench chaos --replay churn+stragglers:49 --inject-bug drop-repair-join
//! totoro-bench mc --scenario forest-repair-4 --out ce.txt
//! totoro-bench trace summary TRACE.jsonl
//! ```
//!
//! Every command parses through one grammar (`scenario::parse_params`): a
//! malformed command line prints the command's usage line on stderr and
//! exits 2 before anything runs. A run that finds a violation (chaos, mc)
//! or cannot read its input exits 1.

use std::process::ExitCode;

use totoro_bench::scenario::{grammar, run_command, run_scenario, Params};
use totoro_bench::{deploy, logging, mc, report, scenarios, traceview};

/// The usage line and every command, one per line.
fn listing() -> String {
    let mut out = String::from(
        "usage: totoro-bench <command> [--nodes N] [--seed S] [--jobs J] [--json] [--<key> <value>]\n\
         available commands:\n",
    );
    let tools = [
        ("deploy", "one Totoro deployment with chosen FL policies"),
        (
            "mc",
            "bounded model checker over small overlay configurations",
        ),
        ("trace", "offline analytics over --trace PATH.jsonl traces"),
    ];
    let all = scenarios::all();
    for (name, about) in all.iter().map(|s| (s.name(), s.description())).chain(tools) {
        out.push_str(&format!("  {name:<10} {about}\n"));
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first().map(String::as_str) else {
        logging::info(listing().trim_end());
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    match name {
        "--list" | "--help" | "-h" => {
            report::emit(listing());
            ExitCode::SUCCESS
        }
        "deploy" => run_command(&deploy::GRAMMAR, deploy::defaults(), rest, deploy::run),
        "mc" => run_command(&mc::GRAMMAR, Params::default(), rest, mc::run),
        "trace" => run_command(&traceview::GRAMMAR, Params::default(), rest, traceview::run),
        _ => match scenarios::find(name) {
            Some(s) => run_command(&grammar(s.as_ref()), s.default_params(), rest, |p| {
                run_scenario(s.as_ref(), p)
            }),
            None => {
                logging::error(format_args!("unknown command {name:?}"));
                logging::info(listing().trim_end());
                ExitCode::from(2)
            }
        },
    }
}
