//! `dcfb` — command-line driver for the DCFB reproduction.
//!
//! ```text
//! dcfb list
//! dcfb run      --workload "OLTP (DB A)" --method SN4L+Dis+BTB [options]
//! dcfb compare  --workload "Web (Apache)" [--methods a,b,c] [options]
//! dcfb analyze  --workload "Media Streaming" [options]
//! dcfb profile  --workload "OLTP (DB A)" --method Shotgun --out prof [options]
//! dcfb sweep-btb --workload "OLTP (DB A)" [options]
//! dcfb record   --workload "Web (Zeus)" --out trace.dcfbt [options]
//! dcfb import   --trace champsim.bin --out trace.dcfbt [--lenient]
//! dcfb replay   --trace trace.dcfbt --method Shotgun [--lenient] [options]
//! dcfb conformance [--seed N] [--ops N]
//! dcfb fuzz     [--seed N] [--ops N] [--jobs N] [--quick]
//!               [--state camp.json] [--corpus-out corpus.txt]
//! dcfb chaos    [--seed N] [--quick]
//! ```
//!
//! Common options: `--warmup N`, `--measure N`, `--seed N`,
//! `--isa fixed|variable`, `--json` (machine-readable output for `run`).
//!
//! Every failure prints a one-line `error:` diagnostic — never a
//! backtrace — and exits with a code describing what went wrong:
//! 2 usage, 3 bad input (corrupt trace, unknown workload/method, bad
//! config), 4 run failure, 5 host I/O. Codes 6, 7 and 8 are retired.

mod args;
mod commands;
mod json;

use args::Cli;
use dcfb_errors::{DcfbError, EXIT_USAGE};

fn main() {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            std::process::exit(EXIT_USAGE);
        }
    };
    let result: Result<(), DcfbError> = match cli.command.as_str() {
        "list" => {
            commands::list();
            Ok(())
        }
        "run" => commands::run(&cli),
        "compare" => commands::compare(&cli),
        "analyze" => commands::analyze(&cli),
        "profile" => commands::profile(&cli),
        "sweep-btb" => commands::sweep_btb(&cli),
        "record" => commands::record(&cli),
        "import" => commands::import(&cli),
        "replay" => commands::replay(&cli),
        "conformance" => commands::conformance(&cli),
        "fuzz" => commands::fuzz(&cli),
        "chaos" => commands::chaos(&cli),
        "help" | "--help" | "-h" => {
            println!("{}", args::USAGE);
            Ok(())
        }
        other => {
            eprintln!("error: unknown command {other:?}\n");
            eprintln!("{}", args::USAGE);
            std::process::exit(EXIT_USAGE);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}
