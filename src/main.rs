//! `geoproof` — command-line interface to the GeoProof toolkit.
//!
//! This file holds only the dispatch and the usage text; every command
//! lives in the private [`cli`] module.

mod cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            1
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "usage:
  geoproof encode  <input-file> <store-dir> --fid <id> --master <secret>
                   [--threads N]  (default: all cores; output is identical
                   at any thread count)
  geoproof extract <store-dir> <output-file> --master <secret>
  geoproof encode-dynamic <input-file> <store-dir> --fid <id> --master <secret>
                   [--segment-bytes N] [--ledger <path>]
  geoproof update  <host:port> <store-dir> --index N --data <file> --master <secret>
                   [--ledger <path>]
  geoproof append  <host:port> <store-dir> --data <file> --master <secret>
                   [--ledger <path>]
  geoproof serve   <store-dir> [--delay-ms N] [--metrics-addr <ip:port>]
  geoproof audit   <host:port> <store-dir> --master <secret> [--dynamic] [--k N]
                   [--budget-ms N] [--ledger <path>] [--prover <id>]
                   [--transcript <path>] [--metrics-addr <ip:port>]
                   [--vantages N [--vantage-ring-km R] [--byzantine-vantage I]
                    [--position-tolerance-km T] [--residual-budget-km B]]
  geoproof stats   <ip:port> [--watch] [--raw] [--interval-ms N]
  geoproof info    <store-dir>
  geoproof ledger  verify  <path> [--tpa-pub <hex32>] [--master <secret>]
  geoproof ledger  inspect <path>
  geoproof ledger  rotate  <path> --master <secret>
  geoproof ledger  compact <path>
  geoproof ledger  prove   <path> --round <n> [--out <file>]

Flags may appear anywhere; unknown, repeated or valueless flags are
errors. audit --k must be in 1..=segments of the store.";

fn run(args: &[String]) -> cli::CliResult {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "encode" => cli::owner::encode(rest),
        "extract" => cli::owner::extract(rest),
        "encode-dynamic" => cli::owner::encode_dynamic(rest),
        "update" => cli::owner::update_or_append(rest, true),
        "append" => cli::owner::update_or_append(rest, false),
        "serve" => cli::serve::serve(rest),
        "audit" => cli::audit::run(rest),
        "stats" => cli::serve::stats(rest),
        "info" => cli::owner::info(rest),
        "ledger" => cli::ledger::run(rest),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}
