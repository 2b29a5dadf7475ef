//! `pw` — the PeerWindow developer tool; see the library docs for the
//! subcommands. Run `pw <subcommand>` without arguments for its usage.

use std::io;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = peerwindow_cli::run(&args, &mut io::stdout().lock(), &mut io::stderr().lock());
    ExitCode::from(code)
}
