//! Protocol client for `bhive serve`.
//!
//! `serve_probe --addr unix:/path/to.sock <line>...` connects to a
//! running daemon, roundtrips each argument as one protocol line, and
//! prints each response line to stdout. This is what the tier-1 smoke
//! uses to poke a spawned daemon.

use bhive_serve::{BindAddr, Client};

fn run_client(addr: &str, lines: &[String]) -> Result<(), String> {
    let addr = BindAddr::parse(addr).map_err(|e| format!("--addr: {e}"))?;
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for line in lines {
        let answer = client
            .roundtrip(line)
            .map_err(|e| format!("roundtrip: {e}"))?;
        println!("{answer}");
    }
    Ok(())
}

fn main() -> std::process::ExitCode {
    let mut addr: Option<String> = None;
    let mut lines: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    let result = loop {
        let Some(arg) = it.next() else {
            break match addr {
                Some(addr) => run_client(&addr, &lines),
                None => Err("usage: serve_probe --addr <addr> <line>...".to_string()),
            };
        };
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v),
                None => break Err("--addr needs a value".to_string()),
            },
            _ => lines.push(arg),
        }
    };
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve_probe: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
