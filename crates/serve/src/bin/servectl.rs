//! Command-line client for `graphpim-serve`.
//!
//! ```text
//! servectl [--addr HOST:PORT] <command> [args]
//!
//! commands:
//!   health                         GET /healthz
//!   stats [--watch SECONDS]        GET /stats (once, or polled forever)
//!   metrics [--lint]               GET /metrics (optionally lint the exposition)
//!   figures                        GET /figures
//!   figure <figNN>                 GET /figures/<figNN>
//!   counters <run-key-stem>        GET /counters/<stem>
//!   trace <kernel> [--size S] [--supersteps a..b]
//!   sweep <figNN | stem...> [--follow] [--client ID]
//!   job <id>                       GET /jobs/<id>
//!   shutdown                       POST /shutdown
//! ```
//!
//! Exits 0 iff the server answered 2xx. `sweep --follow` streams the
//! job's NDJSON events to stdout as they arrive.

use graphpim_serve::http::client;

const DEFAULT_ADDR: &str = "127.0.0.1:7480";

fn usage() -> ! {
    eprintln!(
        "usage: servectl [--addr HOST:PORT] <command> [args]\n\
         commands: health | stats [--watch SECONDS] | metrics [--lint] |\n\
         \x20         figures | figure <fig> | counters <stem> |\n\
         \x20         trace <kernel> [--size S] [--supersteps a..b] |\n\
         \x20         sweep <fig|stems...> [--follow] [--client ID] | job <id> | shutdown"
    );
    std::process::exit(2)
}

/// Prints a line to stdout, exiting quietly on a closed pipe (`| head`
/// must not turn into a panic).
fn emit(line: &str) {
    use std::io::Write;
    if writeln!(std::io::stdout(), "{line}").is_err() {
        std::process::exit(0);
    }
}

fn finish(result: std::io::Result<(u16, Vec<u8>)>) -> ! {
    match result {
        Ok((status, body)) => {
            emit(String::from_utf8_lossy(&body).trim_end());
            std::process::exit(if (200..300).contains(&status) { 0 } else { 1 })
        }
        Err(e) => {
            eprintln!("servectl: {e}");
            std::process::exit(1)
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = DEFAULT_ADDR.to_string();
    if let Some(pos) = args.iter().position(|a| a == "--addr") {
        if pos + 1 >= args.len() {
            usage();
        }
        addr = args.remove(pos + 1);
        args.remove(pos);
    }
    let Some(command) = args.first().cloned() else {
        usage()
    };
    let rest = &args[1..];

    match command.as_str() {
        "health" => finish(client::get(&addr, "/healthz")),
        "stats" => stats(&addr, rest),
        "metrics" => metrics(&addr, rest),
        "figures" => finish(client::get(&addr, "/figures")),
        "figure" => {
            let Some(fig) = rest.first() else { usage() };
            finish(client::get(&addr, &format!("/figures/{fig}")))
        }
        "counters" => {
            let Some(stem) = rest.first() else { usage() };
            finish(client::get(&addr, &format!("/counters/{stem}")))
        }
        "trace" => {
            let Some(kernel) = rest.first() else { usage() };
            let mut query = Vec::new();
            let mut it = rest[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--size" => match it.next() {
                        Some(s) => query.push(format!("size={s}")),
                        None => usage(),
                    },
                    "--supersteps" => match it.next() {
                        Some(s) => query.push(format!("supersteps={s}")),
                        None => usage(),
                    },
                    _ => usage(),
                }
            }
            let path = if query.is_empty() {
                format!("/traces/{kernel}")
            } else {
                format!("/traces/{kernel}?{}", query.join("&"))
            };
            finish(client::get(&addr, &path))
        }
        "job" => {
            let Some(id) = rest.first() else { usage() };
            finish(client::get(&addr, &format!("/jobs/{id}")))
        }
        "shutdown" => finish(client::post(&addr, "/shutdown", "{}")),
        "sweep" => sweep(&addr, rest),
        _ => usage(),
    }
}

/// `stats`: one `GET /stats`, or with `--watch N` a poll loop printing
/// each response until interrupted (or stdout closes — `emit` exits
/// quietly on a broken pipe).
fn stats(addr: &str, rest: &[String]) -> ! {
    let mut watch: Option<u64> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--watch" => match it.next().and_then(|s| s.parse().ok()) {
                Some(secs) if secs > 0 => watch = Some(secs),
                _ => usage(),
            },
            _ => usage(),
        }
    }
    let Some(interval) = watch else {
        finish(client::get(addr, "/stats"))
    };
    loop {
        match client::get(addr, "/stats") {
            Ok((status, body)) if (200..300).contains(&status) => {
                emit(String::from_utf8_lossy(&body).trim_end());
            }
            Ok((status, _)) => emit(&format!("servectl: /stats answered {status}")),
            Err(e) => emit(&format!("servectl: {e}")),
        }
        std::thread::sleep(std::time::Duration::from_secs(interval));
    }
}

/// `metrics`: fetches `GET /metrics` and prints the exposition. With
/// `--lint`, additionally runs the strict exposition linter on the live
/// scrape and exits nonzero on any violation.
fn metrics(addr: &str, rest: &[String]) -> ! {
    let lint = match rest {
        [] => false,
        [flag] if flag == "--lint" => true,
        _ => usage(),
    };
    let (status, body) = match client::get(addr, "/metrics") {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("servectl: {e}");
            std::process::exit(1)
        }
    };
    let text = String::from_utf8_lossy(&body);
    emit(text.trim_end());
    if !(200..300).contains(&status) {
        std::process::exit(1);
    }
    if lint {
        if let Err(errors) = graphpim::obs::prom::lint(&text) {
            for (line, message) in &errors {
                eprintln!("servectl: lint: line {line}: {message}");
            }
            std::process::exit(1);
        }
        eprintln!("servectl: lint: ok");
    }
    std::process::exit(0)
}

fn sweep(addr: &str, rest: &[String]) -> ! {
    let mut follow = false;
    let mut client_id: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--follow" => follow = true,
            "--client" => match it.next() {
                Some(id) => client_id = Some(id.clone()),
                None => usage(),
            },
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        usage();
    }
    // One figure id, or a list of run-key stems.
    let body = if targets.len() == 1 && targets[0].starts_with("fig") {
        format!("{{\"fig\": \"{}\"}}", targets[0])
    } else {
        let stems = targets
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ");
        format!("{{\"keys\": [{stems}]}}")
    };
    let mut headers: Vec<(&str, &str)> = Vec::new();
    if let Some(id) = &client_id {
        headers.push(("X-Client-Id", id));
    }
    let submitted = client::request(addr, "POST", "/sweeps", Some(body.as_bytes()), &headers);
    let (status, response) = match submitted {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("servectl: {e}");
            std::process::exit(1)
        }
    };
    let text = String::from_utf8_lossy(&response);
    emit(text.trim_end());
    if !(200..300).contains(&status) {
        std::process::exit(1);
    }
    if !follow {
        std::process::exit(0);
    }
    // Pull the job id out of the acceptance document and stream events.
    let job_id = graphpim::json::parse(&text).and_then(|doc| doc.as_object()?.get("job")?.as_u64());
    let Some(job_id) = job_id else {
        eprintln!("servectl: acceptance document has no job id");
        std::process::exit(1);
    };
    let path = format!("/jobs/{job_id}/events");
    let streamed = client::get_streaming(addr, &path, &[], &mut |line| {
        if !line.is_empty() {
            emit(line);
        }
    });
    match streamed {
        Ok(status) if (200..300).contains(&status) => std::process::exit(0),
        Ok(status) => {
            eprintln!("servectl: event stream answered {status}");
            std::process::exit(1)
        }
        Err(e) => {
            eprintln!("servectl: {e}");
            std::process::exit(1)
        }
    }
}
