//! Runnable examples for the Warp reproduction; see `src/bin/*`.
//!
//! * `quickstart` — install a tiny app, serve requests, retroactively patch it.
//! * `attack_recovery` — the full stored-XSS attack and recovery walkthrough.
//! * `admin_undo` — undoing an administrator's mistaken permission grant.
//! * `concurrent_repair` — a partitioned parallel repair through the façade; the site keeps serving while it runs.

/// Handles `--help`/`-h` for the example binaries (exercised by
/// `tests/bin_smoke.rs` so the examples can't silently rot).
pub fn handle_help(bin: &str, about: &str, scale_arg: Option<&str>) {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        match scale_arg {
            Some(name) => println!("usage: {bin} [{name}]"),
            None => println!("usage: {bin}"),
        }
        println!("\n{about}");
        std::process::exit(0);
    }
}

/// Handles `--help`/`-h` and parses the optional scale argument, so the
/// help text and the parsing can't drift apart.
pub fn scale_arg<T: std::str::FromStr>(bin: &str, about: &str, arg_name: &str, default: T) -> T {
    handle_help(bin, about, Some(arg_name));
    std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(default)
}
