//! CLI for the static SQL analysis: footprint dumps and the lint gate.
//!
//! `warp-analyze --footprints` prints the conservative column footprint of
//! every `db_query(...)` site in the canonical wiki/blog/gallery corpus —
//! the same analysis the repair frontier consumes at runtime.
//!
//! `warp-analyze --lint [--baseline PATH]` prints lint findings
//! (injection-adjacent and precision-defeating query shapes). With a
//! baseline file (one `Finding::baseline_key` per line) it exits 1 only on
//! findings absent from the baseline, so CI can gate on *new* violations
//! while the corpus's intentionally-vulnerable pages stay documented.

use warp_analyze::{corpus, corpus_footprints, corpus_lints, new_findings};

fn usage() {
    println!(
        "usage: warp-analyze (--footprints | --lint [--baseline PATH | --write-baseline PATH])"
    );
    println!();
    println!("Static analysis over the wiki/blog/gallery WASL query corpus.");
    println!("--footprints           print each query's conservative column footprint");
    println!("--lint                 print lint findings (exit 1 if any)");
    println!("--baseline PATH        with --lint: only findings missing from PATH fail");
    println!("--write-baseline PATH  with --lint: write the findings to PATH as the new");
    println!("                       baseline and exit 0");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    match args[0].as_str() {
        "--footprints" => footprints(),
        "--lint" => lint(&args[1..]),
        other => {
            eprintln!("warp-analyze: unknown mode `{other}`");
            usage();
            std::process::exit(2);
        }
    }
}

fn footprints() {
    for config in corpus() {
        println!("== {} ==", config.name);
        for (site, footprint) in corpus_footprints(&config) {
            match footprint {
                Ok(fp) => println!("{}:{}: {fp}", site.file, site.line),
                Err(e) => println!("{}:{}: no statement template: {e}", site.file, site.line),
            }
        }
        println!();
    }
}

fn lint(rest: &[String]) {
    let mut baseline_path: Option<&str> = None;
    let mut write_path: Option<&str> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--baseline" => {
                baseline_path = rest.get(i + 1).map(String::as_str);
                if baseline_path.is_none() {
                    eprintln!("warp-analyze: --baseline requires a path");
                    std::process::exit(2);
                }
                i += 2;
            }
            "--write-baseline" => {
                write_path = rest.get(i + 1).map(String::as_str);
                if write_path.is_none() {
                    eprintln!("warp-analyze: --write-baseline requires a path");
                    std::process::exit(2);
                }
                i += 2;
            }
            other => {
                eprintln!("warp-analyze: unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    let mut findings = Vec::new();
    for config in corpus() {
        findings.extend(corpus_lints(&config));
    }
    findings.sort();
    if let Some(path) = write_path {
        let mut out = String::from(
            "# warp-analyze lint baseline: known findings in the canonical corpus.\n\
             # The wiki ships intentionally vulnerable search/maintenance variants;\n\
             # their findings are expected. Regenerate with:\n\
             #   cargo run -p warp-analyze --bin warp-analyze -- --lint --write-baseline PATH\n",
        );
        for finding in &findings {
            out.push_str(&finding.baseline_key());
            out.push('\n');
        }
        std::fs::write(path, out).unwrap_or_else(|e| {
            eprintln!("warp-analyze: writing {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {} baseline entries to {path}", findings.len());
        return;
    }
    let failing = match baseline_path {
        Some(path) => {
            let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("warp-analyze: reading baseline {path}: {e}");
                std::process::exit(2);
            });
            new_findings(&findings, &baseline)
        }
        None => findings.clone(),
    };
    for finding in &findings {
        let fresh = failing.contains(finding);
        println!(
            "{}{}:{}: [{}] {}",
            if fresh { "NEW " } else { "" },
            finding.file,
            finding.line,
            finding.rule,
            finding.message
        );
    }
    if failing.is_empty() {
        println!(
            "warp-analyze: PASS — {} known finding(s), no new lint violations",
            findings.len()
        );
    } else {
        println!(
            "warp-analyze: FAIL — {} new lint violation(s)",
            failing.len()
        );
        std::process::exit(1);
    }
}
