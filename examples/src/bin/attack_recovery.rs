//! The paper's flagship scenario: a stored-XSS attack on the wiki, followed
//! by recovery through retroactive patching (paper §1, §7, §8.2), then the
//! reflected-XSS and SQL-injection attacks likewise. Exits 1 unless every
//! attack succeeded before the repair and was gone after it.

use warp_apps::attacks::AttackKind;
use warp_apps::scenario::{run_scenario, ScenarioConfig};

fn main() {
    let users = warp_examples::scale_arg(
        "attack_recovery",
        "Stored-XSS, reflected-XSS and SQL-injection attacks on the wiki, each recovered by \
         retroactive patching; exits 1 unless every attack succeeded and was repaired.",
        "USERS",
        12,
    );
    let mut failed = Vec::new();
    for kind in [
        AttackKind::StoredXss,
        AttackKind::ReflectedXss,
        AttackKind::SqlInjection,
    ] {
        let mut config = ScenarioConfig::small(kind);
        config.users = users;
        let result = run_scenario(&config);
        println!(
            "{:<14}: attack succeeded = {}, repaired = {}, users with conflicts = {}, {}",
            kind.name(),
            result.attack_succeeded,
            result.repaired,
            result.users_with_conflicts,
            result.outcome.stats.summary_counts(),
        );
        if !(result.attack_succeeded && result.repaired) {
            failed.push(kind.name());
        }
    }
    if !failed.is_empty() {
        eprintln!("attack_recovery: FAILED: {}", failed.join(", "));
        std::process::exit(1);
    }
    println!("attack_recovery OK");
}
