//! End-to-end scenario runner: build the wiki, run a workload with an
//! attack, repair, and report the quantities the paper's tables report.

use crate::attacks::{execute_attack, login, AttackKind};
use crate::wiki::{attacker_acl_sql, attacker_seed_sql, wiki_app, wiki_patch};
use crate::workload::{run_background_workload, WorkloadConfig};
use serde::{Deserialize, Serialize};
use warp_browser::Browser;
use warp_core::{RepairOutcome, RepairRequest, RepairStrategy, Warp, WarpHost};
use warp_http::HttpRequest;

/// Configuration of one attack-recovery scenario (Table 3 / 7 / 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Which attack to carry out.
    pub attack: AttackKind,
    /// Total users in the workload (the paper uses 100 and 5,000).
    pub users: usize,
    /// Number of victims subjected to the attack (3 in the paper, 1 for the
    /// ACL-error scenario).
    pub victims: usize,
    /// Page visits per background user.
    pub visits_per_user: usize,
    /// If true, victims act at the start of the workload (the paper's
    /// "victims at start" variant of Table 7); otherwise at the end.
    pub victims_at_start: bool,
    /// Worker threads for the partitioned parallel repair engine; `0` runs
    /// the classic sequential engine.
    pub repair_workers: usize,
}

impl ScenarioConfig {
    /// A small default configuration for the given attack.
    pub fn small(attack: AttackKind) -> Self {
        ScenarioConfig {
            attack,
            users: 10,
            victims: if attack == AttackKind::AclError { 1 } else { 3 },
            visits_per_user: 2,
            victims_at_start: false,
            repair_workers: 0,
        }
    }
}

/// What the scenario produced, before and after repair.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The attack that was run.
    pub attack: AttackKind,
    /// True if the attack visibly corrupted state before repair.
    pub attack_succeeded: bool,
    /// True if, after repair, the attack's effects are gone while the
    /// background users' edits survive.
    pub repaired: bool,
    /// Users with at least one queued conflict after repair (Table 3).
    pub users_with_conflicts: usize,
    /// The repair controller's counters and timing (Tables 7/8).
    pub outcome: RepairOutcome,
    /// Total actions in the history when repair started.
    pub total_actions: usize,
}

/// The wiki application (with attacker seed rows) a scenario installs.
/// Exposed so scenarios can run in persistent mode: open a server over a
/// storage backend with this app and hand it to [`run_scenario_on`].
pub fn scenario_app(config: &ScenarioConfig) -> warp_core::AppConfig {
    let n_users = config.users.max(config.victims + 2);
    let mut app = wiki_app(n_users, n_users);
    app.seed(attacker_seed_sql());
    app.seed(attacker_acl_sql());
    app
}

/// Runs one scenario end to end on a fresh in-memory deployment, driven
/// through the concurrent [`Warp`] façade.
pub fn run_scenario(config: &ScenarioConfig) -> ScenarioResult {
    let mut warp = Warp::builder()
        .app(scenario_app(config))
        .repair_workers(config.repair_workers)
        .start();
    run_scenario_on(config, &mut warp)
}

/// Runs one scenario end to end on a caller-provided host: a [`Warp`]
/// handle built with [`warp_core::Warp::builder`] (typically over a storage
/// backend, so the whole attack-and-recovery run is persisted and
/// restartable) or a bare [`warp_core::WarpServer`] — the deprecated
/// synchronous shim, accepted so the shim-equivalence tests can drive the
/// identical workload through both front ends. The host must have been
/// built from [`scenario_app`] with the same config.
pub fn run_scenario_on<H: WarpHost>(config: &ScenarioConfig, server: &mut H) -> ScenarioResult {
    // Victims log in with extension-enabled browsers.
    let mut victims: Vec<(Browser, String)> = Vec::new();
    for i in 1..=config.victims {
        let mut b = Browser::new(format!("victim{i}"));
        let ok = login(&mut b, server, &format!("user{i}"), &format!("pw{i}"));
        debug_assert!(ok, "victim login must succeed");
        victims.push((b, format!("Page{i}")));
    }
    let mut attacker = Browser::new("attacker-browser");

    let background = WorkloadConfig {
        users: config.users.saturating_sub(config.victims + 1),
        visits_per_user: config.visits_per_user,
        edit_percent: 50,
        with_extension: true,
    };
    let trace;
    if config.victims_at_start {
        trace = execute_attack(config.attack, server, &mut attacker, &mut victims);
        run_background_workload(server, &background, config.victims + 1);
    } else {
        run_background_workload(server, &background, config.victims + 1);
        trace = execute_attack(config.attack, server, &mut attacker, &mut victims);
    }
    // Victims keep using the wiki after the attack.
    for (i, (victim, page)) in victims.iter_mut().enumerate() {
        let mut visit = victim.visit(&format!("/view.wasl?title={page}"), server);
        if visit.response.body.contains("<form") {
            // The victim edits on top of whatever the page currently shows
            // (which may include attacker-injected content), as in the
            // paper's worst-case scenario.
            let existing = visit.document.field_value("body").unwrap_or_default();
            victim.fill(
                &mut visit,
                "body",
                &format!("{existing}\nvictim {} post-attack note", i + 1),
            );
            let _ = victim.submit_form(&mut visit, "/edit.wasl", server);
        }
        server.upload_logs(victim.take_logs());
    }

    let attack_succeeded = attack_visible(server, config.attack);
    let total_actions = server.with_host(|s| s.history.len());

    // Initiate repair: retroactive patch, or admin-initiated undo. Through
    // a `Warp` host this goes over the first-class repair-handle path.
    let strategy = RepairStrategy::with_workers(config.repair_workers);
    let outcome = match wiki_patch(config.attack) {
        Some(patch) => server.host_repair(
            RepairRequest::RetroactivePatch {
                patch,
                from_time: 0,
            },
            strategy,
        ),
        None => server.host_repair(
            RepairRequest::UndoVisit {
                client_id: trace
                    .admin_client
                    .clone()
                    .unwrap_or_else(|| "admin-browser".into()),
                visit_id: trace.admin_visit.unwrap_or(1),
                initiated_by_admin: true,
            },
            strategy,
        ),
    };

    // Conflict resolution (paper §5.4): users whose page visits could not be
    // replayed resolve the conflict by cancelling that page visit, which is
    // the resolution the paper's prototype supports and the one its
    // clickjacking discussion expects users to choose.
    let (users_with_conflicts, pending) = server.with_host(|s| {
        let pending: Vec<(String, u64)> = s
            .conflicts
            .all()
            .iter()
            .filter(|c| !c.resolved)
            .map(|c| (c.client_id.clone(), c.visit_id))
            .collect();
        (s.conflicts.clients_with_conflicts(), pending)
    });
    for (client, visit) in pending {
        let _ = server.host_repair(
            RepairRequest::UndoVisit {
                client_id: client.clone(),
                visit_id: visit,
                initiated_by_admin: true,
            },
            strategy,
        );
        server.with_host(move |s| s.conflicts.resolve(&client, visit));
    }

    let still_visible = attack_visible(server, config.attack);
    let legit_preserved = legitimate_edits_preserved(server, &background, config.victims + 1);
    ScenarioResult {
        attack: config.attack,
        attack_succeeded,
        repaired: !still_visible && legit_preserved,
        users_with_conflicts,
        outcome,
        total_actions,
    }
}

/// Checks whether the attack's visible damage is present in the current
/// state of the wiki.
fn attack_visible<H: WarpHost>(server: &mut H, attack: AttackKind) -> bool {
    match attack {
        AttackKind::ReflectedXss | AttackKind::StoredXss | AttackKind::SqlInjection => {
            let r = server.send(HttpRequest::get("/view.wasl?title=Page1"));
            r.body.contains("INFECTED BY XSS")
        }
        AttackKind::Csrf => server.with_host(|s| {
            let out =
                s.db.execute_logged(
                    "SELECT last_editor FROM page WHERE title = 'Public'",
                    s.clock.now() + 1,
                )
                .expect("query last editor");
            out.result
                .rows
                .first()
                .map(|r| r[0].as_display_string() == "attacker")
                .unwrap_or(false)
        }),
        AttackKind::Clickjacking => {
            let r = server.send(HttpRequest::get("/view.wasl?title=Public"));
            r.body.contains("tricked into clicking")
        }
        AttackKind::AclError => {
            let r = server.send(HttpRequest::get("/view.wasl?title=Page2"));
            r.body.contains("mistakenly granted rights")
        }
    }
}

/// Checks that the background users' legitimate edits survived repair.
fn legitimate_edits_preserved<H: WarpHost>(
    server: &mut H,
    background: &WorkloadConfig,
    start_index: usize,
) -> bool {
    if background.users == 0 || background.visits_per_user == 0 || background.edit_percent == 0 {
        return true;
    }
    // The first background user's first edit writes "revision 0" to its page.
    let title = format!("Page{start_index}");
    let r = server.send(HttpRequest::get(&format!("/view.wasl?title={title}")));
    r.body.contains("revision")
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_core::WarpServer;
    use warp_http::Transport;

    #[test]
    fn stored_xss_scenario_recovers_with_retroactive_patching() {
        let result = run_scenario(&ScenarioConfig::small(AttackKind::StoredXss));
        assert!(
            result.attack_succeeded,
            "the attack must succeed before repair"
        );
        assert!(
            result.repaired,
            "repair must remove the attack and keep legitimate edits"
        );
        assert!(!result.outcome.aborted);
        assert!(result.outcome.stats.app_runs_reexecuted < result.total_actions);
    }

    #[test]
    fn acl_error_scenario_recovers_with_admin_undo() {
        let result = run_scenario(&ScenarioConfig::small(AttackKind::AclError));
        assert!(result.attack_succeeded);
        assert!(
            result.repaired,
            "the mistaken grant's effects must be reverted"
        );
    }

    #[test]
    fn reflected_xss_scenario_recovers() {
        let result = run_scenario(&ScenarioConfig::small(AttackKind::ReflectedXss));
        assert!(result.attack_succeeded);
        assert!(result.repaired);
    }

    #[test]
    fn persistent_scenario_survives_restart() {
        use warp_core::MemoryBackend;
        let config = ScenarioConfig::small(AttackKind::StoredXss);
        let backend = MemoryBackend::new();
        let (mut warp, report) = Warp::builder()
            .app(scenario_app(&config))
            .backend(Box::new(backend.clone()))
            .build()
            .expect("open persistent scenario deployment");
        assert!(!report.recovered, "first open must start fresh");
        let result = run_scenario_on(&config, &mut warp);
        assert!(result.attack_succeeded && result.repaired);
        drop(warp); // crash

        // Recover: the post-repair state must be exactly what persisted.
        let (mut recovered, report) = Warp::builder()
            .app(scenario_app(&config))
            .backend(Box::new(backend))
            .build()
            .expect("recover scenario deployment");
        assert!(report.recovered);
        assert!(recovered.pending_repair().is_none());
        // The attack stays repaired on the recovered deployment.
        let r = recovered.send(HttpRequest::get("/view.wasl?title=Page1"));
        assert!(!r.body.contains("INFECTED BY XSS"));
        assert!(recovered.with_host(|s| s.history.len()) >= result.total_actions);
    }

    /// The satellite contract for the deprecated shim: driving the identical
    /// scenario workload through a bare `WarpServer` and through the
    /// concurrent `Warp` façade must produce byte-identical application
    /// state and the same repair outcome.
    #[test]
    fn shim_and_facade_front_ends_are_equivalent() {
        let config = ScenarioConfig::small(AttackKind::StoredXss);

        let mut shim = WarpServer::new(scenario_app(&config));
        let shim_result = run_scenario_on(&config, &mut shim);

        let mut warp = Warp::builder().app(scenario_app(&config)).start();
        let facade_result = run_scenario_on(&config, &mut warp);
        let mut facade_server = warp.close();

        assert_eq!(shim_result.attack_succeeded, facade_result.attack_succeeded);
        assert_eq!(shim_result.repaired, facade_result.repaired);
        assert_eq!(
            shim_result.users_with_conflicts,
            facade_result.users_with_conflicts
        );
        assert_eq!(shim_result.total_actions, facade_result.total_actions);
        assert_eq!(
            shim_result.outcome.reexecuted_actions,
            facade_result.outcome.reexecuted_actions
        );
        assert_eq!(
            shim_result.outcome.cancelled_actions,
            facade_result.outcome.cancelled_actions
        );
        assert_eq!(
            shim.db.canonical_dump(),
            facade_server.db.canonical_dump(),
            "shim and façade must end in byte-identical application state"
        );
        assert_eq!(shim.history.len(), facade_server.history.len());
    }

    /// The injected write rolled back every page; the victims' later views
    /// read pages it rolled back, so the repair re-executes each of them
    /// and replays the visits, under either engine.
    #[test]
    fn sql_injection_repair_reexecutes_every_victim_view() {
        let repair = |workers: usize| {
            let mut config = ScenarioConfig::small(AttackKind::SqlInjection);
            config.repair_workers = workers;
            let mut warp = Warp::builder()
                .app(scenario_app(&config))
                .repair_workers(workers)
                .start();
            let result = run_scenario_on(&config, &mut warp);
            let views: Vec<_> = warp.with_host(|s| {
                let by_victim = |a: &&warp_core::ActionRecord| {
                    a.client
                        .as_ref()
                        .is_some_and(|c| c.client_id.starts_with("victim"))
                };
                s.history
                    .actions()
                    .iter()
                    .filter(|a| a.request.path == "/view.wasl")
                    .filter(by_victim)
                    .map(|a| a.id)
                    .collect()
            });
            (result, views)
        };
        let (seq, views) = repair(0);
        assert!(seq.attack_succeeded && seq.repaired);
        assert!(!views.is_empty());
        for id in &views {
            assert!(
                seq.outcome.reexecuted_actions.contains(id),
                "victim view {id} not re-executed: {:?}",
                seq.outcome.reexecuted_actions
            );
        }
        assert!(seq.outcome.stats.page_visits_reexecuted > 0);
        let (par, _) = repair(2);
        assert!(par.repaired);
        assert_eq!(
            seq.outcome.reexecuted_actions,
            par.outcome.reexecuted_actions
        );
        assert_eq!(seq.outcome.cancelled_actions, par.outcome.cancelled_actions);
    }

    #[test]
    fn parallel_repair_scenario_matches_sequential() {
        let seq_cfg = ScenarioConfig::small(AttackKind::StoredXss);
        let mut par_cfg = seq_cfg;
        par_cfg.repair_workers = 2;
        let seq = run_scenario(&seq_cfg);
        let par = run_scenario(&par_cfg);
        assert!(
            par.repaired,
            "partitioned repair must recover the attack too"
        );
        assert_eq!(seq.repaired, par.repaired);
        assert_eq!(seq.users_with_conflicts, par.users_with_conflicts);
        assert_eq!(
            seq.outcome.stats.app_runs_reexecuted, par.outcome.stats.app_runs_reexecuted,
            "both engines must re-execute the same number of application runs"
        );
        assert_eq!(
            seq.outcome.stats.actions_cancelled,
            par.outcome.stats.actions_cancelled
        );
        // Repair workers select the frontier walk: it plans no partitions
        // and clones nothing, so nothing escalates or falls back.
        let stats = &par.outcome.stats;
        assert_eq!(stats.workers, 1);
        assert_eq!(
            (
                stats.partitions_total,
                stats.escalations,
                stats.bounded_clone_fallbacks
            ),
            (0, 0, 0)
        );
    }
}
