//! The four fixed workloads: what each installs, the traffic it sends and
//! what a correct server must answer. Everything here is a pure function of
//! `--seed`; the program under test only ever sees the generated requests.
//!
//! Sizes are frozen here (and restated in README.md). Request *counts* are
//! fixed rather than durations because per-request cost grows with history
//! length: a timed window would measure a different history on every run.

use warp_apps::attacks::{execute_attack, login};
use warp_apps::scenario::{scenario_app, ScenarioConfig};
use warp_apps::workload::{run_background_workload, WorkloadConfig};
use warp_apps::{wiki_app, wiki_patch, AttackKind};
use warp_browser::{Browser, PageVisitRecord};
use warp_core::{AppConfig, RepairRequest, StoreOptions, Warp, WarpHost, WarpServer};
use warp_http::{HttpRequest, HttpResponse, Transport};

/// Closed loop, two client threads — `nproc` of the reference host, never
/// more: a third runnable client would only measure the scheduler.
pub const CLIENTS: usize = 2;

/// Victims of the attack scenarios (the paper's Table 7 uses three).
const VICTIMS: usize = 3;

/// What each background user of a scenario does after logging in through
/// a browser with the extension: view, edit, view (logs uploaded).
const BACKGROUND_USER: WorkloadConfig = WorkloadConfig {
    users: 1,
    visits_per_user: 2,
    edit_percent: 50,
    with_extension: true,
};

/// Roughly how many views of the undo target page follow the mistaken
/// edit, so the undo has dependants to re-execute.
const MISTAKE_VIEWS: usize = 16;
const MISTAKE_BODY: &str = "MISTAKEN EDIT the administrator will undo";
pub const MISTAKE_CLIENT: &str = "bench-mistaken-admin";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Raw-HTTP wiki traffic from [`CLIENTS`] threads; repaired by undoing
    /// one mistaken edit in the middle of the history.
    Serve {
        edit_percent: usize,
        /// Pages each client draws from (`None`: all of its own).
        hot_pages: Option<usize>,
        checkpoints: bool,
    },
    /// A `warp-apps` attack scenario driven through simulated browsers
    /// from one thread; repaired by the attack's retroactive patch.
    Scenario(AttackKind),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Wiki users (each owns one page).
    pub users: usize,
    /// Serve-phase requests (serve workloads; scenarios derive theirs
    /// from `users`).
    pub requests: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "browse",
        kind: Kind::Serve {
            edit_percent: 5,
            hot_pages: None,
            checkpoints: false,
        },
        users: 200,
        requests: 3_000,
    },
    Workload {
        name: "edit",
        kind: Kind::Serve {
            edit_percent: 90,
            hot_pages: Some(8),
            checkpoints: true,
        },
        users: 200,
        requests: 1_000,
    },
    Workload {
        name: "repair-wide",
        kind: Kind::Scenario(AttackKind::StoredXss),
        users: 250,
        requests: 0,
    },
    Workload {
        name: "repair-rollback",
        kind: Kind::Scenario(AttackKind::SqlInjection),
        users: 250,
        requests: 0,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: small, seedable, and good enough to shuffle a request mix.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One generated request and the text a correct response must contain.
pub struct Planned {
    pub request: HttpRequest,
    pub expect: String,
}

/// Counts checked operations and remembers the first few failures.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checker {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    fn response(&mut self, response: &HttpResponse, expect: &str, what: &str) {
        self.check(
            response.status == 200 && response.body.contains(expect),
            || {
                format!(
                    "{what}: status {} and no `{expect}` in the body",
                    response.status
                )
            },
        );
    }

    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
    }
}

/// A [`WarpHost`] that times every request the scenario drivers send, so
/// browser-driven traffic yields the same client-observed latencies the
/// raw-HTTP clients record.
struct TimedHost<'a> {
    warp: Warp,
    latencies_ns: &'a mut Vec<u64>,
    check: &'a mut Checker,
}

impl Transport for TimedHost<'_> {
    fn send(&mut self, request: HttpRequest) -> HttpResponse {
        let t = std::time::Instant::now();
        let response = self.warp.serve(request);
        self.latencies_ns.push(t.elapsed().as_nanos() as u64);
        // The attack's own requests are rightly refused (403) when the
        // payload runs in a browser whose user lacks the rights.
        self.check.check(response.status < 500, || {
            format!("scenario request answered {}", response.status)
        });
        response
    }
}

impl WarpHost for TimedHost<'_> {
    fn with_host<R, F>(&mut self, f: F) -> R
    where
        F: FnOnce(&mut WarpServer) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.warp.with_server(f)
    }

    fn upload_logs(&mut self, logs: Vec<PageVisitRecord>) {
        self.warp.upload_client_logs(logs);
    }
}

/// State carried from set-up into the serve phase.
pub enum Plan {
    Serve(Vec<Vec<Planned>>),
    Scenario {
        victims: Vec<(Browser, String)>,
        /// Background users in the order they will act.
        order: Vec<usize>,
    },
}

fn page_body(seed_word: u64, page: usize, revision: usize) -> String {
    // Fixed width, so log bytes per request do not depend on the seed.
    format!("revision {revision:06} of page {page:04} tag {seed_word:016x}")
}

fn view_request(page: usize, sid: &str) -> HttpRequest {
    let mut request = HttpRequest::get(&format!("/view.wasl?title=Page{page}"));
    request.cookies.set("sid", sid);
    request
}

fn edit_request(page: usize, body: &str, sid: &str) -> HttpRequest {
    let title = format!("Page{page}");
    let mut request = HttpRequest::post("/edit.wasl", [("title", title.as_str()), ("body", body)]);
    request.cookies.set("sid", sid);
    request
}

impl Workload {
    /// `--smoke` divides users and requests by 20.
    pub fn scaled(mut self, smoke: bool) -> Workload {
        if smoke {
            self.users = (self.users / 20).max(2 * CLIENTS.max(VICTIMS));
            self.requests /= 20;
        }
        self
    }

    fn scenario_config(&self, attack: AttackKind) -> ScenarioConfig {
        ScenarioConfig {
            attack,
            users: self.users,
            victims: VICTIMS,
            visits_per_user: 2,
            victims_at_start: false,
            repair_workers: 2,
        }
    }

    pub fn app(&self) -> AppConfig {
        match self.kind {
            Kind::Serve { .. } => wiki_app(self.users, self.users),
            Kind::Scenario(attack) => scenario_app(&self.scenario_config(attack)),
        }
    }

    pub fn store_options(&self) -> StoreOptions {
        let checkpoints = matches!(
            self.kind,
            Kind::Serve {
                checkpoints: true,
                ..
            }
        );
        StoreOptions {
            segment_bytes: 1024 * 1024,
            checkpoint_interval: if checkpoints { 400 } else { 0 },
            fold_after_deltas: 2,
            ..StoreOptions::default()
        }
    }

    pub fn background_maintenance(&self) -> bool {
        self.store_options().checkpoint_interval > 0
    }

    /// The page whose mistaken edit the serve workloads undo: the last of
    /// client 0's pages, which the generated traffic otherwise only reads.
    fn undo_page(&self) -> usize {
        self.users / CLIENTS
    }

    /// Logs users in and generates the serve-phase traffic from `seed`.
    pub fn set_up(&self, warp: &mut Warp, seed: u64, check: &mut Checker) -> Plan {
        let mut rng = Rng::new(seed);
        let mut log_in = |warp: &mut Warp, client: String, user: usize| {
            let mut browser = Browser::new(client);
            let ok = login(
                &mut browser,
                warp,
                &format!("user{user}"),
                &format!("pw{user}"),
            );
            check.check(ok, || format!("login of user{user} failed"));
            browser
        };
        match self.kind {
            Kind::Scenario(_) => {
                let victims = (1..=VICTIMS)
                    .map(|i| (log_in(warp, format!("victim{i}"), i), format!("Page{i}")))
                    .collect();
                let mut order: Vec<usize> = (VICTIMS + 1..self.users).collect();
                rng.shuffle(&mut order);
                Plan::Scenario { victims, order }
            }
            Kind::Serve {
                edit_percent,
                hot_pages,
                ..
            } => {
                let sids: Vec<String> = (1..=self.users)
                    .map(|user| {
                        let browser = log_in(warp, format!("setup-browser{user}"), user);
                        browser.cookies.get("sid").unwrap_or_default().to_string()
                    })
                    .collect();
                Plan::Serve(self.generate(&mut rng, edit_percent, hot_pages, &sids))
            }
        }
    }

    /// Each client owns a disjoint user/page range and reads back only its
    /// own edits, so expectations hold under any interleaving.
    fn generate(
        &self,
        rng: &mut Rng,
        edit_percent: usize,
        hot_pages: Option<usize>,
        sids: &[String],
    ) -> Vec<Vec<Planned>> {
        let per_client_pages = self.users / CLIENTS;
        let per_client_requests = self.requests / CLIENTS;
        let undo_page = self.undo_page();
        (0..CLIENTS)
            .map(|client| {
                let first_page = client * per_client_pages + 1;
                // Client 0's last page is the undo target; keep it out of
                // the drawn set.
                let drawn = hot_pages
                    .unwrap_or(per_client_pages)
                    .min(per_client_pages - 1);
                let mut is_edit = vec![false; per_client_requests];
                let edits = per_client_requests * edit_percent / 100;
                is_edit[..edits].fill(true);
                rng.shuffle(&mut is_edit);
                let mut current: Vec<String> = (0..drawn)
                    .map(|i| format!("original content of page {}", first_page + i))
                    .collect();
                // Client 0 also makes the mistaken edit the repair phase
                // undoes, halfway through, and then keeps reading the page.
                let half = per_client_requests / 2;
                let stride = ((per_client_requests - half - 1) / MISTAKE_VIEWS).max(1);
                let undo_sid = &sids[undo_page - 1];
                let stream: Vec<Planned> = is_edit
                    .iter()
                    .enumerate()
                    .map(|(i, &edit)| {
                        if client == 0 && i == half {
                            let mut request = edit_request(undo_page, MISTAKE_BODY, undo_sid);
                            request.warp.client_id = Some(MISTAKE_CLIENT.to_string());
                            request.warp.visit_id = Some(1);
                            request.warp.request_id = Some(0);
                            return Planned {
                                request,
                                expect: format!("Saved Page{undo_page}."),
                            };
                        }
                        if client == 0 && i > half && (i - half).is_multiple_of(stride) {
                            return Planned {
                                request: view_request(undo_page, undo_sid),
                                expect: MISTAKE_BODY.to_string(),
                            };
                        }
                        let slot = rng.below(drawn);
                        let page = first_page + slot;
                        let sid = &sids[page - 1];
                        if edit {
                            current[slot] = page_body(rng.next(), page, i);
                            Planned {
                                request: edit_request(page, &current[slot], sid),
                                expect: format!("Saved Page{page}."),
                            }
                        } else {
                            Planned {
                                request: view_request(page, sid),
                                expect: current[slot].clone(),
                            }
                        }
                    })
                    .collect();
                stream
            })
            .collect()
    }

    /// The timed serve phase: appends the client-observed `Warp::serve`
    /// latency of every request, in ns.
    pub fn serve(&self, warp: &Warp, plan: Plan, latencies_ns: &mut Vec<u64>, check: &mut Checker) {
        match (self.kind, plan) {
            (Kind::Serve { .. }, Plan::Serve(streams)) => {
                let results: Vec<(Vec<u64>, Checker)> = std::thread::scope(|scope| {
                    let clients: Vec<_> = streams
                        .into_iter()
                        .map(|stream| {
                            scope.spawn(move || {
                                let mut latencies = Vec::with_capacity(stream.len());
                                let mut check = Checker::default();
                                for planned in stream {
                                    let t = std::time::Instant::now();
                                    let response = warp.serve(planned.request);
                                    latencies.push(t.elapsed().as_nanos() as u64);
                                    check.response(&response, &planned.expect, "serve");
                                }
                                (latencies, check)
                            })
                        })
                        .collect();
                    clients
                        .into_iter()
                        .map(|c| c.join().expect("client thread panicked"))
                        .collect()
                });
                for (latencies, client_check) in results {
                    latencies_ns.extend(latencies);
                    check.merge(client_check);
                }
            }
            (Kind::Scenario(attack), Plan::Scenario { mut victims, order }) => {
                let mut host = TimedHost {
                    warp: warp.clone(),
                    latencies_ns,
                    check,
                };
                for user in order {
                    run_background_workload(&mut host, &BACKGROUND_USER, user);
                }
                let mut attacker = Browser::new("attacker-browser");
                execute_attack(attack, &mut host, &mut attacker, &mut victims);
                // Victims keep using the wiki on top of whatever the attack
                // left behind (the paper's worst case).
                for (i, (victim, page)) in victims.iter_mut().enumerate() {
                    let mut visit = victim.visit(&format!("/view.wasl?title={page}"), &mut host);
                    let existing = visit.document.field_value("body").unwrap_or_default();
                    victim.fill(
                        &mut visit,
                        "body",
                        &format!("{existing}\nvictim {} post-attack note", i + 1),
                    );
                    let _ = victim.submit_form(&mut visit, "/edit.wasl", &mut host);
                    host.upload_logs(victim.take_logs());
                }
                let infected = host.send(HttpRequest::get("/view.wasl?title=Page1"));
                host.check
                    .check(infected.body.contains("INFECTED BY XSS"), || {
                        "the attack left no visible damage before repair".to_string()
                    });
            }
            _ => unreachable!("the plan comes from this workload's set_up"),
        }
    }

    pub fn repair_request(&self) -> RepairRequest {
        match self.kind {
            Kind::Serve { .. } => RepairRequest::UndoVisit {
                client_id: MISTAKE_CLIENT.to_string(),
                visit_id: 1,
                initiated_by_admin: true,
            },
            Kind::Scenario(attack) => RepairRequest::RetroactivePatch {
                patch: wiki_patch(attack).expect("both scenario attacks have a patch"),
                from_time: 0,
            },
        }
    }

    /// After the repair: the attack's (or the mistake's) effects are gone
    /// and every legitimate edit survives.
    pub fn verify_repaired(&self, warp: &Warp, check: &mut Checker) {
        let pages: Vec<(String, String)> = warp.with_server(|server| {
            let now = server.clock.now();
            let rows = server
                .db
                .select_at("SELECT title, body FROM page", now)
                .expect("reading the page table");
            rows.rows
                .iter()
                .map(|r| (r[0].as_display_string(), r[1].as_display_string()))
                .collect()
        });
        let body_of = |page: usize| -> &str {
            let title = format!("Page{page}");
            pages
                .iter()
                .find(|(t, _)| *t == title)
                .map(|(_, b)| b.as_str())
                .unwrap_or("")
        };
        match self.kind {
            Kind::Serve { .. } => {
                let page = self.undo_page();
                check.check(
                    body_of(page) == format!("original content of page {page}"),
                    || format!("undo left `{}` in Page{page}", body_of(page)),
                );
            }
            Kind::Scenario(_) => {
                // `Public` still holds the payload the attacker typed — it
                // is data, now rendered harmless; what it did must be gone.
                check.check(
                    pages.iter().all(|(title, body)| {
                        title == "Public" || !body.contains("INFECTED BY XSS")
                    }),
                    || "the attack's text survived the repair".to_string(),
                );
                let granted: usize = warp.with_server(|server| {
                    let now = server.clock.now();
                    server
                        .db
                        .select_at(
                            "SELECT acl_id FROM acl WHERE user_name = 'attacker' AND title = 'Page1'",
                            now,
                        )
                        .expect("reading the acl table")
                        .rows
                        .len()
                });
                check.check(granted == 0, || {
                    "the attacker still holds rights on Page1".to_string()
                });
                for user in VICTIMS + 1..self.users {
                    let expect = format!("content of Page{user} revision 0");
                    check.check(body_of(user) == expect, || {
                        format!("user{user}'s last edit was lost: `{}`", body_of(user))
                    });
                }
            }
        }
    }
}
