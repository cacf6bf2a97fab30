//! The MediaWiki-analog wiki application, written in WASL.
//!
//! The wiki has users, cookie sessions, per-page access control, page
//! viewing/editing, a search page and a calendar page. Each of the paper's
//! Table 2 vulnerabilities is present in the unpatched sources, and
//! [`wiki_patch`] returns the corresponding fix:
//!
//! | Scenario | Vulnerable file | Fix |
//! |---|---|---|
//! | Reflected XSS (CVE-2009-0737 analog) | `calendar.wasl` | sanitise the `date` parameter |
//! | Stored XSS (CVE-2009-4589 analog) | `view.wasl` | sanitise page bodies |
//! | Login CSRF (CVE-2010-1150 analog) | `login.wasl` | require a login token |
//! | Clickjacking (CVE-2011-0003 analog) | `common.wasl` | send `X-Frame-Options: DENY` |
//! | SQL injection (CVE-2004-2186 analog) | `search.wasl` | escape the `q` parameter |
//! | ACL error | — | administrator undoes the mistaken grant |
//!
//! The attacker's web site is modelled as additional pages served from the
//! same server under `/evil/...` (the paper hosts them on a separate origin;
//! serving them locally keeps every page visit repairable and is noted as a
//! substitution in DESIGN.md).

use crate::attacks::AttackKind;
use warp_core::{AppConfig, Patch};
use warp_ttdb::TableAnnotation;

/// Shared helpers included by every page: session lookup, page header.
const COMMON: &str = r#"
fn current_user() {
    let sid = cookie("sid");
    if (is_null(sid)) { return null; }
    let rows = db_query("SELECT user_name FROM session WHERE sid = '" . sql_escape(sid) . "'");
    if (len(rows) == 0) { return null; }
    return rows[0]["user_name"];
}
fn page_header(title) {
    echo("<html><head><title>" . htmlspecialchars(title) . "</title></head><body>");
    echo("<h1 id=\"pagetitle\">" . htmlspecialchars(title) . "</h1>");
}
fn page_footer() {
    echo("</body></html>");
}
fn can_edit(user, title) {
    if (is_null(user)) { return false; }
    let admins = db_query("SELECT is_admin FROM wikiuser WHERE name = '" . sql_escape(user) . "'");
    if (len(admins) > 0 && admins[0]["is_admin"] == 1) { return true; }
    let rows = db_query("SELECT acl_id FROM acl WHERE title = '" . sql_escape(title) . "' AND user_name = '" . sql_escape(user) . "'");
    return len(rows) > 0;
}
"#;

/// Patched `common.wasl`: identical, plus the anti-clickjacking header on
/// every page (the CVE-2011-0003 fix adds `X-Frame-Options: DENY`).
const COMMON_PATCHED: &str = r#"
fn current_user() {
    let sid = cookie("sid");
    if (is_null(sid)) { return null; }
    let rows = db_query("SELECT user_name FROM session WHERE sid = '" . sql_escape(sid) . "'");
    if (len(rows) == 0) { return null; }
    return rows[0]["user_name"];
}
fn page_header(title) {
    header("X-Frame-Options", "DENY");
    echo("<html><head><title>" . htmlspecialchars(title) . "</title></head><body>");
    echo("<h1 id=\"pagetitle\">" . htmlspecialchars(title) . "</h1>");
}
fn page_footer() {
    echo("</body></html>");
}
fn can_edit(user, title) {
    if (is_null(user)) { return false; }
    let admins = db_query("SELECT is_admin FROM wikiuser WHERE name = '" . sql_escape(user) . "'");
    if (len(admins) > 0 && admins[0]["is_admin"] == 1) { return true; }
    let rows = db_query("SELECT acl_id FROM acl WHERE title = '" . sql_escape(title) . "' AND user_name = '" . sql_escape(user) . "'");
    return len(rows) > 0;
}
"#;

/// `view.wasl` — vulnerable to stored XSS: the page body is emitted raw.
const VIEW: &str = r#"
include "common.wasl";
let title = param("title");
page_header(title);
let rows = db_query("SELECT body FROM page WHERE title = '" . sql_escape(title) . "'");
let user = current_user();
if (len(rows) == 0) {
    echo("<p id=\"missing\">This page does not exist.</p>");
} else {
    echo("<div id=\"content\">" . rows[0]["body"] . "</div>");
}
if (can_edit(user, title)) {
    let body = "";
    if (len(rows) > 0) { body = rows[0]["body"]; }
    echo("<form action=\"/edit.wasl\" method=\"post\">");
    echo("<input type=\"hidden\" name=\"title\" value=\"" . htmlspecialchars(title) . "\"/>");
    echo("<textarea name=\"body\">" . htmlspecialchars(body) . "</textarea>");
    echo("<input type=\"submit\" name=\"save\" value=\"Save\"/></form>");
}
page_footer();
"#;

/// Patched `view.wasl`: page bodies are sanitised before being emitted
/// (the CVE-2009-4589 analog fix).
const VIEW_PATCHED: &str = r#"
include "common.wasl";
let title = param("title");
page_header(title);
let rows = db_query("SELECT body FROM page WHERE title = '" . sql_escape(title) . "'");
let user = current_user();
if (len(rows) == 0) {
    echo("<p id=\"missing\">This page does not exist.</p>");
} else {
    echo("<div id=\"content\">" . htmlspecialchars(rows[0]["body"]) . "</div>");
}
if (can_edit(user, title)) {
    let body = "";
    if (len(rows) > 0) { body = rows[0]["body"]; }
    echo("<form action=\"/edit.wasl\" method=\"post\">");
    echo("<input type=\"hidden\" name=\"title\" value=\"" . htmlspecialchars(title) . "\"/>");
    echo("<textarea name=\"body\">" . htmlspecialchars(body) . "</textarea>");
    echo("<input type=\"submit\" name=\"save\" value=\"Save\"/></form>");
}
page_footer();
"#;

/// `edit.wasl` — saves a page (creating it if needed), ACL-checked.
const EDIT: &str = r#"
include "common.wasl";
let title = param("title");
let user = current_user();
if (!can_edit(user, title)) {
    http_status(403);
    echo("<p id=\"denied\">You do not have permission to edit this page.</p>");
    return;
}
let rows = db_query("SELECT page_id FROM page WHERE title = '" . sql_escape(title) . "'");
if (len(rows) == 0) {
    let maxid = db_query("SELECT MAX(page_id) FROM page");
    let next = int(maxid[0][array_keys(maxid[0])[0]]) + 1;
    db_query("INSERT INTO page (page_id, title, body, last_editor) VALUES (" . next . ", '" . sql_escape(title) . "', '" . sql_escape(param("body")) . "', '" . sql_escape(user) . "')");
} else {
    db_query("UPDATE page SET body = '" . sql_escape(param("body")) . "', last_editor = '" . sql_escape(user) . "' WHERE title = '" . sql_escape(title) . "'");
}
page_header("Saved");
echo("<p id=\"saved\">Saved " . htmlspecialchars(title) . ".</p>");
echo("<a id=\"back\" href=\"/view.wasl?title=" . urlencode(title) . "\">back</a>");
page_footer();
"#;

/// `login.wasl` — vulnerable to login CSRF: a POST with valid credentials is
/// accepted regardless of where the form came from.
const LOGIN: &str = r#"
include "common.wasl";
if (request_method() == "GET") {
    page_header("Log in");
    echo("<form action=\"/login.wasl\" method=\"post\">");
    echo("<input name=\"user\" value=\"\"/><input name=\"password\" value=\"\"/>");
    echo("<input type=\"submit\" name=\"go\" value=\"Log in\"/></form>");
    page_footer();
    return;
}
let user = param("user");
let rows = db_query("SELECT name FROM wikiuser WHERE name = '" . sql_escape(user) . "' AND password = '" . sql_escape(param("password")) . "'");
if (len(rows) == 0) {
    http_status(403);
    echo("<p id=\"badlogin\">Bad credentials.</p>");
    return;
}
let sid = session_start();
db_query("DELETE FROM session WHERE sid = '" . sql_escape(cookie("sid")) . "'");
db_query("INSERT INTO session (sid, user_name) VALUES ('" . sid . "', '" . sql_escape(user) . "')");
set_cookie("sid", sid);
page_header("Welcome");
echo("<p id=\"welcome\">Welcome " . htmlspecialchars(user) . "</p>");
page_footer();
"#;

/// Patched `login.wasl`: login POSTs must carry the per-session token that
/// the login form embeds (the CVE-2010-1150 analog fix).
const LOGIN_PATCHED: &str = r#"
include "common.wasl";
if (request_method() == "GET") {
    let token = session_start();
    db_query("INSERT INTO login_token (token) VALUES ('" . token . "')");
    page_header("Log in");
    echo("<form action=\"/login.wasl\" method=\"post\">");
    echo("<input type=\"hidden\" name=\"token\" value=\"" . token . "\"/>");
    echo("<input name=\"user\" value=\"\"/><input name=\"password\" value=\"\"/>");
    echo("<input type=\"submit\" name=\"go\" value=\"Log in\"/></form>");
    page_footer();
    return;
}
let token = param("token");
let known = db_query("SELECT token FROM login_token WHERE token = '" . sql_escape(token) . "'");
if (len(known) == 0) {
    http_status(403);
    echo("<p id=\"badtoken\">Cross-site login attempt rejected.</p>");
    return;
}
let user = param("user");
let rows = db_query("SELECT name FROM wikiuser WHERE name = '" . sql_escape(user) . "' AND password = '" . sql_escape(param("password")) . "'");
if (len(rows) == 0) {
    http_status(403);
    echo("<p id=\"badlogin\">Bad credentials.</p>");
    return;
}
let sid = session_start();
db_query("DELETE FROM session WHERE sid = '" . sql_escape(cookie("sid")) . "'");
db_query("INSERT INTO session (sid, user_name) VALUES ('" . sid . "', '" . sql_escape(user) . "')");
set_cookie("sid", sid);
page_header("Welcome");
echo("<p id=\"welcome\">Welcome " . htmlspecialchars(user) . "</p>");
page_footer();
"#;

/// `acl.wasl` — a logged-in user may grant another user access to a page
/// they can themselves edit; administrators may grant anything (including
/// admin rights, which is how the ACL-error scenario starts).
const ACL: &str = r#"
include "common.wasl";
let user = current_user();
let title = param("title");
let grantee = param("user");
if (is_null(user) || !can_edit(user, title)) {
    http_status(403);
    echo("<p id=\"denied\">Not allowed.</p>");
    return;
}
let maxid = db_query("SELECT MAX(acl_id) FROM acl");
let next = int(maxid[0][array_keys(maxid[0])[0]]) + 1;
db_query("INSERT INTO acl (acl_id, title, user_name) VALUES (" . next . ", '" . sql_escape(title) . "', '" . sql_escape(grantee) . "')");
page_header("Access granted");
echo("<p id=\"granted\">" . htmlspecialchars(grantee) . " may now edit " . htmlspecialchars(title) . ".</p>");
page_footer();
"#;

/// `search.wasl` — vulnerable to SQL injection: the `q` parameter is spliced
/// into the query unescaped (the CVE-2004-2186 analog).
const SEARCH: &str = r#"
include "common.wasl";
page_header("Search");
let q = param("q");
let rows = db_query("SELECT title FROM page WHERE body LIKE '%" . q . "%'");
echo("<ul id=\"results\">");
foreach (rows as r) {
    echo("<li>" . htmlspecialchars(r["title"]) . "</li>");
}
echo("</ul>");
page_footer();
"#;

/// Patched `search.wasl`: the parameter is escaped (`wfStrencode` analog).
const SEARCH_PATCHED: &str = r#"
include "common.wasl";
page_header("Search");
let q = param("q");
let rows = db_query("SELECT title FROM page WHERE body LIKE '%" . sql_escape(q) . "%'");
echo("<ul id=\"results\">");
foreach (rows as r) {
    echo("<li>" . htmlspecialchars(r["title"]) . "</li>");
}
echo("</ul>");
page_footer();
"#;

/// `maintenance.wasl` — vulnerable to SQL injection (the CVE-2004-2186
/// analog): the `thelang` parameter is spliced into the WHERE clause
/// unescaped, so an injected predicate makes the update hit every page.
const MAINTENANCE: &str = r#"
include "common.wasl";
db_query("UPDATE page SET body = '" . sql_escape(param("newbody")) . "' WHERE title = '" . param("thelang") . "'");
page_header("Maintenance");
echo("<p id=\"maint\">Maintenance run complete.</p>");
page_footer();
"#;

/// Patched `maintenance.wasl`: the parameter is escaped (`wfStrencode`).
const MAINTENANCE_PATCHED: &str = r#"
include "common.wasl";
db_query("UPDATE page SET body = '" . sql_escape(param("newbody")) . "' WHERE title = '" . sql_escape(param("thelang")) . "'");
page_header("Maintenance");
echo("<p id=\"maint\">Maintenance run complete.</p>");
page_footer();
"#;

/// `calendar.wasl` — vulnerable to reflected XSS: the `date` parameter is
/// echoed without sanitisation (the CVE-2009-0737 analog).
const CALENDAR: &str = r#"
include "common.wasl";
page_header("Calendar");
echo("<p id=\"date\">Events for " . param("date") . "</p>");
page_footer();
"#;

/// Patched `calendar.wasl`.
const CALENDAR_PATCHED: &str = r#"
include "common.wasl";
page_header("Calendar");
echo("<p id=\"date\">Events for " . htmlspecialchars(param("date")) . "</p>");
page_footer();
"#;

/// Builds the wiki application with `n_pages` seeded pages and `n_users`
/// seeded users (named `user1..userN`, password `pw<i>`; `admin` is an
/// administrator). Every user may edit their own page `Page<i>`; `Public` is
/// editable by everyone.
pub fn wiki_app(n_users: usize, n_pages: usize) -> AppConfig {
    let mut config = AppConfig::new("warp-wiki");
    config.add_table(
        "CREATE TABLE wikiuser (user_id INTEGER PRIMARY KEY, name TEXT UNIQUE, password TEXT, is_admin INTEGER DEFAULT 0)",
        TableAnnotation::new().row_id("user_id").partitions(["name"]),
    );
    config.add_table(
        "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT UNIQUE, body TEXT, last_editor TEXT)",
        TableAnnotation::new().row_id("page_id").partitions(["title"]),
    );
    config.add_table(
        "CREATE TABLE acl (acl_id INTEGER PRIMARY KEY, title TEXT, user_name TEXT)",
        TableAnnotation::new()
            .row_id("acl_id")
            .partitions(["title", "user_name"]),
    );
    config.add_table(
        "CREATE TABLE session (sid TEXT PRIMARY KEY, user_name TEXT)",
        TableAnnotation::new().row_id("sid").partitions(["sid"]),
    );
    config.add_table(
        "CREATE TABLE login_token (token TEXT PRIMARY KEY)",
        TableAnnotation::new().row_id("token").partitions(["token"]),
    );
    // Users.
    config.seed("INSERT INTO wikiuser (user_id, name, password, is_admin) VALUES (1, 'admin', 'adminpw', 1)");
    for i in 1..=n_users {
        config.seed(format!(
            "INSERT INTO wikiuser (user_id, name, password, is_admin) VALUES ({}, 'user{i}', 'pw{i}', 0)",
            i + 1
        ));
    }
    // Pages and per-user ACLs.
    config.seed("INSERT INTO page (page_id, title, body, last_editor) VALUES (1, 'Public', 'public scratch space', 'admin')");
    let mut acl_id = 1;
    for i in 1..=n_pages {
        config.seed(format!(
            "INSERT INTO page (page_id, title, body, last_editor) VALUES ({}, 'Page{i}', 'original content of page {i}', 'admin')",
            i + 1
        ));
    }
    for i in 1..=n_users {
        config.seed(format!(
            "INSERT INTO acl (acl_id, title, user_name) VALUES ({acl_id}, 'Page{i}', 'user{i}')"
        ));
        acl_id += 1;
        config.seed(format!(
            "INSERT INTO acl (acl_id, title, user_name) VALUES ({acl_id}, 'Public', 'user{i}')"
        ));
        acl_id += 1;
    }
    // Sources (the vulnerable versions).
    config.add_source("common.wasl", COMMON);
    config.add_source("view.wasl", VIEW);
    config.add_source("edit.wasl", EDIT);
    config.add_source("login.wasl", LOGIN);
    config.add_source("acl.wasl", ACL);
    config.add_source("search.wasl", SEARCH);
    config.add_source("maintenance.wasl", MAINTENANCE);
    config.add_source("calendar.wasl", CALENDAR);
    // The "attacker's web site", served locally so its page visits are
    // logged and repairable (see the module docs for the substitution note).
    config.add_source("evil/csrf.wasl", EVIL_CSRF);
    config.add_source("evil/clickjack.wasl", EVIL_CLICKJACK);
    config.add_source("evil/lure.wasl", EVIL_LURE);
    config
}

/// The attacker's CSRF page: silently logs the visitor into the wiki under
/// the attacker's account.
const EVIL_CSRF: &str = r#"
echo("<html><body><p>Totally harmless kitten pictures</p>");
echo("<script>http_post(\"/login.wasl\", {\"user\": \"attacker\", \"password\": \"attackerpw\"});</script>");
echo("</body></html>");
"#;

/// The attacker's clickjacking page: frames the wiki's edit form invisibly.
const EVIL_CLICKJACK: &str = r#"
echo("<html><body><p>Win a prize! Interact below.</p>");
echo("<iframe src=\"/view.wasl?title=Public\" style=\"opacity:0\"></iframe>");
echo("</body></html>");
"#;

/// A generic lure page used by reflected-XSS attacks: it simply frames the
/// crafted wiki URL so that visiting the lure triggers the reflected payload
/// in the victim's browser.
const EVIL_LURE: &str = r#"
let target = param("target");
echo("<html><body><p>Check this out:</p>");
echo("<iframe src=\"" . target . "\"></iframe>");
echo("</body></html>");
"#;

/// Returns the retroactive patch fixing the vulnerability exploited by the
/// given attack, or `None` for the ACL-error scenario (which is repaired by
/// an administrator-initiated undo, not a patch).
pub fn wiki_patch(kind: AttackKind) -> Option<Patch> {
    match kind {
        AttackKind::ReflectedXss => Some(Patch::new(
            "calendar.wasl",
            CALENDAR_PATCHED,
            "CVE-2009-0737 analog: sanitise the date parameter",
        )),
        AttackKind::StoredXss => Some(Patch::new(
            "view.wasl",
            VIEW_PATCHED,
            "CVE-2009-4589 analog: sanitise stored page bodies",
        )),
        AttackKind::Csrf => Some(Patch::new(
            "login.wasl",
            LOGIN_PATCHED,
            "CVE-2010-1150 analog: require a login token",
        )),
        AttackKind::Clickjacking => Some(Patch::new(
            "common.wasl",
            COMMON_PATCHED,
            "CVE-2011-0003 analog: X-Frame-Options: DENY",
        )),
        AttackKind::SqlInjection => Some(Patch::new(
            "maintenance.wasl",
            MAINTENANCE_PATCHED,
            "CVE-2004-2186 analog: escape the thelang parameter",
        )),
        AttackKind::AclError => None,
    }
}

/// Returns the patch for the *read-only* SQL-injection hole in
/// `search.wasl` (the other half of the CVE-2004-2186 analog;
/// [`wiki_patch`] patches the write path in `maintenance.wasl`). Useful for
/// demonstrating repair over read-only history: re-executing patched
/// searches changes responses but writes nothing back.
pub fn wiki_search_patch() -> Patch {
    Patch::new(
        "search.wasl",
        SEARCH_PATCHED,
        "CVE-2004-2186 analog: escape the q parameter in search",
    )
}

/// Seeds the attacker's account (used by scenarios where the attacker logs
/// in as a regular wiki user).
pub fn attacker_seed_sql() -> String {
    "INSERT INTO wikiuser (user_id, name, password, is_admin) VALUES (9999, 'attacker', 'attackerpw', 0)"
        .to_string()
}

/// Seeds an ACL entry letting the attacker edit the `Public` page (the
/// "publicly accessible Wiki page" the paper's stored-XSS attack defaces).
pub fn attacker_acl_sql() -> String {
    "INSERT INTO acl (acl_id, title, user_name) VALUES (9998, 'Public', 'attacker')".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_browser::Browser;
    use warp_core::WarpServer;
    use warp_http::{HttpRequest, Transport};

    fn server() -> WarpServer {
        let mut config = wiki_app(3, 3);
        config.seed(attacker_seed_sql());
        WarpServer::new(config)
    }

    /// Logs a browser in through the real login form.
    pub(crate) fn login(browser: &mut Browser, server: &mut WarpServer, user: &str, pw: &str) {
        let mut visit = browser.visit("/login.wasl", server);
        browser.fill(&mut visit, "user", user);
        browser.fill(&mut visit, "password", pw);
        let done = browser.submit_form(&mut visit, "/login.wasl", server);
        assert!(
            done.response.body.contains("Welcome"),
            "login failed: {}",
            done.response.body
        );
    }

    #[test]
    fn anonymous_users_can_view_but_not_edit() {
        let mut s = server();
        let r = s.send(HttpRequest::get("/view.wasl?title=Page1"));
        assert!(r.body.contains("original content of page 1"));
        assert!(
            !r.body.contains("<form"),
            "anonymous users must not see the edit form"
        );
        let r = s.send(HttpRequest::post(
            "/edit.wasl",
            [("title", "Page1"), ("body", "hacked")],
        ));
        assert_eq!(r.status, 403);
    }

    #[test]
    fn login_edit_and_acl_flow() {
        let mut s = server();
        let mut b = Browser::new("user1-browser");
        login(&mut b, &mut s, "user1", "pw1");
        // user1 edits their own page through the browser.
        let mut visit = b.visit("/view.wasl?title=Page1", &mut s);
        assert!(visit.response.body.contains("<form"));
        b.fill(&mut visit, "body", "user1 was here");
        let saved = b.submit_form(&mut visit, "/edit.wasl", &mut s);
        assert!(saved.response.body.contains("Saved"));
        let r = s.send(HttpRequest::get("/view.wasl?title=Page1"));
        assert!(r.body.contains("user1 was here"));
        // user1 cannot edit Page2...
        let mut visit2 = b.visit("/view.wasl?title=Page2", &mut s);
        assert!(!visit2.response.body.contains("<form"));
        // ...until user2 grants access.
        let mut b2 = Browser::new("user2-browser");
        login(&mut b2, &mut s, "user2", "pw2");
        let grant = b2.visit("/acl.wasl?title=Page2&user=user1", &mut s);
        assert!(grant.response.body.contains("granted"));
        visit2 = b.visit("/view.wasl?title=Page2", &mut s);
        assert!(visit2.response.body.contains("<form"));
    }

    #[test]
    fn stored_xss_payload_round_trips_unsanitised() {
        let mut s = server();
        let mut b = Browser::new("attacker-browser");
        login(&mut b, &mut s, "attacker", "attackerpw");
        // The attacker can edit Public (everyone can).
        let r = s.handle({
            let mut req = HttpRequest::post(
                "/edit.wasl",
                [
                    ("title", "Public"),
                    ("body", "<script>http_get(\"/ping\");</script>"),
                ],
            );
            req.cookies = b.cookies.clone();
            req
        });
        // The attacker is not in the Public ACL... actually only users 1..n
        // are; the attacker edit is rejected.
        assert_eq!(r.status, 403);
    }

    #[test]
    fn sql_injection_vulnerability_exists_and_patch_fixes_it() {
        let mut s = server();
        // The injected predicate makes the UPDATE hit every page.
        let injected = "/maintenance.wasl?newbody=INJECTED&thelang=zzz%27+OR+title+LIKE+%27%25";
        s.send(HttpRequest::get(injected));
        let r = s.send(HttpRequest::get("/view.wasl?title=Page1"));
        assert!(
            r.body.contains("INJECTED"),
            "injection should hit every page: {}",
            r.body
        );
        // After patching, the same request touches nothing: no page that was
        // not already corrupted picks up the payload. Applying the patch as a
        // normal (non-retroactive) code change first, then re-running the
        // injection, must leave the maintenance run with zero matched rows.
        let patched = wiki_patch(AttackKind::SqlInjection).unwrap();
        s.sources.update(
            "maintenance.wasl",
            patched.patched_source.clone(),
            s.clock.now(),
        );
        let before = s.history.len();
        s.send(HttpRequest::get(injected));
        let after_action = &s.history.actions()[before];
        let touched: u64 = after_action
            .queries
            .iter()
            .map(|q| q.written_row_ids().len() as u64)
            .sum();
        assert_eq!(touched, 0, "patched maintenance must not match any page");
    }

    #[test]
    fn calendar_reflects_parameter_and_patch_sanitises() {
        let mut s = server();
        let r = s.send(HttpRequest::get(
            "/calendar.wasl?date=%3Cscript%3Ex()%3C/script%3E",
        ));
        assert!(r.body.contains("<script>x()</script>"));
        let patched = wiki_patch(AttackKind::ReflectedXss).unwrap();
        s.sources.update(
            "calendar.wasl",
            patched.patched_source.clone(),
            s.clock.now(),
        );
        let r = s.send(HttpRequest::get(
            "/calendar.wasl?date=%3Cscript%3Ex()%3C/script%3E",
        ));
        assert!(!r.body.contains("<script>x()"));
    }

    #[test]
    fn every_attack_kind_has_a_repair_path() {
        for kind in AttackKind::ALL {
            match kind {
                AttackKind::AclError => assert!(wiki_patch(kind).is_none()),
                _ => assert!(wiki_patch(kind).is_some()),
            }
        }
    }
}
