//! The client-side browser: page visits, in-page scripts, user interaction,
//! and the recording extension.

use crate::dom::Document;
use crate::events::{EventKind, PageVisitRecord, RecordedRequest};
use crate::html::parse_html;
use std::collections::BTreeMap;
use std::sync::Arc;
use warp_http::{CookieJar, HttpRequest, HttpResponse, Method, Transport, WarpHeaders};
use warp_script::{Host, Interpreter, Program, ScriptResult, Value};

/// One page open in a browser frame (paper §5.1: a "page visit").
#[derive(Debug)]
pub struct PageVisit {
    /// The visit's ID, unique within the browser.
    pub visit_id: u64,
    /// The URL that was loaded.
    pub url: String,
    /// The HTTP response for the page load.
    pub response: HttpResponse,
    /// The parsed DOM.
    pub document: Document,
    /// Sub-frame visits (iframes), loaded one level deep.
    pub frames: Vec<PageVisit>,
    /// True if this page was requested inside a frame but the response's
    /// `X-Frame-Options` header prevented it from loading.
    pub blocked_framing: bool,
    next_request_id: u64,
}

/// A user's browser: client ID, cookie jar, visit counter, and (optionally)
/// the Warp recording extension.
#[derive(Debug)]
pub struct Browser {
    /// The Warp client ID (a long random per-browser value in the paper; an
    /// explicit name here so workloads stay deterministic).
    pub client_id: String,
    /// The browser's cookie jar.
    pub cookies: CookieJar,
    /// True if the Warp recording extension is installed (§8.3 evaluates the
    /// effect of running without it).
    pub extension_enabled: bool,
    next_visit_id: u64,
    logs: BTreeMap<u64, PageVisitRecord>,
}

/// A request issued while processing a page (the page load itself, a script
/// request, a form submission), together with its response.
#[derive(Debug, Clone)]
pub struct IssuedRequest {
    /// The request ID within the visit.
    pub request_id: u64,
    /// The request as sent.
    pub request: HttpRequest,
    /// The response received.
    pub response: HttpResponse,
}

impl Browser {
    /// Creates a browser with the recording extension installed.
    pub fn new(client_id: impl Into<String>) -> Self {
        Browser {
            client_id: client_id.into(),
            cookies: CookieJar::new(),
            extension_enabled: true,
            next_visit_id: 1,
            logs: BTreeMap::new(),
        }
    }

    /// Creates a browser without the recording extension (its requests carry
    /// no Warp headers and it uploads no logs).
    pub fn without_extension(client_id: impl Into<String>) -> Self {
        let mut b = Browser::new(client_id);
        b.extension_enabled = false;
        b
    }

    /// Navigates to a URL in a new page visit.
    pub fn visit(&mut self, url: &str, transport: &mut dyn Transport) -> PageVisit {
        self.visit_caused_by(url, transport, None, false)
    }

    /// Navigates to a URL, recording which prior visit caused the navigation.
    pub fn visit_caused_by(
        &mut self,
        url: &str,
        transport: &mut dyn Transport,
        caused_by: Option<u64>,
        in_frame: bool,
    ) -> PageVisit {
        let visit_id = self.next_visit_id;
        self.next_visit_id += 1;
        let mut record = PageVisitRecord::new(&self.client_id, visit_id, url);
        record.caused_by_visit = caused_by;
        self.logs.insert(visit_id, record);
        let mut visit = PageVisit {
            visit_id,
            url: url.to_string(),
            response: HttpResponse::ok(""),
            document: Document::default(),
            frames: Vec::new(),
            blocked_framing: false,
            next_request_id: 0,
        };
        // The page load is request 0 of the visit.
        let request = self.build_request(Method::Get, url, BTreeMap::new(), visit_id, 0);
        visit.next_request_id = 1;
        self.record_request(visit_id, 0, &request);
        let response = transport.send(request);
        self.apply_set_cookies(&response);
        if in_frame && response.denies_framing() {
            visit.blocked_framing = true;
            visit.response = response;
            return visit;
        }
        visit.document = parse_html(&response.body);
        visit.response = response;
        self.run_scripts(&mut visit, transport);
        self.load_frames(&mut visit, transport);
        visit
    }

    /// Types a value into a named text field, recording the DOM-level input
    /// event (with the field's pre-edit value as the merge base).
    pub fn fill(&mut self, visit: &mut PageVisit, field: &str, value: &str) {
        let base = visit.document.field_value(field);
        if self.extension_enabled {
            if let Some(rec) = self.logs.get_mut(&visit.visit_id) {
                rec.push_event(EventKind::Input, field, Some(value.to_string()), base);
            }
        }
        visit.document.set_field_value(field, value);
    }

    /// Clicks a link identified by a DOM locator, navigating to its `href`.
    pub fn click_link(
        &mut self,
        visit: &mut PageVisit,
        locator: &str,
        transport: &mut dyn Transport,
    ) -> Option<PageVisit> {
        let href = visit
            .document
            .find(locator)
            .and_then(|n| n.attr("href").map(|s| s.to_string()))?;
        if self.extension_enabled {
            if let Some(rec) = self.logs.get_mut(&visit.visit_id) {
                rec.push_event(EventKind::Click, locator, Some(href.clone()), None);
            }
        }
        Some(self.visit_caused_by(&href, transport, Some(visit.visit_id), false))
    }

    /// Submits the form with the given `action`, using the form's current
    /// field values, and navigates to the response.
    pub fn submit_form(
        &mut self,
        visit: &mut PageVisit,
        action: &str,
        transport: &mut dyn Transport,
    ) -> PageVisit {
        let form = visit.document.form_by_action(action);
        let (target, method, fields) = match form {
            Some(f) => {
                let method = if f.method == "post" {
                    Method::Post
                } else {
                    Method::Get
                };
                (
                    if f.action.is_empty() {
                        visit.url.clone()
                    } else {
                        f.action
                    },
                    method,
                    f.fields,
                )
            }
            None => (action.to_string(), Method::Post, BTreeMap::new()),
        };
        if self.extension_enabled {
            if let Some(rec) = self.logs.get_mut(&visit.visit_id) {
                rec.push_event(EventKind::Submit, &target, Some(target.clone()), None);
            }
        }
        let request_id = visit.next_request_id;
        visit.next_request_id += 1;
        let request = self.build_request(method, &target, fields, visit.visit_id, request_id);
        self.record_request(visit.visit_id, request_id, &request);
        let response = transport.send(request);
        self.apply_set_cookies(&response);
        // Navigation: the response becomes a new page visit.
        let new_visit_id = self.next_visit_id;
        self.next_visit_id += 1;
        let mut record = PageVisitRecord::new(&self.client_id, new_visit_id, &target);
        record.caused_by_visit = Some(visit.visit_id);
        self.logs.insert(new_visit_id, record);
        let mut new_visit = PageVisit {
            visit_id: new_visit_id,
            url: target,
            document: parse_html(&response.body),
            response,
            frames: Vec::new(),
            blocked_framing: false,
            next_request_id: 0,
        };
        self.run_scripts(&mut new_visit, transport);
        self.load_frames(&mut new_visit, transport);
        new_visit
    }

    /// Returns (and clears) the accumulated client-side logs, to be uploaded
    /// to the Warp server.
    pub fn take_logs(&mut self) -> Vec<PageVisitRecord> {
        let logs = std::mem::take(&mut self.logs);
        logs.into_values().collect()
    }

    /// Deletes the browser's cookie (used when the server queues a cookie
    /// invalidation after repair, §5.3).
    pub fn invalidate_cookies(&mut self) {
        self.cookies.clear();
    }

    fn build_request(
        &self,
        method: Method,
        target: &str,
        form: BTreeMap<String, String>,
        visit_id: u64,
        request_id: u64,
    ) -> HttpRequest {
        let mut request = match method {
            Method::Get => HttpRequest::get(target),
            Method::Post => {
                let mut r = HttpRequest::post(target, []);
                r.form = form;
                r
            }
        };
        request.cookies = self.cookies.clone();
        if self.extension_enabled {
            request.warp = WarpHeaders {
                client_id: Some(self.client_id.clone()),
                visit_id: Some(visit_id),
                request_id: Some(request_id),
            };
        }
        request
    }

    fn record_request(&mut self, visit_id: u64, request_id: u64, request: &HttpRequest) {
        if !self.extension_enabled {
            return;
        }
        if let Some(rec) = self.logs.get_mut(&visit_id) {
            rec.requests.push(RecordedRequest {
                request_id,
                method: request.method,
                path: request.path.clone(),
                params: request.all_params(),
            });
        }
    }

    fn apply_set_cookies(&mut self, response: &HttpResponse) {
        for sc in &response.set_cookies {
            self.cookies.apply_set_cookie(sc);
        }
    }

    /// Executes every `<script>` element in the page. Scripts are WASL code
    /// (the stand-in for JavaScript) with access to the DOM and to the
    /// network via `http_get` / `http_post`; this is how the evaluation's XSS
    /// payloads run in victims' browsers.
    fn run_scripts(&mut self, visit: &mut PageVisit, transport: &mut dyn Transport) {
        let sources: Vec<String> = visit
            .document
            .elements_by_tag("script")
            .into_iter()
            .map(|s| s.text_content())
            .collect();
        for src in sources {
            if src.trim().is_empty() {
                continue;
            }
            let issued = execute_page_script(
                &src,
                &mut visit.document,
                &mut self.cookies,
                transport,
                &self.client_id,
                self.extension_enabled,
                visit.visit_id,
                &mut visit.next_request_id,
            );
            for iss in issued {
                self.record_request(visit.visit_id, iss.request_id, &iss.request);
                self.apply_set_cookies(&iss.response);
            }
        }
    }

    /// Loads iframes one level deep. A framed response that denies framing is
    /// not loaded (this is what the retroactive clickjacking patch causes).
    fn load_frames(&mut self, visit: &mut PageVisit, transport: &mut dyn Transport) {
        let srcs: Vec<String> = visit
            .document
            .elements_by_tag("iframe")
            .into_iter()
            .filter_map(|f| f.attr("src").map(|s| s.to_string()))
            .collect();
        for src in srcs {
            let frame = self.visit_caused_by(&src, transport, Some(visit.visit_id), true);
            if let Some(rec) = self.logs.get_mut(&frame.visit_id) {
                rec.caused_by_visit = Some(visit.visit_id);
                rec.in_frame = true;
            }
            visit.frames.push(frame);
        }
    }
}

/// The WASL host exposed to in-page scripts: DOM access, cookies, and the
/// network. Used both by the client browser during normal execution and by
/// the server-side re-execution browser during repair.
struct PageScriptHost<'a> {
    document: &'a mut Document,
    cookies: &'a mut CookieJar,
    transport: &'a mut dyn Transport,
    client_id: &'a str,
    extension_enabled: bool,
    visit_id: u64,
    next_request_id: &'a mut u64,
    issued: Vec<IssuedRequest>,
}

impl PageScriptHost<'_> {
    fn send(&mut self, method: Method, url: &str, form: BTreeMap<String, String>) -> HttpResponse {
        let request_id = *self.next_request_id;
        *self.next_request_id += 1;
        let mut request = match method {
            Method::Get => HttpRequest::get(url),
            Method::Post => {
                let mut r = HttpRequest::post(url, []);
                r.form = form;
                r
            }
        };
        request.cookies = self.cookies.clone();
        if self.extension_enabled {
            request.warp = WarpHeaders {
                client_id: Some(self.client_id.to_string()),
                visit_id: Some(self.visit_id),
                request_id: Some(request_id),
            };
        }
        let response = self.transport.send(request.clone());
        for sc in &response.set_cookies {
            self.cookies.apply_set_cookie(sc);
        }
        self.issued.push(IssuedRequest {
            request_id,
            request,
            response: response.clone(),
        });
        response
    }
}

impl Host for PageScriptHost<'_> {
    fn call_host(&mut self, name: &str, args: &[Value]) -> Option<ScriptResult<Value>> {
        match name {
            "http_get" => {
                let url = args
                    .first()
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                let resp = self.send(Method::Get, &url, BTreeMap::new());
                Some(Ok(Value::str(resp.body)))
            }
            "http_post" => {
                let url = args
                    .first()
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                let mut form = BTreeMap::new();
                if let Some(Value::Map(m)) = args.get(1) {
                    for (k, v) in m {
                        form.insert(k.clone(), v.to_display_string());
                    }
                }
                let resp = self.send(Method::Post, &url, form);
                Some(Ok(Value::str(resp.body)))
            }
            "dom_get_text" => {
                let locator = args
                    .first()
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                Some(Ok(Value::str(
                    self.document
                        .find(&locator)
                        .map(|n| n.text_content())
                        .unwrap_or_default(),
                )))
            }
            "dom_set_text" => {
                let locator = args
                    .first()
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                let text = args
                    .get(1)
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                if let Some(node) = self.document.find_mut(&locator) {
                    node.set_text_content(&text);
                }
                Some(Ok(Value::Null))
            }
            "dom_field_value" => {
                let locator = args
                    .first()
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                Some(Ok(Value::str(
                    self.document.field_value(&locator).unwrap_or_default(),
                )))
            }
            "get_cookie" => {
                let name = args
                    .first()
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                Some(Ok(self
                    .cookies
                    .get(&name)
                    .map(Value::str)
                    .unwrap_or(Value::Null)))
            }
            "set_cookie" => {
                let name = args
                    .first()
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                let value = args
                    .get(1)
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                self.cookies.set(name, value);
                Some(Ok(Value::Null))
            }
            "echo" | "alert" | "console_log" => Some(Ok(Value::Null)),
            _ => None,
        }
    }

    fn load_include(&mut self, _filename: &str) -> Option<ScriptResult<Arc<Program>>> {
        None
    }
}

/// Executes one page script and returns the requests it issued. Script
/// errors are swallowed, as browsers swallow JavaScript errors.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_page_script(
    source: &str,
    document: &mut Document,
    cookies: &mut CookieJar,
    transport: &mut dyn Transport,
    client_id: &str,
    extension_enabled: bool,
    visit_id: u64,
    next_request_id: &mut u64,
) -> Vec<IssuedRequest> {
    let mut host = PageScriptHost {
        document,
        cookies,
        transport,
        client_id,
        extension_enabled,
        visit_id,
        next_request_id,
        issued: Vec::new(),
    };
    let mut interp = Interpreter::new();
    let _ = interp.eval_program(source, &mut host);
    host.issued
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny site: `/page` serves HTML with an embedded script that posts to
    /// `/steal` when loaded, `/framed` denies framing, `/outer` frames it.
    struct ScriptedSite {
        pub received: Vec<(String, String)>,
    }

    impl Transport for ScriptedSite {
        fn send(&mut self, request: HttpRequest) -> HttpResponse {
            self.received
                .push((request.method.as_str().to_string(), request.target()));
            match request.path.as_str() {
                "/page" => HttpResponse::ok(
                    "<html><body><p id=\"greet\">hi</p>\
                     <script>http_post(\"/steal\", {\"who\": get_cookie(\"user\")});</script>\
                     <form action=\"/edit\" method=\"post\">\
                     <textarea name=\"body\">original</textarea></form></body></html>",
                ),
                "/framed" => HttpResponse::ok("<p>framed content</p>")
                    .with_header("X-Frame-Options", "DENY"),
                "/outer" => HttpResponse::ok(
                    "<html><body><iframe src=\"/framed\"></iframe><iframe src=\"/page\"></iframe></body></html>",
                ),
                "/loginpage" => HttpResponse::ok(
                    "<form action=\"/login\" method=\"post\">\
                     <input name=\"user\" value=\"alice\"/></form>",
                ),
                "/login" => {
                    let mut r = HttpResponse::ok("logged in");
                    r.set_cookies.push("user=alice".to_string());
                    r
                }
                _ => HttpResponse::ok("<p>ok</p>"),
            }
        }
    }

    #[test]
    fn page_scripts_run_and_issue_requests_with_warp_headers() {
        let mut site = ScriptedSite { received: vec![] };
        let mut b = Browser::new("c1");
        b.cookies.set("user", "alice");
        let visit = b.visit("/page", &mut site);
        assert_eq!(visit.response.status, 200);
        // The script's POST to /steal was issued.
        assert!(site
            .received
            .iter()
            .any(|(m, t)| m == "POST" && t.starts_with("/steal")));
        let logs = b.take_logs();
        let rec = logs.iter().find(|r| r.url == "/page").unwrap();
        assert_eq!(rec.requests.len(), 2, "page load + script request");
        assert_eq!(
            rec.requests[1].params.get("who"),
            Some(&"alice".to_string())
        );
    }

    #[test]
    fn fill_records_base_value_and_submit_navigates() {
        let mut site = ScriptedSite { received: vec![] };
        let mut b = Browser::new("c1");
        let mut visit = b.visit("/page", &mut site);
        b.fill(&mut visit, "body", "user edit");
        let next = b.submit_form(&mut visit, "/edit", &mut site);
        assert_eq!(next.response.status, 200);
        let logs = b.take_logs();
        let rec = logs.iter().find(|r| r.url == "/page").unwrap();
        let input = rec
            .events
            .iter()
            .find(|e| e.kind == EventKind::Input)
            .unwrap();
        assert_eq!(input.base_value.as_deref(), Some("original"));
        assert_eq!(input.value.as_deref(), Some("user edit"));
        assert!(rec.events.iter().any(|e| e.kind == EventKind::Submit));
        // The POST carried the edited value.
        assert!(site
            .received
            .iter()
            .any(|(m, t)| m == "POST" && t.starts_with("/edit")));
    }

    #[test]
    fn frames_load_unless_framing_is_denied() {
        let mut site = ScriptedSite { received: vec![] };
        let mut b = Browser::new("c1");
        let visit = b.visit("/outer", &mut site);
        assert_eq!(visit.frames.len(), 2);
        assert!(
            visit.frames[0].blocked_framing,
            "X-Frame-Options: DENY must block the frame"
        );
        assert!(!visit.frames[1].blocked_framing);
        // The blocked frame's scripts never ran.
        assert!(visit.frames[0].document.roots.is_empty());
    }

    #[test]
    fn cookies_from_responses_are_stored_and_sent() {
        let mut site = ScriptedSite { received: vec![] };
        let mut b = Browser::new("c1");
        let mut visit = b.visit("/loginpage", &mut site);
        let _login = b.submit_form(&mut visit, "/login", &mut site);
        assert_eq!(b.cookies.get("user"), Some("alice"));
        b.invalidate_cookies();
        assert!(b.cookies.is_empty());
    }

    #[test]
    fn extensionless_browser_sends_no_warp_headers_and_keeps_no_logs() {
        let mut site = ScriptedSite { received: vec![] };
        let mut b = Browser::without_extension("c1");
        let _visit = b.visit("/page", &mut site);
        assert!(b
            .take_logs()
            .into_iter()
            .all(|r| r.requests.is_empty() && r.events.is_empty()));
    }

    #[test]
    fn click_link_navigates_and_links_visits() {
        struct LinkSite;
        impl Transport for LinkSite {
            fn send(&mut self, request: HttpRequest) -> HttpResponse {
                if request.path == "/a" {
                    HttpResponse::ok("<a id=\"next\" href=\"/b\">go</a>")
                } else {
                    HttpResponse::ok("<p>b</p>")
                }
            }
        }
        let mut site = LinkSite;
        let mut b = Browser::new("c1");
        let mut visit = b.visit("/a", &mut site);
        let next = b.click_link(&mut visit, "#next", &mut site).unwrap();
        assert_eq!(next.url, "/b");
        let logs = b.take_logs();
        let next_rec = logs.iter().find(|r| r.url == "/b").unwrap();
        assert_eq!(next_rec.caused_by_visit, Some(visit.visit_id));
        assert!(b
            .click_link(
                &mut PageVisit {
                    visit_id: 99,
                    url: "/x".into(),
                    response: HttpResponse::ok(""),
                    document: Document::default(),
                    frames: vec![],
                    blocked_framing: false,
                    next_request_id: 0,
                },
                "#missing",
                &mut site
            )
            .is_none());
    }
}
