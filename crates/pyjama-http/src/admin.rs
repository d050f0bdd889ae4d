//! The `/admin` control surface: a tiny HTTP endpoint on its own listener
//! through which a live [`ControlPlane`] is inspected and reconfigured.
//!
//! Routes:
//!
//! * `GET /config` — the current config snapshot plus its generation, as
//!   JSON.
//! * `GET /stats`  — three counter sets, one JSON object each with one key
//!   per field: the control plane's reconfiguration counters, the
//!   data-plane admission counters (zero unless a probe is wired), and the
//!   region recycler's allocation counters and gauges.
//! * `POST /config` — a flat JSON object of config overrides. The patch is
//!   applied on top of the *current* config and handed to
//!   [`ControlPlane::apply`]: it is validated as a whole, so a bad patch
//!   changes nothing and the old generation keeps serving (the response is
//!   `400` with the validation error).
//!
//! The admin endpoint is an ordinary [`HttpServer`] with one acceptor and
//! a one-thread Jetty pool, on a listener deliberately separate from the
//! data plane: an overloaded server that is shedding requests still
//! answers its operator. Admin requests are rare (an operator or a
//! script); half-second I/O and idle deadlines keep one stalled or idle
//! client from wedging the endpoint for longer than that.
//! Serialization is hand-rolled (the config is a small flat struct); the
//! accepted JSON subset is likewise flat — numbers, `null`, and quoted
//! keys — which covers every tunable knob.

use std::net::SocketAddr;
use std::time::Duration;

use pyjama_control::{Config, ControlPlane};
use pyjama_metrics::{AdmissionStats, AllocStats, ReconfigStats};

use crate::message::{Request, Response, Status};
use crate::server::{HttpServer, ServerOptions, ServingPolicy};

/// A callback handing the admin server the data plane's admission counters
/// (see [`HttpServer::admission_probe`]).
pub type AdmissionProbe = Box<dyn Fn() -> AdmissionStats + Send + Sync>;

/// A running admin endpoint bound to an ephemeral loopback port.
pub struct AdminServer {
    server: HttpServer,
}

impl AdminServer {
    /// Starts an admin endpoint over `plane` (no admission stats wired).
    pub fn start(plane: ControlPlane) -> std::io::Result<AdminServer> {
        Self::start_with_stats(plane, None)
    }

    /// Starts an admin endpoint over `plane`; `admission` (when given)
    /// supplies the data plane's shed counters for `GET /stats`.
    pub fn start_with_stats(
        plane: ControlPlane,
        admission: Option<AdmissionProbe>,
    ) -> std::io::Result<AdminServer> {
        let opts = ServerOptions {
            acceptors: 1,
            io_timeout: Duration::from_millis(500),
            idle_timeout: Duration::from_millis(500),
            ..ServerOptions::default()
        };
        let server =
            HttpServer::start_with(ServingPolicy::JettyPool { threads: 1 }, opts, move |req| {
                route(&plane, &admission, req)
            })?;
        Ok(AdminServer { server })
    }

    /// The bound address (`127.0.0.1:<ephemeral>`).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops the listener and joins its threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn route(plane: &ControlPlane, admission: &Option<AdmissionProbe>, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/config") => {
            let handle = plane.handle();
            let snap = handle.read();
            json_ok(config_json(&snap.config, snap.generation))
        }
        ("GET", "/stats") => {
            let a = admission.as_ref().map(|p| p()).unwrap_or_default();
            // Region-recycler gauges: `reused / (allocated + reused)` is the
            // live hit rate of the allocation-free posting path.
            json_ok(stats_json(&plane.stats(), &a, &pyjama_runtime::alloc_stats()))
        }
        ("POST", "/config") => {
            let body = match std::str::from_utf8(&req.body) {
                Ok(s) => s,
                Err(_) => return json_error(Status::BadRequest, "body is not UTF-8"),
            };
            let patched = match parse_config_patch(body, plane.config()) {
                Ok(cfg) => cfg,
                Err(msg) => return json_error(Status::BadRequest, &msg),
            };
            match plane.apply(patched) {
                Ok(generation) => json_ok(format!("{{\"generation\":{generation}}}")),
                Err(e) => json_error(Status::BadRequest, &e.to_string()),
            }
        }
        _ => json_error(Status::NotFound, "unknown admin route"),
    }
}

/// The `/stats` body: one JSON object per counter set, one key per field.
fn stats_json(r: &ReconfigStats, a: &AdmissionStats, al: &AllocStats) -> String {
    let sets: [(&str, &[(&str, u64)]); 3] = [
        ("reconfig", &r.fields()),
        ("admission", &a.fields()),
        ("alloc", &al.fields()),
    ];
    let body: Vec<String> = sets
        .iter()
        .map(|(set, fields)| {
            let kv: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            format!("\"{set}\":{{{}}}", kv.join(","))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn json_ok(body: String) -> Response {
    let mut resp = Response::ok(body.into_bytes());
    resp.headers.insert("content-type", "application/json");
    resp
}

fn json_error(status: Status, msg: &str) -> Response {
    let mut resp = Response::new(
        status,
        format!("{{\"error\":{}}}", quote_json(msg)).into_bytes(),
    );
    resp.headers.insert("content-type", "application/json");
    resp
}

/// Serialises a config snapshot (plus generation) as JSON.
fn config_json(cfg: &Config, generation: u64) -> String {
    format!(
        "{{\"generation\":{generation},\"config\":{{\
         \"workers\":{},\"virtual_targets\":{},\"max_requests_per_conn\":{},\
         \"idle_timeout_ms\":{},\"io_timeout_ms\":{},\"sweep_interval_ms\":{},\
         \"max_body_bytes\":{},\"spin_budget\":{},\
         \"admission_threshold\":{},\"retry_after_secs\":{}}}}}",
        cfg.workers,
        cfg.virtual_targets,
        cfg.max_requests_per_conn,
        cfg.idle_timeout_ms,
        cfg.io_timeout_ms,
        cfg.sweep_interval_ms,
        cfg.max_body_bytes,
        cfg.spin_budget
            .map_or_else(|| "null".to_string(), |v| v.to_string()),
        cfg.admission_threshold,
        cfg.retry_after_secs,
    )
}

/// Minimal JSON string escaping for error payloads.
fn quote_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Applies a flat JSON object of overrides on top of `cfg`. Accepted values
/// are unsigned integers and (for `spin_budget`) `null`; unknown keys are
/// rejected so a typo'd knob cannot silently no-op.
fn parse_config_patch(body: &str, mut cfg: Config) -> Result<Config, String> {
    let s = body.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(|| "body must be a JSON object".to_string())?;
    for pair in inner.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair
            .split_once(':')
            .ok_or_else(|| format!("malformed pair {pair:?}"))?;
        let key = k.trim().trim_matches('"');
        let val = v.trim();
        match key {
            "workers" => cfg.workers = parse_num(key, val)?,
            "virtual_targets" => cfg.virtual_targets = parse_num(key, val)?,
            "max_requests_per_conn" => cfg.max_requests_per_conn = parse_num(key, val)?,
            "idle_timeout_ms" => cfg.idle_timeout_ms = parse_num(key, val)?,
            "io_timeout_ms" => cfg.io_timeout_ms = parse_num(key, val)?,
            "sweep_interval_ms" => cfg.sweep_interval_ms = parse_num(key, val)?,
            "max_body_bytes" => cfg.max_body_bytes = parse_num(key, val)?,
            "spin_budget" => {
                cfg.spin_budget = if val == "null" {
                    None
                } else {
                    Some(parse_num(key, val)?)
                }
            }
            "admission_threshold" => cfg.admission_threshold = parse_num(key, val)?,
            "retry_after_secs" => cfg.retry_after_secs = parse_num(key, val)?,
            other => return Err(format!("unknown config key {other:?}")),
        }
    }
    Ok(cfg)
}

fn parse_num<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
    val.parse()
        .map_err(|_| format!("{key}: expected an unsigned number, got {val:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{http_get, http_post};

    fn body_str(resp: &Response) -> &str {
        std::str::from_utf8(&resp.body).unwrap()
    }

    #[test]
    fn get_config_reports_snapshot_and_generation() {
        let plane = ControlPlane::new();
        let mut admin = AdminServer::start(plane.clone()).unwrap();
        let resp = http_get(admin.addr(), "/config").unwrap();
        assert_eq!(resp.status, Status::Ok);
        let body = body_str(&resp).to_string();
        assert!(body.contains("\"generation\":0"), "{body}");
        assert!(body.contains("\"workers\":4"), "{body}");
        assert!(body.contains("\"spin_budget\":null"), "{body}");

        let mut cfg = plane.config();
        cfg.workers = 2;
        plane.apply(cfg).unwrap();
        let resp = http_get(admin.addr(), "/config").unwrap();
        let body = body_str(&resp).to_string();
        assert!(body.contains("\"generation\":1"), "{body}");
        assert!(body.contains("\"workers\":2"), "{body}");
        admin.shutdown();
    }

    #[test]
    fn post_config_applies_a_patch_atomically() {
        let plane = ControlPlane::new();
        let mut admin = AdminServer::start(plane.clone()).unwrap();
        let resp = http_post(
            admin.addr(),
            "/config",
            br#"{"workers": 3, "admission_threshold": 64}"#.to_vec(),
        )
        .unwrap();
        assert_eq!(resp.status, Status::Ok, "{}", body_str(&resp));
        assert!(body_str(&resp).contains("\"generation\":1"));
        assert_eq!(plane.config().workers, 3);
        assert_eq!(plane.config().admission_threshold, 64);
        // Untouched knobs keep their values.
        assert_eq!(plane.config().retry_after_secs, 1);
        admin.shutdown();
    }

    #[test]
    fn invalid_post_is_rejected_and_old_generation_serves() {
        let plane = ControlPlane::new();
        let mut admin = AdminServer::start(plane.clone()).unwrap();
        for bad in [
            &br#"{"workers": 0}"#[..],
            &br#"{"sweep_interval_ms": 0}"#[..],
            &br#"{"no_such_knob": 1}"#[..],
            &br#"not json at all"#[..],
        ] {
            let resp = http_post(admin.addr(), "/config", bad.to_vec()).unwrap();
            assert_eq!(resp.status, Status::BadRequest, "{}", body_str(&resp));
            assert!(body_str(&resp).contains("\"error\""));
        }
        assert_eq!(plane.generation(), 0, "nothing may have been published");
        assert_eq!(plane.config(), Config::DEFAULT);
        admin.shutdown();
    }

    /// The thirteen `/stats` keys with the value each must carry.
    const STATS_KEYS: [(&str, u64); 13] = [
        ("applied", 1),
        ("rejected", 2),
        ("subscribers_notified", 3),
        ("generation", 4),
        ("offered", 15),
        ("admitted", 10),
        ("shed", 5),
        ("allocated", 101),
        ("reused", 102),
        ("dropped", 103),
        ("poisoned", 104),
        ("live", 105),
        ("recycled", 106),
    ];

    /// The number after `"key":` in `body`, asserting the key occurs once.
    fn only_value(body: &str, key: &str) -> u64 {
        let pat = format!("\"{key}\":");
        assert_eq!(body.matches(&pat).count(), 1, "{key} must appear once: {body}");
        let rest = &body[body.find(&pat).unwrap() + pat.len()..];
        let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
        rest[..end].parse().unwrap_or_else(|_| panic!("{key} has no number: {body}"))
    }

    #[test]
    fn stats_body_has_every_field_once_with_its_value() {
        // Distinct values, so a key paired with another field's value fails.
        let r = ReconfigStats {
            applied: 1,
            rejected: 2,
            subscribers_notified: 3,
            generation: 4,
        };
        let a = AdmissionStats {
            offered: 15,
            admitted: 10,
            shed: 5,
        };
        let al = AllocStats {
            allocated: 101,
            reused: 102,
            dropped: 103,
            poisoned: 104,
            live: 105,
            recycled: 106,
        };
        let body = stats_json(&r, &a, &al);
        for (key, value) in STATS_KEYS {
            assert_eq!(only_value(&body, key), value, "{key}: {body}");
        }
        // Nothing else: the thirteen fields plus the three set names.
        assert_eq!(body.matches("\":").count(), STATS_KEYS.len() + 3, "{body}");

        // The live endpoint serves the same keys, once each.
        let plane = ControlPlane::new();
        let mut admin =
            AdminServer::start_with_stats(plane.clone(), Some(Box::new(move || a))).unwrap();
        plane.apply(plane.config()).unwrap();
        let resp = http_get(admin.addr(), "/stats").unwrap();
        let body = body_str(&resp).to_string();
        for (key, _) in STATS_KEYS {
            only_value(&body, key);
        }
        assert_eq!(only_value(&body, "applied"), 1);
        assert_eq!(only_value(&body, "generation"), 1);
        assert_eq!(only_value(&body, "offered"), 15);
        assert_eq!(only_value(&body, "shed"), 5);
        admin.shutdown();
    }

    #[test]
    fn unknown_route_is_404() {
        let mut admin = AdminServer::start(ControlPlane::new()).unwrap();
        let resp = http_get(admin.addr(), "/nope").unwrap();
        assert_eq!(resp.status, Status::NotFound);
        admin.shutdown();
    }

    #[test]
    fn patch_parser_accepts_null_spin_budget_and_rejects_garbage() {
        let base = Config::DEFAULT;
        let cfg = parse_config_patch(r#"{"spin_budget": 77}"#, base).unwrap();
        assert_eq!(cfg.spin_budget, Some(77));
        let cfg = parse_config_patch(r#"{"spin_budget": null}"#, cfg).unwrap();
        assert_eq!(cfg.spin_budget, None);
        assert!(parse_config_patch(r#"{"workers": "four"}"#, base).is_err());
        assert!(parse_config_patch(r#"{"workers" 4}"#, base).is_err());
        assert!(parse_config_patch("", base).is_err());
        // Empty object is a valid no-op patch.
        assert_eq!(parse_config_patch("{}", base).unwrap(), base);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut admin = AdminServer::start(ControlPlane::new()).unwrap();
        admin.shutdown();
        admin.shutdown();
    }
}
