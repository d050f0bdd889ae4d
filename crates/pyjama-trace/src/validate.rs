//! Well-formedness checks for exported Chrome trace JSON.
//!
//! Used by the CI smoke step (`trace_check` binary) and the root
//! `reactor` and `pj_trace_flow` integration tests. The checks enforced:
//!
//! 1. the file parses as a `{"traceEvents": [...]}` document;
//! 2. every flow `id` that starts (`"ph":"s"`) also finishes (`"ph":"f"`),
//!    and vice versa — no dangling arrows;
//! 3. within each thread (`tid`), slice timestamps are monotone
//!    non-decreasing in file order (ring order == time order per thread).
//!
//! The parser handles the JSON subset our exporter produces (flat objects,
//! string/number values, one level of nested `args`); it deliberately does
//! not try to be a general JSON library — the repo has no serde and the
//! exporter is the only producer.

use std::collections::HashMap;

/// One parsed trace event — only the fields the checks need.
#[derive(Clone, Debug, Default)]
pub struct ParsedEvent {
    pub ph: String,
    pub name: String,
    pub tid: Option<i64>,
    pub ts: Option<f64>,
    pub dur: Option<f64>,
    pub id: Option<u64>,
    /// `args.trace_id`, when present.
    pub trace_id: Option<u64>,
    /// Decoded `arg` operand from `args`, when present.
    pub arg: Option<u64>,
}

/// Aggregate numbers from a successful validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Summary {
    /// Slice/instant events (`ph` of `X`, `B`, `E`, `i`).
    pub events: usize,
    /// Distinct flow ids with both a start and a finish.
    pub flows: usize,
    /// Distinct `tid`s seen on slice events.
    pub threads: usize,
}

/// Parses `json` and runs the well-formedness checks. Returns a
/// [`Summary`] or a message describing the first violation.
pub fn validate_chrome_trace(json: &str) -> Result<Summary, String> {
    let events = parse_trace_events(json)?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }

    // Check 2: flow begin/end matching.
    let mut starts: HashMap<u64, usize> = HashMap::new();
    let mut finishes: HashMap<u64, usize> = HashMap::new();
    for ev in &events {
        match ev.ph.as_str() {
            "s" => {
                let id = ev.id.ok_or("flow start without id")?;
                *starts.entry(id).or_default() += 1;
            }
            "f" => {
                let id = ev.id.ok_or("flow finish without id")?;
                *finishes.entry(id).or_default() += 1;
            }
            _ => {}
        }
    }
    for (id, n) in &starts {
        let m = finishes.get(id).copied().unwrap_or(0);
        if *n != m {
            return Err(format!("flow id {id}: {n} start(s) but {m} finish(es)"));
        }
    }
    for id in finishes.keys() {
        if !starts.contains_key(id) {
            return Err(format!("flow id {id}: finish without start"));
        }
    }

    // Check 3: per-thread monotone timestamps over slice events.
    let mut last_ts: HashMap<i64, f64> = HashMap::new();
    let mut slice_events = 0usize;
    for ev in &events {
        if !matches!(ev.ph.as_str(), "X" | "B" | "E" | "i") {
            continue;
        }
        slice_events += 1;
        let tid = ev.tid.ok_or_else(|| format!("{} event without tid", ev.ph))?;
        let ts = ev.ts.ok_or_else(|| format!("{} event without ts", ev.ph))?;
        if let Some(prev) = last_ts.get(&tid) {
            if ts < *prev {
                return Err(format!(
                    "tid {tid}: timestamp went backwards ({ts} after {prev})"
                ));
            }
        }
        last_ts.insert(tid, ts);
    }

    Ok(Summary {
        events: slice_events,
        flows: starts.len(),
        threads: last_ts.len(),
    })
}

/// Extracts the event objects of a `{"traceEvents": [...]}` document.
pub fn parse_trace_events(json: &str) -> Result<Vec<ParsedEvent>, String> {
    let start = json
        .find("\"traceEvents\"")
        .ok_or("no traceEvents key")?;
    let rest = &json[start..];
    let bracket = rest.find('[').ok_or("traceEvents is not an array")?;
    let body = &rest[bracket + 1..];

    let mut events = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut obj_start = None;
    for (i, c) in body.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    obj_start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or("unbalanced braces in traceEvents")?;
                if depth == 0 {
                    let obj = &body[obj_start.take().ok_or("brace underflow")?..=i];
                    events.push(parse_event_object(obj)?);
                }
            }
            ']' if depth == 0 => return Ok(events),
            _ => {}
        }
    }
    Err("traceEvents array never closed".into())
}

/// Parses one flat event object (with at most one nested `args` object).
fn parse_event_object(obj: &str) -> Result<ParsedEvent, String> {
    let mut ev = ParsedEvent::default();
    for (path, key, value) in iter_fields(obj)? {
        match (path.as_deref(), key.as_str()) {
            (None, "ph") => ev.ph = unquote(&value)?,
            (None, "name") => ev.name = unquote(&value)?,
            (None, "tid") => ev.tid = Some(parse_num(&value)? as i64),
            (None, "ts") => ev.ts = Some(parse_num(&value)?),
            (None, "dur") => ev.dur = Some(parse_num(&value)?),
            (None, "id") => ev.id = Some(parse_num(&value)? as u64),
            (Some("args"), "trace_id") => ev.trace_id = Some(parse_num(&value)? as u64),
            (Some("args"), "arg") => ev.arg = Some(parse_num(&value)? as u64),
            _ => {}
        }
    }
    if ev.ph.is_empty() {
        return Err(format!("event without ph: {obj}"));
    }
    Ok(ev)
}

/// Yields `(nested_object_name, key, raw_value)` triples for a flat object
/// with at most one nesting level.
#[allow(clippy::type_complexity)]
fn iter_fields(obj: &str) -> Result<Vec<(Option<String>, String, String)>, String> {
    let mut out = Vec::new();
    let bytes = obj.as_bytes();
    let mut i = 0usize;
    let mut path: Option<String> = None;
    // skip opening '{'
    while i < bytes.len() && bytes[i] != b'{' {
        i += 1;
    }
    i += 1;
    loop {
        // find next key (a quoted string) or a closing brace
        while i < bytes.len() && !matches!(bytes[i], b'"' | b'}') {
            i += 1;
        }
        if i >= bytes.len() {
            return Err("truncated object".into());
        }
        if bytes[i] == b'}' {
            if path.take().is_none() {
                return Ok(out);
            }
            i += 1;
            continue;
        }
        let (key, after) = read_string(obj, i)?;
        i = after;
        while i < bytes.len() && bytes[i] != b':' {
            i += 1;
        }
        i += 1; // past ':'
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            return Err("truncated value".into());
        }
        if bytes[i] == b'{' {
            path = Some(key);
            i += 1;
            continue;
        }
        let (value, after) = if bytes[i] == b'"' {
            let (s, after) = read_string(obj, i)?;
            (format!("\"{s}\""), after)
        } else {
            let mut j = i;
            while j < bytes.len() && !matches!(bytes[j], b',' | b'}' | b']') {
                j += 1;
            }
            (obj[i..j].trim().to_string(), j)
        };
        out.push((path.clone(), key, value));
        i = after;
    }
}

/// Reads a JSON string starting at the opening quote; returns its raw
/// contents (escape sequences preserved) and the index just past the
/// closing quote.
fn read_string(s: &str, start: usize) -> Result<(String, usize), String> {
    let bytes = s.as_bytes();
    debug_assert_eq!(bytes[start], b'"');
    let mut i = start + 1;
    let mut out = String::new();
    let mut escaped = false;
    while i < bytes.len() {
        let c = s[i..].chars().next().unwrap();
        if escaped {
            out.push(c);
            escaped = false;
        } else if c == '\\' {
            out.push(c);
            escaped = true;
        } else if c == '"' {
            return Ok((out, i + 1));
        } else {
            out.push(c);
        }
        i += c.len_utf8();
    }
    Err("unterminated string".into())
}

fn unquote(v: &str) -> Result<String, String> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("expected string, got {v}"))
    }
}

fn parse_num(v: &str) -> Result<f64, String> {
    v.trim()
        .parse::<f64>()
        .map_err(|e| format!("bad number {v:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"traceEvents":[
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"w0"}},
{"name":"region_posted(injector)","cat":"pyjama","ph":"X","pid":1,"tid":1,"ts":1.000,"dur":1.000,"args":{"trace_id":7,"arg":0}},
{"name":"region_run","cat":"pyjama","ph":"X","pid":1,"tid":2,"ts":3.000,"dur":6.000,"args":{"trace_id":7,"arg":0}},
{"name":"flow","cat":"pyjama","ph":"s","id":7,"pid":1,"tid":1,"ts":1.500},
{"name":"flow","cat":"pyjama","ph":"f","id":7,"pid":1,"tid":2,"ts":3.500,"bp":"e"}
],"displayTimeUnit":"ms"}
"#;

    #[test]
    fn accepts_well_formed_trace() {
        let s = validate_chrome_trace(GOOD).expect("valid");
        assert_eq!(s.flows, 1);
        assert_eq!(s.events, 2);
        assert_eq!(s.threads, 2);
    }

    #[test]
    fn rejects_dangling_flow_start() {
        let bad = GOOD.replace("\"ph\":\"f\"", "\"ph\":\"t\"");
        let err = validate_chrome_trace(&bad).unwrap_err();
        assert!(err.contains("flow id 7"), "{err}");
    }

    #[test]
    fn rejects_backwards_timestamps() {
        let bad = GOOD.replace("\"tid\":2,\"ts\":3.000", "\"tid\":1,\"ts\":0.500");
        let err = validate_chrome_trace(&bad).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn rejects_empty_and_garbage() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        assert!(validate_chrome_trace("not json at all").is_err());
    }

    #[test]
    fn parses_nested_args_fields() {
        let evs = parse_trace_events(GOOD).unwrap();
        let x = evs.iter().find(|e| e.ph == "X").unwrap();
        assert_eq!(x.trace_id, Some(7));
        assert_eq!(x.arg, Some(0));
        assert_eq!(x.name, "region_posted(injector)");
    }
}
