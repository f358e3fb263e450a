//! Chrome `trace_event` timeline export.
//!
//! Converts a drained [`ObsRecording`] into the JSON Array Format consumed
//! by `chrome://tracing` and [Perfetto]: one track (`tid 0`) for the main
//! thread's store/trigger activity, plus one track per tthread showing its
//! detached bodies and commits as duration slices. Loading the file shows
//! tthread bodies overlapping the main thread's stores — the paper's
//! overlap argument, visible on a timeline.
//!
//! Durations are carried *in* the `BodyEnd`/`CommitDone` payloads, so the
//! exporter never pairs start/end events and is immune to ring drops
//! swallowing one half of a pair.
//!
//! [Perfetto]: https://ui.perfetto.dev

use std::collections::BTreeSet;
use std::fmt::Write as _;

use dtt_core::obs::{EventKind, ObsEvent, ObsRecording};

/// The process id used for every track (one runtime == one process).
const PID: u64 = 1;
/// Track id of the main thread (stores, change detection, trigger fires).
const MAIN_TID: u64 = 0;

/// Converts a tthread index to its trace track id (main thread owns 0).
fn tthread_tid(index: usize) -> u64 {
    index as u64 + 1
}

/// Renders `rec` as Chrome trace JSON (the array format, wrapped in an
/// object with a `traceEvents` key so Perfetto accepts metadata later).
/// `names` optionally labels tthread tracks (index-aligned).
pub fn render(rec: &ObsRecording, names: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |line: String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&line);
    };

    // Track-name metadata first: the main thread, then every tthread seen
    // in the event stream (or named explicitly).
    let mut tids: BTreeSet<usize> = (0..names.len()).collect();
    for event in &rec.events {
        if let Some(id) = event.tthread {
            tids.insert(id.index());
        }
    }
    emit(meta_thread_name(MAIN_TID, "main (stores)"));
    for idx in tids {
        let label = match names.get(idx) {
            Some(name) if !name.is_empty() => format!("tthread {idx}: {name}"),
            _ => format!("tthread {idx}"),
        };
        emit(meta_thread_name(tthread_tid(idx), &label));
    }

    for event in &rec.events {
        if let Some(line) = event_json(event) {
            emit(line);
        }
    }
    let _ = write!(
        out,
        "\n],\n\"displayTimeUnit\":\"ns\",\n\"otherData\":{{\"issued\":{},\"dropped\":{}}}}}",
        rec.issued, rec.dropped
    );
    out.push('\n');
    out
}

fn meta_thread_name(tid: u64, name: &str) -> String {
    format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape(name)
    )
}

/// Microseconds with nanosecond precision (Chrome's `ts`/`dur` unit).
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// One trace line per event, or `None` for events that only feed the
/// collector (`BodyStart`/`CommitBegin` anchor nothing here because the
/// matching end event carries the duration).
fn event_json(event: &ObsEvent) -> Option<String> {
    let tid = match event.tthread {
        Some(id) => tthread_tid(id.index()),
        None => MAIN_TID,
    };
    let ts = us(event.t_ns);
    let kind = event.kind;
    let payload = event.payload;
    let line = match kind {
        // Duration slices: ts is the *end* timestamp, payload the span.
        EventKind::BodyEnd => complete(
            tid,
            "body",
            event.t_ns,
            payload,
            &format!("{{\"dur_ns\":{payload}}}"),
        ),
        EventKind::CommitDone => complete(
            tid,
            "commit",
            event.t_ns,
            payload,
            &format!("{{\"dur_ns\":{payload}}}"),
        ),
        // Instants on the owning track.
        EventKind::Store => instant(tid, "store.silent", ts, &format!("{{\"addr\":{payload}}}")),
        EventKind::ChangeDetected => {
            instant(tid, "store.changed", ts, &format!("{{\"addr\":{payload}}}"))
        }
        EventKind::TriggerFired => {
            instant(tid, "trigger.fired", ts, &format!("{{\"addr\":{payload}}}"))
        }
        EventKind::TriggerEnqueued => instant(
            tid,
            "trigger.enqueued",
            ts,
            &format!("{{\"queue_len\":{payload}}}"),
        ),
        EventKind::Coalesced => instant(tid, "trigger.coalesced", ts, "{}"),
        EventKind::QueueOverflow => instant(
            tid,
            "queue.overflow",
            ts,
            &format!("{{\"capacity\":{payload}}}"),
        ),
        EventKind::CommitConflict => instant(
            tid,
            "commit.conflict",
            ts,
            &format!("{{\"addr\":{payload}}}"),
        ),
        EventKind::Join => instant(tid, "join", ts, &format!("{{\"outcome\":{payload}}}")),
        EventKind::Skip => instant(tid, "join.skip", ts, "{}"),
        EventKind::BodyTimeout => instant(
            tid,
            "body.timeout",
            ts,
            &format!("{{\"elapsed_ns\":{payload}}}"),
        ),
        EventKind::RetryExhausted => instant(
            tid,
            "commit.retry_exhausted",
            ts,
            &format!("{{\"retry_cap\":{payload}}}"),
        ),
        EventKind::FilterSkip => {
            instant(tid, "filter.skip", ts, &format!("{{\"addr\":{payload}}}"))
        }
        EventKind::CascadeFired => instant(
            tid,
            "cascade.fired",
            ts,
            &format!("{{\"wave_depth\":{payload}}}"),
        ),
        EventKind::CascadeCutoff => instant(
            tid,
            "cascade.cutoff",
            ts,
            &format!("{{\"wave_depth\":{payload}}}"),
        ),
        EventKind::BodyStart | EventKind::CommitBegin => return None,
    };
    Some(line)
}

/// A `ph:"X"` complete event ending at `end_ns` and lasting `dur_ns`.
fn complete(tid: u64, name: &str, end_ns: u64, dur_ns: u64, args: &str) -> String {
    let start_ns = end_ns.saturating_sub(dur_ns);
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{PID},\"tid\":{tid},\
         \"ts\":{ts},\"dur\":{dur},\"args\":{args}}}",
        ts = us(start_ns),
        dur = us(dur_ns),
    )
}

/// A `ph:"i"` thread-scoped instant event.
fn instant(tid: u64, name: &str, ts: f64, args: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{PID},\
         \"tid\":{tid},\"ts\":{ts},\"args\":{args}}}"
    )
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Validation: a minimal JSON parser plus trace-schema checks, shared by the
// crate's tests and the CI job that vets `dtt obs timeline` output.
// ---------------------------------------------------------------------------

/// A parsed JSON value (just enough for trace validation).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, widened to `f64`.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (rejects trailing garbage).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hex = bytes
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {pos}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (input is a &str, so the
                        // byte stream is valid UTF-8).
                        let start = *pos;
                        *pos += 1;
                        while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                            *pos += 1;
                        }
                        s.push_str(std::str::from_utf8(&bytes[start..*pos]).unwrap());
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).unwrap();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
    }
}

/// Validates that `text` is a well-formed Chrome trace: parses as JSON,
/// has a `traceEvents` array, every event carries `name`/`ph`/`pid`/`tid`,
/// `X` events also carry numeric `ts` and `dur >= 0`, and at least one
/// tthread track exists. Returns the number of trace events.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut tthread_tracks = 0usize;
    for (i, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        event
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        let tid = event
            .get("tid")
            .and_then(Json::as_num)
            .ok_or(format!("event {i}: missing tid"))?;
        event
            .get("pid")
            .and_then(Json::as_num)
            .ok_or(format!("event {i}: missing pid"))?;
        match ph {
            "M" => {
                if tid > 0.0 {
                    tthread_tracks += 1;
                }
            }
            "X" => {
                let ts = event
                    .get("ts")
                    .and_then(Json::as_num)
                    .ok_or(format!("event {i}: X without ts"))?;
                let dur = event
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or(format!("event {i}: X without dur"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i}: negative ts/dur"));
                }
            }
            "i" => {
                event
                    .get("ts")
                    .and_then(Json::as_num)
                    .ok_or(format!("event {i}: i without ts"))?;
                // Failure instants are always attributed to a tthread track;
                // one on the main track would mean mis-attributed blame.
                if let Some(name) = event.get("name").and_then(Json::as_str) {
                    if matches!(name, "body.timeout" | "commit.retry_exhausted") && tid == 0.0 {
                        return Err(format!("event {i}: failure instant {name:?} on main track"));
                    }
                }
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    if tthread_tracks == 0 {
        return Err("no tthread tracks in trace".into());
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtt_core::TthreadId;

    fn ev(seq: u64, t_ns: u64, kind: EventKind, tthread: Option<u32>, payload: u64) -> ObsEvent {
        ObsEvent {
            seq,
            t_ns,
            kind,
            tthread: tthread.map(TthreadId::new),
            payload,
        }
    }

    fn sample() -> ObsRecording {
        ObsRecording {
            events: vec![
                ev(0, 1_000, EventKind::ChangeDetected, None, 0x40),
                ev(1, 1_100, EventKind::TriggerFired, Some(0), 0x40),
                ev(2, 1_200, EventKind::TriggerEnqueued, Some(0), 1),
                ev(3, 2_000, EventKind::BodyStart, Some(0), 0),
                ev(4, 52_000, EventKind::BodyEnd, Some(0), 50_000),
                ev(5, 53_000, EventKind::CommitBegin, Some(0), 3),
                ev(6, 58_000, EventKind::CommitDone, Some(0), 5_000),
                ev(7, 60_000, EventKind::Join, Some(0), 1),
            ],
            issued: 8,
            dropped: 0,
            delivered: 8,
            rings: Vec::new(),
        }
    }

    #[test]
    fn trace_validates_and_counts_events() {
        let text = render(&sample(), &["worker".to_string()]);
        // 2 thread_name metadata + 6 visible events (BodyStart/CommitBegin
        // are folded into their duration slices).
        assert_eq!(validate_chrome_trace(&text), Ok(8));
    }

    #[test]
    fn body_slice_has_correct_start_and_duration() {
        let text = render(&sample(), &[]);
        let doc = parse_json(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let body = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("body"))
            .expect("body slice present");
        // BodyEnd at 52 µs with dur 50 µs → slice starts at 2 µs.
        assert_eq!(body.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(body.get("ts").unwrap().as_num(), Some(2.0));
        assert_eq!(body.get("dur").unwrap().as_num(), Some(50.0));
        assert_eq!(body.get("tid").unwrap().as_num(), Some(1.0));
    }

    #[test]
    fn main_thread_and_tthread_tracks_are_separate() {
        let text = render(&sample(), &["calc".to_string()]);
        let doc = parse_json(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let store = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("store.changed"))
            .unwrap();
        assert_eq!(store.get("tid").unwrap().as_num(), Some(0.0));
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(names, vec!["main (stores)", "tthread 0: calc"]);
    }

    #[test]
    fn failure_events_render_as_tthread_instants() {
        let rec = ObsRecording {
            events: vec![
                ev(0, 1_000, EventKind::BodyTimeout, Some(0), 7_000),
                ev(1, 2_000, EventKind::RetryExhausted, Some(0), 8),
            ],
            issued: 2,
            dropped: 0,
            delivered: 2,
            rings: Vec::new(),
        };
        let text = render(&rec, &["victim".to_string()]);
        assert!(validate_chrome_trace(&text).is_ok());
        let doc = parse_json(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        for (name, arg_key, arg_val) in [
            ("body.timeout", "elapsed_ns", 7_000.0),
            ("commit.retry_exhausted", "retry_cap", 8.0),
        ] {
            let e = events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(e.get("ph").unwrap().as_str(), Some("i"));
            assert_eq!(e.get("tid").unwrap().as_num(), Some(1.0));
            assert_eq!(
                e.get("args").unwrap().get(arg_key).unwrap().as_num(),
                Some(arg_val)
            );
        }
    }

    #[test]
    fn validator_rejects_failure_instants_on_the_main_track() {
        let bad = "{\"traceEvents\":[\
                   {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
                    \"args\":{\"name\":\"tthread 0\"}},\
                   {\"name\":\"body.timeout\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                    \"tid\":0,\"ts\":1.0,\"args\":{}}]}";
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("failure instant"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        // Valid JSON but no tthread track.
        let lonely = "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\",\
                      \"pid\":1,\"tid\":0,\"args\":{\"name\":\"main\"}}]}";
        assert_eq!(
            validate_chrome_trace(lonely),
            Err("no tthread tracks in trace".to_string())
        );
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let doc = parse_json(
            "{\"a\": [1, 2.5, -3e2, true, false, null], \"b\": {\"c\": \"x\\n\\\"y\\u0041\"}}",
        )
        .unwrap();
        let a = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_num(), Some(1.0));
        assert_eq!(a[2].as_num(), Some(-300.0));
        assert_eq!(a[3], Json::Bool(true));
        assert_eq!(a[5], Json::Null);
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\n\"yA")
        );
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("[1,]").is_err());
    }

    #[test]
    fn empty_recording_renders_but_fails_validation() {
        let text = render(&ObsRecording::default(), &[]);
        // Parses fine, but a trace with no tthread tracks is flagged.
        assert!(parse_json(&text).is_ok());
        assert!(validate_chrome_trace(&text).is_err());
    }
}
