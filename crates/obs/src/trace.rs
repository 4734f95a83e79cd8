//! The env-gated structured trace stream.
//!
//! Set `DSIDX_TRACE=<path>` to append JSON-lines events to a file, or
//! `DSIDX_TRACE=stderr` to write them to standard error. Unset (or set to
//! the empty string or `0`), tracing is off and every call site pays one
//! relaxed atomic load — the `obs` bench experiment pins that fast path.
//!
//! Each line is one JSON object with two fixed fields and any number of
//! event-specific ones:
//!
//! ```json
//! {"ts_us":1234,"event":"broadcast","pool_size":8,"nanos":51234}
//! ```
//!
//! * `ts_us` — microseconds since the trace stream was initialized
//!   (monotonic within a process).
//! * `event` — the event kind (`build_phase`, `broadcast`,
//!   `error_slot`, `query`, ...).
//!
//! Tests and benchmarks can [`route_to_file`]/[`disable`] the stream
//! programmatically; the environment variable is read once, on first use.

use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static TRACE_STATE: AtomicU8 = AtomicU8::new(UNINIT);

enum Sink {
    Stderr,
    // Each event is written unbuffered in one `write_all` — a buffered
    // writer would strand its tail when a short-lived process exits (the
    // global stream is never dropped), and one small write per event is
    // the cost profile JSON-lines tracing promises anyway.
    File(std::fs::File),
}

struct Stream {
    sink: Sink,
    epoch: Instant,
}

fn stream() -> &'static Mutex<Option<Stream>> {
    static STREAM: OnceLock<Mutex<Option<Stream>>> = OnceLock::new();
    STREAM.get_or_init(|| Mutex::new(None))
}

#[cold]
fn init_from_env() -> bool {
    let target = std::env::var("DSIDX_TRACE").unwrap_or_default();
    match target.as_str() {
        "" | "0" => {
            set_state(None);
            false
        }
        "stderr" | "-" => {
            set_state(Some(Sink::Stderr));
            true
        }
        path => match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(f) => {
                set_state(Some(Sink::File(f)));
                true
            }
            Err(e) => {
                eprintln!("dsidx-obs: cannot open DSIDX_TRACE={path}: {e}; tracing disabled");
                set_state(None);
                false
            }
        },
    }
}

fn set_state(sink: Option<Sink>) {
    let mut guard = stream().lock().expect("trace stream poisoned");
    let on = sink.is_some();
    *guard = sink.map(|sink| Stream {
        sink,
        epoch: Instant::now(),
    });
    // Publish the flag only after the sink is in place so an `emit` racing
    // with initialization never observes ON with an empty stream (it would
    // silently drop the event, which is also acceptable).
    TRACE_STATE.store(if on { ON } else { OFF }, Ordering::Release);
}

/// `true` when the trace stream is on. One relaxed atomic load once
/// initialized — the whole cost of a disabled trace point.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    match TRACE_STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

/// Routes the trace stream to `path` (append), overriding the
/// environment. Returns an error if the file cannot be opened.
///
/// # Errors
/// Propagates the `open` failure.
pub fn route_to_file(path: &std::path::Path) -> std::io::Result<()> {
    let f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    set_state(Some(Sink::File(f)));
    Ok(())
}

/// Turns the trace stream off (flushing first), overriding the
/// environment.
pub fn disable() {
    flush();
    set_state(None);
}

/// Flushes the trace sink. Events are written unbuffered, so this only
/// asks the OS to sync file sinks; callers that just need every emitted
/// line visible to readers need not call it.
pub fn flush() {
    if let Some(stream) = stream().lock().expect("trace stream poisoned").as_mut() {
        if let Sink::File(f) = &mut stream.sink {
            let _ = f.sync_data();
        }
    }
}

/// One field value in a trace event.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// An unsigned integer, rendered as a JSON number.
    U64(u64),
    /// A float, rendered as a JSON number (`null` if non-finite).
    F64(f64),
    /// A string, rendered JSON-escaped.
    Str(&'a str),
    /// A boolean.
    Bool(bool),
}

/// Appends `s` to `out` as a quoted JSON string.
pub(crate) fn push_json_str(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Emits one JSON-lines event with the given kind and fields. A no-op
/// (one relaxed load) when tracing is off; call sites that must format
/// field values should guard on [`enabled`] first so the formatting cost
/// is only paid when the stream is live.
pub fn emit(event: &str, fields: &[(&str, Value<'_>)]) {
    if !enabled() {
        return;
    }
    let mut guard = stream().lock().expect("trace stream poisoned");
    let Some(stream) = guard.as_mut() else {
        return;
    };
    let ts_us = u64::try_from(stream.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
    let mut line = String::with_capacity(64);
    line.push_str("{\"ts_us\":");
    line.push_str(&ts_us.to_string());
    line.push_str(",\"event\":");
    push_json_str(event, &mut line);
    for (key, value) in fields {
        line.push(',');
        push_json_str(key, &mut line);
        line.push(':');
        match value {
            Value::U64(n) => line.push_str(&n.to_string()),
            Value::F64(f) if f.is_finite() => line.push_str(&format!("{f}")),
            Value::F64(_) => line.push_str("null"),
            Value::Str(s) => push_json_str(s, &mut line),
            Value::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
        }
    }
    line.push_str("}\n");
    match &mut stream.sink {
        Sink::Stderr => {
            let _ = std::io::stderr().lock().write_all(line.as_bytes());
        }
        Sink::File(w) => {
            let _ = w.write_all(line.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trace stream is process-global, so every routing test lives in
    // this one serialized test (Rust runs tests in threads within one
    // binary; two tests re-routing the stream would race).
    #[test]
    fn trace_stream_routing_and_format() {
        let dir = std::env::temp_dir().join(format!("dsidx_obs_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let _ = std::fs::remove_file(&path);

        route_to_file(&path).unwrap();
        assert!(enabled());
        emit(
            "unit_test",
            &[
                ("n", Value::U64(7)),
                ("ratio", Value::F64(0.5)),
                ("name", Value::Str("he\"llo\n")),
                ("ok", Value::Bool(true)),
                ("bad", Value::F64(f64::NAN)),
            ],
        );
        emit("second", &[]);
        disable();
        assert!(!enabled());
        // Off fast path: emitting with the stream disabled writes nothing.
        emit("dropped", &[("n", Value::U64(1))]);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"ts_us\":"));
        assert!(lines[0].ends_with(
            ",\"event\":\"unit_test\",\"n\":7,\"ratio\":0.5,\"name\":\"he\\\"llo\\n\",\"ok\":true,\"bad\":null}"
        ));
        assert!(lines[1].contains("\"event\":\"second\"}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
