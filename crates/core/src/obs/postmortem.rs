//! # `obs::postmortem` — the panic black box
//!
//! A long fuzz soak or benchmark run that dies with a panic loses the
//! most valuable evidence: *where in the pipeline* the panic fired and
//! *what the engine looked like* just before. This module is the
//! flight-recorder black box for that case, in two halves:
//!
//! 1. **Capture** ([`arm`]): a `std::panic` hook that runs *before*
//!    unwinding destroys the open [`crate::obs::span::SpanGuard`]s, so
//!    it can snapshot the panic message, location, thread, and the open
//!    span stack ([`crate::obs::span::open_spans`]) into a process-wide
//!    slot. The hook is deliberately tiny and allocation-light; it
//!    never touches the engine (which may be mid-mutation).
//! 2. **Dump** ([`write_blackbox`]): the driver wraps its workload in
//!    `catch_unwind`; on `Err` it combines the capture with whatever it
//!    can still read — the obs hub's flight-recorder tail and the last
//!    `mem-report` — and writes one JSONL black-box file. Each line is
//!    a self-describing `{"kind": ...}` record so partial files are
//!    still parseable line by line.
//!
//! Repeated panics (a fuzz shrink loop triggers hundreds) each
//! overwrite the slot: the black box always describes the *last* one.
//! `arm(false)` doubles as the conformance lab's panic silencer — it
//! replaces the default printing hook, so expected panics stay quiet
//! while still being captured.

use crate::obs::json::quote;
use crate::obs::span;
use std::io::Write;
use std::sync::Mutex;

/// What the panic hook snapshots before the stack unwinds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PanicCapture {
    /// The panic payload rendered to a string (`&str`/`String`
    /// payloads; anything else becomes `"<non-string panic payload>"`).
    pub message: String,
    /// `file:line` of the panic site, when the runtime provides it.
    pub location: String,
    /// Name of the panicking thread.
    pub thread: String,
    /// The open span stack at panic time, outermost first.
    pub open_spans: Vec<String>,
}

static LAST_PANIC: Mutex<Option<PanicCapture>> = Mutex::new(None);

/// Installs the capture hook. `echo = true` additionally prints a
/// one-line notice to stderr per panic; `echo = false` is fully silent
/// (the conformance lab's mode — shrink loops panic on purpose).
/// Calling it again just replaces the hook; the capture slot is shared.
pub fn arm(echo: bool) {
    std::panic::set_hook(Box::new(move |info| {
        let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = info.payload().downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        let location = info
            .location()
            .map(|l| format!("{}:{}", l.file(), l.line()))
            .unwrap_or_default();
        let thread = std::thread::current()
            .name()
            .unwrap_or("<unnamed>")
            .to_string();
        let capture = PanicCapture {
            message,
            location,
            thread,
            open_spans: span::open_spans(),
        };
        if echo {
            eprintln!(
                "postmortem: panic at {} ({} open spans) — black box will be written on unwind",
                capture.location,
                capture.open_spans.len()
            );
        }
        if let Ok(mut slot) = LAST_PANIC.lock() {
            *slot = Some(capture);
        }
    }));
}

/// The most recent capture, if any panic fired since [`arm`].
pub fn last_capture() -> Option<PanicCapture> {
    LAST_PANIC.lock().ok().and_then(|slot| slot.clone())
}

/// Clears the capture slot (test isolation).
pub fn clear() {
    if let Ok(mut slot) = LAST_PANIC.lock() {
        *slot = None;
    }
}

/// Renders the black-box JSONL content: one `panic` line (from the
/// capture, or a placeholder if the hook never fired), one `trace` line
/// per flight-recorder tail entry, and one `mem-report` line when the
/// driver still has one. Pure function of its inputs — the writing
/// wrapper and the selftest share it.
pub fn blackbox_jsonl(
    capture: Option<&PanicCapture>,
    flight_tail: &[String],
    mem_report_json: Option<&str>,
) -> String {
    let mut out = String::new();
    let placeholder = PanicCapture {
        message: "<no capture: postmortem hook not armed>".to_string(),
        ..PanicCapture::default()
    };
    let cap = capture.unwrap_or(&placeholder);
    let spans: Vec<String> = cap.open_spans.iter().map(|s| quote(s)).collect();
    out.push_str(&format!(
        "{{\"kind\":\"panic\",\"message\":{},\"location\":{},\"thread\":{},\"open_spans\":[{}]}}\n",
        quote(&cap.message),
        quote(&cap.location),
        quote(&cap.thread),
        spans.join(",")
    ));
    for line in flight_tail {
        out.push_str(&format!(
            "{{\"kind\":\"trace\",\"line\":{}}}\n",
            quote(line)
        ));
    }
    if let Some(mem) = mem_report_json {
        // The mem report is already a JSON object; wrap it verbatim.
        out.push_str("{\"kind\":\"mem-report\",\"report\":");
        out.push_str(mem);
        out.push_str("}\n");
    }
    out
}

/// Writes the black box to `path` (truncating). Returns the number of
/// JSONL lines written.
pub fn write_blackbox(
    path: &std::path::Path,
    capture: Option<&PanicCapture>,
    flight_tail: &[String],
    mem_report_json: Option<&str>,
) -> std::io::Result<usize> {
    let content = blackbox_jsonl(capture, flight_tail, mem_report_json);
    let mut f = std::fs::File::create(path)?;
    f.write_all(content.as_bytes())?;
    f.flush()?;
    Ok(content.lines().count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blackbox_renders_parseable_lines() {
        let cap = PanicCapture {
            message: "boom \"quoted\"".to_string(),
            location: "src/x.rs:42".to_string(),
            thread: "main".to_string(),
            open_spans: vec!["Op".to_string(), "Split[0]".to_string()],
        };
        let tail = vec!["0 Op op=insert-edge".to_string()];
        let text = blackbox_jsonl(Some(&cap), &tail, Some("{\"total\":1}"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\":\"panic\""));
        assert!(lines[0].contains("src/x.rs:42"));
        assert!(lines[0].contains("Split[0]"));
        assert!(lines[1].contains("\"kind\":\"trace\""));
        assert!(lines[2].starts_with("{\"kind\":\"mem-report\""));
        assert!(lines[2].contains("\"total\":1"));
    }

    #[test]
    fn missing_capture_still_yields_a_panic_line() {
        let text = blackbox_jsonl(None, &[], None);
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("not armed"));
    }
}
