//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! one span around every call into a layer's public function. They stay
//! in memory while the benchmark runs and are written once, as a Chrome
//! trace, when it ends. Recording is off unless `--trace 1` switched it
//! on; off, [`span`] is a plain call.

use std::cell::RefCell;
use std::time::Instant;

/// One finished span.
struct Span {
    id: u64,
    /// The span open on this thread when this one started, if any.
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    epoch: Option<Instant>,
    next_id: u64,
    open: Vec<u64>,
    done: Vec<Span>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Switches recording on or off for spans opened from now on.
pub fn set_recording(on: bool) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.epoch.get_or_insert_with(Instant::now);
    });
}

/// Runs `f`; while recording, wraps it in a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let id = r.next_id;
        r.next_id += 1;
        let parent = r.open.last().copied();
        r.open.push(id);
        Some((id, parent, Instant::now()))
    });
    let out = f();
    if let Some((id, parent, start)) = opened {
        let end = Instant::now();
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.open.pop();
            let epoch = r.epoch.expect("set_recording installs the epoch");
            r.done.push(Span {
                id,
                parent,
                name,
                start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
                dur_ns: (end - start).as_nanos() as u64,
            });
        });
    }
    out
}

/// Writes every recorded span to `path` as a Chrome trace (complete
/// events, microsecond timestamps, the parent id in `args`).
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let body = REC.with(|r| {
        let r = r.borrow();
        let events: Vec<String> = r
            .done
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                    s.id,
                    parent
                )
            })
            .collect();
        format!("[\n{}\n]\n", events.join(",\n"))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(body.as_bytes())?;
    f.flush()
}
