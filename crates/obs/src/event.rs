//! The structured JSONL event sink.
//!
//! Simulators emit one JSON object per line — update deliveries, merge
//! appends / out-of-order undo-redo repairs, partition cuts and heals,
//! crashes and recoveries — and `shard-trace` (or anything that speaks
//! JSONL) summarizes them offline. The sink is `Mutex`-guarded and
//! shared by `Arc`, so one trace file can collect events from an entire
//! cluster run; an in-memory variant backs tests.
//!
//! Every event carries at least `"event"` (its name); emitters attach
//! whatever fields describe the occurrence via the [`EventBuilder`].

use crate::json::ObjWriter;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

enum Backend {
    File(BufWriter<File>),
    Memory(Vec<u8>),
}

/// A shared, thread-safe JSONL event writer.
pub struct EventSink {
    backend: Mutex<Backend>,
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSink").finish_non_exhaustive()
    }
}

impl EventSink {
    /// A sink writing to `path` (parent directories are created;
    /// an existing file is truncated).
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Arc<EventSink>> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        Ok(Arc::new(EventSink {
            backend: Mutex::new(Backend::File(BufWriter::new(File::create(path)?))),
        }))
    }

    /// A sink accumulating in memory (drain with
    /// [`EventSink::drain_to_string`]).
    pub fn in_memory() -> Arc<EventSink> {
        Arc::new(EventSink {
            backend: Mutex::new(Backend::Memory(Vec::new())),
        })
    }

    /// Starts an event named `name`; finish with [`EventBuilder::emit`].
    pub fn event(&self, name: &str) -> EventBuilder<'_> {
        EventBuilder {
            sink: self,
            obj: ObjWriter::new().str("event", name),
        }
    }

    /// Writes one pre-rendered JSONL line (the caller vouches `line` is
    /// one valid JSON object with no newline). [`EventBuilder::emit`]
    /// lands here; emitters that already hold a rendered line (e.g. the
    /// kernel's live monitor re-emitting `StreamRow` JSON) skip the
    /// builder.
    pub fn write_line(&self, line: &str) {
        let mut g = self
            .backend
            .lock()
            .expect("event sink mutex poisoned: an emitter panicked mid-write");
        let res = match &mut *g {
            Backend::File(w) => w
                .write_all(line.as_bytes())
                .and_then(|()| w.write_all(b"\n")),
            Backend::Memory(v) => {
                v.extend_from_slice(line.as_bytes());
                v.push(b'\n');
                Ok(())
            }
        };
        if let Err(e) = res {
            // Tracing must never take the simulation down.
            eprintln!("shard-obs: event write failed: {e}");
        }
    }

    /// Flushes buffered output to the underlying file (no-op in memory).
    pub fn flush(&self) {
        let mut g = self
            .backend
            .lock()
            .expect("event sink mutex poisoned: an emitter panicked mid-write");
        if let Backend::File(w) = &mut *g {
            if let Err(e) = w.flush() {
                eprintln!("shard-obs: event flush failed: {e}");
            }
        }
    }

    /// Returns and clears everything written so far (in-memory sinks;
    /// file sinks return an empty string).
    pub fn drain_to_string(&self) -> String {
        let mut g = self
            .backend
            .lock()
            .expect("event sink mutex poisoned: an emitter panicked mid-write");
        match &mut *g {
            Backend::Memory(v) => String::from_utf8(std::mem::take(v))
                .expect("sink lines are built from &str and are valid UTF-8"),
            Backend::File(_) => String::new(),
        }
    }
}

impl Drop for EventSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Builder for one event line. All field methods delegate to
/// [`ObjWriter`]; `emit()` writes the line.
#[must_use = "an event is only written when .emit() is called"]
pub struct EventBuilder<'a> {
    sink: &'a EventSink,
    obj: ObjWriter,
}

impl EventBuilder<'_> {
    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.obj = self.obj.str(k, v);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.obj = self.obj.u64(k, v);
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.obj = self.obj.bool(k, v);
        self
    }

    /// Writes the event as one JSONL line.
    pub fn emit(self) {
        self.sink.write_line(&self.obj.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn events_are_one_json_object_per_line() {
        let sink = EventSink::in_memory();
        sink.event("deliver").u64("t", 17).str("to", "n1").emit();
        sink.event("merge.out_of_order")
            .u64("replayed", 5)
            .bool("dup", false)
            .emit();
        let text = sink.drain_to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = parse(lines[0]).expect("line 0 is valid JSON");
        assert_eq!(first.get("event").and_then(Json::as_str), Some("deliver"));
        assert_eq!(first.get("t").and_then(Json::as_u64), Some(17));
        let second = parse(lines[1]).expect("line 1 is valid JSON");
        assert_eq!(second.get("dup"), Some(&Json::Bool(false)));
        // Drained: nothing left.
        assert_eq!(sink.drain_to_string(), "");
    }

    #[test]
    fn hostile_strings_stay_one_line() {
        let sink = EventSink::in_memory();
        let evil = "line\nbreak\t\"quote\"\\slash\u{0}";
        sink.event("x").str("payload", evil).emit();
        let text = sink.drain_to_string();
        assert_eq!(text.lines().count(), 1, "newline was escaped");
        let v = parse(text.lines().next().expect("one line")).expect("valid JSON");
        assert_eq!(v.get("payload").and_then(Json::as_str), Some(evil));
    }

    #[test]
    fn file_sink_round_trips() {
        let dir = std::env::temp_dir().join(format!("shard-obs-test-{}", std::process::id()));
        let path = dir.join("nested").join("t.jsonl");
        {
            let sink = EventSink::to_file(&path).expect("create sink");
            sink.event("a").u64("n", 1).emit();
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).expect("file exists");
        assert!(text.contains("\"event\":\"a\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
