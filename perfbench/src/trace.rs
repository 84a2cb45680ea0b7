//! The benchmark's own tracing: a span around every call it makes into
//! a layer of the program, plus counters read from what those calls
//! return.
//!
//! Spans carry a name, the pass they belong to, an id (the cell or pass
//! index), the span that caused them, and start/end times. They are
//! kept in memory and written out once, at the end of a traced run.
//! Whether or not records are kept, every span also adds its duration
//! to a per-sample sum under `<name>_s`, and spans that no other call
//! span encloses add to the sample's busy wall and CPU time: that is
//! the time a pass spends inside the program, checks excluded. That
//! time is also kept in reference units (see `refkernel`), lap by lap.

use crate::{probe, refkernel};
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    /// Pass index (`0` is the warm-up; set-ups are negative).
    pub pass: i64,
    pub id: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// A span that has begun and not yet ended.
#[must_use = "end the span with Tracer::end"]
pub struct Open {
    index: usize,
    name: &'static str,
    start: Instant,
    cpu0: f64,
    call: bool,
}

/// Spans and counters of one run.
pub struct Tracer {
    t0: Instant,
    /// Keep span records (only in traced passes).
    pub recording: bool,
    pass: i64,
    spans: Vec<SpanRec>,
    /// Indexes into `spans` of the open spans (or `usize::MAX` for an
    /// open span that is not recorded), innermost last.
    stack: Vec<(usize, bool)>,
    sample: BTreeMap<String, f64>,
    busy_wall_s: f64,
    busy_cpu_s: f64,
    /// The latest reading of the reference kernel.
    ref_last_s: f64,
    /// Every reading of the run.
    ref_readings: Vec<f64>,
    /// Program wall and CPU time this sample, in reference units.
    busy_ref: (f64, f64),
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            recording: false,
            pass: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            sample: BTreeMap::new(),
            busy_wall_s: 0.0,
            busy_cpu_s: 0.0,
            ref_last_s: refkernel::kernel_s(),
            ref_readings: Vec::new(),
            busy_ref: (0.0, 0.0),
        }
    }

    /// Start a new sample (a set-up or a pass): zero the sums, counters
    /// and busy time.
    pub fn start_sample(&mut self, pass: i64) {
        self.pass = pass;
        self.sample.clear();
        self.busy_wall_s = 0.0;
        self.busy_cpu_s = 0.0;
        self.busy_ref = (0.0, 0.0);
    }

    /// The current sample's sums and counters.
    pub fn take_sample(&mut self) -> BTreeMap<String, f64> {
        std::mem::take(&mut self.sample)
    }

    /// Wall and CPU seconds spent in outermost call spans this sample.
    pub fn busy(&self) -> (f64, f64) {
        (self.busy_wall_s, self.busy_cpu_s)
    }

    /// Read the reference kernel: the start of the next lap.
    pub fn ref_mark(&mut self) {
        self.ref_last_s = refkernel::kernel_s();
        self.ref_readings.push(self.ref_last_s);
    }

    /// End a lap in which the program took `wall_s` and `cpu_s`: read
    /// the kernel again and add both, divided by the mean of the lap's
    /// two readings, to this sample's time in reference units.
    pub fn ref_lap(&mut self, wall_s: f64, cpu_s: f64) {
        let before = self.ref_last_s;
        self.ref_mark();
        let unit = 0.5 * (before + self.ref_last_s);
        self.busy_ref.0 += wall_s / unit;
        self.busy_ref.1 += cpu_s / unit;
    }

    /// Wall and CPU time of this sample's laps, in reference units.
    pub fn busy_ref(&self) -> (f64, f64) {
        self.busy_ref
    }

    /// Every reading of the reference kernel so far, in seconds.
    pub fn ref_readings(&self) -> &[f64] {
        &self.ref_readings
    }

    fn open(&mut self, name: &'static str, id: u64, call: bool) -> Open {
        let start = Instant::now();
        let index = if self.recording {
            self.spans.push(SpanRec {
                name,
                pass: self.pass,
                id,
                parent: self
                    .stack
                    .iter()
                    .rev()
                    .map(|s| s.0)
                    .find(|&i| i != usize::MAX),
                start_us: (start - self.t0).as_secs_f64() * 1e6,
                end_us: 0.0,
            });
            self.spans.len() - 1
        } else {
            usize::MAX
        };
        let outermost_call = call && !self.stack.iter().any(|s| s.1);
        self.stack.push((index, call));
        Open {
            index,
            name,
            start,
            cpu0: if outermost_call {
                probe::process_cpu_s()
            } else {
                f64::NAN
            },
            call,
        }
    }

    /// Begin a call span: time spent in the program.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        self.open(name, id, true)
    }

    /// Begin a grouping span (a cell or a pass): it parents call spans
    /// but its own time, checks included, is not busy time.
    pub fn begin_group(&mut self, name: &'static str, id: u64) -> Open {
        self.open(name, id, false)
    }

    /// End `o`, which must be the innermost open span.
    pub fn end(&mut self, o: Open) {
        let dur = o.start.elapsed().as_secs_f64();
        let (index, _) = self.stack.pop().expect("end matches a begin");
        assert_eq!(index, o.index, "spans end innermost first");
        if index != usize::MAX {
            let s = &mut self.spans[index];
            s.end_us = s.start_us + dur * 1e6;
        }
        if o.call {
            *self.sample.entry(format!("{}_s", o.name)).or_insert(0.0) += dur;
            if !o.cpu0.is_nan() {
                self.busy_wall_s += dur;
                self.busy_cpu_s += probe::process_cpu_s() - o.cpu0;
            }
        }
    }

    /// Time `f` as a call span named `name`.
    pub fn call<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let o = self.begin(name, id);
        let r = f();
        self.end(o);
        r
    }

    /// A sum or counter of the current sample (0 if absent).
    pub fn sample_get(&self, name: &str) -> f64 {
        self.sample.get(name).copied().unwrap_or(0.0)
    }

    /// Set a counter of the current sample.
    pub fn set(&mut self, name: &str, value: f64) {
        self.sample.insert(name.to_string(), value);
    }

    /// Add to a counter of the current sample.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.sample.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Every recorded span as a JSON array.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"i\":{i},\"name\":\"{}\",\"pass\":{},\"id\":{},\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.pass,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_us,
                s.end_us
            ));
        }
        out.push(']');
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}
