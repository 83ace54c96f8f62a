//! Seeded randomness, order statistics, process accounting and the
//! benchmark's own span recorder.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: a small, fast, seedable generator for the benchmark's inputs.
/// The program under test never sees it; it only receives what it generates.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Nearest-rank percentile (`pct` in `0..=100`) of an unsorted sample.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of this process so far (every thread, finished
/// ones included), in microseconds.
pub fn cpu_micros() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark builds for), and the clock
    // id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

/// High-water resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM present");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value");
    kib / 1024.0
}

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a measured number for JSON: all its digits, never NaN, and
/// never the negative zero an empty float sum yields.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{}", v + 0.0)
}

/// One span of the benchmark's own trace: a call into a layer, timed from
/// outside it.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder. Disabled (recording nothing) in untraced runs,
/// so end-to-end metrics never pay for it.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index].end_ns = end;
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Total time and self time (duration minus the time covered by direct
    /// children) per span name, in milliseconds, sorted by name.
    pub fn totals(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut rows: std::collections::BTreeMap<&'static str, (usize, u64, u64)> =
            std::collections::BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let total = span.end_ns - span.start_ns;
            let row = rows.entry(span.name).or_default();
            row.0 += 1;
            row.1 += total;
            row.2 += total.saturating_sub(child_ns[i]);
        }
        rows.into_iter()
            .map(|(name, (n, total, own))| (name, n, total as f64 / 1e6, own as f64 / 1e6))
            .collect()
    }

    /// Writes every span as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { "," },
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                i,
                parent
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Wall ns of one probe slice at the reference host speed (about the
/// slice's cost on an uncontended 2-vCPU Intel Xeon virtual machine).
const REF_SLICE_NS: f64 = 100_000.0;

/// A fixed unit of reference work, timed between the engine calls of a
/// simulated trial: inserts, lookups and removals on an ordered map of
/// 4,000 keys. The simulator runs on one thread and is memory-bound; on a
/// shared host its speed drifts with the neighbours' memory traffic, and
/// this probe's cost drifts with it (a compute-only loop does not). Its mean
/// cost relative to [`REF_SLICE_NS`] is the trial's host factor; CPU-bound
/// metrics of simulated trials are reported at the reference speed.
pub struct HostProbe {
    map: std::collections::BTreeMap<u64, u64>,
    rng: Rng,
    slice_ns: f64,
    slices: u64,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        let mut rng = Rng::new(0x0b5e);
        let map = (0..4_000).map(|i| (rng.next_u64() % 100_000, i)).collect();
        HostProbe {
            map,
            rng,
            slice_ns: 0.0,
            slices: 0,
        }
    }

    /// Runs and times one slice; returns its wall seconds.
    pub fn slice(&mut self) -> f64 {
        let t = Instant::now();
        for i in 0..100 {
            let key = self.rng.next_u64() % 100_000;
            self.map.insert(key, i);
            std::hint::black_box(self.map.get(&(key ^ 1)));
            self.map.remove(&(self.rng.next_u64() % 100_000));
        }
        let elapsed = t.elapsed();
        self.slice_ns += elapsed.as_nanos() as f64;
        self.slices += 1;
        elapsed.as_secs_f64()
    }

    /// Mean slice cost over the reference cost: above 1 on a slow host.
    pub fn factor(&self) -> f64 {
        if self.slices == 0 {
            return 1.0;
        }
        self.slice_ns / self.slices as f64 / REF_SLICE_NS
    }
}
