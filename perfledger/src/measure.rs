//! Measurement plumbing shared by the workloads: sample summaries, a
//! seeded sampler, process memory, cache sizes, and the span recorder
//! of the traced mode.

use std::io::Write;
use std::time::{Duration, Instant};

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one call, returning its result and its duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Set-ups per run: at least `MIN_SETUPS`, more while they have taken
/// less than `SETUP_WINDOW` together (at most `MAX_SETUPS`), so cheap
/// set-ups still yield a steady median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_WINDOW: Duration = Duration::from_secs(1);

/// Runs `setup` repeatedly (dropping each result before the next) and
/// returns the last result with every set-up's seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut total = Duration::ZERO;
    let mut built = None;
    while seconds.len() < MIN_SETUPS || (total < SETUP_WINDOW && seconds.len() < MAX_SETUPS) {
        drop(built.take());
        let (value, d) = timed(&mut setup);
        total += d;
        seconds.push(d.as_secs_f64());
        built = Some(value);
    }
    (built.expect("at least one set-up"), seconds)
}

/// Nearest-rank quantile of an unsorted sample (`0` for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A deterministic splitmix64 stream: the benchmark's own seeded
/// choices (shuffles, tenants, check samples), kept apart from the
/// generators' streams.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `count` distinct sorted indices below `bound`.
    pub fn sample(&mut self, bound: usize, count: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..bound).collect();
        self.shuffle(&mut all);
        all.truncate(count.min(bound));
        all.sort_unstable();
        all
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), `0` when
/// the kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The cache lines `lscpu` prints (`L1d`, `L2`, `L3`, ...), or a note
/// that it could not be run.
pub fn cache_sizes() -> String {
    match std::process::Command::new("lscpu").output() {
        Ok(out) if out.status.success() => {
            let text = String::from_utf8_lossy(&out.stdout);
            let caches: Vec<String> = text
                .lines()
                .filter(|line| line.contains("cache"))
                .map(|line| line.split_whitespace().collect::<Vec<_>>().join(" "))
                .collect();
            caches.join("; ")
        }
        _ => "lscpu unavailable".to_string(),
    }
}

/// One recorded span: a named interval around a public call, tied to a
/// request (`id`) and to the span that caused it.
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder of the traced mode. Spans are written out
/// only when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, id: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration.
    pub fn close(&mut self, span: usize) -> Duration {
        let end_ns = self.now_ns();
        let s = &mut self.spans[span];
        s.end_ns = end_ns;
        Duration::from_nanos(end_ns - s.start_ns)
    }

    /// Records `f` as one span and returns its result and duration.
    pub fn span<T>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let span = self.open(id, name, parent);
        let out = f();
        let d = self.close(span);
        (out, d)
    }

    /// Writes the spans to `perfledger/out/<workload>-seed<seed>.trace.jsonl`
    /// and returns a line saying where, or why not.
    pub fn save(&self, workload: &str, seed: u64) -> String {
        let path = std::path::Path::new("perfledger/out")
            .join(format!("{workload}-seed{seed}.trace.jsonl"));
        match self.write(&path) {
            Ok(()) => format!("{} spans written to {}", self.spans.len(), path.display()),
            Err(err) => format!("spans not written ({err})"),
        }
    }

    /// Writes every span as one JSON line to `path`.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{index},\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
