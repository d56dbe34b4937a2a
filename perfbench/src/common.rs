//! Shared benchmark machinery: seeded generators, the closed-loop timing
//! loop, percentile statistics, the fidelity digest, the span recorder
//! and the machine stamp.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of input randomness, so the
/// same `--seed` always yields the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Derives an independent sub-seed for item `i` of stream `tag`.
pub fn derive(seed: u64, tag: u64, i: u64) -> u64 {
    SplitMix::new(
        seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ i.wrapping_mul(0xA076_1D64_78BD_642F),
    )
    .next_u64()
}

/// `len` pseudo-random bytes from `seed`.
pub fn payload_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// FNV-1a over the `Debug` renderings of simulated outcomes. `Debug`
/// prints every field, and floats in shortest round-trip form, so equal
/// digests mean bit-equal outcomes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, item: &impl std::fmt::Debug) {
        for b in format!("{item:?}").bytes().chain(std::iter::once(0xFF)) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest folded to 48 bits, which a JSON number holds exactly.
    pub fn value(&self) -> u64 {
        (self.0 ^ (self.0 >> 48)) & 0xFFFF_FFFF_FFFF
    }
}

/// One op's outcome as the workload reports it: the time of the library
/// call alone, or why the op failed.
pub type OpResult = Result<Duration, String>;

/// Closed-loop record of a timed run.
#[derive(Debug, Default)]
pub struct Loop {
    /// Per-op library-call time of every op that passed its check.
    pub lat_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Loop {
    /// Runs one op, catching a panic as a failed op.
    pub fn step(&mut self, op: impl FnOnce() -> OpResult) {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(d)) => self.lat_ms.push(d.as_secs_f64() * 1e3),
            Ok(Err(why)) => self.fail(why),
            Err(panic) => {
                let why = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".to_string());
                self.fail(format!("panic: {why}"));
            }
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Runs ops `0, 1, 2, …` until `seconds` have passed and at least
    /// `min_ops` were attempted.
    pub fn run(seconds: f64, min_ops: u64, mut op: impl FnMut(u64) -> OpResult) -> Self {
        let mut lp = Loop::default();
        let start = Instant::now();
        let mut i = 0u64;
        while i < min_ops || start.elapsed().as_secs_f64() < seconds {
            lp.step(|| op(i));
            i += 1;
        }
        lp
    }
}

/// Times `f`, returning its result and the elapsed wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of the whole process so far: user and system time of every
/// thread, those that have exited included, at nanosecond resolution.
/// Time the hypervisor gives to other guests (steal) is not in it.
pub fn process_cpu_time() -> Duration {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(t.tv_sec as u64, t.tv_nsec as u32)
}

/// Times `f` in process CPU time (all threads, user and system),
/// returning its result and the CPU time it used. The end-to-end metrics
/// use this clock: on a shared virtual machine, wall time also counts the
/// time other guests hold the host's cores.
pub fn cpu_timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = process_cpu_time();
    let r = f();
    (r, process_cpu_time().saturating_sub(t))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile `p` (0–100) of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Tail percentiles the benchmark may report, highest first. p99.9 is
/// left out: on `rx_stream` it is set by the one slowest decode block of
/// the recording, so it tracks the seed's channel draw, not the code.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 80.0, 50.0];

/// The highest ladder percentile with at least 10 samples beyond it.
pub fn tail_percentile(samples: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Ops a run needs so that the workload's fixed tail percentile keeps
/// 10 samples beyond it.
pub fn min_ops_for_tail(p: f64) -> u64 {
    (10.0 / (1.0 - p / 100.0)).ceil() as u64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One recorded span: a timed call into a layer's public function.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder for the traced run; written out at exit.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        r
    }

    /// Duration in ms of span `idx`.
    pub fn dur_ms(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Index the next span will get (to slice out an op's spans).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Per-name (count, total ms) over spans from `from` on.
    pub fn totals_since(&self, from: usize) -> BTreeMap<&'static str, (u64, f64)> {
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for i in from..self.spans.len() {
            let e = out.entry(self.spans[i].name).or_default();
            e.0 += 1;
            e.1 += self.dur_ms(i);
        }
        out
    }

    /// Mean ms per span named `name`, over the whole run.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d: Vec<f64> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.dur_ms(i))
            .collect();
        mean(&d)
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes the spans as JSON lines to `path` (at most `cap` spans).
    pub fn write(&self, path: &std::path::Path, cap: usize) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().take(cap).enumerate() {
            let parent = s
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into());
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

/// The values a workload run reports, before rendering.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Check and validity-guard failures (any makes `correct` false).
    pub errors: Vec<String>,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Free-form JSON members for the notes line (already rendered).
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn note(&mut self, key: &str, json_value: String) {
        self.notes.push((key.to_string(), json_value));
    }

    /// Counts a traced op that failed its check.
    pub fn op_failed(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(format!("op failed: {why}"));
    }

    /// Fails the run when a validity guard is unmet.
    pub fn guard(&mut self, ok: bool, what: String) {
        if !ok {
            self.errors.push(format!("validity guard: {what}"));
        }
    }

    /// Folds a timed loop into the end-to-end metrics. `tail_p` is the
    /// workload's fixed tail percentile.
    pub fn end_to_end(&mut self, lp: &Loop, tail_p: f64, setup_s: f64) {
        self.attempted += lp.attempted;
        self.failed += lp.failed;
        for f in &lp.failures {
            self.errors.push(format!("op failed: {f}"));
        }
        let total_s: f64 = lp.lat_ms.iter().sum::<f64>() / 1e3;
        let n = lp.lat_ms.len();
        self.set("setup_s", setup_s, "s");
        self.set(
            "ops_per_s",
            if total_s > 0.0 {
                n as f64 / total_s
            } else {
                0.0
            },
            "1/s",
        );
        self.set("op_ms_p50", median(&lp.lat_ms), "ms");
        self.set("op_ms_tail", percentile(&lp.lat_ms, tail_p), "ms");
        self.set("peak_rss_mb", peak_rss_mb(), "MiB");
        self.note(
            "op_ms_tail",
            format!(
                "{{\"percentile\":{tail_p},\"samples\":{n},\"beyond\":{}}}",
                (n as f64 * (1.0 - tail_p / 100.0)).floor()
            ),
        );
        let ladder: Vec<String> = TAIL_LADDER
            .iter()
            .map(|&p| format!("\"p{p}\":{:.4}", percentile(&lp.lat_ms, p)))
            .collect();
        self.note("op_ms_percentiles", format!("{{{}}}", ladder.join(",")));
        self.note(
            "tail_rule",
            format!(
                "{{\"highest_ladder_percentile_with_10_beyond\":{}}}",
                tail_percentile(n)
            ),
        );
    }
}

/// Times `reps` set-ups in process CPU time and returns the last state
/// with the median time.
pub fn setup_median<S>(reps: usize, mut make: impl FnMut() -> S) -> (S, f64, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps.max(1) {
        let (s, d) = cpu_timed(&mut make);
        times.push(d.as_secs_f64());
        state = Some(s);
    }
    let med = median(&times);
    (state.expect("at least one set-up ran"), med, times)
}

/// JSON array of numbers.
pub fn json_nums(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", parts.join(","))
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

/// Machine stamp: CPU counts, toolchain, git revision and build flags.
pub fn machine_stamp(workers: usize) -> String {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let native = std::fs::read_to_string(".cargo/config.toml")
        .map(|s| {
            s.lines()
                .any(|l| !l.trim_start().starts_with('#') && l.contains("target-cpu=native"))
        })
        .unwrap_or(false);
    format!(
        "{{\"nproc\":{nproc},\"available_parallelism\":{avail},\"pool_workers\":{workers},\
         \"git_rev\":{},\"rustc\":{},\"target_cpu_native\":{native},\"rustflags_env\":{}}}",
        json_str(&git_rev()),
        json_str(&rustc),
        json_str(&std::env::var("RUSTFLAGS").unwrap_or_default()),
    )
}

/// The checked-out commit, read from `.git` without spawning git; a
/// plain source tree reports "none".
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_beyond() {
        assert_eq!(tail_percentile(20_000), 99.0);
        assert_eq!(tail_percentile(150), 90.0);
        assert_eq!(tail_percentile(60), 80.0);
        assert!(min_ops_for_tail(80.0) >= 50);
    }

    #[test]
    fn wrong_output_counts_as_failed_op() {
        let lp = Loop::run(0.0, 3, |i| {
            if i == 1 {
                Err("planted mismatch".into())
            } else {
                Ok(Duration::from_millis(1))
            }
        });
        assert_eq!((lp.attempted, lp.failed), (3, 1));
        let mut panicking = Loop::default();
        panicking.step(|| panic!("planted panic"));
        assert_eq!(panicking.failed, 1);
    }

    #[test]
    fn cpu_clock_counts_work_not_sleep() {
        // The clock is the whole process's, so tests running alongside
        // add their CPU time (well under 100 ms in all) to the sleep's.
        let ((), slept) = cpu_timed(|| std::thread::sleep(Duration::from_millis(300)));
        assert!(
            slept < Duration::from_millis(150),
            "sleep charged {slept:?}"
        );
        let (x, busy) = cpu_timed(|| {
            let t = Instant::now();
            let mut x = 0u64;
            while t.elapsed() < Duration::from_millis(20) {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            x
        });
        assert!(
            x > 0 && busy >= Duration::from_millis(10),
            "spin charged {busy:?}"
        );
    }

    #[test]
    fn digest_separates_items() {
        let mut a = Digest::default();
        a.add(&(1u8, 2u8));
        let mut b = Digest::default();
        b.add(&(1u8,));
        b.add(&(2u8,));
        assert_ne!(a.value(), b.value());
    }
}
