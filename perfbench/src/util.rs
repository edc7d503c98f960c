//! Small shared pieces: the seeded input generator, order statistics,
//! peak memory, file hashing and the host fingerprint.

use std::time::{Duration, Instant};

/// splitmix64: full-period and stable across platforms, so one seed
/// gives the same inputs everywhere.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn words(&mut self, len: usize) -> Vec<u32> {
        (0..len).map(|_| self.next_u32()).collect()
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by the nearest-rank rule.
/// Empty input gives 0.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Median wall time of `reps` calls of `f`, in microseconds.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| us(timed(&mut f).1)).collect();
    median(&samples)
}

/// Run `a` and `b` alternately `reps` times each and return
/// `median(a) / median(b)`: a same-run ratio, so slow drift of the host
/// lands on both sides alike.
pub fn ab_ratio(
    reps: usize,
    mut a: impl FnMut() -> Duration,
    mut b: impl FnMut() -> Duration,
) -> f64 {
    let mut sa = Vec::with_capacity(reps);
    let mut sb = Vec::with_capacity(reps);
    for i in 0..reps.max(1) {
        // Alternate which side goes first as well.
        if i % 2 == 0 {
            sa.push(a().as_secs_f64());
            sb.push(b().as_secs_f64());
        } else {
            sb.push(b().as_secs_f64());
            sa.push(a().as_secs_f64());
        }
    }
    median(&sa) / median(&sb)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a 64 of a byte string, as 16 hex digits.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Read a file of the repository, relative to the working directory.
pub fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// First line of a command's standard output, or `"unavailable"`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::trim).map(str::to_string))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".to_string())
}

/// Where a result came from: host, toolchain, commit, inputs. Printed
/// with every result so that two results from different hosts or seeds
/// are never compared silently.
pub fn fingerprint(workload: &str, seed: u64, inputs: &[&str]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unavailable".to_string());
    let hashes: Vec<String> = inputs
        .iter()
        .map(|p| {
            let h = std::fs::read(p).map_or_else(|_| "missing".to_string(), |b| fnv64(&b));
            format!("\"{}\":\"{h}\"", esc(p))
        })
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"nproc\":{nproc},\"cpu\":\"{}\",\
         \"rustc\":\"{}\",\"commit\":\"{}\",\"inputs\":{{{}}}}}",
        esc(workload),
        esc(&cpu),
        esc(&command_line("rustc", &["-V"])),
        // Only this checkout's own history, never an enclosing one.
        esc(&if std::path::Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            "unavailable".to_string()
        }),
        hashes.join(",")
    )
}

/// The host-speed yardstick: a fixed task that belongs to the
/// benchmark, not to the program, timed on the client thread between
/// operations. The gated wall metrics are divided by it, so a host
/// that runs everything slower for a while (other tenants, a slower
/// core) moves both sides alike, while a change to the program moves
/// only the operations.
///
/// One pass copies 1 MiB between two buffers and follows a 2^17-entry
/// random cycle through a 512 KiB table: memory bandwidth and cache
/// latency, the resources other tenants contend for. Nothing is
/// allocated while timing, and a warm pass before the timed one loads
/// the buffers, so the program's heap and cache state do not carry
/// into the reading.
pub struct Yardstick {
    src: Vec<u64>,
    dst: Vec<u64>,
    next: Vec<u32>,
}

impl Yardstick {
    const LEN: usize = 1 << 17;

    pub fn new() -> Yardstick {
        // A fixed seed: the task is the same for every workload seed.
        let mut rng = Rng(0x5EED);
        // Sattolo's shuffle: one cycle through every entry.
        let mut next: Vec<u32> = (0..Self::LEN as u32).collect();
        for i in (1..Self::LEN).rev() {
            let j = (rng.next_u64() % i as u64) as usize;
            next.swap(i, j);
        }
        Yardstick {
            src: (0..Self::LEN).map(|_| rng.next_u64()).collect(),
            dst: vec![0; Self::LEN],
            next,
        }
    }

    fn pass(&mut self) -> u64 {
        self.dst.copy_from_slice(std::hint::black_box(&self.src));
        let mut at = 0usize;
        let mut acc = 0u64;
        for _ in 0..Self::LEN {
            at = self.next[at] as usize;
            acc = acc.wrapping_mul(31).wrapping_add(self.dst[at]);
        }
        acc
    }

    /// Wall time of one warm pass, in ms.
    pub fn time_ms(&mut self) -> f64 {
        std::hint::black_box(self.pass());
        let (acc, t) = timed(|| self.pass());
        std::hint::black_box(acc);
        ms(t)
    }
}

/// JSON string escaping for the few strings this program prints.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.9), 5.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn yardstick_walks_its_whole_table() {
        let y = Yardstick::new();
        let mut at = 0usize;
        let steps = (1..=Yardstick::LEN)
            .find(|_| {
                at = y.next[at] as usize;
                at == 0
            })
            .expect("the walk returns to its start");
        assert_eq!(steps, Yardstick::LEN);
    }

    #[test]
    fn rng_is_seed_stable() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.next_f64())));
    }
}
