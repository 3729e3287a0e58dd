//! Host readings (Linux): this process's CPU clock, and resource
//! figures from `/proc`.

use std::fs;

/// CPU time this process has used, all threads including exited ones
/// (`CLOCK_PROCESS_CPUTIME_ID`), seconds.
///
/// The in-process workloads time their calls with this clock rather
/// than the wall clock. On an idle host the two agree for the
/// single-threaded engines; this one leaves out time the CPU spent
/// elsewhere, such as steal by the hypervisor of a shared VM.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this harness builds for; see
    // the size check below), and clock_gettime writes only through it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux always provides CLOCK_PROCESS_CPUTIME_ID");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

// `Timespec` above assumes 64-bit `time_t` and `long`.
const _: () = assert!(std::mem::size_of::<usize>() == 8);

/// A stopwatch on [`cpu_s`].
#[derive(Debug, Clone, Copy)]
pub struct Cpu(f64);

impl Cpu {
    pub fn now() -> Cpu {
        Cpu(cpu_s())
    }

    pub fn elapsed_s(self) -> f64 {
        cpu_s() - self.0
    }
}

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Linux
/// fixes it at 100 on every architecture the suite builds for.
const CLOCK_TICKS_PER_S: f64 = 100.0;

fn status_field(pid: &str, key: &str) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Resident high-water mark of `pid` (`"self"` for this process), MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    status_field(pid, "VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Live thread count of `pid`.
pub fn threads(pid: &str) -> Option<u64> {
    status_field(pid, "Threads:")
}

/// User plus system CPU time `pid` has consumed, seconds.
pub fn pid_cpu_s(pid: &str) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // fields after the parenthesised command name, which may hold spaces
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_S)
}

/// Host-wide (all, steal) CPU clock ticks since boot, from `/proc/stat`:
/// steal is time a virtual CPU was ready but the hypervisor ran
/// something else.
pub fn cpu_and_steal_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let cpu: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal
    let ticks = cpu.get(..8)?;
    Some((ticks.iter().sum(), ticks[7]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb("self").expect("VmHWM") > 0.0);
        assert!(threads("self").expect("Threads") >= 1);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(pid_cpu_s("self").expect("stat") > 0.0, "{x}");
        let t = Cpu::now();
        let mut y = 0u64;
        for i in 0..20_000_000u64 {
            y = std::hint::black_box(y.wrapping_add(i * i));
        }
        let spent = t.elapsed_s();
        assert!(spent > 0.0 && spent < 10.0, "{spent} {y}");
    }
}
