//! Process facts the harness needs: CPU time, peak resident set, CPU
//! affinity, timer slack. `/proc` where a file has the answer, a libc call
//! where only the kernel does.

/// `utime + stime` in clock ticks from the text of a `/proc/<pid>/stat`
/// file. The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the comm field: state is field 3, utime 14, stime 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` in KiB from the text of a `/proc/<pid>/status` file.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> Option<u64> {
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target).
    (unsafe { clock_gettime(clock, &mut ts) } == 0)
        .then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

fn stat_cpu_ns(path: &str) -> u64 {
    let ticks = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .unwrap_or(0);
    ticks * 1_000_000_000 / clk_tck()
}

/// User + system CPU nanoseconds of the whole process so far.
///
/// The kernel's exact run-time accounting (`CLOCK_PROCESS_CPUTIME_ID`):
/// `/proc/self/stat` carries the same quantity but sampled at the 10 ms
/// tick, and a quarter-second slice of `gui_await` uses about 25 ms of CPU.
/// The file is the fallback.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID).unwrap_or_else(|| stat_cpu_ns("/proc/self/stat"))
}

/// User + system CPU nanoseconds of the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID).unwrap_or_else(|| stat_cpu_ns("/proc/thread-self/stat"))
}

/// Lets the calling thread's sleeps end when asked to, not up to 50 µs
/// later (the default timer slack): an open-loop generator that fires late
/// adds its own lateness to every latency it reports.
pub fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes the slack in nanoseconds by value and
    // touches no memory of ours.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Clock ticks per second (`sysconf(_SC_CLK_TCK)`).
pub fn clk_tck() -> u64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` takes an integer selector and returns an integer;
    // it reads no memory of ours.
    let v = unsafe { sysconf(SC_CLK_TCK) };
    if v > 0 {
        v as u64
    } else {
        100
    }
}

/// Pins the calling thread — and every thread it later spawns — to one CPU
/// of its allowed set (the highest-numbered, which tends to field the
/// fewest interrupts). Returns that CPU, or `None` when the affinity calls
/// fail (the process then runs unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16; // 1024 CPUs, glibc's cpu_set_t
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is WORDS * 8 writable bytes and that size is what
    // we pass; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is WORDS * 8 readable bytes and that size is what we
    // pass; pid 0 is the calling thread.
    (unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_with_hostile_comm() {
        let s = "1234 (a b) c) R 1 1234 1234 0 -1 4194304 100 0 0 0 37 5 0 0 20 0 3 0 100 1000 10 \
                 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0";
        assert_eq!(parse_stat_cpu_ticks(s), Some(42));
    }

    #[test]
    fn stat_truncated_is_none() {
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens"), None);
    }

    #[test]
    fn vm_hwm_line() {
        let s = "Name:\tx\nVmPeak:\t  200 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(s), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn pinning_leaves_exactly_one_cpu() {
        // On its own thread: the pin is inherited by threads spawned later,
        // and the test harness's other threads must keep their affinity.
        let (cpu, seen) = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu();
            let seen = std::thread::available_parallelism().map(|n| n.get()).ok();
            (cpu, seen)
        })
        .join()
        .unwrap();
        if cpu.is_some() {
            assert_eq!(seen, Some(1));
        }
    }

    #[test]
    fn live_readers_return_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(clk_tck() > 0);
        let before = (process_cpu_ns(), thread_cpu_ns());
        std::hint::black_box(
            (0..2_000_000u64).fold(0u64, |a, i| a.wrapping_mul(31).wrapping_add(i)),
        );
        assert!(process_cpu_ns() > before.0 && thread_cpu_ns() > before.1);
        assert!(process_cpu_ns() >= thread_cpu_ns());
        // The fallback reads the same quantity, at tick grain.
        assert!(stat_cpu_ns("/proc/self/stat") <= process_cpu_ns() + 1_000_000_000);
        tighten_timer_slack();
    }
}
