//! The CPU and memory ledger, read from outside the program: per-thread
//! on-CPU and run-queue time from `/proc/self/task` by the thread names the
//! runtime already sets, the process total from the process CPU clock
//! (which keeps the time of threads that have exited), peak RSS and host
//! steal.

use std::fs;
use std::sync::OnceLock;

use crate::sys::{pinned_cpu, process_cpu_ns};

/// Kernel `USER_HZ`, the unit of `/proc/stat`: 100 on every Linux ABI this
/// benchmark runs on.
const NS_PER_TICK: u64 = 10_000_000;

/// Threads whose time is the load generator's or the harness's, not the
/// server's.
const BENCH_PREFIX: &str = "bench-";

/// The ledger's thread groups, from the `comm` of each task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// `bench-*`: clients, echo and other harness threads.
    Bench,
    Dispatch,
    Shard,
    Tcp,
    /// The refresh and stats tick threads.
    RefreshStats,
    /// Anything else alive at sampling time (the main thread).
    Other,
}

/// The groups of named runtime threads.
pub const SERVER_GROUPS: [Group; 4] = [
    Group::Dispatch,
    Group::Shard,
    Group::Tcp,
    Group::RefreshStats,
];

pub fn group_of(comm: &str) -> Group {
    if comm.starts_with(BENCH_PREFIX) {
        Group::Bench
    } else if comm == "sdoh-dispatch" {
        Group::Dispatch
    } else if comm.starts_with("sdoh-shard-") {
        Group::Shard
    } else if comm == "sdoh-tcp" {
        Group::Tcp
    } else if comm == "sdoh-refresh" || comm == "sdoh-stats" {
        Group::RefreshStats
    } else {
        Group::Other
    }
}

/// `/proc/<pid>/task/<tid>/schedstat`: on-CPU ns, run-queue wait ns,
/// timeslices.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_ascii_whitespace();
    let run = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    fields.next()?.parse::<u64>().ok()?;
    Some((run, wait))
}

/// A `kB` line such as `VmHWM` from `/proc/<pid>/status`.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_cpu(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let values: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    let steal = *values.get(7)?;
    Some((steal, values.iter().take(8).sum()))
}

/// Steal jiffies of one CPU from its `cpuN` line of `/proc/stat`.
pub fn parse_cpu_steal(text: &str, cpu: usize) -> Option<u64> {
    let name = format!("cpu{cpu}");
    let mut fields = text
        .lines()
        .map(str::split_ascii_whitespace)
        .find_map(|mut fields| (fields.next()? == name).then_some(fields))?;
    fields.nth(7)?.parse().ok()
}

/// What the hypervisor has taken from the core this process is confined
/// to, in ns (the kernel reports 10 ms ticks); 0 when it is not confined.
pub fn pinned_cpu_steal_ns() -> u64 {
    pinned_cpu()
        .and_then(|cpu| parse_cpu_steal(&fs::read_to_string("/proc/stat").ok()?, cpu))
        .unwrap_or(0)
        * NS_PER_TICK
}

/// One reading of the whole ledger.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// On-CPU ns of the whole process, exited threads included.
    pub process_ns: u64,
    /// `(group, on-CPU ns, run-queue wait ns)` summed per group over the
    /// threads alive right now.
    pub groups: Vec<(Group, u64, u64)>,
    pub host_steal: u64,
    pub host_total: u64,
}

impl Ledger {
    pub fn read() -> Ledger {
        let mut ledger = Ledger {
            process_ns: process_cpu_ns(),
            ..Ledger::default()
        };
        if let Some((steal, total)) = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|t| parse_host_cpu(&t))
        {
            ledger.host_steal = steal;
            ledger.host_total = total;
        }
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return ledger;
        };
        for task in tasks.flatten() {
            // A thread may exit between the listing and the reads.
            let path = task.path();
            let (Ok(comm), Ok(sched)) = (
                fs::read_to_string(path.join("comm")),
                fs::read_to_string(path.join("schedstat")),
            ) else {
                continue;
            };
            if let Some((run, wait)) = parse_schedstat(&sched) {
                ledger.add(group_of(comm.trim_end()), run, wait);
            }
        }
        ledger
    }

    fn add(&mut self, group: Group, run: u64, wait: u64) {
        match self.groups.iter_mut().find(|(g, _, _)| *g == group) {
            Some(slot) => {
                slot.1 += run;
                slot.2 += wait;
            }
            None => self.groups.push((group, run, wait)),
        }
    }

    pub fn group(&self, group: Group) -> (u64, u64) {
        self.groups
            .iter()
            .find(|(g, _, _)| *g == group)
            .map_or((0, 0), |&(_, run, wait)| (run, wait))
    }

    /// `(on-CPU ns, run-queue wait ns)` a group spent between `earlier`
    /// and `self`.
    pub fn group_since(&self, earlier: &Ledger, group: Group) -> (u64, u64) {
        let (run, wait) = self.group(group);
        let (run0, wait0) = earlier.group(group);
        (run.saturating_sub(run0), wait.saturating_sub(wait0))
    }

    /// On-CPU ns of everything that is not the load generator or the
    /// harness between `earlier` and `self`: the process total minus the
    /// `bench-*` threads and the main thread. Threads that lived and died
    /// inside the interval (the runtime's per-exchange threads) are in the
    /// process total only, so they count as server time.
    pub fn server_ns_since(&self, earlier: &Ledger) -> u64 {
        let process = self.process_ns.saturating_sub(earlier.process_ns);
        let ours =
            self.group_since(earlier, Group::Bench).0 + self.group_since(earlier, Group::Other).0;
        process.saturating_sub(ours)
    }

    /// Server time not attributable to a named runtime thread alive at
    /// both readings: the per-exchange threads that have already exited.
    pub fn unnamed_ns_since(&self, earlier: &Ledger) -> u64 {
        let named: u64 = SERVER_GROUPS
            .iter()
            .map(|&group| self.group_since(earlier, group).0)
            .sum();
        self.server_ns_since(earlier).saturating_sub(named)
    }

    pub fn steal_ratio_since(&self, earlier: &Ledger) -> f64 {
        let total = self.host_total.saturating_sub(earlier.host_total);
        if total == 0 {
            return 0.0;
        }
        self.host_steal.saturating_sub(earlier.host_steal) as f64 / total as f64
    }
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_status_kb(&t, "VmHWM"))
        .unwrap_or(0) as f64
        / 1024.0
}

/// Cores this process may use, as first asked: `run` asks before it
/// confines itself to one of them.
pub fn nproc() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_and_comm_parsing() {
        assert_eq!(
            parse_schedstat("469108519 35462555 629\n"),
            Some((469108519, 35462555))
        );
        assert_eq!(parse_schedstat("0 0 0"), Some((0, 0)));
        assert_eq!(parse_schedstat("12 34"), None);
        assert_eq!(parse_schedstat("a b c"), None);
    }

    #[test]
    fn status_and_host_lines() {
        let status =
            "Name:\tpool-bench\nVmPeak:\t  900 kB\nVmHWM:\t    1636 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(1636));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        let stat = "cpu  70141 0 31061 375247 3278 0 10200 5596 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n\
                    cpu1 1 2 3 4 5 6 7 9 0 0\ncpu10 1 2 3 4 5 6 7 10 0 0\n";
        assert_eq!(parse_cpu_steal(stat, 0), Some(8));
        assert_eq!(parse_cpu_steal(stat, 1), Some(9));
        assert_eq!(parse_cpu_steal(stat, 10), Some(10));
        assert_eq!(parse_cpu_steal(stat, 2), None);
        assert_eq!(
            parse_host_cpu(stat),
            Some((5596, 70141 + 31061 + 375247 + 3278 + 10200 + 5596))
        );
    }

    #[test]
    fn thread_grouping_and_ledger_arithmetic() {
        assert_eq!(group_of("bench-client-0"), Group::Bench);
        assert_eq!(group_of("bench-echo"), Group::Bench);
        assert_eq!(group_of("sdoh-dispatch"), Group::Dispatch);
        assert_eq!(group_of("sdoh-shard-1"), Group::Shard);
        assert_eq!(group_of("sdoh-tcp"), Group::Tcp);
        assert_eq!(group_of("sdoh-refresh"), Group::RefreshStats);
        assert_eq!(group_of("sdoh-stats"), Group::RefreshStats);
        assert_eq!(group_of("pool-bench"), Group::Other);

        let mut before = Ledger {
            process_ns: 1_000,
            ..Ledger::default()
        };
        before.add(Group::Bench, 100, 1);
        before.add(Group::Shard, 200, 2);
        let mut after = Ledger {
            process_ns: 11_000,
            host_steal: 5,
            host_total: 50,
            ..Ledger::default()
        };
        after.add(Group::Bench, 2_100, 11);
        after.add(Group::Bench, 1_000, 0); // second client thread
        after.add(Group::Shard, 3_200, 42);
        after.add(Group::Shard, 1_000, 0);
        after.add(Group::Dispatch, 500, 7);
        after.add(Group::Other, 100, 0);
        assert_eq!(after.group_since(&before, Group::Shard), (4_000, 40));
        assert_eq!(after.group_since(&before, Group::Tcp), (0, 0));
        // 10_000 total - 3_000 clients - 100 main.
        assert_eq!(after.server_ns_since(&before), 6_900);
        // ... of which 4_000 shard + 500 dispatch are named.
        assert_eq!(after.unnamed_ns_since(&before), 2_400);
        assert!((after.steal_ratio_since(&before) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn reads_the_live_process() {
        let ledger = Ledger::read();
        assert!(ledger.host_total > 0);
        assert!(!ledger.groups.is_empty());
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
