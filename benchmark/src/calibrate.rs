//! Machine-speed calibration for the end-to-end timings.
//!
//! The builder box is a 2-vCPU virtual machine with neighbours: the cost
//! of cache-missing code drifts by ±20 % over tens of seconds while a
//! pure ALU loop stays within 1 %. Every workload here is memory-bound,
//! so raw timings of *identical* code disagree run to run by more than
//! any regression bound worth having. Measured on that box (`README.md`,
//! "Steadiness"): over 8 s windows the raw simulator rate has an
//! interquartile spread of 17–19 %; divided by the time of a fixed
//! memory-bound reference kernel run right next to it, 4–6 %.
//!
//! So each timed block is bracketed by two short bursts of that kernel,
//! and the block's time is divided by `slowdown = kernel time / REF_NS`:
//! the timings reported are those of a machine on which the kernel takes
//! exactly [`REF_NS`]. The kernel never changes with the program, so the
//! comparison between two commits is unaffected; raw values and the
//! slowdown are printed and kept in the result file.

use std::hint::black_box;
use std::time::Instant;

/// Table entries: 8 Mi × 4 B = 32 MiB, sixteen times the core's L2, so
/// the kernel lives in the memory system the workloads contend for.
const ENTRIES: usize = 8 << 20;

/// A burst is [`SUB_BURSTS`] runs of [`SUB_OPS`] read-modify-writes
/// (about 2 ms each); its reading is the median run, so one preemption
/// inside a burst does not pass for a slow machine.
const SUB_BURSTS: usize = 5;
const SUB_OPS: u64 = 100_000;

/// The kernel's cost per operation on the builder box when it is quiet.
/// Only fixes the scale of the reported numbers.
pub const REF_NS: f64 = 18.0;

/// The reference kernel and the bookkeeping around it.
pub struct Calibrator {
    table: Vec<u32>,
    counter: u64,
    /// Result of the most recent burst, reused as the "before" reading of
    /// the next block.
    last_ns: Option<f64>,
}

impl Calibrator {
    /// Resident bytes the calibrator adds to the process.
    pub const BYTES: u64 = (ENTRIES * 4) as u64;

    pub fn new() -> Self {
        Self {
            // Written, not just reserved: every page is resident.
            table: (0..ENTRIES as u32).collect(),
            counter: 0,
            last_ns: None,
        }
    }

    /// One burst: independent random read-modify-writes over the table.
    /// Returns nanoseconds per operation.
    pub fn burst(&mut self) -> f64 {
        let mut runs = [0.0; SUB_BURSTS];
        for run in &mut runs {
            let started = Instant::now();
            for _ in 0..SUB_OPS {
                self.counter += 1;
                let i = coopcache::obs::splitmix64(self.counter) as usize & (ENTRIES - 1);
                self.table[i] = self.table[i].wrapping_add(1);
            }
            black_box(&mut self.table);
            *run = started.elapsed().as_nanos() as f64 / SUB_OPS as f64;
        }
        runs.sort_by(f64::total_cmp);
        let ns = runs[SUB_BURSTS / 2];
        self.last_ns = Some(ns);
        ns
    }

    /// Runs `f` between two bursts and returns its result, its wall time
    /// in seconds, and the machine's slowdown while it ran.
    pub fn bracket<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = match self.last_ns {
            Some(ns) => ns,
            None => self.burst(),
        };
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        let after = self.burst();
        (out, secs, (before + after) / 2.0 / REF_NS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bracket_times_the_work_and_reads_the_kernel_around_it() {
        let mut cal = Calibrator::new();
        let (out, secs, slowdown) = cal.bracket(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(out, 7);
        assert!(secs >= 0.005, "the sleep is inside the timed interval");
        assert!(slowdown > 0.0 && slowdown.is_finite());
        // Two bursts ran: before and after.
        assert_eq!(cal.counter, 2 * SUB_OPS * SUB_BURSTS as u64);
        // The next bracket reuses the last reading: one more burst only.
        cal.bracket(|| ());
        assert_eq!(cal.counter, 3 * SUB_OPS * SUB_BURSTS as u64);
    }
}
