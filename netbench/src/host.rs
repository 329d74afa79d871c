//! The host-speed reference, by which the timed end-to-end figures are
//! scaled.
//!
//! The reference machine is a shared 2-vCPU VM. Load outside it slows
//! cache-bound code by up to 2x, for seconds to minutes at a time, with
//! little steal time to show for it; an unscaled rate or latency then tells
//! more about the neighbours than about the program. So each run times a
//! fixed kernel of the benchmark's own around its measurement windows:
//! dependent loads over a 256 KiB table (past L1, within L2), on one thread
//! per core at once. Each window's figure is divided by the host's slowdown
//! around it, `kernel time / NOMINAL_S`, before the median over windows is
//! taken. The kernel runs no program code, so a change to the program moves
//! a scaled figure exactly as it moves the raw one, while a slowdown of the
//! host moves both the figure and the kernel. Raw figures are printed next
//! to the scaled ones.

use std::time::Instant;

/// Slots in the kernel's table: 256 KiB of `u32`.
const WORDS: usize = 1 << 16;

/// Dependent loads per kernel run: about 8 ms on an unloaded core of the
/// reference machine.
const STEPS: usize = 1_000_000;

/// Threads that run the kernel at once: one per core of the reference
/// machine.
const THREADS: usize = 2;

/// The kernel time of an unloaded reference machine, in seconds.
pub const NOMINAL_S: f64 = 0.008;

/// Kernel timings over one run.
pub struct HostSpeed {
    /// A single cycle through every slot, in random order.
    table: Vec<u32>,
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Builds the kernel's table (a fixed random cyclic permutation).
    pub fn new() -> HostSpeed {
        let mut order: Vec<u32> = (0..WORDS as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..WORDS).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut table = vec![0u32; WORDS];
        for (i, &slot) in order.iter().enumerate() {
            table[slot as usize] = order[(i + 1) % WORDS];
        }
        HostSpeed {
            table,
            samples: Vec::new(),
        }
    }

    /// Times one kernel run on every core; records and returns the mean of
    /// the threads' times.
    pub fn sample(&mut self) -> f64 {
        let table = &self.table;
        let times: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|start| {
                    scope.spawn(move || {
                        let began = Instant::now();
                        let mut at = start;
                        for _ in 0..STEPS {
                            at = table[at] as usize;
                        }
                        std::hint::black_box(at);
                        began.elapsed().as_secs_f64()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference kernel thread panicked"))
                .collect()
        });
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        self.samples.push(mean);
        mean
    }

    /// Samples taken so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Mean of the samples from index `first` on, in seconds.
    pub fn mean_since(&self, first: usize) -> f64 {
        let tail = &self.samples[first..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    /// Median kernel time over the run, in seconds.
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// One line for the run's log.
    pub fn describe(&self) -> String {
        format!(
            "host: reference kernel {:.3} ms (median of {}), nominal {:.3} ms, slowdown {:.4}",
            self.median_s() * 1e3,
            self.samples.len(),
            NOMINAL_S * 1e3,
            slowdown(self.median_s())
        )
    }
}

/// The host's slowdown at a kernel time of `kernel_s`: `kernel_s /
/// NOMINAL_S`. A scaled time is the raw time divided by it.
pub fn slowdown(kernel_s: f64) -> f64 {
    kernel_s / NOMINAL_S
}
