//! The storage device model: deterministic latency/bandwidth throttling.
//!
//! Every read and write performed through this crate is *charged* to a
//! [`Device`]. The device computes how long the operation would have taken
//! on the modeled hardware and sleeps for the part the real machine didn't
//! spend. Profiles for a commodity HDD and a SATA SSD (ballpark figures
//! matching the paper's testbed era) are provided, plus an unthrottled
//! profile that disables the model.
//!
//! A device's ledger — the offset a sequential access would start at and
//! the [`DeviceStats`] charged so far — is one plain value under one lock:
//! a charge decides whether it seeks and books what it costs in one step,
//! so a read of [`Device::stats`] is always a consistent copy. The
//! modeled wait itself is paid after the lock is released, so concurrent
//! SSD reads still overlap.

use dsidx_obs::registry::{exponential_bounds, labeled_histogram, Histogram};
use parking_lot::Mutex;
use std::time::Duration;

/// Per-profile I/O histograms, shared by every device with the same
/// profile name (the registry dedups on the `profile` label).
#[derive(Debug, Clone, Copy)]
struct DeviceMetrics {
    read_nanos: &'static Histogram,
    write_nanos: &'static Histogram,
    read_bytes: &'static Histogram,
    write_bytes: &'static Histogram,
}

impl DeviceMetrics {
    fn for_profile(name: &'static str) -> Self {
        // 1us .. ~4s modeled latency, 64B .. ~256MB transfers.
        let latency = exponential_bounds(1_000, 4, 12);
        let bytes = exponential_bounds(64, 4, 12);
        Self {
            read_nanos: labeled_histogram(
                crate::metrics::DEVICE_READ_NANOS,
                "Modeled nanoseconds charged per device read",
                "profile",
                name,
                &latency,
            ),
            write_nanos: labeled_histogram(
                crate::metrics::DEVICE_WRITE_NANOS,
                "Modeled nanoseconds charged per device write",
                "profile",
                name,
                &latency,
            ),
            read_bytes: labeled_histogram(
                crate::metrics::DEVICE_READ_BYTES,
                "Bytes transferred per device read",
                "profile",
                name,
                &bytes,
            ),
            write_bytes: labeled_histogram(
                crate::metrics::DEVICE_WRITE_BYTES,
                "Bytes transferred per device write",
                "profile",
                name,
                &bytes,
            ),
        }
    }
}

/// Static characteristics of a modeled device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Human-readable name (shown in bench output).
    pub name: &'static str,
    /// Latency charged for every non-sequential access.
    pub seek_latency: Duration,
    /// Sequential read bandwidth in bytes/second (0 = unlimited).
    pub read_bandwidth: u64,
    /// Write bandwidth in bytes/second (0 = unlimited).
    pub write_bandwidth: u64,
    /// `true` if concurrent operations serialize (single actuator: HDD);
    /// `false` if they overlap (internal parallelism: SSD).
    pub serialize_io: bool,
}

impl DeviceProfile {
    /// No throttling: operations cost only what the real machine costs.
    pub const UNTHROTTLED: DeviceProfile = DeviceProfile {
        name: "unthrottled",
        seek_latency: Duration::ZERO,
        read_bandwidth: 0,
        write_bandwidth: 0,
        serialize_io: false,
    };

    /// A commodity 7200rpm hard disk: ~8.5 ms seek, ~160/140 MB/s.
    pub const HDD: DeviceProfile = DeviceProfile {
        name: "hdd",
        seek_latency: Duration::from_micros(8500),
        read_bandwidth: 160 * 1024 * 1024,
        write_bandwidth: 140 * 1024 * 1024,
        serialize_io: true,
    };

    /// A SATA SSD: ~90 us access latency, ~520/480 MB/s, parallel I/O.
    pub const SSD: DeviceProfile = DeviceProfile {
        name: "ssd",
        seek_latency: Duration::from_micros(90),
        read_bandwidth: 520 * 1024 * 1024,
        write_bandwidth: 480 * 1024 * 1024,
        serialize_io: false,
    };

    /// `true` when this profile never sleeps.
    #[must_use]
    pub fn is_unthrottled(&self) -> bool {
        self.seek_latency.is_zero() && self.read_bandwidth == 0 && self.write_bandwidth == 0
    }

    /// Bytes whose sequential read costs as much as one seek:
    /// `seek_latency × read_bandwidth`, and 0 when either is zero. A read
    /// that runs through fewer bytes than this to reach its next target
    /// is cheaper than seeking past them.
    #[must_use]
    pub fn seek_equivalent_bytes(&self) -> u64 {
        let bytes = self.seek_latency.as_nanos() * u128::from(self.read_bandwidth) / 1_000_000_000;
        u64::try_from(bytes).unwrap_or(u64::MAX)
    }
}

/// Counters accumulated by a device (nanosecond sleep total included), for
/// bench reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Bytes charged as reads.
    pub bytes_read: u64,
    /// Bytes charged as writes.
    pub bytes_written: u64,
    /// Number of accesses charged a seek.
    pub seeks: u64,
    /// Total modeled delay, in nanoseconds.
    pub charged_nanos: u64,
}

/// A throttling device instance. Shareable across threads (`Arc<Device>`);
/// all charging methods take `&self`.
#[derive(Debug)]
pub struct Device {
    profile: DeviceProfile,
    ledger: Mutex<Ledger>,
    /// Serializes sleeps when the profile demands it.
    io_lock: Mutex<()>,
    metrics: DeviceMetrics,
}

/// What a device has booked: where the next sequential access starts, and
/// the counters charged so far.
#[derive(Debug)]
struct Ledger {
    /// Expected next sequential offset, for seek detection (`u64::MAX`
    /// before the first read, so that one seeks).
    expected_offset: u64,
    stats: DeviceStats,
}

impl Default for Ledger {
    fn default() -> Self {
        Self {
            expected_offset: u64::MAX,
            stats: DeviceStats::default(),
        }
    }
}

/// Delays shorter than this accumulate instead of sleeping (sleep syscalls
/// have ~50 us granularity).
const SLEEP_THRESHOLD_NANOS: u64 = 200_000;

impl Device {
    /// Creates a device with the given profile.
    #[must_use]
    pub fn new(profile: DeviceProfile) -> Self {
        Self {
            profile,
            ledger: Mutex::default(),
            io_lock: Mutex::new(()),
            metrics: DeviceMetrics::for_profile(profile.name),
        }
    }

    /// An unthrottled device.
    #[must_use]
    pub fn unthrottled() -> Self {
        Self::new(DeviceProfile::UNTHROTTLED)
    }

    /// The device's profile.
    #[must_use]
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Charges a read of `bytes` starting at file `offset` (seek detection
    /// compares against the previous read's end).
    pub fn charge_read(&self, offset: u64, bytes: u64) {
        let mut ledger = self.ledger.lock();
        ledger.stats.bytes_read += bytes;
        let mut nanos = 0;
        if !self.profile.is_unthrottled() {
            nanos = bandwidth_nanos(bytes, self.profile.read_bandwidth);
            if std::mem::replace(&mut ledger.expected_offset, offset + bytes) != offset {
                ledger.stats.seeks += 1;
                nanos += self.profile.seek_latency.as_nanos() as u64;
            }
            ledger.stats.charged_nanos += nanos;
        }
        drop(ledger);
        self.observe(
            self.metrics.read_bytes,
            bytes,
            self.metrics.read_nanos,
            nanos,
        );
        self.pay(nanos);
    }

    /// Charges a sequential append of `bytes` (no seek).
    pub fn charge_append(&self, bytes: u64) {
        let nanos = bandwidth_nanos(bytes, self.profile.write_bandwidth);
        let mut ledger = self.ledger.lock();
        ledger.stats.bytes_written += bytes;
        ledger.stats.charged_nanos += nanos;
        drop(ledger);
        self.observe(
            self.metrics.write_bytes,
            bytes,
            self.metrics.write_nanos,
            nanos,
        );
        self.pay(nanos);
    }

    /// Records one I/O in the per-profile histograms when observability is
    /// on (one relaxed atomic load when it is off).
    #[inline]
    fn observe(&self, bytes_h: &Histogram, bytes: u64, nanos_h: &Histogram, nanos: u64) {
        if dsidx_obs::enabled() {
            bytes_h.observe(bytes);
            nanos_h.observe(nanos);
        }
    }

    /// Waits out a charge already booked in the ledger (never under its
    /// lock: SSD waits overlap).
    fn pay(&self, nanos: u64) {
        if nanos == 0 {
            return;
        }
        // Each thread accumulates its own sub-threshold debt and pays it
        // itself — a shared pool would let one thread sleep on behalf of
        // others and break the SSD parallel-I/O model. (Debt is per-thread,
        // not per-device; engines drive one modeled device per experiment,
        // matching a single physical disk holding data + index.)
        thread_local! {
            static OWED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        }
        let owed = OWED.with(|c| {
            let total = c.get() + nanos;
            if total < SLEEP_THRESHOLD_NANOS {
                c.set(total);
                0
            } else {
                c.set(0);
                total
            }
        });
        if owed == 0 {
            return;
        }
        if self.profile.serialize_io {
            // Single actuator: concurrent operations queue behind each other.
            let _guard = self.io_lock.lock();
            precise_wait(Duration::from_nanos(owed));
        } else {
            precise_wait(Duration::from_nanos(owed));
        }
    }

    /// A consistent copy of the accumulated counters.
    #[must_use]
    pub fn stats(&self) -> DeviceStats {
        self.ledger.lock().stats
    }

    /// Resets counters and seek tracking (between experiment phases).
    pub fn reset_stats(&self) {
        *self.ledger.lock() = Ledger::default();
    }
}

/// Waits for `d` with microsecond-level accuracy.
///
/// `thread::sleep` on this class of kernel oversleeps by ~1 ms regardless of
/// the request, which would swamp SSD-scale latencies (90 us). We measure
/// that overhead once, sleep for `d - overhead` (yielding the CPU for the
/// bulk of the wait, as a real blocked I/O would), and spin out the
/// remainder for accuracy.
fn precise_wait(d: Duration) {
    let deadline = std::time::Instant::now() + d;
    let margin = sleep_overhead();
    if d > margin {
        std::thread::sleep(d - margin);
    }
    while std::time::Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Measured fixed oversleep of `thread::sleep`, clamped to a sane range.
fn sleep_overhead() -> Duration {
    static OVERHEAD: std::sync::OnceLock<Duration> = std::sync::OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut worst = Duration::ZERO;
        for _ in 0..3 {
            let req = Duration::from_micros(100);
            let t0 = std::time::Instant::now();
            std::thread::sleep(req);
            worst = worst.max(t0.elapsed().saturating_sub(req));
        }
        // Add headroom: undershooting the margin turns into a long spin,
        // overshooting just spins slightly longer than needed.
        (worst * 2).clamp(Duration::from_micros(200), Duration::from_millis(5))
    })
}

pub(crate) fn bandwidth_nanos(bytes: u64, bandwidth: u64) -> u64 {
    if bandwidth == 0 {
        0
    } else {
        // bytes / (bytes/sec) in nanos, computed in u128 to avoid overflow.
        ((u128::from(bytes) * 1_000_000_000) / u128::from(bandwidth)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn unthrottled_never_sleeps() {
        let d = Device::unthrottled();
        let t0 = Instant::now();
        for i in 0..1000 {
            d.charge_read(i * 4096, 4096);
            d.charge_append(4096);
        }
        assert!(t0.elapsed() < Duration::from_millis(100));
        let stats = d.stats();
        assert_eq!(stats.bytes_read, 1000 * 4096);
        assert_eq!(stats.bytes_written, 1000 * 4096);
        assert_eq!(stats.charged_nanos, 0);
    }

    #[test]
    fn sequential_reads_do_not_seek() {
        let d = Device::new(DeviceProfile::HDD);
        d.charge_read(0, 1024);
        d.charge_read(1024, 1024);
        d.charge_read(2048, 1024);
        // First read from "nowhere" counts as one seek; the rest are
        // sequential.
        assert_eq!(d.stats().seeks, 1);
    }

    #[test]
    fn random_reads_each_seek() {
        let d = Device::new(DeviceProfile::SSD);
        d.charge_read(0, 512);
        d.charge_read(100_000, 512);
        d.charge_read(5_000, 512);
        assert_eq!(d.stats().seeks, 3);
    }

    #[test]
    fn hdd_random_reads_cost_seek_latency() {
        let d = Device::new(DeviceProfile::HDD);
        let t0 = Instant::now();
        // 10 random 4K reads: ≥ 10 * 8.5ms = 85ms of modeled time.
        for i in 0..10u64 {
            d.charge_read(i * 10_000_000 + 1, 4096);
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(70),
            "slept only {elapsed:?}"
        );
        assert!(d.stats().charged_nanos >= 80_000_000);
    }

    #[test]
    fn bandwidth_charging_scales_with_bytes() {
        let d = Device::new(DeviceProfile::HDD);
        let t0 = Instant::now();
        // 32 MiB sequential at 160 MiB/s = 200 ms, plus the first read's
        // seek (8.5 ms). The charge is exact; the wall clock only has to
        // cover most of it (an upper bound would measure the machine).
        let block = 4 * 1024 * 1024u64;
        for i in 0..8 {
            d.charge_read(i * block, block);
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(150),
            "slept only {elapsed:?}"
        );
        let stats = d.stats();
        assert_eq!(stats.seeks, 1);
        assert_eq!(stats.charged_nanos, 208_500_000);
    }

    #[test]
    fn ssd_parallel_reads_overlap() {
        // Two threads, one 16 MiB read each: ~32 ms of modeled transfer
        // apiece, almost all of it slept, so the two waits need no second
        // core to overlap. Serialized (the HDD's single actuator) they
        // would take ~64 ms; the SSD must stay well under that. The waits
        // are long against scheduler noise and a loaded machine still gets
        // a few tries; the overlap must show up in at least one.
        let d = Device::new(DeviceProfile::SSD);
        let bytes = 16 * 1024 * 1024u64;
        let one = Duration::from_nanos(bandwidth_nanos(bytes, d.profile().read_bandwidth));
        let mut last = Duration::ZERO;
        for _ in 0..3 {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for t in 0..2u64 {
                    let d = &d;
                    s.spawn(move || d.charge_read(t * 1_000_000_000, bytes));
                }
            });
            last = t0.elapsed();
            assert!(
                last >= one,
                "two reads took {last:?}, one alone takes {one:?}"
            );
            if last < one * 3 / 2 {
                return;
            }
        }
        panic!("SSD reads serialized: {last:?} for two overlapping {one:?} reads");
    }

    #[test]
    fn small_charges_accumulate_instead_of_oversleeping() {
        let d = Device::new(DeviceProfile::SSD);
        let t0 = Instant::now();
        // 1000 x 1-byte sequential reads: 1 ns of bandwidth each, and only
        // the first is a seek (90 us). The 91 us total stays under the
        // sleep threshold, so it is owed, never slept.
        for i in 0..1000 {
            d.charge_read(i, 1);
        }
        let elapsed = t0.elapsed();
        let stats = d.stats();
        assert_eq!(stats.seeks, 1);
        assert_eq!(stats.charged_nanos, 91_000);
        assert!(stats.charged_nanos < SLEEP_THRESHOLD_NANOS);
        // A device that slept per charge would pay a sleep's floor (the
        // threshold) 1000 times; one that accumulates comes nowhere near.
        assert!(
            elapsed < Duration::from_nanos(1000 * SLEEP_THRESHOLD_NANOS),
            "{elapsed:?}"
        );
    }

    #[test]
    fn concurrent_charges_book_a_consistent_ledger() {
        // Four threads, each reading its own sequential stretch and
        // appending between reads: how many reads seek depends on the
        // interleaving, but every read and every byte is booked, and the
        // modeled time is exactly what the booked bytes and seeks cost.
        let d = Device::new(DeviceProfile::SSD);
        let (threads, ops) = (4u64, 100u64);
        let read = |t: u64, i: u64| 512 + 64 * ((t + i) % 7);
        let append = |t: u64, i: u64| 256 + 32 * ((t * i) % 5);
        std::thread::scope(|s| {
            for t in 0..threads {
                let d = &d;
                s.spawn(move || {
                    let mut offset = t << 40;
                    for i in 0..ops {
                        d.charge_read(offset, read(t, i));
                        offset += read(t, i);
                        d.charge_append(append(t, i));
                    }
                });
            }
        });
        let profile = d.profile();
        let (mut bytes_read, mut bytes_written, mut bandwidth) = (0, 0, 0);
        for t in 0..threads {
            for i in 0..ops {
                bytes_read += read(t, i);
                bytes_written += append(t, i);
                bandwidth += bandwidth_nanos(read(t, i), profile.read_bandwidth)
                    + bandwidth_nanos(append(t, i), profile.write_bandwidth);
            }
        }
        let stats = d.stats();
        assert_eq!(stats.bytes_read, bytes_read);
        assert_eq!(stats.bytes_written, bytes_written);
        assert!(
            (1..=threads * ops).contains(&stats.seeks),
            "{} seeks",
            stats.seeks
        );
        assert_eq!(
            stats.charged_nanos,
            bandwidth + stats.seeks * profile.seek_latency.as_nanos() as u64
        );
    }

    #[test]
    fn a_seek_costs_as_much_as_reading_its_equivalent_bytes() {
        assert_eq!(DeviceProfile::SSD.seek_equivalent_bytes(), 49_073);
        assert_eq!(DeviceProfile::HDD.seek_equivalent_bytes(), 1_426_063);
        assert_eq!(DeviceProfile::UNTHROTTLED.seek_equivalent_bytes(), 0);
        let no_bandwidth = DeviceProfile {
            read_bandwidth: 0,
            ..DeviceProfile::SSD
        };
        assert_eq!(no_bandwidth.seek_equivalent_bytes(), 0);
        let no_seek = DeviceProfile {
            seek_latency: Duration::ZERO,
            ..DeviceProfile::SSD
        };
        assert_eq!(no_seek.seek_equivalent_bytes(), 0);
        // Reading them through is never slower than the seek.
        for profile in [DeviceProfile::SSD, DeviceProfile::HDD] {
            let bytes = profile.seek_equivalent_bytes();
            let seek = profile.seek_latency.as_nanos() as u64;
            assert!(bandwidth_nanos(bytes, profile.read_bandwidth) <= seek);
        }
    }

    #[test]
    fn reset_clears_counters() {
        let d = Device::new(DeviceProfile::SSD);
        d.charge_read(0, 100);
        d.reset_stats();
        assert_eq!(d.stats(), DeviceStats::default());
        // Seek tracking restarts too: the read that would have continued
        // the last one seeks.
        d.charge_read(100, 100);
        assert_eq!(d.stats().seeks, 1);
    }
}
