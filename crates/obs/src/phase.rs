//! Wall-clock time per query phase.
//!
//! The paper's evaluation reasons about *phase breakdowns* — where a
//! query's milliseconds went, not just how many bounds were computed.
//! [`Phase`] is the cross-engine phase vocabulary, [`PhaseBreakdown`] the
//! accumulated nanoseconds that ride on `QueryStats`/`BatchStats`, and
//! [`PhaseClock`] the instrument the engines record with. A breakdown is a
//! plain value: a worker or a coordinator fills its own and merges it
//! once, under the lock of whatever holds the shared one.
//!
//! Phases are measured on the *coordinating* thread as disjoint,
//! contiguous intervals (a [`PhaseClock`] lap ends exactly where the next
//! begins), so a breakdown's [`total_nanos`](PhaseBreakdown::total_nanos)
//! approximates the query's wall time — the `obs` bench experiment holds
//! the two within 10% of each other. A parallel phase (a pool broadcast)
//! is charged as one interval: the coordinator's wait *is* the phase's
//! wall time. Where the workers of one broadcast each run several phases
//! back to back (MESSI answering whole queries per worker), that interval
//! is split between the phases in the proportions the workers measured —
//! still wall time, never a sum over workers.
//!
//! All capture is gated on [`crate::enabled`]: with observability off the
//! clocks never read the OS timer and every recorded duration is zero.

use std::time::Instant;

/// One phase of a query's execution schedule, uniform across engines.
///
/// Engines record the phases their schedule has: the scan-based engines
/// (ADS+, ParIS) use seed/collect/verify; MESSI uses
/// seed/traversal (its single broadcast covers tree traversal *and* the
/// best-bound-first queue drain); DTW queries charge their LB_Keogh →
/// early-abandoned-DTW work to the dtw-cascade phase. Every engine pays
/// prepare (PAA, SAX words, per-query tables, batch setup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Query preparation: z-checks, PAA, iSAX words, MINDIST tables,
    /// batch construction.
    Prepare,
    /// BSF seeding from the query's own (approximate) leaf, including the
    /// series reads it pays for.
    Seed,
    /// The sketch scan over the SAX array behind ParIS's approximate
    /// answers.
    SaxScan,
    /// Lower-bound candidate collection broadcast (ParIS/ParIS+).
    Collect,
    /// Real-distance verification of collected candidates (ParIS/ParIS+).
    Verify,
    /// The MESSI broadcast: cooperative tree traversal plus the
    /// best-bound-first priority-queue drain.
    Traversal,
    /// The DTW lower-bound cascade: LB_Keogh filtering and banded,
    /// early-abandoned DTW evaluation.
    DtwCascade,
}

impl Phase {
    /// Number of phases (the length of [`Phase::ALL`]).
    pub const COUNT: usize = 7;

    /// Every phase, in schedule order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Prepare,
        Phase::Seed,
        Phase::SaxScan,
        Phase::Collect,
        Phase::Verify,
        Phase::Traversal,
        Phase::DtwCascade,
    ];

    /// The phase's stable snake_case name, used in trace events, bench
    /// columns and metric labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Prepare => "prepare",
            Phase::Seed => "seed",
            Phase::SaxScan => "sax_scan",
            Phase::Collect => "collect",
            Phase::Verify => "verify",
            Phase::Traversal => "traversal",
            Phase::DtwCascade => "dtw_cascade",
        }
    }
}

/// Accumulated nanoseconds per [`Phase`] for one query or one batch.
///
/// A plain `Copy` value that rides on `QueryStats`; merging stats sums
/// breakdowns field-wise like every other counter. Equality compares the
/// recorded nanoseconds — two runs of the same query will generally *not*
/// be equal (wall time is not deterministic), which is why determinism
/// tests compare matches, not stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    nanos: [u64; Phase::COUNT],
}

impl PhaseBreakdown {
    /// A breakdown with every phase at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Nanoseconds recorded for `phase`.
    #[must_use]
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase as usize]
    }

    /// Adds `nanos` to `phase`.
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        self.nanos[phase as usize] += nanos;
    }

    /// Sum over all phases — approximately the query's wall time when the
    /// phases were recorded as contiguous coordinator-side intervals.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// `(phase, nanos)` pairs in schedule order, zero phases included.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.iter().map(|&p| (p, self.nanos(p)))
    }

    /// Field-wise sum.
    #[must_use]
    pub fn merged(&self, other: &PhaseBreakdown) -> PhaseBreakdown {
        let mut out = *self;
        for (i, n) in other.nanos.iter().enumerate() {
            out.nanos[i] += n;
        }
        out
    }

    /// `true` when no phase recorded any time.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.nanos.iter().all(|&n| n == 0)
    }
}

/// A lap timer for contiguous phase intervals on the coordinating thread.
///
/// `start` it at the top of the query function, then [`lap`](Self::lap)
/// at each phase boundary: every nanosecond between start and the final
/// lap is charged to exactly one phase, so the breakdown's total tracks
/// wall time. When observability is [disabled](crate::enabled) the clock
/// is inert and laps return zero.
#[derive(Debug)]
pub struct PhaseClock {
    last: Option<Instant>,
}

impl PhaseClock {
    /// Starts the clock (inert when observability is off).
    #[must_use]
    pub fn start() -> Self {
        Self {
            last: crate::enabled().then(Instant::now),
        }
    }

    /// Nanoseconds since the previous lap (or since `start`), advancing
    /// the lap marker. Zero when observability is off.
    #[must_use]
    pub fn lap(&mut self) -> u64 {
        match self.last {
            None => 0,
            Some(prev) => {
                let now = Instant::now();
                self.last = Some(now);
                u64::try_from((now - prev).as_nanos()).unwrap_or(u64::MAX)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_records_and_merges_per_phase() {
        let mut a = PhaseBreakdown::new();
        a.record(Phase::Seed, 10);
        a.record(Phase::Seed, 5);
        a.record(Phase::Verify, 7);
        let mut b = PhaseBreakdown::new();
        b.record(Phase::Verify, 3);
        b.record(Phase::Prepare, 1);
        let m = a.merged(&b);
        assert_eq!(m.nanos(Phase::Seed), 15);
        assert_eq!(m.nanos(Phase::Verify), 10);
        assert_eq!(m.nanos(Phase::Prepare), 1);
        assert_eq!(m.total_nanos(), 26);
        assert!(!m.is_zero());
        assert!(PhaseBreakdown::default().is_zero());
    }

    #[test]
    fn phase_names_are_unique_and_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "prepare",
                "seed",
                "sax_scan",
                "collect",
                "verify",
                "traversal",
                "dtw_cascade"
            ]
        );
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Phase::COUNT);
    }

    #[test]
    fn clock_laps_are_contiguous_and_cover_elapsed_time() {
        crate::set_enabled(true);
        let t0 = Instant::now();
        let mut clock = PhaseClock::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut got = PhaseBreakdown::new();
        got.record(Phase::Seed, clock.lap());
        std::thread::sleep(std::time::Duration::from_millis(2));
        got.record(Phase::Traversal, clock.lap());
        let wall = u64::try_from(t0.elapsed().as_nanos()).unwrap();
        assert!(got.nanos(Phase::Seed) >= 1_000_000);
        assert!(got.nanos(Phase::Traversal) >= 1_000_000);
        // Laps are contiguous: their sum can't exceed the enclosing wall
        // time measured from before the clock started.
        assert!(got.total_nanos() <= wall);
    }
}
