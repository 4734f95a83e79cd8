//! # dsidx-obs — the observability substrate
//!
//! Everything the rest of the workspace reports through lives here, with
//! zero dependencies so any crate (the sync primitives included) can
//! instrument itself:
//!
//! * [`registry`] — a process-wide, lock-free metrics registry: monotonic
//!   [`Counter`](registry::Counter)s and fixed-bucket
//!   [`Histogram`](registry::Histogram)s behind `&'static` handles
//!   (register once, then pure atomics on the hot path), exported as
//!   Prometheus text exposition or a JSON snapshot.
//! * [`phase`] — wall-clock time per query phase: the [`Phase`](phase::Phase)
//!   vocabulary (prepare, seed, sax-scan, collect, verify, traversal,
//!   dtw-cascade), a [`PhaseBreakdown`](phase::PhaseBreakdown) of
//!   accumulated nanoseconds carried on `QueryStats`/`BatchStats` (a plain
//!   value, merged like the work counters), and the
//!   [`PhaseClock`](phase::PhaseClock) the engines lap at each phase
//!   boundary.
//! * [`report`] — wall-clock time per build phase: the one
//!   [`BuildReport`] every engine's build returns (read, summarize, grow,
//!   flush, stitch).
//! * [`trace`] — an env-gated structured trace stream
//!   (`DSIDX_TRACE=<path|stderr>`): JSON-lines events for build phases,
//!   pool broadcasts and error-slot trips. Costs one relaxed atomic load
//!   when off.
//!
//! ## The kill switch
//!
//! [`enabled`] gates every timing capture: with `DSIDX_NO_OBS=1` (or after
//! [`set_enabled`]`(false)`) the phase clocks never read the OS clock and
//! metric updates are skipped, leaving only a relaxed load per
//! would-be capture. The `obs` bench experiment measures exactly this
//! delta (enabled vs. disabled on the same binary) and holds it under 2%
//! of end-to-end k-NN time.

pub mod phase;
pub mod registry;
pub mod report;
pub mod trace;

pub use report::BuildReport;

use std::sync::atomic::{AtomicU8, Ordering};

/// `0` = not yet initialized from the environment, `1` = off, `2` = on.
static OBS_STATE: AtomicU8 = AtomicU8::new(0);

#[cold]
fn init_from_env() -> bool {
    let off = std::env::var("DSIDX_NO_OBS").is_ok_and(|v| !v.is_empty() && v != "0");
    OBS_STATE.store(if off { 1 } else { 2 }, Ordering::Relaxed);
    !off
}

/// `true` when observability capture (phase clocks, metric updates) is on.
///
/// On by default; `DSIDX_NO_OBS=1` in the environment or
/// [`set_enabled`]`(false)` turns it off. One relaxed atomic load on the
/// hot path.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    match OBS_STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

/// Overrides the observability switch at runtime (wins over the
/// environment). The `obs` overhead benchmark uses this to A/B the same
/// binary with capture on and off.
pub fn set_enabled(on: bool) {
    OBS_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}
