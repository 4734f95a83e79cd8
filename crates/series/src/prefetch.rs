//! Software prefetch for the query kernels' irregular reads.
//!
//! An index query visits leaves in bound order and raw series in whatever
//! order the bounds let through, so neither the leaf words nor the series
//! are where the hardware prefetcher expects the next access. The kernels
//! know the address a few steps ahead (the next leaf of a sorted run, the
//! survivors of a leaf's bound pass); saying so turns a serial chain of
//! DRAM misses into overlapped ones. Purely a hint: answers never depend
//! on it, and off x86-64 it compiles to nothing.

/// Bytes per cache line on every x86-64 part this crate has kernels for.
#[cfg(target_arch = "x86_64")]
const LINE_BYTES: usize = 64;

/// Asks the CPU to start loading the first `lines` cache lines of `data`
/// (fewer when `data` is shorter; `usize::MAX` asks for all of it) into
/// every cache level.
#[inline]
pub fn prefetch_lines<T>(data: &[T], lines: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let bytes = std::mem::size_of_val(data).min(lines.saturating_mul(LINE_BYTES));
        let base = data.as_ptr().cast::<i8>();
        for offset in (0..bytes).step_by(LINE_BYTES) {
            // SAFETY: `offset < size_of_val(data)`, so the address lies
            // inside the slice's allocation; SSE prefetch is baseline on
            // x86-64 and never faults or writes, whatever it is aimed at.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(base.add(offset)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (data, lines);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetching_is_a_no_op_for_the_program() {
        let data: Vec<f32> = (0..300).map(|i| i as f32).collect();
        for lines in [0usize, 1, 2, 1000, usize::MAX] {
            prefetch_lines(&data, lines);
            prefetch_lines(&data[..3], lines);
            prefetch_lines::<f32>(&[], lines);
        }
        assert_eq!(data[299], 299.0);
    }
}
