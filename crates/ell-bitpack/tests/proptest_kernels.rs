//! Property tests for the scan kernels: the SWAR kernel and the
//! production entry points that run it (`PackedArray::for_each_nonzero`,
//! `PackedArray::is_all_zero`) must be bit-identical to the scalar
//! reference — same nonzero fields visited in the same order,
//! same zero verdicts, and run partitions that merge to the same maximal
//! same-class runs — across widths 1..=64, including fields straddling
//! word and run boundaries, plus a deterministic sweep of adversarial
//! shapes (all-zero, all-ones, alternating, isolated straddlers).

use ell_bitpack::kernels::{self, Kernel, Run, RunCursor, WordView, ZeroRun, ZeroRuns};
use ell_bitpack::{mask, PackedArray};
use proptest::prelude::*;

/// Builds an array from (index, value) writes.
fn build(width: u32, len: usize, writes: &[(usize, u64)]) -> PackedArray {
    let mut a = PackedArray::new(width, len);
    for &(i, v) in writes {
        a.set(i % len.max(1), v & mask(width));
    }
    a
}

fn nonzero_with(a: &PackedArray, kernel: Kernel) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    a.for_each_nonzero_with(kernel, |i, v| out.push((i, v)));
    out
}

/// Maximal same-class merge runs (adjacent kernel runs coalesced).
fn coalesced_runs(kernel: Kernel, ours: &[u8], theirs: &[u8]) -> Vec<Run> {
    let mut cursor = RunCursor::new(kernel);
    let mut out: Vec<Run> = Vec::new();
    while let Some(r) = cursor.next_run(WordView::new(ours), WordView::new(theirs)) {
        match out.last_mut() {
            Some(prev) if prev.class == r.class && prev.end == r.start => prev.end = r.end,
            _ => out.push(r),
        }
    }
    out
}

fn coalesced_zero_runs(kernel: Kernel, bytes: &[u8]) -> Vec<ZeroRun> {
    let mut out: Vec<ZeroRun> = Vec::new();
    for r in ZeroRuns::new(WordView::new(bytes), kernel) {
        match out.last_mut() {
            Some(prev) if prev.zero == r.zero && prev.end == r.start => prev.end = r.end,
            _ => out.push(r),
        }
    }
    out
}

fn writes_strategy(len: usize) -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((0..len, any::<u64>()), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Nonzero iteration visits exactly the nonzero fields, in index
    /// order, identically under both kernels and through the production
    /// `for_each_nonzero`.
    #[test]
    fn nonzero_iteration_bit_identical(
        width in 1u32..=64,
        len in 1usize..120,
        writes in (1usize..120).prop_flat_map(writes_strategy)
    ) {
        let a = build(width, len, &writes);
        let reference: Vec<(usize, u64)> = (0..a.len())
            .map(|i| (i, a.get(i)))
            .filter(|&(_, v)| v != 0)
            .collect();
        for kernel in kernels::available() {
            prop_assert_eq!(
                nonzero_with(&a, kernel),
                reference.clone(),
                "kernel {} width {}",
                kernel.name(),
                width
            );
        }
        let mut production = Vec::new();
        a.for_each_nonzero(|i, v| production.push((i, v)));
        prop_assert_eq!(production, reference, "for_each_nonzero width {}", width);
    }

    /// The merge run partition of each kernel coalesces to the scalar
    /// (maximal) partition, covers the buffer contiguously, and agrees
    /// with the per-word scalar classification everywhere.
    #[test]
    fn run_scan_bit_identical(
        width in 1u32..=64,
        len in 1usize..120,
        ours in (1usize..120).prop_flat_map(writes_strategy),
        theirs in (1usize..120).prop_flat_map(writes_strategy),
        copy_prefix in 0usize..120
    ) {
        let a = build(width, len, &ours);
        // Force equal-word runs by copying a prefix of `a` into `b`.
        let mut b = build(width, len, &theirs);
        for i in 0..copy_prefix.min(len) {
            b.set(i, a.get(i));
        }
        let canonical = coalesced_runs(Kernel::Scalar, a.as_bytes(), b.as_bytes());
        let mut covered = 0usize;
        for r in &canonical {
            prop_assert_eq!(r.start, covered);
            prop_assert!(r.end > r.start);
            covered = r.end;
        }
        prop_assert_eq!(covered, a.words().word_count());
        for kernel in kernels::available() {
            prop_assert_eq!(
                coalesced_runs(kernel, a.as_bytes(), b.as_bytes()),
                canonical.clone(),
                "kernel {}",
                kernel.name()
            );
        }
    }

    /// Zero-run scanning and the whole-buffer zero test agree with the
    /// scalar reference under both kernels and through the production
    /// `PackedArray::is_all_zero`.
    #[test]
    fn zero_scan_bit_identical(
        width in 1u32..=64,
        len in 1usize..120,
        writes in (1usize..120).prop_flat_map(writes_strategy)
    ) {
        let a = build(width, len, &writes);
        let canonical = coalesced_zero_runs(Kernel::Scalar, a.as_bytes());
        let all_zero = a.as_bytes().iter().all(|&b| b == 0);
        for kernel in kernels::available() {
            prop_assert_eq!(
                coalesced_zero_runs(kernel, a.as_bytes()),
                canonical.clone(),
                "kernel {}",
                kernel.name()
            );
            prop_assert_eq!(kernels::is_all_zero(a.as_bytes(), kernel), all_zero);
        }
        prop_assert_eq!(a.is_all_zero(), all_zero);
    }
}

/// Deterministic adversarial shapes: all-zero, all-ones, alternating
/// fields, and isolated values placed to straddle every word boundary of
/// the buffer — the cases where a run-boundary field must be decoded
/// from two differently-classified runs.
#[test]
fn adversarial_shapes_all_widths() {
    for width in 1u32..=64 {
        let len = (512 / width as usize).clamp(9, 80);
        let m = mask(width);
        let mut shapes: Vec<PackedArray> = Vec::new();
        shapes.push(PackedArray::new(width, len)); // all zero
        let mut ones = PackedArray::new(width, len);
        let mut alt = PackedArray::new(width, len);
        for i in 0..len {
            ones.set(i, m);
            if i % 2 == 0 {
                alt.set(i, 1u64.max(m & 0x5555_5555_5555_5555));
            }
        }
        shapes.push(ones);
        shapes.push(alt);
        // One isolated nonzero field starting just before each word
        // boundary, so its bits straddle a zero/nonzero run boundary.
        let bits = len * width as usize;
        for word_boundary in (64..bits).step_by(64) {
            let i = (word_boundary - 1) / width as usize;
            let mut s = PackedArray::new(width, len);
            s.set(i, m);
            shapes.push(s);
        }
        for (si, a) in shapes.iter().enumerate() {
            let reference = nonzero_with(a, Kernel::Scalar);
            for kernel in kernels::available() {
                assert_eq!(
                    nonzero_with(a, kernel),
                    reference,
                    "kernel {} width {width} shape {si}",
                    kernel.name()
                );
                assert_eq!(
                    kernels::is_all_zero(a.as_bytes(), kernel),
                    si == 0,
                    "kernel {} width {width} shape {si}",
                    kernel.name()
                );
            }
            // Pairwise run scans between all shapes of this width.
            for b in &shapes {
                let canonical = coalesced_runs(Kernel::Scalar, a.as_bytes(), b.as_bytes());
                for kernel in kernels::available() {
                    assert_eq!(
                        coalesced_runs(kernel, a.as_bytes(), b.as_bytes()),
                        canonical,
                        "kernel {} width {width}",
                        kernel.name()
                    );
                }
            }
        }
    }
}
