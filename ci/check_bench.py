#!/usr/bin/env python3
"""Gate CI on the verdicts embedded in BENCH_*.json artifacts.

Usage:
    python3 ci/check_bench.py [--min-scaling X] FILE [FILE ...]

For every file the script enforces, in order:

1. **Verdict booleans.** Every *top-level* boolean field is treated as a
   law verdict and must be ``true`` — except the informational flags in
   ``INFORMATIONAL`` (``unreliable`` records measurement quality, not a
   law). New verdicts added to a bench are therefore gated automatically,
   with no CI edit.
2. **String verdicts.** ``"equivalence"`` and ``"codec_roundtrip"``
   (the registers bench's compressed-format round trip) must be
   ``"ok"`` when present.
3. **Scaling gate.** When the file carries ``scaling_factor``, it must be
   ``>= --min-scaling`` (default 2.0) — but only when the measurement is
   trustworthy: ``available_parallelism >= 4`` and ``unreliable`` is not
   set. Otherwise the gate is skipped with a printed notice, so runs on
   small machines degrade loudly instead of failing or lying. A report
   that carries ``scaling_factor`` but is missing (or mis-types)
   ``available_parallelism`` or ``scaling_threads`` is **malformed and
   fails** — a half-written report must never skip a gate silently.
4. **Tiering gates.** When the file carries ``warm_bytes_reduction``
   (the tiers bench), it must be ``>= --min-warm-reduction`` (default
   2.0: compressing the idle tail must at least halve resident memory),
   and ``hot_ingest_ratio`` must be present and ``<= --max-hot-ratio``
   (default 1.10: demoted neighbors must not tax the hot path).
5. **Kernel gates.** When the file carries ``kernel_equivalence`` (the
   registers bench), it must be ``"ok"`` — the SWAR kernel produced
   bytes identical to the scalar reference — and
   ``swar_merge_speedup_min`` must be ``>= --min-kernel-speedup``
   (default 1.2: the SWAR kernel must beat the scalar scan on the gated
   overlap/sparse merge shapes).

One summary line is printed per file; the exit status is non-zero if any
check failed anywhere.
"""

import argparse
import json
import sys

# Top-level booleans that describe the measurement, not a law.
INFORMATIONAL = {"unreliable"}

# Top-level strings that are verdicts: "ok" or a failure description.
STRING_VERDICTS = ("equivalence", "codec_roundtrip")

MIN_PARALLELISM = 4


def _number(data: dict, key: str, failures: list) -> float | None:
    """Returns data[key] as a float, recording a failure on a bad type.

    ``bool`` is rejected explicitly: it is an ``int`` subclass, and a
    bench that writes ``"scaling_factor": true`` is broken, not passing.
    """
    value = data.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        failures.append(f"{key} is {value!r}, expected a number")
        return None
    return float(value)


def check_file(
    path: str,
    min_scaling: float,
    min_warm_reduction: float,
    max_hot_ratio: float,
    min_kernel_speedup: float,
) -> bool:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"FAIL {path}: unreadable ({err})")
        return False
    if not isinstance(data, dict):
        print(f"FAIL {path}: top level is not a JSON object")
        return False

    failures = []

    verdicts = {
        key: value
        for key, value in data.items()
        if isinstance(value, bool) and key not in INFORMATIONAL
    }
    for key, value in sorted(verdicts.items()):
        if value is not True:
            failures.append(f"verdict {key} is false")

    for key in STRING_VERDICTS:
        value = data.get(key)
        if value is not None and value != "ok":
            failures.append(f'{key} is "{value}", expected "ok"')
    equivalence = data.get("equivalence")

    scaling_note = ""
    factor = _number(data, "scaling_factor", failures)
    if factor is not None:
        # A scaling report without its provenance fields is malformed:
        # treating a missing core count as 0 would silently skip the
        # gate, which is exactly how a broken bench sneaks past CI.
        cores = data.get("available_parallelism")
        if isinstance(cores, bool) or not isinstance(cores, int):
            failures.append(
                f"scaling_factor present but available_parallelism is "
                f"{cores!r}, expected an integer"
            )
            cores = None
        threads = data.get("scaling_threads")
        if isinstance(threads, bool) or not isinstance(threads, int):
            failures.append(
                f"scaling_factor present but scaling_threads is "
                f"{threads!r}, expected an integer"
            )
            threads = None
        unreliable = data.get("unreliable", False)
        if not isinstance(unreliable, bool):
            failures.append(f"unreliable is {unreliable!r}, expected a boolean")
            unreliable = False
        if cores is None or threads is None:
            pass  # already failed above; no gate decision to make
        elif unreliable:
            scaling_note = (
                f"scaling gate SKIPPED: marked unreliable "
                f"(thread counts clamped, {cores} cores)"
            )
        elif cores < MIN_PARALLELISM:
            scaling_note = (
                f"scaling gate SKIPPED: only {cores} cores "
                f"(need >= {MIN_PARALLELISM})"
            )
        elif factor < min_scaling:
            failures.append(
                f"scaling_factor {factor:.2f} at {threads} threads "
                f"is below the {min_scaling:.1f} gate"
            )
        else:
            scaling_note = f"scaling {factor:.2f}x at {threads} threads (gate {min_scaling:.1f})"

    tier_note = ""
    warm_reduction = _number(data, "warm_bytes_reduction", failures)
    if warm_reduction is not None:
        hot_ratio = _number(data, "hot_ingest_ratio", failures)
        if "hot_ingest_ratio" not in data:
            failures.append("warm_bytes_reduction present but hot_ingest_ratio missing")
        if warm_reduction < min_warm_reduction:
            failures.append(
                f"warm_bytes_reduction {warm_reduction:.2f} is below "
                f"the {min_warm_reduction:.1f} gate"
            )
        if hot_ratio is not None and hot_ratio > max_hot_ratio:
            failures.append(
                f"hot_ingest_ratio {hot_ratio:.3f} exceeds the {max_hot_ratio:.2f} gate"
            )
        if not failures:
            overall = data.get("tiered_bytes_reduction")
            tier_note = f"warm reduction {warm_reduction:.2f}x (gate {min_warm_reduction:.1f})"
            if overall is not None:
                tier_note += f", tiered {overall:.2f}x"
            tier_note += f", hot ratio {hot_ratio:.3f} (gate {max_hot_ratio:.2f})"

    kernel_note = ""
    kernel_equivalence = data.get("kernel_equivalence")
    if kernel_equivalence is not None:
        if kernel_equivalence != "ok":
            failures.append(
                f'kernel_equivalence is "{kernel_equivalence}", expected "ok"'
            )
        swar_min = _number(data, "swar_merge_speedup_min", failures)
        if swar_min is None:
            # Bad type already failed in _number; absence fails here.
            if "swar_merge_speedup_min" not in data:
                failures.append(
                    "kernel_equivalence present but swar_merge_speedup_min missing"
                )
        elif swar_min < min_kernel_speedup:
            failures.append(
                f"swar_merge_speedup_min {swar_min:.3f} is below "
                f"the {min_kernel_speedup:.2f} gate"
            )
        else:
            kernel_note = (
                f"kernel equivalence ok, SWAR >= {swar_min:.2f}x "
                f"(gate {min_kernel_speedup:.2f})"
            )

    name = data.get("bench", "?")
    if failures:
        print(f"FAIL {path} (bench {name}): " + "; ".join(failures))
        return False
    summary = f"OK   {path} (bench {name}): {len(verdicts)} verdict(s) true"
    if equivalence == "ok":
        summary += ", equivalence ok"
    flatness = data.get("query_flatness_ratio")
    if flatness is not None:
        bound = data.get("query_flatness_bound", "?")
        summary += f", query flatness {flatness:.2f}x (bound {bound}x)"
    if kernel_note:
        summary += f"; {kernel_note}"
    if tier_note:
        summary += f"; {tier_note}"
    if scaling_note:
        summary += f"; {scaling_note}"
    print(summary)
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", metavar="FILE")
    parser.add_argument("--min-scaling", type=float, default=2.0)
    parser.add_argument("--min-warm-reduction", type=float, default=2.0)
    parser.add_argument("--max-hot-ratio", type=float, default=1.10)
    parser.add_argument("--min-kernel-speedup", type=float, default=1.2)
    opts = parser.parse_args()
    ok = True
    for path in opts.files:
        ok &= check_file(
            path,
            opts.min_scaling,
            opts.min_warm_reduction,
            opts.max_hot_ratio,
            opts.min_kernel_speedup,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
