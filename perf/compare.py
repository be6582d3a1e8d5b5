#!/usr/bin/env python3
"""Compare two benchmark records against the bounds in BENCHMARK.json.

Usage, from the repository root::

    python3 perf/compare.py BASE.json NEW.json

Both files are documents written by ``python3 perf/run.py --out PATH``
(all workloads).  For every (workload, end-to-end metric) pair the report
says, of NEW against BASE:

- ``worse``: the median moved the bad way by more than the metric's bound;
- ``better``: it moved the good way by more than the bound;
- ``same``: it moved by at most the bound;
- ``unresolved``: the run-to-run spread of either side's median is wider
  than the bound, so the bound cannot be judged, unless every NEW sample
  beats every BASE sample.

A record holds one run per workload, so the run-to-run spread of its
median is estimated from its ``n`` repetitions as ``1.25 * IQR / sqrt(n)``
over the median: the quartile distance of the median of ``n`` independent
samples.  Over three passes of ten runs per workload on a 2-CPU host, the
estimate was at or above the measured run-to-run spread in 11 of 12 cases.

``runs_failed`` and the output fingerprints must match exactly.  Per-layer
count metrics that differ are listed for information: a change to a layer
may move them on purpose.  The exit code is 1 on any ``worse`` pair,
fingerprint or failure mismatch, and 0 otherwise.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Per-layer units whose values repeat exactly for a given program.
EXACT_UNITS = ("count", "B")


def spread(samples) -> float:
    """Expected run-to-run quartile distance of the samples' median, as a
    share of it (0 for fewer than 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return 1.25 * (q3 - q1) / statistics.median(samples) / math.sqrt(len(samples))


def verdict(metric: dict, base: float, new: float, base_samples, new_samples) -> tuple[str, float]:
    """``(verdict, change)``; ``change`` > 0 means NEW is worse."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = sign * (new - base) / base
    bound = metric["bound"]
    if max(spread(base_samples), spread(new_samples)) > bound:
        if base_samples and new_samples and all(
            sign * (n - b) < 0 for n in new_samples for b in base_samples
        ):
            return "better", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(base: dict, new: dict, config: dict) -> tuple[list[str], bool]:
    """Report lines and whether NEW passes."""
    lines = []
    ok = True
    if base.get("smoke") != new.get("smoke"):
        return ["error: one record is --smoke and the other is not"], False
    for name in sorted(set(base["workloads"]) | set(new["workloads"])):
        b = base["workloads"].get(name)
        n = new["workloads"].get(name)
        if b is None or n is None:
            lines.append(f"{name}: missing from {'BASE' if b is None else 'NEW'}")
            ok = False
            continue
        if b["fingerprints"] != n["fingerprints"]:
            lines.append(f"{name}: fingerprint differs {b['fingerprints']} -> {n['fingerprints']}")
            ok = False
        b_fail, n_fail = b["e2e"]["runs_failed"]["value"], n["e2e"]["runs_failed"]["value"]
        if b_fail != n_fail or n_fail:
            lines.append(f"{name}: runs_failed {b_fail} -> {n_fail}")
            ok = False
        for metric in config["end_to_end"]:
            m = metric["name"]
            bv, nv = b["e2e"][m]["value"], n["e2e"][m]["value"]
            word, change = verdict(
                metric, bv, nv, b["samples"].get(m, []), n["samples"].get(m, [])
            )
            ok = ok and word != "worse"
            lines.append(
                f"{name:14s} {m:13s} {bv:12.5g} -> {nv:12.5g} {change:+8.2%} "
                f"(bound {metric['bound']:.0%}) {word}"
            )
        for metric in config["per_layer"]:
            m = metric["name"]
            if metric["unit"] in EXACT_UNITS and b["layers"][m]["value"] != n["layers"][m]["value"]:
                lines.append(
                    f"{name:14s} {m}: count changed "
                    f"{b['layers'][m]['value']} -> {n['layers'][m]['value']}"
                )
    return lines, ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, ok = compare(base, new, config)
    print("\n".join(lines))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
