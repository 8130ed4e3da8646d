"""Compare two sets of benchmark results metric by metric.

    python3 bench/compare.py A1.json A2.json A3.json -- B1.json B2.json B3.json

``A`` is the baseline (the parent), ``B`` the candidate. Each file is a
full result written by ``run.py`` (``bench/out/*.json``) from an
untraced run. For every (workload, end-to-end metric) pair the table
gives each side's median and quartiles, the relative delta of the
medians and a verdict, with the bound from ``BENCHMARK.json``:

* ``regressed`` - B's median is worse than A's by more than the bound,
  or B fails a larger share of operations than A;
* ``unresolved`` - A's own spread (quartile distance over median) is
  wider than the bound, unless every B run is better than every A run;
* ``ok`` - otherwise.

Exits 1 when any pair regressed, 2 on bad input, else 0.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from harness import quartiles

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> dict:
    """``{workload: {"metrics": {name: [values]}, "attempted", "failed"}}``
    over the untraced results among ``paths``."""
    runs: dict = defaultdict(lambda: {"metrics": defaultdict(list),
                                      "attempted": 0, "failed": 0})
    for path in paths:
        result = json.loads(Path(path).read_text())
        if result.get("trace"):
            print(f"skipping traced result {path}", file=sys.stderr)
            continue
        side = runs[result["workload"]]
        side["attempted"] += result["attempted"]
        side["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            side["metrics"][name].append(m["value"])
    return runs


def verdict(a: list, b: list, better: str, bound: float) -> tuple[str, float]:
    """Verdict and relative delta of B's median against A's."""
    a1, a2, a3 = quartiles(a)
    _, b2, _ = quartiles(b)
    delta = (b2 - a2) / a2
    worse = delta if better == "lower" else -delta
    if better == "lower":
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if (a3 - a1) / a2 > bound and not all_better:
        return "unresolved", delta
    if worse > bound:
        return "regressed", delta
    return "ok", delta


def compare(a_paths, b_paths, spec: dict) -> int:
    a_runs, b_runs = load(a_paths), load(b_paths)
    regressed = False
    print(f"{'workload':16s} {'metric':14s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'delta':>8s}  verdict")
    for workload in sorted(set(a_runs) | set(b_runs)):
        if workload not in a_runs or workload not in b_runs:
            print(f"{workload:16s} only on one side", file=sys.stderr)
            return 2
        a, b = a_runs[workload], b_runs[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = a["metrics"].get(name), b["metrics"].get(name)
            if not va or not vb:
                print(f"{workload:16s} {name:14s} missing", file=sys.stderr)
                return 2
            word, delta = verdict(va, vb, metric["better"], metric["bound"])
            regressed |= word == "regressed"
            qa, qb = quartiles(va), quartiles(vb)
            print(f"{workload:16s} {name:14s} "
                  f"{qa[1]:11.5g} [{qa[0]:.5g}, {qa[2]:.5g}] "
                  f"{qb[1]:11.5g} [{qb[0]:.5g}, {qb[2]:.5g}] "
                  f"{100 * delta:+7.2f}%  {word}  (bound {metric['bound']})")
        fa = a["failed"] / max(a["attempted"], 1)
        fb = b["failed"] / max(b["attempted"], 1)
        word = "regressed" if fb > fa else "ok"
        regressed |= word == "regressed"
        print(f"{workload:16s} {'failed_frac':14s} {fa:11.5g} {'':18s} "
              f"{fb:11.5g} {'':18s} {'':8s}  {word}  (may not increase)")
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    a_paths, b_paths = argv[:cut], argv[cut + 1:]
    if not a_paths or not b_paths:
        print("need result files on both sides of --", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(a_paths, b_paths, spec)


if __name__ == "__main__":
    sys.exit(main())
