#!/usr/bin/env python3
"""Spread of one batch of sets, or the comparison of two.

    benchmark/compare.py a.json            spread of a's sets against the bounds
    benchmark/compare.py a.json b.json     b's medians against a's, row by row

A file is a `result.json` (one set) or a `repeat.json` (several, from
`repeat.sh`). For every workload row and every end-to-end metric it prints
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the spread
(third quartile minus first, as a share of the median) beside the metric's
bound. With two files it adds how much worse b's median is than a's, as a
share of a's; a row whose spread exceeds its bound on either side is
`unresolved`, not `ok`: the runs cannot tell a change of that size from noise.

Exit code 1 when a row regressed, 0 otherwise (unresolved rows are printed,
not failed: demote such a metric to `bench.*`, never widen its bound).
"""
import json
import statistics
import sys


def load(path):
    """{(workload, metric): [values]} and {metric: (better, bound)} of the untraced runs."""
    with open(path) as f:
        doc = json.load(f)
    sets = doc["sets"] if "sets" in doc else [doc]
    values, meta = {}, {}
    for one in sets:
        for run in one["runs"]:
            if run["trace"] != 0:
                continue
            for name, m in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(m["value"])
                meta[name] = (m["better"], m["bound"])
    return values, meta


def summary(xs):
    """(median, q1, q3, spread as a share of the median)."""
    med = statistics.median(xs)
    if len(xs) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    a, meta = load(argv[1])
    b = load(argv[2])[0] if len(argv) == 3 else None
    regressed = False
    head = f"{'workload':<13} {'metric':<24} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
    print(head + ("   b median   worse  verdict" if b else "  verdict"))
    for (workload, name), xs in a.items():
        better, bound = meta[name]
        med, q1, q3, spread = summary(xs)
        row = f"{workload:<13} {name:<24} {len(xs):>3} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>7.3f} {bound:>6.2f}"
        if b is None:
            verdict = "ok" if spread <= bound else "unresolved"
            print(f"{row}  {verdict}")
            continue
        ys = b.get((workload, name))
        if not ys:
            print(f"{row}  missing in b")
            regressed = True
            continue
        med_b, _, _, spread_b = summary(ys)
        worse = (med_b - med) / abs(med) if better == "lower" else (med - med_b) / abs(med)
        if max(spread, spread_b) > bound:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSED"
            regressed = True
        else:
            verdict = "ok"
        print(f"{row} {med_b:>10.4f} {worse:>+7.3f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
