#!/usr/bin/env python3
"""Perf-trajectory regression gate over bench `summary` blocks.

Compares the `summary` section of two `--metrics` JSON documents (a
checked-in `results/BENCH_<bin>.json` baseline and a fresh run) and
exits nonzero when the new run regresses:

* **throughput keys** (name contains ``throughput`` or ends with
  ``_ops_per_s``): higher is better; fail when the new value falls more
  than ``--throughput-tolerance`` percent (default 10) below baseline.
* **rank keys** (name ends with ``est_rank_p99``): lower is better;
  fail when the new value exceeds ``baseline * --rank-factor`` (default
  2.0) plus ``--rank-slack`` (default 128 — at the default 1/64
  sampling rate the estimator's rank quantum is 64, so tiny baselines
  would otherwise gate on one quantum of noise).
* **insert-p50 keys** (name ends with ``insert_p50_ns``): lower is
  better; fail when the new value rises more than ``--p50-tolerance``
  percent (default 10) above baseline. The median is stable enough to
  gate on (unlike the tails) and is where an allocation slipped back
  onto the hot path shows first.
* **other latency keys** (name ends with ``_ns``): warn-only. Latency
  tails on shared CI runners are too noisy to gate on; the trend is
  still printed for the human reading the log.
* anything else: warn-only on large moves.

``--synthetic-drop PCT`` scales the new run's throughput values down
before comparing — the CI job uses it to prove the gate actually fires
(a gate that cannot fail is not a gate).

``--self-test`` runs the script's own unit checks (missing baseline,
one-sided keys, regression detection, clean pass) against synthetic
documents in a temp directory and exits 0/1; CI runs it before the
real comparison so gate bugs fail loudly instead of green.

Exit codes: 0 pass, 1 regression, 2 usage/parse error (missing or
unreadable file, missing summary block, or a summary key present on
only one side — a one-sided key means the bench matrix changed and the
baseline must be regenerated, not silently skipped).
"""

import argparse
import json
import sys


def die(msg: str) -> "NoReturn":  # noqa: F821 - py3.8 compat, no typing import
    print(f"compare_bench: error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_summary(path: str) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        die(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        die(f"{path} is not valid JSON: {e}")
    summary = doc.get("summary")
    if not isinstance(summary, dict) or not summary:
        die(f"{path} has no summary block (regenerate with a --metrics run)")
    bad = {k: v for k, v in summary.items() if not isinstance(v, (int, float))}
    if bad:
        die(f"{path} summary has non-numeric entries: {sorted(bad)}")
    return summary


def is_throughput(key: str) -> bool:
    return "throughput" in key or key.endswith("_ops_per_s")


def is_rank(key: str) -> bool:
    return key.endswith("est_rank_p99")


def is_insert_p50(key: str) -> bool:
    return key.endswith("insert_p50_ns")


def is_latency(key: str) -> bool:
    return key.endswith("_ns")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("baseline", help="checked-in results/BENCH_<bin>.json")
    p.add_argument("new", help="freshly produced --metrics JSON")
    p.add_argument(
        "--throughput-tolerance",
        type=float,
        default=10.0,
        metavar="PCT",
        help="max allowed throughput drop in percent (default 10)",
    )
    p.add_argument(
        "--p50-tolerance",
        type=float,
        default=10.0,
        metavar="PCT",
        help="max allowed insert-p50 latency rise in percent (default 10)",
    )
    p.add_argument(
        "--rank-factor",
        type=float,
        default=2.0,
        metavar="F",
        help="max allowed est_rank_p99 growth factor (default 2.0)",
    )
    p.add_argument(
        "--rank-slack",
        type=float,
        default=128.0,
        metavar="N",
        help="additive est_rank_p99 slack on top of the factor (default 128)",
    )
    p.add_argument(
        "--synthetic-drop",
        type=float,
        default=0.0,
        metavar="PCT",
        help="scale new throughput down PCT%% before comparing (gate self-check)",
    )
    args = p.parse_args(argv)

    base = load_summary(args.baseline)
    new = load_summary(args.new)

    # A key on only one side means the two documents do not describe
    # the same bench matrix (a queue kind was added/removed, a summary
    # key was renamed, or the baseline is stale). Comparing the
    # intersection would silently un-gate whatever moved, so this is a
    # usage error, not a warning.
    only_base = sorted(set(base) - set(new))
    only_new = sorted(set(new) - set(base))
    if only_base or only_new:
        die(
            "summary keys present on only one side — "
            f"baseline only: {only_base or '[]'}, new run only: {only_new or '[]'} "
            "(bench matrix changed; regenerate the baseline)"
        )

    failures = []
    warnings = []

    for key in sorted(base):
        b, n = float(base[key]), float(new[key])
        if is_throughput(key):
            if args.synthetic_drop:
                n *= 1.0 - args.synthetic_drop / 100.0
            floor = b * (1.0 - args.throughput_tolerance / 100.0)
            delta = (n - b) / b * 100.0 if b else 0.0
            line = f"{key}: {b:.0f} -> {n:.0f} ({delta:+.1f}%)"
            if n < floor:
                failures.append(
                    f"{line} below the {args.throughput_tolerance:.0f}% tolerance"
                )
            else:
                print(f"ok   {line}")
        elif is_rank(key):
            ceil = b * args.rank_factor + args.rank_slack
            line = f"{key}: {b:.0f} -> {n:.0f} (ceiling {ceil:.0f})"
            if n > ceil:
                failures.append(f"{line} rank error regressed past the ceiling")
            else:
                print(f"ok   {line}")
        elif is_insert_p50(key):
            ceil = b * (1.0 + args.p50_tolerance / 100.0)
            delta = (n - b) / b * 100.0 if b else 0.0
            line = f"{key}: {b:.0f} -> {n:.0f} ns ({delta:+.1f}%)"
            if b > 0 and n > ceil:
                failures.append(
                    f"{line} above the {args.p50_tolerance:.0f}% insert-p50 tolerance"
                )
            else:
                print(f"ok   {line}")
        elif is_latency(key):
            if b > 0 and n > b * 2.0:
                warnings.append(f"{key}: {b:.0f} -> {n:.0f} ns (>2x, warn-only)")
            else:
                print(f"ok   {key}: {b:.0f} -> {n:.0f} ns")
        else:
            if b > 0 and (n > b * 2.0 or n < b * 0.5):
                warnings.append(f"{key}: {b:.6g} -> {n:.6g} (>2x move, warn-only)")
            else:
                print(f"ok   {key}: {b:.6g} -> {n:.6g}")

    for w in warnings:
        print(f"warn {w}")
    for f in failures:
        print(f"FAIL {f}")
    if failures:
        print(f"compare_bench: {len(failures)} regression(s) vs {args.baseline}")
        return 1
    print(f"compare_bench: pass ({args.new} vs {args.baseline})")
    return 0


def self_test() -> int:
    """Unit checks for the gate itself: each case invokes ``main`` on
    synthetic documents and asserts the exit code. Prints one line per
    case and returns 0 (all pass) or 1."""
    import contextlib
    import io
    import os
    import tempfile

    def doc(path: str, summary) -> str:
        with open(path, "w") as f:
            json.dump({"summary": summary}, f)
        return path

    def run(*argv) -> int:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                return main(list(argv))
        except SystemExit as e:  # die() and argparse errors land here
            return int(e.code or 0)

    ok = [2_000_000.0, 150.0]  # throughput, est_rank_p99
    failed = 0
    with tempfile.TemporaryDirectory() as d:
        P50 = 120.0
        base = doc(
            os.path.join(d, "base.json"),
            {
                "q/throughput_ops_per_s": ok[0],
                "q/est_rank_p99": ok[1],
                "q/insert_p50_ns": P50,
            },
        )
        same = doc(
            os.path.join(d, "same.json"),
            {
                "q/throughput_ops_per_s": ok[0],
                "q/est_rank_p99": ok[1],
                "q/insert_p50_ns": P50,
            },
        )
        slow = doc(
            os.path.join(d, "slow.json"),
            {
                "q/throughput_ops_per_s": ok[0] * 0.5,
                "q/est_rank_p99": ok[1],
                "q/insert_p50_ns": P50,
            },
        )
        p50_bad = doc(
            os.path.join(d, "p50_bad.json"),
            {
                "q/throughput_ops_per_s": ok[0],
                "q/est_rank_p99": ok[1],
                "q/insert_p50_ns": P50 * 1.25,
            },
        )
        extra = doc(
            os.path.join(d, "extra.json"),
            {
                "q/throughput_ops_per_s": ok[0],
                "q/est_rank_p99": ok[1],
                "q/insert_p50_ns": P50,
                "q2/throughput_ops_per_s": 1.0,
            },
        )
        bad = os.path.join(d, "bad.json")
        with open(bad, "w") as f:
            f.write("{not json")
        cases = [
            ("identical summaries pass", run(base, same), 0),
            ("throughput drop fails", run(base, slow), 1),
            ("insert-p50 regression fails", run(base, p50_bad), 1),
            (
                "insert-p50 regression passes under a relaxed tolerance",
                run(base, p50_bad, "--p50-tolerance", "50"),
                0,
            ),
            ("synthetic drop trips the gate", run(base, same, "--synthetic-drop", "50"), 1),
            ("missing baseline is a usage error", run(os.path.join(d, "nope.json"), same), 2),
            ("unparseable JSON is a usage error", run(bad, same), 2),
            ("one-sided summary key is a usage error", run(base, extra), 2),
            ("one-sided key (baseline side) is a usage error", run(extra, same), 2),
        ]
    for name, got, want in cases:
        status = "ok  " if got == want else "FAIL"
        if got != want:
            failed += 1
        print(f"{status} self-test: {name} (exit {got}, want {want})")
    if failed:
        print(f"compare_bench: self-test: {failed} case(s) failed")
        return 1
    print("compare_bench: self-test passed")
    return 0


if __name__ == "__main__":
    if "--self-test" in sys.argv[1:]:
        sys.exit(self_test())
    sys.exit(main())
