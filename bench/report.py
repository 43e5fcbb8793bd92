"""Readable reports of benchmark records, a whole-suite run, and comparisons.

    python3 bench/report.py run [--seed 0] [--seconds 25]
        run every workload with tracing off and on, then print every metric
        by name and unit and the traced per-layer breakdown per workload
    python3 bench/report.py compare OLD.json NEW.json
        compare two records of one workload metric by metric, and flag any
        difference in the machine or settings they were measured under, or
        in the outputs of one seed

Records are the JSON files ``run_bench.py`` writes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(HERE, "results")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _checked_hashes(record: dict):
    """Output hashes of the run's last successful --threads 1 call."""
    return next(
        (c["sha256"] for c in reversed(record["calls"]) if c["rc"] == 0 and c["threads"] == 1), None
    )


def print_record(record: dict, out=sys.stdout) -> None:
    machine = record["machine"]
    result = record["result"]
    print(
        f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
        f"seconds={record['seconds']}  nproc={machine['nproc']}  python={machine['python']}  "
        f"numpy={machine['numpy']}  scipy={machine['scipy']}  commit={machine['commit']}",
        file=out,
    )
    print(
        f"   correct={result['correct']}  attempted={result['attempted']}  failed={result['failed']}  "
        f"work={json.dumps(record['work'], sort_keys=True)}",
        file=out,
    )
    for name, metric in result["metrics"].items():
        print(f"   {name:<40} {_fmt(metric['value']):>14} {metric['unit']}", file=out)
    for name, summary in record["timings"].items():
        tail = summary["tail"]
        tail_text = f"p{tail['percentile']}={tail['value']:.6g} s" if tail else "no tail percentile (< 11 samples)"
        median = summary["median"]
        print(
            f"   timing {name:<12} n={summary['n']:<3} median={_fmt(median)} s  {tail_text}",
            file=out,
        )
    checked = _checked_hashes(record)
    if checked is not None:
        for name, digest in checked.items():
            print(f"   sha256 {name:<16} {digest}", file=out)
    if "breakdown" in record:
        wall = statistics.median(c["wall_s"] for c in record["trace_accounting"]["calls"])
        print(f"   traced layers (median over traced calls; traced wall {wall:.4f} s)", file=out)
        print(f"   {'layer':<40} {'calls':>9} {'incl_s':>10} {'self_s':>10} {'self%':>6}", file=out)
        rows = sorted(record["breakdown"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, entry in rows:
            share = 100.0 * entry["self_s"] / wall if wall > 0 else 0.0
            print(
                f"   {name:<40} {entry['calls']:>9.0f} {entry['s']:>10.4f} {entry['self_s']:>10.4f} {share:>6.1f}",
                file=out,
            )
    for problem in record["problems"]:
        print(f"   PROBLEM: {problem}", file=out)


def compare(old: dict, new: dict, out=sys.stdout) -> int:
    """Print both records' metrics side by side; return 1 if anything is flagged."""
    flags = []
    for key in ("workload", "seed", "seconds", "trace"):
        if old[key] != new[key]:
            flags.append(f"{key}: {old[key]!r} -> {new[key]!r}")
    for key, value in old["machine"].items():
        if key in ("commit", "source_sha256"):
            continue
        if new["machine"].get(key) != value:
            flags.append(f"machine.{key}: {value!r} -> {new['machine'].get(key)!r}")
    if old["seed"] == new["seed"] and _checked_hashes(old) != _checked_hashes(new):
        flags.append("outputs differ: the same seed wrote different bytes")
    print(f"== {new['workload']}: {old['machine']['commit']} -> {new['machine']['commit']}", file=out)
    for name, metric in new["result"]["metrics"].items():
        before = old["result"]["metrics"].get(name, {}).get("value")
        after = metric["value"]
        change = f"{after / before - 1.0:+.1%}" if before else "n/a"
        print(f"   {name:<40} {_fmt(before):>14} -> {_fmt(after):>14} {metric['unit']:<6} {change}", file=out)
    for flag in flags:
        print(f"   DIFFERS: {flag}", file=out)
    return 1 if flags else 0


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_suite(seed: int, seconds: float) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run_bench.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True,
                text=True,
                check=False,
            )
            if proc.returncode != 0:
                print(f"== {name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            print_record(_load(os.path.join(RESULTS_DIR, f"{name}-seed{seed}-trace{trace}.json")))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=25.0)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("old")
    cmp_.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_suite(args.seed, args.seconds)
    return compare(_load(args.old), _load(args.new))


if __name__ == "__main__":
    sys.exit(main())
