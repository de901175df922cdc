"""Alternating parent/change pairs of the repo benchmark, with a verdict.

Runs ``perfbench/run.py`` for one workload, ``--pairs`` times on each of two
trees: the working tree this script lives in (the change) and ``--parent``
(a git revision, unpacked with ``git archive`` into a temporary directory).
Pair ``i`` uses seed ``--seed + i`` on both sides, and the side that runs
first alternates from pair to pair, so slow drift of the host hits both
sides alike.

It prints every run as it finishes, then each end-to-end metric's median and
quartiles per side and how many pairs the change won (ties count for
neither side), then the verdict:

* the ``--claim`` metric shows a gain when the change wins at least 9 in 10
  pairs and the medians differ, in the better direction, by more than the
  parent's interquartile range;
* every other end-to-end metric holds when the change's median is no worse
  than the parent's by more than its ``BENCHMARK.json`` bound (a fraction
  of the parent's median).

The last line of output is one JSON object with the runs, the verdict and
both sides' commits: the parent revision resolved to its commit, and this
tree's HEAD with whether the tree differs from it (``dirty``).  ``--out``
writes that line to a file as well.  The exit status is 1 when any run
crashed or reported a failed operation or check, 0 otherwise, whatever the
verdict.

Usage, from the repository root::

    python tools/bench_pairs.py --workload fleet_256 --pairs 10 --seed 101
    python tools/bench_pairs.py --workload http_predict --claim none
    python tools/bench_pairs.py --workload fleet_256 --pairs 1 --smoke --seconds 2
    python tools/bench_pairs.py --workload gateway_mixed --claim p50_ms --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles, linear interpolation between order statistics."""
    ordered = sorted(values)

    def at(q: float) -> float:
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    return {"q1": at(0.25), "median": at(0.5), "q3": at(0.75)}


def git(*args: str) -> str:
    """Output of one git command run on this repository."""
    done = subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, text=True)
    return done.stdout.strip()


def commits(parent: str) -> Dict[str, Any]:
    """Both sides' commits: ``parent`` resolved, and this tree's HEAD and whether it differs."""
    return {
        "parent": {"revision": parent, "commit": git("rev-parse", "--verify", parent + "^{commit}")},
        "change": {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
    }


def unpack(revision: str, directory: str) -> None:
    """Write the tree of ``revision`` into ``directory`` (``git archive``)."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", revision],
        check=True, capture_output=True,
    )
    subprocess.run(["tar", "-x", "-C", directory], input=archive.stdout, check=True)


def run_once(tree: str, workload: str, seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    """One ``perfbench/run.py`` run; returns its result line (or the error)."""
    command = [
        sys.executable, os.path.join(tree, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": (done.stderr or done.stdout).strip()[-2000:]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": lines[-1][-2000:]}


def verdict(
    runs: List[Dict[str, Any]], spec: Dict[str, Any], claim: Optional[str]
) -> Dict[str, Any]:
    """Per-metric medians, quartiles and pair wins, and the overall verdict."""
    pairs: Dict[int, Dict[str, Dict[str, Any]]] = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    complete = [
        pair for pair in pairs.values()
        if all("metrics" in pair.get(side, {}) for side in ("parent", "change"))
    ]
    metrics: Dict[str, Any] = {}
    holds = True
    gain: Optional[bool] = None
    for entry in spec["end_to_end"]:
        if not complete:
            break
        name, higher = entry["name"], entry["better"] == "higher"
        parent = [pair["parent"]["metrics"][name]["value"] for pair in complete]
        change = [pair["change"]["metrics"][name]["value"] for pair in complete]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        base, new = quartiles(parent), quartiles(change)
        gap = (new["median"] - base["median"]) * (1.0 if higher else -1.0)
        row = {
            "unit": entry["unit"],
            "parent": base,
            "change": new,
            "wins": wins,
            "pairs": len(complete),
            "relative": gap / base["median"] if base["median"] else None,
        }
        if name == claim:
            row["gain"] = wins >= 0.9 * len(complete) and gap > base["q3"] - base["q1"]
            gain = row["gain"]
        else:
            allowed = entry["bound"] * abs(base["median"])
            row["bound"] = entry["bound"]
            row["within_bound"] = gap >= -allowed
            holds = holds and row["within_bound"]
        metrics[name] = row
    failed = {
        side: sum(run.get("failed", 0) for run in runs if run["side"] == side)
        for side in ("parent", "change")
    }
    errors = [run for run in runs if "error" in run or not run.get("correct", False)]
    return {
        "metrics": metrics,
        "claim": claim,
        "claimed_gain": gain,
        "others_within_bounds": holds,
        "failed_operations": failed,
        "bad_runs": len(errors),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[entry["name"] for entry in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--claim", default="throughput_per_s",
                        help="end-to-end metric the change claims a gain on ('none': no claim)")
    parser.add_argument("--smoke", action="store_true", help="tiny workload sizes (pass-through)")
    parser.add_argument("--out", help="also write the final JSON line to this file")
    args = parser.parse_args(argv)
    claim = None if args.claim == "none" else args.claim
    if claim is not None and claim not in {entry["name"] for entry in spec["end_to_end"]}:
        parser.error(f"--claim {claim!r} is not an end-to-end metric of BENCHMARK.json")

    sides = commits(args.parent)
    runs: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as parent_tree:
        unpack(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                result = run_once(trees[side], args.workload, seed, args.seconds, args.smoke)
                run = {"pair": pair, "side": side, "seed": seed, "first": position == 0, **result}
                runs.append(run)
                if "error" in result:
                    print(f"pair {pair} seed {seed} {side:6s} ERROR {result['error'][-300:]}")
                    continue
                values = "  ".join(
                    f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
                )
                print(f"pair {pair} seed {seed} {side:6s} failed={result['failed']} {values}",
                      flush=True)

    summary = verdict(runs, spec, claim)
    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"parent {args.parent} ({sides['parent']['commit'][:12]})")
    for name, row in summary["metrics"].items():
        base, new = row["parent"], row["change"]
        status = (
            ("GAIN" if row["gain"] else "no gain") if "gain" in row
            else ("within bound" if row["within_bound"] else f"WORSE than bound {row['bound']:g}")
        )
        print(
            f"  {name:18s} parent {base['median']:10.4g} [{base['q1']:.4g}, {base['q3']:.4g}]"
            f"  change {new['median']:10.4g} [{new['q1']:.4g}, {new['q3']:.4g}]"
            f"  wins {row['wins']}/{row['pairs']}  {status}"
        )
    line = json.dumps({
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        **sides,
        **summary,
        "runs": [
            {
                "pair": run["pair"], "side": run["side"], "seed": run["seed"], "first": run["first"],
                "failed": run.get("failed"), "error": run.get("error"),
                **{name: metric["value"] for name, metric in run.get("metrics", {}).items()},
            }
            for run in runs
        ],
    }, sort_keys=True)
    print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(line + "\n")
    return 1 if summary["bad_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
