"""``python3 -m bench``: run workloads, print every metric by name and unit.

The driver's form (one workload, one JSON object as the last line)::

    python3 -m bench --workload wan_build --seed 3 --seconds 10 --trace 0

Without ``--workload`` every workload runs in turn. ``--trace 1`` reports
the per-layer metrics instead of the end-to-end ones. ``--out FILE``
appends each full result document (metrics, samples, sizes, provenance)
as one JSON line, the input of ``python3 -m bench.compare``.
``--trace-out FILE`` writes the traced run's spans. ``--selfcheck`` runs
everything at tiny sizes and asserts the schema. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import spec

ROOT = Path(__file__).resolve().parent.parent
#: ``setup_s`` is the median over this many fresh processes.
SETUP_REPEATS = 3
#: A run must end within the driver's 180 s; leave room for the parent.
WORKER_TIMEOUT_S = 160


class WorkerFailed(Exception):
    pass


def spawn_worker(arguments: list[str]) -> dict:
    """Run ``bench.worker`` in a fresh interpreter; return its document."""
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    environment = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(paths))
    command = [sys.executable, "-m", "bench.worker", *arguments,
               "--spawned-at", repr(time.monotonic())]
    # Its own session, so that a timeout also reaps the campaign pool.
    process = subprocess.Popen(command, cwd=ROOT, env=environment, text=True,
                               stdout=subprocess.PIPE, start_new_session=True)
    try:
        output, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise WorkerFailed(f"worker timed out after {WORKER_TIMEOUT_S} s") from None
    lines = output.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"worker exited {process.returncode} without a result")
    try:
        document = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise WorkerFailed(f"worker printed no result document: {lines[-1]!r}") from None
    if process.returncode != 0 and document.get("correct", True):
        raise WorkerFailed(f"worker exited {process.returncode}")
    return document


def git_head() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, check=True,
            capture_output=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository


def run_workload(workload: str, seed: int, seconds: float, trace: int, *,
                 tiny: bool = False, trace_out: str | None = None) -> dict:
    """One run of one workload; the full result document."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if tiny:
        common.append("--tiny")
    setups = []
    if not trace:
        setups = [spawn_worker([*common, "--setup-only"])["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
    arguments = [*common, "--trace", str(trace)]
    if trace_out:
        arguments += ["--trace-out", trace_out]
    document = spawn_worker(arguments)
    setups.append(document.pop("setup_s"))
    document["setup_s_samples"] = setups
    if not trace and document["correct"]:
        document["metrics"]["setup_s"]["value"] = statistics.median(setups)
    document.update(git_head=git_head(), platform=platform.platform(),
                    nproc=os.cpu_count())
    return document


def result_line(document: dict) -> str:
    """The one JSON object the driver reads."""
    return json.dumps({key: document[key]
                       for key in ("correct", "attempted", "failed", "metrics")})


def print_report(document: dict) -> None:
    workload = document["workload"]
    _, primary, secondary = spec.WORKLOADS[workload]
    print(f"== {workload}  seed={document['seed']}  trace={document['trace']}  "
          f"iterations={document['iterations']}  sizes={json.dumps(document['sizes'])}")
    if not document["correct"]:
        print(f"   CHECK FAILED: {document['error']}")
    if document["trace"]:
        shares = document.get("layer_shares", {})
        print("   layer                        self/iter [s]   calls/iter   share of wall")
        for layer, share in shares.items():
            self_s = document["metrics"].get(f"{layer}.self_s", {}).get("value")
            calls = document["metrics"].get(f"{layer}.calls", {}).get("value")
            if self_s is None:  # the benchmark's own root span
                print(f"   {layer:28s} {'':>13s} {'':>12s} {share:14.1%}")
            else:
                print(f"   {layer:28s} {self_s:13.5f} {calls:12.1f} {share:14.1%}")
        for name, metric in document["metrics"].items():
            if not name.endswith((".self_s", ".calls")):
                print(f"   {name:50s} {metric['value']:16.6g} {metric['unit']}")
    else:
        print(f"   primary   = {primary}")
        print(f"   secondary = {secondary}")
        samples = document.get("samples", {})
        for name, metric in document["metrics"].items():
            spread = samples.get(name)
            detail = (f"  (by the wall clock: median {spread['median']:.6g}, "
                      f"q1 {spread['q1']:.6g}, q3 {spread['q3']:.6g}, n={spread['n']})"
                      if spread else "")
            print(f"   {name:18s} {metric['value']:16.6g} {metric['unit']}{detail}")
    print(f"   attempted={document['attempted']} failed={document['failed']} "
          f"notes={json.dumps(document['notes'])} host_speed={document['host_speed']:.3f} "
          f"host_calib_s={[round(c, 5) for c in document['host_calib_s']]} "
          f"git={document['git_head'][:12]} "
          f"python={document['python']} numpy={document['numpy']} nproc={document['nproc']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        help="one name, several separated by commas, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: traced pass + direct layer timings")
    parser.add_argument("--out", help="append each result document to this file (JSON lines)")
    parser.add_argument("--trace-out", help="write the traced run's spans here (JSON)")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if args.selfcheck:
        from bench.selfcheck import selfcheck

        return selfcheck()

    names = list(spec.WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [name for name in names if name not in spec.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    if args.trace_out and (len(names) != 1 or not args.trace):
        parser.error("--trace-out takes one --workload and --trace 1")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    status = 0
    for name in names:
        try:
            document = run_workload(name, args.seed, seconds, args.trace,
                                    trace_out=args.trace_out)
        except WorkerFailed as failure:
            print(f"bench: {name}: {failure}", file=sys.stderr)
            return 1
        print_report(document)
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(document) + "\n")
        if not document["correct"]:
            status = 1
        if document["metrics"]:
            print(result_line(document))
    return status


if __name__ == "__main__":
    sys.exit(main())
