"""escount benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--spans DIR]

Run from a checkout that holds `src/escount`; nothing needs installing.
Every pass starts fresh interpreters (`perfbench/child.py`) with
PYTHONPATH=src and calls `escount.cli.main(argv)` in them, so each pass
begins with cold caches. Passes repeat until S seconds have gone; timings
and memory are medians over the run's passes (perfbench/BENCHMARK.md
defines each metric). Each child also times a fixed calibration loop
between commands; `wall_s` and `setup_s` are its times scaled to the speed
at which this machine ran that loop (see CAL_REF_S), and `raw_wall_s` and
`raw_setup_s` the times as measured.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 untraced and traced passes alternate and
it holds the per-layer metrics of the traced passes. Lines before it give
the set-up stamp, the workload sizes of each case, the failed, refused and
reached case counts and every metric by name with its unit. Exit code 0
means every count matched its pinned value; 1 means a count was wrong or a
command failed; 2 means the benchmark could not run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

EXIT_WRONG = 1
EXIT_UNUSABLE = 2
EXIT_REFUSED = 3

REACH_LIMIT_S = 1.0  # the ROADMAP's reach limit, per case, import excluded
REACH_KILL_S = 1.1  # hard deadline after import; a killed case is not reached
READY_LIMIT_S = 20.0  # longest wait for a child to import escount
RUN_LIMIT_S = 170.0  # stop starting passes, and kill children, by then
MIN_PASSES = 2  # a median of at least two
REACH_GRID_PASSES = 1  # reach: passes over all 18 cases, then timing rounds
SETUP_PROBES = 6  # children that only import escount, for setup_s; reach has enough
# The reference time of child.py's calibration loop, about its median on a
# 2-vCPU Intel Xeon under load (Python 3.11.7). A child's times are scaled
# by CAL_REF_S over the median calibration time measured in that child: they
# are seconds at the speed where the loop takes CAL_REF_S. The shared
# machines this runs on change speed by half within minutes; the scaling
# removes most of that drift (perfbench/BENCHMARK.md has the spreads).
CAL_REF_S = 0.025


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ESC_BUDGET", None)  # the default budget, always
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # single-threaded, one child at a time
    return env


def spawn(argvs: list[list[str]], trace: bool, spans_path: str | None,
          kill_after: float) -> dict:
    """Run one child over `argvs`. It is killed `kill_after` seconds after
    it has imported escount, or READY_LIMIT_S after start if it never does.
    Returns its set-up time, per-command messages, calibration times and
    final message."""
    cmd = [sys.executable, str(HERE / "child.py"), "", json.dumps(argvs)]
    if trace:
        cmd.append("--trace")
        if spans_path:
            cmd += ["--spans", spans_path]
    spawned = time.monotonic()
    cmd[2] = repr(spawned)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    messages, buffer, deadline, killed = [], b"", spawned + READY_LIMIT_S, False
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                proc.kill()
                killed = True
                break
            if not selector.select(remaining):
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            for line in lines:
                try:
                    message = json.loads(line)
                except ValueError:
                    continue  # not the child's protocol; its own output is captured
                if "ready" in message:
                    deadline = time.monotonic() + kill_after
                messages.append(message)
    proc.stdout.close()
    proc.wait()
    ready = [m["ready"] for m in messages if "ready" in m]
    return {
        "setup_s": ready[0] if ready else None,
        "cal_s": [m["cal"] for m in messages if "cal" in m],
        "cases": {m["case"]: m for m in messages if "case" in m},
        "done": next((m for m in messages if "done" in m), None),
        "killed": killed,
    }


# -- checking ------------------------------------------------------------


def check_command(command: dict, message: dict | None, killed: bool,
                  pins: dict) -> dict[str, str]:
    """Status of each case of one command: ok, failed, refused or killed."""
    keys = list(command["cases"])
    if "references" in command:
        keys += [f"reference#{i}" for i in range(command["references"])]
    if message is None:
        return dict.fromkeys(keys, "killed" if killed else "failed")
    if message["rc"] == EXIT_REFUSED and command["argv"][0] != "verify":
        return dict.fromkeys(keys, "refused")
    if message["rc"] != 0:
        return dict.fromkeys(keys, "failed")
    try:
        output = json.loads(message["stdout"])
    except ValueError:
        return dict.fromkeys(keys, "failed")
    status = dict.fromkeys(keys, "failed")
    counts = pins["counts"]
    if command["argv"][0] == "verify":
        seen = {workloads.case_key(case["group"], case["n"]): case for case in output["cases"]}
        for key in command["cases"]:
            case = seen.get(key)
            if case and case["agree"] and case["values"] and all(
                value == counts[key]["count"] for value in case["values"].values()
            ):
                status[key] = "ok"
        matched = [row for row in output["references"] if row["match"]]
        for i in range(min(len(matched), command["references"])):
            status[f"reference#{i}"] = "ok"
        return status
    values: dict[str, set[str]] = {}
    for record in output:
        values.setdefault(workloads.case_key(record["group"], record["n"]), set()).add(
            record["count"]
        )
    for key in command["cases"]:
        got = values.get(key, set())
        pinned = counts.get(key)
        # An unpinned case (refused on every path at the seed) is accepted
        # when all methods that ran agree; exit code 4 already catches the rest.
        if len(got) == 1 and (pinned is None or got == {pinned["count"]}):
            status[key] = "ok"
    return status


# -- passes --------------------------------------------------------------


def speed_scale(child: dict) -> float:
    """CAL_REF_S over the median calibration time of one child: above 1
    when the machine ran slower than the reference while the child ran."""
    if not child["cal_s"]:
        raise RuntimeError("a benchmark child did not calibrate")
    return CAL_REF_S / statistics.median(child["cal_s"])


def run_pass(name: str, commands: list[dict], pins: dict, trace: bool,
             spans_dir: str | None, pass_index: int, run_start: float) -> dict:
    """One pass over a workload's commands. Reach runs one child per
    command; the other workloads run all commands in one child."""
    started = time.monotonic()
    kill_budget = max(1.0, RUN_LIMIT_S - (started - run_start))
    spans_path = None
    if spans_dir and trace:
        spans_path = str(Path(spans_dir) / f"{name}-pass{pass_index}.jsonl")
    if name == "reach":
        children = [
            spawn([c["argv"]], trace, spans_path and f"{spans_path}.{i}",
                  min(REACH_KILL_S, kill_budget))
            for i, c in enumerate(commands)
        ]
        outcomes = [(c, ch["cases"].get(0), ch) for c, ch in zip(commands, children)]
    else:
        child = spawn([c["argv"] for c in commands], trace, spans_path, kill_budget)
        children = [child]
        outcomes = [(c, child["cases"].get(i), child) for i, c in enumerate(commands)]
    if any(ch["setup_s"] is None for ch in children):
        raise RuntimeError("a benchmark child did not import escount")
    cases = []
    for command, message, child in outcomes:
        scale = speed_scale(child)
        for key, status in check_command(command, message, child["killed"], pins).items():
            if status == "killed" and name != "reach":
                status = "failed"  # a pass must finish to give a wall time
            cases.append({
                "key": key,
                "status": status,
                "seconds": message["seconds"] if message else None,
                "ref_seconds": message["seconds"] * scale if message else None,
                "kill_ref_s": REACH_KILL_S * scale,
                "seed_status": command.get("status"),
                "peak_rss_kb": child["done"]["peak_rss_kb"] if child["done"] else None,
            })
    traces = [ch["done"]["trace"] for ch in children if ch["done"] and "trace" in ch["done"]]
    return {
        "traced": trace,
        "cases": cases,
        "children": children,
        "traces": traces,
        "raw_wall_s": sum(m["seconds"] for _, m, _ in outcomes if m),
        "wall_s": sum(m["seconds"] * speed_scale(ch) for _, m, ch in outcomes if m),
        "peak_rss_kb": [ch["done"]["peak_rss_kb"] for ch in children if ch["done"]],
        "duration_s": time.monotonic() - started,
    }


def reach_wall_and_rss(passes: list[dict]) -> tuple[float, float, float]:
    """Reach's raw_wall_s, wall_s and peak_rss_mb come from the cases
    reached at the seed only, so that bringing a new case into reach adds
    no time. Each time is the sum over those cases of the case's median
    over every run of it; a run killed at the deadline counts as the
    deadline."""
    samples: dict[str, list[tuple[float, float]]] = {}
    peaks = []
    for p in passes:
        pass_peak = 0
        for case in p["cases"]:
            if case["seed_status"] != "reached":
                continue
            if case["seconds"] is None:
                sample = (REACH_KILL_S, case["kill_ref_s"])
            else:
                sample = (case["seconds"], case["ref_seconds"])
            samples.setdefault(case["key"], []).append(sample)
            pass_peak = max(pass_peak, case["peak_rss_kb"] or 0)
        peaks.append(pass_peak)
    wall = sum(statistics.median(raw for raw, _ in runs) for runs in samples.values())
    ref = sum(statistics.median(ref for _, ref in runs) for runs in samples.values())
    return wall, ref, statistics.median(peaks) / 1024


def summarize(name: str, passes: list[dict], probes: tuple[dict, ...] = ()) -> dict:
    """End-to-end figures of a run, over its untraced passes; `probes` are
    children that ran no command, for set-up time only."""
    children = [ch for p in passes for ch in p["children"]] + list(probes)
    setups = [(ch["setup_s"], speed_scale(ch)) for ch in children]
    plain = [p for p in passes if not p["traced"]] or passes
    all_cases = [c for p in passes for c in p["cases"]]
    grid = [p for p in plain if not p.get("round")] or plain
    per_pass_refused = [sum(c["status"] == "refused" for c in p["cases"]) for p in grid]
    if name == "reach":
        reached = {
            c["key"] for c in all_cases
            if c["status"] == "ok" and c["seconds"] < REACH_LIMIT_S
        }
        reach_cases = len(reached)
        raw_wall_s, wall_s, peak_rss_mb = reach_wall_and_rss(plain)
    else:
        reach_cases = statistics.median_low(
            sum(c["status"] == "ok" for c in p["cases"]) for p in plain
        )
        raw_wall_s = statistics.median(p["raw_wall_s"] for p in plain)
        wall_s = statistics.median(p["wall_s"] for p in plain)
        peak_rss_mb = statistics.median(max(p["peak_rss_kb"] or [0]) for p in plain) / 1024
    return {
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "setup_s": statistics.median(setup * scale for setup, scale in setups),
        "raw_setup_s": statistics.median(setup for setup, _ in setups),
        "peak_rss_mb": peak_rss_mb,
        "cal_s": statistics.median(c for ch in children for c in ch["cal_s"]),
        "reach_cases": reach_cases,
        "refused_cases": statistics.median_low(per_pass_refused),
        "failed_cases": sum(c["status"] == "failed" for c in all_cases),
        "attempted_cases": len(all_cases),
        "passes": len(passes),
    }


def layer_summary(name: str, passes: list[dict]) -> dict:
    """Per-layer metrics: median over traced passes of each pass's sums."""
    from tracer import finish_layer_metrics

    per_pass = []
    for p in passes:
        if p["traced"] and p["traces"]:
            raw = {key: sum(t[key] for t in p["traces"]) for key in p["traces"][0]}
            per_pass.append(finish_layer_metrics(raw))
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    traced_wall = summarize(name, [p for p in passes if p["traced"]])["wall_s"]
    plain_wall = summarize(name, [p for p in passes if not p["traced"]])["wall_s"]
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return metrics


# -- stamp ---------------------------------------------------------------


def stamp(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit, dirty = "unknown", None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
            dirty = bool(subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                        capture_output=True, text=True, timeout=10).stdout)
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "dirty": dirty,
        "seed": seed,
    }


# -- main ----------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        spans_dir: str | None = None, pins: dict | None = None) -> dict:
    """Run one workload for `seconds`; return the end-to-end summary and,
    when traced, the per-layer metrics.

    On `reach`, the first passes run all its cases (with --trace 1, one
    untraced and one traced); the rest of the run repeats only the cases
    reached at the seed, untraced, each round a pass of its own, so that
    their times have a median over several runs."""
    pins = pins or json.loads((HERE / "pins.json").read_text())
    rng = random.Random(seed)
    if name == "reach":
        min_passes = 2 if trace else REACH_GRID_PASSES
    else:
        min_passes = 1 if smoke and not trace else MIN_PASSES
    start = time.monotonic()
    probe_count = 0 if smoke or name == "reach" else SETUP_PROBES
    probes = tuple(spawn([], False, None, READY_LIMIT_S) for _ in range(probe_count))
    if any(probe["setup_s"] is None for probe in probes):
        raise RuntimeError("a benchmark child did not import escount")
    passes: list[dict] = []
    while True:
        timing_round = name == "reach" and len(passes) >= min_passes
        traced = trace and not timing_round and len(passes) % 2 == 1
        # A new order every pass, so that a run's median spans several orders.
        commands = workloads.build_commands(name, rng, pins, smoke)
        if timing_round:
            commands = [c for c in commands if c["status"] == "reached"]
        this_pass = run_pass(name, commands, pins, traced, spans_dir, len(passes), start)
        this_pass["round"] = timing_round
        passes.append(this_pass)
        elapsed = time.monotonic() - start
        next_round = name == "reach" and len(passes) >= min_passes
        alike = [p["duration_s"] for p in passes if p["round"] == next_round]
        typical = statistics.median(alike) if alike else 0.0
        if len(passes) >= min_passes and elapsed + typical > seconds:
            break
        if elapsed + typical > RUN_LIMIT_S - 20:
            break
    result = {"summary": summarize(name, passes, probes), "sizes": sizes_of(commands, pins)}
    if trace:
        result["layers"] = layer_summary(name, passes)
    return result


def sizes_of(commands: list[dict], pins: dict) -> dict:
    sizes = {}
    for command in commands:
        for key in command["cases"]:
            pinned = pins["counts"].get(key)
            if pinned:
                sizes[key] = pinned["sizes"]
    for entry in pins["unpinned"]:
        if any(entry["case"] in c["cases"] for c in commands):
            sizes[entry["case"]] = entry["sizes"]
    return sizes


UNITS = {
    "wall_s": "s", "raw_wall_s": "s", "setup_s": "s", "raw_setup_s": "s", "peak_rss_mb": "MB", "reach_cases": "count",
    "refused_cases": "count", "failed_cases": "count", "cal_s": "s",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one tiny case per workload")
    parser.add_argument("--spans", help="directory to write traced spans to, as JSON lines")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "escount" / "cli.py").is_file():
        print(f"error: no escount source under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_UNUSABLE
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.smoke, args.spans)
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNUSABLE

    summary = result["summary"]
    print(json.dumps({"stamp": stamp(args.seed), "workload": args.workload}))
    print(json.dumps({"sizes": result["sizes"]}))
    for name, unit in UNITS.items():
        print(f"{name} {summary[name]} {unit}")
    print(f"attempted_cases {summary['attempted_cases']} count")
    print(f"passes {summary['passes']} count")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        reported = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result["layers"]
        for name, unit in reported.items():
            print(f"{name} {values[name]} {unit}")
    else:
        reported = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = summary
    correct = summary["failed_cases"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted_cases"],
        "failed": summary["failed_cases"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0 if correct else EXIT_WRONG


if __name__ == "__main__":
    sys.exit(main())
