"""Closed-loop harness of the catwalk CLI benchmark.

One client runs one workload's commands in rounds, one command at a time,
each in a fresh interpreter (``child.py``) the way a CLI user runs it, so no
cache carries over from one command to the next.  Each output is checked by
a second route after its process has exited.  End-to-end metrics are medians
over the rounds of a run (``setup_s`` over its processes) of times scaled to
one host speed (see :func:`speed`); a traced run alternates traced and
untraced rounds and reports per-layer metrics.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads
from child import REPORT_TAG

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# a run ends within 180 s: no command may run past this many seconds
DEADLINE_S = 170.0
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4  # two traced and two untraced
# times are reported at the host speed at which child.calibrate takes this long
KERNEL_REF_S = 0.006

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    **{f"{kind}_s": "s" for kind in workloads.KINDS},
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

MODULES = ("automaton", "dp", "series", "closedform", "sampler", "model", "brute", "verify", "cli")


def per_layer_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in tracer.LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: "count" for name in tracer.COUNTERS})
    units["dp.max_count_bits"] = "bits"
    units["cli.out_bytes"] = "bytes"
    units.update({f"layer.{m}.self_s": "s" for m in MODULES})
    units["trace.overhead_s"] = "s"
    return units


@dataclass
class Outcome:
    """One command as the harness saw it."""

    command: workloads.Command
    wall_s: float = 0.0
    report: dict = field(default_factory=dict)
    out_bytes: int = 0
    error: str | None = None


def run_child(command, traced: bool, hash_seed: int, cpu: int, timeout: float) -> tuple:
    """Run ``command`` in a fresh interpreter on ``cpu``; the outcome and its
    stdout, which is None if the command was stopped at ``timeout``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
    spawned = time.monotonic()
    argv = [sys.executable, str(HERE / "child.py"), repr(spawned), str(int(traced)), str(cpu)]
    try:
        proc = subprocess.run(
            argv + list(command.argv), cwd=ROOT, env=env, capture_output=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return Outcome(command, error=f"no exit within {timeout:.0f} s"), None
    outcome = Outcome(command, wall_s=time.monotonic() - spawned, out_bytes=len(proc.stdout))
    stderr = proc.stderr.decode(errors="replace").rstrip("\n").split("\n")
    if proc.returncode != 0:
        outcome.error = f"exit {proc.returncode}: {stderr[-1][:200]}"
    elif not stderr[-1].startswith(REPORT_TAG):
        outcome.error = "no report from the child"
    else:
        outcome.report = json.loads(stderr[-1][len(REPORT_TAG):])
        outcome.wall_s -= outcome.report["calibration_s"]
    return outcome, proc.stdout.decode()


def run_rounds(workload: str, seed: int, seconds: float, traced: bool, started: float) -> tuple:
    """Rounds of ``workload`` until ``seconds`` are used; traced runs alternate.

    Returns the commands and a list of ``(traced, [Outcome])`` rounds.
    """
    commands = workloads.plan(workload, seed)
    refs = [workloads.reference(c) for c in commands]
    min_rounds = MIN_TRACED_ROUNDS if traced else MIN_ROUNDS
    rounds: list = []
    window = time.monotonic()
    while True:
        used = time.monotonic() - window
        if len(rounds) >= min_rounds and used * (len(rounds) + 1) / len(rounds) > seconds:
            break
        round_traced = traced and len(rounds) % 2 == 0
        outcomes = run_round(commands, refs, round_traced, len(rounds), started)
        rounds.append((round_traced, outcomes))
        if len(outcomes) < len(commands):
            break
    return commands, rounds


def run_round(commands, refs, traced: bool, index: int, started: float) -> list:
    """Round number ``index``, each command checked against its reference; a
    command stopped at the run's deadline ends the round early.

    The string hash seed alone moves a command's time by up to a third, as
    it decides how catwalk's state dicts collide.  So the k-th process of
    every run gets hash seed k, whatever the workload seed: all runs average
    over the same layouts.  Processes take the usable CPUs in turn.
    """
    outcomes = []
    cpus = sorted(os.sched_getaffinity(0))
    for slot, (command, ref) in enumerate(zip(commands, refs), index * len(commands)):
        timeout = max(DEADLINE_S - (time.monotonic() - started), 1.0)
        cpu = cpus[slot % len(cpus)]
        outcome, stdout = run_child(command, traced, slot + 1, cpu, timeout)
        outcomes.append(outcome)
        if stdout is None:
            break
        if outcome.error is None:
            outcome.error = workloads.check(command, ref, stdout)
    return outcomes


def speed(outcome) -> float:
    """How many reference seconds one second of this process is worth.

    The host's speed for pure-Python code drifts by a third and more over
    minutes, and differs between its CPUs.  Every process times the same
    fixed kernel on its CPU before importing catwalk (``child.calibrate``);
    scaling its times by KERNEL_REF_S over its kernel time reports them at
    one fixed speed, while catwalk's own cost, which the kernel does not
    share, still shows in full.
    """
    return KERNEL_REF_S / outcome.report["kernel_s"] if outcome.report else 1.0


def time_samples(rounds: list, scaled: bool = True) -> dict:
    """The samples behind each end-to-end time: one per round, and one per
    process for ``setup_s``."""
    samples: dict = {name: [] for name, unit in END_TO_END.items() if unit == "s"}
    for _t, outcomes in rounds:
        k = [speed(o) if scaled else 1.0 for o in outcomes]
        samples["setup_s"] += [o.report["setup_s"] * s for o, s in zip(outcomes, k) if o.report]
        samples["round_s"].append(sum(o.wall_s * s for o, s in zip(outcomes, k)))
        for kind in workloads.KINDS:
            samples[f"{kind}_s"].append(
                sum(
                    o.report.get("command_s", 0.0) * s
                    for o, s in zip(outcomes, k)
                    if o.command.kind == kind
                )
            )
    return samples


def _medians(samples: dict) -> dict:
    return {name: statistics.median(s) if s else 0.0 for name, s in samples.items()}


def end_to_end(rounds: list) -> tuple:
    """End-to-end metric values and the sample count behind each."""
    samples = time_samples(rounds)
    values = _medians(samples)
    counts = {name: len(s) for name, s in samples.items()}
    outcomes = [o for _t, r in rounds for o in r]
    rss = [o.report["maxrss_kb"] for o in outcomes if o.report]
    values["peak_rss_mb"] = max(rss, default=0) / 1024
    counts["peak_rss_mb"] = len(rss)
    failed = sum(o.error is not None for o in outcomes)
    values["success_rate"] = 1 - failed / max(len(outcomes), 1)
    counts["success_rate"] = len(outcomes)
    return values, counts


def layer_values(outcomes) -> dict:
    """Per-layer metrics of one traced round, summed over its processes."""
    values = dict.fromkeys(per_layer_units(), 0)
    for o in outcomes:
        k = speed(o)
        for name, entry in o.report.get("layers", {}).items():
            if name in tracer.LAYERS:
                values[f"{name}.calls"] += entry["calls"]
                values[f"{name}.self_s"] += entry["self_s"] * k
            module = f"layer.{name.partition('.')[0]}.self_s"
            if module in values:
                values[module] += entry["self_s"] * k
        for name, value in o.report.get("counters", {}).items():
            if name.endswith("_bits"):
                values[name] = max(values[name], value)
            else:
                values[name] += value
        if o.command.kind != "verify":  # verify prints its own elapsed time
            values["cli.out_bytes"] += o.out_bytes
    return values


def per_layer(rounds: list) -> tuple:
    """Per-layer medians over the traced rounds, and the sample count of each."""
    traced = [layer_values(r) for t, r in rounds if t]
    values = {name: statistics.median(v[name] for v in traced) for name in per_layer_units()}
    walls = {
        t: [sum(o.wall_s * speed(o) for o in r) for tt, r in rounds if tt == t]
        for t in (True, False)
    }
    if walls[False]:
        values["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    counts = dict.fromkeys(values, len(traced))
    counts["trace.overhead_s"] = min(len(walls[True]), len(walls[False]))
    return values, counts


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """One benchmark run: the record of the run and the result line."""
    started = time.monotonic()
    commands, rounds = run_rounds(workload, seed, seconds, trace, started)
    if trace:
        values, counts = per_layer(rounds)
        units = per_layer_units()
    else:
        values, counts = end_to_end(rounds)
        units = END_TO_END
    outcomes = [o for _t, r in rounds for o in r]
    failures = [f"{' '.join(o.command.argv)}: {o.error}" for o in outcomes if o.error]
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed loop, one client, one command at a time, fresh process per command",
        "machine": machine(),
        "rounds": len(rounds),
        "round_walls_s": [sum(o.wall_s for o in r) for _t, r in rounds],
        "speed_factors": [statistics.median(speed(o) for o in r) for _t, r in rounds],
        "processes": [
            [i, o.command.kind, o.report.get("kernel_s"), o.report.get("command_s"), o.wall_s]
            for i, (_t, r) in enumerate(rounds) for o in r
        ],
        "unscaled_medians_s": _medians(time_samples(rounds, scaled=False)),
        "samples": counts,
        "commands": [" ".join(c.argv) for c in commands],
        "failures": failures[:10],
        "elapsed_s": time.monotonic() - started,
    }
    return record, result
