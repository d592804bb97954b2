"""The process that does the measured work of one run.

perfbench/run.py computes inputs and references, then starts this worker
with the job as JSON on stdin, so the worker's peak RSS is the program's
and not the reference computation's.  The worker drives only the CLI argv
(in-process through ``cavityswap.cli.run`` or as ``python -m cavityswap.cli``
processes) and the public Python API, checks every output after its timed
region, and prints one JSON result line.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


class Outcome:
    """Operation counts, failures and timings of one run.

    The run's operations are the distinct ops of its seeded set; the closed
    loop repeats them to fill the run's seconds.  ``attempted`` and
    ``failed`` count each distinct op once, so they depend on the seed only
    and not on how many repeats fit in the run.  Every execution is checked:
    an op's failed units are the most any of its executions had, and a new
    failure in any execution makes the run incorrect.
    """

    def __init__(self):
        self.units = {}  # "kind:op" -> units (rows, searches, invocations) of that op
        self.failed = {}  # "kind:op" -> most failed units over its executions
        self.new = {}  # "kind:op" -> most failed units not due to a known defect
        self.messages = {True: [], False: []}  # known?, first messages
        self.executions = 0
        self.wall = {}  # "kind:op" -> wall seconds of each execution of that op
        self.times = {}  # the same in calibrated seconds (see speed.py)
        self._open = []

    def record(self, key, elapsed, units, failures):
        self.wall.setdefault(key, []).append(elapsed)
        self._open.append((key, len(self.wall[key]) - 1))
        self.executions += 1
        self.units[key] = units
        new = sum(1 for known, _ in failures if not known)
        self.failed[key] = max(self.failed.get(key, 0), len(failures))
        self.new[key] = max(self.new.get(key, 0), new)
        for known, message in failures:
            if len(self.messages[known]) < 20 and message not in self.messages[known]:
                self.messages[known].append(message)

    def calibrate(self, factor, spent=0.0):
        """Remove the sampler's ``spent`` seconds from, and scale, the
        executions recorded since the last call."""
        for key, index in self._open:
            self.wall[key][index] -= spent
            self.times.setdefault(key, []).append(self.wall[key][index] * factor)
        self._open.clear()

    def as_dict(self):
        return {
            "attempted": sum(self.units.values()),
            "failed": sum(self.failed.values()),
            "failed_new": sum(self.new.values()),
            "executions": self.executions,
            "new_failures": self.messages[False],
            "known_failures": self.messages[True][:5],
            "times": self.times,
            "wall": self.wall,
        }


def one_op(failures):
    """Failures of one operation folded into at most one: known only when
    every part is known."""
    if not failures:
        return []
    more = f" (+{len(failures) - 1} more)" if len(failures) > 1 else ""
    return [(all(k for k, _ in failures), failures[0][1] + more)]


class Launcher:
    """Runs CLI invocations in-process or as processes, timing each."""

    def __init__(self, job):
        self.python = job["python"]
        self.env = job["env"]
        self.root = job["root"]

    def in_process(self, argv):
        # imported on first use: a worker that only launches processes stays
        # smaller than them, and they inherit its resident size at launch
        from cavityswap import cli

        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(argv))
        except Exception as exc:  # an escaping exception is a failed operation
            code = f"raised {type(exc).__name__}: {exc}"
        return code, out.getvalue(), time.perf_counter() - start

    def process(self, argv):
        start = time.perf_counter()
        proc = subprocess.run(
            [self.python, "-m", "cavityswap.cli", *argv],
            env=self.env, cwd=self.root, capture_output=True, text=True,
        )
        return proc.returncode, proc.stdout, time.perf_counter() - start


# --- workloads ---------------------------------------------------------------
# Each returns (cycle, minimum, trace_ops, run_op): the untraced run repeats
# ``cycle`` for the run's seconds and runs at least its first ``minimum``
# ops; the traced run executes ``trace_ops`` once each.


def sweep_grid(job, outcome, call):
    grids = job["grids"]
    expects = [{k: np.asarray(v) for k, v in grid["expect"].items()} for grid in grids]

    def run_op(op):
        kind, i = op
        code, text, elapsed = call("in_process", grids[i]["argv"])
        rows = len(expects[i]["p"])
        if code != 0:
            failures = [(False, f"sweep exit {code}")] * rows
        else:
            failures = checks.check_grid(checks.parse_csv(text), expects[i])
        outcome.record(f"{kind}:{i}", elapsed, rows, failures)

    small = [("in_process", i) for i in range(len(grids) - 1)]
    big = ("big", len(grids) - 1)
    cycle = [op for pair in zip(small, [big] * len(small)) for op in pair]
    return cycle, len(cycle), small, run_op


def synthesis(job, outcome, call):
    from cavityswap import circuits

    targets = job["targets"]
    ff = job["feedforward"]
    rechecked = set()

    def run_planted(i):
        entry = targets[i]
        target = workloads.planted_unitary(entry["layers"])
        start = time.perf_counter()
        try:
            result = call("api", lambda: circuits.synthesize(target, workloads.SYNTH_CSWAPS, workloads.SYNTH_GATES))
        except Exception as exc:
            outcome.record(f"planted:{i}", time.perf_counter() - start, 1, [(False, f"synthesize raised {exc!r}")])
            return
        elapsed = time.perf_counter() - start
        lines = checks.match_lines(result)
        planted = ";".join(",".join(layer) for layer in entry["layers"]) + "|None"
        failures = []
        if checks.digest(lines) != entry["digest"]:
            failures.append((False, f"planted {entry['layers']}: match list differs from its pin"))
        if planted not in lines:
            failures.append((False, f"planted {entry['layers']}: planted circuit not among its matches"))
        if not failures and i not in rechecked:
            rechecked.add(i)
            for match in result.matches:
                gates = [s for s in match.circuit.steps if isinstance(s, circuits.Gate)]
                if not circuits.equivalent_up_to_phase(circuits.circuit_unitary(gates, 3), target, checks.TOL):
                    failures.append((False, f"planted {entry['layers']}: a match fails the re-check"))
                    break
        outcome.record(f"planted:{i}", elapsed, 1, one_op(failures))

    def run_feedforward():
        code, text, elapsed = call("in_process", ff["argv"])
        failures = []
        lines = checks.circuit_lines(text)
        if code != 0:
            failures.append((False, f"feed-forward search exit {code}"))
        elif checks.digest(lines) != ff["digest"] or checks.found_count(text) != ff["found"]:
            failures.append((False, "feed-forward match list differs from its pin"))
        elif "ff" not in rechecked:
            rechecked.add("ff")
            target = circuits.cpf_target()
            for line in lines:
                mode = "feedforward" if "measure(" in line else "photon"
                if not checks.recheck(circuits, line, target, mode):
                    failures.append((False, f"feed-forward match fails the re-check: {line}"))
                    break
        outcome.record("feedforward", elapsed, 1, failures)

    def run_op(op):
        if op == "ff":
            run_feedforward()
        else:
            run_planted(op)

    cycle = ["ff"] + list(range(len(targets)))
    return cycle, len(cycle), cycle[:3], run_op


def check_call(call_spec, code, text):
    kind, expect = call_spec["kind"], call_spec["expect"]
    if kind == "metrics":
        return checks.check_metrics(code, text, expect)
    if kind == "coeffs":
        return checks.check_coeffs(code, text, expect)
    if kind == "sweep":
        if code != 0:
            return [(False, f"sweep exit {code}")]
        return checks.check_grid(checks.parse_csv(text), {k: np.asarray(v) for k, v in expect.items()})
    if kind == "fingerprint":
        return checks.check_fingerprint(code, text, expect)
    if kind == "synthesize":
        if code != 0 or checks.digest(checks.circuit_lines(text)) != expect["digest"] or checks.found_count(text) != expect["found"]:
            return [(False, f"{' '.join(call_spec['argv'])}: exit {code} or match list differs from its pin")]
        return []
    return checks.check_verify(code, text)


def cli_session(job, outcome, call):
    calls = job["session"]
    # whole processes when untraced; the traced pass runs in-process
    mode = "in_process" if job["trace"] else "process"

    def run_op(i):
        spec = calls[i]
        code, text, elapsed = call(mode, spec["argv"])
        try:
            failures = check_call(spec, code, text)
        except (ValueError, KeyError) as exc:
            failures = [(False, f"{' '.join(spec['argv'][:2])}: unreadable output ({exc!r})")]
        kind = "verify" if spec["kind"] == "verify" else "quick"
        outcome.record(f"{kind}:{i}", elapsed, 1, one_op(failures))

    cycle = list(range(len(calls)))
    return cycle, len(cycle), cycle, run_op


WORKLOADS = {"sweep-grid": sweep_grid, "synthesis": synthesis, "cli-session": cli_session}


# --- main --------------------------------------------------------------------


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def untraced_run(job, launcher, outcome):
    sampler = speed.Sampler()

    def call(mode, what):
        if mode == "process":
            return launcher.process(what)
        with sampler:
            return what() if mode == "api" else launcher.in_process(what)

    cycle, minimum, _, run_op = WORKLOADS[job["workload"]](job, outcome, call)
    # closed loop: the next op starts when the previous one has finished
    start = time.perf_counter()
    done = 0
    before = speed.sample()
    kernel = [before]
    while done < minimum or time.perf_counter() - start < job["seconds"]:
        run_op(cycle[done % len(cycle)])
        after = speed.sample()
        during, spent = sampler.take()
        samples = [before, after] + during
        outcome.calibrate(speed.NOMINAL_S / (sum(samples) / len(samples)), spent)
        kernel.append(after)
        before = after
        done += 1
        if done == minimum:
            # the peak over a fixed set of operations; later repeats would
            # add heap growth that depends on how many fit in the run
            peak = peak_rss_mb()
    return {"peak_rss_mb": peak, "kernel_s": kernel}


def traced_run(job, launcher, outcome):
    """Each trace op twice, untraced and traced; per-layer numbers come from
    the traced executions, the overhead from the pairs."""
    import cavityswap
    from cavityswap import cavity, channel, circuits, cli, pulses

    tracer = Tracer({"cavity": cavity, "pulses": pulses, "channel": channel,
                     "circuits": circuits, "cli": cli, "package": cavityswap})
    state = {"tracing": False, "cli_failed": 0}
    elapsed = {False: 0.0, True: 0.0}

    def call(mode, what):
        if state["tracing"]:
            tracer.install()
        start = time.perf_counter()
        try:
            if mode == "api":
                return what()
            code, text, seconds = launcher.in_process(what)
            if state["tracing"] and code != 0:
                state["cli_failed"] += 1
            return code, text, seconds
        finally:
            elapsed[state["tracing"]] += time.perf_counter() - start
            tracer.uninstall()

    _, _, trace_ops, run_op = WORKLOADS[job["workload"]](job, outcome, call)
    for number, op in enumerate(trace_ops):
        # alternate which of the pair runs first, so warm-up is shared
        for tracing in (False, True) if number % 2 == 0 else (True, False):
            state["tracing"] = tracing
            tracer.current_op = number
            run_op(op)
    state["tracing"] = False
    outcome.calibrate(1.0)
    tracer.write(os.path.join(job["out_dir"], f"spans-{job['workload']}.npz"))
    return {
        "layers": tracer.layer_metrics(),
        "absent": tracer.absent,
        "cli_failed": state["cli_failed"],
        "overhead_ratio": elapsed[True] / elapsed[False],
    }


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    launcher = Launcher(job)
    outcome = Outcome()
    result = (traced_run if job["trace"] else untraced_run)(job, launcher, outcome)
    result.update(outcome.as_dict())
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
