"""Benchmark of cavityswap: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs a fixed list of operations twice, untraced then traced,
and reports per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Lines
before it give every figure under its descriptive name (sweep_points_per_s,
synth_full_s, cli_quick_tail_s, ...) and carry the run record.  Spans and the record are also written to
``.perfbench_out/``.

``attempted`` and ``failed`` count each distinct operation of the seeded set
once (a CSV row, a search, an invocation), however often the closed loop
repeats it, so they depend on the seed alone.  ``correct`` is false when any
execution fails in a way other than the two known defects of the program
(see perfbench/checks.py); those are counted in ``failed`` and named in the
record.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_FUNCTIONS, import_times  # noqa: E402

SETUP_RUNS = 4  # before and again after the measured work
RUN_LIMIT_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# end-to-end metrics, the same four on every workload.  op_s and heavy_op_s
# are the workload's headline and heaviest operation:
#   sweep-grid:  op_s = median in-process `sweep` call over a 100x100 grid,
#                heavy_op_s = the same over the 200x100 grid
#   synthesis:   op_s = mean over the run's planted targets of one
#                full-operator search, heavy_op_s = median cpf feed-forward
#                2-CSWAP search
#   cli-session: op_s = median quick invocation, heavy_op_s = median full
#                `cavityswap verify` invocation
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_s", "s"), ("heavy_op_s", "s"))


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for layer, functions in LAYER_FUNCTIONS.items():
        for fname in functions:
            base = f"{layer}.{fname}"
            names += [(f"{base}.calls", "count"), (f"{base}.self_s", "s"), (f"{base}.raised", "count")]
    names += [
        ("cavity.response_arrays.omega_points", "count"),
        ("pulses.sweep.points", "count"),
        ("pulses.sweep.failed_points", "count"),
        ("circuits.apply.amplitudes", "count"),
        ("circuits.apply.bytes", "bytes"),
        ("circuits.synthesize.candidates", "count"),
        ("circuits.synthesize.candidates_per_s", "1/s"),
        ("circuits.synthesize.matches", "count"),
        ("circuits.synthesize.match_ratio", "ratio"),
        ("cli.run.failed", "count"),
        ("import.numpy_s", "s"),
        ("import.cavityswap_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return names


# --- set-up ------------------------------------------------------------------


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # one client, single-threaded: the program's own sweep thread pool stays off
    env.pop("CAVITYSWAP_WORKERS", None)
    return env


def measure_setup(python, env, root):
    """Calibrated and wall times of fresh interpreters importing cavityswap.cli."""
    command = [python, "-c", "import cavityswap.cli"]
    calibrated, wall = [], []
    before = speed.sample()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=root, check=True)
        wall.append(time.perf_counter() - start)
        after = speed.sample()
        calibrated.append(wall[-1] * speed.NOMINAL_S / ((before + after) / 2.0))
        before = after
    return calibrated, wall


def grid_expect(g, dw, gamma, nodes=64):
    """References for a sweep grid in the program's row order (g outer)."""
    gg, dd = np.meshgrid(np.sort(g), np.sort(dw), indexing="ij")
    rates = (gg.ravel(), 1.0, gamma)
    p, f = oracle.reference_metrics(rates, dd.ravel())
    hp, hf = oracle.hermite_metrics(rates, dd.ravel(), nodes)
    miss = np.maximum(np.abs(hp - p), np.abs(hf - f)) > checks.TOL
    return {"g": gg.ravel().tolist(), "dw": dd.ravel().tolist(),
            "p": p.tolist(), "F": f.tolist(), "miss": miss.tolist()}


def point_expect(h, v, bandwidth, nodes):
    p, f = oracle.reference_metrics(h, bandwidth, v)
    hp, hf = oracle.hermite_metrics(h, bandwidth, nodes, v)
    miss = max(abs(float(hp[0] - p[0])), abs(float(hf[0] - f[0]))) > checks.TOL
    return {"p": float(p[0]), "F": float(f[0]), "miss": bool(miss)}


def sweep_grid_job(seed, pins):
    grids = workloads.sweep_grid(seed)
    return {"grids": [
        {"argv": workloads.sweep_argv(grid), "expect": grid_expect(grid["g"], grid["dw"], grid["gamma"])}
        for grid in grids
    ]}


def synthesis_job(seed, pins):
    ff_key = " ".join(workloads.FEEDFORWARD_ARGV)
    return {
        "targets": workloads.synthesis(seed, pins["planted_pool"]),
        "feedforward": {"argv": workloads.FEEDFORWARD_ARGV, **pins["cli"][ff_key]},
    }


def _random_state(rng, n):
    # the draw `fingerprint --states random` makes: normalized complex Gaussian
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def _fingerprint_p_minus(expect):
    n, states = expect["n"], expect["states"]
    if states == "orthogonal":
        return 0.5
    rng = np.random.default_rng(expect["seed"])
    psi = _random_state(rng, n)
    phi = psi if states == "identical" else _random_state(rng, n)
    return min(max((1.0 - abs(np.vdot(psi, phi)) ** 2) / 2.0, 0.0), 0.5)


def cli_session_job(seed, pins):
    session = workloads.cli_session(seed)
    for call in session:
        kind, expect = call["kind"], call["expect"]
        if kind == "metrics":
            expect.update(point_expect(expect["h"], expect["v"], expect["bandwidth"], expect["nodes"]))
            expect.update(argv=call["argv"], nan_nodes=workloads.KNOWN_NAN_NODES)
        elif kind == "coeffs":
            argv = call["argv"]
            start, stop, step = (float(argv[argv.index(flag) + 1])
                                 for flag in ("--omega-start", "--omega-stop", "--omega-step"))
            omega = np.arange(start, stop + step / 2, step)
            g, kappa, gamma = expect["rates"]
            if expect["branch"] == "coupled":
                t = oracle.transmission(omega, g, kappa, gamma)
            else:
                t = oracle.empty_transmission(omega, kappa)
            r = t - 1.0
            call["expect"] = {"omega": omega.tolist(), "r": [[z.real, z.imag] for z in r],
                              "t": [[z.real, z.imag] for z in t]}
        elif kind == "sweep":
            call["expect"] = grid_expect(expect["g"], expect["dw"], expect["gamma"])
        elif kind == "fingerprint":
            expect["p_minus"] = _fingerprint_p_minus(expect)
        elif kind == "synthesize":
            expect.update(pins["cli"][" ".join(call["argv"])])
    return {"session": session}


JOBS = {"sweep-grid": sweep_grid_job, "synthesis": synthesis_job, "cli-session": cli_session_job}


# --- record and metrics --------------------------------------------------------


def git_commit(root):
    """Commit of a git checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return f"unknown ({ref[5:]} is packed)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tail(values):
    """Highest percentile with at least 10 samples beyond it: (value, pct, N)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None, None, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _samples(times, kind):
    """Every execution time of ops of one kind, over all its ops."""
    return [t for key, values in times.items() if key.split(":")[0] == kind for t in values]


def end_to_end(workload, res, setup_s):
    """JSON metrics plus the descriptively named figures of the summary lines."""
    times = res["times"]
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (res["peak_rss_mb"], "MB")}
    if workload == "sweep-grid":
        op = statistics.median(_samples(times, "in_process"))
        heavy = statistics.median(_samples(times, "big"))
        named["sweep_points_per_s"] = (workloads.GRID_SIDE**2 / op, "1/s")
        named["sweep_big_points_per_s"] = (math.prod(workloads.BIG_GRID) / heavy, "1/s")
    elif workload == "synthesis":
        per_target = [statistics.median(v) for k, v in times.items() if k.startswith("planted:")]
        op = statistics.fmean(per_target)
        heavy = statistics.median(_samples(times, "feedforward"))
        named["synth_full_s"] = (op, "s")
        named["synth_feedforward_s"] = (heavy, "s")
    else:
        quick = _samples(times, "quick")
        op = statistics.median(quick)
        heavy = statistics.median(_samples(times, "verify"))
        value, pct, n = tail(quick)
        named["cli_quick_p50_s"] = (op, "s")
        named["cli_quick_tail_s"] = (value, f"s (p{pct:.1f} of N={n})" if value else f"s (N={n} < 11)")
        named["verify_all_s"] = (heavy, "s")
    metrics = {"setup_s": setup_s, "peak_rss_mb": res["peak_rss_mb"], "op_s": op, "heavy_op_s": heavy}
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}, named


def per_layer(res, numpy_s, own_s):
    layers = res["layers"]
    values = {}
    for layer, functions in LAYER_FUNCTIONS.items():
        for fname in functions:
            base = f"{layer}.{fname}"
            entry = layers.get(base, {})
            for key in ("calls", "self_s", "raised"):
                values[f"{base}.{key}"] = entry.get(key, 0)
    ra = layers.get("cavity.response_arrays", {})
    sw = layers.get("pulses.sweep", {})
    ap = layers.get("circuits.apply", {})
    sy = layers.get("circuits.synthesize", {})
    values.update({
        "cavity.response_arrays.omega_points": ra.get("omega_points", 0),
        "pulses.sweep.points": sw.get("points", 0),
        "pulses.sweep.failed_points": sw.get("failed_points", 0),
        "circuits.apply.amplitudes": ap.get("amplitudes", 0),
        "circuits.apply.bytes": ap.get("bytes", 0),
        "circuits.synthesize.candidates": sy.get("candidates", 0),
        "circuits.synthesize.candidates_per_s": sy["candidates"] / sy["total_s"] if sy.get("total_s") else 0.0,
        "circuits.synthesize.matches": sy.get("matches", 0),
        "circuits.synthesize.match_ratio": (
            sy["matches"] / sy["confirmations"] if sy.get("confirmations") else 0.0
        ),
        "cli.run.failed": res["cli_failed"],
        "import.numpy_s": numpy_s,
        "import.cavityswap_s": own_s,
        "trace.overhead_ratio": res["overhead_ratio"],
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


# --- main ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    began = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cavityswap", "__init__.py")):
        print("perfbench: run from the root of a cavityswap checkout (no src/cavityswap here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)
    python = sys.executable
    env = child_env(root)
    cpu = speed.pin_to_one_cpu()
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)

    # Linux carries a process's peak RSS across fork and exec, so the worker
    # starts before the references grow this process; it waits for its job
    worker = subprocess.Popen(
        [python, os.path.join(HERE, "worker.py")], cwd=root, text=True, start_new_session=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        subprocess.run([python, "-c", "import cavityswap.cli"], env=env, cwd=root, check=True)  # warm bytecode
        setup_samples, setup_wall = measure_setup(python, env, root)
        job = JOBS[args.workload](args.seed, pins)
        job.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                   python=python, env=env, root=root, out_dir=out_dir)
        stdout, stderr = worker.communicate(
            json.dumps(job), timeout=max(10.0, RUN_LIMIT_S - (time.perf_counter() - began))
        )
    finally:
        if worker.poll() is None:
            # the worker's own children share its process group
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
    # samples at both ends of the run, so that one noisy moment moves fewer of them
    more, more_wall = measure_setup(python, env, root)
    setup_samples += more
    setup_wall += more_wall
    setup_s = statistics.median(setup_samples)
    if worker.returncode != 0:
        print(stderr, file=sys.stderr)
        print(f"perfbench: worker exited {worker.returncode}", file=sys.stderr)
        return 1
    res = json.loads(stdout.strip().splitlines()[-1])

    if args.trace:
        numpy_s, own_s = import_times(python, env, root)
        metrics = per_layer(res, numpy_s, own_s)
        named = {"trace.overhead_ratio": (res["overhead_ratio"], "traced / untraced wall time")}
    else:
        metrics, named = end_to_end(args.workload, res, setup_s)
    import cavityswap

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(root), "python": platform.python_version(), "numpy": np.__version__,
        "cavityswap": cavityswap.__version__, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "load": "one client, closed loop, one worker process; no queue or wait time "
                "(single-threaded program, CAVITYSWAP_WORKERS unset)",
        "cpu_pinned": cpu, "setup_s_calibrated": setup_samples, "setup_s_wall": setup_wall,
        "kernel_s": res.get("kernel_s"),
        "attempted": res["attempted"], "failed": res["failed"], "failed_new": res["failed_new"],
        "executions": res["executions"],
        "new_failures": res["new_failures"], "known_failures": res["known_failures"],
        "op_times_s": res["times"], "op_wall_s": res["wall"],
        "absent_functions": res.get("absent", []),
        "wall_s": time.perf_counter() - began,
    }
    with open(os.path.join(out_dir, f"record-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for name, (value, unit) in named.items():
        print(f"{args.workload}: {name} = {value} {unit}")
    print(f"{args.workload}: attempted {res['attempted']}, failed {res['failed']} "
          f"({res['failed'] - res['failed_new']} known defects); "
          f"{res['executions']} executions of the run's operations")
    print("record " + json.dumps(record))
    correct = res["failed_new"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
