"""Output checks.  Each returns failures as (known, message) pairs.

``known`` marks two known defects of the program that the benchmark counts but
does not treat as a broken benchmark run: rows the Gauss-Hermite rule does
not resolve (the benchmark's own reproduction of that rule misses the
reference too, and the reported residual does not cover the miss), and
``metrics --nodes N`` with N >= 186, whose doubled-node residual rule gets
NaN weights.  Anything else that fails is new.

CSV and reports are read by column or key name, so added columns or keys
do not break them; ``verify`` passes on exit 0 with no FAIL line.
"""
from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np

TOL = 1e-9


def parse_csv(text):
    """Columns by header name, as float arrays."""
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged CSV")
    cells = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: cells[:, i] for i, name in enumerate(header)}


def parse_report(text):
    """Flat mapping of a metrics/fingerprint report, plain or JSON."""
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        flat = dict(data.get("outputs", {}))
        flat["quadrature_residual"] = data.get("quadrature_residual")
        return flat
    flat = {}
    for line in text.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, value = line.split(" = ", 1)
        try:
            flat[key.strip()] = float(value)
        except ValueError:
            flat[key.strip()] = value.strip()
    return flat


def compare_point(p, f, residual, ref_p, ref_f, rule_misses, where):
    """One (p, F) output against the reference; None when it passes."""
    if not (math.isfinite(p) and math.isfinite(f)):
        return (bool(rule_misses), f"{where}: NaN output")
    diff = max(abs(p - ref_p), abs(f - ref_f))
    if diff <= TOL:
        return None
    if residual is not None and math.isfinite(residual) and residual >= diff:
        return None
    return (bool(rule_misses), f"{where}: |d(p,F)| = {diff:.3e}, residual {residual}")


def check_grid(columns, expect):
    """Sweep rows against expected (g, dw) order and reference (p, F).

    expect: g, dw (row order), p, F, miss (per row).  Returns one failure
    per failing row; a row count mismatch fails every expected row.
    """
    n = len(expect["p"])
    try:
        g, dw = columns["g_over_kappa"], columns["dw_over_kappa"]
        p, f = columns["p"], columns["F"]
    except KeyError as exc:
        return [(False, f"sweep column missing: {exc}")] * n
    residual = columns.get("residual")
    if len(p) != n or not (np.allclose(g, expect["g"], rtol=1e-11, atol=0)
                           and np.allclose(dw, expect["dw"], rtol=1e-11, atol=0)):
        return [(False, "sweep rows do not match the requested grid")] * n
    diff = np.maximum(np.abs(p - expect["p"]), np.abs(f - expect["F"]))
    bad = ~(diff <= TOL)
    if residual is not None:
        bad &= ~(residual >= diff)
    miss = np.asarray(expect["miss"], dtype=bool)
    return [
        (bool(miss[i]), f"row g={g[i]:.4g} dw={dw[i]:.4g}: |d(p,F)| = {diff[i]:.3e}")
        for i in np.nonzero(bad)[0]
    ]


def check_metrics(code, text, expect):
    where = " ".join(expect["argv"][:2]) + f" nodes={expect['nodes']}"
    if code != 0:
        return [(expect["nodes"] >= expect["nan_nodes"], f"{where}: exit {code}")]
    out = parse_report(text)
    failure = compare_point(
        float(out["loss_probability"]), float(out["fidelity"]),
        out.get("quadrature_residual"), expect["p"], expect["F"], expect["miss"], where,
    )
    return [failure] if failure else []


def check_coeffs(code, text, expect):
    if code != 0:
        return [(False, f"coeffs: exit {code}")]
    cols = parse_csv(text)
    omega = cols["omega"]
    if omega.shape != np.shape(expect["omega"]) or np.max(np.abs(omega - expect["omega"])) > 1e-12:
        return [(False, "coeffs: omega column differs from the requested range")]
    r = cols["re_R"] + 1j * cols["im_R"]
    t = cols["re_T"] + 1j * cols["im_T"]
    m2 = cols["re_m"] ** 2 + cols["im_m"] ** 2
    ref_r, ref_t = (np.asarray(expect[k]) @ np.array([1.0, 1j]) for k in ("r", "t"))
    worst = max(
        float(np.max(np.abs(r - ref_r))),
        float(np.max(np.abs(t - ref_t))),
        float(np.max(np.abs(m2 - (1.0 - np.abs(ref_r) ** 2 - np.abs(ref_t) ** 2)))),
        float(np.max(np.abs(cols["unitarity_residual"]))),
    )
    return [] if worst <= TOL else [(False, f"coeffs: deviates by {worst:.3e}")]


def check_fingerprint(code, text, expect):
    if code != 0:
        return [(False, f"fingerprint: exit {code}")]
    out = parse_report(text)
    exact = float(out["exact_p_minus"])
    p_minus = expect["p_minus"]
    trials = expect["trials"]
    problems = []
    if abs(exact - p_minus) > TOL:
        problems.append(f"exact_p_minus {exact!r} vs closed form {p_minus!r}")
    stderr = math.sqrt(p_minus * (1.0 - p_minus) / trials)
    if abs(float(out["standard_error"]) - stderr) > 1e-9:
        problems.append("standard_error deviates")
    if abs(float(out["recovered_overlap"]) ** 2 - (1.0 - 2.0 * p_minus)) > 1e-9:
        problems.append("recovered_overlap deviates")
    if abs(float(out["empirical_frequency"]) - p_minus) > 6.0 * stderr + 1.0 / trials:
        problems.append("empirical_frequency outside 6 standard errors")
    return [(False, f"fingerprint n={expect['n']}: {p}") for p in problems]


def check_verify(code, text):
    if code == 0 and not any(line.startswith("FAIL") for line in text.splitlines()):
        return []
    return [(False, f"verify: exit {code}, FAIL lines {sum(l.startswith('FAIL') for l in text.splitlines())}")]


# --- synthesis -------------------------------------------------------------


def digest(lines):
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def match_lines(result):
    """Canonical text of an API SynthesisResult's matches."""
    return [
        ";".join(",".join(layer) for layer in m.layers) + f"|{m.feedforward}"
        for m in result.matches
    ]


def circuit_lines(text):
    """Circuit lines of `cavityswap synthesize` output (not `key = value`)."""
    return [line for line in text.splitlines() if line and " = " not in line and not line.startswith("TRUNCATED")]


def found_count(text):
    for line in text.splitlines():
        if line.startswith("found = "):
            return int(line.split(" = ", 1)[1])
    return None


_STEP = re.compile(r"^(\w+)\(([\d,]+)\)$")
_ON = re.compile(r"^on([01]):\[(.*)\]$")


def parse_circuit(line):
    """(gate (kind, wires) list before any measurement, {outcome: correction
    gates}) from the one-line rendering of a circuit."""
    gates, corrections, measured = [], {}, False
    for part in line.split(" ; "):
        part = part.strip()
        on = _ON.match(part)
        if on:
            corrections[int(on.group(1))] = [
                (m.group(1), tuple(int(w) for w in m.group(2).split(",")))
                for m in (_STEP.match(g) for g in re.findall(r"\w+\([\d,]+\)", on.group(2)))
            ]
            continue
        step = _STEP.match(part)
        if step is None:
            raise ValueError(f"cannot parse circuit step {part!r}")
        if step.group(1) == "measure":
            measured = True
            continue
        if measured:
            raise ValueError("gate after measurement")
        gates.append((step.group(1), tuple(int(w) for w in step.group(2).split(","))))
    return gates, corrections, measured


def recheck(circuits, line, target, mode):
    """Independent re-check of one reported match with circuit_unitary and
    equivalent_up_to_phase.  mode: full (8x8 target), photon (4x4 target,
    U = atom x target) or feedforward (4x4 target, measure the atom from |+>,
    correct each outcome)."""
    gates, corrections, measured = parse_circuit(line)
    u = circuits.circuit_unitary([circuits.Gate(kind, wires) for kind, wires in gates], 3)
    if mode == "full":
        return circuits.equivalent_up_to_phase(u, target, TOL)
    blocks = u.reshape(2, 4, 2, 4)
    if mode == "photon":
        coeff = np.einsum("ij,aibj->ab", target.conj(), blocks) / 4.0
        return bool(np.max(np.abs(blocks - np.einsum("ab,ij->aibj", coeff, target))) <= TOL)
    if not measured:
        return False
    for outcome in (0, 1):
        photon_map = (blocks[outcome, :, 0, :] + blocks[outcome, :, 1, :]) / math.sqrt(2.0)
        weight = float(np.sum(np.abs(photon_map) ** 2) / 4.0)
        if weight < 1e-12:
            return False
        fixed = photon_map / math.sqrt(weight)
        for kind, (wire,) in corrections.get(outcome, []):
            if kind != "Z" or wire not in (1, 2):
                return False
            fixed = np.diag([1.0 if ((k >> (2 - wire)) & 1) == 0 else -1.0 for k in range(4)]) @ fixed
        if not circuits.equivalent_up_to_phase(fixed, target, TOL):
            return False
    return True
