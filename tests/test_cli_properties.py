"""Property tests: a preset file holding any JSON values ends in a result or
a usage error, never in a traceback; the CSV cell formatter prints every
double as printf's '%.12e' does."""
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from cavityswap import cli  # noqa: E402
from cavityswap.cli import EXIT_OK, EXIT_USAGE, run  # noqa: E402

SCALARS = st.one_of(
    st.floats(),  # NaN, both infinities, huge and subnormal values included
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, 1e-300, 1e154, math.nan, math.inf]),
    st.none(),
    st.booleans(),
    st.text(max_size=6),
)
JSON_VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), SCALARS, max_size=2),
)
BANDWIDTH_RULES = st.one_of(
    st.builds(
        lambda value, suffix: f"{value!r}{suffix}",
        st.floats(),
        st.sampled_from(["", "kappa", "g2k"]),
    ),
    st.text(max_size=8),
)


@pytest.fixture(scope="module")
def preset_path(tmp_path_factory):
    return tmp_path_factory.mktemp("presets") / "preset.json"


@given(g=JSON_VALUES, kappa=JSON_VALUES, gamma=JSON_VALUES, rule=BANDWIDTH_RULES)
def test_any_preset_file_gives_a_result_or_a_usage_error(preset_path, g, kappa, gamma, rule):
    payload = {"name": "p", "g": g, "kappa": kappa, "gamma": gamma, "unit": "u",
               "bandwidth_rule": rule}
    preset_path.write_text(json.dumps(payload))
    assert run(["metrics", "--preset-file", str(preset_path)]) in (EXIT_OK, EXIT_USAGE)


def e12_texts(values):
    cells = cli._e12_cells(np.array(values, dtype=float))
    return [row[row != 0].tobytes().decode() for row in cells]


@given(st.lists(st.floats(), min_size=1, max_size=200))  # NaN, infinities, subnormals, -0.0
def test_e12_cells_are_printf_cells(values):
    assert e12_texts(values) == ["%.12e" % value for value in values]


def near_tie(digits, k, step, sign):
    """The double nearest the decimal tie (digits + 1/2) * 10**k, a 13-digit
    mantissa and a half, or its neighbour on one side."""
    value = float(f"{10 * digits + 5}e{k - 1}")
    if step:
        value = float(np.nextafter(value, step * math.inf))
    return sign * value


TIES = st.builds(near_tie, st.integers(10**12, 10**13 - 1), st.integers(-46, 22),
                 st.sampled_from([-1, 0, 1]), st.sampled_from([-1.0, 1.0]))


@given(st.lists(TIES, min_size=1, max_size=200))
def test_e12_cells_next_to_ties_are_printf_cells(values):
    assert e12_texts(values) == ["%.12e" % value for value in values]
