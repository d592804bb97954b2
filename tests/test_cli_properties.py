"""Property test: a preset file holding any JSON values ends in a result or
a usage error, never in a traceback."""
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

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
