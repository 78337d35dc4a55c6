"""Fuzz of small configs through `otlab.cli.main`.

Each draw edits one field of an m=9 config: an experiment key set to a
value of the wrong JSON type or to an out-of-range number, an unknown
experiment key, or a random string for `medium.mu_a` or
`experiments.solve.boundary_data`.  Whatever the draw, `main` returns 0, 2
or 3 without raising, and every exit 2 names a JSON pointer.  Draws that
start work stay small (three amplitudes, `eps_count` at most 4), so a run
takes well under a second.  A second draw puts an unknown key at the top
level or into any section and expects exit 2 at that key's pointer with no
report written; a top-level ``threads`` key is accepted and ignored.
"""

import contextlib
import io
import json
import re
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from otlab.cli import main
from otlab.config import EXPERIMENTS, SECTIONS, TOP_LEVEL

WRONG_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=1),
)
NUMBERS = st.one_of(
    st.integers(-2, 5),  # near the valid ranges, so some draws run
    st.floats(-1.0, 1.0),
    st.integers(-100, 100),
    st.floats(-1e3, 1e3),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, 10**400]),
)
# the grammar's characters and some that lie outside it
EXPRESSION_TEXT = st.text(alphabet="x123yzpie+-*/(). sincoqrtabhlg_[]',#%0j", max_size=24)


def _value(key):
    numbers = st.integers(-4, 4) | st.floats(-4, 4) if key == "eps_count" else NUMBERS
    return WRONG_TYPES | numbers


def _unknown(section):
    return st.text(min_size=1, max_size=6).filter(lambda k: k not in EXPERIMENTS[section])


EDITS = st.one_of(
    st.sampled_from([(s, k) for s in EXPERIMENTS for k in EXPERIMENTS[s]]).flatmap(
        lambda sk: st.tuples(st.just(("experiments",) + sk), _value(sk[1]))
    ),
    st.sampled_from(list(EXPERIMENTS)).flatmap(
        lambda s: st.tuples(_unknown(s).map(lambda k: ("experiments", s, k)), st.integers(0, 3))
    ),
    st.tuples(st.just(("medium", "mu_a")), EXPRESSION_TEXT),
    st.tuples(st.just(("experiments", "solve", "boundary_data")), EXPRESSION_TEXT),
)


def _config():
    with resources.files("otlab.data").joinpath("default_config.json").open() as fh:
        cfg = json.load(fh)
    cfg["grid"]["m_per_axis"] = 9
    cfg["experiments"]["stability"]["eps_count"] = 3
    return cfg


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(edit=EDITS)
def test_fuzzed_config_exits_0_2_or_3(edit):
    (*parents, leaf), value = edit
    cfg = _config()
    node = cfg
    for key in parents:
        node = node[key]
    node[leaf] = value
    command = "check" if parents == ["medium"] else parents[1].replace("_", "-")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 2, 3), (code, err.getvalue())
    if code == 2:
        assert re.search(r"^configuration error: /", err.getvalue(), re.M), err.getvalue()


# the top level ("") and every section, each with the keys it knows
KNOWN = {"": TOP_LEVEL, **SECTIONS}
UNKNOWN_KEYS = st.sampled_from(sorted(KNOWN)).flatmap(
    lambda s: st.tuples(st.just(s), st.text(min_size=1, max_size=6).filter(lambda k: k not in KNOWN[s]))
)


def _run_check(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["check", "--config", str(path), "--out", str(Path(tmp) / "o")])
        return code, err.getvalue(), (Path(tmp) / "o" / "check_report.json").exists()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(edit=UNKNOWN_KEYS, value=WRONG_TYPES | NUMBERS)
def test_unknown_key_exits_2_at_its_pointer(edit, value):
    section, key = edit
    cfg = _config()
    (cfg.setdefault(section, {}) if section else cfg)[key] = value
    code, err, wrote = _run_check(cfg)
    pointer = f"/{section}/{key}" if section else f"/{key}"
    assert code == 2 and not wrote, (code, err)
    assert err.startswith(f"configuration error: {pointer}: unknown key {key!r}"), err


@pytest.mark.parametrize("threads", [1, 2])
def test_top_level_threads_is_accepted_and_ignored(threads):
    cfg = _config()
    cfg["threads"] = threads
    code, err, wrote = _run_check(cfg)
    assert code == 0 and wrote, err
