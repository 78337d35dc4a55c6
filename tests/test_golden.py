"""Golden numbers: every number and string that the six commands of the CI
loop write on the bundled config, plus one stability run at m=9, against
``tests/golden.json``.

The JSON reports are read whole.  Each CSV gives its comment lines (a
``name=value`` comment gives its value) and its columns, cell by cell.  The
SVG plots draw the same numbers and are left out.  Integers, booleans,
strings and fingerprints must match exactly.  Floats must match to
``RTOL`` relative: the largest drift that a change which kept the numbers
recorded in CHANGES.md is 1.4e-14 relative (the sweep gaps), and most were
below 2e-16.  The two round-off measures in ``ROUNDOFF`` move by orders of
magnitude relative under any reordering of sums, so they only have to stay
below ten times their golden value.

A change that moves a number on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --write

and says in CHANGES.md which numbers moved and why.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

# one BLAS thread, as in tests/conftest.py, also when run as a script
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from otlab.cli import main  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")
RTOL = 1e-12
ROUNDOFF = {"bilinear_symmetry_residual", "interior_residual_sup"}
COMMANDS = ["check", "solve", "dn", "singular", "stability", "gegenbauer-table"]


def _cell(name: str, text: str):
    """A CSV cell or comment value as the number it spells; fingerprints,
    other text and a non-finite float stay text, so they compare exactly."""
    if "fingerprint" not in name:
        for kind in (int, float):
            try:
                value = kind(text)
            except ValueError:
                continue
            if math.isfinite(value):
                return value
    return text


def _read_csv(path: Path) -> dict:
    lines = path.read_text().splitlines()
    comments = [line[2:].partition("=") for line in lines if line.startswith("# ")]
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    return {
        "comments": [[name, _cell(name, value)] if eq else [name] for name, eq, value in comments],
        "columns": {name: [_cell(name, row[i]) for row in rows] for i, name in enumerate(header)},
    }


def _artifacts(out: Path) -> dict:
    found = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            found[path.name] = json.loads(path.read_text())
        elif path.suffix == ".csv":
            found[path.name] = _read_csv(path)
    return found


def collect() -> dict:
    """Run each command in process into its own directory and read back
    what it wrote, keyed by run and artifact name."""
    with resources.files("otlab.data").joinpath("default_config.json").open() as fh:
        small = json.load(fh)
    small["grid"]["m_per_axis"] = 9
    runs = {command: [command] for command in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "m9.json"
        config.write_text(json.dumps(small))
        runs["stability-m9"] = ["stability", "--config", str(config)]
        results = {}
        for name, argv in runs.items():
            out = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--out", str(out)])
            assert code == 0, (name, code)
            results[name] = _artifacts(out)
    return results


def mismatches(got, want, where: str = "") -> list:
    """Where ``got`` differs from ``want`` beyond the rules above."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{where}/{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{where}/{i}")]
    if type(want) is float and type(got) is float:
        if where.rsplit("/", 1)[-1] in ROUNDOFF:
            ok = got <= 10.0 * want
        else:
            ok = abs(got - want) <= RTOL * abs(want)
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{where}: {got!r} != golden {want!r}"]


def test_reported_numbers_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert mismatches(collect(), golden) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (regenerates {GOLDEN.name})")
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
