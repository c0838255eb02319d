"""Exit-code contract under generated input: every run exits 0, 1 or 2 and none raises.

Specs mix well-formed pieces (numbers at the edges of the float range,
rationals, indices near the valid range) with free text.  Sizes stay at
levels 0-2, and free text holds no decimal digit, so a spec can never ask
for a large level, grid or level list.  Well-formed ``flux-sweep`` cases
may also run at level 5, where the gasket's 366 vertices take a small
``--k`` to the sparse eigensolver.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass

from hypothesis import example, given, settings, strategies as st

from magres.cli import EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main
from conftest import structure_data

# no '/' (no absolute paths) and no decimal digit of any script (int() reads them)
JUNK = st.text(st.characters(blacklist_categories=("Cs", "Nd"), blacklist_characters="/"), max_size=8)
NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "1/3", "1/0", "1" * 400]),
    JUNK,
)
INDEX = st.one_of(st.integers(-3, 40).map(str), JUNK)


def joined(piece, max_size=4):
    return st.lists(piece, max_size=max_size).map(",".join)


FIELD = st.one_of(
    st.just("zero"),
    NUMBER.map("constant:{}".format),
    st.one_of(st.integers(-5, 2**70).map(str), JUNK).map("random:{}".format),
    st.tuples(INDEX, NUMBER).map(lambda p: f"cycle:{p[0]}:{p[1]}"),
    JUNK,
)
MEASURE = st.one_of(st.sampled_from(["structure", "uniform"]), joined(NUMBER), JUNK)
GRID = st.one_of(
    st.tuples(NUMBER, NUMBER, st.one_of(st.integers(-1, 4).map(str), JUNK)).map(":".join),
    JUNK,
)
SWEEP_GRID = st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.integers(1, 4)).map(
    lambda p: f"{p[0]!r}:{p[1]!r}:{p[2]}"
)
RADII = st.one_of(joined(NUMBER), JUNK)
LEVELS = st.one_of(joined(st.integers(-1, 2).map(str)), JUNK)
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-10**400, 10**400) | JUNK,
    lambda inner: st.lists(inner, max_size=16) | st.dictionaries(JUNK, inner, max_size=3),
    max_leaves=20,
)


@dataclass
class JsonFile:
    """An option given as the path of a JSON file holding ``value``."""

    value: object


RHS = st.one_of(
    INDEX.map("delta:{}".format),
    NUMBER.map("constant:{}".format),
    JUNK,
    JSON_VALUE.map(JsonFile),
)


@st.composite
def structure_file(draw):
    """A bundled structure with one resistance factor, weight or conductance replaced."""
    data = structure_data(draw(st.sampled_from(["interval", "circle", "gasket"])))
    if draw(st.booleans()):
        target, key = draw(st.sampled_from(data["maps"])), draw(st.sampled_from(["r", "mu"]))
    else:
        target, key = draw(st.sampled_from(data["base"]["edges"])), 2
    target[key] = draw(st.one_of(NUMBER, JSON_VALUE))
    return JsonFile(data)


STRUCTURE = st.one_of(st.sampled_from(["interval", "circle", "gasket"]), structure_file())
HUGE_FACTOR = structure_data("interval")
HUGE_FACTOR["maps"][0]["r"] = "1e400"
LEVEL = st.integers(0, 2).map(str)
MODEL = st.sampled_from(["linearized", "peierls"])


def command(name, optional=None, **options):
    return st.tuples(st.just(name), st.fixed_dictionaries(options, optional=optional or {}))


ARGV = st.one_of(
    command("spectrum", structure=STRUCTURE, level=LEVEL, model=MODEL, field=FIELD, measure=MEASURE),
    command("flux-sweep", structure=STRUCTURE, level=LEVEL, model=st.just("peierls"), grid=GRID, measure=MEASURE,
            optional={"k": INDEX}),
    # well-formed sweeps with a drawn --k reach both eigensolvers and a k above the vertex count
    command("flux-sweep", structure=st.sampled_from(["gasket", "circle"]),
            level=st.sampled_from(["5", "2", "1"]), model=st.just("peierls"), grid=SWEEP_GRID,
            boundary=st.sampled_from(["neumann", "dirichlet"]), k=st.integers(1, 12).map(str)),
    command("converge", structure=STRUCTURE, model=MODEL, levels=LEVELS, field=FIELD, k=st.just("2")),
    command("audit", structure=STRUCTURE, level=LEVEL, radii=RADII, field=FIELD, measure=MEASURE,
            trials=st.just("4"), balls=st.just("3")),
    command("zero-mode", structure=STRUCTURE, level=LEVEL, model=MODEL, field=FIELD, measure=MEASURE),
    command("solve", structure=STRUCTURE, level=LEVEL, model=MODEL,
            dirichlet=st.just("boundary") | JSON_VALUE.map(JsonFile), field=FIELD, rhs=RHS),
)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(case=ARGV)
# rationals and JSON integers beyond the float range once raised OverflowError
@example(case=("spectrum", {"structure": "gasket", "level": "0", "model": "peierls", "field": "zero",
                            "measure": "1e400,0.0,0.0"}))
@example(case=("spectrum", {"structure": JsonFile(HUGE_FACTOR), "level": "1", "model": "peierls",
                            "field": "zero", "measure": "structure"}))
@example(case=("solve", {"structure": "interval", "level": "1", "model": "peierls", "dirichlet": "boundary",
                         "field": "zero", "rhs": JsonFile([10**400, 1, 1])}))
# finite fields whose squared norms overflow once ended in a PASS report or a numpy warning
@example(case=("audit", {"structure": "gasket", "level": "1", "field": "constant:1e200"}))
@example(case=("hodge", {"structure": "gasket", "level": "1", "field": "constant:1e300"}))
# a flux beyond float resolution once made zero-mode fail (exit 1), and a form
# bound whose right-hand side overflowed once made audit fail with a NaN slack
@example(case=("zero-mode", {"structure": "gasket", "level": "1", "field": "constant:1e200"}))
@example(case=("audit", {"structure": "gasket", "level": "1", "field": "constant:1e153", "trials": "20"}))
# both eigensolvers, and a k above the vertex count
@example(case=("flux-sweep", {"structure": "gasket", "level": "5", "model": "peierls", "grid": "0:3:3", "k": "2"}))
@example(case=("flux-sweep", {"structure": "gasket", "level": "5", "model": "peierls", "grid": "0:3:3", "k": "12"}))
@example(case=("flux-sweep", {"structure": "circle", "level": "1", "model": "peierls", "grid": "0:3:3", "k": "9"}))
# a JSON pinned set holding null once ended in a TypeError
@example(case=("solve", {"structure": "interval", "level": "2", "model": "peierls", "dirichlet": JsonFile([None]),
                         "field": "zero", "rhs": "delta:3"}))
def test_generated_input_exits_0_1_or_2(tmp_path_factory, case):
    name, options = case
    argv = [name]
    for key, value in options.items():
        if isinstance(value, JsonFile):
            path = tmp_path_factory.getbasetemp() / f"fuzz-{key}.json"
            path.write_text(json.dumps(value.value), encoding="utf-8")
            value = path
        argv.append(f"--{key}={value}")  # after '=', a value never reads as a flag
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses an option its type rejects (--k) this way
            code = exc.code
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_INPUT)
