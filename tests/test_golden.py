"""Golden CLI outputs: every file, stdout line and exit status of a fixed
set of invocations, frozen in ``data/golden_cli.json``.

Numbers are parsed out of the text and compared at ``rtol=1e-12``, room
for platform differences; all other text compares exactly. Only the
manifest timestamps and library versions, the report's ``wall time:``
line and the output directory in stdout are masked. Each CSV file must also
read with ``csv.reader`` into rows as wide as its header, and each JSON file
must load with no NaN or Infinity literal. A change that moves
an output on purpose regenerates the file, and the diff of the data file
is its declared change. Regenerating keeps each stdout and file text that
still matches, so noise inside the tolerance shows no diff:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""
import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile

import pytest

from ionwire import cli
from conftest import parse_problem

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "golden_cli.json")
SWAP_SHORT = os.path.join(HERE, os.pardir, "perfbench", "scenarios",
                          "swap_short.scenario")

# (name, argv without --out)
INVOCATIONS = [
    ("scan", ["scan", "--ensemble", "16", "--seed", "9", "--svg"]),
    ("swap", ["swap", "--scenario", SWAP_SHORT, "--svg"]),
    ("sympathetic-1", ["sympathetic", "--ensemble", "400", "--seed", "42",
                       "--svg"]),
    ("thermometry", ["thermometry", "--nbar", "182", "--shots", "2000"]),
] + [(f"{command}-{fmt}", [command, "--format", fmt])
     for command in ("predict", "rate", "deff") for fmt in ("csv", "json")]

OUT = "<out>"
_MASKS = (re.compile(r'^(\s*"(?:started|finished)": )".*"', re.M),
          re.compile(r"^(wall time: ).*$", re.M),
          # the manifest's library versions differ between machines, and
          # scipy's is there only where a test loaded scipy
          re.compile(r'^(\s*"versions": )\{[^}]*\}', re.M))
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"(?![\w.])")


def _mask(text):
    for pattern in _MASKS:
        text = pattern.sub(r"\1<masked>", text)
    return text


def run_invocation(argv):
    """Exit status, masked stdout and masked written files of one run, with
    the problem of each written file that does not parse."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            status = cli.main(argv + ["--out", out])
        files, unparsed = {}, {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                text = fh.read()
            files[name] = _mask(text)
            problem = parse_problem(name, text)
            if problem is not None:
                unparsed[name] = problem
    return {"status": status, "stdout": sink.getvalue().replace(out, OUT),
            "files": files, "unparsed": unparsed}


def _split(text):
    """(text between numbers, numbers) of ``text``."""
    return _NUMBER.split(text), [float(x) for x in _NUMBER.findall(text)]


def text_mismatch(expected, actual):
    """None when ``actual`` matches ``expected``, else the first difference."""
    if expected == actual:
        return None
    (words_e, nums_e), (words_a, nums_a) = _split(expected), _split(actual)
    if words_e != words_a or len(nums_e) != len(nums_a):
        lines = zip(expected.splitlines(), actual.splitlines())
        for i, (le, la) in enumerate(lines):
            if _split(le)[0] != _split(la)[0]:
                return f"line {i + 1}: {le!r} != {la!r}"
        return "the number of lines differs"
    for i, (e, a) in enumerate(zip(nums_e, nums_a)):
        if not (e == a or math.isclose(e, a, rel_tol=1e-12, abs_tol=0.0)):
            return f"number {i}: {e!r} != {a!r}"
    return None


def _load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,argv", INVOCATIONS,
                         ids=[case[0] for case in INVOCATIONS])
def test_cli_output_matches_golden(name, argv):
    expected = _load_golden()[name]
    actual = run_invocation(argv)
    assert actual["unparsed"] == {}
    assert actual["status"] == expected["status"]
    assert text_mismatch(expected["stdout"], actual["stdout"]) is None, \
        text_mismatch(expected["stdout"], actual["stdout"])
    assert sorted(actual["files"]) == sorted(expected["files"])
    for fname, text in expected["files"].items():
        problem = text_mismatch(text, actual["files"][fname])
        assert problem is None, f"{fname}: {problem}"


def test_golden_file_holds_exactly_the_invocations():
    # a retired row would linger unread
    assert sorted(_load_golden()) == sorted(name for name, _ in INVOCATIONS)


def test_text_mismatch_rules():
    assert text_mismatch("a 1.0 b", "a 1.0000000000000002 b") is None
    assert text_mismatch("a 1.0 b", "a 1.000000001 b") is not None
    assert text_mismatch("a 1.0 b", "a 1.0 c") is not None
    assert text_mismatch("v1 x", "v2 x") is not None
    assert text_mismatch("1e-3", "0.001") is None


def test_parse_problem_rules():
    assert parse_problem("t.csv", '# c\na,b\n"x, y",1\n"say ""hi""",2\n') \
        is None
    assert parse_problem("t.csv", "# c\na,b\nx, y,1\n") is not None
    assert parse_problem("t.json", '{"v": "nan"}') is None
    for literal in ("NaN", "Infinity", "-Infinity"):
        assert parse_problem("t.json", '{"v": %s}' % literal) is not None
    assert parse_problem("t.svg", "<svg") is None


def merge(old, new):
    """The run ``new``, keeping each stdout and file text of the frozen run
    ``old`` that it matches."""
    def keep(before, after):
        unmoved = before is not None and text_mismatch(before, after) is None
        return before if unmoved else after

    return {"status": new["status"],
            "stdout": keep(old.get("stdout"), new["stdout"]),
            "files": {name: keep(old.get("files", {}).get(name), text)
                      for name, text in new["files"].items()}}


def test_merge_keeps_only_the_text_that_has_not_moved():
    old = {"status": 0, "stdout": "n_bar 183.56538624034138\n",
           "files": {"a.csv": "x\n0.1\n", "b.csv": "y\n2.0\n",
                     "gone.csv": "z\n"}}
    new = {"status": 1, "stdout": "n_bar 183.56538624034084\n",
           "files": {"a.csv": "x\n0.10000000000000002\n", "b.csv": "y\n2.5\n",
                     "new.csv": "w\n"}}
    assert merge(old, new) == {
        "status": 1, "stdout": "n_bar 183.56538624034138\n",
        "files": {"a.csv": "x\n0.1\n", "b.csv": "y\n2.5\n",
                  "new.csv": "w\n"}}
    assert merge({}, new) == new


def regenerate():
    old = _load_golden() if os.path.exists(GOLDEN) else {}
    golden = {name: merge(old.get(name, {}), run_invocation(argv))
              for name, argv in INVOCATIONS}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    regenerate()
