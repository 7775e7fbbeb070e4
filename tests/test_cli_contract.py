"""The CLI contract as one property over the argv grammar and config JSON.

Every input ends in exit code 0, 2 or 3, never in a traceback.  On exit 2
stderr ends in one `splab: error:` line (argparse names the subcommand,
`splab regions: error:`, and puts a usage block before it).  `--stats`
leaves stdout as it is, and `--out FILE` writes the bytes stdout gets.

The grammar draws the six commands, every parameter flag in both the
`--flag value` and `--flag=value` forms, axis texts that parse, that do not
(`0.5:1:2.5`, `٧`, `1e-400`, ...) or that lie out of range, and configs
that are valid, wrong-typed, malformed, not UTF-8, too deeply nested, a
directory or missing.  Swept axes have at most three steps, or so many
(10^20 and more) that only the grid-size bound keeps the command from
building them, so each call takes milliseconds.  `verify` is drawn with a
refused `--draws` only, since a full run takes a tenth of a second; one
explicit example runs it through.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import event, example, given, settings, strategies as st

from splab import cli

COMMANDS = ("solve", "sweep", "regions", "compare", "thresholds")
FLAGS = ("--h", "--lambda", "--vb", "--gamma", "--mu0")
#: Axis texts that parse: scalars in every field's range but h's, and
#: small ranges; then h's own.
GOOD = (
    "0", "-0", "0.1", "0.22", "0.3", "0.5", "0.7", "1",
    "0:1:2", "0:1:3", "0:0.3:2", "0.3:0.7:3", "-0:1:2",
)
GOOD_H = ("0.5", "0.7", "1", "0.5:1:2", "0.5:1:3")
#: Axis texts that are refused, or that parse to values some field refuses.
BAD = (
    "", " ", "abc", "1e-400", "0x1p-1", "٧", "nan", "inf", "-inf", "1e309",
    "2", "-1", "1.5", "0.49999999999999994", "5e-324",
    "0.5:1:2.5", "1:0.5:3", "0.5:1:1", "0.5:1:0", "0:1", "0:1:2:3", "a:b:c",
    "0:1e309:2", "-1e308:1e308:2", "0:1:" + "9" * 5000,
    # Grids far beyond the size bound: a command that built one would fail.
    "0:1:100000000000000000000", f"0.5:1:{2**64}",
)
# The parsing texts twice, so that most calls with several flags still run.
axis_texts = st.one_of(st.sampled_from(GOOD), st.sampled_from(GOOD), st.sampled_from(BAD))
h_texts = st.one_of(st.sampled_from(GOOD_H), st.sampled_from(GOOD_H), axis_texts)
config_values = st.one_of(
    axis_texts,
    st.sampled_from(["csv", "json", "xml", ""]),
    st.floats(),
    st.integers(-3, 3),
    st.just(10**400),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
)
#: Config keys: the known ones and one unknown.  "out" names no file, so
#: nothing is written beside the test: it is absent, empty or wrong-typed.
config_objects = st.dictionaries(
    st.sampled_from(["h", "lambda", "v_B", "gamma", "mu0", "format", "bogus"]),
    config_values,
    max_size=4,
) | st.fixed_dictionaries({"h": axis_texts, "out": st.sampled_from(["", 3, None])})
config_texts = st.one_of(
    config_objects.map(json.dumps),
    st.sampled_from(["", "{", "[]", "null", '{"h": }', "[" * 100000]),
    st.just(b'{"h": 0.7\xff}'),
)


@st.composite
def calls(draw):
    """(argv, config): config is the --config file's content, or "missing"
    or "directory" for a --config path that is not a readable file."""
    command = draw(st.sampled_from(COMMANDS + ("verify", "bogus", None)))
    if command is None:
        return [], None
    if command == "verify":
        argv = ["verify", "--draws", draw(st.sampled_from(["0", "-1", "100000001", "x", ""]))]
        if draw(st.booleans()):
            argv += ["--seed", draw(st.sampled_from(["-1", str(2**128 - 5), "x", "0", "7"]))]
        return argv, None
    argv = [command]
    flags = [("--h", draw(h_texts))] if draw(st.integers(0, 4)) else []
    flags += draw(st.lists(st.tuples(st.sampled_from(FLAGS), axis_texts), max_size=2))
    for flag, text in flags:
        argv += [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["csv", "json", "xml"]))]
    if draw(st.integers(0, 9)) == 0:
        argv += draw(st.sampled_from([["--bogus"], ["--h"], ["extra"]]))
    config = None
    if draw(st.integers(0, 3)) == 0:
        config = draw(st.one_of(config_texts, st.sampled_from(["missing", "directory"])))
    return argv, config


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _config_argv(config, tmp: Path) -> list[str]:
    if config is None:
        return []
    if config == "missing":
        return ["--config", str(tmp / "missing.json")]
    if config == "directory":
        return ["--config", str(tmp)]
    path = tmp / "config.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(config, encoding="utf-8")
    return ["--config", str(path)]


@settings(max_examples=400, deadline=None)
@given(call=calls())
@example(call=(["verify", "--seed", "1", "--draws", "3"], None))
@example(call=(["regions", "--h", "0.5:1:3", "--lambda=-0:1:2", "--format", "json"], None))
@example(call=(["sweep", "--h", "0.5:1:3", "--lambda", "0:1:100000000000000000000"], None))
@example(call=(["solve", "--h", "0.5:1:2.5"], None))
def test_cli_contract(call):
    argv, config = call
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = argv[:1] + _config_argv(config, tmp) + argv[1:]
        code, out, err = _run(argv)
        assert code in (0, 2, 3), (code, err)
        event(f"exit {code}")
        assert "Traceback" not in err
        if code == 2:
            *head, last = err.splitlines()
            assert re.match(r"splab( [a-z]+)?: error: ", last), err
            assert not head or head[0].startswith("usage: splab"), err
        if argv[:1] in ([], ["verify"]) or argv[0] not in COMMANDS:
            return
        assert _run([*argv, "--stats"])[:2] == (code, out)
        if code == 0:
            path = tmp / "out"
            assert _run([*argv, "--out", str(path)])[:2] == (0, "")
            assert path.read_bytes() == out.encode("utf-8")
