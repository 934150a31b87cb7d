"""Whole-pipeline fuzzing: mutated programs through `gradua run`, in process.

Each case takes a seed program, one of tests/data/*.gradua, a
perfbench/progs.py program or GROWTH, and mutates it once: it drops, duplicates or
swaps lines, bumps an exponent after `^`, puts one of 0, 1, 2, 3, 1/2, 7
or BIG in place of a number, or swaps two names on one line. BIG, 2^4000 + 1
written out, is a literal just inside the parser's bit budget: the engine's
powers and products of it grow past the 4300 decimal digits Python writes,
and one more test puts BIG in place of each number of each seed program in
turn. The case then runs
through cli.main, in JSON and in text, under a time limit. Every case keeps
the command-line contract: exit 0, 1 or 2 and no traceback; on exit 0 or 1
the JSON report parses, every error entry holds exactly `type` and
`message`, and the exit code is 1 exactly when an entry is not ok.

The cases are seeded and drawn with the standard library only, so a failure
names its seed and case number and replays with `mutated_case`.
"""

import contextlib
import io
import json
import random
import re
import signal
import sys
import time
from pathlib import Path

import pytest

from gradua import cli

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
CASES_PER_SEED = 350
TIME_LIMIT_S = 2.0
PROGS_PROGRAMS = 6

NUMBER = re.compile(r"(?<![\w'])\d+")
EXPONENT = re.compile(r"\^(\d+)")
NAME = re.compile(r"[A-Za-z_][\w']*")
BIG = str(2**4000 + 1)
NUMBERS = ("0", "1", "2", "3", "1/2", "7", BIG)
# a family that breaks the semigroup law: the witness holds the fourth power
# of the coefficient 3
GROWTH = "chart V (a:1, b:1)\naction h on V { a -> t*a + t^2*3*a^3; b -> t*b; }\nanalyze-action h\n"


class CaseTimeout(BaseException):
    """Raised by the alarm in a case that runs over TIME_LIMIT_S; a
    BaseException, so no handler in the engine or the CLI takes it."""


@pytest.fixture(scope="module")
def programs():
    """The seed programs: tests/data, then perfbench/progs.py programs built
    as the benchmark builds them, then GROWTH."""
    data = sorted((ROOT / "tests" / "data").glob("*.gradua"))
    sources = [path.read_text(encoding="utf-8") for path in data]
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "perfbench"))
        import progs

        rng = random.Random("programs:1")
        sources += [progs.build(rng, i).source for i in range(PROGS_PROGRAMS)]
    return sources + [GROWTH]


def _replace_one(rng, pattern, line, new):
    """line with one match of pattern, drawn by rng, replaced by new(match)."""
    found = list(pattern.finditer(line))
    if not found:
        return None
    m = rng.choice(found)
    return line[: m.start()] + new(m) + line[m.end() :]


def _swap_names(rng, line):
    names = sorted(set(NAME.findall(line)))
    if len(names) < 2:
        return None
    a, b = rng.sample(names, 2)
    return NAME.sub(lambda m: {a: b, b: a}.get(m.group(), m.group()), line)


def mutate(rng, source):
    """source with one mutation drawn by rng; the same source if the drawn
    mutation finds nothing to change."""
    lines = source.splitlines()
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.choice(("drop", "duplicate", "swap", "exponent", "number", "names"))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        line = lines[i]
        if kind == "exponent":
            bump = rng.randint(1, 3)
            new = _replace_one(rng, EXPONENT, line, lambda m: f"^{int(m.group(1)) + bump}")
        elif kind == "number":
            new = _replace_one(rng, NUMBER, line, lambda m: rng.choice(NUMBERS))
        else:
            new = _swap_names(rng, line)
        lines[i] = line if new is None else new
    return "\n".join(lines) + "\n"


def mutated_case(programs, seed, index):
    """The source of case `index` under `seed`."""
    rng = random.Random(f"fuzz:{seed}:{index}")
    return mutate(rng, rng.choice(programs))


def _on_alarm(signum, frame):
    raise CaseTimeout


def run_cli(source, fmt):
    """(exit code, stdout, stderr) of `gradua run - --format fmt` on source,
    in process, raising CaseTimeout past TIME_LIMIT_S."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(source)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", "-", "--format", fmt])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def check_case(source):
    """(the JSON run's exit code, what the runs of source break in the CLI
    contract: [] if nothing)."""
    breaks = []
    codes = {}
    for fmt in ("json", "text"):
        try:
            code, out, err = run_cli(source, fmt)
        except CaseTimeout:
            return None, [f"{fmt}: over {TIME_LIMIT_S} s"]
        except Exception as exc:  # a traceback out of cli.main
            return None, [f"{fmt}: raised {type(exc).__name__}: {exc}"]
        codes[fmt] = code
        if code not in (0, 1, 2):
            breaks.append(f"{fmt}: exit {code}")
        if "Traceback" in out + err:
            breaks.append(f"{fmt}: traceback")
        if code == 2 and (out or not err.startswith("gradua: ")):
            breaks.append(f"{fmt}: exit 2 without a `gradua:` message alone")
        if code in (0, 1) and fmt == "json":
            try:
                results = json.loads(out)["results"]
            except (ValueError, KeyError):
                breaks.append("json: the report does not parse")
                continue
            if code != (0 if all(entry.get("ok", True) for entry in results) else 1):
                breaks.append(f"json: exit {code} against the entries' verdicts")
            breaks += [
                f"json: error entry {sorted(entry['error'])}"
                for entry in results
                if "error" in entry and sorted(entry["error"]) != ["message", "type"]
            ]
    if codes["json"] != codes["text"]:
        breaks.append(f"exit codes differ: {codes}")
    return codes["json"], breaks


@pytest.fixture(scope="module", autouse=True)
def alarm():
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_programs_keep_the_cli_contract(seed, programs):
    splits = {0: 0, 1: 0, 2: 0}
    broken = []
    started = time.perf_counter()
    for index in range(CASES_PER_SEED):
        code, breaks = check_case(mutated_case(programs, seed, index))
        if breaks:
            broken.append((index, breaks))
        else:
            splits[code] += 1
    elapsed = time.perf_counter() - started
    print(f"seed {seed}: {CASES_PER_SEED} cases in {elapsed:.2f} s, exits {splits}")
    assert not broken, broken[:5]
    # a third of the cases get past the parser into the engine
    assert 3 * (splits[0] + splits[1]) >= CASES_PER_SEED, splits


def test_a_big_literal_in_place_of_each_number_keeps_the_cli_contract(programs):
    """BIG in place of each number of each seed program, one at a time: a
    literal the parser admits ends in a report or a typed error, never in a
    traceback, however far the engine's powers of it grow. In GROWTH it
    makes the semigroup witness too long for str(), a typed entry (exit 1)."""
    splits = {0: 0, 1: 0, 2: 0}
    broken = []
    started = time.perf_counter()
    for source in programs:
        for m in NUMBER.finditer(source):
            code, breaks = check_case(source[: m.start()] + BIG + source[m.end() :])
            if breaks:
                broken.append((source[: m.end()].splitlines()[-1], breaks))
            else:
                splits[code] += 1
    print(f"{sum(splits.values())} cases in {time.perf_counter() - started:.2f} s, exits {splits}")
    assert not broken, broken[:5]
    growth = GROWTH.replace("*3*", f"*{BIG}*")
    assert check_case(growth) == (1, [])
