"""The README's ``python`` blocks run as written and print what their comments say.

A line ``print(expr)  # value`` is checked when ``value`` (up to an em dash
that starts prose) is a Python literal: numbers to 1e-12, containers entry by
entry, everything else exactly.  A comment that is prose, not a literal, is
not checked.
"""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def commented_literals(code):
    """For each print line, in order: the literal its comment states, or None."""
    literals = []
    for line in code.splitlines():
        if line.startswith("print("):
            comment = line.partition("#")[2].split("—")[0].strip()
            try:
                literals.append(ast.literal_eval(comment))
            except (ValueError, SyntaxError):
                literals.append(None)
    return literals


def close(got, expected) -> bool:
    if isinstance(expected, (int, float)) and not isinstance(expected, bool):
        return isinstance(got, (int, float)) and abs(got - expected) <= 1e-12
    if isinstance(expected, (tuple, list)):
        return type(got) is type(expected) and len(got) == len(expected) and all(map(close, got, expected))
    if isinstance(expected, dict):
        same_keys = isinstance(got, dict) and got.keys() == expected.keys()
        return same_keys and all(close(got[k], expected[k]) for k in got)
    return got == expected


def test_readme_states_values_to_check():
    assert len(BLOCKS) >= 2
    assert any(value is not None for block in BLOCKS for value in commented_literals(block))


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_prints_its_commented_values(index, monkeypatch):
    monkeypatch.chdir(README.parent)  # a block reads repository paths, such as examples/, as a reader runs it
    code = BLOCKS[index]
    printed = []
    exec(compile(code, f"README.md python block {index}", "exec"), {"print": lambda *args: printed.append(args)})
    expected = commented_literals(code)
    assert len(printed) == len(expected)
    for number, ((got,), value) in enumerate(zip(printed, expected)):
        if value is not None:
            assert close(got, value), f"print {number}: printed {got!r}, README says {value!r}"
