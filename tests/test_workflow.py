"""The CI workflow's inline Python, checked where tier-1 runs.

.github/workflows/tier1.yml runs some steps as `python3 - <<'PY'` heredocs.
Nothing else runs them locally, so a renamed library function would break
such a step unseen; these tests compile each block and resolve every name
it imports from fia or from the tests' helpers.
"""

import ast
import importlib
import textwrap
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parent.parent / ".github/workflows/tier1.yml"


def _inline_blocks(text):
    """The body of each `<<'PY'` heredoc, dedented, with its step's name and
    its first line number."""
    blocks, body, step, start = [], None, None, 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if body is None:
            if line.lstrip().startswith("- "):
                key, _, value = line.lstrip()[2:].partition(":")
                step = value.strip() if key == "name" else None
            elif line.rstrip().endswith("<<'PY'"):
                body, start = [], lineno + 1
        elif line.strip() == "PY":
            blocks.append((step, start, textwrap.dedent("\n".join(body))))
            body = None
        else:
            body.append(line)
    assert body is None, f"heredoc from line {start} is never closed"
    return blocks


BLOCKS = _inline_blocks(WORKFLOW.read_text(encoding="utf-8"))


def test_workflow_has_inline_blocks():
    # The console-script check and the local-dimension census, each in a
    # named step of its own.
    steps = [step for step, _, _ in BLOCKS]
    assert len(steps) >= 2
    assert None not in steps and len(set(steps)) == len(steps)


def _ours(module):
    return module == "helpers" or module.split(".")[0] == "fia"


# Named by step, so a step inserted above a block leaves its test id alone.
@pytest.mark.parametrize(
    "start, source", [pytest.param(start, source, id=step) for step, start, source in BLOCKS]
)
def test_inline_block_compiles_and_its_imports_resolve(start, source):
    tree = ast.parse(source, filename=f"tier1.yml:{start}")
    compile(tree, f"tier1.yml:{start}", "exec")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _ours(alias.name):
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and _ours(node.module or ""):
            home = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(home, alias.name), f"{node.module} has no {alias.name}"
