"""The README's python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    text = README.read_text("utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text,
                              flags=re.M | re.S))
    assert blocks
    for block in blocks:
        # pad to the block's first line, so tracebacks point into README.md
        code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
