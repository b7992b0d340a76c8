"""README's fenced ``python`` blocks run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks, "README has no python block"
    for source in blocks:
        line = text[:text.index(source)].count("\n") + 1
        # compiled at the block's own line, so a failure points into README
        exec(compile("\n" * (line - 1) + source, str(README), "exec"), {})
