"""README's fenced ``python`` blocks run as written, and its run-config
example states the defaults."""

import json
import re
from dataclasses import replace
from pathlib import Path

from moltop.harness import run_config_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks, "README has no python block"
    for source in blocks:
        line = text[:text.index(source)].count("\n") + 1
        # compiled at the block's own line, so a failure points into README
        exec(compile("\n" * (line - 1) + source, str(README), "exec"), {})


def test_run_config_example_shows_the_defaults(tmp_path):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^```jsonc\n(.*?)^```$", text, re.MULTILINE | re.DOTALL).group(1)
    doc = json.loads(re.sub(r"//.*$", "", block, flags=re.MULTILINE))
    (tmp_path / doc["dataset"]["path"]).write_text("", encoding="utf-8")
    minimal = run_config_from_dict({"dataset": doc["dataset"]["path"], "task": doc["task"]},
                                   str(tmp_path))
    assert run_config_from_dict(doc, str(tmp_path)) == replace(
        minimal, dataset_format=doc["dataset"]["format"])
