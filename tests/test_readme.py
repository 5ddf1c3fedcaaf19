"""README examples stay runnable.

Every `ini` block of README.md must parse as a scenario file, and the
`python` blocks must run in order in one namespace, so a change to the
package that the README does not follow fails the suite.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

from fracburst import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```(\w+)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def blocks(language):
    found = [body for lang, body in BLOCK.findall(README.read_text()) if lang == language]
    assert found, f"README has no {language} block"
    return found


def test_readme_ini_blocks_parse():
    for text in blocks("ini"):
        assert parse_config(text).systems


def test_readme_python_blocks_run():
    namespace: dict = {}
    with redirect_stdout(io.StringIO()):
        for source in blocks("python"):
            exec(compile(source, str(README), "exec"), namespace)
