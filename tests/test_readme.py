"""The library example in README.md runs and gives the values its comments
state, so the public API it shows stays live."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    P = scope["P"]
    assert P.dim(2, 0, 1) == 1
    assert P.d_ranks == {(2, 0, 1): 1}
    assert P.limit == {}
