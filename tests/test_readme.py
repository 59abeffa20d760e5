"""README's library example runs as written, so its names stay current."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_entry_points_example_runs():
    section = README.read_text().split("\n## Library entry points\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    # the seeded gamma = 10 chain carries the front at unit speed
    assert abs(namespace["c"] - 1.0) <= 1e-3
    assert namespace["r2"] >= 0.9999
