"""The "Library use" example of README.md runs as written, against the
exported names: a series, the overlaps and the lifetime of one propagator."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} (Library use)", "exec"), {"__name__": "readme_library"})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[0] for line in printed] == ["A_pi", "pi", "lifetime:"]
