import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(example, str(README), "exec"), {})
