"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert (tmp_path / "rigidbody.csv").exists()
