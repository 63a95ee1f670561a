"""README's examples run: every `qtradeoff` line of its shell blocks, and its Python block."""
import pathlib
import re
import shlex

from qtradeoff.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def test_cli_examples_exit_zero(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # examples may write files through --out
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("qtradeoff ")]
    assert len(lines) >= 4
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
        capsys.readouterr()


def test_python_example_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
