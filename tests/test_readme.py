"""README's examples run (every `qtradeoff` line of its shell blocks, and its Python block),
and its module list is the package's public surface."""
import ast
import dataclasses
import importlib
import inspect
import pathlib
import re
import shlex
import types

import qtradeoff
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


# The public surface is what README documents. Each module may also define
# names that other modules of the package use; they are listed here, so that
# a new name is either documented or declared internal.
INTERNAL = {
    "qubit": {"ATOL_ALGEBRAIC", "OPERATOR_ATOL", "is_hermitian"},
    "instruments": {"cell_tables"},
    "choi": set(),
    "tradeoff": {"NormalizedPoint", "check_alpha", "check_t", "kraus_entries"},
    "oracle": {"FEASIBILITY_ATOL", "SUPEROPTIMALITY_TOL", "VerificationPoint"},
    "simulate": {"MAX_SHOTS"},
}
# Public attributes of exported classes besides their dataclass or named-tuple fields.
CLASS_ATTRIBUTES = {"Ensemble": {"equal_pair"}, "Instrument": {"n_outcomes"},
                    "VerificationReport": {"as_dict"}}


def _documented_modules() -> dict[str, set[str]]:
    """Module -> backticked names of its bullet in README's module list."""
    section = README.split("Modules and their public names")[1].split("\n\n")[1]
    bullets = re.findall(r"^- `(\w+)`(.*?)(?=^- |\Z)", section, flags=re.S | re.M)
    return {module: set(re.findall(r"`(\w+)`", text)) for module, text in bullets}


def _defined_here(module) -> set[str]:
    """Public names a module defines itself, not the ones it imports (constants included)."""
    imported = {alias.asname or alias.name for node in ast.parse(inspect.getsource(module)).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return {name for name, value in vars(module).items()
            if not name.startswith("_") and name not in imported
            and not isinstance(value, types.ModuleType)}


def test_public_names_are_documented():
    documented = _documented_modules()
    assert "cli" in documented
    listed = set().union(*documented.values())
    assert listed == set(qtradeoff.__all__) - {"__version__"}
    assert "`__version__`" in README
    for module_name, names in documented.items():
        module = importlib.import_module(f"qtradeoff.{module_name}")
        for name in names:
            assert getattr(module, name) is getattr(qtradeoff, name), (module_name, name)


def test_no_undocumented_public_names():
    # dir(), not vars(): the package resolves its exports on first use, so its
    # namespace holds only the names that earlier code happened to touch.
    exported = {name for name in dir(qtradeoff) if not name.startswith("_")
                and not isinstance(getattr(qtradeoff, name), types.ModuleType)}
    assert exported == set(qtradeoff.__all__) - {"__version__"}
    for module_name in INTERNAL:
        module = importlib.import_module(f"qtradeoff.{module_name}")
        extra = _defined_here(module) - set(qtradeoff.__all__) - INTERNAL[module_name]
        assert not extra, (module_name, extra)
    for name in qtradeoff.__all__:
        cls = getattr(qtradeoff, name)
        if inspect.isclass(cls):
            fields = set(cls._fields) if issubclass(cls, tuple) else {
                f.name for f in dataclasses.fields(cls)}
            extra = {a for a in vars(cls) if not a.startswith("_")} - fields
            assert extra == CLASS_ATTRIBUTES.get(name, set()), name
