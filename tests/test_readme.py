"""The README against the package: it names every error class, and its
``phasenu`` example lines are the runs that ``scripts/output_digest.py``
keeps as its README runs, in order."""

import importlib.util
import pathlib
import shlex

from phasenu import errors

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_every_error_class_is_named():
    classes = [
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    ]
    assert "PhasenuError" in classes
    assert [name for name in classes if f"`{name}`" not in README] == []


def test_examples_are_the_digest_readme_runs():
    """The CI step runs the README's lines; the digest hashes its own copy."""
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts/output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    examples = [
        shlex.split(line, comments=True)[1:]
        for line in README.splitlines()
        if line.startswith("phasenu ")
    ]
    assert examples == digest.README
