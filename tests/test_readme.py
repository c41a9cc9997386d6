"""The README against the package: it names every error class."""

import pathlib

from phasenu import errors

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_every_error_class_is_named():
    classes = [
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    ]
    assert "PhasenuError" in classes
    assert [name for name in classes if f"`{name}`" not in README] == []
