"""Bundled sweep recipes, one per headline result figure."""

from __future__ import annotations

from importlib import resources

from ..scenario import parse_pairs
from ..sweep import SweepSpec, parse_sweep_pairs

_PACKAGE = __name__


def list_recipes() -> list[tuple[str, str]]:
    """(name, first-comment-line) for every bundled recipe, sorted."""
    entries = []
    for item in resources.files(_PACKAGE).iterdir():
        if item.name.endswith(".sweep"):
            first = item.read_text(encoding="utf-8").splitlines()[0]
            entries.append((item.name[: -len(".sweep")], first.lstrip("# ").strip()))
    return sorted(entries)


def load_recipe(name: str, overrides: dict[str, str] | None = None) -> SweepSpec:
    """Parse a bundled recipe, optionally with scenario/sweep overrides."""
    candidate = resources.files(_PACKAGE) / f"{name}.sweep"
    if not candidate.is_file():
        known = ", ".join(n for n, _ in list_recipes())
        raise ValueError(f"unknown recipe {name!r} (available: {known})")
    pairs = parse_pairs(candidate.read_text(encoding="utf-8"), f"{name}.sweep")
    if overrides:
        pairs.update(overrides)
    return parse_sweep_pairs(pairs)

