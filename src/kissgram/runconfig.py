"""Declarative run configuration: strict parsing, explicit defaults, echo.

The file is plain text with ``[section]`` headers and ``key = value`` pairs.
Unknown sections or keys are errors, never silently ignored.  ``_SCHEMA`` is
the one list of keys and defaults.  As each key is parsed, the canonical text
of its parsed value is recorded; that record, in schema order, is the echo
that goes into the run log and the checkpoint, so published runs stay
reproducible and a resume can check it runs the same configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, ParseError
from .fileio import read_vector_file
from .filler import ActionSpec, CapOnly, DiscreteSet, MembershipList
from .game import CorrectorConfig, GameConfig, SeedSpec
from .gram import Tolerances
from .rational import float_literal, format_rational, integer_literal
from .rational import parse_numerators, parse_rational
from .refconfigs import GeneratorId, unit_rows

_SCHEMA: dict[str, dict[str, str]] = {
    "run": {
        "dim": "1", "mode": "float", "rng-seed": "0", "episodes": "100",
        "rounds": "5", "fill-budget": "unbounded", "rollouts-per-move": "4096",
        "stagnation-window": "10", "exploration": repr(math.sqrt(2.0)),
        "checkpoint-every": "10", "reassemble": "off", "debug-revalidate": "off",
        "out-dir": "runs/out",
    },
    "seed": {"source": "scratch", "rows": "all"},
    "action": {"c1": "-1, -1/2, 0, 1/2", "c2": "same", "cstar": "none"},
    "corrector": {
        "temperature": "1.0", "max-delete-fraction": "0.2",
        "learning-rate": "0.05", "protect-seed": "on",
    },
    "tolerances": {"psd": "1e-9", "rank": "1e-7", "cosine": "1e-9", "snap": "1e-7"},
}


def _parse_sections(text: str, path) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown section [{current}]")
            if current in sections:
                raise ConfigError(f"{path}:{lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any section")
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[current]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        sections[current][key] = value
    return sections


def _as_int(value: str, what: str) -> int:
    try:
        return integer_literal(value)
    except ValueError as exc:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from exc


def _as_float(value: str, what: str) -> float:
    try:
        number = float_literal(value)
    except ValueError as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return number


def _as_flag(value: str, what: str) -> bool:
    if value in ("on", "true", "1"):
        return True
    if value in ("off", "false", "0"):
        return False
    raise ConfigError(f"{what} must be on/off, got {value!r}")


def _as_cosine(value: str, what: str) -> float:
    """A rational literal or a float, as a float."""
    try:
        return float(parse_rational(value))
    except ParseError:
        return _as_float(value, what)


def _parse_value_list(text: str, what: str) -> DiscreteSet:
    """A cosine set: rational when every literal is, else float."""
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if not tokens:
        raise ConfigError(f"{what} must list at least one cosine value")
    try:
        try:
            return DiscreteSet.from_exact(*parse_numerators(tokens))
        except ParseError:  # one float literal makes the whole set float
            return DiscreteSet(tuple(_as_cosine(token, what) for token in tokens))
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """A parsed config: the game, ``out_path`` (``out-dir`` resolved against
    the config file's directory) and ``echo``, the canonical text of each
    value as ``_build`` parsed it, defaults included, in ``_SCHEMA`` order.
    Paths are echoed as written, so a copied run directory still resumes."""

    game: GameConfig
    out_path: Path
    echo: str


def _flag_text(on: bool) -> str:
    return "on" if on else "off"


def _int_or(word: str):
    """Parse and render a key that is ``word`` (None) or an integer."""
    return (lambda text, what: None if text == word else _as_int(text, what),
            lambda n: word if n is None else str(n))


def _set_text(cosines: DiscreteSet) -> str:
    if cosines.exact is None:
        return ", ".join(map(repr, cosines.values))
    return ", ".join(format_rational(Fraction(n, cosines.exact_scale)) for n in cosines.exact)


def _build(sections, base_dir: Path) -> RunConfig:
    echo: dict[tuple[str, str], str] = {}

    def read(section, key, parse=None, show=str, what=None):
        """Parse one key, or its default, and record its canonical text."""
        text = sections.get(section, {}).get(key, _SCHEMA[section][key])
        value = text if parse is None else parse(text, what or key)
        echo[section, key] = show(value)
        return value

    dim = read("run", "dim", _as_int)
    seed_source = read("seed", "source")
    if seed_source == "scratch":
        seed = SeedSpec(kind="scratch")
    elif seed_source.startswith("generator:"):
        name = seed_source.split(":", 1)[1]
        try:
            GeneratorId.parse(name)
        except ParseError as exc:
            raise ConfigError(f"seed source: {exc}") from exc
        seed = SeedSpec(kind="generator", name=name)
    elif seed_source.startswith("file:"):
        seed = SeedSpec(kind="file", path=str(base_dir / seed_source.split(":", 1)[1]))
    else:
        raise ConfigError(f"seed source must be scratch, generator:<name> or file:<path>, "
                          f"got {seed_source!r}")
    rows = read("seed", "rows", *_int_or("all"), what="seed rows")
    if rows is not None:
        seed = SeedSpec(kind=seed.kind, name=seed.name, path=seed.path, rows=rows)

    c1 = read("action", "c1", _parse_value_list, _set_text, "action c1")

    def parse_c2(text, what) -> DiscreteSet | CapOnly:
        if text == "same":
            return c1
        if text.startswith("cap:"):
            return CapOnly(max_value=_as_cosine(text.split(":", 1)[1].strip(), "tail cap"))
        return _parse_value_list(text, what)

    def show_c2(c2) -> str:
        if isinstance(c2, CapOnly):
            return f"cap:{c2.max_value!r}"
        return "same" if c2.values == c1.values else _set_text(c2)

    c2 = read("action", "c2", parse_c2, show_c2, "action c2")
    cstar_text = read("action", "cstar")
    cstar = None
    if cstar_text != "none":
        if not cstar_text.startswith("file:"):
            raise ConfigError(f"cstar must be none or file:<path>, got {cstar_text!r}")
        doc = read_vector_file(base_dir / cstar_text.split(":", 1)[1])
        if doc.dim != dim:
            raise ConfigError(f"cstar file dimension {doc.dim} disagrees with dim {dim}")
        cstar = MembershipList(vectors=unit_rows(doc.vectors))
    try:
        action = ActionSpec(c1=c1, c2=c2, c_star=cstar)
    except ValueError as exc:
        raise ConfigError(f"action: {exc}") from exc

    fill_budget = read("run", "fill-budget", *_int_or("unbounded"))
    corrector = CorrectorConfig(
        temperature=read("corrector", "temperature", _as_float, repr),
        max_delete_fraction=read("corrector", "max-delete-fraction", _as_float, repr),
        learning_rate=read("corrector", "learning-rate", _as_float, repr),
        protect_seed=read("corrector", "protect-seed", _as_flag, _flag_text),
    )
    tols = Tolerances(**{key: read("tolerances", key, _as_float, repr, f"{key} tolerance")
                         for key in ("psd", "rank", "cosine", "snap")})
    game = GameConfig(
        dim=dim,
        action=action,
        seed=seed,
        rounds=read("run", "rounds", _as_int),
        fill_budget=fill_budget,
        rollouts_per_move=read("run", "rollouts-per-move", _as_int),
        rng_seed=read("run", "rng-seed", _as_int),
        mode=read("run", "mode"),
        stagnation_window=read("run", "stagnation-window", _as_int),
        exploration=read("run", "exploration", _as_float, repr),
        corrector=corrector,
        tolerances=tols,
        reassemble=read("run", "reassemble", _as_flag, _flag_text),
        debug_revalidate=read("run", "debug-revalidate", _as_flag, _flag_text),
        episodes=read("run", "episodes", _as_int),
        checkpoint_every=read("run", "checkpoint-every", _as_int),
    )
    out_path = base_dir / read("run", "out-dir")
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {echo[section, key]}" for key in keys)
    return RunConfig(game=game, out_path=out_path, echo="\n".join(lines) + "\n")


def load_run_config(path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    sections = _parse_sections(text, path)
    return _build(sections, p.parent)

