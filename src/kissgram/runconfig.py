"""Declarative run configuration: strict parsing, explicit defaults, echo.

The file is plain text with ``[section]`` headers and ``key = value`` pairs.
Unknown sections or keys are errors, never silently ignored, and the
effective configuration (defaults included) is echoed into the run log so
published runs stay reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, ParseError
from .filler import ActionSpec, CapOnly, DiscreteSet, MembershipList
from .game import CorrectorConfig, GameConfig, SeedSpec
from .gram import Tolerances
from .rational import format_rational, parse_numerators, parse_rational
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


def _get(sections, section, key) -> str:
    return sections.get(section, {}).get(key, _SCHEMA[section][key])


def _as_int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from exc


def _as_float(value: str, what: str) -> float:
    try:
        number = float(value)
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
    """A parsed config.  ``out_dir``, ``seed_source`` and ``cstar`` are kept as
    written, so the echo does not depend on where the run directory sits;
    relative paths resolve against ``base_dir``, the config file's directory,
    where they are used."""

    game: GameConfig
    out_dir: str
    seed_source: str
    cstar: str
    base_dir: Path

    @property
    def episodes(self) -> int:
        return self.game.episodes

    @property
    def out_path(self) -> Path:
        return self.base_dir / self.out_dir


def _build(sections, base_dir: Path) -> RunConfig:
    dim = _as_int(_get(sections, "run", "dim"), "dim")
    seed_source = _get(sections, "seed", "source")
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
    rows_text = _get(sections, "seed", "rows")
    if rows_text != "all":
        seed = SeedSpec(kind=seed.kind, name=seed.name, path=seed.path,
                        rows=_as_int(rows_text, "seed rows"))

    c1 = _parse_value_list(_get(sections, "action", "c1"), "action c1")
    c2_text = _get(sections, "action", "c2")
    if c2_text == "same":
        c2: DiscreteSet | CapOnly = c1
    elif c2_text.startswith("cap:"):
        c2 = CapOnly(max_value=_as_cosine(c2_text.split(":", 1)[1].strip(), "tail cap"))
    else:
        c2 = _parse_value_list(c2_text, "action c2")
    cstar_text = _get(sections, "action", "cstar")
    cstar = None
    if cstar_text != "none":
        if not cstar_text.startswith("file:"):
            raise ConfigError(f"cstar must be none or file:<path>, got {cstar_text!r}")
        from .fileio import read_vector_file

        doc = read_vector_file(base_dir / cstar_text.split(":", 1)[1])
        if doc.dim != dim:
            raise ConfigError(f"cstar file dimension {doc.dim} disagrees with dim {dim}")
        cstar = MembershipList(vectors=unit_rows(doc.vectors))
    try:
        action = ActionSpec(c1=c1, c2=c2, c_star=cstar)
    except ValueError as exc:
        raise ConfigError(f"action: {exc}") from exc

    fill_text = _get(sections, "run", "fill-budget")
    fill_budget = None if fill_text == "unbounded" else _as_int(fill_text, "fill-budget")
    corrector = CorrectorConfig(
        temperature=_as_float(_get(sections, "corrector", "temperature"), "temperature"),
        max_delete_fraction=_as_float(
            _get(sections, "corrector", "max-delete-fraction"), "max-delete-fraction"),
        learning_rate=_as_float(
            _get(sections, "corrector", "learning-rate"), "learning-rate"),
        protect_seed=_as_flag(_get(sections, "corrector", "protect-seed"), "protect-seed"),
    )
    tols = Tolerances(
        psd=_as_float(_get(sections, "tolerances", "psd"), "psd tolerance"),
        rank=_as_float(_get(sections, "tolerances", "rank"), "rank tolerance"),
        cosine=_as_float(_get(sections, "tolerances", "cosine"), "cosine tolerance"),
        snap=_as_float(_get(sections, "tolerances", "snap"), "snap tolerance"),
    )
    game = GameConfig(
        dim=dim,
        action=action,
        seed=seed,
        rounds=_as_int(_get(sections, "run", "rounds"), "rounds"),
        fill_budget=fill_budget,
        rollouts_per_move=_as_int(_get(sections, "run", "rollouts-per-move"),
                                  "rollouts-per-move"),
        rng_seed=_as_int(_get(sections, "run", "rng-seed"), "rng-seed"),
        mode=_get(sections, "run", "mode"),
        stagnation_window=_as_int(_get(sections, "run", "stagnation-window"),
                                  "stagnation-window"),
        exploration=_as_float(_get(sections, "run", "exploration"), "exploration"),
        corrector=corrector,
        tolerances=tols,
        reassemble=_as_flag(_get(sections, "run", "reassemble"), "reassemble"),
        debug_revalidate=_as_flag(_get(sections, "run", "debug-revalidate"),
                                  "debug-revalidate"),
        episodes=_as_int(_get(sections, "run", "episodes"), "episodes"),
        checkpoint_every=_as_int(_get(sections, "run", "checkpoint-every"),
                                 "checkpoint-every"),
    )
    return RunConfig(game=game, out_dir=_get(sections, "run", "out-dir"), seed_source=seed_source,
                     cstar=cstar_text, base_dir=base_dir)


def load_run_config(path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    sections = _parse_sections(text, path)
    return _build(sections, p.parent)


def _set_text(cosines: DiscreteSet) -> str:
    if cosines.exact is None:
        return ", ".join(map(repr, cosines.values))
    return ", ".join(format_rational(Fraction(n, cosines.exact_scale)) for n in cosines.exact)


def echo_text(config: RunConfig) -> str:
    """Canonical rendering of the effective configuration, defaults included."""
    game = config.game
    c1, c2 = game.action.c1, game.action.c2
    if isinstance(c2, CapOnly):
        c2_text = f"cap:{c2.max_value!r}"
    elif c2.values == c1.values:
        c2_text = "same"
    else:
        c2_text = _set_text(c2)
    lines = [
        "[run]",
        f"dim = {game.dim}",
        f"mode = {game.mode}",
        f"rng-seed = {game.rng_seed}",
        f"episodes = {game.episodes}",
        f"rounds = {game.rounds}",
        f"fill-budget = {'unbounded' if game.fill_budget is None else game.fill_budget}",
        f"rollouts-per-move = {game.rollouts_per_move}",
        f"stagnation-window = {game.stagnation_window}",
        f"exploration = {game.exploration!r}",
        f"checkpoint-every = {game.checkpoint_every}",
        f"reassemble = {'on' if game.reassemble else 'off'}",
        f"debug-revalidate = {'on' if game.debug_revalidate else 'off'}",
        f"out-dir = {config.out_dir}",
        "[seed]",
        f"source = {config.seed_source}",
        f"rows = {'all' if game.seed.rows is None else game.seed.rows}",
        "[action]",
        f"c1 = {_set_text(c1)}",
        f"c2 = {c2_text}",
        f"cstar = {config.cstar}",
        "[corrector]",
        f"temperature = {game.corrector.temperature!r}",
        f"max-delete-fraction = {game.corrector.max_delete_fraction!r}",
        f"learning-rate = {game.corrector.learning_rate!r}",
        f"protect-seed = {'on' if game.corrector.protect_seed else 'off'}",
        "[tolerances]",
        f"psd = {game.tolerances.psd!r}",
        f"rank = {game.tolerances.rank!r}",
        f"cosine = {game.tolerances.cosine!r}",
        f"snap = {game.tolerances.snap!r}",
    ]
    return "\n".join(lines) + "\n"
