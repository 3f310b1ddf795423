"""Text file formats: vector sets, Gram matrices, cosine reports, certificates.

All formats are line-oriented with LF endings and a single header line, so
mathematical claims stay human-diffable.  Float scalars are written with 17
significant digits and round-trip exactly; rational scalars are written as
p/q literals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .cosines import CosineSet, CosineSimResult, CosineValue, snap_value
from .errors import ParseError
from .gram import GramState
from .rational import format_rational, parse_rational
from .verify import Certificate

VECTOR_MAGIC = "kiss-vectors v1"
GRAM_MAGIC = "kiss-gram v1"
COSINE_MAGIC = "kiss-cosines v1"
CERT_MAGIC = "kiss-certificate v1"


def format_float(x: float) -> str:
    return f"{x:.16e}"


def _parse_header(line: str, magic: str, path) -> dict[str, str]:
    if not line.startswith(magic):
        raise ParseError(f"{path}: expected header {magic!r}, got {line[:40]!r}")
    fields = {}
    for token in line[len(magic):].split():
        if "=" not in token:
            raise ParseError(f"{path}: malformed header token {token!r}")
        key, value = token.split("=", 1)
        fields[key] = value
    return fields


def _data_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _require_finite(matrix: np.ndarray, path):
    """Raise ParseError naming the first row that holds a nan or inf entry."""
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}: row {bad[0] + 1} has a non-finite entry")


def _header_int(fields: dict[str, str], key: str, path) -> int:
    if key not in fields:
        raise ParseError(f"{path}: header is missing {key}=")
    try:
        return int(fields[key])
    except ValueError as exc:
        raise ParseError(f"{path}: bad {key}= value {fields[key]!r}") from exc


def _header_mode(fields: dict[str, str], path) -> str:
    mode = fields.get("mode", "float")
    if mode not in ("float", "rational"):
        raise ParseError(f"{path}: unknown mode {mode!r}")
    return mode


@dataclass(frozen=True)
class VectorDoc:
    dim: int
    mode: str
    vectors: np.ndarray
    exact_rows: list[list[Fraction]] | None

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


def write_vector_file(path, vectors: np.ndarray, mode: str = "float",
                      exact_rows: list[list[Fraction]] | None = None):
    v = np.asarray(vectors, dtype=float)
    m, n = v.shape
    lines = [f"{VECTOR_MAGIC} dim={n} count={m} mode={mode}"]
    if mode == "rational":
        if exact_rows is None or len(exact_rows) != m:
            raise ParseError("rational vector file needs exact coordinates for every row")
        for row in exact_rows:
            lines.append(" ".join(format_rational(Fraction(x)) for x in row))
    else:
        for row in v:
            lines.append(" ".join(format_float(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_vector_file(path) -> VectorDoc:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    lines = _data_lines(text)
    if not lines:
        raise ParseError(f"{path}: empty file")
    fields = _parse_header(lines[0], VECTOR_MAGIC, path)
    dim = _header_int(fields, "dim", path)
    count = _header_int(fields, "count", path)
    mode = _header_mode(fields, path)
    rows = lines[1:]
    if len(rows) != count:
        raise ParseError(f"{path}: header claims {count} rows, found {len(rows)}")
    exact_rows = [] if mode == "rational" else None
    vectors = np.zeros((count, dim))
    for i, row in enumerate(rows):
        parts = row.split()
        if len(parts) != dim:
            raise ParseError(f"{path}: row {i + 1} has {len(parts)} entries, expected {dim}")
        try:
            if mode == "rational":
                exact = [parse_rational(p) for p in parts]
                exact_rows.append(exact)
                vectors[i] = [float(x) for x in exact]
            else:
                vectors[i] = [float(p) for p in parts]
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: row {i + 1}: {exc}") from exc
    _require_finite(vectors, path)
    return VectorDoc(dim=dim, mode=mode, vectors=vectors, exact_rows=exact_rows)


def gram_text(state: GramState, mode: str) -> str:
    """Header line, then the upper triangle (diagonal included) row-major."""
    m = state.m
    lines = [f"{GRAM_MAGIC} dim={state.dim} count={m} mode={mode}"]
    for i in range(m):
        if mode == "rational":
            if state.exact is None:
                raise ParseError("state has no exact entries for a rational gram file")
            lines.append(" ".join(format_rational(state.exact[i][j]) for j in range(i, m)))
        else:
            lines.append(" ".join(format_float(float(state.entries[i, j]))
                                  for j in range(i, m)))
    return "\n".join(lines) + "\n"


def write_gram_file(path, state: GramState, mode: str | None = None):
    Path(path).write_text(gram_text(state, state.mode if mode is None else mode), encoding="utf-8")


def parse_gram_text(text: str, path) -> GramState:
    """Parse ``gram_text`` output; ``path`` names the source in errors."""
    lines = _data_lines(text)
    if not lines:
        raise ParseError(f"{path}: empty file")
    fields = _parse_header(lines[0], GRAM_MAGIC, path)
    dim = _header_int(fields, "dim", path)
    count = _header_int(fields, "count", path)
    mode = _header_mode(fields, path)
    rows = lines[1:]
    if len(rows) != count:
        raise ParseError(f"{path}: header claims {count} rows, found {len(rows)}")
    entries = np.zeros((count, count))
    exact = [[Fraction(0)] * count for _ in range(count)] if mode == "rational" else None
    for i, row in enumerate(rows):
        parts = row.split()
        if len(parts) != count - i:
            raise ParseError(f"{path}: row {i + 1} has {len(parts)} entries, expected {count - i}")
        for k, part in enumerate(parts):
            j = i + k
            try:
                if mode == "rational":
                    value = parse_rational(part)
                    exact[i][j] = exact[j][i] = value
                    entries[i, j] = entries[j, i] = float(value)
                else:
                    entries[i, j] = entries[j, i] = float(part)
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"{path}: row {i + 1}: {exc}") from exc
    _require_finite(entries, path)
    return GramState(dim=dim, entries=entries,
                     exact=tuple(tuple(r) for r in exact) if exact is not None else None)


def read_gram_file(path) -> GramState:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return parse_gram_text(text, path)


def _cosine_value_fields(entry: CosineValue) -> str:
    exact = entry.label if entry.label else "-"
    return f"{format_float(entry.value)} exact={exact}"


def write_cosine_report(path, result: CosineSimResult, dim: int, budget: int):
    lines = [
        f"{COSINE_MAGIC} dim={dim} budget={budget} samples={result.histogram.total_samples} "
        f"best={result.best_count} converged={int(result.converged)}"
    ]
    total = max(result.histogram.total_samples, 1)
    for entry in result.cosine_set.entries:
        freq = sum(count for key, count in result.histogram.bins.items()
                   if snap_value(key).display() == entry.display())
        lines.append(f"{_cosine_value_fields(entry)} freq={freq / total:.6f} stable=1")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class CosineReport:
    dim: int
    budget: int
    samples: int
    best: int
    converged: bool
    cosine_set: CosineSet


def read_cosine_report(path) -> CosineReport:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    lines = _data_lines(text)
    if not lines:
        raise ParseError(f"{path}: empty file")
    fields = _parse_header(lines[0], COSINE_MAGIC, path)
    entries = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"{path}: malformed cosine line {line!r}")
        value = float(parts[0])
        exact_label = parts[1].removeprefix("exact=")
        if exact_label == "-":
            entries.append(CosineValue(value=value))
        else:
            snapped = snap_value(value)
            if snapped.display() != exact_label:
                raise ParseError(f"{path}: exact form {exact_label!r} does not match value")
            entries.append(snapped)
    return CosineReport(
        dim=_header_int(fields, "dim", path),
        budget=_header_int(fields, "budget", path),
        samples=_header_int(fields, "samples", path),
        best=_header_int(fields, "best", path),
        converged=bool(_header_int(fields, "converged", path)),
        cosine_set=CosineSet(entries=tuple(entries)),
    )


def _rle(values) -> str:
    """Run-length encode an integer sequence: ``56x240`` means 240 copies."""
    out = []
    run_val, run_len = None, 0
    for v in values:
        if v == run_val:
            run_len += 1
        else:
            if run_val is not None:
                out.append(f"{run_val}x{run_len}" if run_len > 1 else str(run_val))
            run_val, run_len = v, 1
    if run_val is not None:
        out.append(f"{run_val}x{run_len}" if run_len > 1 else str(run_val))
    return " ".join(out)


def _un_rle(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for token in text.split():
        if "x" in token:
            value, count = token.split("x", 1)
            out.extend([int(value)] * int(count))
        else:
            out.append(int(token))
    return tuple(out)


def certificate_text(cert: Certificate) -> str:
    """Canonical key-ordered rendering so certificates diff cleanly."""
    lines = [
        CERT_MAGIC,
        f"mode: {cert.mode}",
        f"dim: {cert.dim}",
        f"sphere-count: {cert.sphere_count}",
        f"verdict: {cert.verdict}" + (f" reason={cert.fail_reason}" if cert.fail_reason else ""),
        f"max-cosine: {cert.max_cosine_text()}",
        f"psd: {'true' if cert.psd else 'false'}",
        f"rank: {cert.rank}",
        f"non-antipodal: {'true' if cert.non_antipodal else 'false'}",
    ]
    if cert.unit_norm_max_error is not None:
        lines.append(f"unit-norm-max-error: {format_float(cert.unit_norm_max_error)}")
    lines.append("spectrum:")
    for entry in cert.cosine_spectrum:
        lines.append(f"  {entry.cosine.display()}: {entry.multiplicity}")
    lines.append(f"contact-degrees: {_rle(cert.contact_degrees)}")
    return "\n".join(lines) + "\n"


def write_certificate(path, cert: Certificate):
    Path(path).write_text(certificate_text(cert), encoding="utf-8")


def read_certificate(path) -> dict:
    """Parse a certificate back into a plain dict (fields as written)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0] != CERT_MAGIC:
        raise ParseError(f"{path}: not a certificate file")
    out: dict = {"spectrum": {}}
    in_spectrum = False
    for line in lines[1:]:
        if not line.strip():
            continue
        if line == "spectrum:":
            in_spectrum = True
            continue
        if in_spectrum and line.startswith("  "):
            label, mult = line.strip().rsplit(":", 1)
            out["spectrum"][label.strip()] = int(mult)
            continue
        in_spectrum = False
        if ":" not in line:
            raise ParseError(f"{path}: malformed certificate line {line!r}")
        key, value = line.split(":", 1)
        out[key.strip()] = value.strip()
    if "contact-degrees" in out:
        out["contact-degrees"] = _un_rle(out["contact-degrees"])
    return out
