"""Pair connection functions: probability of an edge as a function of distance.

Three families are provided.  The hard-disk model connects exactly when the
distance is strictly less than the range ``r0`` (distance equal to ``r0``
does not connect).  The exponential soft model uses
``exp(-(r/r0)**beta)``.  Tabulated models interpolate linearly between
``(r, p)`` knots and clamp to the end values outside the knot range.

Models are immutable and evaluation is pure, so instances can be shared
freely between threads.  ``probability(r, out=...)`` writes the values
into ``out`` (which may be ``r`` itself) and returns it; they are
byte-identical to those of ``probability(r)``.  ``parse_model`` builds a
model from the textual form used by the command line: ``hard:r0=0.3``,
``exp:r0=0.3,beta=2``, ``table:@knots.csv`` (CSV with a required
``r,p`` header) or the inline ``table:0:0.9;0.5:0.2;1:0`` (``r:p`` knots
separated by ``;``).  ``spec_string()`` writes every number so that it
reads back exactly: ``parse_model(m.spec_string()) == m`` for every model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _spec_number(x: float) -> str:
    """``x`` at ``:g`` when that text reads back as ``x``, else its repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


@dataclass(frozen=True)
class ConnectionModel:
    """Base class; subclasses implement ``probability(r, out=None)``.

    ``r`` is an array of distances.  The values go into ``out`` when it is
    given (a float array of ``r``'s shape, possibly ``r`` itself), else
    into a new array, which is returned.  The Monte Carlo sampler always
    passes ``out``.
    """

    def probability(self, r, out=None):
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Distances where the function is not smooth (quadrature hints)."""
        return ()

    def spec_string(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class HardDisk(ConnectionModel):
    r0: float

    def __post_init__(self):
        r0 = float(self.r0)
        if not math.isfinite(r0) or r0 < 0:
            raise DomainError(f"r0 must be a finite nonnegative length, got {self.r0!r}")
        object.__setattr__(self, "r0", r0)

    def probability(self, r, out=None):
        r = np.asarray(r, dtype=float)
        if out is None:
            out = np.empty(r.shape)
        return np.less(r, self.r0, out=out)

    def breakpoints(self):
        return (self.r0,)

    def spec_string(self):
        return f"hard:r0={_spec_number(self.r0)}"


@dataclass(frozen=True)
class ExponentialSoft(ConnectionModel):
    r0: float
    beta: float

    def __post_init__(self):
        r0 = float(self.r0)
        beta = float(self.beta)
        if not math.isfinite(r0) or r0 <= 0:
            raise DomainError(f"r0 must be a positive length, got {self.r0!r}")
        if not math.isfinite(beta) or beta <= 0:
            raise DomainError(f"beta must be positive, got {self.beta!r}")
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "beta", beta)

    def probability(self, r, out=None):
        r = np.asarray(r, dtype=float)
        if out is None:
            out = np.empty(r.shape)
        # ``**=`` takes the same fast paths as ``**`` (square for beta = 2).
        t = np.divide(r, self.r0, out=out)
        t **= self.beta
        return np.exp(np.negative(t, out=t), out=t)

    def spec_string(self):
        return f"exp:r0={_spec_number(self.r0)},beta={_spec_number(self.beta)}"


@dataclass(frozen=True)
class Tabulated(ConnectionModel):
    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        knots = tuple((float(r), float(p)) for r, p in self.knots)
        if len(knots) < 2:
            raise DomainError("tabulated model needs at least two knots")
        rs = [r for r, _ in knots]
        if any(b <= a for a, b in zip(rs[:-1], rs[1:])):
            raise DomainError("tabulated knots must be strictly increasing in r")
        for r, p in knots:
            if not math.isfinite(r) or r < 0:
                raise DomainError(f"knot distance {r!r} is not a nonnegative length")
            if not math.isfinite(p) or not (0.0 <= p <= 1.0):
                raise DomainError(f"knot probability {p!r} outside [0, 1]")
        object.__setattr__(self, "knots", knots)
        # The knot arrays, built once; read-only and not fields, so equality
        # and hashing still use ``knots`` alone.
        for name, column in (("_rs", rs), ("_ps", [p for _, p in knots])):
            array = np.asarray(column, dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def probability(self, r, out=None):
        r = np.asarray(r, dtype=float)
        p = np.interp(r, self._rs, self._ps)  # np.interp clamps to the end values
        if out is None:
            return p
        np.copyto(out, p)
        return out

    def breakpoints(self):
        return tuple(r for r, _ in self.knots)

    def spec_string(self):
        pairs = ";".join(f"{_spec_number(r)}:{_spec_number(p)}" for r, p in self.knots)
        return f"table:{pairs}"


def parse_model(text: str) -> ConnectionModel:
    """Build a model from its textual spec (see module docstring)."""
    if ":" not in text:
        raise DomainError(f"malformed model spec {text!r}: expected kind:params")
    kind, _, params = text.partition(":")
    kind = kind.strip().lower()
    if kind == "hard":
        fields = _parse_fields(params, required=("r0",))
        return HardDisk(r0=fields["r0"])
    if kind == "exp":
        fields = _parse_fields(params, required=("r0", "beta"))
        return ExponentialSoft(r0=fields["r0"], beta=fields["beta"])
    if kind == "table":
        if params.startswith("@"):
            return _load_table(params[1:])
        pairs = [knot.split(":") for knot in params.split(";")]
        try:
            knots = tuple((float(r), float(p)) for r, p in pairs)
        except ValueError as exc:
            raise DomainError(f"table spec {text!r} is not table:@path or table:r:p;...") from exc
        return Tabulated(knots=knots)
    raise DomainError(f"unknown connection model kind {kind!r}")


def _parse_fields(params: str, required):
    fields = {}
    for item in params.split(","):
        if "=" not in item:
            raise DomainError(f"malformed model parameter {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in fields:
            raise DomainError(f"model parameter {key!r} given twice")
        try:
            fields[key] = float(value)
        except ValueError as exc:
            raise DomainError(f"non-numeric model parameter {item!r}") from exc
    missing = [k for k in required if k not in fields]
    if missing:
        raise DomainError(f"model spec missing parameters: {', '.join(missing)}")
    extra = [k for k in fields if k not in required]
    if extra:
        raise DomainError(f"model spec has unknown parameters: {', '.join(extra)}")
    return fields


def _load_table(path: str) -> Tabulated:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:2]] != ["r", "p"]:
                raise DomainError(f"{path}: table CSV must start with an 'r,p' header")
            knots = []
            for row in reader:
                if not row or all(not cell.strip() for cell in row):
                    continue
                try:
                    knots.append((float(row[0]), float(row[1])))
                except (IndexError, ValueError) as exc:
                    raise DomainError(f"{path}: malformed knot row {row!r}") from exc
    except OSError as exc:
        raise DomainError(f"cannot read table file {path}: {exc}") from exc
    return Tabulated(knots=tuple(knots))
