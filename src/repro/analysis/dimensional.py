"""Lightweight dimensional analysis for the hardware-spec validator.

The classic simulator bug is mixing MHz with Hz or joules with watts
(see :mod:`repro.utils.units`). This module gives the validator a tiny
quantity type that carries dimensions through arithmetic so derived spec
values (peak ops/s, bytes/s, energy) can be *checked* rather than trusted.

Base dimensions: second (``s``), clock ``cycle``, operation ``op``,
``byte``, watt (``W``). Everything else is derived: ``Hz = cycle/s``,
``J = W*s``, ``GB/s = 1e9 byte/s``. The set is deliberately minimal —
just enough to cover the quantities appearing in :class:`repro.hw.specs.DeviceSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["DimensionError", "Quantity", "UNITS", "quantity"]

#: Ordered base dimensions; a dimension signature is a tuple of exponents.
_BASE: Tuple[str, ...] = ("s", "cycle", "op", "byte", "W")

Signature = Tuple[int, ...]

_DIMENSIONLESS: Signature = (0,) * len(_BASE)


class DimensionError(ValueError):
    """Two quantities were combined with incompatible dimensions."""


def _sig(**exponents: int) -> Signature:
    return tuple(exponents.get(b, 0) for b in _BASE)


#: Unit name -> (scale to base units, dimension signature).
UNITS: Dict[str, Tuple[float, Signature]] = {
    "1": (1.0, _DIMENSIONLESS),
    "s": (1.0, _sig(s=1)),
    "ms": (1e-3, _sig(s=1)),
    "us": (1e-6, _sig(s=1)),
    "ns": (1e-9, _sig(s=1)),
    "cycle": (1.0, _sig(cycle=1)),
    "op": (1.0, _sig(op=1)),
    "byte": (1.0, _sig(byte=1)),
    "W": (1.0, _sig(W=1)),
    "Hz": (1.0, _sig(cycle=1, s=-1)),
    "MHz": (1e6, _sig(cycle=1, s=-1)),
    "GHz": (1e9, _sig(cycle=1, s=-1)),
    "op/s": (1.0, _sig(op=1, s=-1)),
    "op/cycle": (1.0, _sig(op=1, cycle=-1)),
    "cycle/op": (1.0, _sig(cycle=1, op=-1)),
    "byte/s": (1.0, _sig(byte=1, s=-1)),
    "GB/s": (1e9, _sig(byte=1, s=-1)),
    "byte/op": (1.0, _sig(byte=1, op=-1)),
    "J": (1.0, _sig(W=1, s=1)),
    "kJ": (1e3, _sig(W=1, s=1)),
}


def _format_sig(sig: Signature) -> str:
    if sig == _DIMENSIONLESS:
        return "1"
    num = [f"{b}^{e}" if e != 1 else b for b, e in zip(_BASE, sig) if e > 0]
    den = [f"{b}^{-e}" if e != -1 else b for b, e in zip(_BASE, sig) if e < 0]
    out = "*".join(num) or "1"
    if den:
        out += "/" + "*".join(den)
    return out


@dataclass(frozen=True)
class Quantity:
    """A scalar magnitude (in base units) with a dimension signature."""

    magnitude: float
    signature: Signature

    # ------------------------------------------------------------------
    def _require_same(self, other: "Quantity", op: str) -> None:
        if self.signature != other.signature:
            raise DimensionError(
                f"cannot {op} {_format_sig(self.signature)} "
                f"and {_format_sig(other.signature)}"
            )

    def __add__(self, other: "Quantity") -> "Quantity":
        self._require_same(other, "add")
        return Quantity(self.magnitude + other.magnitude, self.signature)

    def __sub__(self, other: "Quantity") -> "Quantity":
        self._require_same(other, "subtract")
        return Quantity(self.magnitude - other.magnitude, self.signature)

    def __mul__(self, other):
        if isinstance(other, Quantity):
            sig = tuple(a + b for a, b in zip(self.signature, other.signature))
            return Quantity(self.magnitude * other.magnitude, sig)
        return Quantity(self.magnitude * float(other), self.signature)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            sig = tuple(a - b for a, b in zip(self.signature, other.signature))
            return Quantity(self.magnitude / other.magnitude, sig)
        return Quantity(self.magnitude / float(other), self.signature)

    # ------------------------------------------------------------------
    def is_dimensionless(self) -> bool:
        """True when every base-dimension exponent is zero."""
        return self.signature == _DIMENSIONLESS

    def has_unit(self, unit: str) -> bool:
        """True when this quantity's dimensions match ``unit``'s."""
        return self.signature == _lookup(unit)[1]

    def to(self, unit: str) -> float:
        """Magnitude expressed in ``unit``; raises on dimension mismatch."""
        scale, sig = _lookup(unit)
        if self.signature != sig:
            raise DimensionError(
                f"cannot express {_format_sig(self.signature)} in {unit!r} "
                f"({_format_sig(sig)})"
            )
        return self.magnitude / scale

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Quantity({self.magnitude!r}, {_format_sig(self.signature)})"


def _lookup(unit: str) -> Tuple[float, Signature]:
    try:
        return UNITS[unit]
    except KeyError:
        raise DimensionError(f"unknown unit {unit!r}") from None


def quantity(value: float, unit: str = "1") -> Quantity:
    """Build a :class:`Quantity` from a value in ``unit`` (see :data:`UNITS`)."""
    scale, sig = _lookup(unit)
    return Quantity(float(value) * scale, sig)
