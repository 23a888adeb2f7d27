"""Dense integer polynomials in one formal variable.

Coefficients are arbitrary-precision ints, stored ascending by power with
trailing zeros trimmed, so equal polynomials compare equal as tuples.
"""

from __future__ import annotations


def _pretty_sum(terms) -> str:
    """Render (monomial name, coefficient) pairs like ``3 - t + 2*t^2``; the
    empty name is the constant term.  Zero coefficients are skipped."""
    pieces: list[str] = []
    for name, c in terms:
        if not c:
            continue
        mag = abs(c)
        body = name if mag == 1 and name else f"{mag}*{name}" if name else str(mag)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) or "0"


class UniPolynomial:
    """Immutable: a polynomial hashes by its coefficients, and memos and
    shared constants hand out the same object, so ``coeffs`` cannot be
    rebound or deleted."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError(f"UniPolynomial is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"UniPolynomial is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by setting the slot
        return UniPolynomial, (self.coeffs,)

    @classmethod
    def monomial(cls, coeff: int, power: int) -> "UniPolynomial":
        if power < 0:
            raise ValueError("power must be non-negative")
        return cls((0,) * power + (coeff,))

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        if k < 0:
            raise ValueError("power must be non-negative")
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "UniPolynomial":
        return UniPolynomial(-c for c in self.coeffs)

    def __add__(self, other: "UniPolynomial") -> "UniPolynomial":
        if not isinstance(other, UniPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPolynomial(out)

    def __sub__(self, other: "UniPolynomial") -> "UniPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPolynomial(c * other for c in self.coeffs)
        if not isinstance(other, UniPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        nonzero = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in nonzero:
                    out[i + j] += a * b
        return UniPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def reduce_mod(self, p: int) -> "UniPolynomial":
        if p < 2:
            raise ValueError("modulus must be at least 2")
        return UniPolynomial(c % p for c in self.coeffs)

    def pretty(self) -> str:
        """Human-readable form in t, like ``1 - 165*t^3 + 924*t^6``."""
        return _pretty_sum(
            ("" if k == 0 else "t" if k == 1 else f"t^{k}", c)
            for k, c in enumerate(self.coeffs)
        )

    def __repr__(self) -> str:
        return f"UniPolynomial({list(self.coeffs)!r})"
