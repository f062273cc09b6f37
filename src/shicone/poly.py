"""Single-variable polynomials with integer coefficients.

Used for Poincare polynomials of cones, Hilbert series of graded rings
and Narayana-style refinements of Catalan numbers.  Coefficients are
stored lowest degree first with trailing zeros stripped.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class IntPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "IntPolynomial":
        """Generating polynomial of a multiset of nonnegative integers.

        The coefficient of t^k is the number of occurrences of k.
        """
        counts: dict[int, int] = {}
        for s in sizes:
            counts[s] = counts.get(s, 0) + 1
        if not counts:
            return cls()
        cs = [0] * (max(counts) + 1)
        for k, m in counts.items():
            cs[k] = m
        return cls(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its integer (see __eq__), so hashes as it.
        if len(self.coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    __radd__ = __add__

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, t: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * t + c
        return value

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                t = "t" if k == 1 else f"t^{k}"
                parts.append(t if c == 1 else f"{c}{t}")
        return " + ".join(parts)


#: The monomial t, handy for shift-by-one-degree expressions.
T = IntPolynomial([0, 1])
