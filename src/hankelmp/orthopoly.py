"""Orthogonal polynomials of a moment window and the moment inner product.

The monic orthogonal polynomials p_0 = 1, p_1, ... of a window satisfy
<p_n, x^k> = 0 for k < n under <x^j, x^k> = s_{j+k}.  p_n exists exactly when
the Hankel determinant D_{n-1} is nonzero, and its low coefficients c then
solve H_{n-1} c = -(s_n..s_{2n-1}).  The kernel p_{n0} of a degenerate window
also comes out of the recurrence pass of ``hankel.analyze``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateNormalization, OutOfWindow
from .exact import RationalPoly
from .hankel import MomentWindow, _as_window, _solve_exact

__all__ = [
    "MomentForm",
    "moment_inner_product",
    "monic_orthogonal_poly",
]


@dataclass(frozen=True)
class MomentForm:
    """The bilinear form <x^j, x^k> = s_{j+k} induced by a moment window."""

    window: MomentWindow

    @property
    def max_degree(self) -> int:
        """Largest n with <x^j, x^k> defined for all j, k <= n."""
        return self.window.horizon


def moment_inner_product(p: RationalPoly, q: RationalPoly, form) -> Fraction:
    """<p, q> = sum over j, k of p_j q_k s_{j+k}, computed exactly.

    ``form`` may be a ``MomentForm`` or anything accepted as a moment window.
    Raises ``OutOfWindow`` when deg p + deg q exceeds the stored moments.
    """
    w = form.window if isinstance(form, MomentForm) else _as_window(form)
    if p.is_zero or q.is_zero:
        return Fraction(0)
    product = p * q
    if product.degree > w.m:
        raise OutOfWindow(
            f"inner product needs s_{product.degree} but the window ends at s_{w.m}"
        )
    return sum((c * w[t] for t, c in enumerate(product.coeffs)), Fraction(0))


def monic_orthogonal_poly(w, n: int) -> RationalPoly:
    """The monic p_n orthogonal to 1, x, ..., x^{n-1}; needs s_0..s_{2n-1}.

    Raises ``DegenerateNormalization`` when D_{n-1} = 0, which happens exactly
    when n exceeds the degenerate index of the window.
    """
    if n < 0:
        raise ValueError("polynomial index must be nonnegative")
    w = _as_window(w)
    if n == 0:
        return RationalPoly([1])
    if 2 * n - 1 > w.m:
        raise OutOfWindow(f"p_{n} needs s_0..s_{2*n - 1} but the window ends at s_{w.m}")
    coeffs = _solve_exact(
        [[w[i + j] for j in range(n)] for i in range(n)], [-w[i + n] for i in range(n)]
    )
    if coeffs is None:
        raise DegenerateNormalization(f"cannot normalize p_{n}: D_{n - 1} = 0")
    return RationalPoly(coeffs + [Fraction(1)])
