"""Precision plumbing shared by every module: evaluation contexts, value
carriers with error bounds, and the library's exception hierarchy.

A :class:`PrecisionContext` owns a private mpmath context so that concurrent
evaluations never race on global mpmath state.  Values are immutable; every
numeric result carries an absolute error bound, and results that are known
exactly carry the exact rational alongside the rounded rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from mpmath.ctx_mp import MPContext

#: Extra working bits on top of the requested precision.  Heuristic error
#: bounds assume results are accurate to roughly this guard margin.
GUARD_BITS = 30

# Alias kept for discoverability: exact rationals throughout the library are
# plain stdlib Fractions (arbitrary-size numerator, positive denominator,
# always reduced -- the stdlib maintains both invariants).
BigRational = Fraction


class ZetaKitError(Exception):
    """Base class for all library errors."""


class DomainError(ZetaKitError):
    """Argument outside an operation's domain of validity."""


class PoleError(ZetaKitError):
    """Evaluation requested at (or within snapping distance of) a pole."""


class NoConvergence(ZetaKitError):
    """The requested tolerance cannot be certified within the term budget."""


class IndeterminateError(ZetaKitError):
    """A Gamma-quotient limit whose poles do not cancel."""


class NeedsLimitInterpretation(ZetaKitError):
    """The infinite product degenerates here and needs a limit reading."""


class IllConditioned(ZetaKitError):
    """A fit residual too large for the extracted coefficient to be trusted."""


class ReconstructionError(ZetaKitError):
    """Rational reconstruction failed its verification points."""


@dataclass(frozen=True)
class PrecisionContext:
    """Evaluation settings: working precision, target tolerance, term budget.

    ``precision_bits`` is the binary precision of returned values,
    ``target_tol`` the absolute error every operation must certify (or raise
    :class:`NoConvergence`), and ``max_terms`` caps series/product/quadrature
    subdivisions.  The attached mpmath context is created once and never
    mutated afterwards, which keeps concurrent use safe.
    """

    precision_bits: int = 256
    target_tol: float = 1e-30
    max_terms: int = 1_000_000

    def __post_init__(self) -> None:
        if self.precision_bits < 64:
            raise DomainError("precision_bits must be >= 64")
        if not self.target_tol > 0:
            raise DomainError("target_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")
        mp = MPContext()
        mp.prec = self.precision_bits + GUARD_BITS
        object.__setattr__(self, "_mp", mp)

    @property
    def mp(self) -> MPContext:
        """The private mpmath context (do not mutate its precision)."""
        return self._mp  # type: ignore[attr-defined]

    @property
    def working_bits(self) -> int:
        return self.precision_bits + GUARD_BITS

    def mpf(self, x: Any):
        """Convert ``x`` to mpf at working precision (Fractions included)."""
        if isinstance(x, HPReal):
            return self.mp.convert(x.value)
        return self.mp.convert(x)

    def mpc(self, x: Any):
        """Convert ``x`` to mpc at working precision."""
        mp = self.mp
        if isinstance(x, HPComplex):
            return mp.mpc(x.value)
        if isinstance(x, HPReal):
            return mp.mpc(mp.convert(x.value))
        return mp.mpc(mp.convert(x))

    @property
    def tol(self):
        return self.mp.convert(self.target_tol)

    @property
    def pole_radius(self):
        """Arguments this close to a pole/zero lattice point are snapped."""
        return self.mp.mpf(2) ** (-self.precision_bits // 2)

    @property
    def eps(self):
        """Unit roundoff at working precision."""
        return self.mp.mpf(2) ** (1 - self.working_bits)

    def with_bits(self, precision_bits: int) -> "PrecisionContext":
        return PrecisionContext(precision_bits, self.target_tol, self.max_terms)


#: Shared default: 256 bits of working precision, 1e-30 absolute tolerance.
DEFAULT_CONTEXT = PrecisionContext()


def get_context(ctx: Optional[PrecisionContext]) -> PrecisionContext:
    return DEFAULT_CONTEXT if ctx is None else ctx


@dataclass(frozen=True)
class HPReal:
    """A real scalar with an absolute error bound.

    ``exact=True`` asserts the value is known exactly (then ``err == 0``).
    """

    value: Any
    err: Any = 0
    exact: bool = False

    def __post_init__(self) -> None:
        if self.err < 0:
            raise DomainError("error bound must be nonnegative")
        if self.exact and self.err != 0:
            raise DomainError("exact values must carry a zero error bound")

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class HPComplex:
    """A complex scalar with a single absolute error bound on |value|."""

    value: Any
    err: Any = 0

    def __post_init__(self) -> None:
        if self.err < 0:
            raise DomainError("error bound must be nonnegative")

    @property
    def re(self):
        return self.value.real

    @property
    def im(self):
        return self.value.imag

    def __complex__(self) -> complex:
        return complex(self.value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class EvalResult:
    """A numeric result with error bound, certification status, and method tag.

    ``certified`` is True only when ``err`` comes from a proved remainder
    bound (product tail, series remainder), never from a heuristic estimate.
    ``exact`` carries the exact rational when one is known, in which case the
    mpc ``value`` is merely its rendering at context precision.
    """

    value: HPComplex
    err: Any
    certified: bool
    method: str
    exact: Optional[Fraction] = None
    note: Optional[str] = None

    @property
    def re(self):
        return self.value.re

    @property
    def im(self):
        return self.value.im

    def __float__(self) -> float:
        return float(self.value.re)

    def is_exact(self) -> bool:
        return self.exact is not None


def complex_result(ctx: PrecisionContext, value, err, certified: bool, method: str,
                   exact: Optional[Fraction] = None, note: Optional[str] = None) -> EvalResult:
    """Package a real or complex value as an EvalResult."""
    mp = ctx.mp
    v = mp.mpc(value)
    e = mp.convert(err)
    return EvalResult(HPComplex(v, e), e, certified, method, exact, note)


def exact_result(ctx: PrecisionContext, q: Fraction, method: str,
                 note: Optional[str] = None) -> EvalResult:
    """Package an exact rational as an EvalResult (zero error, certified)."""
    mp = ctx.mp
    v = mp.mpc(mp.convert(q))
    return EvalResult(HPComplex(v, mp.zero), mp.zero, True, method, Fraction(q), note)


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpf (mpfs are dyadic rationals)."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if x == 0:
            return Fraction(0)
        raise DomainError("cannot convert a non-finite value to a rational")
    m = -man if sign else man
    if exp >= 0:
        return Fraction(m * (1 << exp))
    return Fraction(m, 1 << (-exp))
