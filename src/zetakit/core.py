"""Precision plumbing shared by every module: evaluation contexts, the two
value carriers, the precision policy, and the library's exception hierarchy.

A :class:`PrecisionContext` owns a private mpmath context so that concurrent
evaluations never race on global mpmath state.  Values are immutable.  A
kernel returns an :class:`HPComplex`, one real or complex value with an
absolute error bound; a route returns an :class:`EvalResult`, which wraps
that carrier with its certification status and method, and with the exact
rational alongside the rounded rendering when the value is known exactly.

The precision policy lives here: kernels that miss ``target_tol`` retry at
up to 1024 extra bits (:func:`certify`), packaged results refuse
(:func:`complex_result`), a value whose rounding alone must miss the
tolerance refuses, before work where a lower bound shows it, by one rule
(:func:`refuse_rounding`), and :func:`argument` reads an argument once: the
lattice point near it (a pole there refuses, an exact path serves only an
argument exactly on it) and its rounding.  The tolerance is checked
once per result, on the value returned: a composite of Gamma or zeta_Z
factors takes them unchecked and holds only its own value to it,
and the rendering of every packaged value enters its err
(:func:`rendering`).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf, log2
from typing import Any, Callable, Optional, Union

from mpmath.ctx_mp import MPContext

#: Extra working bits on top of the requested precision.  Heuristic error
#: bounds assume results are accurate to roughly this guard margin.
GUARD_BITS = 30


class ZetaKitError(Exception):
    """Base class for all library errors."""


class DomainError(ZetaKitError):
    """Argument outside an operation's domain of validity."""


class PoleError(ZetaKitError):
    """Evaluation requested at (or within snapping distance of) a pole."""


class NoConvergence(ZetaKitError):
    """The requested tolerance cannot be certified within the term budget."""


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
    ``target_tol`` the absolute error, positive and finite, that every
    operation must certify (or raise :class:`NoConvergence`): an int, a
    float, or a Fraction for a tolerance below the float range, and
    ``max_terms`` caps series/product/quadrature subdivisions.  Kernels that
    miss the tolerance retry at up to 1024 extra bits (:func:`certify`);
    packaged results refuse (:func:`complex_result`).
    The attached mpmath context is created once and never mutated
    afterwards, which keeps concurrent use safe.
    """

    precision_bits: int = 256
    target_tol: Union[float, Fraction] = 1e-30
    max_terms: int = 1_000_000

    def __post_init__(self) -> None:
        if self.precision_bits < 64:
            raise DomainError("precision_bits must be >= 64")
        if not self.target_tol > 0:
            raise DomainError("target_tol must be positive")
        if not self.target_tol < inf:
            raise DomainError("target_tol must be finite")
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
        """Convert ``x`` to mpf at working precision (Fractions included); a
        nonzero imaginary part raises DomainError."""
        v = self.mp.convert(x)
        if isinstance(v, self.mp.mpc):
            if v.imag:
                raise DomainError(f"a real argument is required, got {x!r}")
            return v.real
        return v

    def mpc(self, x: Any):
        """Convert ``x`` to mpc at working precision."""
        return self.mp.mpc(self.mp.convert(x))

    @cached_property
    def tol(self):
        return self.mp.convert(self.target_tol)

    @cached_property
    def pole_radius(self):
        """Radius within which :func:`argument` finds an integer or half-integer."""
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


#: Extra bits tried, in order, after a kernel misses the tolerance at the
#: context's own precision.
_BOOST_BITS = (64, 128, 256, 512, 1024)


def certify(ctx: PrecisionContext, compute: Callable[[PrecisionContext], Any], what: str):
    """Run ``compute(c)`` at ``ctx``, then with 64, 128, ..., 1024 extra bits,
    until its ``err`` meets ``target_tol`` (Ziv's strategy); else raise
    NoConvergence naming ``what``.

    ``compute`` converts its inputs into ``c`` (mpmath runs mixed arithmetic
    at the left operand's precision) and returns an HPComplex at c's
    precision; :func:`complex_result` charges its rounding back to ``ctx``.
    """
    tol = ctx.tol
    for extra in (0,) + _BOOST_BITS:
        out = compute(ctx.with_bits(ctx.precision_bits + extra) if extra else ctx)
        if out.err <= tol:
            return out
    raise NoConvergence(f"{what}: tolerance not met at {_BOOST_BITS[-1]} extra bits")


Argument = namedtuple("Argument", "z q exact dz")


def argument(ctx: PrecisionContext, s) -> Argument:
    """Read s once: z = ``ctx.mpc(s)``; q, the integer or half-integer within
    ``pole_radius`` of z (a box), or None; ``exact``, q if s is exactly q;
    and dz >= |z - s|, 0 when s converts exactly (a float, a short dyadic
    Fraction, an int or mpf/mpc value that fits)."""
    z = ctx.mpc(s)
    y = z.imag
    rounded = (y != 0 or mpf_to_fraction(z.real) != s) if isinstance(s, Fraction) else z != s
    q = exact = None
    if not y or abs(y) <= ctx.pole_radius:
        x2 = 2 * z.real
        k = int(ctx.mp.nint(x2))
        d = x2 - k
        if not d or abs(d) <= 2 * ctx.pole_radius:
            q = Fraction(k, 2)
            exact = None if d or y or rounded else q
    return Argument(z, q, exact, abs(z) * ctx.eps if rounded else 0)


@dataclass(frozen=True)
class HPComplex:
    """A scalar, real (mpf) or complex (mpc), with one absolute error bound
    on |value|: what the kernels return before a route packages it."""

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
    mpc ``value`` is its rendering at context precision, bounded by ``err``.
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


def rendering(ctx: PrecisionContext, value, exact: Optional[Fraction] = None):
    """(v, e): ``value`` as an mpc at working precision, and e = 0 when v
    equals ``exact`` (if given, else ``value``) exactly, |v| eps otherwise."""
    v = ctx.mp.mpc(ctx.mp.convert(value))
    same = v == value if exact is None else not v.imag and mpf_to_fraction(v.real) == exact
    return v, (ctx.mp.zero if same else abs(v) * ctx.eps)


def complex_result(ctx: PrecisionContext, value, err, certified: bool, method: str,
                   exact: Optional[Fraction] = None, note: Optional[str] = None) -> EvalResult:
    """Package a real or complex value, or an exact rational, as an
    EvalResult, adding its :func:`rendering` to ``err``; raise
    NoConvergence when the sum exceeds ``target_tol``."""
    mp = ctx.mp
    v, r = rendering(ctx, value, exact)
    e = mp.convert(err) + r
    if e > ctx.tol:
        raise NoConvergence(f"{method}: error bound {mp.nstr(e, 3)} exceeds the "
                            f"tolerance {mp.nstr(ctx.tol, 3)}")
    return EvalResult(HPComplex(v, e), e, certified, method, exact, note)


def refuse_rounding(ctx: PrecisionContext, lb, what: str, bits: Optional[int] = None) -> None:
    """Raise NoConvergence, naming precision, when a value of at least 2^lb,
    rendered at ``bits`` of precision (the context's by default), must have
    an err above ``target_tol``: the err of that rendering, or any err of
    at least 2^(lb - wb) at wb = bits + ``GUARD_BITS`` working bits.  The
    one refusal rule, before or after work, decided in log2 space: an int
    lb exactly (the tolerance's mantissa is odd, so 2^d exceeds it iff d >=
    its bit length), so that no huge bound passes through a float; a float
    or mpf lb carries its caller's slack for its rounded logarithms."""
    bits = ctx.precision_bits if bits is None else bits
    man, exp = ctx.tol.man, ctx.tol.exp
    d = lb - bits - GUARD_BITS - exp
    if d >= man.bit_length() if isinstance(d, int) else d > log2(man):
        raise NoConvergence(f"{what}: precision too low: rounding at {bits} bits alone "
                            "exceeds the tolerance")


def exact_result(ctx: PrecisionContext, q: Fraction, method: str,
                 note: Optional[str] = None) -> EvalResult:
    """Package an exact rational, certified, its err that of its rendering."""
    return complex_result(ctx, q, 0, True, method, Fraction(q), note)


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
