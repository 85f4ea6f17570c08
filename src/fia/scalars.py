"""Exact coefficient fields: the rationals and prime fields.

Ring designators are "q" and "zp:<p>".  Values are kept canonical so
that equality is structural: fractions are reduced with positive
denominator, prime-field residues lie in [0, p).  A CoeffRing does all
the arithmetic on these raw values (Fraction for q, int for zp), with
operations chosen once when the ring is built, and the library takes
and returns the values as they are.

Only q loads fractions (and with it decimal and numbers): QQ is built on
first use, each q branch imports Fraction where it makes one, and a test
for a Fraction reads sys.modules, since no value can be a Fraction before
fractions is loaded.  A zp job thus never loads it; see README "Start-up".
"""

from __future__ import annotations

import operator
import sys

MAX_MODULUS = 1 << 31


class RingError(ValueError):
    """Request a ring cannot satisfy (bad designator, foreign value, ...)."""


class RingMismatchError(RingError):
    """Operands belong to different rings."""


def is_prime(p: int) -> bool:
    """Trial-division primality test, adequate for p < 2**31."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class CoeffRing:
    """Handle for one of the supported coefficient rings.

    zero, one, add, sub, neg and mul are bound when the ring is built:
    the operator functions for q, reductions mod p for zp.  They work on
    raw canonical values and assume their inputs already belong to this
    ring; canonical() is the checked entry point for foreign values.
    """

    __slots__ = ("kind", "p", "zero", "one", "add", "sub", "neg", "mul")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("q", "zp"):
            raise RingError(f"unknown ring kind {kind!r}")
        if kind == "zp":
            if not isinstance(p, int) or not 2 <= p < MAX_MODULUS:
                raise RingError("modulus must be an int with 2 <= p < 2**31")
            if not is_prime(p):
                raise RingError(f"modulus {p} is not prime")
        elif p is not None:
            raise RingError(f"ring {kind!r} takes no modulus")
        self.kind = kind
        self.p = p
        if kind == "q":
            from fractions import Fraction

            self.zero, self.one = Fraction(0), Fraction(1)
            self.add, self.sub = operator.add, operator.sub
            self.neg, self.mul = operator.neg, operator.mul
        else:
            self.zero, self.one = 0, 1
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: -a % p
            self.mul = lambda a, b: a * b % p

    # -- identity ----------------------------------------------------

    def designator(self) -> str:
        if self.kind == "zp":
            return f"zp:{self.p}"
        return self.kind

    def __eq__(self, other):
        return (
            isinstance(other, CoeffRing)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"CoeffRing({self.designator()!r})"

    def __reduce__(self):
        # The bound closures do not pickle; the designator names the ring.
        return parse_ring, (self.designator(),)

    def check_same(self, other: "CoeffRing"):
        if self != other:
            raise RingMismatchError(
                f"ring mismatch: {self.designator()} vs {other.designator()}"
            )

    # -- raw arithmetic ----------------------------------------------

    def from_int(self, n: int):
        if self.kind == "q":
            from fractions import Fraction

            return Fraction(n)
        return n % self.p

    def canonical(self, value):
        """Convert an int or Fraction into a raw value of this ring."""
        if isinstance(value, bool):
            raise RingError("bool is not a ring value")
        if isinstance(value, int):
            return self.from_int(value)
        if is_fraction(value):
            if self.kind == "q":
                return value
            raise RingError(
                f"{value!r} is not a value of ring {self.designator()}"
            )
        raise RingError(f"cannot coerce {value!r} into ring {self.designator()}")

    def inv(self, a):
        if self.kind == "q":
            from fractions import Fraction

            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / Fraction(a)
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero residue")
        return pow(a, -1, self.p)

    # -- sampling ----------------------------------------------------

    def sample(self, rng):
        """Draw a small raw value, deterministically from the given rng."""
        if self.kind == "q":
            from fractions import Fraction

            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randrange(self.p)

    def sample_nonzero(self, rng):
        while True:
            v = self.sample(rng)
            if v != 0:
                return v

    # -- JSON boundary -----------------------------------------------

    def scalar_to_json(self, raw):
        if self.kind == "q":
            return {"num": str(raw.numerator), "den": str(raw.denominator)}
        return {"res": raw}

    def scalar_from_json(self, obj):
        """Parse a scalar JSON object into a raw value of this ring."""
        if not isinstance(obj, dict):
            raise RingError(f"scalar JSON must be an object, got {obj!r}")
        if self.kind == "q":
            if set(obj) != {"num", "den"}:
                raise RingError(f"rational scalar needs num/den, got {obj!r}")
            num = _json_integer(obj["num"], "numerator")
            den = _json_integer(obj["den"], "denominator")
            if den < 1:
                raise RingError("denominator must be a positive decimal")
            from fractions import Fraction

            return Fraction(num, den)
        if set(obj) != {"res"}:
            raise RingError(f"residue scalar needs res, got {obj!r}")
        res = obj["res"]
        if type(res) is not int or not 0 <= res < self.p:
            raise RingError(f"residue {res!r} out of range for p={self.p}")
        return res


def is_fraction(value) -> bool:
    """Whether value is a Fraction, without importing fractions."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


def _json_integer(value, what: str) -> int:
    """An exact integer from JSON: an int or a plain decimal string.

    Floats and booleans are refused rather than truncated or read as 0/1.
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        digits = value[1:] if value.startswith("-") else value
        if digits.isascii() and digits.isdigit():
            try:
                return int(value)
            except ValueError:  # more digits than int() will convert
                pass
    raise RingError(f"{what} must be an integer or decimal string, got {value!r}")


def _rationals() -> CoeffRing:
    ring = globals().get("QQ")
    if ring is None:
        ring = globals().setdefault("QQ", CoeffRing("q"))
    return ring


def __getattr__(name):
    # QQ, the one q ring, is made on first use (PEP 562).
    if name == "QQ":
        return _rationals()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_gf_cache: dict[int, CoeffRing] = {}


def GF(p: int) -> CoeffRing:
    ring = _gf_cache.get(p)
    if ring is None:
        ring = _gf_cache.setdefault(p, CoeffRing("zp", p))
    return ring


def parse_ring(designator: str) -> CoeffRing:
    """Parse a ring designator: "q" or "zp:<p>"."""
    if not isinstance(designator, str):
        raise RingError(f"ring designator must be a string, got {designator!r}")
    if designator == "q":
        return _rationals()
    if designator.startswith("zp:"):
        # Only the designator GF(p) prints: ASCII digits with no sign,
        # space, underscore or leading zero, all of which int() allows.
        digits = designator[3:]
        canonical = digits.isascii() and digits.isdigit() and digits[0] != "0"
        try:
            p = int(digits) if canonical else None
        except ValueError:  # more digits than int() will convert
            p = None
        if p is None:
            raise RingError(f"bad modulus in designator {designator!r}")
        return GF(p)
    raise RingError(f"unknown ring designator {designator!r}")
