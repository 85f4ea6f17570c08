"""Exact coefficient fields: the rationals and prime fields.

Ring designators are "q" and "zp:<p>".  Values are kept canonical so
that equality is structural: fractions are reduced with positive
denominator, prime-field residues lie in [0, p).  A CoeffRing does the
arithmetic on raw values (Fraction for q, int for zp); Scalar pairs a
raw value with its ring for use at API boundaries.
"""

from __future__ import annotations

from fractions import Fraction

MAX_MODULUS = 1 << 31

# Fractions are immutable, so the rationals share one zero and one one.
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


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

    The arithmetic methods work on raw canonical values and assume their
    inputs already belong to this ring; canonical() is the checked entry
    point for foreign values.
    """

    __slots__ = ("kind", "p")

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

    def check_same(self, other: "CoeffRing"):
        if self != other:
            raise RingMismatchError(
                f"ring mismatch: {self.designator()} vs {other.designator()}"
            )

    # -- raw arithmetic ----------------------------------------------

    @property
    def zero(self):
        return _Q_ZERO if self.kind == "q" else 0

    @property
    def one(self):
        return _Q_ONE if self.kind == "q" else 1

    def from_int(self, n: int):
        if self.kind == "q":
            return Fraction(n)
        return n % self.p

    def canonical(self, value):
        """Convert an int, Fraction or Scalar into a raw value of this ring."""
        if isinstance(value, Scalar):
            self.check_same(value.ring)
            return value.value
        if isinstance(value, bool):
            raise RingError("bool is not a ring value")
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            if self.kind == "q":
                return value
            raise RingError(
                f"{value!r} is not a value of ring {self.designator()}"
            )
        raise RingError(f"cannot coerce {value!r} into ring {self.designator()}")

    def add(self, a, b):
        if self.kind == "zp":
            return (a + b) % self.p
        return a + b

    def sub(self, a, b):
        if self.kind == "zp":
            return (a - b) % self.p
        return a - b

    def neg(self, a):
        if self.kind == "zp":
            return -a % self.p
        return -a

    def mul(self, a, b):
        if self.kind == "zp":
            return (a * b) % self.p
        return a * b

    def inv(self, a):
        if self.kind == "q":
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / Fraction(a)
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero residue")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- sampling ----------------------------------------------------

    def sample(self, rng):
        """Draw a small raw value, deterministically from the given rng."""
        if self.kind == "q":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randrange(self.p)

    def sample_nonzero(self, rng):
        while True:
            v = self.sample(rng)
            if v != 0:
                return v

    # -- Scalar and JSON boundaries ----------------------------------

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
            return Fraction(num, den)
        if set(obj) != {"res"}:
            raise RingError(f"residue scalar needs res, got {obj!r}")
        res = obj["res"]
        if type(res) is not int or not 0 <= res < self.p:
            raise RingError(f"residue {res!r} out of range for p={self.p}")
        return res


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


QQ = CoeffRing("q")

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
        return QQ
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


class Scalar:
    """A raw ring value tagged with its ring; arithmetic checks the tags."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: CoeffRing, value):
        self.ring = ring
        self.value = ring.canonical(value)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            self.ring.check_same(other.ring)
            return other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Scalar(self.ring, self.ring.add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Scalar(self.ring, self.ring.sub(self.value, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Scalar(self.ring, self.ring.sub(v, self.value))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Scalar(self.ring, self.ring.mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Scalar(self.ring, self.ring.div(self.value, v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Scalar(self.ring, self.ring.div(v, self.value))

    def __neg__(self):
        return Scalar(self.ring, self.ring.neg(self.value))

    def inv(self):
        return Scalar(self.ring, self.ring.inv(self.value))

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.ring == other.ring and self.value == other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.value == self.ring.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.value))

    def __repr__(self):
        return f"Scalar({self.ring.designator()}, {self.value})"

    def to_json(self):
        return self.ring.scalar_to_json(self.value)
