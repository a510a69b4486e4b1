"""Finite rings built compositionally from construction expressions.

Elements are canonical integer indices in ``range(ring.size)``.  Arithmetic
is computed structurally from the expression (residues, tuples, cosets), so
rings with tens of thousands of elements stay cheap to construct.  For
carriers up to 256 elements :class:`FiniteRing` binds ``add``/``mul``/``neg``
to flat operation tables, the one place where table and structure meet;
larger carriers call the structured methods directly.  No carrier fills its
tables entry by entry through the structured arithmetic.  Product,
idealization and triangular carriers are one :class:`MixedRadixRing`: their
indices are mixed-radix over component rings, so their ``add`` and ``neg``
tables (and the product's ``mul``) are Kronecker folds of their components'
tables, the idealization and triangular ``mul`` rows are sums of a few
structured products, both composed a whole row at a time as ``bytes``, and
they negate by lookup at every size.  A quotient
projects base operations on its representatives, and built from a bitmask
alone it names every element of its ideal in its expression, so
:func:`build_ring` realizes any carrier's expression again.  An
idealization is its base ring acting on one module ring, the product of its
cyclic components, so each of its operations and solvers takes one path
whatever the shape of the module.  Only the idealization and triangular
carriers keep a random ``a*x = t`` solver of their own (see
:class:`FiniteRing`); the README's "Special paths" table gives the
measurement behind each size limit and solver.  Index 0 is the zero element.

Rings are immutable after construction; every operation here is a pure
function of its inputs.  A ring pickles as its construction expression and
unpickles by realizing it again, so a worker process receives the ring
itself and rebuilds its tables.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .errors import MalformedExpressionError, SizeCapExceededError, SRingError

DEFAULT_SIZE_CAP = 4096
AXIOM_EXHAUSTIVE_LIMIT = 256
AXIOM_SAMPLE_TRIPLES = 100_000


def freeze_literal(lit):
    """Normalize a decoded element literal to hashable form (lists -> tuples)."""
    if isinstance(lit, (list, tuple)):
        return tuple(freeze_literal(x) for x in lit)
    return lit


def thaw_literal(lit):
    """Inverse of :func:`freeze_literal` for JSON output (tuples -> lists)."""
    if isinstance(lit, tuple):
        return [thaw_literal(x) for x in lit]
    return lit


# ---------------------------------------------------------------------------
# Construction expressions


@dataclass(frozen=True)
class ZMod:
    """Integers modulo ``n``."""

    n: int


@dataclass(frozen=True)
class Product:
    """Direct product of the factor rings, componentwise operations."""

    factors: tuple


@dataclass(frozen=True)
class Quotient:
    """Quotient of ``base`` by the ideal generated by the element literals."""

    base: object
    ideal: tuple


@dataclass(frozen=True)
class ModuleSpec:
    """Finite module given as a direct sum of cyclic quotients base/J_k.

    Each entry of ``cyclic`` is a tuple of element literals generating J_k.
    """

    cyclic: tuple


@dataclass(frozen=True)
class Idealization:
    """Square-zero extension: pairs (r, m) with (r1,m1)(r2,m2) = (r1r2, r1m2+r2m1)."""

    base: object
    module: ModuleSpec


@dataclass(frozen=True)
class TriangularE:
    """Quadruples (a,b,c,d) encoding 3x3 upper-triangular matrices with
    constant diagonal a over the base ring.  The product is

        (a1a2, a1b2+b1a2, a1c2+b1d2+c1a2, a1d2+d1a2)

    which is literal matrix multiplication.  Note b1d2 is not symmetric, so
    this carrier is noncommutative whenever the base has more than one
    element.
    """

    base: object


RingExpression = ZMod | Product | Quotient | Idealization | TriangularE


def _literal_text(lit) -> str:
    if isinstance(lit, tuple):
        return "[" + ",".join(_literal_text(x) for x in lit) + "]"
    return str(lit)


def expression_label(expr: RingExpression) -> str:
    """Short deterministic display name for a construction expression."""
    if isinstance(expr, ZMod):
        return f"Z{expr.n}"
    if isinstance(expr, Product):
        return "x".join(expression_label(f) for f in expr.factors)
    if isinstance(expr, Quotient):
        gens = ",".join(_literal_text(g) for g in expr.ideal)
        return f"{expression_label(expr.base)}/({gens})"
    if isinstance(expr, Idealization):
        comps = ";".join(
            ",".join(_literal_text(g) for g in comp) or "0"
            for comp in expr.module.cyclic
        )
        return f"{expression_label(expr.base)}(+)({comps})"
    if isinstance(expr, TriangularE):
        return f"UT3({expression_label(expr.base)})"
    raise MalformedExpressionError(f"unknown expression {expr!r}")


# ---------------------------------------------------------------------------
# Ring carriers


SOLUTION_CACHE_LIMIT = 256
OP_TABLE_LIMIT = 256
_BYTE_VALUES = bytes(range(256))


class FiniteRing:
    """Total exact arithmetic on canonical element indices.

    Subclasses implement ``add``, ``mul``, ``neg``, ``decode``, ``encode``
    and the ``_solve_all`` equation solver for a*x = t structurally;
    :meth:`_install_op_tables` then rebinds ``add``/``mul``/``neg`` of a
    small carrier to lookups in the tables its ``_op_tables`` composes:
    a :class:`MixedRadixRing` folds ``add`` and ``neg`` from its digits'
    tables (:func:`_digitwise_rows`) and takes ``mul`` from its
    ``_mul_table`` (a digitwise fold for :class:`ProductRing`; for
    :class:`IdealizationRing` and :class:`TriangularERing`, rows summed
    from left products with single digits), and :class:`QuotientRing`
    projects one base operation per entry.  A tabled carrier has at most
    256 elements, so the mixed-radix folds compose whole rows as ``bytes``
    in C (``bytes.translate``, ``bytes.join``); the installed tables are
    still ``list`` objects, as CPython 3.11 reads a ``list`` item slightly
    faster than a ``bytes`` one.  A mixed-radix carrier binds ``neg`` to
    its table at every size.  Left distributivity is built into
    the composed idealization and triangular ``mul`` tables, so for those
    carriers the oracle for the structured ``mul`` is a comparison of the
    tables with the structured arithmetic, not ``verify_ring_axioms`` on
    the tables.

    Small carriers memoize whole solution lists (at most size*size of
    them), which collapses the hot solver loops of the derived
    constructions into dictionary hits; callers must not mutate the lists.
    ``solve_mul_random`` draws uniformly from the complete solution list
    unless a carrier too large for the cache overrides ``_solve_random``;
    only :class:`IdealizationRing` and :class:`TriangularERing` do, and
    theirs return None only when there is no solution.  Each element's
    right annihilator is read off the solver once per ring, by
    :meth:`annihilator`, and every predicate reads it there.  A
    triangular carrier above ``OP_TABLE_LIMIT`` multiplies, and solves,
    digit by digit on its base's flat tables (see :class:`TriangularERing`).
    The README's "Special paths" table gives the measurement behind each of
    these.
    """

    commutative = True

    def __init__(self, size: int, expression, one: int):
        self.size = size
        self.expression = expression
        self.zero = 0
        self.one = one
        self._solutions_cache: dict[int, list[int]] | None = (
            {} if size <= SOLUTION_CACHE_LIMIT else None)
        self._unit_flags: bytes | None = None
        self._annihilators: dict[int, int] = {}

    def _install_op_tables(self) -> None:
        """Bind ``add``/``mul``/``neg`` to flat operation tables (size*size
        entries) when the carrier has at most ``OP_TABLE_LIMIT`` elements.

        Structured arithmetic composes; for the carriers that sit at the
        bottom of the derived constructions, table lookups beat walking the
        structure by an order of magnitude.  The tables come from
        ``_op_tables``, which each carrier composes from its components'
        tables rather than one structured call per entry.  A larger carrier
        keeps its structured methods, called with no extra layer.
        """
        if self.size > OP_TABLE_LIMIT:
            return
        n = self.size
        add_t, mul_t, neg_t = self._op_tables()
        self.add = lambda a, b: add_t[a * n + b]
        self.mul = lambda a, b: mul_t[a * n + b]
        self.neg = neg_t.__getitem__

    def _op_tables(self) -> tuple[list[int], list[int], list[int]]:
        """The flat ``add``, ``mul`` and ``neg`` tables, built from the
        structured arithmetic before the lookups are bound."""
        raise NotImplementedError

    # -- arithmetic -------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    # -- encoding ---------------------------------------------------------
    def decode(self, index: int):
        raise NotImplementedError

    def encode(self, literal) -> int:
        raise NotImplementedError

    # -- equation solving: all / one random solution of a*x = t ------------
    def solve_mul_all(self, a: int, t: int) -> list[int]:
        cache = self._solutions_cache
        if cache is None:
            return self._solve_all(a, t)
        key = a * self.size + t
        sols = cache.get(key)
        if sols is None:
            sols = self._solve_all(a, t)
            cache[key] = sols
        return sols

    def solve_mul_random(self, a: int, t: int, rng: random.Random) -> int | None:
        cache = self._solutions_cache
        if cache is None:
            return self._solve_random(a, t, rng)
        # a hit is read inline: the degree-1 sampler calls this up to 8 times a pair
        sols = cache.get(a * self.size + t)
        if sols is None:
            sols = self.solve_mul_all(a, t)
        if not sols:
            return None
        return sols[int(rng.random() * len(sols))]

    def _solve_all(self, a: int, t: int) -> list[int]:
        raise NotImplementedError

    def _solve_random(self, a: int, t: int, rng: random.Random) -> int | None:
        sols = self._solve_all(a, t)
        if not sols:
            return None
        return sols[int(rng.random() * len(sols))]

    def is_unit(self, a: int) -> bool:
        return bool(self.solve_mul_all(a, self.one))

    def annihilator(self, a: int) -> int:
        """Bitmask of the right annihilator {x : a*x = 0}, which keeps factor
        order on the noncommutative triangular carrier.

        Read off ``solve_mul_all(a, zero)`` on first use and kept for the
        ring's lifetime, in a dict that ``__init__`` sets (see
        :attr:`unit_flags`): at most one mask per element, filled lazily, so
        a reader that stops early pays only for the elements it reads.
        """
        mask = self._annihilators.get(a)
        if mask is None:
            mask = 0
            for x in self.solve_mul_all(a, self.zero):
                mask |= 1 << x
            self._annihilators[a] = mask
        return mask

    @property
    def unit_flags(self) -> bytes:
        """Per element, 1 for a unit and 0 otherwise, built on first use.

        The table lives in an attribute that ``__init__`` sets, not in a
        ``functools.cached_property``: that writes the instance ``__dict__``
        directly, and on CPython 3.11 every later attribute read of the
        ring, as ``mul`` and the solvers make, is then a slower dictionary
        lookup.
        """
        flags = self._unit_flags
        if flags is None:
            flags = self._unit_flags = self._build_unit_flags()
        return flags

    def _build_unit_flags(self) -> bytes:
        """The flags from :meth:`is_unit`, which solves a*x = 1 once per
        element.  Idealization and triangular carriers override it by
        repeating their base's flags, as an element of either is a unit iff
        its base digit is."""
        return bytes(self.is_unit(a) for a in range(self.size))

    def __reduce__(self):
        # the expression was realized under its cap and its axioms sampled
        # when this ring was built, so the copy needs neither
        return _realize, (self.expression, math.inf, "ring")

    @property
    def label(self) -> str:
        return expression_label(self.expression)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label} size={self.size}>"


def require_commutative(ring: FiniteRing, what: str) -> None:
    """Raise SRingError when ``ring`` is noncommutative; ``what`` names the
    operation that assumes commutativity."""
    if not ring.commutative:
        raise SRingError(f"{ring.label} is noncommutative; {what} assumes commutativity")


class ZModRing(FiniteRing):
    def __init__(self, n: int):
        super().__init__(n, ZMod(n), 1 % n)
        self.n = n

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def decode(self, index):
        return index

    def encode(self, literal):
        if not isinstance(literal, int) or isinstance(literal, bool):
            raise MalformedExpressionError(
                f"expected integer literal for {self.label}, got {literal!r}"
            )
        return literal % self.n

    def _solve_all(self, a, t):
        g = math.gcd(a, self.n)
        if t % g:
            return []
        m = self.n // g
        x0 = (t // g) * pow(a // g, -1, m) % m if m > 1 else 0
        return [x0 + k * m for k in range(g)]


class MixedRadixRing(FiniteRing):
    """A carrier indexed mixed-radix over the rings ``digits``, least
    significant first (see :func:`_digitwise_table`), whose addition and
    negation act digit by digit.  Its ``neg`` table has only ``size``
    entries, so ``neg`` is a lookup at every size; the structured ``add``
    and ``neg`` are the reference the tables are tested against."""

    def __init__(self, digits: tuple[FiniteRing, ...], expression, one_digits):
        self.digits = tuple(digits)
        super().__init__(math.prod(f.size for f in self.digits), expression,
                         self._join(one_digits))

    def _install_op_tables(self) -> None:
        super()._install_op_tables()
        if self.size > OP_TABLE_LIMIT:
            self.neg = _digitwise_neg(self.digits).__getitem__

    def _op_tables(self) -> tuple[list[int], list[int], list[int]]:
        # a one-digit carrier's rows are lists; any tabled one fits in bytes
        add_rows = list(map(bytes, _digitwise_rows(self.digits, "add")))
        return (list(b"".join(add_rows)), self._mul_table(add_rows),
                _digitwise_neg(self.digits))

    def _mul_table(self, add_rows: list[bytes]) -> list[int]:
        """The flat ``mul`` table, from the structured ``mul`` and the rows
        of the ``add`` table.

        An element y is the sum of its digits embedded at their weights,
        y = sum of y_k * w_k, and left multiplication is additive, so x*y is
        the sum over k of x*(y_k * w_k).  The row of x folds those partial
        products digit by digit, as ``bytes``: it starts from the products
        with the first digit's values, and the block of a later digit value
        y_k is the row so far mapped through the ``add`` row of x*(y_k * w_k),
        one ``bytes.translate`` (the rows are padded to the 256 entries a
        translation table needs).  A row costs sum(size_k) calls to the
        structured ``mul`` and a C-level step per block.  Left
        distributivity is built into this table, so it equals the
        entry-by-entry one exactly when the structured ``mul`` is left
        distributive.
        """
        n = self.size
        mul = self.mul
        pad = bytes(256 - n)
        add_rows = [row + pad for row in add_rows]
        first, *rest = self.digits
        mul_rows = []
        for x in range(n):
            row = bytes([mul(x, y) for y in range(first.size)])
            w = first.size
            for f in rest:
                row = b"".join([row.translate(add_rows[mul(x, y)])
                                for y in range(0, f.size * w, w)])
                w *= f.size
            mul_rows.append(row)
        return list(b"".join(mul_rows))

    def _split(self, i: int) -> tuple[int, ...]:
        parts = []
        for f in self.digits:
            i, p = divmod(i, f.size)
            parts.append(p)
        return tuple(parts)

    def _join(self, parts) -> int:
        i = 0
        for f, p in zip(reversed(self.digits), reversed(tuple(parts))):
            i = i * f.size + p
        return i

    def add(self, a, b):
        xs, ys = self._split(a), self._split(b)
        return self._join(f.add(x, y) for f, x, y in zip(self.digits, xs, ys))

    def neg(self, a):
        return self._join(f.neg(x) for f, x in zip(self.digits, self._split(a)))


class ProductRing(MixedRadixRing):
    """Direct product of the rings ``digits``; every operation acts digitwise."""

    def __init__(self, factors: tuple[FiniteRing, ...]):
        super().__init__(factors, Product(tuple(f.expression for f in factors)),
                         tuple(f.one for f in factors))
        self.commutative = all(f.commutative for f in self.digits)
        self._install_op_tables()

    def _mul_table(self, add_rows: list[bytes]) -> list[int]:
        # factor k costs size_k**2 calls to its own mul
        return _digitwise_table(self.digits, "mul")

    def mul(self, a, b):
        xs, ys = self._split(a), self._split(b)
        return self._join(f.mul(x, y) for f, x, y in zip(self.digits, xs, ys))

    def decode(self, index):
        return tuple(f.decode(x) for f, x in zip(self.digits, self._split(index)))

    def encode(self, literal):
        literal = freeze_literal(literal)
        if not isinstance(literal, tuple) or len(literal) != len(self.digits):
            raise MalformedExpressionError(
                f"expected {len(self.digits)}-tuple literal for {self.label}, got {literal!r}"
            )
        return self._join(f.encode(x) for f, x in zip(self.digits, literal))

    def _solve_all(self, a, t):
        xs, ts = self._split(a), self._split(t)
        per_factor = []
        for f, x, u in zip(self.digits, xs, ts):
            sols = f.solve_mul_all(x, u)
            if not sols:
                return []
            per_factor.append(sols)
        return sorted(self._join(parts) for parts in itertools.product(*per_factor))


def _digitwise_rows(digits, op: str) -> list:
    """The rows of the table of the binary operation ``op`` ("add", "sub"
    or "mul") on mixed-radix indices whose digits, least significant first,
    are elements of the rings ``digits``, for an operation that acts digit
    by digit.  Row p lists p op q for every index q.

    An index is the sum of p_k * w_k, w_k being the product of the earlier
    digit sizes.  So the row of an index is the Kronecker sum of its digits'
    rows scaled by w_k, folded from the first digit to the last; each
    weighted digit stays below w_{k+1}, so no sum carries.  The fold starts
    from the first digit's rows, lists of ints from size_0**2 calls to its
    ring's ``op``, so a lone digit may have any size.  Every later digit
    composes ``bytes`` rows, so the whole carrier must have at most 256
    elements, as a tabled one has: the block of a digit value v is a whole
    lower row shifted by v * w_k, one ``bytes.translate`` through a rotation
    of the byte values.  Digit k then costs size_k**2 calls to its ring's
    ``op`` and a C-level step per lower row.
    """
    first, *rest = digits
    f_op, elems = getattr(first, op), range(first.size)
    rows = [[f_op(p, q) for q in elems] for p in elems]
    w = first.size
    for f in rest:
        rows = list(map(bytes, rows))  # the first digit's lists; then a no-op
        f_op, elems = getattr(f, op), range(f.size)
        shifts = [_BYTE_VALUES[v:] + _BYTE_VALUES[:v] for v in range(0, f.size * w, w)]
        rows = [b"".join([row.translate(shifts[f_op(p, q)]) for q in elems])
                for p in elems for row in rows]
        w *= f.size
    return rows


def _digitwise_table(digits, op: str) -> list[int]:
    """The flat table of :func:`_digitwise_rows`, entry p * size + q."""
    rows = _digitwise_rows(digits, op)
    if len(digits) == 1:  # the first digit's lists, whose entries may exceed a byte
        return list(itertools.chain.from_iterable(rows))
    return list(b"".join(rows))


def _digitwise_neg(digits) -> list[int]:
    """The ``neg`` table for the indices of :func:`_digitwise_table`."""
    neg = [0]
    w = 1
    for f in digits:
        neg = [v + u for v in [f.neg(p) * w for p in range(f.size)] for u in neg]
        w *= f.size
    return neg


class QuotientRing(FiniteRing):
    """Quotient by an ideal; elements are cosets named by their least base rep.

    Built without an expression, it names itself ``Quotient(base, every
    element of the ideal)``, which :func:`build_ring` realizes exactly.
    """

    def __init__(self, base: FiniteRing, ideal_mask: int, expression=None):
        self.base = base
        self.ideal_elements = tuple(_mask_elements(ideal_mask))
        reps, proj = [], [-1] * base.size
        for x, coset in additive_cosets(base, self.ideal_elements):
            for y in coset:
                proj[y] = len(reps)
            reps.append(x)
        self._reps, self._proj = tuple(reps), tuple(proj)
        if expression is None:
            expression = Quotient(base.expression, tuple(
                freeze_literal(base.decode(i)) for i in self.ideal_elements))
        super().__init__(len(reps), expression, proj[base.one])
        self.commutative = base.commutative
        self._install_op_tables()

    def _op_tables(self) -> tuple[list[int], list[int], list[int]]:
        """Each table entry projects one base operation on the lifted
        representatives."""
        proj, reps, base = self._proj, self._reps, self.base
        base_add, base_mul = base.add, base.mul
        return ([proj[base_add(a, b)] for a in reps for b in reps],
                [proj[base_mul(a, b)] for a in reps for b in reps],
                [proj[base.neg(a)] for a in reps])

    def project(self, x: int) -> int:
        return self._proj[x]

    def add(self, a, b):
        return self._proj[self.base.add(self._reps[a], self._reps[b])]

    def mul(self, a, b):
        return self._proj[self.base.mul(self._reps[a], self._reps[b])]

    def neg(self, a):
        return self._proj[self.base.neg(self._reps[a])]

    def decode(self, index):
        return self.base.decode(self._reps[index])

    def encode(self, literal):
        return self._proj[self.base.encode(literal)]

    def _solve_all(self, a, t):
        la, lt = self._reps[a], self._reps[t]
        seen = set()
        for i in self.ideal_elements:
            u = self.base.add(lt, i)
            for x in self.base.solve_mul_all(la, u):
                seen.add(self._proj[x])
        return sorted(seen)


class IdealizationRing(MixedRadixRing):
    """Pairs (r, m): the base ring R acting on the module ring M.

    M is the :class:`ProductRing` of the cyclic components R/J_k, and R acts
    through ``act[r]`` = (r + J_1, ..., r + J_k); then r*m is the product
    act[r]*m in M, kept for every pair in ``_scaled``, indexed like the
    carrier itself.  The digits are (M, R), so index r * |M| + m names
    (r, m), and (r1, m1)(r2, m2) = (r1r2, r1m2 + r2m1), so (0, m) squares to
    zero.  Every operation is one base operation and one module operation,
    whatever the number of components.  For its random solver it also keeps
    ``_scaled`` negated and, per r, the bitmask of act[r]*M.  Built without
    an expression, it names each component by its quotient's ideal, so
    :func:`build_ring` realizes it.
    """

    def __init__(self, base: FiniteRing, components: tuple[QuotientRing, ...],
                 expression=None):
        self.base = base
        self.module = module = ProductRing(tuple(components))
        self.module_size = ms = module.size
        if expression is None:
            spec = ModuleSpec(tuple(c.expression.ideal for c in module.digits))
            expression = Idealization(base.expression, spec)
        super().__init__((module, base), expression, (0, base.one))
        self.commutative = base.commutative
        self._act = [module._join(c.project(r) for c in module.digits)
                     for r in range(base.size)]
        self._scaled = [module.mul(u, m) for u in self._act for m in range(ms)]
        self._minus_scaled = [module.neg(v) for v in self._scaled]
        # per r, the bitmask of act[r]*M: the module targets r can meet
        self._images = [sum(1 << v for v in set(self._scaled[r * ms:(r + 1) * ms]))
                        for r in range(base.size)]
        self._install_op_tables()

    def mul(self, a, b):
        ms = self.module_size
        scaled = self._scaled
        r1, m1 = divmod(a, ms)
        r2, m2 = divmod(b, ms)
        return (self.base.mul(r1, r2) * ms
                + self.module.add(scaled[r1 * ms + m2], scaled[r2 * ms + m1]))

    def decode(self, index):
        r, m = divmod(index, self.module_size)
        return (self.base.decode(r), self.module.decode(m))

    def encode(self, literal):
        literal = freeze_literal(literal)
        if not isinstance(literal, tuple) or len(literal) != 2:
            raise MalformedExpressionError(
                f"expected [r, [components...]] literal for {self.label}, got {literal!r}"
            )
        r_lit, m_lits = literal
        if not isinstance(m_lits, tuple) or len(m_lits) != len(self.module.digits):
            raise MalformedExpressionError(
                f"module part of an {self.label} literal must list "
                f"{len(self.module.digits)} component(s), got {m_lits!r}"
            )
        return self.base.encode(r_lit) * self.module_size + self.module.encode(m_lits)

    def _build_unit_flags(self) -> bytes:
        # (r, m) with r a unit has the inverse (1/r, -m/r**2), and r*y = 1
        # needs a unit r; index r * |M| + m puts each flag |M| times in a row
        return b"".join(bytes([f]) * self.module_size for f in self.base.unit_flags)

    def _solve_all(self, a, t):
        # (r, m)(y, x) = (ry, rx + ym): y solves the base equation, then x
        # solves act[r]*x = tm - y*m in the module; both lists ascend
        ms = self.module_size
        module, scaled = self.module, self._scaled
        r, m = divmod(a, ms)
        tr, tm = divmod(t, ms)
        ar = self._act[r]
        out = []
        for y in self.base.solve_mul_all(r, tr):
            yms = y * ms
            out.extend(yms + x for x in
                       module.solve_mul_all(ar, module.sub(tm, scaled[yms + m])))
        return out

    def _solve_random(self, a, t, rng):
        # the module equation is solvable or not depending on y, so walk the
        # y-candidates from a random offset: a solvable equation always
        # returns a solution.  A y whose target lies outside act[r]*M is
        # skipped without a call, as the module solver would return None for
        # it without drawing
        ms = self.module_size
        add, minus = self.module.add, self._minus_scaled
        r, m = divmod(a, ms)
        tr, tm = divmod(t, ms)
        ys = self.base.solve_mul_all(r, tr)
        if not ys:
            return None
        image = self._images[r]
        start = int(rng.random() * len(ys))
        for k in range(len(ys)):
            yms = ys[(start + k) % len(ys)] * ms
            u = add(tm, minus[yms + m])
            if image >> u & 1:
                return yms + self.module.solve_mul_random(self._act[r], u, rng)
        return None


class TriangularERing(MixedRadixRing):
    """Quadruples with the upper-triangular constant-diagonal product law.

    Noncommutative for bases with more than one element (the b1*d2 cross
    term has no mirror), so only the operations that do not assume
    commutativity may be used on this carrier.

    An index is four base digits (a, b, c, d), d the least significant.
    Multiplication and the solvers run on flat tables of the base: indexed
    p * n + q for base elements p and q, its ``add``, ``mul`` and ``sub``
    and its complete solution lists of p*x = q.  So even above
    ``OP_TABLE_LIMIT`` they make no call into the base per digit.  They
    split an index once, into the halves a * n + b and c * n + d, and read
    each half's two digits, plain or times n, off tables of n*n entries.
    """

    def __init__(self, base: FiniteRing):
        self.base = base
        n = base.size
        super().__init__((base,) * 4, TriangularE(base.expression),
                         (0, 0, 0, base.one))
        self.commutative = base.size == 1
        self._add_t = _digitwise_table((base,), "add")
        self._mul_t = _digitwise_table((base,), "mul")
        self._sub_t = _digitwise_table((base,), "sub")
        self._solutions_t = [base.solve_mul_all(p, q)
                             for p in range(n) for q in range(n)]
        # an index is two halves p * n + q, (a, b) and (c, d): their digits
        # (p, q) and, as rows of the base tables, (p * n, q * n)
        self._digits_t = [divmod(h, n) for h in range(n * n)]
        self._rows_t = [(h - h % n, h % n * n) for h in range(n * n)]
        self._install_op_tables()

    def mul(self, x, y):
        # (a1 b1 c1; 0 a1 d1; 0 0 a1)(a2 b2 c2; 0 a2 d2; 0 0 a2) =
        # (a1a2, a1b2 + b1a2, a1c2 + b1d2 + c1a2, a1d2 + d1a2)
        n = self.base.size
        nn = n * n
        at, mt, rows, digits = self._add_t, self._mul_t, self._rows_t, self._digits_t
        x, x_low = divmod(x, nn)
        y, y_low = divmod(y, nn)
        a1, b1 = rows[x]
        c1, d1 = rows[x_low]
        a2, b2 = digits[y]
        c2, d2 = digits[y_low]
        a = mt[a1 + a2]
        b = at[mt[a1 + b2] * n + mt[b1 + a2]]
        c = at[at[mt[a1 + c2] * n + mt[b1 + d2]] * n + mt[c1 + a2]]
        d = at[mt[a1 + d2] * n + mt[d1 + a2]]
        return (a * n + b) * nn + c * n + d

    def decode(self, index):
        return tuple(self.base.decode(x) for x in reversed(self._split(index)))

    def encode(self, literal):
        literal = freeze_literal(literal)
        if not isinstance(literal, tuple) or len(literal) != 4:
            raise MalformedExpressionError(
                f"expected [a,b,c,d] literal for {self.label}, got {literal!r}"
            )
        return self._join(reversed([self.base.encode(x) for x in literal]))

    def _build_unit_flags(self) -> bytes:
        # a triangular matrix is a unit iff its diagonal digit a is, and a
        # is the most significant digit, so each flag covers n**3 indices
        n = self.base.size
        return b"".join(bytes([f]) * n ** 3 for f in self.base.unit_flags)

    def _equations(self, alpha, tau) -> tuple[int, ...]:
        """The digits of alpha = (a, b, c, d) and tau = (t0, t1, t2, t3).

        alpha*(x, y, z, w) = tau is four base equations with the left factor
        a: a*x = t0, a*y = t1 - b*x, a*w = t3 - d*x and a*z = t2 - b*w - c*x.
        Every digit but t0 comes times n, as a row of the base tables.
        """
        nn = self.base.size ** 2
        rows = self._rows_t
        alpha, alpha_low = divmod(alpha, nn)
        tau, tau_low = divmod(tau, nn)
        return (*rows[alpha], *rows[alpha_low], self._digits_t[tau][0], rows[tau][1],
                *rows[tau_low])

    def _solve_all(self, alpha, tau):
        n = self.base.size
        mt, st, sols = self._mul_t, self._sub_t, self._solutions_t
        a, b, c, d, t0, t1, t2, t3 = self._equations(alpha, tau)
        out = []
        for x in sols[a + t0]:
            ys = sols[a + st[t1 + mt[b + x]]]
            if not ys:
                continue
            cx = mt[c + x]
            for w in sols[a + st[t3 + mt[d + x]]]:
                for z in sols[a + st[st[t2 + mt[b + w]] * n + cx]]:
                    out.extend(((x * n + y) * n + z) * n + w for y in ys)
        out.sort()
        return out

    def _solve_random(self, alpha, tau, rng):
        # the equations share the left factor a, but their solvability
        # depends on x (and w), so walk those candidate lists from random
        # offsets: a solvable equation always returns a solution.  y and z
        # are uniform draws from their complete lists, as the base's
        # solve_mul_random makes them: a base has at most
        # SOLUTION_CACHE_LIMIT elements under any size cap below 256**4.
        n = self.base.size
        mt, st, sols = self._mul_t, self._sub_t, self._solutions_t
        rnd = rng.random
        a, b, c, d, t0, t1, t2, t3 = self._equations(alpha, tau)
        xs = sols[a + t0]
        if not xs:
            return None
        xstart = int(rnd() * len(xs))
        for kx in range(len(xs)):
            x = xs[(xstart + kx) % len(xs)]
            ys = sols[a + st[t1 + mt[b + x]]]
            if not ys:
                continue
            y = ys[int(rnd() * len(ys))]
            ws = sols[a + st[t3 + mt[d + x]]]
            if not ws:
                continue
            cx = mt[c + x]
            wstart = int(rnd() * len(ws))
            for kw in range(len(ws)):
                w = ws[(wstart + kw) % len(ws)]
                zs = sols[a + st[st[t2 + mt[b + w]] * n + cx]]
                if zs:
                    z = zs[int(rnd() * len(zs))]
                    return ((x * n + y) * n + z) * n + w
        return None


# ---------------------------------------------------------------------------
# Ideal span (used by quotient construction; re-exported for the ideal layer)


def _mask_elements(mask: int):
    """Indices of the set bits of ``mask``, ascending; one step per set bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_elements(mask: int) -> tuple[int, ...]:
    return tuple(_mask_elements(mask))


def additive_cosets(ring: FiniteRing, members):
    """Yield each coset x + H of the additive subgroup H that ``members``
    lists, as its least element x and the list of its elements x + h, in
    ascending order of x; lazily, so a caller that stops early pays less."""
    add, covered = ring.add, bytearray(ring.size)
    for x in range(ring.size):
        if not covered[x]:
            coset = [add(x, h) for h in members]
            for y in coset:
                covered[y] = 1
            yield x, coset


def _coset_union(ring: FiniteRing, mask: int, members: list[int],
                 subgroup) -> tuple[int, list[int]]:
    """Sum H + K of the additive subgroup H (``mask``, ``members``) and the
    additive subgroup K whose elements ``subgroup`` lists.

    H + K is the union of the cosets k + H for k in K.  The running union is
    a union of whole cosets of H, so a coset needs adding only when its
    representative k is not yet covered, and the sum costs |H + K|
    additions plus one membership test per element of K.
    """
    add = ring.add
    out = list(members)
    for k in subgroup:
        if not (mask >> k) & 1:
            for h in members:
                s = add(k, h)
                mask |= 1 << s
                out.append(s)
    return mask, out


def ideal_span(ring: FiniteRing, gens) -> int:
    """Bitmask of the smallest two-sided ideal containing ``gens``.

    R*y is an additive subgroup (r*y + r'*y = (r + r')*y) and a left ideal;
    in a commutative ring it is already an ideal, so the span is the sum of
    the subgroups R*g, each added by :func:`_coset_union`.  In a
    noncommutative ring the ideal R*g*R is the sum of the left ideals R*y
    over y in g*R; a y already inside the running sum adds nothing, because
    that sum is a left ideal.
    """
    mul = ring.mul
    elements = range(ring.size)
    mask, members = 1, [0]
    for g in gens:
        ys = (g,) if ring.commutative else sorted({mul(g, s) for s in elements})
        for y in ys:
            if not (mask >> y) & 1:
                mask, members = _coset_union(ring, mask, members,
                                             {mul(r, y) for r in elements})
    return mask


# ---------------------------------------------------------------------------
# Construction


def build_ring(expr: RingExpression, *, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """Realize a construction expression as a concrete ring.

    Raises MalformedExpressionError for invalid expressions and
    SizeCapExceededError when the realized carrier would exceed ``size_cap``.
    A cheap seeded sample of the ring axioms runs on every construction;
    the exhaustive suite lives in :func:`verify_ring_axioms`.
    """
    ring = _realize(expr, size_cap, "ring")
    if ring.size > size_cap:
        raise SizeCapExceededError(
            f"ring size {ring.size} exceeds cap {size_cap}")
    _quick_axiom_sample(ring)
    return ring


def encode_literals(ring: FiniteRing, literals, path: str) -> tuple[int, ...]:
    """The indices of the element ``literals`` of ``ring``; a literal that
    does not encode is reported at ``path[i]``, i its position."""
    out = []
    for i, lit in enumerate(literals):
        try:
            out.append(ring.encode(lit))
        except MalformedExpressionError as exc:
            raise MalformedExpressionError(f"{path}[{i}]: {exc}") from exc
    return tuple(out)


def _check_cap(kind: str, size: int, size_cap: int, path: str) -> None:
    if size > size_cap:
        raise SizeCapExceededError(f"{path}: {kind} size {size} exceeds cap {size_cap}")


def _realize(expr, size_cap: int, path: str) -> FiniteRing:
    """The ring of ``expr``, the node at key path ``path`` of a ring file."""
    if isinstance(expr, ZMod):
        if not isinstance(expr.n, int) or expr.n < 2:
            raise MalformedExpressionError(
                f"{path}: zmod requires integer n >= 2, got {expr.n!r}")
        _check_cap("zmod", expr.n, size_cap, path)
        return ZModRing(expr.n)
    if isinstance(expr, Product):
        if not expr.factors:
            raise MalformedExpressionError(f"{path}: product requires at least one factor")
        factors = tuple(_realize(f, size_cap, f"{path}.factors[{i}]")
                        for i, f in enumerate(expr.factors))
        _check_cap("product", math.prod(f.size for f in factors), size_cap, path)
        return ProductRing(factors)
    if isinstance(expr, Quotient):
        base = _realize(expr.base, size_cap, f"{path}.base")
        mask = ideal_span(base, encode_literals(base, expr.ideal, f"{path}.ideal"))
        ring = QuotientRing(base, mask, expr)
        if ring.size == 1:
            raise MalformedExpressionError(
                f"{path}: quotient of {base.label} by the unit ideal collapses "
                "to the zero ring")
        return ring
    if isinstance(expr, Idealization):
        base = _realize(expr.base, size_cap, f"{path}.base")
        comps = []
        for k, comp_gens in enumerate(expr.module.cyclic):
            gens = encode_literals(base, comp_gens, f"{path}.module.cyclic[{k}]")
            comps.append(QuotientRing(base, ideal_span(base, gens)))
        if not comps:
            raise MalformedExpressionError(
                f"{path}: idealization module needs >= 1 cyclic component")
        _check_cap("idealization", base.size * math.prod(c.size for c in comps),
                   size_cap, path)
        return IdealizationRing(base, tuple(comps), expr)
    if isinstance(expr, TriangularE):
        base = _realize(expr.base, size_cap, f"{path}.base")
        _check_cap("triangular carrier", base.size ** 4, size_cap, path)
        return TriangularERing(base)
    raise MalformedExpressionError(f"{path}: unknown expression node {expr!r}")


def _axiom_failure(ring: FiniteRing, elements, triples) -> str | None:
    """The first ring axiom failing, or None when all hold.

    The identity and inverse axioms are checked at each of ``elements``,
    then the others at each (a, b, c) of ``triples``, in a fixed order; a
    failure reads "<axiom> fails at <element or triple>".
    """
    add, mul, neg = ring.add, ring.mul, ring.neg
    zero, one = ring.zero, ring.one
    if ring.size > 1 and zero == one:
        return "zero equals one"
    for a in elements:
        if add(a, zero) != a:
            return f"additive identity fails at {a}"
        if mul(a, one) != a or mul(one, a) != a:
            return f"multiplicative identity fails at {a}"
        if add(a, neg(a)) != zero:
            return f"additive inverse fails at {a}"
    commutative = ring.commutative
    for a, b, c in triples:
        if add(add(a, b), c) != add(a, add(b, c)):
            axiom = "associativity of addition"
        elif add(a, b) != add(b, a):
            axiom = "commutativity of addition"
        elif mul(mul(a, b), c) != mul(a, mul(b, c)):
            axiom = "associativity of multiplication"
        elif mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
            axiom = "left distributivity"
        elif mul(add(b, c), a) != add(mul(b, a), mul(c, a)):
            axiom = "right distributivity"
        elif commutative and mul(a, b) != mul(b, a):
            axiom = "commutativity of multiplication"
        else:
            continue
        return f"{axiom} fails at {(a, b, c)}"
    return None


def _sampled_triples(size: int, count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng.randrange(size), rng.randrange(size), rng.randrange(size)


def _quick_axiom_sample(ring: FiniteRing) -> None:
    """Seeded spot check of the ring axioms on 64 triples; raises on the
    first failure.

    The identity and inverse axioms are checked at the first entry of each
    sampled triple.
    """
    sample = list(_sampled_triples(ring.size, 64, 0xC0FFEE ^ ring.size))
    failure = _axiom_failure(ring, [a for a, _, _ in sample], sample)
    if failure is not None:
        raise MalformedExpressionError(f"{ring.label}: {failure}")


def verify_ring_axioms(ring: FiniteRing, *,
                       samples: int = AXIOM_SAMPLE_TRIPLES) -> list[str]:
    """Check the ring axioms, exhaustively for small carriers.

    Returns the first failure as a one-element list of its human-readable
    description (empty when all axioms hold).  The identity and inverse
    axioms are checked at every element; above ``AXIOM_EXHAUSTIVE_LIMIT``
    elements the triple checks downgrade to ``samples`` random draws from
    seed 0.
    """
    size = ring.size
    if size <= AXIOM_EXHAUSTIVE_LIMIT:
        triples = itertools.product(range(size), repeat=3)
    else:
        triples = _sampled_triples(size, samples, 0)
    failure = _axiom_failure(ring, range(size), triples)
    return [] if failure is None else [failure]


# ---------------------------------------------------------------------------
# Elementwise classification


def power_cycle(ring: FiniteRing, a: int):
    """Yield a, a**2, a**3, ... up to and including the first power equal to
    an earlier one.

    The power sequence of an element of a finite ring is eventually
    periodic, so the walk ends within ring.size + 1 powers; once a power is
    0, the next one repeats it.
    """
    seen = set()
    p = a
    while p not in seen:
        yield p
        seen.add(p)
        p = ring.mul(p, a)
    yield p


def nilpotent_profile(ring: FiniteRing) -> dict[int, int]:
    """Map each nilpotent element to the least n >= 1 with a**n == 0."""
    profile: dict[int, int] = {}
    for a in range(ring.size):
        for n, p in enumerate(power_cycle(ring, a), 1):
            if p == ring.zero:
                profile[a] = n
                break
    return profile


def zero_divisor_set(ring: FiniteRing) -> frozenset[int]:
    """Nonzero elements a admitting a nonzero b with a*b == 0.

    Every annihilator holds 0, index 0, so a is a zero divisor exactly when
    :meth:`FiniteRing.annihilator` gives more than the bit of 0.
    """
    return frozenset(a for a in range(1, ring.size) if ring.annihilator(a) != 1)
