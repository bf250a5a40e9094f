"""Free *-algebra over operator symbols, with unitary rewrite rules.

Words are tuples of generator names; a polynomial maps words to complex
coefficients.  Two alphabets share the algebra: {H, L, L*, W, W*, X, Pi}
for the Hudson-Parthasarathy flow, and the stochastic Riccati equation's
coefficients {F, F*, Q, Gq, w, w*, z, z*, F1, F1*, F2, F2*} with the
unknowns {A, B1, B2}.  The only relations are W W* -> 1 and W* W -> 1 (W
unitary) and the centrality of the four Ito-table scalars s11, s12, s21,
s22, which every word carries sorted at its front; nothing else commutes
unless cancellation makes it so.  This is deliberately weaker than matrix
arithmetic: an identity that holds here holds for every choice of bounded
operators and every table.

``Terms`` is the sparse linear structure the package's symbolic objects
share: a finite map key -> coefficient with no zero terms, its sums,
scalar multiples, equality and canonical dump.  ``FreePoly`` adds the word
product; ``qscontrol.ito.SymbolicDifferential`` adds the Ito tables, with
coefficients that may themselves be polynomials.
"""

from __future__ import annotations

from numbers import Number

_STAR = {
    "H": "H", "X": "X", "Pi": "Pi", "L": "L*", "L*": "L", "W": "W*", "W*": "W",
    "F": "F*", "F*": "F", "Q": "Q", "Gq": "Gq", "w": "w*", "w*": "w", "z": "z*", "z*": "z",
    "F1": "F1*", "F1*": "F1", "F2": "F2*", "F2*": "F2",
    "A": "A", "B1": "B1", "B2": "B2",  # placeholders for the unknowns, never starred in use
    # the table scalars sigma_ba form a Hermitian matrix for any adjoint pair
    # ((dM_b* dM_a)* = dM_a* dM_b), so conjugation swaps s12 and s21
    "s11": "s11", "s12": "s21", "s21": "s12", "s22": "s22",
}
_CENTRAL = frozenset(("s11", "s12", "s21", "s22"))
_UNITS = {("W", "W*"), ("W*", "W")}


def _reduce(word):
    """Hoist the central letters, sorted, to the front; then cancel adjacent
    W W* / W* W pairs until stable."""
    letters = sorted(x for x in word if x in _CENTRAL)
    letters += [x for x in word if x not in _CENTRAL]
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if (letters[i], letters[i + 1]) in _UNITS:
                del letters[i : i + 2]
                changed = True
                break
    return tuple(letters)


class Terms:
    """Finite map key -> coefficient with no zero terms.

    Numbers are stored as complex; ``Terms`` coefficients (polynomials in a
    differential) are kept as they are.  The arithmetic, equality and dump
    take either; ``max_coeff_diff`` (and ``approx_eq`` of a differential)
    need numeric coefficients.  Subclasses set the key normal form ``_key``
    and the dump's ``_order`` and ``_name`` of a key.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, coeff in (terms or {}).items():
            if not isinstance(coeff, Terms):
                coeff = complex(coeff) + 0  # + 0 turns -0.0 into 0.0, so dumps print "+0"
            if coeff:
                key = self._key(key)
                clean[key] = clean[key] + coeff if key in clean else coeff
        self.terms = {k: c for k, c in clean.items() if c}

    @staticmethod
    def _key(key):
        return key

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other):
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out[key] + coeff if key in out else coeff
        return type(self)(out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __rmul__(self, scalar):
        """Left scalar multiple: ``scalar`` multiplies each coefficient from the left."""
        return type(self)({k: scalar * c for k, c in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def max_coeff_diff(self, other):
        keys = self.terms.keys() | other.terms.keys()
        return max(
            (abs(self.terms.get(k, 0) - other.terms.get(k, 0)) for k in keys),
            default=0.0,
        )

    def canonical_str(self):
        """Deterministic human-readable dump, suitable for golden files.
        A polynomial coefficient prints as its own dump in brackets."""
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=self._order):
            c = self.terms[key]
            if isinstance(c, Terms):
                parts.append(f"[{c.canonical_str()}]*{self._name(key)}")
            else:
                parts.append(f"({c.real:+.12g}{c.imag:+.12g}j)*{self._name(key)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self.canonical_str()})"


class FreePoly(Terms):
    """Noncommutative polynomial: finite map word -> complex coefficient."""

    __slots__ = ()

    _key = staticmethod(_reduce)

    @staticmethod
    def _order(word):
        return len(word), word

    @staticmethod
    def _name(word):
        return ".".join(word) or "1"

    @classmethod
    def one(cls):
        return cls({(): 1.0})

    @classmethod
    def sym(cls, name, coeff=1.0):
        if name not in _STAR:
            raise ValueError(f"unknown generator {name!r}")
        return cls({(name,): coeff})

    def __mul__(self, other):
        if isinstance(other, Number):
            return other * self
        if not isinstance(other, FreePoly):
            return NotImplemented
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word = _reduce(w1 + w2)
                out[word] = out.get(word, 0) + c1 * c2
        return FreePoly(out)

    def adjoint(self):
        return FreePoly(
            {
                tuple(_STAR[x] for x in reversed(w)): c.conjugate()
                for w, c in self.terms.items()
            }
        )

    conjugate = adjoint  # the star of a polynomial coefficient

    def set_zero(self, *names):
        """Set the named generators to zero: drop every word containing one."""
        gone = frozenset(names)
        if not gone <= _STAR.keys():
            raise ValueError(f"unknown generators {sorted(gone - _STAR.keys())}")
        return FreePoly({w: c for w, c in self.terms.items() if gone.isdisjoint(w)})
