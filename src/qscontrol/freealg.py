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
"""

from __future__ import annotations

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


class FreePoly:
    """Noncommutative polynomial: finite map word -> complex coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for word, coeff in terms.items():
                word = _reduce(tuple(word))
                c = complex(coeff)
                if c != 0:
                    clean[word] = clean.get(word, 0) + c
        self.terms = {w: c for w, c in clean.items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): 1.0})

    @classmethod
    def sym(cls, name, coeff=1.0):
        if name not in _STAR:
            raise ValueError(f"unknown generator {name!r}")
        return cls({(name,): coeff})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return FreePoly(out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, FreePoly):
            out = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    word = _reduce(w1 + w2)
                    out[word] = out.get(word, 0) + c1 * c2
            return FreePoly(out)
        return FreePoly({w: complex(other) * c for w, c in self.terms.items()})

    def __rmul__(self, scalar):
        return self * scalar

    def __neg__(self):
        return self * (-1.0)

    def adjoint(self):
        return FreePoly(
            {
                tuple(_STAR[x] for x in reversed(w)): c.conjugate()
                for w, c in self.terms.items()
            }
        )

    def set_zero(self, *names):
        """Set the named generators to zero: drop every word containing one."""
        gone = frozenset(names)
        if not gone <= _STAR.keys():
            raise ValueError(f"unknown generators {sorted(gone - _STAR.keys())}")
        return FreePoly({w: c for w, c in self.terms.items() if gone.isdisjoint(w)})

    def __eq__(self, other):
        if not isinstance(other, FreePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def max_coeff_diff(self, other):
        words = set(self.terms) | set(other.terms)
        return max(
            (abs(self.terms.get(w, 0) - other.terms.get(w, 0)) for w in words),
            default=0.0,
        )

    def canonical_str(self):
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[word]
            name = ".".join(word) if word else "1"
            parts.append(f"({c.real:+.12g}{c.imag:+.12g}j)*{name}")
        return " + ".join(parts)

    def __repr__(self):
        return f"FreePoly({self.canonical_str()})"
