"""Symbolic extraction of the stochastic Riccati equation's coefficients.

The condition form of the equation mixes dt, dM1, dM2 and dPi; assuming
the integrators are linearly independent, substituting the ansatz

    dPi = A dt + B1 dM1 + B2 dM2

and collecting the three slots determines A, B1, B2 uniquely.  This module
performs that extraction in the free *-algebra of ``qscontrol.freealg``
(two-noise Boson case, rho = id) and compares the result term by term
against the printed specialization.  Coefficients never commute; only the
four table scalars s_ba, central letters of the algebra, do.

Differentials are ``SymbolicDifferential``s over the labels dt, dM1, dM2
with polynomial coefficients, multiplied by the package's one product
loop, ``ito.differential.bilinear_extension``, with the table

    dM1 dM1 = s21 dt    dM1 dM2 = s22 dt
    dM2 dM1 = s11 dt    dM2 dM2 = s12 dt
    dt  d*  = d* dt = 0,

i.e. dM_b* dM_a = s_ba dt with dM1* = dM2.
"""

from __future__ import annotations

from enum import Enum

from .freealg import FreePoly
from .ito.differential import SymbolicDifferential, bilinear_extension


class _Noise(Enum):
    TIME = "dt"
    M1 = "dM1"
    M2 = "dM2"

    def adjoint(self):
        return {_Noise.M1: _Noise.M2, _Noise.M2: _Noise.M1}.get(self, self)


_SIGMA = {
    (_Noise.M1, _Noise.M1): "s21",
    (_Noise.M1, _Noise.M2): "s22",
    (_Noise.M2, _Noise.M1): "s11",
    (_Noise.M2, _Noise.M2): "s12",
}


def _sigma_product(la, lb):
    """The (label, weight) pairs of ``la lb``: one dt term, or () when it vanishes."""
    name = _SIGMA.get((la, lb))
    return () if name is None else ((_Noise.TIME, FreePoly.sym(name)),)


_sigma_mul = bilinear_extension(_sigma_product)


def syms(names):
    """The generators named in a space-separated list."""
    return [FreePoly.sym(name) for name in names.split()]


def _condition_equation(sign, a, b1, b2):
    """The condition equation for dPi = a dt + b1 dM1 + b2 dM2, as a differential."""
    F, Fs, Pi, Q, Gq, w, F1, F2 = syms("F F* Pi Q Gq w F1 F2")
    dpi = SymbolicDifferential({_Noise.TIME: a, _Noise.M1: b1, _Noise.M2: b2})
    v = SymbolicDifferential({_Noise.M1: F1 * w, _Noise.M2: F2 * w})
    v_star = v.adjoint()
    # sign (V + sign id)* dPi (V + sign id), expanded: V* dPi V is a triple
    # product of increments and vanishes, and sign^2 = 1
    return (
        SymbolicDifferential.basis(_Noise.TIME, Fs * Pi + Pi * F + Q - Pi * Gq * Pi)
        + v_star * Pi
        + Pi * v
        + sign * _sigma_mul(v_star * Pi, v)
        + _sigma_mul(v_star, dpi)
        + _sigma_mul(dpi, v)
        + sign * dpi
    )


def _isolate(sign, equation, label, unknown):
    """Solve the ``label`` slot of ``equation`` = 0 for an unknown the slot
    carries as ``sign * unknown``."""
    slot = equation.terms.get(label, FreePoly.zero())
    rest = slot.set_zero(unknown)
    residual = slot - (sign * FreePoly.sym(unknown) + rest)
    if not residual.is_zero():
        raise RuntimeError(f"slot is not linear in {unknown}: {residual.canonical_str()}")
    return -sign * rest


def extract_riccati_coefficients(sign):
    """Solve the condition equation for (A, B1, B2), given the branch sign.

    ``sign`` is +1 for the terminal-boundary branch (Pi(T) = QT) and -1
    for the initial-boundary branch (Pi(0) = Q0).  The equation is

        dt (F* Pi + Pi F + Q - Pi Gq Pi) + V* Pi + Pi V + sign V* Pi V
        + sign (V + sign)* dPi (V + sign) = 0,      V = dM1 F1 w + dM2 F2 w,

    expanded with the table, with dPi = A dt + B1 dM1 + B2 dM2.  The dM1
    and dM2 slots are linear in B1, B2 and the dt slot linear in A, so the
    extraction is a direct solve.
    """
    a_sym, b1_sym, b2_sym = syms("A B1 B2")
    equation = _condition_equation(sign, a_sym, b1_sym, b2_sym)
    b1_sol = _isolate(sign, equation, _Noise.M1, "B1")
    b2_sol = _isolate(sign, equation, _Noise.M2, "B2")
    # A depends on B1, B2 through the quadratic-variation cross terms, so
    # the dt slot is rebuilt with the solved martingale coefficients.
    equation = _condition_equation(sign, a_sym, b1_sol, b2_sol)
    return {"A": _isolate(sign, equation, _Noise.TIME, "A"), "B1": b1_sol, "B2": b2_sol}


def printed_coefficients(sign):
    """The printed two-noise rho = id specialization for the same branch."""
    F, Fs, Pi, Q, Gq, w, F1, F2 = syms("F F* Pi Q Gq w F1 F2")
    s11, s12, s21, s22 = syms("s11 s12 s21 s22")
    c1, c2 = F1 * w, F2 * w
    c1s, c2s = c1.adjoint(), c2.adjoint()
    s_quad = s11 * c2 * c1 + s12 * c2 * c2 + s22 * c1 * c2 + s21 * c1 * c1
    sandwich = (
        s11 * c1s * Pi * c1
        + s12 * c1s * Pi * c2
        + s22 * c2s * Pi * c2
        + s21 * c2s * Pi * c1
    )
    a_poly = (
        (-sign * Fs + s_quad.adjoint()) * Pi
        + (-sign * Pi * F + Pi * s_quad)
        + sandwich
        - sign * Q
        + sign * Pi * Gq * Pi
    )
    return {
        "A": a_poly,
        "B1": -sign * (c2s * Pi + Pi * c1),
        "B2": -sign * (c1s * Pi + Pi * c2),
    }


def prop2_specialization_check(direction="q0"):
    """Compare extracted vs printed coefficients for a branch.

    Returns a report dict; ``matches`` only when every slot difference is
    the zero polynomial.  On mismatch both coefficient sets are included.
    """
    sign = -1 if direction == "q0" else +1
    extracted = extract_riccati_coefficients(sign)
    printed = printed_coefficients(sign)
    diffs = {key: extracted[key] - printed[key] for key in ("A", "B1", "B2")}
    matches = {key: diff.is_zero() for key, diff in diffs.items()}
    report = {
        "direction": direction,
        "sign": sign,
        "matches": all(matches.values()),
        "per_slot": matches,
    }
    if not report["matches"]:
        for name, polys in (("extracted", extracted), ("printed", printed), ("differences", diffs)):
            report[name] = {k: v.canonical_str() for k, v in polys.items()}
    return report
