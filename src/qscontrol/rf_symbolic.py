"""Symbolic extraction of the stochastic Riccati equation's coefficients.

The condition form of the equation mixes dt, dM1, dM2 and dPi; assuming
the integrators are linearly independent, substituting the ansatz

    dPi = A dt + B1 dM1 + B2 dM2

and collecting the three slots determines A, B1, B2 uniquely.  This module
performs that extraction over noncommutative sympy symbols (two-noise
Boson case, rho = id) and compares the result term by term against the
printed specialization.  Coefficients never commute; only the four table
scalars sigma_ba do.

Differentials are dicts {"dt": expr, "m1": expr, "m2": expr} with the
multiplication table

    dM1 dM1 = sigma21 dt    dM1 dM2 = sigma22 dt
    dM2 dM1 = sigma11 dt    dM2 dM2 = sigma12 dt
    dt  d*  = d* dt = 0,

i.e. dM_b* dM_a = sigma_ba dt with M1* = M2.
"""

from __future__ import annotations

import sympy as sp

SIGMA = {
    ("m1", "m1"): sp.Symbol("sigma21", commutative=True),
    ("m1", "m2"): sp.Symbol("sigma22", commutative=True),
    ("m2", "m1"): sp.Symbol("sigma11", commutative=True),
    ("m2", "m2"): sp.Symbol("sigma12", commutative=True),
}

# Noncommutative coefficient symbols and their adjoints.  Pi, Q and the
# lumped gain quadratic Gq = G R^{-1} G* are self-adjoint.
_NC = {
    name: sp.Symbol(name, commutative=False)
    for name in (
        "F", "Fs", "Pi", "Q", "Gq", "w", "ws", "z", "zs", "F1", "F1s", "F2", "F2s",
        "A", "B1", "B2",
    )
}
_STAR_MAP = {
    "F": "Fs", "Fs": "F", "Pi": "Pi", "Q": "Q", "Gq": "Gq",
    "w": "ws", "ws": "w", "z": "zs", "zs": "z",
    "F1": "F1s", "F1s": "F1", "F2": "F2s", "F2s": "F2",
    "A": "A", "B1": "B1", "B2": "B2",  # placeholders never starred in use
}


def sym(name):
    return _NC[name]


_SIGMA_STAR = {
    sp.Symbol("sigma12", commutative=True): sp.Symbol("sigma21", commutative=True),
    sp.Symbol("sigma21", commutative=True): sp.Symbol("sigma12", commutative=True),
}


def star(expr):
    """Formal adjoint: reverse noncommutative products, star each symbol.

    The table scalars form a Hermitian matrix for any adjoint pair
    ((dM_b* dM_a)* = dM_a* dM_b), so conjugation swaps sigma12 and
    sigma21 while sigma11, sigma22 stay fixed (they are real).
    """
    expr = sp.expand(expr)
    if expr.is_Add:
        return sp.Add(*[star(arg) for arg in expr.args])
    if expr.is_Mul:
        comm, noncomm = [], []
        for factor in expr.args:
            (comm if factor.is_commutative else noncomm).append(factor)
        starred = [_star_atom(f) for f in reversed(noncomm)]
        comm_starred = [factor.subs(_SIGMA_STAR, simultaneous=True) for factor in comm]
        return sp.Mul(*comm_starred) * sp.Mul(*starred)
    if expr.is_commutative:
        return expr.subs(_SIGMA_STAR, simultaneous=True)
    return _star_atom(expr)


def _star_atom(atom):
    if atom.is_commutative:
        return atom
    if atom.is_Pow:
        return _star_atom(atom.base) ** atom.exp
    name = atom.name
    if name not in _STAR_MAP:
        raise ValueError(f"no adjoint rule for symbol {name}")
    return _NC[_STAR_MAP[name]]


ZERO_DIFF = {"dt": sp.S.Zero, "m1": sp.S.Zero, "m2": sp.S.Zero}


def diff_add(*diffs):
    out = dict(ZERO_DIFF)
    for d in diffs:
        for key in out:
            out[key] = out[key] + d.get(key, 0)
    return out


def diff_scale(scalar, d):
    return {key: scalar * val for key, val in d.items()}


def diff_lmul(expr, d):
    """Left-multiply every slot coefficient by an operator expression."""
    return {key: expr * val for key, val in d.items()}


def diff_rmul(d, expr):
    return {key: val * expr for key, val in d.items()}


def diff_mul(d1, d2):
    """Ito product: only increment-increment pairs survive, landing in dt."""
    total = sp.S.Zero
    for a in ("m1", "m2"):
        for b in ("m1", "m2"):
            total = total + SIGMA[(a, b)] * d1[a] * d2[b]
    return {"dt": total, "m1": sp.S.Zero, "m2": sp.S.Zero}


def diff_star(d):
    """Adjoint of a differential: dM1* = dM2 swaps the increment slots."""
    return {"dt": star(d["dt"]), "m1": star(d["m2"]), "m2": star(d["m1"])}


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
    s = sp.Integer(sign)
    F, Fs, Pi, Q, Gq = (sym(n) for n in ("F", "Fs", "Pi", "Q", "Gq"))
    w, F1, F2 = sym("w"), sym("F1"), sym("F2")
    a_sym, b1_sym, b2_sym = sym("A"), sym("B1"), sym("B2")

    v_diff = {"dt": sp.S.Zero, "m1": F1 * w, "m2": F2 * w}
    v_star = diff_star(v_diff)
    dpi = {"dt": a_sym, "m1": b1_sym, "m2": b2_sym}
    pi_diff = {"dt": Fs * Pi + Pi * F + Q - Pi * Gq * Pi, "m1": sp.S.Zero, "m2": sp.S.Zero}

    # (V + sign id)* dPi (V + sign id), expanded; the identity slots attach
    # dPi and its one-sided products.
    sandwich = diff_add(
        diff_mul(diff_mul(v_star, dpi), v_diff),  # V* dPi V (triple -> 0 anyway)
        diff_scale(s, diff_mul(v_star, dpi)),
        diff_scale(s, diff_mul(dpi, v_diff)),
        dpi,
    )
    equation = diff_add(
        pi_diff,
        diff_rmul(diff_lmul(sp.S.One, v_star), Pi),
        diff_lmul(Pi, v_diff),
        diff_scale(s, _pi_middle(v_star, Pi, v_diff)),
        diff_scale(s, sandwich),
    )

    # Each slot is linear with scalar coefficient `sign` on its unknown
    # (sympy's solve is unreliable on noncommutative symbols, so isolate
    # by substitution: unknown = -sign * (slot with unknown set to 0)).
    def isolate(slot, unknown):
        rest = sp.expand(slot).subs(unknown, 0)
        residual = sp.expand(slot - (s * unknown + rest))
        if residual != 0:
            raise RuntimeError(f"slot is not linear in {unknown}: {residual}")
        return sp.expand(-s * rest)

    b1_sol = isolate(equation["m1"], b1_sym)
    b2_sol = isolate(equation["m2"], b2_sym)
    # A depends on B1, B2 through the quadratic-variation cross terms.
    a_sol = isolate(
        sp.expand(equation["dt"]).subs([(b1_sym, b1_sol), (b2_sym, b2_sol)]), a_sym
    )
    return {"A": a_sol, "B1": b1_sol, "B2": b2_sol}


def _pi_middle(v_star, pi_sym, v_diff):
    """V* Pi V (dt-slot quadratic variation with Pi in the middle)."""
    total = sp.S.Zero
    for a in ("m1", "m2"):
        for b in ("m1", "m2"):
            total = total + SIGMA[(a, b)] * v_star[a] * pi_sym * v_diff[b]
    return {"dt": total, "m1": sp.S.Zero, "m2": sp.S.Zero}


def printed_coefficients(sign):
    """The printed two-noise rho = id specialization for the same branch."""
    s = sp.Integer(sign)
    F, Fs, Pi, Q, Gq = (sym(n) for n in ("F", "Fs", "Pi", "Q", "Gq"))
    w, ws = sym("w"), sym("ws")
    F1, F1s, F2, F2s = sym("F1"), sym("F1s"), sym("F2"), sym("F2s")
    s11, s12, s21, s22 = (
        SIGMA[("m2", "m1")],
        SIGMA[("m2", "m2")],
        SIGMA[("m1", "m1")],
        SIGMA[("m1", "m2")],
    )
    c1, c2 = F1 * w, F2 * w
    c1s, c2s = ws * F1s, ws * F2s
    s_quad = s11 * c2 * c1 + s12 * c2 * c2 + s22 * c1 * c2 + s21 * c1 * c1
    s_quad_star = star(s_quad)
    sandwich = (
        s11 * c1s * Pi * c1
        + s12 * c1s * Pi * c2
        + s22 * c2s * Pi * c2
        + s21 * c2s * Pi * c1
    )
    a_expr = (
        (-s * Fs + s_quad_star) * Pi
        + (-s * Pi * F + Pi * s_quad)
        + sandwich
        - s * Q
        + s * Pi * Gq * Pi
    )
    b1_expr = -s * (c2s * Pi + Pi * c1)
    b2_expr = -s * (c1s * Pi + Pi * c2)
    return {
        "A": sp.expand(a_expr),
        "B1": sp.expand(b1_expr),
        "B2": sp.expand(b2_expr),
    }


def prop2_specialization_check(direction="q0"):
    """Compare extracted vs printed coefficients for a branch.

    Returns a report dict; ``matches`` only when every slot difference
    expands to zero.  On mismatch both coefficient sets are included.
    """
    sign = -1 if direction == "q0" else +1
    extracted = extract_riccati_coefficients(sign)
    printed = printed_coefficients(sign)
    diffs = {
        key: sp.expand(extracted[key] - printed[key]) for key in ("A", "B1", "B2")
    }
    matches = {key: bool(diff == 0) for key, diff in diffs.items()}
    report = {
        "direction": direction,
        "sign": sign,
        "matches": all(matches.values()),
        "per_slot": matches,
    }
    if not report["matches"]:
        report["extracted"] = {k: sp.sstr(v) for k, v in extracted.items()}
        report["printed"] = {k: sp.sstr(v) for k, v in printed.items()}
        report["differences"] = {k: sp.sstr(v) for k, v in diffs.items()}
    return report


def specialize_no_noise(expr):
    """Drop every noise-coupling term (F1 = F2 = 0)."""
    return sp.expand(expr.subs([(sym("F1"), 0), (sym("F1s"), 0), (sym("F2"), 0), (sym("F2s"), 0)]))


def specialize_w_zero(expr):
    return sp.expand(expr.subs([(sym("w"), 0), (sym("ws"), 0)]))
