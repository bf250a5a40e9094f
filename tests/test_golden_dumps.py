"""Golden canonical-string dumps of the symbolic generator forms.

These freeze the normal form of the flow coefficients; any change to the
free-algebra engine or the evolution coefficients that alters the
derivation shows up here first.
"""

from qscontrol.ito.labels import FIRST_ORDER
from qscontrol.qcontrol import derive_flow_hp

GOLDEN_FLOW = dict(zip(FIRST_ORDER, (
    "(+0+1j)*H.X + (+0-1j)*X.H + (-0.5+0j)*L*.L.X + (+1+0j)*L*.X.L + (-0.5+0j)*X.L*.L",
    "(+1+0j)*L*.X.W + (-1+0j)*X.L*.W",
    "(-1+0j)*W*.L.X + (+1+0j)*W*.X.L",
    "(-1+0j)*X + (+1+0j)*W*.X.W",
)))


def test_flow_generator_canonical_dump():
    report = derive_flow_hp()
    for label, want in GOLDEN_FLOW.items():
        assert report.computed[label].canonical_str() == want


def test_dump_is_deterministic():
    first = {k: v.canonical_str() for k, v in derive_flow_hp().computed.items()}
    second = {k: v.canonical_str() for k, v in derive_flow_hp().computed.items()}
    assert first == second
